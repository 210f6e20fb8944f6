"""Independent quadrature oracles and closed-form cross-checks.

Everything here is computed by a route disjoint from the main code path:
the oracle's port of scipy's eval_hermite (checked against scipy bit for
bit) plus literal Riemann/Gauss-Hermite sums, closed-form
Laguerre matrix elements, and the symbol map's closed form by rotation
charge.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from math import factorial

from berezin import (HeisenbergElement, RepresentationContext, default_config,
                     oracle)
from berezin.oracle import (_MAX_MODE, PositionGrid, _eval_hermite,
                            _position_bounds, analytic_singular_values,
                            coherent_overlap_exact, displacement_element,
                            gauss_hermite_matrix_element, hermite_basis_value,
                            oracle_double_sum_ft, oracle_matrix_element,
                            synthesize, table_symbol_map)


def test_position_grid_invariants_hold_for_config():
    # the linspace grid of the Riemann oracle missed t = 0 at 40 of these
    # 320 configs
    for lam in (0.5, 1.0, 1.7, 2.0, 4.0):
        for M in range(1, 65):
            cfg = default_config(lam=lam, M=M)
            grid = PositionGrid.for_config(cfg)
            R, s = _position_bounds(cfg)
            assert grid.s <= s and grid.R >= R
            assert grid.R >= (np.sqrt((2 * M + 1) / lam)
                              + 10.0 / np.sqrt(lam))
            assert grid.t[-1] == grid.R == -grid.t[0]
            assert 0.0 in grid.t


def test_eval_hermite_is_scipys_eval_hermite_bit_for_bit():
    # every mode the overflow guard admits, at 40000 points out to |y| = 40
    # and at points where the recurrence overflows to inf (inf - inf: nan)
    from scipy.special import eval_hermite
    y = np.concatenate([np.linspace(-40.0, 40.0, 40000),
                        [-np.inf, -1e200, -1e5, -0.0, 1e5, 1e200, np.inf]])
    for m in range(_MAX_MODE + 1):
        assert np.array_equal(_eval_hermite(m, y), eval_hermite(m, y),
                              equal_nan=True), m
    assert np.isinf(_eval_hermite(2, y[-2:])).all()
    assert not np.isfinite(_eval_hermite(_MAX_MODE, y[-3:])).any()


def test_vacuum_value_at_origin():
    lam = 1.7
    cfg = default_config(lam=lam, M=4)
    grid = PositionGrid.for_config(cfg)
    coeffs = np.zeros(4, dtype=complex)
    coeffs[0] = 1.0
    vals = synthesize(coeffs, grid.t, lam)
    i0 = np.argmin(np.abs(grid.t))
    assert grid.t[i0] == 0.0
    assert vals[i0] == pytest.approx((lam / np.pi) ** 0.25, abs=1e-14)
    coeffs = np.zeros(4, dtype=complex)
    coeffs[1] = 1.0
    assert abs(synthesize(coeffs, grid.t, lam)[i0]) < 1e-14  # odd mode vanishes


def test_synthesized_mode_has_unit_norm():
    cfg = default_config(lam=1.0, M=8)
    grid = PositionGrid.for_config(cfg)
    coeffs = np.zeros(8, dtype=complex)
    coeffs[3] = 1.0
    vals = synthesize(coeffs, grid.t, cfg.lam)
    norm_sq = grid.s * np.sum(np.abs(vals) ** 2)
    assert norm_sq == pytest.approx(1.0, abs=cfg.tol_quadrature)


def test_oracle_central_element():
    cfg = default_config(lam=1.0, M=4)
    g = HeisenbergElement([0.0], [0.0], 0.3)
    for j in (0, 1):
        val = oracle_matrix_element(cfg, g, j, j)
        assert val == pytest.approx(np.exp(1j * 0.3), abs=1e-12)
    assert abs(oracle_matrix_element(cfg, g, 0, 1)) < 1e-12


def test_oracle_frozen_displacement_value():
    # (pi([1,0,0]) e_0 | e_0) at lam = 1 equals e^{-1/4}
    cfg = default_config(lam=1.0, M=4)
    val = oracle_matrix_element(cfg, HeisenbergElement([1.0], [0.0]), 0, 0)
    assert val == pytest.approx(0.7788007830714049, abs=1e-10)
    assert abs(val.imag) < 1e-12


def test_oracle_refuses_modes_its_grid_does_not_resolve():
    # the grid of M = 1 read (e_64 | e_64) as 1 - 1.3e-3
    cfg = default_config(lam=1.0, M=1)
    with pytest.raises(ValueError, match="modes below M"):
        oracle_matrix_element(cfg, HeisenbergElement([0.0], [0.0]), 64, 64)


def test_oracle_routes_agree():
    cfg = default_config(lam=2.0, M=6)
    g = HeisenbergElement([0.4], [-0.9], 0.7)
    for j, k in [(0, 0), (2, 1), (5, 3), (4, 4)]:
        riemann = oracle_matrix_element(cfg, g, j, k)
        gauss = gauss_hermite_matrix_element(cfg, g, j, k)
        assert riemann == pytest.approx(gauss, abs=1e-10)


def test_closed_form_matches_quadrature():
    cfg = default_config(lam=1.0, M=8)
    for (a, b, c) in [(0.4, -0.7, 0.0), (1.1, 0.3, 0.5), (-0.8, -0.2, -1.0)]:
        g = HeisenbergElement([a], [b], c)
        for j in range(5):
            for k in range(5):
                closed = displacement_element(cfg.lam, a, b, c, j, k)
                quad = oracle_matrix_element(cfg, g, j, k)
                assert closed == pytest.approx(quad, abs=1e-10)


def test_coherent_overlap_exact_values():
    assert coherent_overlap_exact(1.0, 1.0, 0.0) == pytest.approx(np.exp(-0.25))
    assert coherent_overlap_exact(4.0, 0.5, 0.5) == pytest.approx(np.exp(-0.5))
    assert coherent_overlap_exact(0.5, 0.0, 0.0) == 1.0


def test_double_sum_guard():
    xi = np.linspace(-1, 1, 8)
    x = np.linspace(-1, 1, 64)
    vals = np.ones((64, 64), dtype=complex)
    with pytest.raises(ValueError):
        oracle_double_sum_ft(vals, xi, x, 1.0)


@pytest.mark.parametrize("M", [4, 6])
def test_grid_symbol_gram_splits_by_charge(M):
    # the Gram of the grid map's columns (i, j), (k, l) vanishes off charge
    # i - j = k - l and is D H D on it, a = min(i, j), d = |i - j|
    # (analytic_singular_values); measured 2.1e-17 and 3.3e-16 at G = 256
    entries, _ = table_symbol_map(RepresentationContext(
        default_config(lam=1.0, M=M, G=256)))
    gram = entries.conj().T @ entries
    i, j = np.divmod(np.arange(M * M), M)
    on = (i - j)[:, None] == (i - j)[None, :]
    a, d = np.minimum(i, j), np.abs(i - j)
    p = a[:, None] + a[None, :] + d
    f = np.array([factorial(k) for k in range(2 * M - 1)], dtype=float)
    dhd = f[p] / 2.0 ** (p + 1) / np.sqrt(np.outer(f[a] * f[a + d],
                                                   f[a] * f[a + d]))
    assert np.abs(gram[~on]).max() <= 1e-16
    assert np.abs(gram - dhd)[on].max() <= 1e-15


@pytest.mark.parametrize("M, rel", [(8, 1e-12), (12, 1e-11), (16, 1e-8)])
def test_analytic_sigma_min_against_mpmath(M, rel):
    # 60-digit eigenvalues of every charge block D H D; measured 2.3e-14,
    # 4.3e-13, 3.9e-10 (the Gram route read 9.8e-11, 1.3e-7, 8.9e-4)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    f = [mp.factorial(k) for k in range(2 * M - 1)]
    eigs = []
    for d in range(M):
        dhd = mp.matrix([[f[a + b + d] / mp.mpf(2) ** (a + b + d + 1)
                          / mp.sqrt(f[a] * f[a + d] * f[b] * f[b + d])
                          for b in range(M - d)] for a in range(M - d)])
        eigs.append(min(mp.eigsy(dhd, eigvals_only=True)))
    exact = float(mp.sqrt(min(eigs)))
    assert exact == pytest.approx({8: 6.4867625775208556e-4,
                                   12: 8.9281251495285645e-6,
                                   16: 1.1886956979615067e-7}[M], rel=1e-15)
    assert analytic_singular_values(M)[-1] == pytest.approx(exact, rel=rel)


def test_analytic_singular_values_closed_forms():
    np.testing.assert_allclose(analytic_singular_values(1),
                               [np.sqrt(0.5)], atol=1e-15)
    root5 = np.sqrt(5.0) / 4.0
    np.testing.assert_allclose(analytic_singular_values(2),
                               [0.25 + root5, 0.5, 0.5, root5 - 0.25],
                               atol=1e-12)
    # frozen regression values for the next two truncations
    assert analytic_singular_values(3)[-1] == pytest.approx(
        0.11836557243109886, abs=1e-12)
    assert analytic_singular_values(4)[-1] == pytest.approx(
        0.04314713606049981, abs=1e-12)


def test_gauss_hermite_nodes_cached_read_only():
    from berezin.oracle import _hermgauss
    u, w = _hermgauss()
    assert _hermgauss()[0] is u and u.size == 180
    assert not u.flags.writeable and not w.flags.writeable
    cfg = default_config(lam=1.0, M=8)
    g = HeisenbergElement([0.6], [-0.9], 0.2)
    first = gauss_hermite_matrix_element(cfg, g, 3, 5)
    assert gauss_hermite_matrix_element(cfg, g, 3, 5) == first


def test_table_symbol_map_guard_counts_the_map_twice_and_the_table(
        monkeypatch):
    # G^2 M (2M + 1) at n = 1, M = 4, G = 64: 4096 * 36 = 147456
    cx = RepresentationContext(default_config(lam=1.0, M=4, G=64))
    monkeypatch.setattr(oracle, "_MAP_LIMIT", 147455)
    with pytest.raises(MemoryError, match=(
            r"^table symbol map on 4096 grid points needs 147456 complex "
            r"entries, over the size guard of 147455; reduce G or M$")):
        table_symbol_map(cx)
    monkeypatch.setattr(oracle, "_MAP_LIMIT", 147456)
    assert table_symbol_map(cx)[1].shape == (16,)


def test_table_symbol_map_guard_at_the_largest_test_config(monkeypatch):
    # n = 2, M = 3, G = 24: the map alone is 26873856 entries; with the SVD's
    # copy and the table, 56733696 <= 2^26 is served
    cx = RepresentationContext(default_config(n=2, lam=1.0, M=3, G=24))
    assert 56733696 <= oracle._MAP_LIMIT
    monkeypatch.setattr(oracle, "_MAP_LIMIT", 0)
    with pytest.raises(MemoryError, match="needs 56733696 complex entries"):
        table_symbol_map(cx)


@pytest.mark.parametrize("M, G", [(8, 128), (12, 128), (6, 256)])
def test_table_symbol_map_guard_count_bounds_the_traced_peak(M, G):
    # count / traced peak: 1.70, 1.79, 1.62 (the peak holds the map, the
    # table and its conjugate; the SVD's copy is outside tracemalloc, and
    # the RSS rise at (6, 256), 78.3 MiB, matched the count's 78.0 MiB)
    cx = RepresentationContext(default_config(lam=1.0, M=M, G=G))
    need = G * G * M * (2 * M + 1)
    tracemalloc.start()
    try:
        table_symbol_map(cx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * need
