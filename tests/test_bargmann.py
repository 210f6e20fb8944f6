"""Closed-form (Bargmann) coherent table and the coefficient map.

The table is built from e^{-|w|^2/2} w^m / sqrt(m!), for the oracles and
tests only.  The coefficient map, for any n, takes Laguerre recurrences on
the same columns at the Gauss-Hermite node pairs and interpolates them to
the grid; it never builds the table.  The position-space Riemann sum
oracle.riemann_sum, on the oracle's port of scipy's Hermite values and
batched over the grid by ambiguity_batch, checks both to rounding, and
oracle.table_coefficient_map, the closed form at every grid point, checks
the map to rounding.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from berezin import (HeisenbergElement, HermiteState, ModelConfig,
                     PhasePoint, RepresentationContext, analysis,
                     coefficient_map, coherent_state, default_L,
                     gaussian_vector)
from berezin import core, schroedinger, transforms
from berezin.oracle import (PositionGrid, displacement_element,
                            oracle_matrix_element, table_coefficient_map)
from berezin.schroedinger import ambiguity_batch
from berezin.transforms import _map_node_stage

FLOOR = 2.0 ** -511
EPS = np.finfo(float).eps


def _ctx(lam, M, G, n=1):
    return RepresentationContext(ModelConfig(
        n=n, lam=lam, M=M, L=default_L(lam, M), G=G,
        tol_identity=1e-6, tol_quadrature=1e-5))


def _random_coeffs(rng, M):
    return rng.standard_normal(M) + 1j * rng.standard_normal(M)


def _quadrature_map(ctx, f, phi):
    return ambiguity_batch(ctx, f, phi)[:, :, 0].ravel()


@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("M,G", [(16, 128), (32, 128), (16, 256)])
def test_closed_form_table_matches_quadrature(lam, M, G):
    ctx = _ctx(lam, M, G)
    e0 = np.zeros(M, dtype=complex)
    e0[0] = 1.0
    ref = ambiguity_batch(ctx, np.eye(M), e0).reshape(G * G, M)
    assert np.abs(ctx.coherent_table() - ref).max() < 1e-13  # measured 1.7e-15


@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("M,G", [(16, 128), (32, 128)])
def test_coefficient_map_matches_quadrature(lam, M, G):
    # M = 32 pins the stable recurrence: expanding (a - conj(w))^j f against
    # the table loses ~3e-4 here
    ctx = _ctx(lam, M, G)
    rng = np.random.default_rng(7)
    f = _random_coeffs(rng, M)
    vac = gaussian_vector(ctx.cfg).coeffs
    partial = _random_coeffs(rng, M)
    partial[M // 3:] = 0.0
    for phi in (vac, _random_coeffs(rng, M), partial):
        got = coefficient_map(ctx, HermiteState(f), HermiteState(phi)).values
        ref = _quadrature_map(ctx, f, phi)
        scale = np.linalg.norm(f) * np.linalg.norm(phi)
        assert np.abs(got - ref).max() < 1e-13 * scale  # measured 2.0e-15


@pytest.mark.parametrize("M,G", [(4, 32), (16, 128), (32, 128)])
def test_quadrature_guard_bounds_its_peak(need_and_peak, M, G):
    # the count adds the states' values, the window's shifted values and one
    # (G, Np) margin for synthesizing them to the (G, Np, M) product, the
    # phase table and the output
    ctx = _ctx(1.0, M, G)
    e0 = np.eye(M)[0]
    need, peak = need_and_peak(lambda: ambiguity_batch(ctx, np.eye(M), e0))
    assert peak <= 16 * need + 65536
    assert peak <= 150 * 2 ** 20  # measured 131 MiB at (32, 128)


def test_quadrature_guard_names_its_count(monkeypatch):
    ctx = _ctx(1.0, 4, 32)
    Np = PositionGrid.for_config(ctx.cfg).t.size
    need = Np * 4 + 32 * Np * (4 + 2) + 32 * Np + 32 * 32 * 4
    e0 = np.eye(4)[0]
    monkeypatch.setattr(core, "_TABLE_LIMIT", need - 1)
    with pytest.raises(MemoryError, match="1024 grid points needs %d complex "
                       "entries" % need):
        ambiguity_batch(ctx, np.eye(4), e0)
    monkeypatch.setattr(core, "_TABLE_LIMIT", need)
    assert ambiguity_batch(ctx, np.eye(4), e0).shape == (32, 32, 4)


def test_riemann_oracles_read_no_in_package_recurrence(monkeypatch):
    # their Hermite values come from the oracle's port of scipy's
    # eval_hermite, so they share no basis code with the main path's
    # _interpolation_matrix
    def refuse(*args):
        raise AssertionError("a Riemann oracle read hermite_columns")

    monkeypatch.setattr(core, "hermite_columns", refuse)
    monkeypatch.setattr(schroedinger, "hermite_columns", refuse)
    ctx = _ctx(1.0, 4, 32)
    Z = ambiguity_batch(ctx, np.eye(4), np.eye(4)[0])
    assert np.abs(ctx.coherent_table() - Z.reshape(32 * 32, 4)).max() < 1e-13
    g = HeisenbergElement([0.5], [-0.3], 0.2)
    assert oracle_matrix_element(ctx.cfg, g, 1, 2) == pytest.approx(
        displacement_element(1.0, 0.5, -0.3, 0.2, 1, 2), abs=1e-13)


@pytest.mark.parametrize("lam", [0.5, 4.0])
def test_matrix_element_and_batch_are_one_sum(lam):
    ctx = _ctx(lam, 6, 32)
    ax, c, e = ctx.grid.axis, 0.7, np.eye(6)
    for j, k in [(0, 0), (2, 1), (1, 4), (5, 5)]:
        Z = ambiguity_batch(ctx, e[j], e[k])
        for i, l in [(3, 20), (16, 16), (25, 9)]:
            g = HeisenbergElement([ax[i]], [ax[l]], c)
            got = oracle_matrix_element(ctx.cfg, g, j, k)
            want = np.exp(1j * lam * c) * np.conj(Z[i, l, 0])
            assert abs(got - want) <= 1e-15


def test_vacuum_window_matches_table_product():
    ctx = _ctx(1.0, 8, 64)
    f = HermiteState(_random_coeffs(np.random.default_rng(1), 8))
    got = coefficient_map(ctx, f, gaussian_vector(ctx.cfg)).values
    np.testing.assert_allclose(got, ctx.coherent_table() @ f.coeffs,
                               rtol=0, atol=1e-15 * np.linalg.norm(f.coeffs))
    # analysis is the vacuum-window coefficient map, on the same route
    np.testing.assert_array_equal(analysis(ctx, f).values, got)


@pytest.mark.parametrize("n,lam,M,G", [(1, 4.0, 16, 64), (2, 1.0, 3, 8)])
def test_table_rows_are_the_point_coherent_states(n, lam, M, G):
    # row k is conj(phi_{x_k}); the vectorised and the scalar complex
    # products round differently, so the rows agree to rounding (measured
    # 3.9 eps at n = 1 and 1.7 eps at n = 2, relative to the row's max)
    ctx = RepresentationContext(ModelConfig(
        n=n, lam=lam, M=M, L=default_L(lam, M), G=G, tol_identity=1e-6,
        tol_quadrature=0.9))
    C = ctx.coherent_table()
    for row, x in zip(C, ctx.grid.points()):
        phi = coherent_state(ctx, PhasePoint(x[:n], x[n:])).coeffs
        scale = np.abs(row).max()
        assert scale > 0.0
        assert np.abs(row - np.conj(phi)).max() <= 6 * EPS * scale


def test_coefficient_map_needs_no_table(monkeypatch, no_table):
    # a guard at the table's own size refuses the table (its build
    # temporaries put it over), while the map fits
    ctx = _ctx(1.0, 16, 64)
    rng = np.random.default_rng(3)
    f, phi = _random_coeffs(rng, 16), _random_coeffs(rng, 16)
    ref = _quadrature_map(ctx, f, phi)  # over that guard too
    monkeypatch.setattr(core, "_TABLE_LIMIT", 64 * 64 * 16)
    with no_table():
        got = coefficient_map(ctx, HermiteState(f), HermiteState(phi)).values
    with pytest.raises(MemoryError):
        ctx.coherent_table()
    assert np.abs(got - ref).max() < 1e-13 * np.linalg.norm(f) * np.linalg.norm(phi)


def test_n2_coefficient_map_needs_no_table(no_table):
    ctx = _ctx(1.0, 4, 32, n=2)
    rng = np.random.default_rng(5)
    f, phi = _random_coeffs(rng, 16), _random_coeffs(rng, 16)
    with no_table():
        got = coefficient_map(ctx, HermiteState(f), HermiteState(phi)).values
    ref = table_coefficient_map(ctx, HermiteState(f), HermiteState(phi)).values
    assert np.abs(got - ref).max() < 5e-15 * np.linalg.norm(f) * np.linalg.norm(phi)


@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
def test_coefficient_map_matches_table_oracle(lam):
    # general windows, a partial one stopping the recurrence early, and the
    # vacuum; the node route rounds at the scale of ||f|| ||phi||
    ctx = _ctx(lam, 16, 128)
    rng = np.random.default_rng(8)
    partial = _random_coeffs(rng, 16)
    partial[5:] = 0.0
    for phi in (_random_coeffs(rng, 16), partial, np.eye(16)[0]):
        f = _random_coeffs(rng, 16)
        got = coefficient_map(ctx, HermiteState(f), HermiteState(phi)).values
        ref = table_coefficient_map(ctx, HermiteState(f),
                                    HermiteState(phi)).values
        scale = np.linalg.norm(f) * np.linalg.norm(phi)
        assert np.abs(got - ref).max() < 5e-15 * scale  # measured 8.9e-16


def test_n2_entangled_map_matches_table_oracle():
    ctx = _ctx(1.0, 5, 40, n=2)
    rng = np.random.default_rng(9)
    f, phi = _random_coeffs(rng, 25), _random_coeffs(rng, 25)
    got = coefficient_map(ctx, HermiteState(f), HermiteState(phi)).values
    ref = table_coefficient_map(ctx, HermiteState(f), HermiteState(phi)).values
    scale = np.linalg.norm(f) * np.linalg.norm(phi)
    assert np.abs(got - ref).max() < 5e-15 * scale  # measured 4.2e-16


def _window(rng, n, M, J):
    """A random window whose modes stop at J on every axis (J = 0: the
    vacuum, J = M - 1: a general window)."""
    w = np.zeros((M,) * n, dtype=complex)
    block = (J + 1,) * n
    w[tuple(slice(0, J + 1) for _ in range(n))] = (
        rng.standard_normal(block) + 1j * rng.standard_normal(block))
    return HermiteState(w.ravel())


@pytest.mark.parametrize("J", [0, 1], ids=["vacuum", "J1"])
def test_n2_short_windows_map_matches_table_oracle(J):
    # the j = 0 contraction alone (vacuum) and with one recurrence step
    ctx = _ctx(1.0, 5, 40, n=2)
    rng = np.random.default_rng(9)
    f, phi = HermiteState(_random_coeffs(rng, 25)), _window(rng, 2, 5, J)
    got = coefficient_map(ctx, f, phi).values
    ref = table_coefficient_map(ctx, f, phi).values
    scale = np.linalg.norm(f.coeffs) * np.linalg.norm(phi.coeffs)
    assert np.abs(got - ref).max() < 5e-15 * scale  # measured 6.0e-16


@pytest.mark.parametrize("J", [0, 31], ids=["vacuum", "full"])
def test_m32_map_matches_table_oracle(J):
    # node values do not depend on G: the smallest G that the resolution
    # check admits at M = 32 keeps the oracle's (M, M, G, G) table at 105 MB
    ctx = _ctx(1.0, 32, 80)
    rng = np.random.default_rng(11)
    f, phi = HermiteState(_random_coeffs(rng, 32)), _window(rng, 1, 32, J)
    got = coefficient_map(ctx, f, phi).values
    ref = table_coefficient_map(ctx, f, phi).values
    scale = np.linalg.norm(f.coeffs) * np.linalg.norm(phi.coeffs)
    assert np.abs(got - ref).max() < 5e-15 * scale  # measured 9.0e-16, 2.1e-15


def test_vacuum_map_runs_no_laguerre_recurrence(monkeypatch):
    # ell^d_0 = 1: the vacuum's map is the j = 0 contraction alone, while a
    # window with a mode past the vacuum runs the recurrence
    calls = []

    def counted(*args):
        calls.append(args)
        return schroedinger._laguerre_factors(*args)

    monkeypatch.setattr(transforms, "_laguerre_factors", counted)
    rng = np.random.default_rng(13)
    for n, M, G in ((1, 16, 128), (2, 5, 40)):
        ctx = _ctx(1.0, M, G, n=n)
        f = HermiteState(_random_coeffs(rng, M ** n))
        coefficient_map(ctx, f, gaussian_vector(ctx.cfg))
        assert calls == []
        coefficient_map(ctx, f, _window(rng, n, M, 1))
        assert calls
        calls.clear()


def test_n2_vacuum_map_of_a_product_state_is_the_product_of_n1_maps():
    M, G = 16, 16
    cfgs = [ModelConfig(n=n, lam=1.0, M=M, L=default_L(1.0, M), G=G,
                        tol_identity=1e-6, tol_quadrature=0.9) for n in (1, 2)]
    ctx1, ctx2 = (RepresentationContext(cfg) for cfg in cfgs)
    rng = np.random.default_rng(14)
    f1, f2 = _random_coeffs(rng, M), _random_coeffs(rng, M)
    m1, m2 = (coefficient_map(ctx1, HermiteState(f), gaussian_vector(cfgs[0]))
              .reshape() for f in (f1, f2))
    got = coefficient_map(ctx2, HermiteState(np.kron(f1, f2)),
                          gaussian_vector(cfgs[1])).reshape()
    ref = np.einsum("ac,bd->abcd", m1, m2)  # axes (a_1, a_2, b_1, b_2)
    assert np.abs(got - ref).max() < 1e-14 * np.abs(ref).max()  # 5.4e-16


@pytest.mark.parametrize("n,M,G", [(1, 16, 128), (1, 8, 256), (2, 5, 40)])
def test_table_oracle_guard_bounds_its_peak(need_and_peak, n, M, G):
    # T is built one a-row at a time, so displacement_1d's temporaries (about
    # 4.5 times its output) stay within the count's five rows
    ctx = _ctx(1.0, M, G, n=n)
    rng = np.random.default_rng(10)
    f, phi = (HermiteState(_random_coeffs(rng, M ** n)) for _ in range(2))
    need, peak = need_and_peak(lambda: table_coefficient_map(ctx, f, phi))
    assert need == 2 * G ** (2 * n) + (G + 5) * G * M * M
    assert peak <= 16 * need + 65536


@pytest.mark.parametrize("window", ["vacuum", "general"])
def test_coefficient_map_guard_bounds_its_peak(guard_ctx, need_and_peak,
                                               monkeypatch, window):
    # the count, the cached node table and B beside the node stage, refuses
    # one entry under it and bounds the cold-cache peak of the map at it,
    # which reads no values (64 KiB left for small objects); their first
    # read is counted on its own
    cfg = guard_ctx.cfg
    N = 2 * cfg.M - 1
    rng = np.random.default_rng(12)
    f = HermiteState(_random_coeffs(rng, cfg.dim))
    phi = (gaussian_vector(cfg) if window == "vacuum"
           else HermiteState(_random_coeffs(rng, cfg.dim)))
    need = 2 * cfg.M * N * N + cfg.G * N + _map_node_stage(cfg)
    monkeypatch.setattr(core, "_TABLE_LIMIT", need - 1)
    with pytest.raises(MemoryError, match="coefficient map"):
        coefficient_map(guard_ctx, f, phi)
    monkeypatch.setattr(core, "_TABLE_LIMIT", need)  # the traced call's
    counted, peak = need_and_peak(lambda: coefficient_map(guard_ctx, f, phi))
    assert counted == need
    assert peak <= 16 * need + 65536


def test_coefficient_map_guard_counts_its_working_set(monkeypatch):
    # n = 2, M = 3, G = 24: the map counts the cached tables and its node
    # stage, 2620 entries; its values count the last expansion step,
    # 401521, on their first read; each is refused one entry under its
    # count and served at it
    ctx = _ctx(1.0, 3, 24, n=2)
    vac = gaussian_vector(ctx.cfg)
    for need, route in ((2620, lambda: coefficient_map(ctx, vac, vac)),
                        (401521, coefficient_map(ctx, vac, vac).reshape)):
        monkeypatch.setattr(core, "_TABLE_LIMIT", need - 1)
        with pytest.raises(MemoryError, match="331776 grid points needs %d "
                           "complex entries" % need):
            route()
        monkeypatch.setattr(core, "_TABLE_LIMIT", need)
        route()


def test_coefficient_map_guard_counts_the_node_stage(monkeypatch):
    # n = 2, M = 10, G = 4: the last node step of _map_nodes is the largest
    ctx = RepresentationContext(ModelConfig(
        n=2, lam=1.0, M=10, L=5.0, G=4, tol_identity=1e-6, tol_quadrature=0.9))
    need = 320894
    f = HermiteState(_random_coeffs(np.random.default_rng(6), 100))
    monkeypatch.setattr(core, "_TABLE_LIMIT", need - 1)
    with pytest.raises(MemoryError, match="256 grid points needs %d" % need):
        coefficient_map(ctx, f, f)
    monkeypatch.setattr(core, "_TABLE_LIMIT", need)
    assert coefficient_map(ctx, f, f).values.size == 4 ** 4


def test_coefficient_map_working_set_is_a_few_grid_arrays():
    M, G = 32, 256
    ctx = _ctx(1.0, M, G)
    rng = np.random.default_rng(4)
    f, phi = (HermiteState(_random_coeffs(rng, M)) for _ in range(2))
    tracemalloc.start()
    try:
        coefficient_map(ctx, f, phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured ~8.7 (G, G) complex arrays, whatever M is; the table is M of them
    assert peak <= 12 * G * G * 16


def test_n2_table_rows_are_kronecker_products():
    M, G = 3, 24
    C1 = _ctx(1.0, M, G).coherent_table().reshape(G, G, M)
    C2 = _ctx(1.0, M, G, n=2).coherent_table().reshape(G, G, G, G, M * M)
    rng = np.random.default_rng(2)
    for a1, a2, b1, b2 in rng.integers(0, G, size=(12, 4)):
        row = np.kron(C1[a1, b1], C1[a2, b2])
        row[np.abs(row) < FLOOR] = 0.0
        # tensordot and kron may round the complex product differently
        np.testing.assert_allclose(C2[a1, a2, b1, b2], row, rtol=1e-15, atol=0)


@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
def test_table_has_no_entries_below_floor(lam):
    C = _ctx(lam, 32, 128).coherent_table()
    mod = np.abs(C)
    assert not np.any((mod > 0.0) & (mod < FLOOR))
    assert np.any(mod == 0.0)  # the box corners do underflow the floor
    # so every product of two entries is zero or a normal float
    assert mod[mod > 0.0].min() ** 2 >= np.finfo(float).tiny


@pytest.mark.parametrize("r", [0.3, 2.0, 5.0, 8.0, 27.0])
def test_bargmann_columns_match_the_closed_form(r):
    # C_d = e^{-|w|^2/2} w^d / sqrt(d!) in 40 digits: entries above the floor
    # hold 2 (|w|^2/2 + d + 1) eps relative (the exponential's and the d
    # factors' rounding), entries below it are exact zeros
    mpmath = pytest.importorskip("mpmath")
    M = 64
    w = r * np.exp(1j * np.array([0.4, 2.1, 4.7]))
    got = schroedinger._bargmann_columns(w, M)
    tol = 2.0 * (r * r / 2.0 + np.arange(M) + 1.0) * EPS
    with mpmath.workdps(40):
        for wk, row in zip(w, got):
            z = mpmath.mpc(wk.real, wk.imag)
            ref = [mpmath.exp(-abs(z) ** 2 / 2) * z ** d
                   / mpmath.sqrt(mpmath.factorial(d)) for d in range(M)]
            mod = np.array([float(abs(x)) for x in ref])
            err = np.array([float(abs(mpmath.mpc(g.real, g.imag) - x) / abs(x))
                            for g, x in zip(row, ref)])
            above, below = mod >= FLOOR * (1 + tol), mod < FLOOR * (1 - tol)
            assert np.all(err[above] <= tol[above])
            assert np.all(row[below] == 0.0)
            assert np.all(above | below)  # no entry sits at the floor
    if r == 27.0:
        # the head e^{-364.5} is under the floor, but the product runs on
        # the unflushed values: the 60 modes past d = 3 climb back above it
        assert not got[:, :4].any() and np.all(got[:, 4:] != 0.0)
    # a batch over several flush blocks gives the same rows bit for bit
    many = np.repeat(w, 3 * schroedinger._FLUSH_ENTRIES // M)
    np.testing.assert_array_equal(schroedinger._bargmann_columns(many, M),
                                  np.repeat(got, len(many) // 3, axis=0))


def test_table_working_set_within_twice_the_table():
    ctx = _ctx(1.0, 32, 256)
    tracemalloc.start()
    try:
        C = ctx.coherent_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert C.nbytes == 256 * 256 * 32 * 16
    # the guard's count, the table and 4 (G, G) temporaries: 1.13x the
    # table; measured 1.09x
    assert peak <= 16 * 256 * 256 * (32 + 4)


def test_n2_table_guard_counts_its_working_set(monkeypatch):
    # the axis tables multiply straight into the grid layout: the table and
    # the flush's modulus and mask of one a_1 block, table / G
    ctx = _ctx(1.0, 3, 24, n=2)
    entries = ctx.grid.num_points * ctx.cfg.dim
    need = entries + entries // 24
    monkeypatch.setattr(core, "_TABLE_LIMIT", need - 1)
    with pytest.raises(MemoryError, match="331776 grid points needs %d "
                       "complex entries" % need):
        ctx.coherent_table()
    monkeypatch.setattr(core, "_TABLE_LIMIT", need)
    tracemalloc.start()
    try:
        C = ctx.coherent_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert C.shape == (24 ** 4, 9) and C.flags.c_contiguous
    assert peak <= 16 * need
    assert peak <= 1.1 * C.nbytes  # measured 1.02; 2.00 with the transpose
