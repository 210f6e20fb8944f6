"""Truncated representation matrices, coherent states, vacuum."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from berezin import (HeisenbergElement, HermiteState, PhasePoint,
                     RepresentationContext, TruncationError, apply_group,
                     basis_state, coefficient_map, coherent_state,
                     covariant_symbol, default_config, default_L,
                     gaussian_vector, hermite_columns, identity_operator,
                     multiply, rep_matrix, schroedinger)
from berezin.core import _expand_nodes
from berezin.schroedinger import (_hermite_nodes, _interpolation_matrix,
                                  displacement_1d)
from berezin.oracle import (PositionGrid, displacement_element,
                            gauss_hermite_matrix_element,
                            oracle_matrix_element, synthesize)


@pytest.fixture(scope="module")
def ctx():
    return RepresentationContext(default_config(lam=1.0))


def test_vacuum_is_first_basis_vector():
    cfg = default_config(lam=1.0)
    vac = gaussian_vector(cfg)
    assert vac.coeffs[0] == 1.0
    assert np.abs(vac.coeffs[1:]).max() == 0.0
    assert vac.norm() == 1.0


def test_vacuum_position_profile():
    # synthesized vacuum is the lam-Gaussian with peak (lam/pi)^{1/4}
    lam = 2.5
    cfg = default_config(lam=lam, M=4)
    grid = PositionGrid.for_config(cfg)
    vals = synthesize(gaussian_vector(cfg).coeffs, grid.t, lam)
    i0 = np.argmin(np.abs(grid.t))
    assert vals[i0] == pytest.approx((lam / np.pi) ** 0.25, abs=1e-14)
    assert np.abs(vals.imag).max() == 0.0


def test_central_elements_act_exactly(ctx):
    f = basis_state(16, 5)
    c = 0.9
    out = apply_group(ctx, HeisenbergElement([0.0], [0.0], c), f)
    np.testing.assert_array_equal(out.coeffs,
                                  np.exp(1j * ctx.cfg.lam * c) * f.coeffs)
    R = rep_matrix(ctx, HeisenbergElement([0.0], [0.0], c)).entries
    np.testing.assert_array_equal(R, np.exp(1j * ctx.cfg.lam * c) * np.eye(16))
    I = rep_matrix(ctx, HeisenbergElement([0.0], [0.0], 0.0)).entries
    np.testing.assert_array_equal(I, np.eye(16))


def test_matrix_is_true_action_matrix(ctx):
    # column k of rep_matrix(g) holds the coefficients of pi(g) e_k
    g = HeisenbergElement([0.6], [-0.4], 0.2)
    R = rep_matrix(ctx, g)
    for k in (0, 3, 9):
        out = apply_group(ctx, g, basis_state(16, k))
        np.testing.assert_allclose(out.coeffs, R.entries[:, k], atol=1e-14)


def test_vacuum_overlap_matches_gaussian_law(ctx):
    lam = ctx.cfg.lam
    vac = gaussian_vector(ctx.cfg)
    for (a, b) in [(0.5, 0.0), (0.0, 0.5), (1.0, -1.0), (0.3, 0.7)]:
        moved = apply_group(ctx, HeisenbergElement([a], [b], 0.0), vac)
        val = vac.inner(moved)
        assert val == pytest.approx(np.exp(-lam * (a * a + b * b) / 4.0),
                                    abs=1e-10)
        assert abs(val.imag) < 1e-12  # phase convention: overlap real positive


def test_overlap_phase_matches_oracle(ctx):
    # same quantity via the independent position-space Riemann sum
    g = HeisenbergElement([0.8], [-0.6], 0.0)
    vac = gaussian_vector(ctx.cfg)
    main = vac.inner(apply_group(ctx, g, vac))
    oracle = oracle_matrix_element(ctx.cfg, g, 0, 0)
    assert main == pytest.approx(oracle, abs=1e-10)


def test_rep_matrix_against_both_oracles():
    cfg = default_config(lam=1.0, M=8)
    ctx8 = RepresentationContext(cfg)
    g = HeisenbergElement([0.6], [-0.9], 0.2)
    R = rep_matrix(ctx8, g).entries
    worst_r = max(abs(R[j, k] - oracle_matrix_element(cfg, g, j, k))
                  for j in range(8) for k in range(8))
    worst_g = max(abs(R[j, k] - gauss_hermite_matrix_element(cfg, g, j, k))
                  for j in range(8) for k in range(8))
    assert worst_r < 1e-12
    assert worst_g < 1e-12


def test_rep_matrix_against_closed_form(ctx):
    for (a, b, c) in [(0.4, -0.7, 0.0), (1.1, 0.3, 0.5)]:
        R = rep_matrix(ctx, HeisenbergElement([a], [b], c)).entries
        for j in range(5):
            for k in range(5):
                ref = displacement_element(ctx.cfg.lam, a, b, c, j, k)
                assert R[j, k] == pytest.approx(ref, abs=1e-12)


def test_matrix_element_magnitudes_bounded(ctx):
    for (a, b) in [(0.3, 0.0), (1.0, 1.0), (3.0, -2.0)]:
        R = rep_matrix(ctx, HeisenbergElement([a], [b], 0.0)).entries
        assert np.abs(R).max() <= 1.0 + 1e-10


def test_low_mode_unitarity():
    # truncation leaks only through the top modes: the leading 6x6 block of
    # U*U - I stays at rounding level for moderate displacements
    for lam in (0.5, 1.0, 4.0):
        cx = RepresentationContext(default_config(lam=lam))
        r = 0.3 / np.sqrt(lam)
        for g in (HeisenbergElement([r], [-r], 0.1),
                  HeisenbergElement([cx.grid.h], [cx.grid.h], 0.0)):
            U = rep_matrix(cx, g).entries
            defect = np.abs((U.conj().T @ U - np.eye(16))[:6, :6]).max()
            assert defect < 1e-10


def test_low_mode_homomorphism():
    for lam in (0.5, 1.0, 4.0):
        cx = RepresentationContext(default_config(lam=lam))
        r = 0.3 / np.sqrt(lam)
        g1 = HeisenbergElement([r], [-r], 0.1)
        g2 = HeisenbergElement([0.5 * r], [r], 0.0)
        P = rep_matrix(cx, multiply(g1, g2)).entries
        Q = rep_matrix(cx, g1).entries @ rep_matrix(cx, g2).entries
        assert np.abs((P - Q)[:6, :6]).max() < 1e-10


def test_coherent_state_at_origin_is_vacuum(ctx):
    st = coherent_state(ctx, PhasePoint([0.0], [0.0]))
    np.testing.assert_array_equal(st.coeffs, gaussian_vector(ctx.cfg).coeffs)


def test_coherent_state_norm_within_faithful_disc():
    for lam in (0.5, 1.0, 4.0):
        cx = RepresentationContext(default_config(lam=lam))
        r = 2.0 / np.sqrt(lam)
        d = r / np.sqrt(2.0)
        for (a, b) in [(r, 0.0), (0.0, -r), (d, d), (-d, d)]:
            st = coherent_state(cx, PhasePoint([a], [b]))
            assert abs(st.norm() - 1.0) < cx.cfg.tol_identity


def test_coherent_state_beyond_box_rejected(ctx):
    with pytest.raises(TruncationError):
        coherent_state(ctx, PhasePoint([ctx.cfg.L + 1.0], [0.0]))


@pytest.mark.parametrize("route", ["rep_matrix", "apply_group",
                                   "coherent_state"])
def test_pi_routes_refuse_an_element_of_another_n(ctx, route):
    # check_displacement names the mismatch before it reads the box, which
    # this n = 2 element's second axis leaves as well
    g = HeisenbergElement([0.5, ctx.cfg.L + 1.0], [0.0, 0.0])
    calls = {"rep_matrix": lambda: rep_matrix(ctx, g),
             "apply_group": lambda: apply_group(ctx, g, basis_state(16, 1)),
             "coherent_state": lambda: coherent_state(ctx,
                                                      PhasePoint(g.a, g.b))}
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        calls[route]()


@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("n", [1, 2])
def test_coherent_state_is_rep_matrix_column_zero(lam, n):
    # read straight from the Bargmann columns, bit for bit the matrix column
    cx = RepresentationContext(default_config(n=n, lam=lam, M=8))
    ax = cx.grid.axis
    s = 1.0 / np.sqrt(lam)
    points = [PhasePoint(ax[[70, 50]][:n], ax[[41, 90]][:n]),   # grid points
              PhasePoint(ax[[64, 64]][:n], ax[[77, 64]][:n]),
              PhasePoint([0.37 * s, -1.3 * s][:n], [-0.81 * s, 0.2 * s][:n]),
              PhasePoint([2.9 * s, 0.0][:n], [1.1 * s, -3.3 * s][:n])]
    for x in points:
        R = rep_matrix(cx, x.as_element()).entries
        np.testing.assert_array_equal(coherent_state(cx, x).coeffs, R[:, 0])


def test_coherent_state_builds_no_matrix():
    # n = 3, M = 12: the 1728 x 1728 displacement matrix alone is 45.6 MiB
    cx = RepresentationContext(default_config(n=3, lam=1.0, M=12))
    x = PhasePoint([0.4, -0.7, 1.1], [0.2, 0.9, -0.5])
    tracemalloc.start()
    try:
        st = coherent_state(cx, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.dim == 12 ** 3
    assert peak < 2 ** 20


@pytest.mark.parametrize("n, M", [(1, 16), (2, 6), (3, 4)])
def test_apply_group_matches_rep_matrix(n, M):
    cx = RepresentationContext(default_config(n=n, lam=1.0, M=M))
    rng = np.random.default_rng(7 + n)
    v = rng.standard_normal(M ** n) + 1j * rng.standard_normal(M ** n)
    f = HermiteState(v / np.linalg.norm(v))
    for _ in range(3):
        a, b = rng.uniform(-1.5, 1.5, size=(2, n))
        g = HeisenbergElement(a, b, rng.uniform(-1.0, 1.0))
        np.testing.assert_allclose(apply_group(cx, g, f).coeffs,
                                   rep_matrix(cx, g).apply(f).coeffs,
                                   rtol=0, atol=1e-13)


def test_apply_group_builds_no_matrix():
    # n = 3, M = 12: rep_matrix would hold a 45.6 MiB matrix (94 MiB peak)
    cx = RepresentationContext(default_config(n=3, lam=1.0, M=12))
    rng = np.random.default_rng(12)
    f = HermiteState(rng.standard_normal(12 ** 3) + 0j)
    g = HeisenbergElement([0.4, -0.7, 1.1], [0.2, 0.9, -0.5], 0.3)
    tracemalloc.start()
    try:
        out = apply_group(cx, g, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.dim == 12 ** 3
    assert peak < 2 ** 20


def test_coherent_table_rows_match_direct_states(ctx):
    # the whole-grid table vs one coherent state at a time
    C = ctx.coherent_table()
    G = ctx.cfg.G
    rng = np.random.default_rng(5)
    for k in rng.integers(0, ctx.grid.num_points, size=6):
        ia, ib = divmod(int(k), G)
        x = PhasePoint([ctx.grid.axis[ia]], [ctx.grid.axis[ib]])
        st = coherent_state(ctx, x)
        assert np.abs(np.conj(C[int(k)]) - st.coeffs).max() < 1e-12


def test_rep_matrix_repeatable(ctx):
    g = HeisenbergElement([0.5], [0.5], 0.0)
    A = rep_matrix(ctx, g).entries
    B = rep_matrix(ctx, g).entries
    np.testing.assert_array_equal(A, B)


@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("M", [8, 16, 32])
def test_displacement_1d_against_both_oracles(lam, M):
    cfg = default_config(lam=lam, M=M)
    for (a, b) in [(0.6, -0.9), (2.1, 1.3)]:
        a, b = a / np.sqrt(lam), b / np.sqrt(lam)
        D = displacement_1d(lam, a, b, M)
        g = HeisenbergElement([a], [b], 0.0)
        for j in range(M):
            for k in range(M):
                assert abs(D[j, k] - oracle_matrix_element(
                    cfg, g, j, k)) < 1e-12
                assert abs(D[j, k] - gauss_hermite_matrix_element(
                    cfg, g, j, k)) < 1e-12


def test_displacement_column_zero_is_the_coherent_table(ctx):
    ax = ctx.grid.axis
    D = displacement_1d(ctx.cfg.lam, ax[:, None], ax[None, :], ctx.cfg.M)
    C = ctx.coherent_table().reshape(ctx.cfg.G, ctx.cfg.G, ctx.cfg.M)
    np.testing.assert_array_equal(D[:, :, :, 0], np.conj(C))


def test_hermite_columns_orthonormal():
    cfg = default_config(lam=1.0, M=12)
    pg = PositionGrid.for_config(cfg)
    H = hermite_columns(pg.t, cfg.M, cfg.lam)
    gram = pg.s * (H.T @ H)
    assert np.abs(gram - np.eye(cfg.M)).max() < 1e-12


def test_hermite_columns_vacuum_peak():
    cfg = default_config(lam=2.0, M=4)
    t = PositionGrid.for_config(cfg).t
    H = hermite_columns(t, cfg.M, cfg.lam)
    i0 = np.argmin(np.abs(t))
    closed = (cfg.lam / np.pi) ** 0.25 * np.exp(-cfg.lam * t[i0] ** 2 / 2.0)
    assert H[i0, 0] == pytest.approx(closed, abs=1e-12)


@pytest.mark.parametrize("n,M,G", [(1, 8, 64), (2, 4, 12), (3, 2, 6)])
def test_expand_nodes_matches_complex_axis_contractions(n, M, G):
    # reference: node axes (a_1 b_1 ..) to grid order, then each axis
    # contracted by einsum with a complex copy of B
    N = 2 * M - 1
    B = _interpolation_matrix(0.5, default_L(1.0, M), G, M)
    rng = np.random.default_rng(40 + n)
    S = (rng.standard_normal((N,) * (2 * n))
         + 1j * rng.standard_normal((N,) * (2 * n)))
    ref = S.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)))
    Bc = B.astype(complex)
    for axis in range(2 * n):
        ref = np.moveaxis(np.einsum("gk,k...->g...", Bc,
                                    np.moveaxis(ref, axis, 0)), 0, axis)
    got = _expand_nodes(S, B, n)
    assert got.shape == (G,) * (2 * n)
    assert got.dtype == complex and got.flags.c_contiguous
    assert np.abs(got - ref).max() <= 4e-15 * np.abs(got).max()
    assert not B.flags.writeable


def test_hermite_nodes_match_scipy_and_are_cached_read_only():
    # numpy's hermgauss against scipy's roots_hermite: measured 1.8e-15
    from scipy.special import roots_hermite
    for N in range(1, 64, 2):
        x = _hermite_nodes(N)
        assert x.shape == (N,)
        assert np.abs(x - roots_hermite(N)[0]).max() <= 4e-15
        assert _hermite_nodes(N) is x and not x.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0


@pytest.mark.parametrize("n, M, G", [(1, 8, 128), (2, 3, 32)])
def test_node_routes_read_the_cached_nodes(monkeypatch, n, M, G):
    # nodes computed once per N: with the node table and B cleared, the
    # map and the symbol rebuild them without calling hermgauss again
    cx = RepresentationContext(default_config(n=n, M=M, G=G))
    _hermite_nodes(2 * M - 1)
    schroedinger._node_table.cache_clear()
    schroedinger._interpolation_matrix.cache_clear()

    def refuse(N):
        raise AssertionError("hermgauss recomputed the nodes")

    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", refuse)
    vac = gaussian_vector(cx.cfg)
    identity = identity_operator(cx.cfg.dim)
    assert coefficient_map(cx, vac, vac)._nodes is not None
    assert covariant_symbol(cx, identity)._nodes is not None
