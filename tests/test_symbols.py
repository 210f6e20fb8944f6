"""Kernel, symbols, trace/HS identities, covariance, injectivity map."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from berezin import (HeisenbergElement, OperatorMatrix, PhasePoint,
                     RepresentationContext, TruncationError, analysis,
                     basis_state, build_symbol_map, coherent_state,
                     covariance_residual, covariant_symbol, default_config,
                     full_symbol, gaussian_vector, hs_identity_residual,
                     hs_inner, identity_operator, injectivity_report,
                     inner_l2, kernel, onb_expansion_check, rank_one,
                     reconstruct, run_verification, trace_identity_residual)
from berezin import core, schroedinger, symbols
from berezin.core import GridFunction, ModelConfig, _expand_nodes
from berezin.oracle import (analytic_singular_values, table_covariant_symbol,
                            table_frame_operator, table_symbol_map)
from berezin.symbols import frame_operator


@pytest.fixture(scope="module")
def ctx():
    return RepresentationContext(default_config(lam=1.0))


@pytest.fixture(scope="module")
def ctx8():
    return RepresentationContext(default_config(lam=1.0, M=8))


def _random_operator(rng, dim, hermitian=False):
    E = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if hermitian:
        E = 0.5 * (E + E.conj().T)
    return OperatorMatrix(entries=E, hermitian=hermitian)


_X, _Y = PhasePoint([0.3], [-0.2]), PhasePoint([-0.5], [0.1])


@pytest.mark.parametrize("call", [
    lambda c, A: full_symbol(c, A, _X, _Y),
    lambda c, A: onb_expansion_check(c, A, _X, _Y),
    lambda c, A: reconstruct(c, A, basis_state(4, 0), _X),
    covariant_symbol,
    trace_identity_residual,
    hs_identity_residual,
    lambda c, A: covariance_residual(c, A, HeisenbergElement([0.0], [0.0])),
], ids=["full_symbol", "onb_expansion_check", "reconstruct",
        "covariant_symbol", "trace_identity_residual", "hs_identity_residual",
        "covariance_residual"])
def test_operator_functions_name_a_wrong_dimension(call):
    ctx4 = RepresentationContext(ModelConfig(M=4, G=32))
    A = OperatorMatrix(np.eye(5, dtype=complex))
    with pytest.raises(ValueError, match="dimension mismatch"):
        call(ctx4, A)


def test_kernel_diagonal_is_one(ctx):
    for (a, b) in [(0.0, 0.0), (0.5, -0.5), (1.0, 1.0)]:
        val = kernel(ctx, PhasePoint([a], [b]), PhasePoint([a], [b]))
        assert val == pytest.approx(1.0, abs=ctx.cfg.tol_identity)


def test_kernel_hermitian_symmetry(ctx):
    x, y = PhasePoint([0.7], [-0.2]), PhasePoint([-0.4], [0.9])
    assert kernel(ctx, x, y) == pytest.approx(np.conj(kernel(ctx, y, x)),
                                              abs=1e-14)


def test_kernel_against_overlap_law(ctx):
    lam = ctx.cfg.lam
    for (a, b) in [(1.0, 0.0), (0.0, 1.0), (0.6, -0.8)]:
        val = kernel(ctx, PhasePoint([a], [b]), PhasePoint([0.0], [0.0]))
        assert abs(val) == pytest.approx(np.exp(-lam * (a * a + b * b) / 4.0),
                                         abs=1e-10)


def test_kernel_gram_is_psd(ctx):
    pts = [PhasePoint([a], [b])
           for a in (-1.0, 0.0, 1.0) for b in (-0.5, 0.5)]
    gram = np.array([[kernel(ctx, x, y) for y in pts] for x in pts])
    assert np.abs(gram - gram.conj().T).max() < 1e-13
    assert np.linalg.eigvalsh(gram).min() > -1e-10


def test_analysis_center_value_and_isometry(ctx):
    vac = gaussian_vector(ctx.cfg)
    u = analysis(ctx, vac)
    center = (ctx.cfg.G // 2) * ctx.cfg.G + ctx.cfg.G // 2
    assert u.values[center] == pytest.approx(1.0, abs=1e-12)
    f, g = basis_state(16, 3), basis_state(16, 1)
    uf, ug = analysis(ctx, f), analysis(ctx, g)
    assert inner_l2(uf, uf) == pytest.approx(1.0, abs=1e-10)
    assert abs(inner_l2(uf, ug)) < 1e-10


def test_analysis_reproducing_against_kernel_column(ctx):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    from berezin import HermiteState
    f = HermiteState(coeffs=v / np.linalg.norm(v))
    u = analysis(ctx, f)
    iy = 63 * ctx.cfg.G + 70  # an interior grid point
    y = PhasePoint([ctx.grid.axis[63]], [ctx.grid.axis[70]])
    C = ctx.coherent_table()
    kcol = GridFunction(grid=ctx.grid,
                        values=C @ coherent_state(ctx, y).coeffs)
    assert inner_l2(u, kcol) == pytest.approx(u.values[iy], abs=1e-10)


def test_full_symbol_of_identity_is_kernel(ctx):
    x, y = PhasePoint([0.4], [0.4]), PhasePoint([-0.6], [0.1])
    assert full_symbol(ctx, identity_operator(16), x, y) == pytest.approx(
        kernel(ctx, x, y), abs=1e-14)


def test_full_symbol_rank_one_factorizes(ctx):
    # A = phi (x) phi*: K^A(x, y) = K(x, 0) K(0, y); exact because the
    # origin coherent state is the vacuum column itself
    vac = gaussian_vector(ctx.cfg)
    P = rank_one(vac, vac)
    zero = PhasePoint([0.0], [0.0])
    for (x, y) in [((0.5, 0.0), (0.0, 0.5)), ((1.0, -0.5), (-0.3, 0.2))]:
        xp, yp = PhasePoint([x[0]], [x[1]]), PhasePoint([y[0]], [y[1]])
        lhs = full_symbol(ctx, P, xp, yp)
        rhs = kernel(ctx, xp, zero) * kernel(ctx, zero, yp)
        assert lhs == pytest.approx(rhs, abs=1e-14)


def test_full_symbol_adjoint_swap(ctx):
    rng = np.random.default_rng(1)
    A = _random_operator(rng, 16)
    x, y = PhasePoint([0.3], [-0.7]), PhasePoint([0.9], [0.2])
    assert full_symbol(ctx, A.adjoint(), x, y) == pytest.approx(
        np.conj(full_symbol(ctx, A, y, x)), abs=1e-13)


def test_onb_expansion_examples(ctx):
    rng = np.random.default_rng(2)
    x, y = PhasePoint([0.5], [0.1]), PhasePoint([-0.2], [0.6])
    assert onb_expansion_check(ctx, identity_operator(16), x, y) < 1e-12
    assert onb_expansion_check(ctx, _random_operator(rng, 16), x, y) < 1e-12
    unit = rank_one(basis_state(16, 0), basis_state(16, 1))
    assert onb_expansion_check(ctx, unit, x, y) < 1e-12


def test_reconstruct_examples(ctx):
    vac = gaussian_vector(ctx.cfg)
    zero = PhasePoint([0.0], [0.0])
    val = reconstruct(ctx, identity_operator(16), vac, zero)
    assert val == pytest.approx(1.0, abs=ctx.cfg.tol_identity)
    null = OperatorMatrix(entries=np.zeros((16, 16), dtype=complex))
    assert reconstruct(ctx, null, vac, zero) == 0.0
    rng = np.random.default_rng(3)
    A = _random_operator(rng, 16, hermitian=True)
    direct = analysis(ctx, A.apply(vac)).values
    center = (ctx.cfg.G // 2) * ctx.cfg.G + ctx.cfg.G // 2
    assert reconstruct(ctx, A, vac, zero) == pytest.approx(
        direct[center], abs=1e-10)


def test_identity_symbol_on_faithful_disc():
    # S(Id)(x) = ||P_M pi(x) phi||^2: 1 where the truncation represents the
    # displaced vacuum, decaying toward the box corners; assert the constant
    # on the faithful disc |x| <= 2/sqrt(lam) and two-sided global bounds
    for lam in (0.5, 1.0, 4.0):
        cx = RepresentationContext(default_config(lam=lam))
        vals = covariant_symbol(cx, identity_operator(16)).reshape()
        ax = cx.grid.axis
        A, B = np.meshgrid(ax, ax, indexing="ij")
        disc = A ** 2 + B ** 2 <= (2.0 / np.sqrt(lam)) ** 2
        assert np.abs(vals[disc] - 1.0).max() < 1e-8
        assert vals.real.min() > -1e-12
        assert vals.real.max() < 1.0 + 1e-12
        assert np.abs(vals.imag).max() < 1e-12


def test_projector_symbol_is_gaussian(ctx8):
    vac = gaussian_vector(ctx8.cfg)
    vals = covariant_symbol(ctx8, rank_one(vac, vac)).reshape()
    ax = ctx8.grid.axis
    A, B = np.meshgrid(ax, ax, indexing="ij")
    lam = ctx8.cfg.lam
    target = np.exp(-lam * (A ** 2 + B ** 2) / 2.0)
    assert np.abs(vals - target).max() < 1e-8


def test_covariant_symbol_linearity_and_adjoint(ctx8):
    rng = np.random.default_rng(4)
    A = _random_operator(rng, 8)
    B = _random_operator(rng, 8)
    z = 1.3 - 0.4j
    lhs = covariant_symbol(
        ctx8, OperatorMatrix(entries=A.entries + z * B.entries)).values
    rhs = covariant_symbol(ctx8, A).values + z * covariant_symbol(ctx8, B).values
    assert np.abs(lhs - rhs).max() < 1e-12
    sym_adj = covariant_symbol(ctx8, A.adjoint()).values
    assert np.abs(sym_adj - np.conj(covariant_symbol(ctx8, A).values)).max() < 1e-12


def test_covariant_symbol_operator_norm_bound(ctx8):
    rng = np.random.default_rng(5)
    A = _random_operator(rng, 8)
    vals = covariant_symbol(ctx8, A).values
    opnorm = np.linalg.norm(A.entries, 2)
    assert np.abs(vals).max() <= opnorm + 1e-12


def test_psd_symbol_positivity(ctx8):
    rng = np.random.default_rng(6)
    E = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    A = OperatorMatrix(entries=E @ E.conj().T, hermitian=True)
    vals = covariant_symbol(ctx8, A).values
    assert vals.real.min() > -1e-10
    assert np.abs(vals.imag).max() < 1e-10


def test_trace_identity(ctx8):
    rng = np.random.default_rng(7)
    for _ in range(5):
        A = _random_operator(rng, 8)
        tr_norm = np.sum(np.linalg.svd(A.entries, compute_uv=False))
        assert trace_identity_residual(ctx8, A) < 1e-6 * tr_norm
    vac = gaussian_vector(ctx8.cfg)
    P = rank_one(vac, vac)
    assert trace_identity_residual(ctx8, P) < 1e-8
    assert abs(np.trace(P.entries) - 1.0) == 0.0
    null = OperatorMatrix(entries=np.zeros((8, 8), dtype=complex))
    assert trace_identity_residual(ctx8, null) == 0.0


@pytest.mark.parametrize("n, lam, M, G", [
    (1, 0.5, 8, 128), (1, 1.0, 8, 128), (1, 4.0, 8, 128),
    (1, 0.5, 16, 128), (1, 1.0, 16, 128), (1, 4.0, 16, 128),
    (1, 0.5, 32, 256), (1, 1.0, 32, 256), (1, 4.0, 32, 256),
    (2, 1.0, 3, 24), (2, 1.0, 5, 40)])
def test_trace_residual_matches_the_grid_sum(n, lam, M, G):
    # the node-form integral against weight * sum(values): the residuals
    # differ by at most the difference of the two integrals (measured at
    # most 0.5 eps weight sum|values| for the random operators, 3 eps for
    # the vacuum projector)
    cx = RepresentationContext(default_config(n=n, lam=lam, M=M, G=G))
    rng = np.random.default_rng(30 + M)
    vac = gaussian_vector(cx.cfg)
    for A in (_random_operator(rng, cx.cfg.dim), rank_one(vac, vac)):
        values = covariant_symbol(cx, A).values
        weight = cx.grid.density * cx.grid.cell_weight
        oracle = abs(np.trace(A.entries) - weight * np.sum(values))
        bound = 16 * np.finfo(float).eps * weight * np.sum(np.abs(values))
        assert abs(trace_identity_residual(cx, A) - oracle) <= bound


def test_n2_trace_residual_reads_no_table():
    # the symbol's values are never expanded: the peak stays below one
    # G^{2n} complex table (measured 0.63 MB against 41 MB)
    cx = RepresentationContext(default_config(n=2, lam=1.0, M=5, G=40))
    A = _random_operator(np.random.default_rng(31), 25)
    tracemalloc.start()
    try:
        res = trace_identity_residual(cx, A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res < 1e-12 and peak < 16 * cx.grid.num_points


def test_hs_identity():
    cfg = default_config(lam=1.0, M=6, G=64)
    cx = RepresentationContext(cfg)
    rng = np.random.default_rng(8)
    for _ in range(5):
        E = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        A = OperatorMatrix(entries=E)
        assert hs_identity_residual(cx, A) < 1e-5 * hs_inner(A, A).real


def test_residual_decay_with_box_size():
    # residuals track the Gaussian envelope e^{-lam L^2/4} as L grows
    lam = 1.0
    rng = np.random.default_rng(9)
    E = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    A = OperatorMatrix(entries=E)
    tr_norm = np.sum(np.linalg.svd(E, compute_uv=False))
    hs_norm = hs_inner(A, A).real
    residuals, bounds = [], []
    for scale in (4.0, 6.0, 8.0):
        L = scale / np.sqrt(lam)
        cfg = ModelConfig(n=1, lam=lam, M=4, L=L, G=128,
                          tol_identity=1e-6, tol_quadrature=0.05)
        cx = RepresentationContext(cfg)
        residuals.append((trace_identity_residual(cx, A) / tr_norm,
                          hs_identity_residual(cx, A) / hs_norm))
        bounds.append(np.exp(-lam * L * L / 4.0))
    for (tr_res, hs_res), bound in zip(residuals, bounds):
        assert tr_res < bound
        assert hs_res < bound
    for k in (0, 1):  # decay at least as fast as the envelope
        assert residuals[k + 1][0] / residuals[k][0] < bounds[k + 1] / bounds[k]
        assert residuals[k + 1][1] / residuals[k][1] < bounds[k + 1] / bounds[k]


def test_covariance_central_and_identity(ctx8):
    rng = np.random.default_rng(10)
    A = _random_operator(rng, 8, hermitian=True)
    assert covariance_residual(ctx8, A, HeisenbergElement([0.0], [0.0], 0.7)) \
        < 1e-12
    assert covariance_residual(ctx8, A, HeisenbergElement([0.0], [0.0], 0.0)) \
        == 0.0


def test_covariance_single_grid_steps(ctx):
    vac = gaussian_vector(ctx.cfg)
    P = rank_one(vac, vac)
    h = ctx.grid.h
    for g in (HeisenbergElement([h], [0.0]), HeisenbergElement([0.0], [h]),
              HeisenbergElement([h], [h], 0.3)):
        assert covariance_residual(ctx, P, g) < 10.0 * ctx.cfg.tol_identity


def test_covariance_window_is_the_old_index_set():
    # one slice per axis equals the masks it replaced, bit for bit
    cx = RepresentationContext(default_config(n=2, lam=1.0, M=3, G=24))
    A = _random_operator(np.random.default_rng(19), 9)
    h, L, ax = cx.grid.h, cx.cfg.L, cx.grid.axis
    steps = (2, -3, 0, 1)
    g = HeisenbergElement([2 * h, -3 * h], [0.0, h], 0.4)
    R = schroedinger.rep_matrix(cx, g).entries
    SB = covariant_symbol(cx, OperatorMatrix(R.conj().T @ A.entries @ R))
    SA = covariant_symbol(cx, A)
    idx = [np.flatnonzero((np.abs(ax) <= L / 2)
                          & (np.abs(ax[(np.arange(24) + d) % 24]) <= L / 2)
                          & (np.arange(24) + d >= 0) & (np.arange(24) + d < 24))
           for d in steps]
    old = SB.reshape()[np.ix_(*idx)] - SA.reshape()[
        np.ix_(*[k + d for k, d in zip(idx, steps)])]
    assert covariance_residual(cx, A, g) == float(np.abs(old).max())


def test_covariance_guard_bounds_its_peak(guard_ctx, need_and_peak):
    # the count holds both operators and the first symbol's window beside
    # the second symbol, and numpy's copy of its window in the subtraction
    # (64 KiB left for small objects); it peaked at 2.04x the symbol's count
    # at n = 1, (16, 512), holding both symbols and both np.ix_ windows
    cfg, h = guard_ctx.cfg, guard_ctx.grid.h
    A = _random_operator(np.random.default_rng(23), cfg.dim)
    g = HeisenbergElement([h] * cfg.n, [-h] * cfg.n, 0.3)
    need, peak = need_and_peak(lambda: covariance_residual(guard_ctx, A, g))
    assert peak <= 16 * need + 65536


def test_covariance_refuses_its_count_over_the_guard(monkeypatch, ctx):
    # a guard at the symbol's own count (56033) serves the symbol, not the
    # residual: + 2 * 3906 window entries + 2 * 16^2 operator entries
    h = ctx.grid.h
    g = HeisenbergElement([3 * h], [-2 * h])
    monkeypatch.setattr(core, "_TABLE_LIMIT", 56033)
    covariant_symbol(ctx, identity_operator(16))
    with pytest.raises(MemoryError, match="covariance residual on 16384 "
                       "grid points needs 64357 complex entries"):
        covariance_residual(ctx, identity_operator(16), g)


def test_covariance_rejects_off_lattice(ctx):
    A = identity_operator(16)
    with pytest.raises(ValueError, match="commensurate"):
        covariance_residual(ctx, A, HeisenbergElement([ctx.grid.h * 0.5], [0.0]))


def test_covariance_rejects_oversized_displacement(ctx):
    A = identity_operator(16)
    steps = int(np.floor(0.6 * ctx.cfg.L / ctx.grid.h))
    with pytest.raises(TruncationError):
        covariance_residual(ctx, A, HeisenbergElement([steps * ctx.grid.h], [0.0]))


def test_symbol_map_singular_values_match_analytic():
    for M in (1, 2, 3, 4):
        cx = RepresentationContext(default_config(lam=1.0, M=M))
        sv = build_symbol_map(cx)
        np.testing.assert_allclose(sv, analytic_singular_values(M), atol=1e-9)


@pytest.mark.parametrize("M", [8, 12, 16])
def test_symbol_map_matches_closed_form_at_fine_grid(M):
    # G = 256 resolves the continuum pairing (G = 128 reads sigma_min 1.25e-4
    # high at M = 16); measured <= 2.0e-15 sigma_max and <= 3.7e-10 relative
    sv = build_symbol_map(RepresentationContext(
        default_config(lam=1.0, M=M, G=256)))
    exact = analytic_singular_values(M)
    assert np.abs(sv - exact).max() <= 1e-14 * exact[0]
    assert sv[-1] == pytest.approx(exact[-1], rel=1e-8)


def test_symbol_map_column_norms_match_symbol_norms(ctx8):
    # column (i,j) of the map is the weighted symbol of e_i (x) e_j*
    entries, _ = table_symbol_map(ctx8)
    rng = np.random.default_rng(11)
    for _ in range(4):
        i, j = rng.integers(0, 8, size=2)
        unit = rank_one(basis_state(8, int(i)), basis_state(8, int(j)))
        sym = covariant_symbol(ctx8, unit)
        col = entries[:, int(i) * 8 + int(j)]
        assert np.linalg.norm(col) == pytest.approx(sym.norm(), abs=1e-12)


def test_symbol_map_monotone_sigma_min():
    sigmas = []
    for M in (1, 2, 3, 4):
        cx = RepresentationContext(default_config(lam=1.0, M=M))
        sigmas.append(build_symbol_map(cx)[-1])
    assert all(s1 > s2 for s1, s2 in zip(sigmas, sigmas[1:]))


def test_symbol_map_deterministic():
    cx = RepresentationContext(default_config(lam=1.0, M=3))
    sv1 = build_symbol_map(cx)
    sv2 = build_symbol_map(RepresentationContext(default_config(lam=1.0, M=3)))
    np.testing.assert_array_equal(sv1, sv2)


def test_symbol_map_under_determined():
    cfg = ModelConfig(n=1, lam=1.0, M=20, L=6.9, G=16,
                      tol_identity=1e-6, tol_quadrature=1e-5)
    with pytest.raises(ValueError, match="under-determined"):
        build_symbol_map(RepresentationContext(cfg))


@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("M", [1, 2, 3, 4, 8, 16])
def test_symbol_map_matches_table_oracle(lam, M):
    # measured <= 5.6e-15 absolute and <= 7.6e-11 relative at sigma_min
    # (M = 16); there the table route itself is 5.4e-11 off the 80-digit
    # sigma_min of the grid pairing, and the node route 2.3e-11, so a tighter
    # relative bound would test rounding, not the route
    cx = RepresentationContext(default_config(lam=lam, M=M))
    sv = build_symbol_map(cx)
    _, ref = table_symbol_map(cx)
    assert sv.shape == ref.shape == (M * M,)
    assert np.abs(sv - ref).max() < 1e-14
    assert abs(sv[-1] - ref[-1]) < 2e-10 * ref[-1]


def test_symbol_map_wide_case_matches_table_oracle():
    # G = 20 < 2M - 1 = 23: R is (G, 2M-1), the node factor has G^2 rows
    cfg = ModelConfig(n=1, lam=1.0, M=12, L=5.0, G=20,
                      tol_identity=1e-6, tol_quadrature=1e-2)
    cx = RepresentationContext(cfg)
    sv = build_symbol_map(cx)
    _, ref = table_symbol_map(cx)
    assert sv.shape == ref.shape == (144,)
    assert np.abs(sv - ref).max() < 1e-14  # 1.1e-15


@pytest.mark.parametrize("M", [2, 3])
def test_symbol_map_n2_matches_table_oracle(M):
    # the n = 2 map is the Kronecker square of the n = 1 map, up to order
    cx = RepresentationContext(default_config(n=2, lam=1.0, M=M, G=24))
    sv = build_symbol_map(cx)
    _, ref = table_symbol_map(cx)
    assert sv.shape == ref.shape == (M ** 4,)
    assert np.abs(sv - ref).max() < 1e-14  # 6.7e-16
    sv1 = build_symbol_map(RepresentationContext(
        default_config(n=1, lam=1.0, M=M, G=24)))
    assert sv[-1] == pytest.approx(sv1[-1] ** 2, rel=1e-14)


def test_symbol_map_sigma_min_against_exact_grid_pairing():
    # 80-digit sigma_min of the grid pairing at M = 8: the Gram entry of
    # columns (i,j), (k,l) is dd sum_grid conj(C_i) C_j C_k conj(C_l), a sum of
    # products of 1-D Gaussian moments; on the square grid it vanishes unless
    # (i - j) - (k - l) = 0 mod 4 (to e^{-lam L^2})
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 80
    M, lam = 8, 1.0
    cx = RepresentationContext(default_config(lam=lam, M=M))
    s2 = mp.mpf(lam) / 2
    ax = [mp.mpf(float(a)) for a in cx.grid.axis]
    mom = [mp.fsum(mp.exp(-2 * s2 * a * a) * a ** r for a in ax)
           for r in range(4 * M - 3)]

    # grid_sum[p, q] = sum_grid e^{-2|w|^2} conj(w)^p w^q, w = s (a + ib)
    grid_sum = {(p, q): s2 ** (mp.mpf(p + q) / 2) * mp.fsum(
        mp.binomial(p, u) * mp.binomial(q, v) * (-1j) ** (p - u)
        * 1j ** (q - v) * mom[u + v] * mom[p + q - u - v]
        for u in range(p + 1) for v in range(q + 1))
        for p in range(2 * M - 1) for q in range(2 * M - 1) if (p - q) % 4 == 0}

    dd = mp.mpf(lam) * mp.mpf(float(cx.grid.h)) ** 2 / (2 * mp.pi)
    f = [mp.factorial(k) for k in range(M)]
    eigs = []
    for r in range(4):
        idx = [(i, j) for i in range(M) for j in range(M) if (i - j) % 4 == r]
        gram = mp.matrix([[dd * grid_sum[i + l, j + k]
                           / mp.sqrt(f[i] * f[j] * f[k] * f[l])
                           for k, l in idx] for i, j in idx])
        eigs.extend(mp.eigh(gram, eigvals_only=True))
    exact = float(mp.sqrt(min(eigs)))
    assert build_symbol_map(cx)[-1] == pytest.approx(exact, rel=1e-12)  # 3e-14


def test_symbol_map_guard_counts_the_node_route(monkeypatch):
    # (N^2 + K N + 2 K^2) M^2 + 2 M^{2n} with N = 2M-1, K = min(G, N):
    # n = 1, M = 4: 196 * 16 + 32 = 3168; n = 2, M = 3: 100 * 9 + 162 = 1062
    for n, M, G, need in [(1, 4, 128, 3168), (2, 3, 24, 1062)]:
        cx = RepresentationContext(default_config(n=n, lam=1.0, M=M, G=G))
        monkeypatch.setattr(symbols, "_SVD_LIMIT", need - 1)
        with pytest.raises(MemoryError, match="needs %d complex entries, over "
                           "the size guard of %d" % (need, need - 1)):
            build_symbol_map(cx)
        monkeypatch.setattr(symbols, "_SVD_LIMIT", need)
        assert build_symbol_map(cx).shape == (M ** (2 * n),)


def test_symbol_map_guard_at_g128():
    # n = 1, G = 128: M = 45 needs 64164150 <= 2^26, M = 46 needs 70094616
    cx = RepresentationContext(default_config(lam=1.0, M=46))
    with pytest.raises(MemoryError, match="needs 70094616 complex entries, "
                       "over the size guard of 67108864"):
        build_symbol_map(cx)


def test_symbol_map_working_set_within_the_guard_count():
    M, G = 16, 128
    cx = RepresentationContext(default_config(lam=1.0, M=M, G=G))
    build_symbol_map(cx)  # warm the node table and interpolation caches
    N = 2 * M - 1
    need = 4 * N * N * M * M + 2 * M * M
    tracemalloc.start()
    try:
        build_symbol_map(cx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured 0.75 of the count: F and both products; LAPACK's copy of the
    # last is not traced
    assert peak <= 16 * need


def test_symbol_map_report_and_battery_build_no_table(no_table):
    cx = RepresentationContext(default_config(lam=1.0, M=4))
    with no_table():
        sv = build_symbol_map(cx)
        rep = injectivity_report(cx)
        battery = run_verification(default_config(lam=1.0), seed=0)
    assert rep["sigma_min"] == sv[-1]
    assert battery.passed


def test_injectivity_report_m1():
    rep = injectivity_report(RepresentationContext(default_config(lam=1.0, M=1)))
    assert rep["sigma_min"] == pytest.approx(np.sqrt(0.5), abs=1e-6)
    assert rep["verdict"] == "injective-at-truncation"
    assert rep["baselines"]["sigma_M1_closed_form"] == pytest.approx(np.sqrt(0.5))
    assert set(rep) == {"M", "n", "lambda", "grid", "sigma_min", "sigma_max",
                        "cond", "verdict", "baselines"}


def test_injectivity_report_m4_regression():
    rep = injectivity_report(RepresentationContext(default_config(lam=1.0, M=4)))
    assert rep["sigma_min"] == pytest.approx(0.04314713606049981, abs=1e-9)
    assert rep["verdict"] == "injective-at-truncation"
    assert rep["cond"] == pytest.approx(rep["sigma_max"] / rep["sigma_min"])


def test_covariant_symbol_leaves_table_untouched(no_table):
    # the symbol never builds the coherent table; against the table oracle
    # the difference is absolute rounding, measured 1.2e-15 * max|S| here
    cx = RepresentationContext(default_config(lam=1.0, M=8))
    A = _random_operator(np.random.default_rng(4), 8)
    with no_table():
        vals = covariant_symbol(cx, A).values
    ref = table_covariant_symbol(cx, A).values
    assert np.abs(vals - ref).max() < 5e-15 * np.abs(ref).max()


@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("M, G", [(8, 128), (16, 128), (32, 256)])
def test_covariant_symbol_matches_table_oracle(lam, M, G):
    # measured at most 6.0e-15 * max|S| over these nine contexts
    cx = RepresentationContext(default_config(lam=lam, M=M, G=G))
    A = _random_operator(np.random.default_rng(M + G), M)
    vals = covariant_symbol(cx, A).values
    ref = table_covariant_symbol(cx, A).values
    assert np.abs(vals - ref).max() < 2e-14 * np.abs(ref).max()
    W = frame_operator(cx)
    assert np.abs(W - table_frame_operator(cx)).max() < 1e-14
    assert np.abs(W - np.eye(M)).max() < 1e-14


def test_covariant_symbol_n2_matches_table_oracle(no_table):
    cx = RepresentationContext(default_config(n=2, lam=1.0, M=3, G=24))
    A = _random_operator(np.random.default_rng(13), 9)
    with no_table():
        vals = covariant_symbol(cx, A).values
    ref = table_covariant_symbol(cx, A).values
    assert np.abs(vals - ref).max() < 1e-14 * np.abs(ref).max()  # 6.0e-16
    assert np.abs(frame_operator(cx) - table_frame_operator(cx)).max() < 1e-14


@pytest.fixture(scope="module")
def ctx_n2():
    # G^4 M^2 = 64e6 table entries: beyond the table's size guard
    return RepresentationContext(default_config(n=2, lam=1.0, M=5, G=40))


def test_covariant_symbol_n2_product_identity(ctx_n2, no_table):
    # S(A1 (x) A2)(a1, a2, b1, b2) = S(A1)(a1, b1) S(A2)(a2, b2)
    rng = np.random.default_rng(14)
    A1, A2 = _random_operator(rng, 5), _random_operator(rng, 5)
    c1 = RepresentationContext(default_config(n=1, lam=1.0, M=5, G=40))
    with no_table():
        vals = covariant_symbol(
            ctx_n2, OperatorMatrix(np.kron(A1.entries, A2.entries))).reshape()
        S1 = covariant_symbol(c1, A1).reshape()
        S2 = covariant_symbol(c1, A2).reshape()
    prod = np.einsum("ac,bd->abcd", S1, S2)
    assert np.abs(vals - prod).max() < 1e-14 * np.abs(prod).max()


def test_trace_identity_n2(ctx_n2, no_table):
    rng = np.random.default_rng(15)
    with no_table():
        for _ in range(2):
            A = _random_operator(rng, 25)
            tr_norm = np.sum(np.linalg.svd(A.entries, compute_uv=False))
            assert trace_identity_residual(ctx_n2, A) < 1e-14 * tr_norm  # 4e-16
        W = frame_operator(ctx_n2)
    assert np.abs(W - np.eye(25)).max() < 1e-12  # 3.1e-14


def test_covariant_symbol_against_mpmath():
    # 60-digit sum_{m,j} A[m,j] C_m(w) conj(C_j(w)) at bulk grid points
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    M, lam = 16, 0.5
    cx = RepresentationContext(default_config(lam=lam, M=M))
    A = _random_operator(np.random.default_rng(16), M)
    vals = covariant_symbol(cx, A).reshape()
    scale = np.abs(vals).max()
    ax = cx.grid.axis
    for ia, ib in [(64, 64), (70, 55), (40, 90), (100, 30)]:
        w = mp.sqrt(mp.mpf(lam) / 2) * mp.mpc(ax[ia], ax[ib])
        col = [mp.exp(-abs(w) ** 2 / 2) * w ** d / mp.sqrt(mp.factorial(d))
               for d in range(M)]
        exact = mp.fsum(mp.mpc(A.entries[m, j]) * col[m] * mp.conj(col[j])
                        for m in range(M) for j in range(M))
        assert abs(complex(exact) - vals[ia, ib]) < 1e-14 * scale  # 2.0e-16


def test_frame_operator_and_reconstruct_build_no_table(no_table):
    cx = RepresentationContext(default_config(lam=1.0, M=8))
    vac = gaussian_vector(cx.cfg)
    with no_table():
        assert reconstruct(cx, identity_operator(8), vac, PhasePoint(
            [0.0], [0.0])) == pytest.approx(1.0, abs=1e-14)
        assert hs_identity_residual(cx, identity_operator(8)) < 1e-13
        assert np.abs(frame_operator(cx) - np.eye(8)).max() < 1e-14


@pytest.mark.parametrize("n, M, G", [(1, 32, 256), (2, 5, 40), (2, 8, 40)])
def test_in_place_node_stage_is_bit_identical(n, M, G):
    # the node stage before it multiplied in place: a product array, summed
    cx = RepresentationContext(default_config(n=n, lam=1.0, M=M, G=G))
    rng = np.random.default_rng(40 + M)
    A = _random_operator(rng, cx.cfg.dim)
    N = 2 * M - 1
    c, cbar_t = schroedinger._node_table(M, np.sqrt(2.0))
    S = A.entries.reshape((M,) * (2 * n))
    for k in range(n):
        S = np.tensordot(S, c, axes=([0], [1]))
        S = np.moveaxis(S, n - 1 - k, -2)
        S = (S * cbar_t).sum(axis=-2)
    B = schroedinger._interpolation_matrix(1.0, cx.grid.L, G, M)
    ref = _expand_nodes(S.reshape((N,) * (2 * n)), B, n)
    assert np.array_equal(covariant_symbol(cx, A).values, ref.reshape(-1))


def test_covariant_symbol_guard_bounds_its_peak(guard_ctx, need_and_peak,
                                                monkeypatch):
    # the count, the cached node table and B beside the last node step,
    # refuses one entry under it and bounds the cold-cache peak of the
    # symbol at it, which reads no values (64 KiB left for small objects);
    # their first read is counted on its own
    cfg = guard_ctx.cfg
    M, N = cfg.M, 2 * cfg.M - 1
    rng = np.random.default_rng(13)
    A = OperatorMatrix(rng.standard_normal((cfg.dim, cfg.dim))
                       + 1j * rng.standard_normal((cfg.dim, cfg.dim)))
    need = 2 * M * N * N + cfg.G * N + (M + 1) * N ** (2 * cfg.n)
    monkeypatch.setattr(core, "_TABLE_LIMIT", need - 1)
    with pytest.raises(MemoryError, match="covariant symbol"):
        covariant_symbol(guard_ctx, A)
    monkeypatch.setattr(core, "_TABLE_LIMIT", need)  # the traced call's
    counted, peak = need_and_peak(lambda: covariant_symbol(guard_ctx, A))
    assert counted == need
    assert peak <= 16 * need + 65536


def test_covariant_symbol_refuses_output_over_guard(monkeypatch):
    # n = 1, M = 2, G = 128: the symbol counts 447 entries, its values the
    # last expansion step, input and output, 16777, on their first read;
    # refused one entry under that count, served at it
    cx = RepresentationContext(default_config(lam=1.0, M=2, G=128))
    need = 16777
    monkeypatch.setattr(core, "_TABLE_LIMIT", need - 1)
    S = covariant_symbol(cx, identity_operator(2))
    with pytest.raises(MemoryError, match="node expansion on 16384 grid "
                       "points needs 16777"):
        S.values
    monkeypatch.setattr(core, "_TABLE_LIMIT", need)
    assert S.values.size == 128 ** 2
    monkeypatch.setattr(core, "_TABLE_LIMIT", 446)
    with pytest.raises(MemoryError, match="symbol on 16384 grid points "
                       "needs 447 "):
        covariant_symbol(cx, identity_operator(2))


def test_n2_covariant_symbol_guard_counts_the_expansion(monkeypatch):
    # n = 2, M = 5, G = 40: the last expansion step, on the first read
    cx = RepresentationContext(default_config(n=2, lam=1.0, M=5, G=40))
    need = 3142561
    A = identity_operator(25)
    monkeypatch.setattr(core, "_TABLE_LIMIT", need - 1)
    with pytest.raises(MemoryError, match="2560000 grid points needs 3142561"):
        covariant_symbol(cx, A).values
    monkeypatch.setattr(core, "_TABLE_LIMIT", need)
    tracemalloc.start()
    try:
        S = covariant_symbol(cx, A)
        S.values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured 1.23x the output; 2.00x with the transposed output copy
    assert peak <= 1.3 * S.values.nbytes


def test_covariant_symbol_refuses_node_stage_over_guard():
    # a small grid but a large M: the last node step holds (M + 1) (2M-1)^4
    # entries, 25 * 47^4 = 121992025, over 2^24 beside the cached tables
    cx = RepresentationContext(ModelConfig(n=2, lam=1.0, M=24, L=28.0, G=16,
                                           tol_quadrature=0.9))
    with pytest.raises(MemoryError, match="needs 122098809 .* guard of 16777216"):
        covariant_symbol(cx, identity_operator(24 ** 2))


def test_symbol_caches_are_bounded_and_read_only(ctx8):
    covariant_symbol(ctx8, identity_operator(8))
    c, cbar_t = symbols._node_table(8, np.sqrt(2.0))
    B = symbols._interpolation_matrix(1.0, ctx8.grid.L, 128, 8)
    assert c.shape == (15 * 15, 8) and B.shape == (128, 15)
    for arr in (c, cbar_t, B):
        assert not arr.flags.writeable
    # the battery cycles through 9 contexts; a smaller cache misses every call
    assert symbols._interpolation_matrix.cache_info().maxsize >= 9
