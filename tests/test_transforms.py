"""Coefficient map, orbit Fourier transform, Wigner function, Moyal identity."""
from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from berezin import (GridFunction, HermiteState, ModelConfig, OperatorMatrix,
                     PhaseGrid, RepresentationContext, basis_state,
                     coefficient_map, core, covariant_symbol, default_L,
                     default_config, fourier_orbit, gaussian_vector,
                     identity_operator, inner_l2, inverse_fourier_orbit,
                     moyal_residual, orbit_inner, trace_identity_residual,
                     wigner)
from berezin.core import _expand_nodes
from berezin.oracle import oracle_double_sum_ft
from berezin.schroedinger import ambiguity_batch
from berezin.transforms import OrbitGridFunction, _orbit_dft


@pytest.fixture(scope="module")
def ctx():
    return RepresentationContext(default_config(lam=1.0, M=8))


def _random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return HermiteState(coeffs=v / np.linalg.norm(v))


def test_dual_lattice_geometry(ctx):
    grid = ctx.grid
    a = OrbitGridFunction(grid=grid, values=np.zeros(grid.num_points, complex))
    assert a.eta == pytest.approx(2.0 * np.pi / (grid.G * grid.h))
    assert a.orbit_density == pytest.approx(1.0 / (2.0 * np.pi * grid.lam))
    assert a.xi_axis[grid.G // 2] == 0.0
    # the sample type reads its lattice from axis and weight
    assert np.array_equal(a.axis, a.xi_axis)
    assert a.weight == a.orbit_density * a.cell_weight
    assert a.cell_weight == pytest.approx(a.eta ** 2)
    F = GridFunction(grid=grid, values=a.values)
    assert np.array_equal(F.axis, grid.axis)
    assert F.weight == grid.density * grid.cell_weight


def test_coefficient_map_center_values(ctx):
    vac = gaussian_vector(ctx.cfg)
    amb = coefficient_map(ctx, vac, vac)
    center = (ctx.cfg.G // 2) * ctx.cfg.G + ctx.cfg.G // 2  # x = (0, 0)
    assert amb.values[center] == pytest.approx(1.0, abs=1e-12)
    amb2 = coefficient_map(ctx, basis_state(8, 1), vac)
    assert abs(amb2.values[center]) < 1e-12


def test_coefficient_map_pointwise_bound(ctx):
    rng = np.random.default_rng(0)
    f, phi = _random_state(rng, 8), _random_state(rng, 8)
    amb = coefficient_map(ctx, f, phi)
    assert np.abs(amb.values).max() <= f.norm() * phi.norm() + 1e-12


def test_coefficient_map_isometry(ctx):
    vac = gaussian_vector(ctx.cfg)
    amb = coefficient_map(ctx, vac, vac)
    assert inner_l2(amb, amb) == pytest.approx(1.0, abs=ctx.cfg.tol_identity)


def test_coefficient_map_linearity(ctx):
    rng = np.random.default_rng(1)
    f, g, phi = (_random_state(rng, 8) for _ in range(3))
    z = 0.7 - 1.3j
    lhs = coefficient_map(
        ctx, HermiteState(coeffs=f.coeffs + z * g.coeffs), phi).values
    rhs = (coefficient_map(ctx, f, phi).values
           + z * coefficient_map(ctx, g, phi).values)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_coefficient_map_conjugate_linearity_in_window(ctx):
    rng = np.random.default_rng(2)
    f, phi, psi = (_random_state(rng, 8) for _ in range(3))
    z = 0.7 - 1.3j
    lhs = coefficient_map(
        ctx, f, HermiteState(coeffs=phi.coeffs + z * psi.coeffs)).values
    rhs = (coefficient_map(ctx, f, phi).values
           + np.conj(z) * coefficient_map(ctx, f, psi).values)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_fourier_round_trip(ctx):
    rng = np.random.default_rng(3)
    N = ctx.grid.num_points
    worst = 0.0
    for _ in range(50):
        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        a = OrbitGridFunction(grid=ctx.grid, values=v)
        back = inverse_fourier_orbit(fourier_orbit(a))
        worst = max(worst, np.abs(back.values - v).max() / np.abs(v).max())
        F = fourier_orbit(a)
        again = fourier_orbit(inverse_fourier_orbit(F))
        worst = max(worst, np.abs(again.values - F.values).max()
                    / np.abs(F.values).max())
    assert worst < 1e-12


def test_fourier_parseval(ctx):
    rng = np.random.default_rng(4)
    v = rng.standard_normal(ctx.grid.num_points) * 1j
    v += rng.standard_normal(ctx.grid.num_points)
    a = OrbitGridFunction(grid=ctx.grid, values=v)
    F = fourier_orbit(a)
    assert inner_l2(F, F).real == pytest.approx(orbit_inner(a, a).real,
                                                rel=1e-12)


def test_fourier_gaussian_closed_form():
    # forward transform of the orbit Gaussian 2 e^{-|xi|^2/lam} is the
    # coherent overlap profile e^{-lam |x|^2 / 4} (Gaussian integral)
    for lam in (0.5, 1.0, 4.0):
        cx = RepresentationContext(default_config(lam=lam, M=8))
        xi = OrbitGridFunction(grid=cx.grid,
                               values=np.zeros(cx.grid.num_points)).xi_axis
        A, B = np.meshgrid(xi, xi, indexing="ij")
        bump = OrbitGridFunction(grid=cx.grid,
                                 values=(2.0 * np.exp(-(A**2 + B**2) / lam)).ravel())
        F = fourier_orbit(bump).reshape()
        ax = cx.grid.axis
        Xa, Xb = np.meshgrid(ax, ax, indexing="ij")
        target = np.exp(-lam * (Xa**2 + Xb**2) / 4.0)
        assert np.abs(F - target).max() < 1e-8


def test_fourier_matches_double_sum_oracle():
    grid_ctx = RepresentationContext(
        default_config(lam=1.0, M=2, L=8.0, G=16, tol_quadrature=0.5))
    rng = np.random.default_rng(5)
    for _ in range(3):
        v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        a = OrbitGridFunction(grid=grid_ctx.grid, values=v)
        F = fourier_orbit(a)
        ref = oracle_double_sum_ft(a.reshape(), a.xi_axis, grid_ctx.grid.axis,
                                   a.orbit_density, sign=-1)
        assert np.abs(F.reshape() - ref).max() < 1e-10


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_n2_both_directions_match_double_sum_oracle(lam):
    grid = PhaseGrid(n=2, lam=lam, L=3.0, G=8)
    rng = np.random.default_rng(7)
    for _ in range(2):
        v = rng.standard_normal(grid.num_points) \
            + 1j * rng.standard_normal(grid.num_points)
        a = OrbitGridFunction(grid=grid, values=v)
        ref = oracle_double_sum_ft(a.reshape(), a.xi_axis, grid.axis,
                                   a.orbit_density, sign=-1)
        assert np.abs(fourier_orbit(a).reshape() - ref).max() < 1e-10
        F = GridFunction(grid=grid, values=v)
        ref = oracle_double_sum_ft(F.reshape(), grid.axis, a.xi_axis,
                                   grid.density, sign=+1)
        assert np.abs(inverse_fourier_orbit(F).reshape() - ref).max() < 1e-10


def test_n2_inverse_transform_working_set_is_its_output():
    cfg = ModelConfig(n=2, lam=1.0, M=5, L=default_L(1.0, 5), G=40,
                      tol_identity=1e-6, tol_quadrature=1e-5)
    grid = RepresentationContext(cfg).grid
    rng = np.random.default_rng(24)
    F = GridFunction(grid=grid, values=rng.standard_normal(grid.num_points)
                     + 1j * rng.standard_normal(grid.num_points))
    tracemalloc.start()
    try:
        W = inverse_fourier_orbit(F)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured 1.00x: one checkerboard-signed copy, FFT and scaling in place
    # on it, and a finiteness check with no mask; the per-axis loop peaked
    # at 3.0x
    assert peak <= 1.5 * W.values.nbytes


@pytest.mark.parametrize("window", ["vacuum", "general"])
@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("n, M, G", [(1, 16, 128), (1, 32, 256), (2, 5, 40),
                                     (2, 8, 40)])
def test_node_route_wigner_matches_the_fft_oracle(n, M, G, lam, window):
    cx = RepresentationContext(default_config(n=n, lam=lam, M=M, G=G))
    rng = np.random.default_rng(30 + M)
    f = _random_state(rng, cx.cfg.dim)
    phi = (gaussian_vector(cx.cfg) if window == "vacuum"
           else _random_state(rng, cx.cfg.dim))
    amb = coefficient_map(cx, f, phi)
    plain = GridFunction(grid=amb.grid, values=amb.values)
    assert amb._nodes is not None and plain._nodes is None
    W = inverse_fourier_orbit(amb)
    ref = inverse_fourier_orbit(plain)  # no node tensor: the n-D FFT
    # measured at most 7.9e-16 of max|W|
    assert np.abs(W.values - ref.values).max() <= 1e-14 * np.abs(
        ref.values).max()


@pytest.mark.parametrize("n, M, G, lam", [(1, 8, 128, 1.0), (1, 16, 128, 0.5),
                                          (1, 32, 256, 4.0), (2, 5, 40, 1.0)])
def test_node_inverse_factor_is_scipy_ifft_of_the_same_input(n, M, G, lam):
    # FB comes from numpy.fft; scipy.fft.ifft of the checkerboarded B, with
    # the same weight and signs, agrees to rounding (measured 1.5 eps)
    cx = RepresentationContext(default_config(n=n, lam=lam, M=M, G=G))
    amb = coefficient_map(cx, basis_state(cx.cfg.dim, 1),
                          gaussian_vector(cx.cfg))
    B = amb._nodes[1]
    FB = inverse_fourier_orbit(amb)._nodes[1]
    signs = np.where(np.arange(G) % 2, -1.0, 1.0)[:, None]
    ref = (scipy.fft.ifft(B * signs, axis=0, norm="forward")
           * amb.weight ** (0.5 / n) * signs)
    assert FB.shape == ref.shape == (G, 2 * M - 1)
    assert np.abs(FB - ref).max() <= 4 * np.finfo(float).eps * np.abs(
        ref).max()


def test_node_carrying_samples_are_read_only(ctx):
    # every node-route sample is one kind: node tensor, factor, read-only
    vac = gaussian_vector(ctx.cfg)
    amb = coefficient_map(ctx, basis_state(8, 1), vac)
    for sample in (amb, inverse_fourier_orbit(amb),
                   covariant_symbol(ctx, identity_operator(8))):
        S, F = sample._nodes
        for arr in (sample.values, sample.reshape(), S):
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sample.values[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            sample.values = np.zeros_like(sample.values)
        # only the node route sets the node tensor: copies carry none
        with pytest.raises(TypeError):
            type(sample)(grid=sample.grid, values=sample.values,
                         _nodes=(S, F))
        assert dataclasses.replace(sample)._nodes is None


@pytest.mark.parametrize("n, M, G", [(1, 16, 128), (2, 5, 40)])
def test_symbol_inverse_takes_the_node_route(n, M, G):
    cx = RepresentationContext(default_config(n=n, lam=1.0, M=M, G=G))
    rng = np.random.default_rng(60 + M)
    E = rng.standard_normal((cx.cfg.dim,) * 2)
    sym = covariant_symbol(cx, OperatorMatrix(E + 1j * E.T))
    W = inverse_fourier_orbit(sym)
    ref = inverse_fourier_orbit(GridFunction(grid=sym.grid, values=sym.values))
    assert W._nodes is not None and ref._nodes is None
    assert np.abs(W.values - ref.values).max() <= 1e-14 * np.abs(
        ref.values).max()


def test_n2_moyal_through_both_wigner_routes():
    x2 = _n2_context()
    rng = np.random.default_rng(25)
    f1, p1, f2, p2 = (_random_state(rng, 9) for _ in range(4))
    target = f1.inner(f2) * np.conj(p1.inner(p2))
    A1, A2 = coefficient_map(x2, f1, p1), coefficient_map(x2, f2, p2)
    pairs = []
    for route in (lambda A: A,  # node route, then the FFT on plain copies
                  lambda A: GridFunction(grid=A.grid, values=A.values)):
        pair = inner_l2(inverse_fourier_orbit(route(A1)),
                        inverse_fourier_orbit(route(A2)))
        assert abs(pair - target) < 1e-6
        pairs.append(pair)
    assert pairs[0] == pytest.approx(pairs[1], abs=1e-14)


def test_wigner_vacuum_is_real_unit_gaussian():
    for lam in (0.5, 1.0, 4.0):
        cx = RepresentationContext(default_config(lam=lam, M=8))
        vac = gaussian_vector(cx.cfg)
        W = wigner(cx, vac, vac)
        assert np.abs(W.values.imag).max() < 1e-12
        assert abs(orbit_inner(W, W).real - 1.0) < cx.cfg.tol_identity
        xi = W.xi_axis
        A, B = np.meshgrid(xi, xi, indexing="ij")
        closed = 2.0 * np.exp(-(A**2 + B**2) / lam)  # Gaussian integral of
        # the overlap law e^{-lam|x|^2/4} under the orbit-normalized inverse
        assert np.abs(W.reshape() - closed).max() < 1e-10


def test_wigner_diagonal_reality(ctx):
    rng = np.random.default_rng(6)
    f = _random_state(rng, 8)
    W = wigner(ctx, f, f)
    assert np.abs(W.values.imag).max() < ctx.cfg.tol_identity


def test_wigner_orthogonal_modes(ctx):
    W0 = wigner(ctx, basis_state(8, 0), basis_state(8, 0))
    W1 = wigner(ctx, basis_state(8, 1), basis_state(8, 1))
    assert abs(orbit_inner(W0, W0) - 1.0) < ctx.cfg.tol_identity
    assert abs(orbit_inner(W0, W1)) < ctx.cfg.tol_identity


def test_moyal_vacuum_quadruple(ctx):
    vac = gaussian_vector(ctx.cfg)
    r1, r2 = moyal_residual(ctx, vac, vac, vac, vac)
    assert r1 < ctx.cfg.tol_identity
    assert r2 < ctx.cfg.tol_identity


def test_moyal_orthogonal_targets(ctx):
    vac = gaussian_vector(ctx.cfg)
    r1, r2 = moyal_residual(ctx, basis_state(8, 0), vac, basis_state(8, 1), vac)
    assert r1 < ctx.cfg.tol_identity
    assert r2 < ctx.cfg.tol_identity


def test_moyal_random_quadruples(ctx):
    rng = np.random.default_rng(11)
    for _ in range(20):
        f1, p1, f2, p2 = (_random_state(rng, 8) for _ in range(4))
        r1, r2 = moyal_residual(ctx, f1, p1, f2, p2)
        assert r1 < 10.0 * ctx.cfg.tol_identity
        assert r2 < 10.0 * ctx.cfg.tol_identity


def test_moyal_cauchy_schwarz_bound(ctx):
    # |(A(f1,p1)|A(f2,p2))| <= prod of norms, discrete version
    rng = np.random.default_rng(12)
    f1, p1, f2, p2 = (_random_state(rng, 8) for _ in range(4))
    a1 = coefficient_map(ctx, f1, p1)
    a2 = coefficient_map(ctx, f2, p2)
    assert abs(inner_l2(a1, a2)) <= a1.norm() * a2.norm() + 1e-12


def _n2_context():
    lam = 1.0
    cfg = ModelConfig(n=2, lam=lam, M=3, L=default_L(lam, 3), G=24,
                      tol_identity=1e-6, tol_quadrature=1e-5)
    return RepresentationContext(cfg)


def test_n2_coefficient_map_factorizes():
    lam = 1.0
    L = default_L(lam, 3)
    c2 = ModelConfig(n=2, lam=lam, M=3, L=L, G=16,
                     tol_identity=1e-6, tol_quadrature=0.05)
    c1 = ModelConfig(n=1, lam=lam, M=3, L=L, G=16,
                     tol_identity=1e-6, tol_quadrature=0.05)
    x2, x1 = RepresentationContext(c2), RepresentationContext(c1)
    f2 = np.zeros(9, dtype=complex)
    f2[1 * 3 + 2] = 1.0  # e_1 (x) e_2 in row-major mode order
    phi2 = np.zeros(9, dtype=complex)
    phi2[0] = 1.0
    A2 = coefficient_map(x2, HermiteState(coeffs=f2),
                         HermiteState(coeffs=phi2)).reshape()
    a1 = coefficient_map(x1, basis_state(3, 1), basis_state(3, 0)).reshape()
    b1 = coefficient_map(x1, basis_state(3, 2), basis_state(3, 0)).reshape()
    prod = a1[:, None, :, None] * b1[None, :, None, :]
    assert np.abs(A2 - prod).max() < 1e-12


def test_n2_moyal_and_wigner():
    x2 = _n2_context()
    f2 = np.zeros(9, dtype=complex)
    f2[1 * 3 + 2] = 1.0
    phi2 = np.zeros(9, dtype=complex)
    phi2[0] = 1.0
    F2, P2 = HermiteState(coeffs=f2), HermiteState(coeffs=phi2)
    r1, r2 = moyal_residual(x2, F2, P2, F2, P2)
    assert max(r1, r2) < 1e-6
    W = wigner(x2, P2, P2)
    assert np.abs(W.values.imag).max() < 1e-12
    assert abs(orbit_inner(W, W).real - 1.0) < 1e-8


def test_n2_fourier_round_trip():
    x2 = _n2_context()
    rng = np.random.default_rng(13)
    v = rng.standard_normal(x2.grid.num_points) \
        + 1j * rng.standard_normal(x2.grid.num_points)
    a = OrbitGridFunction(grid=x2.grid, values=v)
    back = inverse_fourier_orbit(fourier_orbit(a))
    assert np.abs(back.values - v).max() < 1e-12


def test_n2_map_matches_per_axis_quadrature():
    # (f | pi(x) phi) for entangled f and phi against Riemann-sum quadrature
    # tables T[a, b, m, j] = (e_m | pi([a,b,0]) e_j) of one axis
    lam, M, G = 1.0, 4, 32
    c1 = ModelConfig(n=1, lam=lam, M=M, L=default_L(lam, M), G=G,
                     tol_identity=1e-6, tol_quadrature=1e-5)
    x1 = RepresentationContext(c1)
    x2 = RepresentationContext(dataclasses.replace(c1, n=2))
    T = np.stack([ambiguity_batch(x1, np.eye(M), e)
                  for e in np.eye(M)], axis=-1)
    rng = np.random.default_rng(21)
    f, phi = (_random_state(rng, M * M) for _ in range(2))
    got = coefficient_map(x2, f, phi).reshape()
    ref = np.einsum("ABmj,CDnl,mn,jl->ACBD", T, T,
                    f.coeffs.reshape(M, M), np.conj(phi.coeffs).reshape(M, M),
                    optimize=True)
    # measured 5.8e-16: the quadrature resolves the closed form to rounding
    assert np.abs(got - ref).max() < 1e-13 * f.norm() * phi.norm()


def test_n3_map_is_the_product_of_1d_maps():
    lam, M, G, L = 1.0, 3, 8, 5.0
    c3 = ModelConfig(n=3, lam=lam, M=M, L=L, G=G,
                     tol_identity=1e-6, tol_quadrature=0.01)
    x3 = RepresentationContext(c3)
    x1 = RepresentationContext(dataclasses.replace(c3, n=1))
    rng = np.random.default_rng(22)
    fs, ps = ([_random_state(rng, M) for _ in range(3)] for _ in range(2))
    f3 = np.einsum("i,j,k->ijk", *(f.coeffs for f in fs)).ravel()
    p3 = np.einsum("i,j,k->ijk", *(p.coeffs for p in ps)).ravel()
    got = coefficient_map(x3, HermiteState(f3), HermiteState(p3)).reshape()
    A = [coefficient_map(x1, f, p).reshape() for f, p in zip(fs, ps)]
    ref = np.einsum("ad,be,cf->abcdef", *A)
    assert np.abs(got - ref).max() < 1e-13


def test_n2_map_working_set_is_near_the_output():
    cfg = ModelConfig(n=2, lam=1.0, M=5, L=default_L(1.0, 5), G=40,
                      tol_identity=1e-6, tol_quadrature=1e-5)
    x2 = RepresentationContext(cfg)
    f = _random_state(np.random.default_rng(23), 25)
    tracemalloc.start()
    try:
        A = coefficient_map(x2, f, gaussian_vector(cfg))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured 1.23x: the last expansion step's input and its output; the
    # node values are put in grid order before the expansion, so no
    # transposed output copy (2.00x) is made
    assert peak <= 1.3 * A.values.nbytes


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("G", [6, 22, 40])
@pytest.mark.parametrize("sign", [1, -1])
def test_orbit_dft_is_the_per_axis_checkerboard_fft(n, G, sign):
    # G/2 odd (6, 22) and even (40): the full-row checkerboard is exact
    rng = np.random.default_rng(50 + G + n)
    vals = (rng.standard_normal((G,) * (2 * n))
            + 1j * rng.standard_normal((G,) * (2 * n)))
    weight = 0.37
    axis = (-1.0) ** np.arange(G)
    board = axis
    for _ in range(2 * n - 1):
        board = np.multiply.outer(board, axis)
    fft = scipy.fft.fftn if sign > 0 else (
        lambda x: scipy.fft.ifftn(x, norm="forward"))
    ref = board * fft(vals * (weight * board))  # scaled before the sum
    got = _orbit_dft(vals, sign, weight)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("transform, cls, top", [
    (inverse_fourier_orbit, GridFunction, 3.36e307),
    (fourier_orbit, OrbitGridFunction, 4.87e306)])
def test_fft_route_serves_transforms_near_the_largest_float(transform, cls,
                                                            top):
    # a constant 1e305 on the default config: the unscaled sums, 1.6e309,
    # overflowed where the transforms are finite
    grid = RepresentationContext(default_config()).grid
    got = transform(cls(grid=grid, values=np.full(grid.num_points, 1e305,
                                                  dtype=complex)))
    assert np.abs(got.values).max() == pytest.approx(top, rel=1e-3)


_NON_FINITE = [complex(np.nan, 0.0), complex(0.0, np.nan),
               complex(np.inf, 0.0), complex(0.0, np.inf),
               complex(-np.inf, 0.0), complex(0.0, -np.inf)]


@pytest.mark.parametrize("cls", [GridFunction, OrbitGridFunction])
def test_grid_functions_reject_non_finite_values(cls):
    grid = PhaseGrid(n=1, lam=1.0, L=4.0, G=8)
    for bad in _NON_FINITE:
        for k in (0, 31, 63):
            v = np.ones(64, dtype=complex)
            v[k] = bad
            with pytest.raises(ValueError, match="non-finite"):
                cls(grid=grid, values=v)


def _on_both_lattices(first):
    """The same samples on the phase grid and on the orbit lattice, `first`'s
    lattice first."""
    grid = PhaseGrid(n=1, lam=1.0, L=4.0, G=8)
    v = np.arange(64) + 1j
    other = OrbitGridFunction if first is GridFunction else GridFunction
    return first(grid=grid, values=v), other(grid=grid, values=v)


def test_orbit_inner_is_inner_l2():
    assert orbit_inner is inner_l2


@pytest.mark.parametrize("pairing", [inner_l2, orbit_inner])
@pytest.mark.parametrize("cls", [GridFunction, OrbitGridFunction])
def test_pairing_refuses_samples_on_two_lattices(pairing, cls):
    # both pairings read one weight and paired the values anyway: for the
    # vacuum on the default config inner_l2(ambiguity, wigner) gave 2.53 and
    # orbit_inner(wigner, ambiguity) 0.367
    u, v = _on_both_lattices(cls)
    with pytest.raises(ValueError, match="grid mismatch"):
        pairing(u, v)
    assert pairing(u, u) == pytest.approx(u.norm() ** 2, rel=1e-12)


@pytest.mark.parametrize("transform, cls", [
    (fourier_orbit, GridFunction), (inverse_fourier_orbit, OrbitGridFunction)])
def test_orbit_transforms_refuse_samples_on_the_other_lattice(transform, cls):
    # inverse_fourier_orbit took orbit samples with the phase-grid weight;
    # fourier_orbit failed on phase-grid samples with an AttributeError
    u, _ = _on_both_lattices(cls)
    with pytest.raises(ValueError, match="takes samples on the"):
        transform(u)


@pytest.mark.parametrize("cls", [GridFunction, OrbitGridFunction])
def test_grid_functions_accept_extreme_finite_values(cls):
    # a check that summed the values would overflow to inf on these
    grid = PhaseGrid(n=1, lam=1.0, L=4.0, G=8)
    tiny = np.nextafter(0.0, 1.0)
    v = np.full(64, complex(1.7e308, -1.7e308))
    v[1::2] = complex(-1.7e308, 1.7e308)
    v[:4] = [tiny, -tiny, 1j * tiny, 1e-310 - 1e-310j]
    got = cls(grid=grid, values=v)
    assert np.array_equal(got.values, v)


@pytest.mark.parametrize("cls", [GridFunction, OrbitGridFunction])
def test_from_nodes_makes_the_class_it_is_called_on(cls):
    grid = PhaseGrid(n=1, lam=1.0, L=4.0, G=8)
    S, F = np.full((1, 1), 2.0 + 1.0j), np.ones((8, 1))
    sample = cls._from_nodes(grid, S, F)
    assert type(sample) is cls and sample._nodes == (S, F)
    assert not S.flags.writeable and "values" not in vars(sample)
    assert np.array_equal(sample.values, np.full(64, 2.0 + 1.0j))


_FLOAT_MAX = np.finfo(float).max


def _scaled_route(route):
    """The route as a function of the scale of its input.  At M = 2 the
    grid maxima lie between node points (1.34 and 1.79 against node maxima
    of 1.05 and 1.64); the symbol of the identity at M = 32 is at most 1,
    and its transform at the origin is trace(I) = 32."""
    if route == "node inverse":
        cx = RepresentationContext(default_config(lam=1.0, M=32, G=256))
        return lambda s: inverse_fourier_orbit(covariant_symbol(
            cx, OperatorMatrix(s * np.eye(32))))
    cx = RepresentationContext(default_config(lam=1.0, M=2))
    if route == "coefficient map":
        return lambda s: coefficient_map(cx, HermiteState(s * np.ones(2)),
                                         gaussian_vector(cx.cfg))
    return lambda s: covariant_symbol(cx, OperatorMatrix(s * np.ones((2, 2))))


@pytest.mark.parametrize("route", ["coefficient map", "covariant symbol",
                                   "node inverse"])
def test_node_routes_refuse_outputs_past_the_largest_float(route):
    # finite inputs and node values; the outputs would be 1.04 times the
    # largest float
    call = _scaled_route(route)
    scale = _FLOAT_MAX / np.abs(call(1.0).values).max() * 1.04
    if route == "node inverse":  # the symbol itself is served
        cx = RepresentationContext(default_config(lam=1.0, M=32, G=256))
        covariant_symbol(cx, OperatorMatrix(scale * np.eye(32)))
    with pytest.raises(ValueError, match="non-finite"):
        call(scale)


@pytest.mark.parametrize("route", ["symbol", "vacuum map", "window map"])
def test_node_stage_overflow_is_refused_as_non_finite(route):
    # finite inputs whose node values overflow: numpy's RuntimeWarning
    # ("overflow encountered in reduce", "in add", "in dot") was raised
    # under -W error before the refusal
    cx = RepresentationContext(default_config())
    big = 0.9 * _FLOAT_MAX * np.ones(16)
    with pytest.raises(ValueError, match="non-finite values"):
        if route == "symbol":
            covariant_symbol(cx, OperatorMatrix(
                _FLOAT_MAX / 12.5 * 1.1 * np.ones((16, 16))))
        else:
            coefficient_map(cx, HermiteState(big),
                            gaussian_vector(cx.cfg) if route == "vacuum map"
                            else HermiteState(np.ones(16)))


@pytest.mark.parametrize("route", ["coefficient map", "covariant symbol",
                                   "node inverse"])
def test_node_routes_serve_inputs_scaled_by_1e280(route):
    call = _scaled_route(route)
    unit, big = call(1.0), call(1e280)
    top = np.abs(unit.values).max()  # measured at most 3.4e-16 of it
    assert np.abs(big.values / 1e280 - unit.values).max() <= 1e-14 * top


def test_node_route_samples_are_not_scanned(ctx, monkeypatch):
    # the bound on the node tensor shows their values finite; samples made
    # from values are scanned
    sizes = []
    scan = core._require_finite
    monkeypatch.setattr(core, "_require_finite",
                        lambda v: sizes.append(v.size) or scan(v))
    amb = coefficient_map(ctx, basis_state(8, 1), gaussian_vector(ctx.cfg))
    inverse_fourier_orbit(amb)
    covariant_symbol(ctx, identity_operator(8))
    points = ctx.grid.num_points
    assert points not in sizes
    plain = GridFunction(grid=ctx.grid, values=amb.values)
    fourier_orbit(inverse_fourier_orbit(plain))  # the FFT route both ways
    assert sizes == [points] * 3


def test_wigner_defers_its_expansion_to_the_first_read():
    # n = 2, M = 5, G = 64: the map, its inverse and wigner are served in
    # node form, and both tables refuse their values' expansion, 19143073
    # entries, on the first read, leaving the samples in node form; G = 56
    # (11421601), which wigner refused before the map ran, is served
    vac = gaussian_vector(default_config(n=2, M=5))
    cx = RepresentationContext(default_config(n=2, M=5, G=64))
    amb = coefficient_map(cx, basis_state(25, 1), vac)
    count = ("node expansion on 16777216 grid points needs 19143073 complex "
             "entries, over the size guard of 16777216")
    for sample in (amb, inverse_fourier_orbit(amb),
                   wigner(cx, basis_state(25, 1), vac)):
        with pytest.raises(MemoryError, match=count):
            sample.values
        assert "values" not in vars(sample)
        assert abs(sample.norm() - 1.0) < 1e-13
    assert core._expansion_need(9, 56, 2) == 11421601 <= core._TABLE_LIMIT


def test_node_inverse_guard_bounds_its_peak(guard_ctx, need_and_peak,
                                            monkeypatch):
    # the inverse counts FB with its temporaries and the modulus of S its
    # bound reads, and reads no values; refused one entry under its count,
    # traced at it; the input sample is made outside the traced call (64
    # KiB left for small objects)
    cfg = guard_ctx.cfg
    G, N = cfg.G, 2 * cfg.M - 1
    f = _random_state(np.random.default_rng(15), cfg.dim)
    amb = coefficient_map(guard_ctx, f, gaussian_vector(cfg))
    need = 3 * G * N + N ** (2 * cfg.n)
    monkeypatch.setattr(core, "_TABLE_LIMIT", need - 1)
    with pytest.raises(MemoryError, match="inverse orbit transform"):
        inverse_fourier_orbit(amb)
    monkeypatch.setattr(core, "_TABLE_LIMIT", need)  # the traced call's
    counted, peak = need_and_peak(lambda: inverse_fourier_orbit(amb))
    assert counted == need
    assert peak <= 16 * need + 65536
    assert "values" not in vars(amb)


@pytest.mark.parametrize("route", ["map", "Wigner", "symbol"])
def test_first_read_is_bounded_by_the_expansion_count(guard_ctx, need_and_peak,
                                                       monkeypatch, route):
    # a node-route sample's values are counted where they are expanded, on
    # their first read: refused one entry under the count, served at it,
    # the count bounds the peak of that read (64 KiB left for small
    # objects) and, wherever G >= 2M - 1, exceeds it by at most 10 %
    # (measured 0.96-1.00 on CPython 3.11); where 2M - 1 > G, as at
    # (2, 10, 4), (1, 24, 8) and (3, 4, 4), inner_l2 reads these values
    cfg = guard_ctx.cfg
    n, G, N = cfg.n, cfg.G, 2 * cfg.M - 1
    rng = np.random.default_rng(16)
    f = _random_state(rng, cfg.dim)
    if route == "symbol":
        sample = covariant_symbol(guard_ctx, OperatorMatrix(np.outer(
            f.coeffs, f.coeffs.conj())))
    else:
        sample = coefficient_map(guard_ctx, f, _random_state(rng, cfg.dim))
        if route == "Wigner":
            sample = inverse_fourier_orbit(sample)
    need = core._expansion_need(N, G, n)
    monkeypatch.setattr(core, "_TABLE_LIMIT", need - 1)
    with pytest.raises(MemoryError, match="node expansion"):
        sample.values
    monkeypatch.setattr(core, "_TABLE_LIMIT", need)  # the traced read's
    counted, peak = need_and_peak(lambda: sample.values)
    assert counted == need
    assert peak <= 16 * need + 65536
    if G >= N:
        assert 16 * need <= 1.10 * peak


def test_moyal_residual_guard_bounds_its_peak(guard_ctx, need_and_peak):
    # the count holds one node tensor beside the second map's node stage or
    # the Wigner pairing (64 KiB left for small objects); where 2M - 1 > G
    # inner_l2 reads the values instead, each counted on its read, and the
    # peak stays within the count too
    cfg = guard_ctx.cfg
    rng = np.random.default_rng(17)
    f1, p1, f2, p2 = (_random_state(rng, cfg.dim) for _ in range(4))
    need, peak = need_and_peak(lambda: moyal_residual(guard_ctx, f1, p1,
                                                      f2, p2))
    assert peak <= 16 * need + 65536


def test_moyal_residual_refuses_its_count_over_the_guard(monkeypatch):
    # n = 2, M = 5, G = 64: one node tensor beside the second map's node
    # stage, with the cached tables, 30789 entries; refused one under it
    # and served at it, where neither table's values could be read
    cx = RepresentationContext(default_config(n=2, M=5, G=64))
    vac = gaussian_vector(cx.cfg)
    args = cx, basis_state(25, 1), vac, basis_state(25, 2), vac
    monkeypatch.setattr(core, "_TABLE_LIMIT", 30788)
    with pytest.raises(MemoryError, match="Moyal residual on 16777216 grid "
                       "points needs 30789 complex entries"):
        moyal_residual(*args)
    monkeypatch.setattr(core, "_TABLE_LIMIT", 30789)
    assert max(moyal_residual(*args)) < 1e-12


@pytest.mark.parametrize("M, G", [(3, 24), (4, 32)])
def test_n3_trace_and_moyal_residuals_are_served(M, G):
    # n = 3: no route expands a table of G^6 values, so both residuals
    # run in node form, within the battery's bounds (measured 1.7e-9 and
    # 1.2e-7 at (3, 24), 7.6e-13 and 1.5e-10 at (4, 32), in 4-20 ms); the
    # symbol's values are refused on their first read
    cx = RepresentationContext(default_config(n=3, M=M, G=G))
    rng = np.random.default_rng(90)
    E = rng.standard_normal((2, cx.cfg.dim, cx.cfg.dim))
    A = OperatorMatrix((E[0] + 1j * E[1]) / np.linalg.norm(E))
    assert trace_identity_residual(cx, A) < 1e-6
    f1, p1, f2, p2 = (_random_state(rng, cx.cfg.dim) for _ in range(4))
    assert max(moyal_residual(cx, f1, p1, f2, p2)) < 1e-6
    points = G ** 6
    need = core._expansion_need(2 * M - 1, G, 3)
    with pytest.raises(MemoryError, match="node expansion on %d grid points "
                       "needs %d complex entries" % (points, need)):
        covariant_symbol(cx, A).values


def test_refused_read_leaves_the_sample_in_node_form(monkeypatch):
    # n = 3, (3, 24): 191102976 grid points, refused; the sample still
    # pairs in node form.  n = 2, (3, 24), under a lowered guard: a later
    # read under the raised guard returns the bits of _expand_nodes
    cx = RepresentationContext(default_config(n=3, M=3, G=24))
    S = covariant_symbol(cx, identity_operator(27))
    with pytest.raises(MemoryError, match="191102976 grid points needs "
                       "230931721 complex entries"):
        S.values
    assert "values" not in vars(S) and S.norm() > 0
    cx = RepresentationContext(default_config(n=2, M=3, G=24))
    A = coefficient_map(cx, basis_state(9, 1), gaussian_vector(cx.cfg))
    norm = A.norm()
    monkeypatch.setattr(core, "_TABLE_LIMIT", 401520)
    with pytest.raises(MemoryError, match="needs 401521 complex entries"):
        A.reshape()
    assert "values" not in vars(A) and A.norm() == norm
    monkeypatch.setattr(core, "_TABLE_LIMIT", 401521)
    assert np.array_equal(A.values, _expand_nodes(*A._nodes, 2).reshape(-1))


# (n, lam, M, G) of the node-form pairing tests
_PAIRING_CASES = [(1, 0.5, 8, 128), (1, 4.0, 16, 128), (1, 4.0, 32, 256),
                  (2, 1.0, 3, 24), (2, 1.0, 5, 40)]


def _node_route_samples(cx, seed):
    rng = np.random.default_rng(seed)
    f1, p1, f2, p2 = (_random_state(rng, cx.cfg.dim) for _ in range(4))
    A1, A2 = coefficient_map(cx, f1, p1), coefficient_map(cx, f2, p2)
    ops = rng.standard_normal((2, 2, cx.cfg.dim, cx.cfg.dim))
    S1, S2 = (covariant_symbol(cx, OperatorMatrix((E[0] + 1j * E[1])
                                                  / np.linalg.norm(E)))
              for E in ops)
    return A1, A2, S1, S2


@pytest.mark.parametrize("n, lam, M, G", _PAIRING_CASES)
def test_node_form_pairing_matches_the_grid_sum(n, lam, M, G):
    # every pair of node-route samples pairs without reading its values,
    # within 256 eps ||u|| ||v|| of the grid sum (measured <= 5 eps)
    cx = RepresentationContext(default_config(n=n, lam=lam, M=M, G=G))
    A1, A2, S1, S2 = _node_route_samples(cx, 70 + M)
    W1, W2 = inverse_fourier_orbit(A1), inverse_fourier_orbit(A2)
    pairs = {"map x map": (A1, A2), "symbol x map": (S1, A2),
             "symbol x symbol": (S1, S2), "Wigner x Wigner": (W1, W2)}
    got = {name: inner_l2(u, v) for name, (u, v) in pairs.items()}
    assert not any("values" in vars(s) for s in (A1, A2, S1, S2, W1, W2))
    eps = np.finfo(float).eps
    for name, (u, v) in pairs.items():
        ref = u.weight * np.vdot(v.values, u.values)
        scale = np.sqrt(u.weight * np.vdot(u.values, u.values).real
                        * v.weight * np.vdot(v.values, v.values).real)
        assert abs(got[name] - ref) <= 256 * eps * scale, name
    # a sample without a node tensor takes the grid sum
    plain = GridFunction(grid=A2.grid, values=A2.values)
    assert inner_l2(A1, plain) == A1.weight * np.vdot(plain.values, A1.values)


@pytest.mark.parametrize("n, lam, M, G", _PAIRING_CASES[2:])
def test_node_form_norms_match_a_long_double_grid_sum(n, lam, M, G):
    # against the grid sum over values expanded and summed in long double,
    # the node-form norm is within 1.3 eps (measured), where the norm from
    # the double grid sum is up to 192 eps off at n = 2, (5, 40)
    cx = RepresentationContext(default_config(n=n, lam=lam, M=M, G=G))
    A1, _, S1, _ = _node_route_samples(cx, 70 + M)
    for sample in (A1, inverse_fourier_orbit(A1), S1):
        S, F = sample._nodes
        X = S.astype(np.clongdouble)
        for axis in range(2 * n):  # node axes (a_1 b_1 ..), any one order
            X = np.moveaxis(np.tensordot(F.astype(np.clongdouble), X,
                                         axes=([1], [axis])), 0, axis)
        ref = np.sqrt(sample.weight * np.sum(X.real ** 2 + X.imag ** 2))
        assert abs(sample.norm() - ref) <= 8 * np.finfo(float).eps * ref


def test_pairing_with_a_factor_wider_than_the_grid_reads_the_values():
    # G = 8 < 2M - 1 = 47: the (N, N) Gram matrix would exceed the grid
    cx = RepresentationContext(ModelConfig(
        n=1, lam=1.0, M=24, L=default_L(1.0, 24), G=8, tol_identity=1e-6,
        tol_quadrature=0.9))
    A1, A2, S1, _ = _node_route_samples(cx, 75)
    for u, v in ((A1, A2), (S1, A2)):
        got = inner_l2(u, v)
        assert "values" in vars(u) and "values" in vars(v)
        assert got == u.weight * np.vdot(v.values, u.values)


@pytest.mark.parametrize("n, M, G", [(1, 16, 128), (2, 5, 40)])
def test_node_route_values_expand_once_on_first_read(n, M, G):
    cx = RepresentationContext(default_config(n=n, lam=1.0, M=M, G=G))
    A1, _, S1, _ = _node_route_samples(cx, 80 + M)
    for sample in (A1, inverse_fourier_orbit(A1), S1):
        assert "values" not in vars(sample)
        S, F = sample._nodes
        values = sample.values
        assert np.array_equal(values, _expand_nodes(S, F, n).reshape(-1))
        assert not values.flags.writeable
        assert sample.values is values
        assert np.shares_memory(sample.reshape(), values)


def test_grid_function_compares_by_identity_without_reading_values(ctx):
    vac = gaussian_vector(ctx.cfg)
    amb = coefficient_map(ctx, basis_state(8, 1), vac)
    other = coefficient_map(ctx, basis_state(8, 1), vac)
    plain = GridFunction(grid=ctx.grid, values=np.ones(ctx.grid.num_points))
    copy = GridFunction(grid=ctx.grid, values=plain.values)
    assert amb == amb and amb != other and plain != copy
    assert len({amb, other, plain, copy}) == 4  # hashed by identity
    assert repr(amb) == "GridFunction(grid=%r)" % ctx.grid
    assert "values" not in vars(amb) and "values" not in vars(other)


def test_n2_transforms_and_their_norms_hold_no_grid_table():
    # one (5, 40) table at n = 2 is 40^4 complex values, 41 MB; the map,
    # its Wigner transform and both norms stay in node form
    x2 = RepresentationContext(default_config(n=2, lam=1.0, M=5, G=40))
    rng = np.random.default_rng(85)
    f = _random_state(rng, x2.cfg.dim)
    table = 16 * x2.grid.num_points
    tracemalloc.start()
    try:
        amb = coefficient_map(x2, f, gaussian_vector(x2.cfg))
        wig = inverse_fourier_orbit(amb)
        norms = amb.norm(), wig.norm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table
    assert max(abs(v ** 2 - 1.0) for v in norms) < 1e-13
