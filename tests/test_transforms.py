"""Coefficient map, orbit Fourier transform, Wigner function, Moyal identity."""
from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from berezin import (GridFunction, HermiteState, ModelConfig, PhaseGrid,
                     RepresentationContext, basis_state, coefficient_map,
                     default_L, default_config, fourier_orbit,
                     gaussian_vector, inner_l2, inverse_fourier_orbit,
                     moyal_residual, orbit_inner, wigner)
from berezin.oracle import oracle_double_sum_ft
from berezin.schroedinger import ambiguity_batch
from berezin.transforms import OrbitGridFunction


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
    # measured 1.06x: one checkerboard-signed copy, FFT and scaling in place
    # on it; the per-axis loop peaked at 3.0x
    assert peak <= 1.5 * W.values.nbytes


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
    # (f | pi(x) phi) for entangled f and phi against chirp-z quadrature
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
    assert np.abs(got - ref).max() < 1e-10 * f.norm() * phi.norm()


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
    # measured 1.23x: the last expansion step's input, tensordot's copy of
    # it and the output; the node values are put in grid order before the
    # expansion, so no transposed output copy (2.00x) is made
    assert peak <= 1.3 * A.values.nbytes
