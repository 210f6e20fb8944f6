"""Coefficient map, orbit Fourier transform, and cross-Wigner distribution.

The orbit carries Lebesgue measure in (alpha, beta) coordinates scaled by
orbit_density = (2 pi lam)^{-n}; phase space carries (lam/2 pi)^n * Lebesgue.
Orbit samples live on the reciprocal lattice xi_j = (j - G/2) * eta with
eta = 2 pi / (G h): on that lattice the discrete kernel e^{-i<xi, x>} factors
into checkerboard-signed DFTs per axis and the weighted transform is exactly
unitary with an exact two-sided inverse, for every (lam, L, G).  Sampling the
orbit on the phase grid itself would break unitarity (alias ghosts) because
h^2 G / 2 pi is not an integer in general.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GridFunction, HermiteState, PhaseGrid
from .schroedinger import RepresentationContext


@dataclass
class OrbitGridFunction:
    """Samples of a function on the flat orbit, on the reciprocal lattice.

    grid is the underlying phase grid (chart bookkeeping: same G, same n);
    the orbit's own axis is xi_axis with step eta = 2 pi / (G h).  values are
    row-major over (alpha_1..alpha_n, beta_1..beta_n), like GridFunction.
    """

    grid: PhaseGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex).ravel()
        if v.size != self.grid.num_points:
            raise ValueError("value count does not match grid size")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def eta(self) -> float:
        return 2.0 * np.pi / (self.grid.G * self.grid.h)

    @property
    def xi_axis(self) -> np.ndarray:
        return (np.arange(self.grid.G) - self.grid.G // 2) * self.eta

    @property
    def orbit_density(self) -> float:
        return (2.0 * np.pi * self.grid.lam) ** (-self.grid.n)

    @property
    def cell_weight(self) -> float:
        return self.eta ** (2 * self.grid.n)

    def reshape(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)

    def norm(self) -> float:
        return float(np.sqrt(self.orbit_density * self.cell_weight
                             * np.sum(np.abs(self.values) ** 2)))


def orbit_inner(u: OrbitGridFunction, v: OrbitGridFunction) -> complex:
    """L2 pairing on the orbit with its Liouville normalization, linear in u."""
    if u.grid != v.grid:
        raise ValueError("grid mismatch")
    return complex(u.orbit_density * u.cell_weight * np.vdot(v.values, u.values))


def _axis_dft(arr: np.ndarray, axis: int, sign: int) -> np.ndarray:
    """sum_j e^{-sign * i * xi_j * x_k} along one axis of reciprocal grids.

    With xi_j = (j - G/2) eta, x_k = (k - G/2) h and eta h = 2 pi / G the
    kernel is (-1)^{G/2} (-1)^j (-1)^k e^{-sign 2 pi i jk/G}, so the sum is a
    checkerboard-conjugated FFT (sign=+1) or inverse FFT times G (sign=-1).
    """
    G = arr.shape[axis]
    sgn = np.where(np.arange(G) % 2 == 0, 1.0, -1.0)
    gph = 1.0 if (G // 2) % 2 == 0 else -1.0
    moved = np.moveaxis(arr, axis, -1)
    if sign > 0:
        out = gph * sgn * np.fft.fft(moved * sgn, axis=-1)
    else:
        out = gph * sgn * (np.fft.ifft(moved * sgn, axis=-1) * G)
    return np.moveaxis(out, -1, axis)


def fourier_orbit(a: OrbitGridFunction) -> GridFunction:
    """a_hat(x) = orbit_density * sum_xi e^{-i<xi,x>} a(xi) * eta^{2n}.

    Unitary from L2(orbit) onto L2(phase space, mu): the weight identity
    orbit_density * density * (eta h G)^{2n} = 1 holds exactly because
    eta h G = 2 pi.
    """
    vals = a.reshape()
    for axis in range(vals.ndim):
        vals = _axis_dft(vals, axis, +1)
    vals = a.orbit_density * a.cell_weight * vals
    return GridFunction(grid=a.grid, values=vals.ravel())


def inverse_fourier_orbit(F: GridFunction) -> OrbitGridFunction:
    """Two-sided inverse of fourier_orbit (exact at the discrete level)."""
    vals = F.reshape()
    for axis in range(vals.ndim):
        vals = _axis_dft(vals, axis, -1)
    vals = F.grid.density * F.grid.cell_weight * vals
    return OrbitGridFunction(grid=F.grid, values=vals.ravel())


def coefficient_map(ctx: RepresentationContext, f: HermiteState,
                    phi: HermiteState) -> GridFunction:
    """values_k = (f | pi([a_k, b_k, 0]) phi) over the whole phase grid.

    n = 1 runs on the coherent table (_coefficient_map_1d); n > 1 contracts
    per-axis matrix-element tables (feasible for the small truncations where
    n > 1 is usable at all).  Linear in f and conjugate-linear in phi.
    """
    cfg = ctx.cfg
    if f.dim != cfg.dim or phi.dim != cfg.dim:
        raise ValueError("state dimension mismatch")
    if cfg.n == 1:
        vals = _coefficient_map_1d(ctx, f.coeffs, phi.coeffs)
        return GridFunction(grid=ctx.grid, values=vals)
    return _coefficient_map_nd(ctx, f, phi)


def _coefficient_map_1d(ctx: RepresentationContext, f: np.ndarray,
                        phi: np.ndarray) -> np.ndarray:
    """(f | pi(x_k) phi) at n = 1, exact in the truncation, column by column.

    With D the matrix of pi(x_k) (coefficient of e_m in pi(x_k) e_j at [m, j]),
    C_d the coherent table column d and rho = |w_k|^2, the Laguerre form of
    the displacement operator gives
      conj(D[j+d, j]) = C_d ell^d_j,   ell^d_j = sqrt(j! d! / (j+d)!) L_j^(d)(rho),
      conj(D[j, j+d]) = (-1)^d conj(C_d) ell^d_j,
    with real ell^d_j obeying the three-term recurrence (ell^d_0 = 1)
      sqrt((j+1)(j+d+1)) ell^d_{j+1} = (2j+d+1-rho) ell^d_j - sqrt(j(j+d)) ell^d_{j-1}.
    Hence
      values = sum_d C_d sum_j f_{j+d} conj(phi_j) ell^d_j
             + conj(sum_{d>0} C_d sum_j (-1)^d conj(f_j) phi_{j+d} ell^d_j).
    Each C_d ell^d_j is a matrix element, so every term is bounded by 1; expanding
    (a - conj(w))^j f instead cancels terms up to ~1e8 at M = 32.  ell depends
    on rho alone, which takes ~G^2/10 distinct values on the grid, so the
    recurrence runs on those; j stops at the last nonzero window coefficient,
    so the vacuum window is one pass over the columns.  The working set is a
    few (G, G) arrays: the table is never held.
    """
    M, G = ctx.cfg.M, ctx.cfg.G
    nz = np.flatnonzero(phi)
    J = int(nz[-1]) if nz.size else 0
    di, ji = np.indices((M, M))
    inside = di + ji < M
    k = np.minimum(di + ji, M - 1)
    lower = np.where(inside, f[k] * np.conj(phi[ji]), 0.0)  # [d, j]
    upper = np.where(inside & (di > 0),
                     (-1.0) ** di * np.conj(f[ji]) * phi[k], 0.0)
    idx = np.arange(G) - G // 2  # grid.axis / h
    q, inv = np.unique((idx[:, None] ** 2 + idx[None, :] ** 2).ravel(),
                       return_inverse=True)
    rho = (ctx.cfg.lam / 2.0) * ctx.grid.h ** 2 * q
    out = np.zeros(G * G, dtype=complex)
    for d, col in enumerate(ctx.coherent_columns()):
        s_lo, s_up = lower[d, 0], upper[d, 0]
        steps = min(J, M - 1 - d)
        if steps:
            s_lo, s_up = np.full(q.size, s_lo), np.full(q.size, s_up)
            prev, cur = 0.0, np.ones(q.size)
            for j in range(steps):
                den = np.sqrt((j + 1.0) * (j + d + 1.0))
                prev, cur = cur, (cur * ((2 * j + d + 1.0 - rho) / den)
                                  - (np.sqrt(j * (j + d)) / den) * prev)
                # cur = ell^d_{j+1}
                s_lo += lower[d, j + 1] * cur
                s_up += upper[d, j + 1] * cur
            s_lo, s_up = s_lo[inv], s_up[inv]
        out += col * s_lo
        if J:
            out += np.conj(col * s_up)
    return out


def _coefficient_map_nd(ctx: RepresentationContext, f: HermiteState,
                        phi: HermiteState) -> GridFunction:
    """(f | pi(x) phi) = sum_{m,j} f_m conj(phi_j) prod_ax conj(R_ax[m_ax, j_ax])."""
    cfg = ctx.cfg
    n, M, G = cfg.n, cfg.M, cfg.G
    if G * G * M * M > 2 ** 22:
        raise MemoryError("per-axis table too large for the n > 1 path")
    ax = ctx.grid.axis
    T = np.empty((G, G, M, M), dtype=complex)
    for ia, a in enumerate(ax):
        for ib, b in enumerate(ax):
            T[ia, ib] = np.conj(ctx._rep_matrix_1d(a, b))
    F = f.coeffs.reshape((M,) * n)
    P = np.conj(phi.coeffs.reshape((M,) * n))
    if n == 2:
        out = np.einsum("ABmj,CDnl,mn,jl->ACBD", T, T, F, P, optimize=True)
    elif n == 3:
        out = np.einsum("ABmj,CDnl,EFpq,mnp,jlq->ACEBDF", T, T, T, F, P,
                        optimize=True)
    else:
        raise NotImplementedError("coefficient_map supports n <= 3")
    return GridFunction(grid=ctx.grid, values=out.ravel())


def wigner(ctx: RepresentationContext, f: HermiteState,
           phi: HermiteState) -> OrbitGridFunction:
    """Cross-Wigner distribution: the orbit function whose transform is (f|pi(.)phi)."""
    return inverse_fourier_orbit(coefficient_map(ctx, f, phi))


def moyal_residual(ctx: RepresentationContext,
                   f1: HermiteState, phi1: HermiteState,
                   f2: HermiteState, phi2: HermiteState) -> tuple[float, float]:
    """Deviation of both transform pairings from (f1|f2) * conj((phi1|phi2)).

    Returns (ambiguity-side residual, Wigner-side residual).
    """
    from .core import inner_l2

    target = f1.inner(f2) * np.conj(phi1.inner(phi2))
    A1 = coefficient_map(ctx, f1, phi1)
    A2 = coefficient_map(ctx, f2, phi2)
    amb = abs(inner_l2(A1, A2) - target)
    W1 = inverse_fourier_orbit(A1)
    W2 = inverse_fourier_orbit(A2)
    wig = abs(orbit_inner(W1, W2) - target)
    return float(amb), float(wig)
