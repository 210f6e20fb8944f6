"""Coefficient map, orbit Fourier transform, and cross-Wigner distribution.

The orbit carries Lebesgue measure in (alpha, beta) coordinates scaled by
orbit_density = (2 pi lam)^{-n}; phase space carries (lam/2 pi)^n * Lebesgue.
Orbit samples live on the reciprocal lattice xi_j = (j - G/2) * eta with
eta = 2 pi / (G h).  On that lattice the kernel e^{-i xi_j x_k} of one axis is
(-1)^{G/2} (-1)^j (-1)^k e^{-2 pi i jk/G} (G is even, PhaseGrid enforces it);
over the 2n axes the factors (-1)^{G/2} cancel, so the transform is one n-D
FFT between two checkerboards (-1)^{j_1+..+j_2n} (_orbit_dft).  The weighted
transform is exactly unitary with an exact two-sided inverse, for every
(lam, L, G).  Sampling the orbit on the phase grid itself would break
unitarity (alias ghosts) because h^2 G / 2 pi is not an integer in general.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
import scipy.fft

from .core import GridFunction, HermiteState, PhaseGrid
from .schroedinger import (_TABLE_LIMIT, RepresentationContext,
                           _laguerre_factors, displacement_1d)


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


@lru_cache(maxsize=8)
def _checkerboard(ndim: int) -> np.ndarray:
    """Read-only (-1)^(j_1+..+j_ndim) as a (1, 2) * ndim tensor of signs."""
    signs = reduce(np.multiply.outer, [np.array([1.0, -1.0])] * ndim)
    signs = signs.reshape((1, 2) * ndim)
    signs.flags.writeable = False
    return signs


def _orbit_dft(vals: np.ndarray, sign: int, weight: float) -> np.ndarray:
    """weight * sum_j e^{-sign * i <xi_j, x_k>} vals[j] over a (G,)*2n array.

    Per axis the kernel is (-1)^{G/2} (-1)^j (-1)^k e^{-sign 2 pi i jk/G}
    (module docstring); the 2n factors (-1)^{G/2} cancel, so the sum is one
    n-D FFT (sign=+1) or unnormalized inverse FFT (sign=-1) between two
    checkerboards.  The checkerboard multiply makes the only new array; the
    FFT and the final scaling run in place on it.
    """
    G, ndim = vals.shape[0], vals.ndim
    signs = _checkerboard(ndim)
    pairs = vals.reshape((G // 2, 2) * ndim)  # j = 2p + q: sign (-1)^q
    work = (pairs * signs).reshape(vals.shape)
    if sign > 0:
        work = scipy.fft.fftn(work, overwrite_x=True)
    else:
        work = scipy.fft.ifftn(work, norm="forward", overwrite_x=True)
    out = work.reshape(pairs.shape)  # a view: the FFT output is contiguous
    out *= weight * signs
    return work


def fourier_orbit(a: OrbitGridFunction) -> GridFunction:
    """a_hat(x) = orbit_density * sum_xi e^{-i<xi,x>} a(xi) * eta^{2n}.

    Unitary from L2(orbit) onto L2(phase space, mu): the weight identity
    orbit_density * density * (eta h G)^{2n} = 1 holds exactly because
    eta h G = 2 pi.
    """
    vals = _orbit_dft(a.reshape(), +1, a.orbit_density * a.cell_weight)
    return GridFunction(grid=a.grid, values=vals.ravel())


def inverse_fourier_orbit(F: GridFunction) -> OrbitGridFunction:
    """Two-sided inverse of fourier_orbit (exact at the discrete level)."""
    vals = _orbit_dft(F.reshape(), -1, F.grid.density * F.grid.cell_weight)
    return OrbitGridFunction(grid=F.grid, values=vals.ravel())


def coefficient_map(ctx: RepresentationContext, f: HermiteState,
                    phi: HermiteState) -> GridFunction:
    """values_k = (f | pi([a_k, b_k, 0]) phi) over the whole phase grid.

    n = 1 streams coherent-table columns, any n > 1 contracts per-axis tables
    of displacement_1d.  Linear in f and conjugate-linear in phi.
    """
    cfg = ctx.cfg
    if f.dim != cfg.dim or phi.dim != cfg.dim:
        raise ValueError("state dimension mismatch")
    route = _coefficient_map_1d if cfg.n == 1 else _coefficient_map_nd
    return GridFunction(grid=ctx.grid, values=route(ctx, f.coeffs, phi.coeffs))


def _coefficient_map_1d(ctx: RepresentationContext, f: np.ndarray,
                        phi: np.ndarray) -> np.ndarray:
    """(f | pi(x_k) phi) at n = 1, exact in the truncation, column by column.

    With C_d the coherent table column d and O[m, j] = f_m conj(phi_j), the
    Laguerre form of pi(x_k) (schroedinger module docstring) gives
      values = sum_d C_d sum_j O[j+d, j] ell^d_j
             + conj(sum_{d>0} C_d sum_j (-1)^d conj(O[j, j+d]) ell^d_j).
    ell depends on rho = |w_k|^2 alone, which takes ~G^2/10 distinct values on
    the grid, so the recurrence runs on those; j stops at the last nonzero
    window coefficient, so the vacuum window is one pass over the columns.
    The working set is a few (G, G) arrays: the table is never held.
    """
    M, G = ctx.cfg.M, ctx.cfg.G
    nz = np.flatnonzero(phi)
    J = int(nz[-1]) if nz.size else 0
    O = np.outer(f, np.conj(phi))
    idx = np.arange(G) - G // 2  # grid.axis / h
    q, inv = np.unique((idx[:, None] ** 2 + idx[None, :] ** 2).ravel(),
                       return_inverse=True)
    rho = (ctx.cfg.lam / 2.0) * ctx.grid.h ** 2 * q
    out = np.zeros(G * G, dtype=complex)
    for d, col in enumerate(ctx.coherent_columns()):
        lo, up = np.diagonal(O, -d), (-1.0) ** d * np.conj(np.diagonal(O, d))
        s_lo, s_up = lo[0], up[0]
        steps = min(J, M - 1 - d)
        if steps:
            ells = _laguerre_factors(rho, M, d, steps)
            next(ells)  # ell^d_0 = 1
            for j, ell in enumerate(ells, start=1):
                s_lo = s_lo + lo[j] * ell
                s_up = s_up + up[j] * ell
            s_lo, s_up = s_lo[inv], s_up[inv]
        out += col * s_lo
        if J and d:
            out += np.conj(col * s_up)
    return out


def _coefficient_map_nd(ctx: RepresentationContext, f: np.ndarray,
                        phi: np.ndarray) -> np.ndarray:
    """(f | pi(x) phi) = sum_{m,j} f_m conj(phi_j) prod_k T[a_k, b_k, m_k, j_k], any n,
    T = conj(displacement_1d) on the 1-axis grid, contracted one axis at a time."""
    cfg = ctx.cfg
    n, M, G = cfg.n, cfg.M, cfg.G
    need = 2 * G ** (2 * n) + G * G * M * M  # output, its transposed copy, T
    if need > _TABLE_LIMIT:
        raise MemoryError("n > 1 coefficient map needs %d complex entries, over the "
                          "size guard of %d; reduce G or M" % (need, _TABLE_LIMIT))
    ax = ctx.grid.axis
    T = np.conj(displacement_1d(cfg.lam, ax[:, None], ax[None, :], M))
    X = np.multiply.outer(f.reshape((M,) * n), np.conj(phi).reshape((M,) * n))
    for k in range(n):  # contract (m_k, j_k), the first m and j left; append
        X = np.tensordot(X, T, axes=([0, n - k], [2, 3]))  # (a_k, b_k)
    X = X.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)))
    return X.reshape(-1)


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
