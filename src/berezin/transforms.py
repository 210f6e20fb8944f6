"""Coefficient map, orbit Fourier transform, and cross-Wigner distribution.

The coefficient map (f | pi(x) phi) is, per axis pair, e^{-lam(a^2+b^2)/4}
times a polynomial of degree <= 2M-2 in each of a and b (C_d ell^d_j of the
schroedinger module docstring), so, for any n, its samples at the Gauss-Hermite
node pairs fix it and the interpolation matrix at scale lam/2 carries them to
the grid; no grid-sized table is built.  The error is absolute, about
eps * ||f|| ||phi||: tail values below that are rounding noise.

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
from scipy.special import roots_hermite

from .core import GridFunction, HermiteState, PhaseGrid
from .schroedinger import (RepresentationContext, _expand_nodes,
                           _guard_node_route, _interpolation_matrix,
                           _laguerre_factors, _node_table)


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
    """values_k = (f | pi([a_k, b_k, 0]) phi) over the whole phase grid, any n.

    Linear in f and conjugate-linear in phi.  The size guard counts the
    expansion and the last node step of _map_nodes: its input, the node
    values, one term of them, the Laguerre factors and their temporaries.
    """
    cfg, grid = ctx.cfg, ctx.grid
    if f.dim != cfg.dim or phi.dim != cfg.dim:
        raise ValueError("state dimension mismatch")
    n, M = cfg.n, cfg.M
    N = 2 * M - 1
    _guard_node_route("coefficient map", cfg, (M * M + M + 2 * N * N)
                      * N ** (2 * n - 2) + (M + 4) * N * N)
    B = _interpolation_matrix(grid.lam / 2.0, grid.L, cfg.G, M)
    # left unnamed, the node values are freed after the first expansion step
    return GridFunction(grid=grid, values=_expand_nodes(
        _map_nodes(f.coeffs, phi.coeffs, M, n), B, n).reshape(-1))


def _map_nodes(f: np.ndarray, phi: np.ndarray, M: int, n: int) -> np.ndarray:
    """(f | pi(x) phi) at the node points w = x_p + i x_q, axes (a_1 b_1 ..):
    the Laguerre form on each diagonal d of f (x) conj(phi), one axis pair at a
    time, its recurrence stopped at the window's last nonzero mode J."""
    N = 2 * M - 1
    x, _ = roots_hermite(N)
    rho = (x[:, None] ** 2 + x[None, :] ** 2).ravel()  # |w|^2 at node pairs
    c, cbar_t = _node_table(M, 1.0)
    window = phi.reshape((M,) * n)
    J = int(np.argwhere(window).max(initial=0))  # last nonzero window mode
    ell = np.empty((min(J, M - 1) + 1, N * N), dtype=complex)
    X = np.multiply.outer(f.reshape((M,) * n), np.conj(window))
    for k in range(n):  # axes (m_k.., j_k.., node pairs 1..k-1)
        rest = X.shape[1:n - k] + X.shape[n - k + 1:]
        nodes = np.zeros(rest + (N * N,), dtype=complex)
        term = np.empty_like(nodes)
        for d in range(M):
            rows = min(J, M - 1 - d) + 1
            for j, e in enumerate(_laguerre_factors(rho, M, d, rows - 1)):
                ell[j] = e
            diags = [(-d, c[:, d])]  # O[j+d, j] C_d
            if 0 < d <= J:  # O[j, j+d] (-1)^d conj(C_d), zero past the window
                diags.append((d, (-1.0) ** d * cbar_t[d]))
            for offset, scale in diags:
                diag = np.diagonal(X, offset, 0, n - k)[..., :rows]
                np.dot(diag.reshape(-1, rows), ell[:rows],
                       out=term.reshape(-1, N * N))
                term *= scale
                nodes += term
        X = nodes  # node pair k appended last
    return X.reshape((N,) * (2 * n))


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
