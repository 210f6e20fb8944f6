"""Coefficient map, orbit Fourier transform, and cross-Wigner distribution.

The coefficient map (f | pi(x) phi) is, per axis pair, e^{-lam(a^2+b^2)/4}
times a polynomial of degree <= 2M-2 in each of a and b (C_d ell^d_j of the
schroedinger module docstring), so, for any n, its samples at the Gauss-Hermite
node pairs (schroedinger._hermite_nodes, numpy's hermgauss positions) fix it
and the interpolation matrix at scale lam/2 carries them to the grid; no
grid-sized table is built.  The error is absolute, about
eps * ||f|| ||phi||: tail values below that are rounding noise.

The orbit carries Lebesgue measure in (alpha, beta) coordinates scaled by
orbit_density = (2 pi lam)^{-n}; phase space carries (lam/2 pi)^n * Lebesgue.
Orbit samples (OrbitGridFunction, a GridFunction with the orbit's axis and
weight) live on the reciprocal lattice xi_j = (j - G/2) * eta with
eta = 2 pi / (G h); each transform refuses samples on the other lattice.  On
that lattice the kernel e^{-i xi_j x_k} of one axis is
(-1)^{G/2} (-1)^j (-1)^k e^{-2 pi i jk/G} (G is even, PhaseGrid enforces it);
over the 2n axes the factors (-1)^{G/2} cancel, so the transform is one n-D
FFT between two checkerboards (-1)^{j_1+..+j_2n} (_orbit_dft).  The weighted
transform is exactly unitary with an exact two-sided inverse, for every
(lam, L, G).  Sampling the orbit on the phase grid itself would break
unitarity (alias ghosts) because h^2 G / 2 pi is not an integer in general.

Two routes serve the inverse transform.  A sample made by the node route
(coefficient_map, or symbols.covariant_symbol) keeps its node tensor S and
interpolation matrix B (values = S expanded by B on every axis, read-only);
the DFT of that is S expanded by the DFT'd factor, so the inverse is that
factor, one 1-D inverse FFT by numpy.fft, and the same S
(inverse_fourier_orbit).  Every other sample, and the forward transform,
takes _orbit_dft's n-D FFT by scipy.fft, which is also the node route's
oracle in the tests; so the node route runs on numpy alone, and scipy.fft
loads on the first _orbit_dft call.  Node-route samples, the Wigner table
among them, are shown finite by a bound on S and the factor
(GridFunction._from_nodes) and expand their values, one matmul per axis,
only on their first read; inner_l2, and so the norms and moyal_residual,
pair them in node form without reading them.  Every other sample's values
are scanned (core._require_finite).
"""
from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np
import scipy  # scipy.fft loads on first use

from .core import (GridFunction, HermiteState, _expansion_need,
                   _refuse_over_guard, inner_l2)
from .schroedinger import (RepresentationContext, _guard_node_route,
                           _hermite_nodes, _interpolation_matrix,
                           _laguerre_factors, _node_table)


class OrbitGridFunction(GridFunction):
    """Samples of a function on the flat orbit, on the reciprocal lattice.

    grid is the underlying phase grid (chart bookkeeping: same G, same n);
    the orbit's own axis is xi_axis with step eta = 2 pi / (G h), and one
    sample weighs orbit_density * eta^{2n}; the axis pair is named alpha and
    beta.  Everything else (validation, reshape, norm, the pairing inner_l2)
    is GridFunction's.
    """

    coords = ("alpha", "beta")

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

    @property
    def axis(self) -> np.ndarray:
        return self.xi_axis

    @property
    def step(self) -> float:
        return self.eta

    @property
    def weight(self) -> float:
        return self.orbit_density * self.cell_weight


orbit_inner = inner_l2  # one pairing; it refuses samples on the other lattice


@lru_cache(maxsize=8)
def _checkerboard(ndim: int, G: int) -> np.ndarray:
    """Read-only (-1)^(j_1+..+j_ndim) as a (1, 2) * (ndim - 1) + (G,) tensor
    of signs: pairs (j = 2p + q, sign (-1)^q) on the leading axes, the last
    axis whole."""
    row = np.where(np.arange(G) % 2, -1.0, 1.0)
    signs = reduce(np.multiply.outer, [np.array([1.0, -1.0])] * (ndim - 1)
                   + [row])
    signs = signs.reshape((1, 2) * (ndim - 1) + (G,))
    signs.flags.writeable = False
    return signs


def _orbit_dft(vals: np.ndarray, sign: int, weight: float) -> np.ndarray:
    """weight * sum_j e^{-sign * i <xi_j, x_k>} vals[j] over a (G,)*2n array.

    Per axis the kernel is (-1)^{G/2} (-1)^j (-1)^k e^{-sign 2 pi i jk/G}
    (module docstring); the 2n factors (-1)^{G/2} cancel, so the sum is one
    n-D FFT (sign=+1) or unnormalized inverse FFT (sign=-1) between two
    checkerboards.  The checkerboard keeps the last axis whole, so both sign
    multiplies run over rows of length G.  The first, by weight * signs,
    makes the only new array, so the FFT sums scaled terms (an unscaled sum
    can overflow where the result is finite); the FFT and the last signs
    run in place on it.
    """
    G, ndim = vals.shape[0], vals.ndim
    signs = _checkerboard(ndim, G)
    pairs = vals.reshape((G // 2, 2) * (ndim - 1) + (G,))
    work = (pairs * (weight * signs)).reshape(vals.shape)
    if sign > 0:
        work = scipy.fft.fftn(work, overwrite_x=True)
    else:
        work = scipy.fft.ifftn(work, norm="forward", overwrite_x=True)
    out = work.reshape(pairs.shape)  # a view: the FFT output is contiguous
    out *= signs
    return work


def fourier_orbit(a: OrbitGridFunction) -> GridFunction:
    """a_hat(x) = orbit_density * sum_xi e^{-i<xi,x>} a(xi) * eta^{2n}.

    Unitary from L2(orbit) onto L2(phase space, mu): the weight identity
    orbit_density * density * (eta h G)^{2n} = 1 holds exactly because
    eta h G = 2 pi.
    """
    if type(a) is not OrbitGridFunction:
        raise ValueError("fourier_orbit takes samples on the orbit lattice")
    vals = _orbit_dft(a.reshape(), +1, a.weight)
    return GridFunction(grid=a.grid, values=vals.ravel())


def inverse_fourier_orbit(F: GridFunction) -> OrbitGridFunction:
    """Two-sided inverse of fourier_orbit (exact at the discrete level).

    Samples from coefficient_map and symbols.covariant_symbol carry their
    node tensor S and interpolation matrix B, values = S expanded by B on
    every axis; the orbit DFT of that is S expanded by FB, the checkerboard
    inverse DFT of B's columns (numpy.fft) times weight^(1/2n) (the
    (-1)^{G/2} factors cancel over the 2n axes, as in _orbit_dft).  That
    route builds FB only, and counts it with its temporaries; the Wigner
    values expand on their first read.  Every other sample takes the n-D
    FFT of _orbit_dft.
    """
    if type(F) is not GridFunction:
        raise ValueError("inverse_fourier_orbit takes samples on the phase grid")
    if F._nodes is None:
        vals = _orbit_dft(F.reshape(), -1, F.weight)
        return OrbitGridFunction(grid=F.grid, values=vals.ravel())
    S, B = F._nodes
    G, N = B.shape
    # FB, B * signs and np.fft's complex copy of it, and _from_nodes's |S|
    _refuse_over_guard("inverse orbit transform", F.grid.num_points,
                       3 * G * N + S.size)
    signs = _checkerboard(1, G)[:, None]
    FB = np.fft.ifft(B * signs, axis=0, norm="forward")
    FB *= F.weight ** (0.5 / F.grid.n) * signs
    return OrbitGridFunction._from_nodes(F.grid, S, FB)


def _map_node_stage(cfg) -> int:
    """Complex entries of the last node step of _map_nodes: its input, the
    node values, one term of them, np.dot's copy of a diagonal of the input,
    the Laguerre rows and temporaries, and the ufunc buffer of term *= scale.
    """
    n, M = cfg.n, cfg.M
    N = 2 * M - 1
    return ((M * M + M + 2 * N * N) * N ** (2 * n - 2) + (M + 4) * N * N
            + min(np.getbufsize(), N ** (2 * n)))


def coefficient_map(ctx: RepresentationContext, f: HermiteState,
                    phi: HermiteState) -> GridFunction:
    """values_k = (f | pi([a_k, b_k, 0]) phi) over the whole phase grid, any n.

    Linear in f and conjugate-linear in phi.  The size guard counts the
    node stage (_map_node_stage); node values that overflow are refused by
    GridFunction._from_nodes.  The result keeps its node tensor and B for
    inverse_fourier_orbit and inner_l2, and its values, expanded on their
    first read, are read-only.
    """
    cfg, grid = ctx.cfg, ctx.grid
    if f.dim != cfg.dim or phi.dim != cfg.dim:
        raise ValueError("state dimension mismatch")
    n, M = cfg.n, cfg.M
    _guard_node_route("coefficient map", grid, M, _map_node_stage(cfg))
    B = _interpolation_matrix(grid.lam / 2.0, grid.L, cfg.G, M)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, nan: refused
        S = _map_nodes(f.coeffs, phi.coeffs, M, n)
    return GridFunction._from_nodes(grid, S, B)


def _map_nodes(f: np.ndarray, phi: np.ndarray, M: int, n: int) -> np.ndarray:
    """(f | pi(x) phi) at the node points w = x_p + i x_q, axes (a_1 b_1 ..):
    the Laguerre form on each diagonal d of f (x) conj(phi), one axis pair at a
    time, its recurrence stopped at the window's last nonzero mode J."""
    N = 2 * M - 1
    x = _hermite_nodes(N)
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
            for offset, scale in diags:  # the diagonal unnamed: X dies with k
                np.dot(np.diagonal(X, offset, 0, n - k)[..., :rows].reshape(
                    -1, rows), ell[:rows], out=term.reshape(-1, N * N))
                term *= scale
                nodes += term
        X, term = nodes, None  # node pair k appended last; term freed
    return X.reshape((N,) * (2 * n))


def wigner(ctx: RepresentationContext, f: HermiteState,
           phi: HermiteState) -> OrbitGridFunction:
    """Cross-Wigner distribution: the orbit function whose transform is
    (f|pi(.)phi)."""
    return inverse_fourier_orbit(coefficient_map(ctx, f, phi))


def moyal_residual(ctx: RepresentationContext,
                   f1: HermiteState, phi1: HermiteState,
                   f2: HermiteState, phi2: HermiteState) -> tuple[float, float]:
    """Deviation of both transform pairings from (f1|f2) * conj((phi1|phi2)).

    Returns (ambiguity-side residual, Wigner-side residual).  Both pairings
    run in node form (inner_l2), so wherever 2M - 1 <= G no table is built.
    The guard counts one node tensor held beside the second map's stage or
    beside the Wigner pairing: both FB, inner_l2's conjugate copy of one
    and their Gram matrix, and the other node tensor expanded by it.
    """
    cfg, grid = ctx.cfg, ctx.grid
    n, G, N = cfg.n, cfg.G, 2 * cfg.M - 1
    pairing = 3 * G * N + N * N + _expansion_need(N, N, n)
    _guard_node_route("Moyal residual", grid, cfg.M, N ** (2 * n) + max(
        _map_node_stage(cfg), pairing))
    target = f1.inner(f2) * np.conj(phi1.inner(phi2))
    A1 = coefficient_map(ctx, f1, phi1)
    A2 = coefficient_map(ctx, f2, phi2)
    amb = abs(inner_l2(A1, A2) - target)
    W1, A1 = inverse_fourier_orbit(A1), None
    W2, A2 = inverse_fourier_orbit(A2), None
    wig = abs(inner_l2(W1, W2) - target)
    return float(amb), float(wig)
