"""Coefficient map, orbit Fourier transform, and cross-Wigner distribution.

The coefficient map (f | pi(x) phi) is, per axis pair, e^{-lam(a^2+b^2)/4}
times a polynomial of degree <= 2M-2 in each of a and b (C_d ell^d_j of the
schroedinger module docstring), so, for any n, its samples at the Gauss-Hermite
node pairs (schroedinger._hermite_nodes, numpy's hermgauss positions) fix it
and the interpolation matrix at scale lam/2 carries them to the grid; no
grid-sized table is built.  The node samples are taken one axis pair at a
time (_map_nodes): ell^d_0 = 1, so the j = 0 rows of the M lower diagonals
are one contraction with the node table, and only the rows j >= 1 and the
upper diagonals, which a window past the vacuum has, run the Laguerre
recurrence.  The error is absolute, about eps * ||f|| ||phi||: tail values
below that are rounding noise.

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
takes _orbit_dft's n-D FFT, which is also the node route's oracle in the
tests.  Both routes run on numpy alone: _orbit_dft runs numpy.fft's n-D
transform in place (out=, numpy >= 2.0), so it holds one grid-sized array
beside its input.  Node-route samples, the Wigner table among them, are
shown finite by a bound on S and the factor (GridFunction._from_nodes) and
expand their values, one matmul per axis, only on their first read;
inner_l2, and so the norms and moyal_residual (the battery's Moyal rows),
pair them in node form without reading them.  Every other sample's values
are scanned (core._require_finite).
"""
from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

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
    can overflow where the result is finite); the FFT (numpy.fft's out=)
    and the last signs run in place on it.
    """
    G, ndim = vals.shape[0], vals.ndim
    signs = _checkerboard(ndim, G)
    pairs = vals.reshape((G // 2, 2) * (ndim - 1) + (G,))
    work = (pairs * (weight * signs)).reshape(vals.shape)
    if sign > 0:
        np.fft.fftn(work, out=work)
    else:
        np.fft.ifftn(work, norm="forward", out=work)
    out = work.reshape(pairs.shape)  # a view: work is contiguous
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
    # FB, B * signs and np.fft's complex copy of it
    _refuse_over_guard("inverse orbit transform", F.grid.num_points, 3 * G * N)
    signs = _checkerboard(1, G)[:, None]
    FB = np.fft.ifft(B * signs, axis=0, norm="forward")
    FB *= F.weight ** (0.5 / F.grid.n) * signs
    return OrbitGridFunction._from_nodes(F.grid, S, FB)


def _map_node_stage(cfg) -> int:
    """Complex entries of the last node step of _map_nodes for any window: its
    input, the node values, M rows of the input (np.take's copy of the j = 0
    slice, whose contraction reads c as a view, or later np.dot's copy of at
    most M - 1 rows of a diagonal), and, for a window past the vacuum, one
    term of the node values, the Laguerre rows and temporaries, and the ufunc
    buffer of term *= scale.
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
    time.  ell^d_0 = 1, so the j = 0 row of every lower diagonal is one
    contraction of the j_k = 0 slice with the node table; the recurrence runs
    only for the rows j >= 1 and the upper diagonals, stopped at the window's
    last nonzero mode J, so the vacuum (J = 0) runs none."""
    N = 2 * M - 1
    c, cbar_t = _node_table(M, 1.0)
    window = phi.reshape((M,) * n)
    J = int(np.argwhere(window).max(initial=0))  # last nonzero window mode
    if J:
        x = _hermite_nodes(N)
        rho = (x[:, None] ** 2 + x[None, :] ** 2).ravel()  # |w|^2, node pairs
        ell = np.empty((min(J, M - 1) + 1, N * N), dtype=complex)
    X = np.multiply.outer(f.reshape((M,) * n), np.conj(window))
    for k in range(n):  # axes (m_k.., j_k.., node pairs 1..k-1)
        # sum_d O[d, 0] C_d, node pair k appended last
        nodes = np.tensordot(np.take(X, 0, axis=n - k), c, (0, 1))
        term = np.empty_like(nodes) if J else None
        for d in range(M if J else 0):
            rows = min(J, M - 1 - d) + 1
            for j, e in enumerate(_laguerre_factors(rho, M, d, rows - 1)):
                ell[j] = e
            diags = [(-d, 1, c[:, d])]  # O[j+d, j] C_d, j >= 1
            if 0 < d <= J:  # O[j, j+d] (-1)^d conj(C_d), zero past the window
                diags.append((d, 0, (-1.0) ** d * cbar_t[d]))
            for offset, j0, scale in diags:  # unnamed: X dies with k
                if j0 == rows:  # a lower diagonal of one row
                    continue
                np.dot(np.diagonal(X, offset, 0, n - k)[..., j0:rows].reshape(
                    -1, rows - j0), ell[j0:rows], out=term.reshape(-1, N * N))
                term *= scale
                nodes += term
        X, term = nodes, None  # term freed
    return X.reshape((N,) * (2 * n))


def wigner(ctx: RepresentationContext, f: HermiteState,
           phi: HermiteState) -> OrbitGridFunction:
    """Cross-Wigner distribution: the orbit function whose transform is
    (f|pi(.)phi)."""
    return inverse_fourier_orbit(coefficient_map(ctx, f, phi))


def moyal_residual(ctx: RepresentationContext, states: list,
                   windows: list) -> tuple[float, float]:
    """Largest deviations of (A_i | A_j) from (f_i|f_j) conj((phi_i|phi_j))
    over i <= j, A_i the map of states[i] against windows[i], on the
    ambiguity side and then, each map replaced by its inverse transform, on
    the Wigner side.  For k states the guard counts k - 1 node tensors
    beside the last map's stage or a pairing: k FB, inner_l2's conjugate
    copy of one, the Gram matrix, the other tensor expanded by it, and
    k - 2 tables where 2M - 1 > G (inner_l2 reads values)."""
    k = len(states)
    if k == 0 or len(windows) != k:
        raise ValueError("moyal_residual takes one window per state")
    cfg, grid, N = ctx.cfg, ctx.grid, 2 * ctx.cfg.M - 1
    pairing = ((k + 1) * cfg.G * N + N * N + _expansion_need(N, N, cfg.n)
               + (max(k - 2, 0) * grid.num_points if N > cfg.G else 0))
    _guard_node_route("Moyal residual", grid, cfg.M, (k - 1) * N ** (2 * cfg.n)
                      + max(_map_node_stage(cfg), pairing))
    pairs = [(i, j, states[i].inner(states[j])
              * np.conj(windows[i].inner(windows[j])))
             for i in range(k) for j in range(i, k)]
    samples = [coefficient_map(ctx, f, phi) for f, phi in zip(states, windows)]
    amb = max(abs(inner_l2(samples[i], samples[j]) - t) for i, j, t in pairs)
    for i in range(k):  # each map is freed as its inverse replaces it
        samples[i] = inverse_fourier_orbit(samples[i])
    wig = max(abs(inner_l2(samples[i], samples[j]) - t) for i, j, t in pairs)
    return float(amb), float(wig)
