"""Schroedinger representation on the truncated Hermite basis.

The representation acts on position-space functions by
    (pi([a,b,c]) f)(t) = e^{i lam (c - b.t + a.b/2)} f(t - a),
and this module realizes its compression to the first M Hermite modes per
axis.  Every matrix element is closed form (Folland 1989, ch. 1): pi([a,b,0])
on one axis is D[j+d, j] = conj(C_d) ell^d_j, D[j, j+d] = (-1)^d C_d ell^d_j
(displacement_1d) with C_d = e^{-|w|^2/2} w^d / sqrt(d!), w = sqrt(lam/2)(a + ib),
ell^d_j = sqrt(j! d!/(j+d)!) L_j^(d)(|w|^2).  The coherent state phi_x =
pi(x) phi is column 0, conj(C_d) per axis, so coherent_state and the coherent
table read the Bargmann columns C_d directly and build no matrix; rep_matrix
builds its matrix per query (nothing is cached) and apply_group applies the
displacement_1d factors axis by axis without building it.
ambiguity_batch's chirp-z quadrature is the oracle of all of them.

The coefficient map and the covariant symbol take their values at the
Gauss-Hermite node pairs from _node_table and carry them to the grid with one
interpolation matrix per axis (_interpolation_matrix, _expand_nodes); one
working-set count refuses both (_guard_node_route).

Matrix orientation: rep_matrix(g)[j, k] = (pi(g) e_k | e_j), the coefficient
of e_j in pi(g) e_k, so column k literally equals apply_group(g, e_k) and
matrix products compose like operator products.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np
from scipy.signal import CZT
from scipy.special import roots_hermite

from .core import (ModelConfig, HermiteState, OperatorMatrix, PhaseGrid,
                   TruncationError, build_grid, basis_state, hermite_columns)
from .heisenberg import HeisenbergElement, PhasePoint

# max complex entries of a grid-sized working set (_refuse_over_guard): the
# coherent table's, the node routes' (_guard_node_route) and berezin wigner's
_TABLE_LIMIT = 2 ** 24
# table entries below this modulus are stored as exact zeros, so every product
# of two entries is zero or a normal float (subnormal arithmetic is slow)
_TABLE_FLOOR = 2.0 ** -511


def _bargmann_columns(w, M: int) -> Iterator[np.ndarray]:
    """C_d for d = 0..M-1 by the overflow-free C_d = C_{d-1} w / sqrt(d).

    Entries below _TABLE_FLOOR are yielded as exact zeros; the recurrence
    itself runs on the unflushed values.
    """
    raw = np.exp(-0.5 * (w.real ** 2 + w.imag ** 2)).astype(complex)
    for d in range(M):
        raw = raw * (w / np.sqrt(d)) if d else raw
        yield np.where(np.abs(raw) < _TABLE_FLOOR, 0.0, raw)


@lru_cache(maxsize=8)
def _laguerre_coefficients(M: int) -> np.ndarray:
    """Read-only [j, d] arrays 2j+d+1, sqrt((j+1)(j+d+1)), sqrt(j(j+d))/that."""
    j, d = np.indices((M, M), dtype=float)
    den = np.sqrt((j + 1.0) * (j + d + 1.0))
    coef = np.stack([2.0 * j + d + 1.0, den, np.sqrt(j * (j + d)) / den])
    coef.flags.writeable = False
    return coef


def _laguerre_factors(rho, M: int, d, steps: int) -> Iterator[np.ndarray]:
    """ell^d_j(rho) for j = 0..steps; d is a mode index or a slice of them.

    Bounded three-term recurrence from ell^d_0 = 1 (each C_d ell^d_j is a
    matrix element; expanding (a - conj(w))^j instead cancels up to ~1e8):
      sqrt((j+1)(j+d+1)) ell^d_{j+1} = (2j+d+1-rho) ell^d_j - sqrt(j(j+d)) ell^d_{j-1}.
    """
    num, den, gam = _laguerre_coefficients(M)
    prev, cur = 0.0, np.ones(np.broadcast(rho, num[0, d]).shape)
    yield cur
    for j in range(steps):
        prev, cur = cur, (cur * ((num[j, d] - rho) / den[j, d])
                          - gam[j, d] * prev)
        yield cur


def displacement_1d(lam: float, a, b, M: int) -> np.ndarray:
    """D[..., m, j] = (pi([a,b,0]) e_j | e_m) on one axis; a, b broadcast."""
    w = np.sqrt(lam / 2.0) * (np.asarray(a) + 1j * np.asarray(b))
    C = np.stack(list(_bargmann_columns(w, M)), axis=-1)
    rho = (w.real ** 2 + w.imag ** 2)[..., None]
    ell = np.stack(list(_laguerre_factors(rho, M, slice(None), M - 1)), -1)
    m, j = np.indices((M, M))
    d = np.abs(m - j)
    Cd = C[..., d]
    return (np.where(m >= j, np.conj(Cd), (-1.0) ** d * Cd)
            * ell[..., d, np.minimum(m, j)])


@lru_cache(maxsize=16)
def _node_table(M: int, root: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only c[(p, q), d] = C_d((x_p + i x_q)/root) and conj(c).T, x the
    2M-1 Gauss-Hermite nodes: w at the phase point (x_p, x_q)/sqrt(s) of the
    interpolation at scale s, root = sqrt(2 s/lam) (sqrt(2) for the covariant
    symbol, s = lam; 1 for the coefficient map, s = lam/2)."""
    x, _ = roots_hermite(2 * M - 1)
    w = ((x[:, None] + 1j * x[None, :]) / root).ravel()
    c = np.stack(list(_bargmann_columns(w, M)), axis=-1)
    cbar_t = np.ascontiguousarray(c.conj().T)
    c.flags.writeable = False
    cbar_t.flags.writeable = False
    return c, cbar_t


# the verification battery alone cycles through 8 (lam, L, G, M) keys
@lru_cache(maxsize=16)
def _interpolation_matrix(lam: float, L: float, G: int, M: int) -> np.ndarray:
    """Read-only B (G, 2M-1): B[k, p] is the Hermite-function interpolant
    through (1 at node p, 0 at the other nodes) at sqrt(lam) * axis[k].

    B = E P^{-1}, E and P the first 2M-1 Hermite functions at the grid and at
    the nodes (cond(P) = 1.6 at M = 32): a solve, as the Gauss-Hermite weights
    invert P only up to their orthogonality defect (1e-13 at 63 nodes).
    """
    N = 2 * M - 1
    x, _ = roots_hermite(N)
    axis = PhaseGrid(n=1, lam=lam, L=L, G=G).axis
    E = hermite_columns(np.sqrt(lam) * axis, N, 1.0)
    P = hermite_columns(x, N, 1.0)
    B = np.ascontiguousarray(np.linalg.solve(P.T, E.T).T)
    B.flags.writeable = False
    return B


def _expand_nodes(S: np.ndarray, B: np.ndarray, n: int) -> np.ndarray:
    """Node values S, axes (a_1 b_1 a_2 b_2 ..), carried to the grid by B on
    every axis, returned contiguous in grid order (a_1..a_n, b_1..b_n)."""
    S = S.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)))
    for _ in range(2 * n):  # first axis to grid, appended last
        S = np.tensordot(S, B, axes=([0], [1]))
    return S


def _guard_node_route(name: str, cfg: ModelConfig, own: int) -> None:
    """Refuse, before anything is computed, a node route whose working set
    exceeds the size guard.  The cached node table (c and conj(c).T) and B
    are held throughout, beside the largest of: the caller's node stage
    (`own` complex entries), an expansion step of _expand_nodes (its input,
    tensordot's copy of it and its output), and the output with
    GridFunction's finiteness mask (1/16 of it)."""
    M, G, n = cfg.M, cfg.G, cfg.n
    N, points = 2 * M - 1, G ** (2 * n)
    _refuse_over_guard(name, points, 2 * M * N * N + N * G + max(
        own, (2 * N + G) * max(N, G) ** (2 * n - 1), points * 17 // 16))


def _refuse_over_guard(name: str, points: int, need: int) -> None:
    """MemoryError naming the bound when a working set of `need` complex
    entries on `points` grid points exceeds _TABLE_LIMIT."""
    if need > _TABLE_LIMIT:
        raise MemoryError("%s on %d grid points needs %d complex entries, "
                          "over the size guard of %d; reduce G or M"
                          % (name, points, need, _TABLE_LIMIT))


@dataclass
class RepresentationContext:
    """Shared, immutable-after-construction state for one configuration.

    Holds the config and its phase grid and caches nothing.  coherent_table
    builds the coherent coefficient table (the Bargmann columns C_d over the
    grid) on each call, for the oracles and tests; no main-path route reads it.
    """

    cfg: ModelConfig
    grid: PhaseGrid = field(init=False)

    def __post_init__(self):
        self.grid = build_grid(self.cfg)

    # -- validity -------------------------------------------------------------

    def check_displacement(self, a: np.ndarray, b: np.ndarray) -> None:
        r = max(np.abs(a).max(), np.abs(b).max())
        if r > self.cfg.L:
            raise TruncationError(
                "displacement exceeds truncation validity: sup|(a,b)| = %g > L = %g"
                % (r, self.cfg.L))

    # -- coherent coefficient table ------------------------------------------

    def coherent_table(self) -> np.ndarray:
        """C[k, m] = (e_m | pi(x_k) phi) over all grid points, built per call.

        Row k is the analysis transform of the basis at grid point x_k; the
        coefficient vector of the coherent state phi_{x_k} is conj(C[k, :]).
        Entries below _TABLE_FLOOR are exact zeros.
        """
        G, M, n = self.cfg.G, self.cfg.M, self.cfg.n
        table = self.grid.num_points * self.cfg.dim
        # the (G^2, M) axis table with up to 6 (G, G) temporaries; at n > 1
        # the table with the flush's modulus and mask of one a_1 block
        _refuse_over_guard("coherent table", self.grid.num_points,
                           max(G * G * (M + 6), table + table // G))
        ax = self.grid.axis
        w = np.sqrt(self.cfg.lam / 2.0) * (ax[:, None] + 1j * ax[None, :])
        C1 = np.empty((G * G, M), dtype=complex)
        for m, col in enumerate(_bargmann_columns(w.ravel(), M)):
            C1[:, m] = col
        if n == 1:
            return C1
        # the rep factorizes over axes: C1, broadcast over axes (a_k, b_k, m_k)
        # of the layout (a_1..a_n, b_1..b_n, m_1..m_n) for each k, multiplies
        # into the table with no transposed copy
        shapes = [[G if i in (k, n + k) else M if i == 2 * n + k else 1
                   for i in range(3 * n)] for k in range(n)]
        out = reduce(np.multiply, [C1.reshape(s) for s in shapes])
        for block in out:  # flush products below the floor, one a_1 at a time
            block[np.abs(block) < _TABLE_FLOOR] = 0.0
        return out.reshape(G ** (2 * n), M ** n)


def _position_quadrature(cfg: ModelConfig) -> tuple[np.ndarray, float]:
    """1D position grid (t, s) of ambiguity_batch: 10 Gaussian decay lengths
    past the top mode's turning point, a step resolving both sqrt(lam(2M+1))
    and the grid's largest modulation frequency lam*L, with margin."""
    lam, M, L = cfg.lam, cfg.M, cfg.L
    R = np.sqrt((2 * M + 1) / lam) + 10.0 / np.sqrt(lam)
    s_max = min(0.2 / np.sqrt(lam * (2 * M + 1)), np.pi / (5.0 * lam * L))
    Np = int(np.ceil(2.0 * R / s_max)) | 1
    t = np.linspace(-R, R, Np)
    return t, float(t[1] - t[0])


def ambiguity_batch(ctx: RepresentationContext, F: np.ndarray,
                    window: np.ndarray) -> np.ndarray:
    """Values (u_m | pi([a,b,0]) v) on the full 1-axis (a,b) grid, batched in u.

    Quadrature oracle of displacement_1d and the routes on it (F = I, v = e_0
    gives the coherent table); no main-path route calls it.

    F has shape (M, nf): coefficients of nf states u, sampled on the grid of
    _position_quadrature.  window is the coefficient vector of the window state
    v (length M, one axis), synthesized at the shifted nodes t - a.
    Returns (G, G, nf) with axes (a-index, b-index, batch).

    (u | pi([a,b,0]) v) = e^{-i lam a b/2} * s * sum_p u(t_p) conj(v(t_p - a))
                           e^{+i lam b t_p},
    and the t->b sum over the uniform grids is a chirp-z transform: with
    b_k = (k - G/2) h and t_p = t_0 + p s,
    e^{i lam b_k t_p} = e^{i lam b_k t_0} e^{-i lam (G/2) h s p} w^{pk},
    w = e^{i lam h s}.  One CZT call batches all (a, batch) pairs.
    """
    cfg, grid = ctx.cfg, ctx.grid
    lam, G, M = cfg.lam, cfg.G, cfg.M
    t, s = _position_quadrature(cfg)
    Np = t.size
    U = hermite_columns(t, M, lam) @ np.asarray(F)
    if U.ndim == 1:
        U = U[:, None]
    window = np.asarray(window, dtype=complex).ravel()
    if window.size != M:
        raise ValueError("window must have one coefficient per axis mode")
    ax = grid.axis
    vshift = np.conj(hermite_columns(t[None, :] - ax[:, None], M, lam) @ window)
    pre = np.exp(-1j * lam * (G / 2.0) * grid.h * s * np.arange(Np))
    Y = vshift[:, :, None] * (U * pre[:, None])[None, :, :]
    plan = CZT(Np, m=G, w=np.exp(1j * lam * grid.h * s), a=1.0 + 0.0j)
    Z = plan(Y, axis=1)  # (G_a, G_b, nf)
    post_b = np.exp(1j * lam * ax * t[0])
    cross = np.exp(-1j * lam * np.outer(ax, ax) / 2.0)
    return s * Z * post_b[None, :, None] * cross[:, :, None]


def gaussian_vector(cfg: ModelConfig) -> HermiteState:
    """The Gaussian vacuum: e_0 exactly, unit norm by construction."""
    return basis_state(cfg.dim, 0)


def rep_matrix(ctx: RepresentationContext, g: HeisenbergElement) -> OperatorMatrix:
    """Matrix of pi(g) on the truncation; column k is apply_group(g, e_k).

    Central elements give exactly e^{i lam c} * identity; general elements
    factor as that character times the Kronecker product over axes of the
    displacement_1d matrices.
    """
    if g.n != ctx.cfg.n:
        raise ValueError("dimension mismatch")
    ctx.check_displacement(g.a, g.b)
    lam = ctx.cfg.lam
    scalar = np.exp(1j * lam * g.c)
    if np.all(g.a == 0.0) and np.all(g.b == 0.0):
        return OperatorMatrix(scalar * np.eye(ctx.cfg.dim, dtype=complex))
    mat = reduce(np.kron, [displacement_1d(lam, x, y, ctx.cfg.M)
                           for x, y in zip(g.a, g.b)])
    return OperatorMatrix(scalar * mat)


def apply_group(ctx: RepresentationContext, g: HeisenbergElement,
                f: HermiteState) -> HermiteState:
    """pi(g) f on the truncation, one displacement_1d factor per axis.

    The state, reshaped to (M,)*n, meets each axis factor in turn, so the
    M^n x M^n matrix of rep_matrix is never built.
    """
    if f.dim != ctx.cfg.dim:
        raise ValueError("state dimension mismatch")
    if g.n != ctx.cfg.n:
        raise ValueError("dimension mismatch")
    ctx.check_displacement(g.a, g.b)
    lam, M = ctx.cfg.lam, ctx.cfg.M
    scalar = np.exp(1j * lam * g.c)
    if np.all(g.a == 0.0) and np.all(g.b == 0.0):
        # character action, exact
        return HermiteState(scalar * f.coeffs)
    out = f.coeffs.reshape((M,) * ctx.cfg.n)
    for x, y in zip(g.a, g.b):  # contract the first axis, append its image
        out = np.tensordot(out, displacement_1d(lam, x, y, M), axes=([0], [1]))
    return HermiteState(scalar * out.ravel())


def coherent_state(ctx: RepresentationContext, x: PhasePoint) -> HermiteState:
    """phi_x = pi([a, b, 0]) phi, the Kronecker product over axes of conj(C_d).

    Equals column 0 of rep_matrix(x) bit for bit: w is formed per axis from
    scalars, as displacement_1d forms it.  Unit norm holds within tol_identity
    only while the displaced state stays inside the truncation, sup|x| <~
    2/sqrt(lam) at M = 16; beyond that the truncated norm decays (no
    renormalization is applied).
    """
    if x.n != ctx.cfg.n:
        raise ValueError("dimension mismatch")
    ctx.check_displacement(x.a, x.b)
    s = np.sqrt(ctx.cfg.lam / 2.0)
    return HermiteState(reduce(np.kron, [
        np.conj(np.stack(list(_bargmann_columns(s * (a + 1j * b), ctx.cfg.M))))
        for a, b in zip(x.a, x.b)]))
