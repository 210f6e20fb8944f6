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
displacement_1d factors axis by axis without building it.  All three check
their element by RepresentationContext.check_displacement, and their oracle
is ambiguity_batch, oracle.riemann_sum on the whole grid.  _bargmann_columns,
which feeds them, the coherent table and the node tables, forms the columns
as one running product along the mode axis (no loop over modes) and flushes
entries below _TABLE_FLOOR to exact zeros over blocks of rows.

The coefficient map and the covariant symbol take their values at the
Gauss-Hermite node pairs from _node_table and carry them to the grid with one
interpolation matrix per axis (_interpolation_matrix); _guard_node_route
counts what each holds.  Their samples are node-form GridFunctions
(core.GridFunction._from_nodes), whose values are expanded, and counted,
on their first read.

Matrix orientation: rep_matrix(g)[j, k] = (pi(g) e_k | e_j), the coefficient
of e_j in pi(g) e_k, so column k literally equals apply_group(g, e_k) and
matrix products compose like operator products.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .core import (ModelConfig, HermiteState, OperatorMatrix, PhaseGrid,
                   TruncationError, _refuse_over_guard, build_grid,
                   basis_state, hermite_columns)
from .heisenberg import HeisenbergElement, PhasePoint

# table entries below this modulus are stored as exact zeros, so every product
# of two entries is zero or a normal float (subnormal arithmetic is slow)
_TABLE_FLOOR = 2.0 ** -511
# entries per block of _bargmann_columns's flush
_FLUSH_ENTRIES = 2 ** 16


def _bargmann_columns(w, M: int) -> np.ndarray:
    """C[..., d] = C_d(w), d < M, as one running product: C[..., 0] =
    e^{-|w|^2/2} and C[..., d] = w/sqrt(d) for d > 0, multiplied along the
    last axis in place (overflow-free, as each factor is).  The product runs
    on unflushed values; entries below _TABLE_FLOOR then become exact zeros,
    _FLUSH_ENTRIES at a time, so the flush's modulus and mask stay small."""
    w = np.asarray(w)
    C = np.empty(w.shape + (M,), dtype=complex)
    C[..., 0] = np.exp(-0.5 * (w.real ** 2 + w.imag ** 2))
    np.divide(w[..., None], np.sqrt(np.arange(1, M)), out=C[..., 1:])
    np.multiply.accumulate(C, axis=-1, out=C)
    rows = C.reshape(-1, M)
    step = max(1, _FLUSH_ENTRIES // M)
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        block[np.abs(block) < _TABLE_FLOOR] = 0.0
    return C


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
    rho = (w.real ** 2 + w.imag ** 2)[..., None]
    ell = np.stack(list(_laguerre_factors(rho, M, slice(None), M - 1)), -1)
    m, j = np.indices((M, M))
    d = np.abs(m - j)
    Cd = _bargmann_columns(w, M)[..., d]
    return (np.where(m >= j, np.conj(Cd), (-1.0) ** d * Cd)
            * ell[..., d, np.minimum(m, j)])


@lru_cache(maxsize=16)
def _hermite_nodes(N: int) -> np.ndarray:
    """Read-only positions of the N Gauss-Hermite nodes, from numpy's
    hermgauss.  The node routes use them as interpolation points only and
    never read the weights, so they share no quadrature with the oracles."""
    x = np.polynomial.hermite.hermgauss(N)[0]
    x.flags.writeable = False
    return x


@lru_cache(maxsize=16)
def _node_table(M: int, root: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only c[(p, q), d] = C_d((x_p + i x_q)/root) and conj(c).T, x the
    2M-1 nodes of _hermite_nodes: w at the phase point (x_p, x_q)/sqrt(s) of
    the interpolation at scale s, root = sqrt(2 s/lam) (sqrt(2) for the
    covariant symbol, s = lam; 1 for the coefficient map, s = lam/2)."""
    x = _hermite_nodes(2 * M - 1)
    w = ((x[:, None] + 1j * x[None, :]) / root).ravel()
    c = _bargmann_columns(w, M)
    cbar_t = np.ascontiguousarray(c.conj().T)
    c.flags.writeable = False
    cbar_t.flags.writeable = False
    return c, cbar_t


# the verification battery reads 8 (lam, L, G, M) keys at each lambda; room
# for three lambdas, so a run that cycles 0.5, 1 and 4 misses only once
@lru_cache(maxsize=32)
def _interpolation_matrix(lam: float, L: float, G: int, M: int) -> np.ndarray:
    """Read-only B (G, 2M-1): B[k, p] is the Hermite-function interpolant
    through (1 at node p, 0 at the other nodes of _hermite_nodes) at
    sqrt(lam) * axis[k].

    B = E P^{-1}, E and P the first 2M-1 Hermite functions at the grid and at
    the nodes (cond(P) = 1.6 at M = 32): a solve, as the Gauss-Hermite weights
    invert P only up to their orthogonality defect (1e-13 at 63 nodes).
    """
    N = 2 * M - 1
    x = _hermite_nodes(N)
    axis = PhaseGrid(n=1, lam=lam, L=L, G=G).axis
    E = hermite_columns(np.sqrt(lam) * axis, N, 1.0)
    P = hermite_columns(x, N, 1.0)
    B = np.ascontiguousarray(np.linalg.solve(P.T, E.T).T)
    B.flags.writeable = False
    return B


def _guard_node_route(name: str, grid: PhaseGrid, M: int, own: int) -> None:
    """Refuse, before anything is computed, a node route at truncation M on
    grid whose working set exceeds the size guard: the cached node table (c
    and conj(c).T) and B beside the caller's own stage (`own` complex
    entries).  The sample's values are counted on their first read, where
    they are expanded (core.GridFunction)."""
    N = 2 * M - 1
    _refuse_over_guard(name, grid.num_points, 2 * M * N * N + N * grid.G + own)


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

    def check_displacement(self, g: HeisenbergElement | PhasePoint) -> None:
        """Refuse an element or phase point g of another n or off the box."""
        if g.n != self.cfg.n:
            raise ValueError("dimension mismatch")
        r = max(map(abs, g.a.tolist() + g.b.tolist()))  # 2n coordinates
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
        # the (G^2, M) axis table, w and the exponent's float temporaries (at
        # most three, 1.5 complex entries per point; the running product is in
        # place and its flush blockwise); at n > 1 the table with the flush's
        # modulus and mask of one a_1 block
        _refuse_over_guard("coherent table", self.grid.num_points,
                           max(G * G * (M + 3), table + table // G))
        ax = self.grid.axis
        w = np.sqrt(self.cfg.lam / 2.0) * (ax[:, None] + 1j * ax[None, :])
        C1 = _bargmann_columns(w.ravel(), M)
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


def ambiguity_batch(ctx: RepresentationContext, F: np.ndarray,
                    window: np.ndarray) -> np.ndarray:
    """Values (u_m | pi([a,b,0]) v) on the full 1-axis (a,b) grid, batched in u.

    Quadrature oracle of displacement_1d and the routes on it (F = I, v = e_0
    gives the coherent table); no main-path route calls it.  F has shape
    (M, nf), the coefficients of nf states u; window is the coefficient
    vector of v (length M, one axis).  Returns (G, G, nf) with axes
    (a-index, b-index, batch): oracle.riemann_sum at the grid axis.
    """
    from .oracle import riemann_sum  # oracle imports this module

    window = np.asarray(window, dtype=complex).ravel()
    if window.size != ctx.cfg.M:
        raise ValueError("window must have one coefficient per axis mode")
    ax = ctx.grid.axis
    return riemann_sum(ctx.cfg, ax, ax, F, window)


def gaussian_vector(cfg: ModelConfig) -> HermiteState:
    """The Gaussian vacuum: e_0 exactly, unit norm by construction."""
    return basis_state(cfg.dim, 0)


def rep_matrix(ctx: RepresentationContext, g: HeisenbergElement) -> OperatorMatrix:
    """Matrix of pi(g) on the truncation; column k is apply_group(g, e_k).

    Central elements give exactly e^{i lam c} * identity; general elements
    factor as that character times the Kronecker product over axes of the
    displacement_1d matrices.
    """
    ctx.check_displacement(g)
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
    ctx.check_displacement(g)
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
    ctx.check_displacement(x)
    s = np.sqrt(ctx.cfg.lam / 2.0)
    return HermiteState(reduce(np.kron, [
        np.conj(_bargmann_columns(s * (a + 1j * b), ctx.cfg.M))
        for a, b in zip(x.a, x.b)]))
