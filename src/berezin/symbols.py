"""Reproducing kernel, full/covariant symbols, identity residuals, injectivity.

Conventions (linear in the first slot of every inner product):
  kernel(x, y)          = (phi_y | phi_x)   the reproducing kernel of Ran V,
                          so kernel(., y) = V phi_y and f(y) = (Vf | V phi_y).
  full_symbol(A, x, y)  = (A phi_y | phi_x)
  covariant_symbol(A)   = x -> (A phi_x | phi_x)

The covariant symbol is separable and needs no coherent table.  On one axis
pair, with w = sqrt(lam/2)(a + ib) and the Bargmann columns C_d(w) of the
schroedinger module, S(A)(a, b) = sum_{m,j} A[m, j] C_m(w) conj(C_j(w)) is
e^{-lam(a^2+b^2)/2} times a polynomial of degree <= 2M-2 in each of a and b:
it lies in the span of the first N = 2M-1 Hermite functions of sqrt(lam) a
and of sqrt(lam) b.  Its samples at the N x N Gauss-Hermite node pairs
(Golub & Welsch 1969) fix it, and on the grid S = B S_nodes B^T, with B the
(G, N) interpolation matrix from the nodes to sqrt(lam) * grid.axis.  At
n > 1 phi_x is a Kronecker product over axes, so S(A) is the same Tucker
product: one contraction of A against the (N^2, M) node table per position
axis, one B per phase-space axis.  B is real, so each phase-space axis is one
real matrix product with the float view of the complex values, contracting
that axis in place (core._expand_nodes).  The interpolation rounds
at the scale of the node values, so the error is absolute, about
eps * max|S| (measured <= 6e-15 max|S|): values in the Gaussian tail below
that are rounding noise, not the relatively accurate tiny values of the
coherent-table route (oracle.table_covariant_symbol).  The coefficient map (transforms) takes the
same route at scale lam/2, through the helpers of the schroedinger module.

The quadrature rule behind every integral identity is the grid measure
density * cell_weight.  Its resolution-of-identity defect W - I, W the frame
operator (the grid quadrature of conj(C_k)^T C_k over the grid points x_k),
is ~1e-15 on default grids and controls every residual below.  W is
separable too: the grid sum of S is u^T S_nodes u with u = B.sum(axis=0), so
one axis pair gives W1 = dd1 c^H diag(vec(u u^T)) c from the node table c,
and W is the Kronecker power of W1.  W1 depends on (lam, L, G, M) alone, so
it is built once per key and cached read-only (_frame_factor), as B is.
"""
from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from .core import (GridFunction, HermiteState, OperatorMatrix,
                   TruncationError, _expansion_need, _refuse_over_guard,
                   hs_inner, inner_l2)
from .heisenberg import HeisenbergElement, PhasePoint, project_to_phase
from .schroedinger import (RepresentationContext, _guard_node_route,
                           _interpolation_matrix, _node_table, coherent_state,
                           gaussian_vector, rep_matrix)
from .transforms import coefficient_map

_SVD_LIMIT = 2 ** 26  # max complex entries of the symbol-map SVD's working set


# two keys per lambda in the verification battery; sized like
# _interpolation_matrix, whose B it sums
@lru_cache(maxsize=32)
def _frame_factor(lam: float, L: float, G: int, M: int) -> np.ndarray:
    """Read-only W1 = dd1 c^H diag(vec(u u^T)) c of one axis pair, from the
    node table c, u = B.sum(axis=0) and dd1 = lam h^2 / (2 pi)."""
    c, cbar_t = _node_table(M, np.sqrt(2.0))
    u = _interpolation_matrix(lam, L, G, M).sum(axis=0)
    h = 2.0 * L / G  # PhaseGrid.h
    dd1 = lam * h ** 2 / (2.0 * np.pi)
    W1 = (cbar_t * (dd1 * np.outer(u, u).ravel())) @ c
    W1.flags.writeable = False
    return W1


def frame_operator(ctx: RepresentationContext) -> np.ndarray:
    """W = density * cell_weight * sum_k conj(C_k)^T C_k over the grid rows C_k
    of the coherent table, the discrete resolution of identity.

    Built from the node table without the coherent table: per axis pair
    W1 = dd1 c^H diag(vec(u u^T)) c with u = B.sum(axis=0) and
    dd1 = lam h^2 / (2 pi), and W is the Kronecker power of W1 over the n
    axis pairs (module docstring).  W1 depends on (lam, L, G, M) alone and is
    built once per key (_frame_factor, cached and read-only like B), so at
    n = 1 W is that cached array itself.
    """
    cfg, grid = ctx.cfg, ctx.grid
    W1 = _frame_factor(grid.lam, grid.L, grid.G, cfg.M)
    return reduce(np.kron, [W1] * cfg.n)


def kernel(ctx: RepresentationContext, x: PhasePoint, y: PhasePoint) -> complex:
    """(phi_y | phi_x); Hermitian in (x, y); kernel(x, x) = ||phi_x||^2."""
    cx = coherent_state(ctx, x)
    cy = coherent_state(ctx, y)
    return cy.inner(cx)


def analysis(ctx: RepresentationContext, f: HermiteState) -> GridFunction:
    """Samples of Vf: (f | phi_{x_k}) over the grid, i.e. coefficient_map(f, phi)."""
    return coefficient_map(ctx, f, gaussian_vector(ctx.cfg))


def full_symbol(ctx: RepresentationContext, A: OperatorMatrix,
                x: PhasePoint, y: PhasePoint) -> complex:
    """(A phi_y | phi_x), the two-point symbol determining A."""
    if A.dim != ctx.cfg.dim:
        raise ValueError("operator dimension mismatch")
    cx = coherent_state(ctx, x)
    cy = coherent_state(ctx, y)
    return complex(np.vdot(cx.coeffs, A.entries @ cy.coeffs))


def onb_expansion_check(ctx: RepresentationContext, A: OperatorMatrix,
                        x: PhasePoint, y: PhasePoint) -> float:
    """|full_symbol - sum_j (V e_j)(x) conj((V A* e_j)(y))|.

    Exact in the truncation: both sides are the same finite sum in different
    association orders, so the residual is pure rounding.
    """
    if A.dim != ctx.cfg.dim:
        raise ValueError("operator dimension mismatch")
    cx = coherent_state(ctx, x).coeffs
    cy = coherent_state(ctx, y).coeffs
    direct = complex(np.vdot(cx, A.entries @ cy))
    Acy = A.entries @ cy
    total = 0.0 + 0.0j
    # (e_j | phi_x) = conj(cx_j) times conj((A* e_j | phi_y)) = (A phi_y)_j,
    # summed over j in order as Python complex numbers
    for ve_x, acy_j in zip(cx.conj().tolist(), Acy.tolist()):
        total += ve_x * acy_j
    return float(abs(direct - total))


def reconstruct(ctx: RepresentationContext, A: OperatorMatrix,
                f: HermiteState, x: PhasePoint) -> complex:
    """Quadrature of (Af)(x) = int full_symbol(A, x, y) (Vf)(y) dmu(y).

    The grid quadrature over y turns f into W f, W the frame operator, so
    the value is (A W f | phi_x) and no coherent table is read.  Agrees with
    the direct matrix action (V(Af))(x) up to the resolution defect
    ||W - I|| ~ 1e-15 times ||A|| ||f||.
    """
    if A.dim != ctx.cfg.dim or f.dim != ctx.cfg.dim:
        raise ValueError("dimension mismatch")
    cx = coherent_state(ctx, x).coeffs
    smoothed = frame_operator(ctx) @ f.coeffs
    return complex(np.vdot(cx, A.entries @ smoothed))


def covariant_symbol(ctx: RepresentationContext, A: OperatorMatrix) -> GridFunction:
    """values_k = (A phi_{x_k} | phi_{x_k}) over the whole grid, any n.

    Separable and table-free (module docstring).  Node stage: A, one axis
    (m_k, j_k) at a time, meets the node table c on its row index and conj(c)
    on its column index, giving S at the (2M-1)^{2n} node points.  Expansion:
    the node values in grid order (a_1..a_n, b_1..b_n), then the
    interpolation matrix B on each of the 2n axes.  Absolute error about
    eps * max|S|.  The size guard counts the last node step: the matmul
    output (M (2M-1)^{2n} entries), multiplied by conj(c) in place, and its
    sum; node values that overflow are refused by GridFunction._from_nodes.
    The result keeps its node tensor and B, and its values, expanded on
    their first read, are read-only.
    """
    cfg, grid = ctx.cfg, ctx.grid
    if A.dim != cfg.dim:
        raise ValueError("operator dimension mismatch")
    n, M = cfg.n, cfg.M
    N = 2 * M - 1
    _guard_node_route("covariant symbol", grid, M, (M + 1) * N ** (2 * n))
    c, cbar_t = _node_table(M, np.sqrt(2.0))
    S = A.entries.reshape((M,) * (2 * n))
    with np.errstate(over="ignore", invalid="ignore"):  # inf, nan: refused
        for k in range(n):  # axes (m_k.., j_k.., node pairs 1..k-1)
            # m_k -> pair k, last; BLAS reads the cached c transposed
            S = (S.reshape(M, -1).T @ c.T).reshape(S.shape[1:] + (N * N,))
            S = np.moveaxis(S, n - 1 - k, -2)  # j_k beside it (a view)
            S *= cbar_t  # in place: the matmul output is this route's own
            S = S.sum(axis=-2)
    S = S.reshape((N,) * (2 * n))  # node axes (a_1 b_1 a_2 b_2 ...)
    B = _interpolation_matrix(grid.lam, grid.L, grid.G, M)
    return GridFunction._from_nodes(grid, S, B)


def trace_identity_residual(ctx: RepresentationContext, A: OperatorMatrix) -> float:
    """|trace(A) - int covariant_symbol(A) dmu|, the integral as inner_l2
    with the constant 1 (one node, ones on every axis), so wherever
    2M - 1 <= G no value is read."""
    S = covariant_symbol(ctx, A)
    one = GridFunction._from_nodes(ctx.grid, np.ones((1,) * (2 * ctx.cfg.n)),
                                   np.ones((ctx.cfg.G, 1)))
    return float(abs(np.trace(A.entries) - inner_l2(S, one)))


def hs_identity_residual(ctx: RepresentationContext, A: OperatorMatrix) -> float:
    """|hs_inner(A, A) - double quadrature of |full_symbol|^2 over mu x mu|.

    The double sum collapses: sum_{k,l} |C_k A C_l*|^2 (dd)^2 = Tr(W A W A*),
    one W per quadrature variable, and W comes from the node table
    (frame_operator), so no grid sum is taken at all.
    """
    if A.dim != ctx.cfg.dim:
        raise ValueError("operator dimension mismatch")
    W = frame_operator(ctx)
    quad = np.trace(W @ A.entries @ W @ A.entries.conj().T)
    return float(abs(hs_inner(A, A) - quad))


def covariance_residual(ctx: RepresentationContext, A: OperatorMatrix,
                        g: HeisenbergElement) -> float:
    """Deviation of S(pi(g)* A pi(g))(z) from S(A)(x.z), x = phase part of g.

    g must be grid-commensurate: its displacement an integer multiple of the
    grid step per axis (the central coordinate is free).  The max runs over
    grid points z with both z and x.z inside the sup-norm box L/2, one range
    per axis.  The first symbol is cut to that window before the second is
    built; the guard counts both operators and two windows (numpy copies the
    second symbol's in the subtraction) beside the symbols' node stage or
    the expansion of their values.
    """
    cfg, grid = ctx.cfg, ctx.grid
    if A.dim != cfg.dim:
        raise ValueError("operator dimension mismatch")
    h = grid.h
    steps = np.concatenate([np.asarray(g.a) / h, np.asarray(g.b) / h])
    rounded = np.round(steps)
    if np.abs(steps - rounded).max() > 1e-9:
        raise ValueError("displacement is not grid-commensurate: steps %s" %
                         np.array2string(steps, precision=6))
    x = project_to_phase(g)
    if x.sup_norm() > cfg.L / 2:
        raise TruncationError("covariance displacement exceeds L/2")
    d = rounded.astype(int)  # per axis, z and z + d inside the box
    box = np.flatnonzero(np.abs(grid.axis) <= cfg.L / 2)  # one range
    lo, hi = box[0] + np.maximum(0, -d), box[-1] + 1 - np.maximum(0, d)
    if np.any(hi <= lo):
        raise ValueError("no valid evaluation points for this displacement")
    size, N = int(np.prod(hi - lo)), 2 * cfg.M - 1
    _guard_node_route("covariance residual", grid, cfg.M, 2 * cfg.dim ** 2
                      + size + max((cfg.M + 1) * N ** (2 * cfg.n),
                                   size + _expansion_need(N, cfg.G, cfg.n)))
    R = rep_matrix(ctx, g).entries
    B = OperatorMatrix(R.conj().T @ A.entries @ R)
    diff = covariant_symbol(ctx, B).reshape()[tuple(map(slice, lo, hi))].copy()
    diff -= covariant_symbol(ctx, A).reshape()[tuple(map(slice, lo + d, hi + d))]
    return float(np.abs(diff).max())


def build_symbol_map(ctx: RepresentationContext) -> np.ndarray:
    """Descending singular values of the symbol map on matrix units.

    Column (i, j) is sqrt(density * cell_weight) S(e_i (x) e_j*) on the grid
    (oracle.table_symbol_map); on one axis pair it is sqrt(dd1) (B (x) B) f_ij,
    f_ij = c[:, i] conj(c[:, j]), so with B = Q R the (K^2, M^2) matrix
    sqrt(dd1) (R (x) R) F, K = min(G, 2M-1), has the same singular values.
    At n > 1 the map is the n-fold Kronecker power of that one, up to order.
    """
    check_symbol_map(ctx)
    cfg, grid = ctx.cfg, ctx.grid
    n, M = cfg.n, cfg.M
    N = 2 * M - 1
    c, cbar_t = _node_table(M, np.sqrt(2.0))
    F = (c[:, :, None] * cbar_t.T[:, None, :]).reshape(N, N * M * M)
    B = _interpolation_matrix(grid.lam, grid.L, grid.G, M)
    R = np.linalg.qr(B, mode="r")
    F = R @ (R @ F).reshape(len(R), N, M * M)  # R on node axis a, then b
    dd1 = grid.lam * grid.h ** 2 / (2.0 * np.pi)
    sv = np.sqrt(dd1) * np.linalg.svd(F.reshape(-1, M * M), compute_uv=False)
    return np.sort(reduce(np.multiply.outer, [sv] * n), axis=None)[::-1]


def check_symbol_map(ctx: RepresentationContext) -> None:
    """Refuse an under-determined symbol map (ValueError) or one whose SVD
    working set exceeds _SVD_LIMIT (MemoryError), before anything is built."""
    cfg, grid = ctx.cfg, ctx.grid
    dim, M = cfg.dim, cfg.M
    if dim * dim > grid.num_points:
        raise ValueError(
            "under-determined configuration: (M^n)^2 = %d columns exceed %d "
            "grid points" % (dim * dim, grid.num_points))
    N = 2 * M - 1
    K = min(grid.G, N)
    # F, its two products with R, LAPACK's copy; the sv products, sorted
    need = (N * N + K * N + 2 * K * K) * M * M + 2 * dim * dim
    _refuse_over_guard("symbol map SVD", grid.num_points, need, _SVD_LIMIT)


def injectivity_report(ctx: RepresentationContext) -> dict:
    """Singular-value certificate for injectivity of the truncated symbol map.

    verdict is "injective-at-truncation" iff sigma_min clears quadrature noise
    by two orders: sigma_min > 100 * tol_quadrature.
    """
    cfg, grid = ctx.cfg, ctx.grid
    sv = build_symbol_map(ctx)
    sigma_min, sigma_max = float(sv[-1]), float(sv[0])
    verdict = ("injective-at-truncation"
               if sigma_min > 100.0 * cfg.tol_quadrature else "not-certified")
    baselines = {}
    if cfg.n == 1:
        # closed Gaussian integral: ||S(phi x phi*)||_{L2(mu)} = sqrt(1/2)
        baselines["sigma_M1_closed_form"] = float(np.sqrt(0.5))
    return {
        "M": cfg.M,
        "n": cfg.n,
        "lambda": cfg.lam,
        "grid": {"L": grid.L, "G": grid.G, "h": grid.h, "density": grid.density},
        "sigma_min": sigma_min,
        "sigma_max": sigma_max,
        "cond": sigma_max / sigma_min if sigma_min > 0 else float("inf"),
        "verdict": verdict,
        "baselines": baselines,
    }
