"""Reproducing kernel, full/covariant symbols, identity residuals, injectivity.

Conventions (linear in the first slot of every inner product):
  kernel(x, y)          = (phi_y | phi_x)   the reproducing kernel of Ran V,
                          so kernel(., y) = V phi_y and f(y) = (Vf | V phi_y).
  full_symbol(A, x, y)  = (A phi_y | phi_x)
  covariant_symbol(A)   = x -> (A phi_x | phi_x)
The quadrature rule behind every integral identity is the grid measure
density * cell_weight; its resolution-of-identity defect
W - I = density * cell_weight * C* C - I (C the coherent coefficient table)
is ~1e-15 on default grids (closed-form table; only the grid sum errs)
and controls every residual below.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (GridFunction, HermiteState, OperatorMatrix, TruncationError,
                   inner_l2, hs_inner)
from .heisenberg import HeisenbergElement, PhasePoint, project_to_phase
from .schroedinger import (RepresentationContext, coherent_state,
                           gaussian_vector, rep_matrix)
from .transforms import coefficient_map


def frame_operator(ctx: RepresentationContext) -> np.ndarray:
    """W = density * cell_weight * C* C, the discrete resolution of identity."""
    C = ctx.coherent_table()
    dd = ctx.grid.density * ctx.grid.cell_weight
    return dd * (C.conj().T @ C)


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
    cx = coherent_state(ctx, x).coeffs
    cy = coherent_state(ctx, y).coeffs
    direct = complex(np.vdot(cx, A.entries @ cy))
    Acy = A.entries @ cy
    total = 0.0 + 0.0j
    for j in range(ctx.cfg.dim):
        ve_x = np.conj(cx[j])          # (e_j | phi_x)
        va_y = np.conj(Acy[j])         # (A* e_j | phi_y) = conj((A phi_y)_j)
        total += ve_x * np.conj(va_y)
    return float(abs(direct - total))


def reconstruct(ctx: RepresentationContext, A: OperatorMatrix,
                f: HermiteState, x: PhasePoint) -> complex:
    """Quadrature of (Af)(x) = int full_symbol(A, x, y) (Vf)(y) dmu(y).

    Agrees with the direct matrix action (V(Af))(x) up to the resolution
    defect ||W - I|| ~ 1e-15 times ||A|| ||f||.
    """
    if A.dim != ctx.cfg.dim or f.dim != ctx.cfg.dim:
        raise ValueError("dimension mismatch")
    C = ctx.coherent_table()
    cx = coherent_state(ctx, x).coeffs
    dd = ctx.grid.density * ctx.grid.cell_weight
    smoothed = dd * (C.conj().T @ (C @ f.coeffs))  # = W f
    return complex(np.vdot(cx, A.entries @ smoothed))


def covariant_symbol(ctx: RepresentationContext, A: OperatorMatrix) -> GridFunction:
    """values_k = (A phi_{x_k} | phi_{x_k}) over the whole grid."""
    if A.dim != ctx.cfg.dim:
        raise ValueError("operator dimension mismatch")
    C = ctx.coherent_table()
    V = C @ A.entries
    np.conjugate(V, out=V)  # conj(sum V conj(C)) without copying the table
    vals = np.einsum("km,km->k", V, C).conj()
    return GridFunction(grid=ctx.grid, values=vals)


def trace_identity_residual(ctx: RepresentationContext, A: OperatorMatrix) -> float:
    """|trace(A) - int covariant_symbol(A) dmu|."""
    vals = covariant_symbol(ctx, A).values
    dd = ctx.grid.density * ctx.grid.cell_weight
    return float(abs(np.trace(A.entries) - dd * np.sum(vals)))


def hs_identity_residual(ctx: RepresentationContext, A: OperatorMatrix) -> float:
    """|hs_inner(A, A) - double quadrature of |full_symbol|^2 over mu x mu|.

    The double sum collapses: sum_{k,l} |C_k A C_l*|^2 (dd)^2 = Tr(W A W A*),
    one W per quadrature variable, so the evaluation is O(G^{2n} M^{2n})
    instead of O(G^{4n}).
    """
    W = frame_operator(ctx)
    quad = np.trace(W @ A.entries @ W @ A.entries.conj().T)
    return float(abs(hs_inner(A, A) - quad))


def covariance_residual(ctx: RepresentationContext, A: OperatorMatrix,
                        g: HeisenbergElement) -> float:
    """Deviation of S(pi(g)* A pi(g))(z) from S(A)(x.z), x = phase part of g.

    g must be grid-commensurate: its displacement an integer multiple of the
    grid step per axis (the central coordinate is free).  The max runs over
    grid points z with both z and x.z inside the sup-norm box L/2.
    """
    cfg, grid = ctx.cfg, ctx.grid
    h = grid.h
    steps = np.concatenate([np.asarray(g.a) / h, np.asarray(g.b) / h])
    rounded = np.round(steps)
    if np.abs(steps - rounded).max() > 1e-9:
        raise ValueError("displacement is not grid-commensurate: steps %s" %
                         np.array2string(steps, precision=6))
    x = project_to_phase(g)
    if x.sup_norm() > cfg.L / 2:
        raise TruncationError("covariance displacement exceeds L/2")
    R = rep_matrix(ctx, g).entries
    B = OperatorMatrix(R.conj().T @ A.entries @ R)
    SB = covariant_symbol(ctx, B).reshape()
    SA = covariant_symbol(ctx, A).reshape()
    ax = grid.axis
    G = grid.G
    idx, idx_shift = [], []
    for d in (int(v) for v in rounded):
        k = np.arange(G)
        ok = (k + d >= 0) & (k + d < G)
        k = k[ok]
        ok = (np.abs(ax[k]) <= cfg.L / 2) & (np.abs(ax[k + d]) <= cfg.L / 2)
        k = k[ok]
        idx.append(k)
        idx_shift.append(k + d)
    if any(k.size == 0 for k in idx):
        raise ValueError("no valid evaluation points for this displacement")
    diff = SB[np.ix_(*idx)] - SA[np.ix_(*idx_shift)]
    return float(np.abs(diff).max())


@dataclass
class SymbolMapMatrix:
    """Matrix of the symbol map on matrix units, with its singular values.

    Row k, column (i * dim + j) holds sqrt(density * cell_weight) times
    S(e_i (x) e_j*)(x_k), so column ell-2 norms equal L2(mu) norms and the
    singular values are those of S against the discrete L2(mu) pairing.
    """

    entries: np.ndarray
    singular_values: np.ndarray


def build_symbol_map(ctx: RepresentationContext) -> SymbolMapMatrix:
    cfg, grid = ctx.cfg, ctx.grid
    dim = cfg.dim
    if dim * dim > grid.num_points:
        raise ValueError(
            "under-determined configuration: (M^n)^2 = %d columns exceed %d "
            "grid points" % (dim * dim, grid.num_points))
    if grid.num_points * dim * dim > 2 ** 26:
        raise MemoryError("symbol map matrix would exceed the size guard; "
                          "reduce M or G")
    C = ctx.coherent_table()
    w = np.sqrt(grid.density * grid.cell_weight)
    entries = w * np.einsum("ki,kj->kij", C, C.conj()).reshape(
        grid.num_points, dim * dim)
    sv = np.linalg.svd(entries, compute_uv=False)
    return SymbolMapMatrix(entries=entries, singular_values=sv)


def injectivity_report(ctx: RepresentationContext) -> dict:
    """Singular-value certificate for injectivity of the truncated symbol map.

    verdict is "injective-at-truncation" iff sigma_min clears quadrature noise
    by two orders: sigma_min > 100 * tol_quadrature.
    """
    cfg, grid = ctx.cfg, ctx.grid
    sv = build_symbol_map(ctx).singular_values
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
