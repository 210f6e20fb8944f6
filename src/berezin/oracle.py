"""Independent brute-force reference implementations for validation.

Everything here exists to cross-check the fast paths and deliberately shares no
quadrature code with them: basis functions come from scipy.special.eval_hermite
instead of the in-package recurrence, integrals use Gauss-Hermite nodes or
one Riemann sum on PositionGrid (riemann_sum, behind both
oracle_matrix_element and schroedinger.ambiguity_batch), and Fourier
transforms are literal dense sums.
The covariant symbol, frame operator and symbol-map SVD, which the main path
takes from Gauss-Hermite node samples, are read here off the coherent table,
one grid point per row; the coefficient map off displacement_1d; the
symbol map's singular values in closed form, one Gauss-Laguerre factor per
rotation charge (analytic_singular_values, 4e-10 relative at M = 16).
Oracles may be orders of magnitude slower by design; cost-guarded operations
refuse oversized inputs rather than degrade.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np
import scipy  # scipy.special loads on the first oracle call

from .core import (GridFunction, HermiteState, ModelConfig, OperatorMatrix,
                   _refuse_over_guard)
from .heisenberg import HeisenbergElement
from .schroedinger import RepresentationContext, displacement_1d

_MAX_MODE = 64  # eval_hermite values stay inside float64 range up to here
_GH_ORDER = 180  # nodes of gauss_hermite_matrix_element's rule
_MAP_LIMIT = 2 ** 26  # max complex entries of table_symbol_map's working set


def _position_bounds(cfg: ModelConfig) -> tuple[float, float]:
    """(R, s) of PositionGrid: R is 10 Gaussian decay lengths past the top
    mode's turning point sqrt((2M+1)/lam), as each integrand holds one
    undisplaced mode below M; s resolves that mode's sqrt(lam(2M+1)) and
    the grid's largest modulation frequency lam*L, with margin."""
    lam, M, L = cfg.lam, cfg.M, cfg.L
    return (float(np.sqrt((2 * M + 1) / lam) + 10.0 / np.sqrt(lam)),
            float(min(0.2 / np.sqrt(lam * (2 * M + 1)),
                      np.pi / (5.0 * lam * L))))


@dataclass(frozen=True)
class PositionGrid:
    """1D position grid t = s * (-K..K), t = 0 among its points, of the
    position-space Riemann sum (riemann_sum); for_config meets
    _position_bounds: R at least, s at most."""

    t: np.ndarray
    s: float
    R: float

    @staticmethod
    def for_config(cfg: ModelConfig) -> "PositionGrid":
        R, s = _position_bounds(cfg)
        K = int(np.ceil(R / s))
        return PositionGrid(t=s * np.arange(-K, K + 1), s=s, R=K * s)


def hermite_basis_value(lam: float, m: int, t: np.ndarray) -> np.ndarray:
    """e_m(t) via scipy's physicists' Hermite polynomial, explicit normalization."""
    if m > _MAX_MODE:
        raise ValueError("mode index beyond oracle overflow guard")
    y = np.sqrt(lam) * np.asarray(t, dtype=float)
    norm = lam ** 0.25 / np.sqrt(2.0 ** m * factorial(m) * np.sqrt(np.pi))
    return norm * scipy.special.eval_hermite(m, y) * np.exp(-y * y / 2.0)


def synthesize(coeffs: np.ndarray, t: np.ndarray, lam: float) -> np.ndarray:
    """Values sum_m coeffs[m] e_m(t) at points t of any shape (n = 1).

    coeffs is a vector (values of shape t.shape) or an (M, k) matrix, one
    state per column (values of shape t.shape + (k,)).  Only the modes with a
    nonzero coefficient are evaluated, each by hermite_basis_value.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    out = np.zeros(np.shape(t) + coeffs.shape[1:], dtype=complex)
    for m in np.flatnonzero(coeffs.reshape(len(coeffs), -1).any(axis=1)):
        out += np.multiply.outer(hermite_basis_value(lam, m, t), coeffs[m])
    return out


def riemann_sum(cfg: ModelConfig, a, b, F: np.ndarray,
                window: np.ndarray) -> np.ndarray:
    """(u | pi([a,b,0]) v) for every a in `a`, b in `b` and u in F (n = 1).

    F holds the coefficients of the states u (a vector or (M, nf) columns),
    window those of v; both are synthesized on PositionGrid.for_config(cfg),
    v at the shifted points t - a, and

      (u | pi([a,b,0]) v) = e^{-i lam a b/2} s sum_p u(t_p) conj(v(t_p - a))
                            e^{+i lam b t_p}

    is one matmul with the (Gb, Np) table e^{i lam b t_p} for every (a, u)
    pair.  Returns (Ga, Gb, nf).  Refuses up front, by _refuse_over_guard, a
    count of the u values, the (Ga, Np, nf) product, the shifted v values and
    one more (Ga, Np) array to synthesize them, the phase table and the output.
    """
    a, b = (np.asarray(x, dtype=float).ravel() for x in (a, b))
    lam, pos = cfg.lam, PositionGrid.for_config(cfg)
    t = pos.t
    F = np.asarray(F).reshape(cfg.M, -1)
    Np, nf = t.size, F.shape[1]
    _refuse_over_guard("Riemann sum", a.size * b.size,
                       Np * nf + a.size * Np * (nf + 2) + b.size * Np
                       + a.size * b.size * nf)
    vshift = np.conj(synthesize(window, t - a[:, None], lam))
    Z = np.matmul(np.exp(1j * lam * np.outer(b, t)),
                  vshift[:, :, None] * synthesize(F, t, lam))
    Z *= pos.s * np.exp(-1j * lam * np.outer(a, b) / 2.0)[:, :, None]
    return Z


def oracle_matrix_element(cfg: ModelConfig, g: HeisenbergElement,
                          j: int, k: int) -> complex:
    """(pi(g) e_k | e_j) = e^{i lam c} conj(riemann_sum(e_j, e_k)) (n = 1).

    This is the (j, k) entry of the representation matrix: the coefficient of
    e_j in pi(g) e_k.  For central g = [0,0,c] and j = k it returns e^{i lam c}.
    """
    if cfg.n != 1:
        raise ValueError("oracle matrix elements are implemented for n = 1")
    if max(j, k) >= cfg.M:  # the grid resolves modes below M only
        raise ValueError("oracle matrix elements take modes below M")
    e = np.eye(cfg.M)
    z = riemann_sum(cfg, g.a[0], g.b[0], e[j], e[k])[0, 0, 0]
    return complex(np.exp(1j * cfg.lam * g.c) * np.conj(z))


@lru_cache(maxsize=1)
def _hermgauss() -> tuple[np.ndarray, np.ndarray]:
    """The _GH_ORDER Gauss-Hermite nodes and weights, built once, read-only."""
    u, w = np.polynomial.hermite.hermgauss(_GH_ORDER)
    u.flags.writeable = False
    w.flags.writeable = False
    return u, w


def gauss_hermite_matrix_element(cfg: ModelConfig, g: HeisenbergElement,
                                 j: int, k: int) -> complex:
    """(pi(g) e_k | e_j) by Gauss-Hermite quadrature (n = 1).

    Completing the square in e_j(t) e_k(t-a) leaves weight e^{-u^2} around
    u = sqrt(lam) t - atil/2 with atil = sqrt(lam) a:

      (pi(g)e_k|e_j) = e^{i lam (c + ab/2)} e^{-lam a^2/4}
          * int e^{-u^2} N_j H_j(u + atil/2) N_k H_k(u - atil/2)
                e^{-i sqrt(lam) b (u + atil/2)} du / sqrt(pi-free norms)

    evaluated on hermgauss nodes.  An error profile independent of the
    Riemann sum.
    """
    if cfg.n != 1:
        raise ValueError("oracle matrix elements are implemented for n = 1")
    if j > _MAX_MODE or k > _MAX_MODE:
        raise ValueError("mode index beyond oracle overflow guard")
    lam = cfg.lam
    a, b, c = float(g.a[0]), float(g.b[0]), g.c
    u, w = _hermgauss()
    atil = np.sqrt(lam) * a
    nj = 1.0 / np.sqrt(2.0 ** j * factorial(j) * np.sqrt(np.pi))
    nk = 1.0 / np.sqrt(2.0 ** k * factorial(k) * np.sqrt(np.pi))
    vals = (scipy.special.eval_hermite(j, u + atil / 2.0)
            * scipy.special.eval_hermite(k, u - atil / 2.0)
            * np.exp(-1j * np.sqrt(lam) * b * (u + atil / 2.0)))
    integral = np.sum(w * vals)
    return complex(np.exp(1j * lam * (c + 0.5 * a * b))
                   * np.exp(-lam * a * a / 4.0) * nj * nk * integral)


def displacement_element(lam: float, a: float, b: float, c: float,
                         j: int, k: int) -> complex:
    """Closed-form (pi([a,b,c]) e_k | e_j) for n = 1.

    With w = sqrt(lam/2)(a + ib),

      (pi(g)e_k|e_j) = e^{i lam c} e^{-|w|^2/2} sqrt(j! k!)
          * sum_r conj(w)^{j-r} (-w)^{k-r} / (r! (j-r)! (k-r)!).

    Acceptance cross-check only (n = 1, small j, k); the main path never uses it.
    """
    w = np.sqrt(lam / 2.0) * (a + 1j * b)
    total = 0.0 + 0.0j
    for r in range(min(j, k) + 1):
        total += (np.conj(w) ** (j - r) * (-w) ** (k - r)
                  / (factorial(r) * factorial(j - r) * factorial(k - r)))
    pref = np.exp(1j * lam * c) * np.exp(-abs(w) ** 2 / 2.0)
    return complex(pref * np.sqrt(float(factorial(j) * factorial(k))) * total)


def table_covariant_symbol(ctx: RepresentationContext,
                           A: OperatorMatrix) -> GridFunction:
    """(A phi_{x_k} | phi_{x_k}) read row by row off the coherent table.

    Oracle of symbols.covariant_symbol: every grid value comes from the
    Bargmann columns at that grid point, with no interpolation, so tail
    values keep their relative accuracy.  Holds the (G^{2n}, M^n) table.
    """
    C = ctx.coherent_table()
    V = C @ A.entries
    np.conjugate(V, out=V)  # conj(sum V conj(C)) without copying the table
    vals = np.einsum("km,km->k", V, C).conj()
    return GridFunction(grid=ctx.grid, values=vals)


def table_frame_operator(ctx: RepresentationContext) -> np.ndarray:
    """W = density * cell_weight * C* C from the coherent table C.

    Oracle of symbols.frame_operator, which never builds the table.
    """
    C = ctx.coherent_table()
    return ctx.grid.density * ctx.grid.cell_weight * (C.conj().T @ C)


def table_symbol_map(ctx: RepresentationContext) -> tuple[np.ndarray, np.ndarray]:
    """(G^{2n}, M^{2n}) symbol map off the coherent table and its singular
    values: column (i * dim + j) is sqrt(density * cell_weight) S(e_i (x) e_j*)
    over the grid.  Oracle of symbols.build_symbol_map.  The count refused
    over _MAP_LIMIT is the map, the coherent table and the larger of the
    table's conjugate and the SVD's copy of the map (coherent_table guards
    its own construction).
    """
    grid, dim = ctx.grid, ctx.cfg.dim
    _refuse_over_guard("table symbol map", grid.num_points,
                       grid.num_points * dim * (2 * dim + 1), _MAP_LIMIT)
    C = ctx.coherent_table()
    entries = np.einsum("ki,kj->kij", C, C.conj()).reshape(C.shape[0], -1)
    entries *= np.sqrt(grid.density * grid.cell_weight)
    return entries, np.linalg.svd(entries, compute_uv=False)


def table_coefficient_map(ctx: RepresentationContext, f: HermiteState,
                          phi: HermiteState) -> GridFunction:
    """(f | pi(x) phi) = sum_{m,j} f_m conj(phi_j) prod_k T[m_k, j_k, a_k, b_k],
    T = conj(displacement_1d) at every grid point: no interpolation.  Oracle of
    transforms.coefficient_map.  T is built one a-row at a time, whose
    displacement_1d holds about 4.5 times that row; the count refused over the
    size guard is T, five rows and twice the output."""
    n, M, G = ctx.cfg.n, ctx.cfg.M, ctx.cfg.G
    _refuse_over_guard("table coefficient map", G ** (2 * n),
                       2 * G ** (2 * n) + (G + 5) * G * M * M)
    lam, ax = ctx.cfg.lam, ctx.grid.axis
    T = np.empty((M, M, G, G), dtype=complex)  # contracted axes first: no copy
    for i, a in enumerate(ax):  # displacement_1d's axes (b, m, j) to (m, j, b)
        T[:, :, i] = np.conj(displacement_1d(lam, a, ax, M)).transpose(1, 2, 0)
    X = np.multiply.outer(f.coeffs.reshape((M,) * n),
                          np.conj(phi.coeffs).reshape((M,) * n))
    for k in range(n):  # contract (m_k, j_k), the first m and j left; append
        X = np.tensordot(X, T, axes=([0, n - k], [0, 1]))  # (a_k, b_k)
    X = X.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)))
    return GridFunction(grid=ctx.grid, values=X)


def coherent_overlap_exact(lam: float, a: float, b: float) -> float:
    """|(phi | phi_{(a,b)})| = e^{-lam(a^2+b^2)/4}; the overlap is real positive."""
    return float(np.exp(-lam * (a * a + b * b) / 4.0))


def oracle_double_sum_ft(values: np.ndarray, xi_axis: np.ndarray, x_axis: np.ndarray,
                         orbit_density: float, sign: int = -1) -> np.ndarray:
    """Literal dense evaluation of the discrete orbit Fourier sum.

    out[x] = orbit_density * eta^{2n} * sum_xi exp(sign * i <xi, x>) values[xi],
    applied axis by axis with dense G x G phase matrices (no FFT anywhere).
    values has shape (G,)*2n.  Cost guard: G <= 32 per axis.
    """
    G = values.shape[0]
    if G > 32:
        raise ValueError("double-sum oracle limited to G <= 32 per axis")
    if any(s != G for s in values.shape):
        raise ValueError("expected a (G,)*2n hypercube of samples")
    eta = float(xi_axis[1] - xi_axis[0])
    E = np.exp(sign * 1j * np.outer(x_axis, xi_axis))
    out = values.astype(complex)
    ndim = values.ndim
    for axis in range(ndim):
        out = np.moveaxis(np.tensordot(E, np.moveaxis(out, axis, 0), axes=([1], [0])),
                          0, axis)
    return orbit_density * eta ** ndim * out


def analytic_singular_values(M: int) -> np.ndarray:
    """Descending singular values of the truncated symbol map (n = 1).

    S(e_i (x) e_j*)(x) = e^{-lam|x|^2/2} w^i conj(w)^j / sqrt(i! j!), so the
    L2(mu) Gram of the columns splits by charge d = i - j into blocks D H D
    of size K = M - |d|, D = diag(1/sqrt(a! (a+|d|)!)), a = min(i, j), and
    H[a, b] = (a+b+|d|)! / 2^(a+b+|d|+1), the moments of t^|d| e^(-2t) on
    [0, inf): lambda drops out.  The K-point Gauss-Laguerre rule (s, w) of
    s^|d| e^(-s) is exact on them, so F[k, a] = sqrt(w_k / 2^(|d|+1))
    (s_k/2)^a D[a] has F^T F = D H D: the block's singular values, with no
    squared condition number.  Charges d and -d share them.  sigma_min holds
    2e-14, 4e-13, 4e-10, 2e-6, 4e-4 relative at M = 8, 12, 16, 24, 32.
    """
    sv = []
    for d in range(M):
        s, w = scipy.special.roots_genlaguerre(M - d, d)
        a = np.arange(M - d)
        F = np.exp(0.5 * (np.log(w) - (d + 1) * np.log(2.0))[:, None]
                   + np.log(s / 2.0)[:, None] * a
                   - 0.5 * (scipy.special.gammaln(a + 1)
                            + scipy.special.gammaln(a + d + 1)))
        sv += [np.linalg.svd(F, compute_uv=False)] * (1 if d == 0 else 2)
    return np.sort(np.concatenate(sv))[::-1]
