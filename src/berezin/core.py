"""Configuration, phase-space grid, and the basic state/operator containers.

Everything downstream (representation, transforms, symbols) works on one shared
phase-space discretization: a uniform tensor grid on [-L, L)^{2n} carrying the
normalized measure density * Lebesgue with density = (lambda/(2*pi))**n.
Samples on it and on the orbit's lattice are one type, GridFunction, whose
axis and weight give the lattice; inner_l2 pairs samples on one lattice.  States
live in a lambda-scaled Hermite basis truncated to M modes per axis, operators
are dense (M**n x M**n) matrices in that basis.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from math import isfinite, prod
from numbers import Integral, Real

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration (bad parameter values or grid resolution bounds)."""


class TruncationError(ValueError):
    """Requested evaluation outside the validity region of the truncation."""


# ceilings above any size the guards admit; M ** n, G ** (2n) stay cheap
MAX_N, MAX_M, MAX_G = 12, 4096, 65536
# the largest float: GridFunction._from_nodes refuses half of it
_FLOAT_MAX = float(np.finfo(float).max)
# max complex entries of a grid-sized working set (_refuse_over_guard): each
# count is the arrays its route holds at its peak, cached tables included
_TABLE_LIMIT = 2 ** 24


@dataclass(frozen=True)
class ModelConfig:
    """Physical and numerical parameters.

    n: position dimension (the group has dimension 2n+1).
    lam: scale parameter lambda > 0 of the representation.
    M: Hermite truncation per axis; the truncated space has dimension M**n.
    L: phase-space half-width per axis; None takes default_L(lam, M).
    G: grid points per axis (even).
    tol_identity / tol_quadrature: verification tolerances.
    Every value is checked here and stored as an int (n, M, G) or a float.
    """

    n: int = 1
    lam: float = 1.0
    M: int = 16
    L: float | None = None
    G: int = 128
    tol_identity: float = 1e-6
    tol_quadrature: float = 1e-5

    def __post_init__(self):
        for f in fields(self):  # every type before any bound
            if f.name != "L" or self.L is not None:
                object.__setattr__(self, f.name,
                                   _checked(f.name, getattr(self, f.name)))
        if self.M > MAX_M:
            raise ConfigError("M must not exceed %d" % MAX_M)
        if int(self.M) != self.M or self.M < 1:
            raise ConfigError("M must be a positive integer")
        if self.L is None:  # name a bad lattice field before default_L runs
            _validate_lattice(self.n, self.lam, 1.0, self.G)
            object.__setattr__(self, "L", float(default_L(self.lam, self.M)))
        _validate_lattice(self.n, self.lam, self.L, self.G)
        for key in ("tol_identity", "tol_quadrature"):
            if not 0 < getattr(self, key) < np.inf:
                raise ConfigError("%s must be a positive finite real" % key)
        validate_grid_resolution(self)

    @property
    def dim(self) -> int:
        """Dimension of the truncated state space, M**n."""
        return self.M ** self.n


def default_L(lam: float, M: int) -> float:
    """Half-width covering the phase-space support of the first M Hermite modes."""
    return 4.0 * np.sqrt((2 * M + 1) / lam)


default_config = ModelConfig  # every default is a field default


def _checked(key: str, value) -> int | float:
    """value as a float (for n, M, G an int where integral); ConfigError
    naming the key unless it is a non-bool real (for n, M, G a finite one)."""
    integer = key in ("n", "M", "G")
    if isinstance(value, bool) or not isinstance(value, Real) or (
            integer and not isinstance(value, Integral) and not isfinite(value)):
        raise ConfigError("config key %r must be %s" % (
            "lambda" if key == "lam" else key,
            "an integer" if integer else "a number"))
    try:
        return float(value) if not integer else (
            int(value) if int(value) == value else value)
    except OverflowError:  # an int past the float range: not finite
        return np.inf


def _validate_lattice(n, lam: float, L: float, G) -> None:
    """ConfigError naming the bound unless n >= 1 and even G >= 2 are integers
    under their ceilings and lambda and L positive finite reals."""
    for key, value, ceiling in (("n", n, MAX_N), ("G", G, MAX_G)):
        if value > ceiling:
            raise ConfigError("%s must not exceed %d" % (key, ceiling))
    if int(n) != n or n < 1:
        raise ConfigError("n must be a positive integer")
    if not (lam > 0 and np.isfinite(lam)):
        raise ConfigError("lambda must be a positive finite real")
    if not (L > 0 and np.isfinite(L)):
        raise ConfigError("L must be a positive finite real")
    if int(G) != G or G < 2 or G % 2 != 0:
        raise ConfigError("G must be an even integer >= 2")


def validate_grid_resolution(cfg: ModelConfig) -> None:
    """Both sides of the sampling tradeoff for Gaussian-class integrands.

    Coherent overlaps decay like exp(-lam*|x|^2/4), so the box must satisfy
    exp(-lam*L^2/4) < tol_quadrature or mass leaks past the boundary (grid too
    narrow).  Their bandwidth is ~sqrt(lam), so the step must satisfy
    exp(-pi^2/(lam*h^2)) < tol_quadrature or frequency content aliases (grid
    too coarse).
    """
    lam, L, tol = cfg.lam, cfg.L, cfg.tol_quadrature
    h = 2.0 * L / cfg.G
    edge = np.exp(-lam * L * L / 4.0)
    if not (edge < tol):
        raise ConfigError(
            "grid too narrow: exp(-lambda*L^2/4) = %.3e >= tol_quadrature = %.3e"
            % (edge, tol))
    alias = np.exp(-np.pi ** 2 / (lam * h * h))
    if not (alias < tol):
        raise ConfigError(
            "grid too coarse: exp(-pi^2/(lambda*h^2)) = %.3e >= tol_quadrature = %.3e"
            % (alias, tol))


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform tensor grid on [-L, L)^{2n}, points at (j - G/2)*h per axis, G even.

    Point ordering is row-major over the axes (a_1..a_n, b_1..b_n).  The grid
    carries the normalized measure density * Lebesgue; one cell contributes
    density * cell_weight to integrals.
    """

    n: int
    lam: float
    L: float
    G: int

    def __post_init__(self):
        for key in ("n", "lam", "L", "G"):
            object.__setattr__(self, key, _checked(key, getattr(self, key)))
        _validate_lattice(self.n, self.lam, self.L, self.G)

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.G

    @property
    def axis(self) -> np.ndarray:
        return (np.arange(self.G) - self.G // 2) * self.h

    @property
    def cell_weight(self) -> float:
        return self.h ** (2 * self.n)

    @property
    def density(self) -> float:
        return (self.lam / (2.0 * np.pi)) ** self.n

    @property
    def num_points(self) -> int:
        return self.G ** (2 * self.n)

    @property
    def shape(self) -> tuple:
        return (self.G,) * (2 * self.n)

    def points(self) -> np.ndarray:
        """(num_points, 2n) array of grid points, row-major axis order."""
        axes = np.meshgrid(*([self.axis] * (2 * self.n)), indexing="ij")
        return np.stack([ax.ravel() for ax in axes], axis=-1)

    @property
    def total_measure(self) -> float:
        return self.density * (2.0 * self.L) ** (2 * self.n)


def build_grid(cfg: ModelConfig) -> PhaseGrid:
    """Phase-space grid for a configuration (validated at construction)."""
    return PhaseGrid(n=cfg.n, lam=cfg.lam, L=cfg.L, G=cfg.G)


@dataclass
class HermiteState:
    """Vector in the truncated state space, coefficients in the Hermite basis.

    For n > 1 the basis is the tensor product, multi-indices in row-major
    order over (m_1, ..., m_n).
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex).ravel()
        if not np.isfinite(c).all():
            raise ValueError("non-finite coefficients")
        object.__setattr__(self, "coeffs", c)

    @property
    def dim(self) -> int:
        return self.coeffs.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def inner(self, other: "HermiteState") -> complex:
        """(self | other), linear in self, conjugate-linear in other."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return complex(np.vdot(other.coeffs, self.coeffs))


def basis_state(dim: int, j: int) -> HermiteState:
    c = np.zeros(dim, dtype=complex)
    c[j] = 1.0
    return HermiteState(c)


@dataclass
class OperatorMatrix:
    """Dense operator on the truncated space, matrix in the Hermite basis.

    entries[m, k] is the coefficient of basis vector m in the image of basis
    vector k, so matrix-vector products act directly on HermiteState coeffs.
    """

    entries: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("operator matrix must be square")
        if not np.isfinite(a).all():
            raise ValueError("non-finite entries")
        if self.hermitian and np.abs(a - a.conj().T).max() > 1e-12:
            raise ValueError("hermitian flag set but entries are not hermitian")
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def apply(self, f: HermiteState) -> HermiteState:
        if f.dim != self.dim:
            raise ValueError("dimension mismatch")
        return HermiteState(self.entries @ f.coeffs)

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(self.entries.conj().T, hermitian=self.hermitian)


def identity_operator(dim: int) -> OperatorMatrix:
    return OperatorMatrix(np.eye(dim, dtype=complex), hermitian=True)


def rank_one(u: HermiteState, v: HermiteState) -> OperatorMatrix:
    """u (x) v*: the operator f -> (f|v) u."""
    return OperatorMatrix(np.outer(u.coeffs, v.coeffs.conj()))


def _require_finite(values: np.ndarray) -> None:
    """ValueError unless every real and imaginary part of the (non-empty)
    complex array is finite: min and max of its float view propagate nan and
    reach +-inf, so no grid-sized mask is made and nothing can overflow.
    Node-route samples skip these two passes (GridFunction._from_nodes)."""
    x = values.view(float)
    if not (np.isfinite(x.min()) and np.isfinite(x.max())):
        raise ValueError("non-finite values")


def _refuse_over_guard(name: str, points: int, need: int, limit=None) -> None:
    """MemoryError naming the bound when a working set of `need` complex
    entries on `points` grid points exceeds limit (None: _TABLE_LIMIT)."""
    limit = _TABLE_LIMIT if limit is None else limit
    if need > limit:
        raise MemoryError("%s on %d grid points needs %d complex entries, "
                          "over the size guard of %d; reduce G or M"
                          % (name, points, need, limit))


def _expansion_need(N: int, G: int, n: int) -> int:
    """Complex entries of _expand_nodes's largest step by a (G, N) factor:
    the node tensor and the step's input and output (the first step's input
    is the tensor's copy in grid order, freed once that step is done)."""
    nodes = N ** (2 * n)
    return max(2 * nodes + nodes // N * G,
               nodes + (N + G) * G * max(N, G) ** (2 * n - 2))


def _expand_nodes(S: np.ndarray, B: np.ndarray, n: int) -> np.ndarray:
    """Node values S, axes (a_1 b_1 a_2 b_2 ..), carried to the grid by the
    (G, N) factor B on every axis, returned contiguous in grid order
    (a_1..a_n, b_1..b_n).

    Each axis is one matmul, (outer, N, inner) -> (outer, G, inner): the axis
    is contracted in place, with no transposed copy.  A real B (the
    interpolation matrix) meets the float view of the tensor, inner counting
    two floats per entry, so B is never cast to complex; a complex B (the
    Wigner side's DFT'd factor) meets the tensor itself.  The last axis goes
    first, while the tensor is smallest.  The grid-order copy of S is bound
    only through X, so it is freed with the first step's input.
    """
    G, N = B.shape
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    shape = [S.shape[i] for i in order]
    X = np.ascontiguousarray(S.transpose(order), dtype=complex).view(B.dtype)
    width = X.size // S.size  # entries per value: 2 floats for a real B
    for axis in reversed(range(2 * n)):
        X = np.matmul(B, X.reshape(prod(shape[:axis]), N,
                                   width * prod(shape[axis + 1:])))
        shape[axis] = G
    return X.view(complex).reshape(shape)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex samples on a lattice, one value per grid point, row-major over
    the 2n axes.  Here the lattice is the phase grid (axis grid.axis with
    step grid.h, weight density * cell_weight, coordinates a and b);
    transforms.OrbitGridFunction overrides all of them.

    _nodes is (S, F) when _from_nodes made the sample from the node tensor
    S and the factor F of every axis (the coefficient map, the covariant
    symbol and the node-route Wigner table).  Its values are then S
    expanded by F (_expand_nodes), computed on their first read and kept,
    read-only (and no field can be rebound), so the two cannot drift apart;
    that read alone counts the expansion (_expansion_need); they are shown
    finite from S and F instead of being scanned
    (_require_finite), and inner_l2 pairs two such samples in node form
    without reading them.  _nodes is not an __init__ argument: only
    _from_nodes sets it.  Samples compare by identity, and repr leaves the
    values out, so neither reads them.
    """

    grid: PhaseGrid
    values: np.ndarray = field(repr=False)
    _nodes: tuple | None = field(default=None, init=False, repr=False)

    coords = ("a", "b")  # names of the axis pair, as write_grid_csv heads them

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex).ravel()
        if v.size != self.grid.num_points:
            raise ValueError("value count does not match grid size")
        _require_finite(v)
        object.__setattr__(self, "values", v)

    @classmethod
    def _from_nodes(cls, grid: PhaseGrid, S: np.ndarray,
                    F: np.ndarray) -> "GridFunction":
        """The sample of this class with _nodes (S, F), S made read-only.

        With s the largest real or imaginary part of S in modulus, read from
        the extremes of its float view (no temporary the size of S), and
        ||F|| the largest absolute row sum of F: a real F expands the real
        and imaginary parts apart, so each part of a value, and of its
        partial sums, is at most s ||F||^{2n}; a complex F mixes them, and
        each value is at most sqrt(2) s ||F||^{2n} in modulus.  Unless that
        bound lies below half the largest float (nan and inf fail the
        test), ValueError("non-finite values"), as __post_init__ raises; so
        the G^{2n} values are never scanned.
        """
        x = S.view(float) if np.iscomplexobj(S) else S
        scale = np.sqrt(2.0) if np.iscomplexobj(F) else 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # inf, nan: refused
            bound = (np.maximum(-x.min(), x.max()) * scale
                     * np.linalg.norm(F, np.inf) ** (2 * grid.n))
        if not bound < _FLOAT_MAX / 2:
            raise ValueError("non-finite values")
        S.flags.writeable = False
        sample = object.__new__(cls)  # the frozen dataclass, without values
        for name, value in (("grid", grid), ("_nodes", (S, F))):
            object.__setattr__(sample, name, value)
        return sample

    def __getattr__(self, name):
        # only a node-route sample lacks values: expand them on first read
        if name != "values" or self._nodes is None:
            raise AttributeError(name)
        (S, F), n = self._nodes, self.grid.n
        _refuse_over_guard("node expansion", self.grid.num_points,
                           _expansion_need(F.shape[1], F.shape[0], n))
        values = _expand_nodes(S, F, n).reshape(-1)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        return values

    @property
    def axis(self) -> np.ndarray:
        return self.grid.axis

    @property
    def step(self) -> float:
        return self.grid.h

    @property
    def weight(self) -> float:
        return self.grid.density * self.grid.cell_weight

    def reshape(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)

    def norm(self) -> float:
        return float(np.sqrt(inner_l2(self, self).real))


def inner_l2(u: GridFunction, v: GridFunction) -> complex:
    """Discrete L2 pairing of samples on one lattice with its measure, linear
    in u; samples of different types or grids sit on different lattices.

    Two node-route samples, u = Su expanded by Fu and v = Sv by Fv, with
    no factor wider than the grid, pair in node form: Su expanded by the
    (Nv, Nu) Gram matrix Fv^H Fu, one matmul per axis, meets Sv, and no
    value is read.  Any other pair takes the vdot of the values (vdot makes
    no grid-sized |v|^2 temporaries).
    """
    if type(u) is not type(v) or u.grid != v.grid:
        raise ValueError("grid mismatch")
    if u._nodes is None or v._nodes is None or max(
            u._nodes[1].shape[1], v._nodes[1].shape[1]) > u.grid.G:
        return complex(u.weight * np.vdot(v.values, u.values))
    (Su, Fu), (Sv, Fv), n = u._nodes, v._nodes, u.grid.n
    X = _expand_nodes(Su, Fv.conj().T @ Fu, n)  # axes in grid order
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return complex(u.weight * np.vdot(Sv.transpose(order), X))


def hs_inner(A: OperatorMatrix, B: OperatorMatrix) -> complex:
    """Hilbert-Schmidt pairing trace(B* A), linear in A."""
    if A.dim != B.dim:
        raise ValueError("dimension mismatch")
    return complex(np.vdot(B.entries, A.entries))


def hermite_columns(t: np.ndarray, M: int, lam: float) -> np.ndarray:
    """Values of the lambda-scaled Hermite basis, shape t.shape + (M,).

    e_m(t) = lam^{1/4} (2^m m! sqrt(pi))^{-1/2} H_m(sqrt(lam) t) e^{-lam t^2/2},
    evaluated by the weighted three-term recurrence (stable: every column stays
    O(1), no separate polynomial/weight overflow).
    """
    t = np.asarray(t, dtype=float)
    y = np.sqrt(lam) * t
    H = np.zeros(t.shape + (M,))
    h0 = (lam / np.pi) ** 0.25 * np.exp(-y * y / 2.0)
    H[..., 0] = h0
    if M > 1:
        H[..., 1] = np.sqrt(2.0) * y * h0
    for m in range(2, M):
        H[..., m] = (np.sqrt(2.0 / m) * y * H[..., m - 1]
                     - np.sqrt((m - 1) / m) * H[..., m - 2])
    return H
