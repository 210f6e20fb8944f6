"""Exact Heisenberg group and coadjoint-orbit operations.

Elements [a, b, c] multiply by
    [a, b, c] [a', b', c'] = [a + a', b + b', c + c' + (a . b' - a' . b)/2],
no truncation parameters enter anywhere in this module, so the algebraic
property tests downstream are exact up to float rounding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _vec(x, n: int | None = None) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError("expected a scalar or 1D vector")
    if not np.isfinite(v).all():
        raise ValueError("non-finite entries")
    if n is not None and v.size != n:
        raise ValueError("dimension mismatch")
    return v


@dataclass(frozen=True)
class HeisenbergElement:
    """Group element [a, b, c] with a, b real n-vectors and c a real scalar."""

    a: np.ndarray
    b: np.ndarray
    c: float

    def __init__(self, a, b, c: float = 0.0):
        a = _vec(a)
        b = _vec(b, a.size)
        if not np.isfinite(c):
            raise ValueError("non-finite central coordinate")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", float(c))

    @property
    def n(self) -> int:
        return self.a.size

    def as_list(self) -> list:
        return [self.a.tolist(), self.b.tolist(), self.c]


@dataclass(frozen=True)
class OrbitPoint:
    """Functional alpha . X* + beta . Y* + gamma Z* on the Lie algebra."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: float

    def __init__(self, alpha, beta, gamma: float):
        alpha = _vec(alpha)
        beta = _vec(beta, alpha.size)
        if not np.isfinite(gamma):
            raise ValueError("non-finite gamma")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", float(gamma))

    @property
    def n(self) -> int:
        return self.alpha.size


@dataclass(frozen=True)
class PhasePoint:
    """Point (a, b) of the flat phase space R^{2n}."""

    a: np.ndarray
    b: np.ndarray

    def __init__(self, a, b):
        a = _vec(a)
        b = _vec(b, a.size)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.size

    def sup_norm(self) -> float:
        return float(max(np.abs(self.a).max(), np.abs(self.b).max()))

    def as_element(self, c: float = 0.0) -> HeisenbergElement:
        return HeisenbergElement(self.a, self.b, c)


def identity_element(n: int) -> HeisenbergElement:
    return HeisenbergElement(np.zeros(n), np.zeros(n), 0.0)


def multiply(g: HeisenbergElement, h: HeisenbergElement) -> HeisenbergElement:
    if g.n != h.n:
        raise ValueError("dimension mismatch")
    twist = 0.5 * (float(g.a @ h.b) - float(h.a @ g.b))
    return HeisenbergElement(g.a + h.a, g.b + h.b, g.c + h.c + twist)


def inverse(g: HeisenbergElement) -> HeisenbergElement:
    # the twist term is antisymmetric, so negation inverts exactly
    return HeisenbergElement(-g.a, -g.b, -g.c)


def coadjoint(g: HeisenbergElement, xi: OrbitPoint) -> OrbitPoint:
    """Coadjoint action: alpha += gamma*b, beta -= gamma*a, gamma fixed."""
    if g.n != xi.n:
        raise ValueError("dimension mismatch")
    return OrbitPoint(xi.alpha + xi.gamma * g.b, xi.beta - xi.gamma * g.a, xi.gamma)


def base_point(n: int, lam: float) -> OrbitPoint:
    """The functional lam * Z* whose orbit is the flat orbit at height lam."""
    return OrbitPoint(np.zeros(n), np.zeros(n), lam)


def orbit_preimage(target: OrbitPoint) -> HeisenbergElement:
    """Element g with coadjoint(g, lam*Z*) = target; exists iff gamma != 0."""
    if target.gamma == 0.0:
        raise ValueError("gamma = 0 functionals are fixed points, no preimage")
    a = -target.beta / target.gamma
    b = target.alpha / target.gamma
    return HeisenbergElement(a, b, 0.0)


def project_to_phase(g: HeisenbergElement) -> PhasePoint:
    """Drop the central coordinate: [a, b, c] -> (a, b)."""
    return PhasePoint(g.a, g.b)
