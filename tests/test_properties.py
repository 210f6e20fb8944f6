"""Property tests: group law, coadjoint action, displacement adjoints,
orbit-FFT unitarity.

Hypothesis runs derandomized with few examples, so these stay deterministic
and fast.
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from berezin import (HeisenbergElement, OrbitPoint, PhaseGrid, base_point,
                     coadjoint, fourier_orbit, identity_element, inverse,
                     inverse_fourier_orbit, multiply, orbit_preimage)
from berezin.schroedinger import displacement_1d
from berezin.transforms import OrbitGridFunction

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None,
                    database=None)
coord = st.floats(-6.0, 6.0, allow_nan=False)


@st.composite
def elements(draw, count):
    n = draw(st.integers(1, 3))
    vec = st.lists(coord, min_size=n, max_size=n)
    return [HeisenbergElement(draw(vec), draw(vec), draw(coord))
            for _ in range(count)]


def _assert_close(g, h):
    np.testing.assert_allclose(g.a, h.a, rtol=0, atol=1e-13)
    np.testing.assert_allclose(g.b, h.b, rtol=0, atol=1e-13)
    assert abs(g.c - h.c) <= 1e-12


@PROPERTY
@given(elements(3))
def test_group_law_is_associative(gs):
    g, h, k = gs
    _assert_close(multiply(multiply(g, h), k), multiply(g, multiply(h, k)))


@PROPERTY
@given(elements(1))
def test_inverse_is_two_sided(gs):
    g, = gs
    e = identity_element(g.n)
    _assert_close(multiply(g, inverse(g)), e)
    _assert_close(multiply(inverse(g), g), e)


@st.composite
def acting_on_a_point(draw):
    """Two group elements and an orbit point of the same dimension."""
    g, h = draw(elements(2))
    vec = st.lists(coord, min_size=g.n, max_size=g.n)
    return g, h, OrbitPoint(draw(vec), draw(vec), draw(coord))


def _assert_same_point(xi, eta, atol):
    np.testing.assert_allclose(xi.alpha, eta.alpha, rtol=0, atol=atol)
    np.testing.assert_allclose(xi.beta, eta.beta, rtol=0, atol=atol)
    assert xi.gamma == eta.gamma


@PROPERTY
@given(acting_on_a_point())
def test_coadjoint_is_an_action(args):
    g, h, xi = args
    _assert_same_point(coadjoint(multiply(g, h), xi),
                       coadjoint(g, coadjoint(h, xi)), 1e-13)
    _assert_same_point(coadjoint(identity_element(xi.n), xi), xi, 0.0)


@PROPERTY
@given(st.integers(1, 3), st.data())
def test_orbit_preimage_moves_the_base_point_to_its_target(n, data):
    lam = data.draw(st.sampled_from([-1.0, 1.0])) \
        * data.draw(st.floats(0.25, 4.0))
    vec = st.lists(coord, min_size=n, max_size=n)
    t = OrbitPoint(data.draw(vec), data.draw(vec), lam)
    _assert_same_point(coadjoint(orbit_preimage(t), base_point(n, lam)), t,
                       1e-14)


@PROPERTY
@given(st.floats(0.25, 4.0), coord, coord, st.integers(1, 32))
def test_displacement_of_negated_point_is_adjoint(lam, a, b, M):
    D = displacement_1d(lam, a, b, M)
    np.testing.assert_array_equal(displacement_1d(lam, -a, -b, M), D.conj().T)


@PROPERTY
@given(st.sampled_from([(1, G) for G in range(2, 33, 2)]
                       + [(2, G) for G in range(2, 13, 2)]),
       st.floats(0.25, 4.0), st.floats(1.0, 20.0), st.integers(0, 2 ** 32 - 1))
def test_fourier_orbit_is_unitary(shape, lam, L, seed):
    n, G = shape
    grid = PhaseGrid(n=n, lam=lam, L=L, G=G)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.num_points) \
        + 1j * rng.standard_normal(grid.num_points)
    a = OrbitGridFunction(grid=grid, values=v)
    F = fourier_orbit(a)
    assert abs(F.norm() - a.norm()) <= 1e-12 * a.norm()
    np.testing.assert_allclose(inverse_fourier_orbit(F).values, v,
                               rtol=0, atol=1e-12 * np.abs(v).max())
