"""Property tests: group law, displacement adjoints, orbit-FFT unitarity.

Hypothesis runs derandomized with few examples, so these stay deterministic
and fast.
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from berezin import (HeisenbergElement, PhaseGrid, fourier_orbit,
                     identity_element, inverse, inverse_fourier_orbit,
                     multiply)
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
