"""Closed-form (Bargmann) coherent table and the coefficient map.

The table is built from e^{-|w|^2/2} w^m / sqrt(m!), for the oracles and
tests only.  The coefficient map, for any n, takes Laguerre recurrences on
the same columns at the Gauss-Hermite node pairs and interpolates them to
the grid; it never builds the table.  The position-space chirp-z quadrature
ambiguity_batch checks both, and oracle.table_coefficient_map, the closed
form at every grid point, checks the map to rounding.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from berezin import (HermiteState, ModelConfig, RepresentationContext,
                     analysis, coefficient_map, default_L, gaussian_vector)
from berezin import schroedinger
from berezin.oracle import table_coefficient_map
from berezin.schroedinger import _bargmann_columns, ambiguity_batch

FLOOR = 2.0 ** -511


def _ctx(lam, M, G, n=1):
    return RepresentationContext(ModelConfig(
        n=n, lam=lam, M=M, L=default_L(lam, M), G=G,
        tol_identity=1e-6, tol_quadrature=1e-5))


def _random_coeffs(rng, M):
    return rng.standard_normal(M) + 1j * rng.standard_normal(M)


def _quadrature_map(ctx, f, phi):
    return ambiguity_batch(ctx, f, phi)[:, :, 0].ravel()


@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("M,G", [(16, 128), (32, 128), (16, 256)])
def test_closed_form_table_matches_quadrature(lam, M, G):
    ctx = _ctx(lam, M, G)
    e0 = np.zeros(M, dtype=complex)
    e0[0] = 1.0
    ref = ambiguity_batch(ctx, np.eye(M), e0).reshape(G * G, M)
    assert np.abs(ctx.coherent_table() - ref).max() < 1e-10


@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("M,G", [(16, 128), (32, 128)])
def test_coefficient_map_matches_quadrature(lam, M, G):
    # M = 32 pins the stable recurrence: expanding (a - conj(w))^j f against
    # the table loses ~3e-4 here
    ctx = _ctx(lam, M, G)
    rng = np.random.default_rng(7)
    f = _random_coeffs(rng, M)
    vac = gaussian_vector(ctx.cfg).coeffs
    partial = _random_coeffs(rng, M)
    partial[M // 3:] = 0.0
    for phi in (vac, _random_coeffs(rng, M), partial):
        got = coefficient_map(ctx, HermiteState(f), HermiteState(phi)).values
        ref = _quadrature_map(ctx, f, phi)
        scale = np.linalg.norm(f) * np.linalg.norm(phi)
        assert np.abs(got - ref).max() < 1e-9 * scale


def test_vacuum_window_matches_table_product():
    ctx = _ctx(1.0, 8, 64)
    f = HermiteState(_random_coeffs(np.random.default_rng(1), 8))
    got = coefficient_map(ctx, f, gaussian_vector(ctx.cfg)).values
    np.testing.assert_allclose(got, ctx.coherent_table() @ f.coeffs,
                               rtol=0, atol=1e-15 * np.linalg.norm(f.coeffs))
    # analysis is the vacuum-window coefficient map, on the same route
    np.testing.assert_array_equal(analysis(ctx, f).values, got)


def test_table_columns_are_the_streamed_columns():
    ctx = _ctx(4.0, 16, 64)
    ax = ctx.grid.axis
    w = np.sqrt(4.0 / 2.0) * (ax[:, None] + 1j * ax[None, :])
    cols = np.stack(list(_bargmann_columns(w.ravel(), 16)), axis=1)
    np.testing.assert_array_equal(ctx.coherent_table(), cols)


def test_coefficient_map_needs_no_table(monkeypatch, no_table):
    # a guard at the table's own size refuses the table (its build
    # temporaries put it over), while the map fits
    ctx = _ctx(1.0, 16, 64)
    monkeypatch.setattr(schroedinger, "_TABLE_LIMIT", 64 * 64 * 16)
    rng = np.random.default_rng(3)
    f, phi = _random_coeffs(rng, 16), _random_coeffs(rng, 16)
    with no_table():
        got = coefficient_map(ctx, HermiteState(f), HermiteState(phi)).values
    with pytest.raises(MemoryError):
        ctx.coherent_table()
    ref = _quadrature_map(ctx, f, phi)
    assert np.abs(got - ref).max() < 1e-9 * np.linalg.norm(f) * np.linalg.norm(phi)


def test_n2_coefficient_map_needs_no_table(no_table):
    ctx = _ctx(1.0, 4, 32, n=2)
    rng = np.random.default_rng(5)
    f, phi = _random_coeffs(rng, 16), _random_coeffs(rng, 16)
    with no_table():
        got = coefficient_map(ctx, HermiteState(f), HermiteState(phi)).values
    ref = table_coefficient_map(ctx, HermiteState(f), HermiteState(phi)).values
    assert np.abs(got - ref).max() < 5e-15 * np.linalg.norm(f) * np.linalg.norm(phi)


@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
def test_coefficient_map_matches_table_oracle(lam):
    # general windows, a partial one stopping the recurrence early, and the
    # vacuum; the node route rounds at the scale of ||f|| ||phi||
    ctx = _ctx(lam, 16, 128)
    rng = np.random.default_rng(8)
    partial = _random_coeffs(rng, 16)
    partial[5:] = 0.0
    for phi in (_random_coeffs(rng, 16), partial, np.eye(16)[0]):
        f = _random_coeffs(rng, 16)
        got = coefficient_map(ctx, HermiteState(f), HermiteState(phi)).values
        ref = table_coefficient_map(ctx, HermiteState(f),
                                    HermiteState(phi)).values
        scale = np.linalg.norm(f) * np.linalg.norm(phi)
        assert np.abs(got - ref).max() < 5e-15 * scale  # measured 8.9e-16


def test_n2_entangled_map_matches_table_oracle():
    ctx = _ctx(1.0, 5, 40, n=2)
    rng = np.random.default_rng(9)
    f, phi = _random_coeffs(rng, 25), _random_coeffs(rng, 25)
    got = coefficient_map(ctx, HermiteState(f), HermiteState(phi)).values
    ref = table_coefficient_map(ctx, HermiteState(f), HermiteState(phi)).values
    scale = np.linalg.norm(f) * np.linalg.norm(phi)
    assert np.abs(got - ref).max() < 5e-15 * scale  # measured 4.2e-16


def _node_route_need(M, G, n, own):
    # the cached node table and B, beside the node stage, the largest
    # expansion step or the output with its finiteness mask
    N = 2 * M - 1
    return 2 * M * N * N + N * G + max(
        own, (2 * N + G) * max(N, G) ** (2 * n - 1), G ** (2 * n) * 17 // 16)


def test_coefficient_map_guard_counts_its_working_set(monkeypatch):
    # n = 2, M = 3, G = 24: the last expansion step, (2N + G) G^3, is the
    # largest term
    ctx = _ctx(1.0, 3, 24, n=2)
    need = _node_route_need(3, 24, 2, 0)
    assert need == 150 + 120 + 34 * 24 ** 3 == 470286
    vac = gaussian_vector(ctx.cfg)
    monkeypatch.setattr(schroedinger, "_TABLE_LIMIT", need - 1)
    with pytest.raises(MemoryError, match="331776 grid points needs %d" % need):
        coefficient_map(ctx, vac, vac)
    monkeypatch.setattr(schroedinger, "_TABLE_LIMIT", need)
    tracemalloc.start()
    try:
        A = coefficient_map(ctx, vac, vac)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert A.values.size == 24 ** 4
    assert peak <= 16 * need  # measured 0.86


def test_coefficient_map_guard_counts_the_node_stage(monkeypatch):
    # n = 2, M = 10, G = 4: the last node step of _map_nodes is the largest
    ctx = RepresentationContext(ModelConfig(
        n=2, lam=1.0, M=10, L=5.0, G=4, tol_identity=1e-6, tol_quadrature=0.9))
    N = 19
    own = (100 + 10 + 2 * N * N) * N * N + 14 * N * N
    need = _node_route_need(10, 4, 2, own)
    assert own > (2 * N + 4) * N ** 3 and need == 7220 + 76 + own == 312702
    f = HermiteState(_random_coeffs(np.random.default_rng(6), 100))
    monkeypatch.setattr(schroedinger, "_TABLE_LIMIT", need - 1)
    with pytest.raises(MemoryError, match="256 grid points needs %d" % need):
        coefficient_map(ctx, f, f)
    monkeypatch.setattr(schroedinger, "_TABLE_LIMIT", need)
    assert coefficient_map(ctx, f, f).values.size == 4 ** 4


def test_coefficient_map_working_set_is_a_few_grid_arrays():
    M, G = 32, 256
    ctx = _ctx(1.0, M, G)
    rng = np.random.default_rng(4)
    f, phi = (HermiteState(_random_coeffs(rng, M)) for _ in range(2))
    tracemalloc.start()
    try:
        coefficient_map(ctx, f, phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured ~8.7 (G, G) complex arrays, whatever M is; the table is M of them
    assert peak <= 12 * G * G * 16


def test_n2_table_rows_are_kronecker_products():
    M, G = 3, 24
    C1 = _ctx(1.0, M, G).coherent_table().reshape(G, G, M)
    C2 = _ctx(1.0, M, G, n=2).coherent_table().reshape(G, G, G, G, M * M)
    rng = np.random.default_rng(2)
    for a1, a2, b1, b2 in rng.integers(0, G, size=(12, 4)):
        row = np.kron(C1[a1, b1], C1[a2, b2])
        row[np.abs(row) < FLOOR] = 0.0
        # tensordot and kron may round the complex product differently
        np.testing.assert_allclose(C2[a1, a2, b1, b2], row, rtol=1e-15, atol=0)


@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
def test_table_has_no_entries_below_floor(lam):
    C = _ctx(lam, 32, 128).coherent_table()
    mod = np.abs(C)
    assert not np.any((mod > 0.0) & (mod < FLOOR))
    assert np.any(mod == 0.0)  # the box corners do underflow the floor
    # so every product of two entries is zero or a normal float
    assert mod[mod > 0.0].min() ** 2 >= np.finfo(float).tiny


def test_table_working_set_within_twice_the_table():
    ctx = _ctx(1.0, 32, 256)
    tracemalloc.start()
    try:
        C = ctx.coherent_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert C.nbytes == 256 * 256 * 32 * 16
    # the guard's count, the table and 6 (G, G) temporaries: 1.19x the
    # table; measured 1.13x
    assert peak <= 16 * 256 * 256 * (32 + 6)


def test_n2_table_guard_counts_its_working_set(monkeypatch):
    # the axis tables multiply straight into the grid layout: the table and
    # the flush's modulus and mask of one a_1 block, table / G
    ctx = _ctx(1.0, 3, 24, n=2)
    entries = ctx.grid.num_points * ctx.cfg.dim
    need = entries + entries // 24
    monkeypatch.setattr(schroedinger, "_TABLE_LIMIT", need - 1)
    with pytest.raises(MemoryError, match="331776 grid points needs %d "
                       "complex entries" % need):
        ctx.coherent_table()
    monkeypatch.setattr(schroedinger, "_TABLE_LIMIT", need)
    tracemalloc.start()
    try:
        C = ctx.coherent_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert C.shape == (24 ** 4, 9) and C.flags.c_contiguous
    assert peak <= 16 * need
    assert peak <= 1.1 * C.nbytes  # measured 1.02; 2.00 with the transpose
