"""Configuration, grid geometry, states, operators, and pairings."""
from __future__ import annotations

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from berezin import (ConfigError, GridFunction, HermiteState, ModelConfig,
                     OperatorMatrix, PhaseGrid, RepresentationContext,
                     basis_state, build_grid, core, covariant_symbol,
                     default_L, default_config, hermite_columns, hs_inner,
                     identity_operator, inner_l2, rank_one)


def test_default_config_is_valid():
    for lam in (0.5, 1.0, 4.0):
        cfg = default_config(lam=lam)
        assert cfg.n == 1 and cfg.M == 16 and cfg.G == 128
        assert cfg.L == pytest.approx(4.0 * np.sqrt(33.0 / lam))


def test_model_config_defaults_L_to_default_L():
    assert ModelConfig() == default_config()
    assert ModelConfig(lam=4.0, M=8).L == default_L(4.0, 8)
    for lam in (-1.0, 0.0, np.nan, np.inf):  # named before default_L reads it
        with pytest.raises(ConfigError, match="lambda must be"):
            ModelConfig(lam=lam)


def test_config_rejects_bad_fields():
    with pytest.raises(ConfigError):
        ModelConfig(n=0, lam=1.0, M=4, L=10.0, G=32,
                    tol_identity=1e-6, tol_quadrature=1e-5)
    with pytest.raises(ConfigError):
        ModelConfig(n=1, lam=-1.0, M=4, L=10.0, G=32,
                    tol_identity=1e-6, tol_quadrature=1e-5)
    with pytest.raises(ConfigError):
        ModelConfig(n=1, lam=1.0, M=0, L=10.0, G=32,
                    tol_identity=1e-6, tol_quadrature=1e-5)
    with pytest.raises(ConfigError):  # odd G breaks the centered lattice
        ModelConfig(n=1, lam=1.0, M=4, L=10.0, G=33,
                    tol_identity=1e-6, tol_quadrature=1e-5)


@pytest.mark.parametrize("key, value", [
    ("G", 128.0), ("M", 16.0), ("n", 1.0), ("M", np.int64(8)),
    ("G", np.int64(64))])
def test_config_stores_integral_fields_as_int(key, value):
    # G = 128.0, M = 16.0 and n = 1.0 validated, then raised TypeError in
    # reshape, np.eye and tuple repetition
    cfg = ModelConfig(**{key: value})
    assert type(getattr(cfg, key)) is int and getattr(cfg, key) == value
    S = covariant_symbol(RepresentationContext(cfg), identity_operator(cfg.dim))
    assert S.reshape().shape == (cfg.G,) * (2 * cfg.n)


@pytest.mark.parametrize("G", [64.0, np.int64(64)])
def test_phase_grid_stores_G_as_int(G):
    grid = PhaseGrid(n=1, lam=1.0, L=10.0, G=G)
    assert type(grid.G) is int and grid.shape == (64, 64)


def test_core_imports_no_package_module():
    # core owns the node-form samples whole: every other module imports it,
    # and it imports none of them, at top level or inside a function
    tree = ast.parse(Path(core.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and all(node in tree.body for node in imports)
    for node in imports:
        names = ([node.module] if isinstance(node, ast.ImportFrom)
                 else [alias.name for alias in node.names])
        assert getattr(node, "level", 0) == 0
        assert not any(name.split(".")[0] == "berezin" for name in names)


@pytest.mark.parametrize("key", ["tol_identity", "tol_quadrature"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 0.0, -1e-5])
def test_config_rejects_tolerance_outside_zero_to_inf(key, bad):
    # tol_quadrature = inf switched the grid validation off, so this G = 8
    # grid (h = 5.7) validated; tol_identity = inf passed coherent_norm always
    kw = dict(n=1, lam=1.0, M=16, L=default_L(1.0, 16), G=8,
              tol_identity=1e-6, tol_quadrature=1e-5)
    kw[key] = bad
    with pytest.raises(ConfigError,
                       match="%s must be a positive finite real" % key):
        ModelConfig(**kw)


def test_grid_validation_too_coarse():
    with pytest.raises(ConfigError, match="too coarse"):
        default_config(lam=1.0, G=8)


def test_grid_validation_too_narrow():
    with pytest.raises(ConfigError, match="too narrow"):
        default_config(lam=1.0, L=2.0)


def test_grid_points_tiny_example():
    # L=1, G=2: axis {-1, 0}, row-major points, unit cells
    grid = PhaseGrid(n=1, lam=2.0 * np.pi, L=1.0, G=2)
    assert grid.h == 1.0
    assert grid.cell_weight == 1.0
    np.testing.assert_allclose(grid.axis, [-1.0, 0.0])
    np.testing.assert_allclose(
        grid.points(), [[-1, -1], [-1, 0], [0, -1], [0, 0]])


@pytest.mark.parametrize("G", [15, 1, 0, -2, 7.5])
def test_phase_grid_refuses_odd_or_small_G(G):
    # the orbit FFT's checkerboard kernel is exact only for even G; at G = 15
    # it was off from the literal double sum by O(1) (1.8 on one random
    # input) with no error
    with pytest.raises(ValueError, match="even integer >= 2"):
        PhaseGrid(n=1, lam=1.0, L=4.0, G=G)


@pytest.mark.parametrize("lam, L, bound", [
    (-1.0, float("nan"), "lambda"), (0.0, 4.0, "lambda"),
    (float("nan"), 4.0, "lambda"), (float("inf"), 4.0, "lambda"),
    (1.0, float("nan"), "L"), (1.0, -4.0, "L"), (1.0, 0.0, "L"),
    (1.0, float("inf"), "L")])
def test_phase_grid_refuses_lambda_and_L_outside_zero_to_inf(lam, L, bound):
    # PhaseGrid(n=1, lam=-1.0, L=nan, G=8) constructed, with nan axes
    with pytest.raises(ConfigError,
                       match="^%s must be a positive finite real$" % bound):
        PhaseGrid(n=1, lam=lam, L=L, G=8)


@pytest.mark.parametrize("n, message", [
    (0, "n must be a positive integer"), (-1, "n must be a positive integer"),
    (1.5, "n must be a positive integer"), (13, "n must not exceed 12"),
    (True, "config key 'n' must be an integer"),
    ("x", "config key 'n' must be an integer"),
    (float("nan"), "config key 'n' must be an integer")],
    ids=["0", "-1", "1.5", "13", "True", "x", "nan"])
def test_phase_grid_refuses_n_as_the_config_does(n, message):
    # PhaseGrid(n=1.5, lam=1, L=5, G=8) constructed, with num_points 512.0
    for make in (lambda: PhaseGrid(n=n, lam=1.0, L=5.0, G=8),
                 lambda: ModelConfig(n=n)):
        with pytest.raises(ConfigError, match="^%s$" % message):
            make()


def test_phase_grid_stores_n_as_int():
    for n in (np.int64(2), 2.0):
        grid = PhaseGrid(n=n, lam=1.0, L=5.0, G=8)
        assert type(grid.n) is int and grid.n == 2
        assert type(grid.num_points) is int and grid.num_points == 4096


def test_density_normalization():
    assert PhaseGrid(n=1, lam=2.0 * np.pi, L=1.0, G=2).density == pytest.approx(1.0)
    cfg = default_config(lam=1.0, M=8, L=8.0)
    grid = build_grid(cfg)
    assert grid.total_measure == pytest.approx(256.0 / (2.0 * np.pi))
    assert grid.total_measure == pytest.approx(40.74366543152521)


def test_grid_axis_covers_box_edge_aligned():
    cfg = default_config(lam=1.0)
    grid = build_grid(cfg)
    assert grid.axis[0] == pytest.approx(-cfg.L)
    assert grid.axis[-1] == pytest.approx(cfg.L - grid.h)
    assert grid.num_points == cfg.G ** (2 * cfg.n)


def test_inner_l2_constant_function():
    grid = PhaseGrid(n=1, lam=2.0 * np.pi, L=1.0, G=2)
    one = GridFunction(grid=grid, values=np.ones(4, dtype=complex))
    assert inner_l2(one, one) == pytest.approx(4.0)


def test_inner_l2_orthogonal_pair():
    grid = PhaseGrid(n=1, lam=2.0 * np.pi, L=1.0, G=2)
    u = GridFunction(grid=grid, values=np.array([1, -1, 0, 0], dtype=complex))
    v = GridFunction(grid=grid, values=np.array([1, 1, 0, 0], dtype=complex))
    assert abs(inner_l2(u, v)) == 0.0


def test_inner_l2_conjugate_symmetry():
    grid = PhaseGrid(n=1, lam=1.0, L=4.0, G=8)
    rng = np.random.default_rng(0)
    for _ in range(100):
        u = GridFunction(grid=grid, values=rng.standard_normal(64)
                         + 1j * rng.standard_normal(64))
        v = GridFunction(grid=grid, values=rng.standard_normal(64)
                         + 1j * rng.standard_normal(64))
        assert inner_l2(u, v) == pytest.approx(np.conj(inner_l2(v, u)), abs=1e-12)


def test_grid_function_norm_makes_no_grid_sized_array():
    grid = PhaseGrid(n=1, lam=1.0, L=4.0, G=256)
    rng = np.random.default_rng(1)
    u = GridFunction(grid=grid, values=rng.standard_normal(grid.num_points)
                     + 1j * rng.standard_normal(grid.num_points))
    tracemalloc.start()
    try:
        norm = u.norm()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # |v| ** 2 summed made two float arrays of the grid's size, 1.0x the
    # values at their peak
    assert peak < 0.01 * u.values.nbytes
    assert norm == pytest.approx(np.sqrt(inner_l2(u, u).real), rel=1e-14)


def test_grid_function_length_mismatch():
    grid = PhaseGrid(n=1, lam=1.0, L=4.0, G=8)
    with pytest.raises(ValueError):
        GridFunction(grid=grid, values=np.ones(5, dtype=complex))


def test_hs_inner_identity():
    assert hs_inner(identity_operator(4), identity_operator(4)) == pytest.approx(4.0)


def test_hs_inner_disjoint_rank_ones():
    a = rank_one(basis_state(4, 0), basis_state(4, 1))
    b = rank_one(basis_state(4, 2), basis_state(4, 3))
    assert abs(hs_inner(a, b)) == 0.0


def test_hs_inner_matches_singular_values():
    rng = np.random.default_rng(1)
    E = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    A = OperatorMatrix(entries=E)
    sv = np.linalg.svd(E, compute_uv=False)
    assert hs_inner(A, A).real == pytest.approx(np.sum(sv ** 2))
    assert abs(hs_inner(A, A).imag) < 1e-12


def test_hermite_state_inner_convention():
    # inner(self, other) = (self | other): linear in self, conjugate in other
    f = HermiteState(coeffs=np.array([1.0 + 1.0j, 0.0]))
    g = HermiteState(coeffs=np.array([2.0j, 0.0]))
    assert f.inner(g) == pytest.approx((1.0 + 1.0j) * np.conj(2.0j))
    assert f.norm() == pytest.approx(np.sqrt(2.0))
    assert basis_state(4, 2).coeffs[2] == 1.0


def test_hermite_state_rejects_non_finite():
    with pytest.raises(ValueError):
        HermiteState(coeffs=np.array([np.nan, 0.0]))


def test_operator_matrix_shape_and_adjoint():
    with pytest.raises(ValueError):
        OperatorMatrix(entries=np.ones((2, 3)))
    E = np.array([[1.0, 2.0j], [0.0, 1.0]])
    A = OperatorMatrix(entries=E)
    np.testing.assert_allclose(A.adjoint().entries, E.conj().T)
    f = HermiteState(coeffs=np.array([1.0, 1.0], dtype=complex))
    np.testing.assert_allclose(A.apply(f).coeffs, E @ f.coeffs)


def test_rank_one_action():
    u, v = basis_state(3, 0), basis_state(3, 2)
    P = rank_one(u, v)  # f -> (v|f)... fixed orientation: P g = u (g|v)-bar
    np.testing.assert_allclose(P.apply(basis_state(3, 2)).coeffs, u.coeffs)
    np.testing.assert_allclose(P.apply(basis_state(3, 1)).coeffs, 0.0 * u.coeffs)


def test_hermite_columns_match_scipy_at_63_columns():
    # the covariant symbol's interpolation runs the recurrence to 2M-1 = 63
    # columns at M = 32, at the Gauss-Hermite nodes and on the grid
    from scipy.special import roots_hermite
    from berezin.oracle import hermite_basis_value
    x, _ = roots_hermite(63)
    t = np.concatenate([x, np.linspace(-12.0, 12.0, 97)])
    H = hermite_columns(t, 63, 1.0)
    ref = np.stack([hermite_basis_value(1.0, m, t) for m in range(63)], -1)
    assert np.abs(H - ref).max() < 2e-14  # measured 5.7e-15


def test_default_L_scaling():
    assert default_L(1.0, 16) == pytest.approx(4.0 * np.sqrt(33.0))
    assert default_L(4.0, 16) == pytest.approx(default_L(1.0, 16) / 2.0)


_FIELDS = ["n", "lam", "M", "L", "G", "tol_identity", "tol_quadrature"]


@pytest.mark.parametrize("key, bad", [
    (key, bad) for key in _FIELDS
    for bad in (np.nan, np.inf, -np.inf, True, "1", None, 10 ** 400)
    if not (key == "L" and bad is None)],  # L = None takes default_L
    ids=lambda v: "1e400" if v == 10 ** 400 else str(v))
def test_config_refuses_non_real_or_non_finite_fields(key, bad):
    # n = nan raised "cannot convert float NaN to integer", n = True served
    # n = 1, lam = "1" raised TypeError, and an int past the float range in
    # lam raised OverflowError
    name = "lambda" if key == "lam" else key
    with pytest.raises(ConfigError,
                       match="^(config key '%s'|%s) must" % (name, name)):
        ModelConfig(**{key: bad})


def test_config_stores_real_fields_as_float():
    cfg = ModelConfig(n=np.int64(1), lam=np.float32(0.5), M=np.int64(8),
                      L=np.float64(30.0), G=np.int64(128),
                      tol_identity=np.float32(1e-6),
                      tol_quadrature=np.float64(1e-5))
    assert [type(getattr(cfg, key)) for key in _FIELDS] == \
        [int, float, int, float, int, float, float]
    assert cfg.lam == 0.5 and cfg.tol_identity == float(np.float32(1e-6))
    assert type(ModelConfig(lam=np.float32(2.0)).L) is float


def test_phase_grid_refuses_non_real_fields_and_stores_them_plain():
    with pytest.raises(ConfigError, match="config key 'lambda' must be a number"):
        PhaseGrid(n=1, lam="1", L=4.0, G=8)
    with pytest.raises(ConfigError, match="config key 'G' must be an integer"):
        PhaseGrid(n=1, lam=1.0, L=4.0, G=np.nan)
    grid = PhaseGrid(n=1, lam=np.float32(1.0), L=np.int64(4), G=np.int64(8))
    assert [type(v) for v in (grid.lam, grid.L, grid.G)] == [float, float, int]
