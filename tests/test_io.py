"""Config JSON, CSV round trips, sidecar manifests."""
from __future__ import annotations

import io
import json
import platform
import re
import tracemalloc
import warnings
from datetime import datetime

import numpy as np
import pytest
import scipy

import berezin
from berezin import (ConfigError, GridFunction, ModelConfig, PhaseGrid,
                     RepresentationContext, default_config, gaussian_vector,
                     wigner)
from berezin.io import (_BLOCK_ROWS, config_from_dict, config_to_dict,
                        load_config, read_grid_csv, read_operator_csv,
                        read_state_csv, save_config, write_grid_csv,
                        write_operator_csv, write_run_manifest,
                        write_state_csv)
from berezin.transforms import OrbitGridFunction

CFG_KEYS = {"n", "lambda", "M", "L", "G", "tol_identity", "tol_quadrature"}


def test_config_round_trip(tmp_path):
    cfg = default_config(lam=2.0, M=8)
    p = tmp_path / "cfg.json"
    save_config(p, cfg)
    data = json.loads(p.read_text())
    assert set(data) == CFG_KEYS
    assert data["lambda"] == 2.0
    assert load_config(p) == cfg


def test_config_rejects_unknown_key():
    base = config_to_dict(default_config())
    base["extra"] = 1
    with pytest.raises(ConfigError, match="extra"):
        config_from_dict(base)


def test_config_rejects_missing_key():
    for key in ("G", "L"):  # L too, though ModelConfig defaults it
        base = config_to_dict(default_config())
        del base[key]
        with pytest.raises(ConfigError, match="missing config keys: %s$" % key):
            config_from_dict(base)


def test_config_rejects_bad_types():
    base = config_to_dict(default_config())
    wrong = dict(base)
    wrong["M"] = 8.5
    with pytest.raises(ConfigError):
        config_from_dict(wrong)
    wrong = dict(base)
    wrong["M"] = True  # bool is not an integer here
    with pytest.raises(ConfigError):
        config_from_dict(wrong)
    wrong = dict(base)
    wrong["lambda"] = "1.0"
    with pytest.raises(ConfigError):
        config_from_dict(wrong)
    with pytest.raises(ConfigError):
        config_from_dict([1, 2, 3])


def test_config_refuses_integers_above_the_ceilings():
    from berezin.core import MAX_G, MAX_M, MAX_N
    base = config_to_dict(default_config())
    for key, ceiling in (("n", MAX_N), ("M", MAX_M), ("G", MAX_G)):
        data = dict(base, **{key: ceiling + 1})
        with pytest.raises(ConfigError, match="%s must not exceed %d"
                           % (key, ceiling)):
            config_from_dict(data)
    assert config_from_dict(dict(base, n=MAX_N)).n == MAX_N
    # refused before M ** n or G ** (2n) is taken
    with pytest.raises(ConfigError, match="n must not exceed"):
        config_from_dict(dict(base, n=10 ** 400))


def test_config_round_trip_with_numpy_integers(tmp_path):
    # save_config raised "Object of type int64 is not JSON serializable"
    cfg = ModelConfig(n=np.int64(1), M=np.int64(8), G=np.int64(64))
    p = tmp_path / "cfg.json"
    save_config(p, cfg)
    assert load_config(p) == cfg
    assert json.loads(p.read_text())["M"] == 8


def test_load_config_bad_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(p)


def test_grid_csv_round_trip(tmp_path):
    cfg = default_config(lam=1.0, M=2, L=8.0, G=16, tol_quadrature=0.5)
    ctx = RepresentationContext(cfg)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    fn = GridFunction(grid=ctx.grid, values=vals)
    p = tmp_path / "field.csv"
    write_grid_csv(p, fn, "berezin_symbol", cfg)
    header = p.read_text().splitlines()[0]
    assert header == "a1,b1,re,im"
    coords, back = read_grid_csv(p)
    np.testing.assert_array_equal(back, vals)  # %.17g is exact for float64
    np.testing.assert_array_equal(coords, ctx.grid.points())


def test_grid_csv_rows_are_the_bytes_of_savetxt(tmp_path):
    grid = PhaseGrid(n=1, lam=1.0, L=4.0, G=48)  # 2304 rows, one block
    rng = np.random.default_rng(8)
    vals = rng.standard_normal(grid.num_points) * 1e3 \
        + 1j * rng.standard_normal(grid.num_points)
    vals[:4] = [-0.0, 5e-324, 1e300 - 0.0j, complex(-1e-300, -0.0)]
    fn = GridFunction(grid=grid, values=vals)
    p = tmp_path / "g.csv"
    write_grid_csv(p, fn, "test", default_config())
    assert p.read_text(encoding="utf-8") == \
        "a1,b1,re,im\n" + _savetxt_bytes(fn, grid.points())


def _savetxt_bytes(fn, coords):
    # the old row-by-row route: one `%.17g` row per grid point
    table = np.column_stack([coords, fn.values.real, fn.values.imag])
    buf = io.StringIO()
    np.savetxt(buf, table, fmt="%.17g", delimiter=",")
    return buf.getvalue()


@pytest.mark.parametrize("G", [6, 10])  # one block; ten blocks of 1000 rows
@pytest.mark.parametrize("orbit", [False, True])
def test_n2_grid_csv_rows_are_the_bytes_of_savetxt(tmp_path, G, orbit):
    grid = PhaseGrid(n=2, lam=0.5, L=3.0, G=G)
    assert grid.num_points % _BLOCK_ROWS != 0
    rng = np.random.default_rng(G)
    vals = rng.standard_normal(grid.num_points) * 1e3 \
        + 1j * rng.standard_normal(grid.num_points)
    vals[[0, 1, 7, -2, -1]] = [-0.0, 5e-324, 1e300 - 0.0j, -1e300,
                               complex(-1e-300, -0.0)]
    if orbit:
        fn = OrbitGridFunction(grid=grid, values=vals)
        coords = np.stack([m.ravel() for m in np.meshgrid(
            *([fn.xi_axis] * 4), indexing="ij")], axis=1)
    else:
        fn = GridFunction(grid=grid, values=vals)
        coords = grid.points()
    p = tmp_path / "g.csv"
    write_grid_csv(p, fn, "test", default_config())
    header = "alpha1,alpha2,beta1,beta2" if orbit else "a1,a2,b1,b2"
    assert p.read_text(encoding="utf-8") == \
        header + ",re,im\n" + _savetxt_bytes(fn, coords)


def test_grid_csv_axis_longer_than_a_block(tmp_path, monkeypatch):
    monkeypatch.setattr("berezin.io._BLOCK_ROWS", 4)  # G = 6 rows a block
    grid = PhaseGrid(n=1, lam=1.0, L=4.0, G=6)
    vals = np.arange(36) * (1.0 - 0.1j) / 3
    fn = GridFunction(grid=grid, values=vals)
    p = tmp_path / "g.csv"
    write_grid_csv(p, fn, "test", default_config())
    assert p.read_text(encoding="utf-8") == \
        "a1,b1,re,im\n" + _savetxt_bytes(fn, grid.points())


def test_grid_csv_working_set_is_below_the_values(tmp_path):
    # no coordinate table and no re/im copy: the peak is a block's floats
    # and text (5.1x the values for the per-row table it replaced)
    grid = PhaseGrid(n=2, lam=1.0, L=4.0, G=24)
    rng = np.random.default_rng(4)
    fn = GridFunction(grid=grid, values=rng.standard_normal(grid.num_points)
                      + 1j * rng.standard_normal(grid.num_points))
    tracemalloc.start()
    try:
        write_grid_csv(tmp_path / "g.csv", fn, "test", default_config())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < fn.values.nbytes


def test_grid_csv_sidecar_manifest(tmp_path):
    cfg = default_config(lam=1.0, M=2, L=8.0, G=16, tol_quadrature=0.5)
    ctx = RepresentationContext(cfg)
    fn = GridFunction(grid=ctx.grid, values=np.zeros(256, dtype=complex))
    p = tmp_path / "field.csv"
    write_grid_csv(p, fn, "berezin_symbol", cfg)
    doc = json.loads((tmp_path / "field.csv.manifest.json").read_text())
    assert set(doc) == {"config", "grid", "lattice", "quantity"}
    assert doc["quantity"] == "berezin_symbol"
    assert set(doc["grid"]) == {"L", "G", "h", "density"}
    assert doc["grid"]["G"] == 16
    assert doc["lattice"] == {"step": ctx.grid.h, "weight": fn.weight}
    assert doc["config"] == config_to_dict(cfg)


def test_orbit_csv_uses_dual_coordinates(tmp_path):
    cfg = default_config(lam=1.0, M=2, L=8.0, G=16, tol_quadrature=0.5)
    ctx = RepresentationContext(cfg)
    vac = gaussian_vector(cfg)
    W = wigner(ctx, vac, vac)
    p = tmp_path / "wig.csv"
    write_grid_csv(p, W, "wigner", cfg)
    coords, vals = read_grid_csv(p)
    xi = W.xi_axis
    A, B = np.meshgrid(xi, xi, indexing="ij")
    np.testing.assert_allclose(coords[:, 0], A.ravel())
    np.testing.assert_allclose(coords[:, 1], B.ravel())
    doc = json.loads((tmp_path / "wig.csv.manifest.json").read_text())
    assert doc["quantity"] == "wigner"
    # the rows sit on step eta (0.393 here), not on the phase grid's h = 1
    assert p.read_text().startswith("alpha1,beta1,re,im\n")
    assert doc["lattice"] == {"step": W.eta, "weight": W.weight}
    assert doc["lattice"]["step"] != doc["grid"]["h"]


def test_grid_csv_rejects_foreign_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y,z\n1,2,3\n")
    with pytest.raises(ConfigError, match="header"):
        read_grid_csv(p)


@pytest.mark.parametrize("rows, message", [
    ("1,2,3,x\n", "could not convert string 'x'"),
    ("1,2,3,4\n1,2,nan,4\n", "non-finite entries"),
    ("", "no rows after the header")],
    ids=["unparsable", "nan", "header-only"])
def test_grid_csv_refuses_bad_rows_naming_the_file(tmp_path, rows, message):
    # numpy's ValueError escaped, a nan was returned as data, and a header
    # alone warned "input contained no data" before a width error
    p = tmp_path / "bad.csv"
    p.write_text("a1,b1,re,im\n" + rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=re.escape("%s: " % p) + message):
            read_grid_csv(p)


def test_operator_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    E = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    p = tmp_path / "op.csv"
    write_operator_csv(p, E)
    back = read_operator_csv(p, 5)
    np.testing.assert_array_equal(back, E)


def test_operator_csv_errors(tmp_path):
    p = tmp_path / "op.csv"
    p.write_text("1,0,junk,0\n0,0,1,0\n")
    with pytest.raises(ConfigError, match="line 1"):
        read_operator_csv(p, 2)
    p.write_text("1,0\n")
    with pytest.raises(ConfigError, match="expected 4 values"):
        read_operator_csv(p, 2)
    p.write_text("1,0,0,0\n")
    with pytest.raises(ConfigError, match="expected 2 rows"):
        read_operator_csv(p, 2)
    p.write_text("1,0,0,0\n0,0,inf,0\n")
    with pytest.raises(ConfigError, match="non-finite"):
        read_operator_csv(p, 2)


def test_state_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    p = tmp_path / "state.csv"
    write_state_csv(p, v)
    np.testing.assert_array_equal(read_state_csv(p, 6), v)


def test_state_csv_is_the_two_column_table(tmp_path):
    # written as the operator CSV of one column: the bytes of the former
    # column_stack writer
    v = np.array([complex(1.5, -0.0), complex(-0.0, 0.0), -2.0 + 1e-300j,
                  np.pi - 7e300j])
    p, ref = tmp_path / "state.csv", tmp_path / "ref.csv"
    write_state_csv(p, v)
    np.savetxt(ref, np.column_stack([v.real, v.imag]), fmt="%.17g",
               delimiter=",")
    assert p.read_bytes() == ref.read_bytes()
    assert read_state_csv(p, 4).tobytes() == v.tobytes()  # -0.0 too


def test_state_csv_errors(tmp_path):
    p = tmp_path / "state.csv"
    p.write_text("1,0,3\n")
    with pytest.raises(ConfigError, match="line 1: expected 2 values, got 3"):
        read_state_csv(p, 1)
    p.write_text("1,junk\n")
    with pytest.raises(ConfigError, match="line 1"):
        read_state_csv(p, 1)
    p.write_text("1,0\n")
    with pytest.raises(ConfigError, match="expected 2 coefficients"):
        read_state_csv(p, 2)
    p.write_text("1,0\nnan,0\n")
    with pytest.raises(ConfigError, match="non-finite"):
        read_state_csv(p, 2)


def test_run_manifest_contents(tmp_path):
    cfg = default_config()
    p = tmp_path / "manifest.json"
    write_run_manifest(p, cfg, "verify", [tmp_path / "a.csv"],
                       {"check": 1e-9})
    doc = json.loads(p.read_text())
    assert set(doc) == {"config", "command", "outputs", "residual_summary",
                        "timestamp", "versions"}
    assert doc["command"] == "verify"
    assert doc["residual_summary"] == {"check": 1e-9}
    datetime.fromisoformat(doc["timestamp"])  # parseable UTC stamp


def test_run_manifest_records_versions(tmp_path):
    p = tmp_path / "manifest.json"
    write_run_manifest(p, default_config(), "wigner", [], {})
    versions = json.loads(p.read_text())["versions"]
    assert versions == {"berezin": berezin.__version__,
                        "numpy": np.__version__, "scipy": scipy.__version__,
                        "python": platform.python_version()}


@pytest.mark.parametrize("real", [np.float32, np.float64])
def test_config_round_trip_with_numpy_scalars(tmp_path, real):
    # ModelConfig(lam=np.float32(1.0)) validated, then save_config raised
    # "Object of type float32 is not JSON serializable"
    cfg = ModelConfig(n=np.int64(1), lam=real(0.5), M=np.int64(8),
                      L=real(default_config(lam=0.5, M=8).L), G=np.int64(128),
                      tol_identity=real(1e-6), tol_quadrature=real(1e-5))
    p = tmp_path / "cfg.json"
    save_config(p, cfg)
    loaded = load_config(p)
    assert loaded == cfg
    for c in (cfg, loaded):
        assert [type(v) for v in config_to_dict(c).values()] == \
            [int, float, int, float, int, float, float]


def test_config_from_dict_refuses_null_L():
    # ModelConfig(L=None) takes default_L; a config file must name L
    data = dict(config_to_dict(default_config()), L=None)
    with pytest.raises(ConfigError, match="^config key 'L' must be a number$"):
        config_from_dict(data)
