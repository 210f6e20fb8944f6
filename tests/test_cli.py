"""End-to-end command-line behavior: exit codes, outputs, determinism."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import berezin
from berezin import ModelConfig, default_config, schroedinger
from berezin.cli import main
from berezin.io import read_grid_csv, save_config, write_operator_csv, \
    write_state_csv


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = default_config(lam=1.0, M=8)
    cfg_path = root / "cfg.json"
    save_config(cfg_path, cfg)
    op_path = root / "identity.csv"
    write_operator_csv(op_path, np.eye(8, dtype=complex))
    vac = np.zeros(8, dtype=complex)
    vac[0] = 1.0
    proj_path = root / "projector.csv"
    write_operator_csv(proj_path, np.outer(vac, vac.conj()))
    state_path = root / "e1.csv"
    e1 = np.zeros(8, dtype=complex)
    e1[1] = 1.0
    write_state_csv(state_path, e1)
    vac_path = root / "vacuum.csv"
    write_state_csv(vac_path, vac)
    return {"root": root, "cfg": cfg, "cfg_path": cfg_path,
            "op": op_path, "proj": proj_path, "state": state_path,
            "vacuum": vac_path}


def test_verify_passes_and_writes_outputs(paths, capsys):
    out = paths["root"] / "out_verify"
    rc = main(["verify", "--config", str(paths["cfg_path"]),
               "--out", str(out), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["failures"] == []
    summary = payload["residual_summary"]
    assert len(summary) >= 9
    assert (out / "verify_table.txt").exists()
    doc = json.loads((out / "verify_manifest.json").read_text())
    assert doc["residual_summary"] == summary
    table = (out / "verify_table.txt").read_text()
    assert "PASS" in table and "FAIL" not in table


def test_verify_reports_m1_sigma(paths, capsys):
    cfg_path = paths["root"] / "cfg_m1.json"
    save_config(cfg_path, default_config(lam=1.0, M=1))
    out = paths["root"] / "out_m1"
    rc = main(["verify", "--config", str(cfg_path), "--out", str(out),
               "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    sigma = payload["residual_summary"]["injectivity_sigma_m1"]
    assert sigma == pytest.approx(math.sqrt(0.5), abs=1e-6)


def test_verify_rejects_coarse_grid(paths, capsys):
    cfg_path = paths["root"] / "cfg_g8.json"
    cfg_path.write_text(json.dumps({
        "n": 1, "lambda": 1.0, "M": 16, "L": 22.978250586152114, "G": 8,
        "tol_identity": 1e-6, "tol_quadrature": 1e-5}))
    rc = main(["verify", "--config", str(cfg_path),
               "--out", str(paths["root"] / "out_g8")])
    assert rc == 2
    assert "too coarse" in capsys.readouterr().err


def test_verify_rejects_unknown_key(paths, capsys):
    cfg_path = paths["root"] / "cfg_unknown.json"
    data = json.loads(paths["cfg_path"].read_text())
    data["mystery"] = 3
    cfg_path.write_text(json.dumps(data))
    rc = main(["verify", "--config", str(cfg_path),
               "--out", str(paths["root"] / "out_unknown")])
    assert rc == 2
    assert "mystery" in capsys.readouterr().err


def test_symbol_identity_operator(paths, capsys):
    out = paths["root"] / "out_sym_id"
    rc = main(["symbol", "--config", str(paths["cfg_path"]),
               "--operator", str(paths["op"]), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    coords, vals = read_grid_csv(out / "berezin_symbol.csv")
    lam = paths["cfg"].lam
    # M = 8 here, so the truncation-faithful disc is smaller than at M = 16:
    # the displaced-vacuum tail beyond 8 modes is ~6e-8 at radius 1/sqrt(lam)
    disc = coords[:, 0] ** 2 + coords[:, 1] ** 2 <= 1.0 / lam
    assert np.abs(vals[disc] - 1.0).max() < 1e-6
    assert vals.real.max() < 1.0 + 1e-12
    doc = json.loads((out / "berezin_symbol.csv.manifest.json").read_text())
    assert doc["quantity"] == "berezin_symbol"
    assert (out / "symbol_manifest.json").exists()


def test_symbol_projector_gaussian(paths, capsys):
    out = paths["root"] / "out_sym_proj"
    rc = main(["symbol", "--config", str(paths["cfg_path"]),
               "--operator", str(paths["proj"]), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    coords, vals = read_grid_csv(out / "berezin_symbol.csv")
    lam = paths["cfg"].lam
    target = np.exp(-lam * (coords[:, 0] ** 2 + coords[:, 1] ** 2) / 2.0)
    assert np.abs(vals - target).max() < 1e-8


def test_symbol_malformed_operator(paths, capsys):
    bad = paths["root"] / "bad_op.csv"
    bad.write_text("1,0,junk\n")
    rc = main(["symbol", "--config", str(paths["cfg_path"]),
               "--operator", str(bad),
               "--out", str(paths["root"] / "out_bad")])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err


def _orbit_norm(cfg, values):
    eta = 2.0 * np.pi / (cfg.G * (2.0 * cfg.L / cfg.G))
    return (1.0 / (2.0 * np.pi * cfg.lam)) * eta ** 2 \
        * np.sum(np.abs(values) ** 2)


def test_wigner_vacuum_state(paths, capsys):
    # diagonal pair (vacuum against the vacuum window): real distribution
    out = paths["root"] / "out_wig_vac"
    rc = main(["wigner", "--config", str(paths["cfg_path"]),
               "--state", str(paths["vacuum"]), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    _, wig = read_grid_csv(out / "wigner.csv")
    assert np.abs(wig.imag).max() < 1e-6
    assert _orbit_norm(paths["cfg"], wig) == pytest.approx(1.0, abs=1e-8)


def test_wigner_excited_state(paths, capsys):
    # cross pair (e_1 against the vacuum window): complex, still unit norm
    out = paths["root"] / "out_wig"
    rc = main(["wigner", "--config", str(paths["cfg_path"]),
               "--state", str(paths["state"]), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    _, amb = read_grid_csv(out / "ambiguity.csv")
    _, wig = read_grid_csv(out / "wigner.csv")
    cfg = paths["cfg"]
    assert _orbit_norm(cfg, wig) == pytest.approx(1.0, abs=1e-8)
    assert amb.shape == wig.shape == (cfg.G ** 2,)
    amb_doc = json.loads((out / "ambiguity.csv.manifest.json").read_text())
    wig_doc = json.loads((out / "wigner.csv.manifest.json").read_text())
    assert amb_doc["quantity"] == "ambiguity"
    assert wig_doc["quantity"] == "wigner"


def test_report_single(paths, capsys):
    cfg_path = paths["root"] / "cfg_m2.json"
    save_config(cfg_path, default_config(lam=1.0, M=2))
    out = paths["root"] / "out_rep"
    rc = main(["report", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert "injective-at-truncation" in capsys.readouterr().out
    doc = json.loads((out / "injectivity.json").read_text())
    assert doc["sigma_min"] == pytest.approx(np.sqrt(5.0) / 4.0 - 0.25,
                                             abs=1e-9)
    assert doc["verdict"] == "injective-at-truncation"
    assert set(doc) == {"config", "sigma_min", "sigma_max", "cond", "verdict",
                        "baselines"}


def test_report_sweep(paths, capsys):
    cfg_path = paths["root"] / "cfg_m2.json"
    save_config(cfg_path, default_config(lam=1.0, M=2))
    out = paths["root"] / "out_sweep"
    rc = main(["report", "--config", str(cfg_path), "--out", str(out),
               "--sweep", "1..4"])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads((out / "injectivity.json").read_text())
    rows = doc["sweep"]
    assert [r["M"] for r in rows] == [1, 2, 3, 4]
    sig = [r["sigma_min"] for r in rows]
    assert sig == sorted(sig, reverse=True)
    assert sig[0] == pytest.approx(math.sqrt(0.5), abs=1e-9)
    assert sig[3] == pytest.approx(0.04314713606049981, abs=1e-9)
    manifest = json.loads((out / "report_manifest.json").read_text())
    assert set(manifest["residual_summary"]) == {
        "sigma_min_M1", "sigma_min_M2", "sigma_min_M3", "sigma_min_M4"}


def test_report_sweep_builds_no_table(paths, capsys, no_table):
    out = paths["root"] / "out_sweep_no_table"
    with no_table():
        rc = main(["report", "--sweep", "1..4", "--config",
                   str(paths["cfg_path"]), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    rows = json.loads((out / "injectivity.json").read_text())["sweep"]
    assert [r["M"] for r in rows] == [1, 2, 3, 4]


@pytest.mark.parametrize("key", ["n", "M", "G"])
@pytest.mark.parametrize("raw", ["Infinity", "-Infinity", "NaN", "1e400"])
def test_non_finite_integer_config_value_exits_2(paths, capsys, key, raw):
    # json reads all four as non-finite floats (1e400 overflows to inf)
    text = json.dumps(json.loads(paths["cfg_path"].read_text()))
    text = text.replace('"%s": %d' % (key, getattr(paths["cfg"], key)),
                        '"%s": %s' % (key, raw))
    assert raw in text
    cfg_path = paths["root"] / "cfg_nonfinite.json"
    cfg_path.write_text(text)
    rc = main(["report", "--config", str(cfg_path),
               "--out", str(paths["root"] / "out_nonfinite")])
    assert rc == 2
    assert "config key '%s' must be an integer" % key in capsys.readouterr().err


def test_huge_integer_config_value_exits_2(paths, capsys):
    # a 401-digit G overflowed 2L/G into an OverflowError traceback
    data = json.loads(paths["cfg_path"].read_text())
    text = json.dumps(data).replace('"G": %d' % data["G"], '"G": 1' + "0" * 400)
    cfg_path = paths["root"] / "cfg_huge_G.json"
    cfg_path.write_text(text)
    rc = main(["report", "--config", str(cfg_path),
               "--out", str(paths["root"] / "out_huge_G")])
    assert rc == 2
    assert capsys.readouterr().err == "error: G must not exceed 65536\n"


def test_report_not_certified_exits_0(paths, capsys):
    # sigma_min = 6.49e-4 at M = 8 misses the 100 * tol_quadrature = 1e-3
    # verdict threshold; the exit code does not depend on the verdict
    out = paths["root"] / "out_rep_m8"
    rc = main(["report", "--config", str(paths["cfg_path"]),
               "--out", str(out)])
    assert rc == 0
    assert "not-certified" in capsys.readouterr().out
    doc = json.loads((out / "injectivity.json").read_text())
    assert doc["verdict"] == "not-certified"
    assert doc["sigma_min"] == pytest.approx(6.49e-4, rel=1e-2)


def _run_module(*args):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(berezin.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "berezin", *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_module_entry_point_exit_codes(paths):
    cfg_path = paths["root"] / "cfg_m2.json"
    save_config(cfg_path, default_config(lam=1.0, M=2))
    out = paths["root"] / "out_module"
    done = _run_module("report", "--config", str(cfg_path), "--out", str(out),
                       "--sweep", "1..2")
    assert done.returncode == 0, done.stderr
    rows = json.loads((out / "injectivity.json").read_text())["sweep"]
    assert [r["M"] for r in rows] == [1, 2]
    bad = paths["root"] / "cfg_module_unknown.json"
    data = json.loads(cfg_path.read_text())
    data["mystery"] = 3
    bad.write_text(json.dumps(data))
    done = _run_module("verify", "--config", str(bad), "--out", str(out))
    assert done.returncode == 2
    assert "mystery" in done.stderr


def test_report_under_determined(paths, capsys):
    cfg_path = paths["root"] / "cfg_under.json"
    cfg_path.write_text(json.dumps({
        "n": 1, "lambda": 1.0, "M": 20, "L": 6.9, "G": 16,
        "tol_identity": 1e-6, "tol_quadrature": 1e-5}))
    rc = main(["report", "--config", str(cfg_path),
               "--out", str(paths["root"] / "out_under")])
    assert rc == 2
    assert "under-determined" in capsys.readouterr().err


def test_report_bad_sweep(paths, capsys):
    rc = main(["report", "--config", str(paths["cfg_path"]),
               "--out", str(paths["root"] / "out_badsweep"),
               "--sweep", "4..1"])
    assert rc == 2
    assert "sweep" in capsys.readouterr().err


def test_verify_deterministic(paths):
    out1 = paths["root"] / "det1"
    out2 = paths["root"] / "det2"
    cfg_path = paths["root"] / "cfg_m1.json"
    save_config(cfg_path, default_config(lam=1.0, M=1))
    assert main(["verify", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["verify", "--config", str(cfg_path), "--out", str(out2)]) == 0
    s1 = json.loads((out1 / "verify_manifest.json").read_text())
    s2 = json.loads((out2 / "verify_manifest.json").read_text())
    b1 = json.dumps(s1["residual_summary"], sort_keys=True).encode()
    b2 = json.dumps(s2["residual_summary"], sort_keys=True).encode()
    assert b1 == b2  # byte-identical residuals, not just approximate reruns


def test_symbol_n2_beyond_symbol_guard_exits_2(paths, capsys):
    # the symbol builds no coherent table, so M = 6, G = 22 (a table of
    # 8433216 complex entries) is served; its own bound is the last
    # expansion step, (2N + G) G^3 with N = 11, and the cached node table and
    # B: 17714112 > 2^24 at G = 60, refused before anything is built (G = 58
    # needs 15611050 and is served)
    op_path = paths["root"] / "n2_identity.csv"
    write_operator_csv(op_path, np.eye(36, dtype=complex))
    codes = {}
    for G in (22, 60):
        cfg = ModelConfig(n=2, lam=1.0, M=6, L=7.0, G=G, tol_identity=1e-6,
                          tol_quadrature=1e-5)
        cfg_path = paths["root"] / ("n2_G%d.json" % G)
        save_config(cfg_path, cfg)
        codes[G] = main(["symbol", "--config", str(cfg_path), "--operator",
                         str(op_path),
                         "--out", str(paths["root"] / ("out_n2_G%d" % G))])
    assert codes == {22: 0, 60: 2}
    err = capsys.readouterr().err
    assert "12960000 grid points needs 17714112" in err
    assert "size guard of 16777216" in err
    _, vals = read_grid_csv(paths["root"] / "out_n2_G22" / "berezin_symbol.csv")
    assert vals.size == 22 ** 4 and vals.real.max() < 1.0 + 1e-12


def test_missing_config_file(paths, capsys):
    rc = main(["verify", "--config", str(paths["root"] / "nope.json"),
               "--out", str(paths["root"] / "out_nope")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(paths):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", str(paths["cfg_path"])])
    assert exc.value.code == 2


def test_wigner_n2_beyond_working_set_guard_exits_2(paths, capsys):
    # at G = 16 the largest term is the first expansion step (2N + G) N^3,
    # N = 2M - 1, beside the cached node table and B: 18315528 complex
    # entries at M = 27, over 2^24, refused before anything is allocated;
    # M = 26 needs 15788886 and runs
    codes = {}
    for M in (26, 27):
        cfg = ModelConfig(n=2, lam=1.0, M=M, L=28.0, G=16, tol_identity=1e-6,
                          tol_quadrature=0.9)
        cfg_path = paths["root"] / ("n2_M%d.json" % M)
        save_config(cfg_path, cfg)
        state_path = paths["root"] / ("n2_M%d_state.csv" % M)
        write_state_csv(state_path, np.eye(1, cfg.dim, 0, dtype=complex)[0])
        codes[M] = main(["wigner", "--config", str(cfg_path), "--state",
                         str(state_path),
                         "--out", str(paths["root"] / ("out_n2_M%d" % M))])
    assert codes == {26: 0, 27: 2}
    err = capsys.readouterr().err
    assert "needs 18315528" in err and "size guard of 16777216" in err
    _, vals = read_grid_csv(paths["root"] / "out_n2_M26" / "ambiguity.csv")
    assert vals.size == 16 ** 4 and np.abs(vals).max() < 1.0 + 1e-12

def test_wigner_guard_counts_both_tables(paths, capsys, monkeypatch):
    # the ambiguity table stays while the Wigner table is built beside it:
    # both tables and their finiteness masks, 2 * G^2 * 17/16 at n = 1
    cfg_path = paths["root"] / "cfg_M2_G64.json"
    save_config(cfg_path, default_config(lam=1.0, M=2, G=64))
    state_path = paths["root"] / "M2_state.csv"
    write_state_csv(state_path, np.array([0.6, 0.8j]))
    need = 2 * 64 ** 2 * 17 // 16
    codes = {}
    for limit in (need - 1, need):
        monkeypatch.setattr(schroedinger, "_TABLE_LIMIT", limit)
        out = paths["root"] / ("out_wigner_limit_%d" % limit)
        codes[limit] = main(["wigner", "--config", str(cfg_path), "--state",
                             str(state_path), "--out", str(out)])
        assert os.path.isfile(out / "wigner.csv") == (limit == need)
    assert codes == {need - 1: 2, need: 0}
    assert ("ambiguity and Wigner tables on 4096 grid points needs 8704 "
            "complex entries, over the size guard of 8703"
            in capsys.readouterr().err)


def test_wigner_beyond_both_tables_guard_exits_2(paths, capsys):
    # n = 1, M = 16: G = 2808 needs 16755336 <= 2^24; G = 2810 needs
    # 16779212 and is refused up front, before the map is computed
    cfg_path = paths["root"] / "cfg_G2810.json"
    save_config(cfg_path, default_config(lam=1.0, M=16, G=2810))
    state_path = paths["root"] / "M16_state.csv"
    write_state_csv(state_path, np.eye(16, dtype=complex)[0])
    out = paths["root"] / "out_G2810"
    assert main(["wigner", "--config", str(cfg_path), "--state",
                 str(state_path), "--out", str(out)]) == 2
    assert ("7896100 grid points needs 16779212 complex entries, over the "
            "size guard of 16777216" in capsys.readouterr().err)
    assert not os.path.exists(out / "ambiguity.csv")
    assert 2 * 2808 ** 2 * 17 // 16 == 16755336 <= 2 ** 24


def test_report_sweep_beyond_svd_guard_exits_2_up_front(paths, capsys):
    # the SVD guard's need grows with M: M = 46 needs 70094616 > 2^26 at
    # G = 128, so the whole range is refused before the first SVD
    cfg_path = paths["root"] / "cfg_default.json"
    save_config(cfg_path, default_config())
    out = paths["root"] / "out_sweep_60"
    start = time.perf_counter()
    rc = main(["report", "--config", str(cfg_path), "--sweep", "1..60",
               "--out", str(out)])
    assert rc == 2 and time.perf_counter() - start < 5.0
    assert ("symbol map SVD needs 70094616 complex entries, over the size "
            "guard of 67108864" in capsys.readouterr().err)
    assert not os.path.exists(out / "injectivity.json")
