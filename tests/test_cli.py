"""End-to-end command-line behavior: exit codes, outputs, determinism."""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import berezin
from berezin import ConfigError, ModelConfig, cli, core, default_config
from berezin.cli import main
from berezin.transforms import _map_node_stage
from berezin.io import load_config, read_grid_csv, save_config, \
    write_operator_csv, write_state_csv


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


def test_verify_times_every_check(paths, capsys):
    # one wall time per row, keyed like the residuals, in --json and in the
    # table's s column; the manifest keeps the residuals alone
    out = paths["root"] / "out_times"
    rc = main(["verify", "--config", str(paths["cfg_path"]),
               "--out", str(out), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["elapsed_s"]) == list(payload["residual_summary"])
    doc = json.loads((out / "verify_manifest.json").read_text())
    assert "elapsed_s" not in doc
    header = (out / "verify_table.txt").read_text().splitlines()[0]
    assert header.split() == ["check", "value", "bound", "s", "status"]
    report = berezin.run_verification(paths["cfg"], seed=3)
    times = report.elapsed_summary()
    assert list(times) == list(report.residual_summary())
    assert all(t >= 0.0 for t in times.values())
    assert sum(times.values()) <= report.elapsed_seconds


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


def test_verify_failed_check_exits_1(paths, capsys):
    # coherent_norm is the one row bounded by tol_identity: at 1e-12 it
    # fails, and the table, the manifest and --json still report the run
    cfg_path = paths["root"] / "cfg_tight.json"
    save_config(cfg_path, default_config(lam=1.0, M=8, tol_identity=1e-12))
    out = paths["root"] / "out_tight"
    rc = main(["verify", "--config", str(cfg_path), "--out", str(out),
               "--json"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "failed checks: coherent_norm\n"
    payload = json.loads(captured.out)
    assert payload["passed"] is False
    assert payload["failures"] == ["coherent_norm"]
    rows = (out / "verify_table.txt").read_text().splitlines()
    assert [r.split()[0] for r in rows if r.endswith("FAIL")] == \
        ["coherent_norm"]
    assert (out / "verify_manifest.json").exists()


def test_verify_refuses_n2_exits_2(paths, capsys):
    cfg_path = paths["root"] / "cfg_verify_n2.json"
    save_config(cfg_path, default_config(n=2, M=5, G=40))
    out = paths["root"] / "out_verify_n2"
    rc = main(["verify", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: the verification battery is defined for n = 1\n"
    assert not (out / "verify_manifest.json").exists()


def test_verify_rejects_coarse_grid(paths, capsys):
    cfg_path = paths["root"] / "cfg_g8.json"
    cfg_path.write_text(json.dumps({
        "n": 1, "lambda": 1.0, "M": 16, "L": 22.978250586152114, "G": 8,
        "tol_identity": 1e-6, "tol_quadrature": 1e-5}))
    rc = main(["verify", "--config", str(cfg_path),
               "--out", str(paths["root"] / "out_g8")])
    assert rc == 2
    assert "too coarse" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["tol_identity", "tol_quadrature"])
@pytest.mark.parametrize("raw", ["Infinity", "-Infinity", "NaN"])
def test_verify_rejects_non_finite_tolerance(paths, capsys, key, raw):
    # with "tol_quadrature": Infinity this G = 8 grid (h = 5.7) passed the
    # grid validation and verify exited 0
    data = {"n": 1, "lambda": 1.0, "M": 16, "L": 22.978250586152114, "G": 8,
            "tol_identity": 1e-6, "tol_quadrature": 1e-5, key: "RAW"}
    cfg_path = paths["root"] / "cfg_tol.json"
    cfg_path.write_text(json.dumps(data).replace('"RAW"', raw))
    message = "%s must be a positive finite real" % key
    with pytest.raises(ConfigError, match=message):
        load_config(cfg_path)
    out = paths["root"] / "out_tol"
    rc = main(["verify", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (out / "verify_manifest.json").exists()


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


@pytest.mark.parametrize("sweep", ["1..2..3", "5", "..", "a..b", "0..2",
                                   "4..1"])
def test_report_bad_sweep(paths, capsys, sweep):
    out = paths["root"] / "out_badsweep"
    rc = main(["report", "--config", str(paths["cfg_path"]),
               "--out", str(out), "--sweep", sweep])
    assert rc == 2
    assert "--sweep" in capsys.readouterr().err
    assert not os.path.exists(out / "injectivity.json")


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


def test_verify_reruns_from_its_manifest(paths):
    # the manifest's config and seed reproduce the residuals byte for byte;
    # the seed matters: seed 0 gives other residuals
    cfg_path = paths["root"] / "cfg_m2.json"
    save_config(cfg_path, default_config(lam=1.0, M=2))
    first, rerun, other = (paths["root"] / d for d in
                           ("seed7", "seed7_rerun", "seed0"))
    assert main(["verify", "--config", str(cfg_path), "--out", str(first),
                 "--seed", "7"]) == 0
    doc = json.loads((first / "verify_manifest.json").read_text())
    assert doc["seed"] == 7
    cfg2 = paths["root"] / "cfg_from_manifest.json"
    cfg2.write_text(json.dumps(doc["config"]))
    assert main(["verify", "--config", str(cfg2), "--out", str(rerun),
                 "--seed", str(doc["seed"])]) == 0
    assert main(["verify", "--config", str(cfg2), "--out", str(other)]) == 0

    def residuals(out):
        doc = json.loads((out / "verify_manifest.json").read_text())
        return json.dumps(doc["residual_summary"], sort_keys=True).encode()

    assert residuals(rerun) == residuals(first) != residuals(other)


@pytest.mark.parametrize("command,extra", [
    ("symbol", ["--operator", "identity.csv"]),
    ("wigner", ["--state", "e1.csv"]), ("report", [])])
def test_seed_is_a_verify_flag_only(paths, command, extra, capsys):
    extra = [str(paths["root"] / e) if e.endswith(".csv") else e
             for e in extra]
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(paths["cfg_path"]), "--seed", "1",
              "--out", str(paths["root"] / "out_seed")] + extra)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_symbol_n2_beyond_symbol_guard_exits_2(paths, capsys, monkeypatch):
    # the symbol builds no coherent table, so M = 6, G = 22 (a table of
    # 8433216 complex entries) is served; its values' bound is the last
    # expansion step, counted on their first read, where the CSV writer
    # reads them before it opens the file: G = 60 needs 15350641 <= 2^24
    # and is served, G = 62 needs 17412585, and exits 2 with no file
    # written (G = 60 is not run: its CSV is 1.6 GB)
    op_path = paths["root"] / "n2_identity.csv"
    write_operator_csv(op_path, np.eye(36, dtype=complex))

    def run(G):
        cfg = ModelConfig(n=2, lam=1.0, M=6, L=7.0, G=G, tol_identity=1e-6,
                          tol_quadrature=1e-5)
        cfg_path = paths["root"] / ("n2_G%d.json" % G)
        save_config(cfg_path, cfg)
        return main(["symbol", "--config", str(cfg_path), "--operator",
                     str(op_path),
                     "--out", str(paths["root"] / ("out_n2_G%d" % G))])

    assert run(22) == 0 and run(62) == 2
    err = capsys.readouterr().err
    assert "node expansion on 14776336 grid points needs 17412585" in err
    assert "size guard of 16777216" in err
    assert os.listdir(paths["root"] / "out_n2_G62") == []
    monkeypatch.setattr(core, "_TABLE_LIMIT", 15350640)
    assert run(60) == 2
    assert "12960000 grid points needs 15350641" in capsys.readouterr().err
    assert os.listdir(paths["root"] / "out_n2_G60") == []
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
    # at G = 16 the coefficient map's node stage, the last Laguerre step
    # beside the cached node table and B, is refused up front: 18152371
    # complex entries at M = 27, over 2^24; M = 26 needs 15578594 and
    # runs, its values' expansion (15652818) served on their first read
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
    assert "coefficient map on 65536 grid points needs 18152371" in err
    assert "size guard of 16777216" in err
    _, vals = read_grid_csv(paths["root"] / "out_n2_M26" / "ambiguity.csv")
    assert vals.size == 16 ** 4 and np.abs(vals).max() < 1.0 + 1e-12


def test_wigner_refuses_its_tables_on_the_expansion_count(paths, capsys,
                                                          monkeypatch):
    # both tables expand by the same count, the ambiguity table first, in
    # the writer before it opens its file: at n = 1, M = 2, G = 64 the
    # last step's node tensor, input and output, 4297 entries; one under
    # it the command exits 2 and writes no file, at it both tables
    cfg_path = paths["root"] / "cfg_M2_G64.json"
    save_config(cfg_path, default_config(lam=1.0, M=2, G=64))
    state_path = paths["root"] / "M2_state.csv"
    write_state_csv(state_path, np.array([0.6, 0.8j]))
    need = 4297
    codes = {}
    for limit in (need - 1, need):
        monkeypatch.setattr(core, "_TABLE_LIMIT", limit)
        out = paths["root"] / ("out_wigner_limit_%d" % limit)
        codes[limit] = main(["wigner", "--config", str(cfg_path), "--state",
                             str(state_path), "--out", str(out)])
        written = sorted(os.listdir(out))
        assert written == ([] if limit < need else [
            "ambiguity.csv", "ambiguity.csv.manifest.json",
            "wigner.csv", "wigner.csv.manifest.json", "wigner_manifest.json"])
    assert codes == {need - 1: 2, need: 0}
    assert ("node expansion on 4096 grid points needs 4297 complex entries, "
            "over the size guard of 4296" in capsys.readouterr().err)


def test_wigner_guard_bounds_its_peak(guard_ctx, need_and_peak, tmp_path,
                                      monkeypatch):
    # the command's cold-cache peak (64 KiB left for small objects) is
    # bounded by the cached node table and B, FB and its temporaries,
    # beside the larger of the map's node stage and one expansion; the
    # ambiguity table is dropped before the Wigner table expands.  The CSV
    # writer, which holds one block of at most _BLOCK_ROWS rows and no
    # grid-sized array, is replaced by a stub that writes nothing but reads
    # the values; the count that refuses first is the map's
    cfg = guard_ctx.cfg
    n, M, G = cfg.n, cfg.M, cfg.G
    N = 2 * M - 1
    state_path = tmp_path / "state.csv"
    v = np.random.default_rng(14).standard_normal((2, cfg.dim))
    write_state_csv(state_path, (v[0] + 1j * v[1]) / np.linalg.norm(v))

    def write_grid_csv(path, fn, *_):
        fn.values  # as the writer does; the first read expands them
        return [path]

    monkeypatch.setattr(cli, "write_grid_csv", write_grid_csv)
    args = argparse.Namespace(command="wigner", state=str(state_path),
                              out=str(tmp_path), json=False)
    need, peak = need_and_peak(lambda: cli.cmd_wigner(cfg, args))
    cached = 2 * M * N * N + G * N
    assert need == cached + _map_node_stage(cfg)
    bound = cached + 3 * G * N + max(_map_node_stage(cfg),
                                     core._expansion_need(N, G, n))
    assert peak <= 16 * bound + 65536


def test_wigner_beyond_the_expansion_guard_exits_2(paths, capsys, monkeypatch):
    # n = 1, M = 16: G = 4082 needs 16790227 and is refused on the first
    # read, before any file is opened; G = 4080 needs 16773841 <= 2^24 (not
    # run: its CSVs are 1.3 GB)
    state_path = paths["root"] / "M16_state.csv"
    write_state_csv(state_path, np.eye(16, dtype=complex)[0])

    def run(G):
        cfg_path = paths["root"] / ("cfg_G%d.json" % G)
        save_config(cfg_path, default_config(lam=1.0, M=16, G=G))
        return main(["wigner", "--config", str(cfg_path), "--state",
                     str(state_path), "--out",
                     str(paths["root"] / ("out_G%d" % G))])

    assert run(4082) == 2
    assert ("16662724 grid points needs 16790227 complex entries, over the "
            "size guard of 16777216" in capsys.readouterr().err)
    assert os.listdir(paths["root"] / "out_G4082") == []
    monkeypatch.setattr(core, "_TABLE_LIMIT", 16773840)
    assert run(4080) == 2
    assert ("16646400 grid points needs 16773841 complex entries"
            in capsys.readouterr().err)


def test_wigner_refuses_the_count_of_the_library_inverse(paths, capsys):
    # n = 2, M = 5, G = 64: the command exits 2 at its first read, before
    # any file is opened, and the library's Wigner table, served in node
    # form, refuses the same count when its values are read; G = 56, which
    # both refused before, is served (not run: its CSVs are 1 GB)
    cfg = default_config(n=2, M=5, G=64)
    cfg_path = paths["root"] / "cfg_n2_G64.json"
    save_config(cfg_path, cfg)
    state_path = paths["root"] / "n2_state.csv"
    write_state_csv(state_path, np.eye(25, dtype=complex)[1])
    out = paths["root"] / "out_n2_G64"
    start = time.perf_counter()
    assert main(["wigner", "--config", str(cfg_path), "--state",
                 str(state_path), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 5.0
    count = ("node expansion on 16777216 grid points needs 19143073 complex "
             "entries")
    assert count in capsys.readouterr().err
    assert os.listdir(out) == []
    ctx = berezin.RepresentationContext(cfg)
    wig = berezin.wigner(ctx, berezin.basis_state(25, 1),
                         berezin.gaussian_vector(cfg))
    with pytest.raises(MemoryError, match=count):
        wig.values
    assert core._expansion_need(9, 56, 2) <= core._TABLE_LIMIT



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
    assert ("symbol map SVD on 16384 grid points needs 70094616 complex "
            "entries, over the size guard of 67108864"
            in capsys.readouterr().err)
    assert not os.path.exists(out / "injectivity.json")


@pytest.mark.parametrize("key, raw, message", [
    ("L", "null", "config key 'L' must be a number"),
    ("lambda", "1" + "0" * 400, "lambda must be a positive finite real"),
    ("M", "true", "config key 'M' must be an integer"),
    ("tol_identity", '"1e-6"', "config key 'tol_identity' must be a number")],
    ids=["L-null", "lambda-401-digits", "M-true", "tol_identity-string"])
def test_config_value_refused_by_model_config_exits_2(paths, capsys, key, raw,
                                                      message):
    # a 401-digit lambda raised an OverflowError traceback
    data = json.loads(paths["cfg_path"].read_text())
    data[key] = "RAW"
    cfg_path = paths["root"] / "cfg_refused.json"
    cfg_path.write_text(json.dumps(data).replace('"RAW"', raw))
    out = paths["root"] / "out_refused"
    rc = main(["report", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not (out / "injectivity.json").exists()
