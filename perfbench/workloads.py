"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in `setup`, makes the
inputs of operation i in `inputs(i)` (untimed), runs the operation in `run`
(timed) and validates its output in `check` (untimed), raising CheckFailed.
Every berezin function is looked up on its module at call time, so the span
recorder's wrappers see each call.

`cycle` is the number of consecutive operations that cover the workload's
inputs once; a run always measures whole cycles.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil

import numpy as np

import berezin
import berezin.cli
import berezin.core
import berezin.io
import berezin.schroedinger
import berezin.symbols
import berezin.transforms


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _cli(argv: list) -> tuple:
    """berezin.cli.main in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = berezin.cli.main(argv)
    return code, buf.getvalue()


def _random_complex(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class Workload:
    name = ""
    cycle = 1

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, i])

    def inputs(self, i: int):
        return i

    def run(self, inputs):
        raise NotImplementedError

    def check(self, inputs, result) -> None:
        raise NotImplementedError


class Battery(Workload):
    """`berezin verify --json` in-process, lambda cycling 0.5 -> 1 -> 4."""

    name = "battery"
    LAMBDAS = (0.5, 1.0, 4.0)
    cycle = len(LAMBDAS)

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        self.verify_seed = int(np.random.default_rng(seed).integers(2 ** 31))
        self.configs = []
        for k, lam in enumerate(self.LAMBDAS):
            path = os.path.join(workdir, "verify-%d.json" % k)
            berezin.io.save_config(path, berezin.core.default_config(lam=lam))
            self.configs.append(path)
        self.out = os.path.join(workdir, "verify-out")
        self.reference = {}

    def run(self, i):
        k = i % self.cycle
        return _cli(["verify", "--json", "--config", self.configs[k],
                     "--out", self.out, "--seed", str(self.verify_seed)])

    def check(self, i, result):
        code, stdout = result
        _require(code == 0, "verify exited %r" % code)
        doc = json.loads(stdout)
        _require(doc["passed"] and not doc["failures"],
                 "failed checks: %s" % doc["failures"])
        summary = json.dumps(doc["residual_summary"], sort_keys=True)
        ref = self.reference.setdefault(i % self.cycle, summary)
        _require(summary == ref, "residual_summary differs from the first "
                 "operation at lambda %g" % self.LAMBDAS[i % self.cycle])


class CliExport(Workload):
    """`symbol`, `wigner`, `report --sweep 1..4` at the README default config."""

    name = "cli-export"
    OUTPUTS = ("berezin_symbol.csv", "berezin_symbol.csv.manifest.json",
               "symbol_manifest.json", "ambiguity.csv",
               "ambiguity.csv.manifest.json", "wigner.csv",
               "wigner.csv.manifest.json", "wigner_manifest.json",
               "injectivity.json", "report_manifest.json")
    RUN_MANIFESTS = ("symbol_manifest.json", "wigner_manifest.json",
                     "report_manifest.json")

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        cfg = berezin.core.default_config()
        rng = np.random.default_rng(seed)
        op = _random_complex(rng, (cfg.dim, cfg.dim))
        state = _random_complex(rng, cfg.dim)
        common = ["--config", os.path.join(workdir, "cfg.json"),
                  "--out", os.path.join(workdir, "export")]
        berezin.io.save_config(common[1], cfg)
        berezin.io.write_operator_csv(os.path.join(workdir, "op.csv"),
                                      op / np.linalg.norm(op))
        berezin.io.write_state_csv(os.path.join(workdir, "state.csv"),
                                   state / np.linalg.norm(state))
        self.commands = [
            ["symbol", "--operator", os.path.join(workdir, "op.csv")] + common,
            ["wigner", "--state", os.path.join(workdir, "state.csv")] + common,
            ["report", "--sweep", "1..4"] + common]
        self.out = common[3]
        self.reference = None

    def inputs(self, i):
        # every digest the check takes must come from a file this pass wrote
        shutil.rmtree(self.out, ignore_errors=True)
        return i

    def run(self, i):
        return [_cli(argv)[0] for argv in self.commands]

    def _digest(self, name: str) -> str:
        path = os.path.join(self.out, name)
        if name in self.RUN_MANIFESTS:
            # run manifests carry a wall-clock timestamp; all else must match
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc.pop("timestamp")
            data = json.dumps(doc, sort_keys=True).encode()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        return hashlib.sha256(data).hexdigest()

    def check(self, i, result):
        _require(result == [0, 0, 0], "exit codes %s" % result)
        missing = [n for n in self.OUTPUTS
                   if not os.path.isfile(os.path.join(self.out, n))]
        _require(not missing, "outputs not written: %s" % missing)
        digests = {name: self._digest(name) for name in self.OUTPUTS}
        if self.reference is None:
            self.reference = digests
        changed = [n for n in self.OUTPUTS if digests[n] != self.reference[n]]
        _require(not changed, "outputs differ from the first pass: %s" % changed)


class SymbolStream(Workload):
    """covariant_symbol of K random operators against one warm M=32, G=256 table."""

    name = "symbol-stream"
    K = 16

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        cfg = berezin.core.ModelConfig(
            n=1, lam=1.0, M=32, L=berezin.core.default_L(1.0, 32), G=256,
            tol_identity=1e-6, tol_quadrature=1e-5)
        self.ctx = berezin.schroedinger.RepresentationContext(cfg)
        self.ctx.coherent_table()

    def inputs(self, i):
        rng = self.rng(i)
        dim = self.ctx.cfg.dim
        return [berezin.core.OperatorMatrix(_random_complex(rng, (dim, dim)))
                for _ in range(self.K)]

    def run(self, ops):
        return [berezin.symbols.covariant_symbol(self.ctx, A) for A in ops]

    def check(self, ops, symbols):
        grid = self.ctx.grid
        dd = grid.density * grid.cell_weight
        worst = 0.0
        for A, sym in zip(ops, symbols):
            trace_norm = np.linalg.svd(A.entries, compute_uv=False).sum()
            worst = max(worst, abs(np.trace(A.entries) - dd * sym.values.sum())
                        / trace_norm)
        _require(worst < self.ctx.cfg.tol_identity,
                 "trace identity residual %.3e" % worst)


class N2Transforms(Workload):
    """coefficient_map(f, vacuum) then inverse_fourier_orbit at n = 2."""

    name = "n2-transforms"

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        cfg = berezin.core.ModelConfig(
            n=2, lam=1.0, M=5, L=berezin.core.default_L(1.0, 5), G=40,
            tol_identity=1e-6, tol_quadrature=1e-5)
        self.ctx = berezin.schroedinger.RepresentationContext(cfg)
        self.vacuum = berezin.schroedinger.gaussian_vector(cfg)

    def inputs(self, i):
        v = _random_complex(self.rng(i), self.ctx.cfg.dim)
        return berezin.core.HermiteState(v / np.linalg.norm(v))

    def run(self, f):
        amb = berezin.transforms.coefficient_map(self.ctx, f, self.vacuum)
        return amb, berezin.transforms.inverse_fourier_orbit(amb)

    def check(self, f, result):
        amb, wig = result
        tol = self.ctx.cfg.tol_identity
        da, dw = abs(amb.norm() ** 2 - 1.0), abs(wig.norm() ** 2 - 1.0)
        _require(da < tol and dw < tol,
                 "Moyal norms off by %.3e (ambiguity), %.3e (Wigner)" % (da, dw))


REGISTRY = {w.name: w for w in (Battery, CliExport, SymbolStream, N2Transforms)}
