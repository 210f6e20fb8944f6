"""What a fresh interpreter loads to import the package, to start the CLI,
to run the node-route commands and the battery, and to run the
position-space quadrature oracle.

The node route needs numpy only: its Gauss-Hermite node positions come from
numpy's hermgauss and its 1-D inverse FFT from numpy.fft.  The battery's
oracles take their Hermite values from the oracle's own port of scipy's
recurrence, and the n-D orbit FFT runs in place by numpy.fft.  So start-up
loads no public scipy submodule, and `symbol`, `wigner`, `report` and
`verify` load none of scipy.special, scipy.fft or scipy.linalg; only
oracle.analytic_singular_values, which tests and CI call, loads
scipy.special.
No module of the package imports scipy.signal, which pulls in scipy.stats,
optimize, integrate, interpolate, ndimage, sparse and spatial: the Riemann
quadrature oracle (oracle.riemann_sum, batched by ambiguity_batch) is one
matmul.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from berezin import default_config
from berezin.io import save_config, write_operator_csv, write_state_csv

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = {"scipy.special", "scipy.fft", "scipy.linalg"}


def _imported(*args: str, cwd=None) -> set[str]:
    """Modules a fresh `python -X importtime *args` imports, from its log."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def _scipy_subpackages(mods: set[str]) -> set[str]:
    """The scipy subpackages that mods load from.  A subpackage that scipy
    loads lazily (on attribute access, through importlib) has no line of its
    own in the log, but its modules do."""
    return {".".join(m.split(".")[:2]) for m in mods
            if m.startswith("scipy.")}


def _public_scipy(mods: set[str]) -> set[str]:
    """The public scipy subpackages among mods: scipy._lib, scipy.__config__,
    scipy.version, ... are private or meta."""
    return {m for m in _scipy_subpackages(mods)
            if not m.split(".")[1].startswith("_") and m != "scipy.version"}


@pytest.mark.parametrize("args", [("-c", "import berezin, berezin.cli"),
                                  ("-m", "berezin", "--help")],
                         ids=["import", "cli-help"])
def test_startup_loads_no_public_scipy_submodule(args):
    mods = _imported(*args)
    assert "berezin.cli" in mods
    assert _public_scipy(mods) == set()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A directory holding the n = 1, M = 4, G = 32 config, the identity
    operator and the state e_1, for fresh `python -m berezin` processes."""
    d = tmp_path_factory.mktemp("startup")
    save_config(d / "cfg.json", default_config(n=1, M=4, G=32))
    write_operator_csv(d / "op.csv", np.eye(4, dtype=complex))
    write_state_csv(d / "state.csv", np.eye(4, dtype=complex)[1])
    return d


@pytest.mark.parametrize("command", [("symbol", "--operator", "op.csv"),
                                     ("wigner", "--state", "state.csv"),
                                     ("report",)],
                         ids=lambda c: c[0])
def test_node_route_commands_load_no_special_fft_or_linalg(small_run,
                                                           command):
    mods = _imported("-m", "berezin", *command, "--config", "cfg.json",
                     "--out", "out-" + command[0], cwd=small_run)
    assert "berezin.cli" in mods
    assert _scipy_subpackages(mods) & HEAVY == set()


def test_verify_loads_no_special_fft_or_linalg(small_run):
    # the whole battery, oracles included, on numpy alone
    mods = _imported("-m", "berezin", "verify", "--config", "cfg.json",
                     "--out", "out-verify", cwd=small_run)
    assert "berezin.oracle" in mods
    assert _scipy_subpackages(mods) & HEAVY == set()


def test_quadrature_oracle_loads_no_scipy_signal():
    # _imported fails on the child's exit code, so on either assert
    _imported("-c", "import sys, numpy as np; "
              "from berezin import ModelConfig, RepresentationContext; "
              "from berezin.schroedinger import ambiguity_batch; "
              "ctx = RepresentationContext(ModelConfig(M=4, G=32)); "
              "Z = ambiguity_batch(ctx, np.eye(4), np.eye(4)[0]); "
              "assert Z.shape == (32, 32, 4), Z.shape; "
              "assert 'scipy.signal' not in sys.modules")
