"""What a fresh interpreter loads to import the package, to start the CLI and
to run the position-space quadrature oracle.

Start-up loads scipy.special and scipy.fft and scipy's private and meta
modules, nothing else of scipy.  No module of the package imports
scipy.signal, which pulls in scipy.stats, optimize, integrate, interpolate,
ndimage, sparse and spatial: the Riemann quadrature oracle
(oracle.riemann_sum, batched by ambiguity_batch) is one matmul.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PUBLIC = {"scipy.special", "scipy.fft"}


def _imported(*args: str) -> set[str]:
    """Modules a fresh `python -X importtime *args` imports, from its log."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


@pytest.mark.parametrize("args", [("-c", "import berezin, berezin.cli"),
                                  ("-m", "berezin", "--help")],
                         ids=["import", "cli-help"])
def test_startup_loads_only_special_and_fft_of_scipy(args):
    mods = _imported(*args)
    assert "berezin.cli" in mods and PUBLIC <= mods
    subpackages = {".".join(m.split(".")[:2]) for m in mods
                   if m.startswith("scipy.")}
    # scipy._lib, scipy.__config__, scipy.version, ... are private or meta
    public = {m for m in subpackages if not m.split(".")[1].startswith("_")
              and m != "scipy.version"}
    assert public == PUBLIC
    assert "scipy.signal" not in mods



def test_quadrature_oracle_loads_no_scipy_signal():
    # _imported fails on the child's exit code, so on either assert
    _imported("-c", "import sys, numpy as np; "
              "from berezin import ModelConfig, RepresentationContext; "
              "from berezin.schroedinger import ambiguity_batch; "
              "ctx = RepresentationContext(ModelConfig(M=4, G=32)); "
              "Z = ambiguity_batch(ctx, np.eye(4), np.eye(4)[0]); "
              "assert Z.shape == (32, 32, 4), Z.shape; "
              "assert 'scipy.signal' not in sys.modules")
