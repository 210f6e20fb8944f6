"""Config, CSV, and manifest serialization.

Floats are written with %.17g so every file round-trips through the readers
here to bit-identical values.  Grid CSVs keep np.savetxt's bytes, but each
coordinate is formatted once and a block of rows takes one `%`.  All parse
problems raise ConfigError, which the CLI maps to exit code 2.
"""
from __future__ import annotations

import json
import platform
from datetime import datetime, timezone
from itertools import product

import numpy as np
import scipy

from .core import ConfigError, ModelConfig

_CONFIG_KEYS = ("n", "lambda", "M", "L", "G", "tol_identity", "tol_quadrature")
_BLOCK_ROWS = 4096  # rows per `%` in write_grid_csv (G if G is larger)


def config_to_dict(cfg: ModelConfig) -> dict:
    return {"n": cfg.n, "lambda": cfg.lam, "M": cfg.M, "L": cfg.L, "G": cfg.G,
            "tol_identity": cfg.tol_identity,
            "tol_quadrature": cfg.tol_quadrature}


def config_from_dict(data) -> ModelConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(data) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError("unknown config keys: %s" % ", ".join(unknown))
    missing = sorted(set(_CONFIG_KEYS) - set(data))
    if missing:
        raise ConfigError("missing config keys: %s" % ", ".join(missing))

    def integer(key):
        v = data[key]
        if (isinstance(v, bool) or not isinstance(v, (int, float))
                or (isinstance(v, float) and not v.is_integer())):
            raise ConfigError("config key %r must be an integer" % key)
        return int(v)

    def real(key):
        v = data[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError("config key %r must be a number" % key)
        return float(v)

    return ModelConfig(n=integer("n"), lam=real("lambda"), M=integer("M"),
                       L=real("L"), G=integer("G"),
                       tol_identity=real("tol_identity"),
                       tol_quadrature=real("tol_quadrature"))


def load_config(path) -> ModelConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc)) from exc
    return config_from_dict(data)


def save_config(path, cfg: ModelConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv_header(n: int) -> str:
    cols = ["a%d" % (k + 1) for k in range(n)]
    cols += ["b%d" % (k + 1) for k in range(n)]
    return ",".join(cols + ["re", "im"])


def write_grid_csv(path, fn, quantity: str, cfg: ModelConfig) -> list:
    """CSV rows `a1,..,bn,re,im` in grid order plus a sidecar manifest;
    returns the two paths written."""
    grid = fn.grid
    # orbit functions sit on the dual lattice, under the same header
    axis = fn.xi_axis if hasattr(fn, "xi_axis") else grid.axis
    coords = ["%.17g," % v for v in axis.tolist()]
    # np.savetxt's bytes: rows over the last k axes share one template, and
    # one `%` fills a block with its interleaved re,im floats
    k = 1 + sum(grid.G ** j <= _BLOCK_ROWS for j in range(2, 2 * grid.n + 1))
    lines = ["".join(c) + "%.17g,%.17g\n" for c in product(coords, repeat=k)]
    blocks = fn.values.view(np.float64).reshape(-1, 2 * len(lines))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_csv_header(grid.n) + "\n")
        for lead, vals in zip(product(coords, repeat=2 * grid.n - k), blocks):
            prefix = "".join(lead)
            fh.write((prefix + prefix.join(lines)) % tuple(vals.tolist()))
    manifest = {"config": config_to_dict(cfg),
                "grid": {"L": grid.L, "G": grid.G, "h": grid.h,
                         "density": grid.density},
                "quantity": quantity}
    sidecar = str(path) + ".manifest.json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [path, sidecar]


def read_grid_csv(path) -> tuple:
    """Returns (coords, complex values); validates the header shape."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if len(cols) < 4 or cols[-2:] != ["re", "im"] or len(cols) % 2 != 0:
            raise ConfigError("%s: unexpected CSV header %r" % (path, header))
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(cols):
        raise ConfigError("%s: row width does not match the header" % path)
    return data[:, :-2], data[:, -2] + 1j * data[:, -1]


def write_operator_csv(path, entries: np.ndarray) -> None:
    """dim rows, each row the re,im pairs of one matrix row."""
    table = np.ascontiguousarray(entries, dtype=complex).view(np.float64)
    np.savetxt(path, table, fmt="%.17g", delimiter=",")


def read_operator_csv(path, dim: int) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                nums = [float(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise ConfigError("%s line %d: %s" % (path, ln, exc)) from exc
            if len(nums) != 2 * dim:
                raise ConfigError("%s line %d: expected %d values, got %d" %
                                  (path, ln, 2 * dim, len(nums)))
            arr = np.asarray(nums)
            rows.append(arr[0::2] + 1j * arr[1::2])
    if len(rows) != dim:
        raise ConfigError("%s: expected %d rows, got %d" % (path, dim, len(rows)))
    mat = np.stack(rows)
    if not np.all(np.isfinite(mat)):
        raise ConfigError("%s: non-finite entries" % path)
    return mat


def write_state_csv(path, coeffs: np.ndarray) -> None:
    """One `re,im` line per coefficient."""
    table = np.column_stack([np.asarray(coeffs).real, np.asarray(coeffs).imag])
    np.savetxt(path, table, fmt="%.17g", delimiter=",")


def read_state_csv(path, dim: int) -> np.ndarray:
    vals = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            toks = line.split(",")
            if len(toks) != 2:
                raise ConfigError("%s line %d: expected `re,im`, got %r" %
                                  (path, ln, line))
            try:
                vals.append(float(toks[0]) + 1j * float(toks[1]))
            except ValueError as exc:
                raise ConfigError("%s line %d: %s" % (path, ln, exc)) from exc
    if len(vals) != dim:
        raise ConfigError("%s: expected %d coefficients, got %d" %
                          (path, dim, len(vals)))
    out = np.asarray(vals)
    if not np.all(np.isfinite(out)):
        raise ConfigError("%s: non-finite entries" % path)
    return out


def _versions() -> dict:
    """Versions of the code that computed a run's outputs."""
    from . import __version__
    return {"berezin": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__, "python": platform.python_version()}


def write_run_manifest(path, cfg: ModelConfig, command: str, outputs: list,
                       residual_summary: dict) -> None:
    doc = {"config": config_to_dict(cfg),
           "command": command,
           "outputs": [str(p) for p in outputs],
           "residual_summary": {k: float(v) for k, v in residual_summary.items()},
           "timestamp": datetime.now(timezone.utc).isoformat(),
           "versions": _versions()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
