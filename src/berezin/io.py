"""Config, CSV, and manifest serialization.

Floats are written with %.17g so every file round-trips through the readers
here to bit-identical values.  Grid CSVs keep np.savetxt's bytes, but each
coordinate is formatted once and a block of rows takes one `%`.  All parse
problems raise ConfigError, which the CLI maps to exit code 2.
"""
from __future__ import annotations

import json
import platform
import warnings
from dataclasses import fields
from datetime import datetime, timezone
from itertools import product

import numpy as np
import scipy

from .core import ConfigError, ModelConfig

# JSON key -> field of ModelConfig: each field, lam written "lambda"
_CONFIG_KEYS = {"lambda" if f.name == "lam" else f.name: f.name
                for f in fields(ModelConfig)}
_BLOCK_ROWS = 4096  # rows per `%` in write_grid_csv (G if G is larger)


def write_json(path, doc) -> None:
    """doc as JSON, indented by 2 with sorted keys, and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_to_dict(cfg: ModelConfig) -> dict:
    return {key: getattr(cfg, name) for key, name in _CONFIG_KEYS.items()}


def config_from_dict(data) -> ModelConfig:
    """ModelConfig checks the values; a null L, which it defaults, is not."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(data) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError("unknown config keys: %s" % ", ".join(unknown))
    missing = sorted(set(_CONFIG_KEYS) - set(data))
    if missing:
        raise ConfigError("missing config keys: %s" % ", ".join(missing))
    if data["L"] is None:
        raise ConfigError("config key 'L' must be a number")
    return ModelConfig(**{name: data[key] for key, name in _CONFIG_KEYS.items()})


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
    write_json(path, config_to_dict(cfg))


def _csv_header(n: int, coords: tuple) -> str:
    return ",".join(["%s%d" % (c, k + 1) for c in coords for k in range(n)]
                    + ["re", "im"])


def write_grid_csv(path, fn, quantity: str, cfg: ModelConfig) -> list:
    """CSV rows `a1,..,bn,re,im` (`alpha1,..,betan,re,im` for orbit samples,
    the names fn.coords) in grid order at the coordinates fn.axis of its
    lattice, plus a sidecar manifest; returns the two paths written.

    The manifest's "grid" is the config's phase grid; its "lattice" is the
    rows' own: the axis step and the weight of one sample."""
    # read first: a node-route sample expands its values here, and at the
    # default config expanding the Wigner table after the row templates
    # were built made its rows' `%` formatting 20 % slower
    grid, values = fn.grid, fn.values.view(np.float64)
    coords = ["%.17g," % v for v in fn.axis.tolist()]
    # np.savetxt's bytes: rows over the last k axes share one template, and
    # one `%` fills a block with its interleaved re,im floats
    k = 1 + sum(grid.G ** j <= _BLOCK_ROWS for j in range(2, 2 * grid.n + 1))
    lines = ["".join(c) + "%.17g,%.17g\n" for c in product(coords, repeat=k)]
    blocks = values.reshape(-1, 2 * len(lines))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_csv_header(grid.n, fn.coords) + "\n")
        for lead, vals in zip(product(coords, repeat=2 * grid.n - k), blocks):
            prefix = "".join(lead)
            fh.write((prefix + prefix.join(lines)) % tuple(vals.tolist()))
    manifest = {"config": config_to_dict(cfg),
                "grid": {"L": grid.L, "G": grid.G, "h": grid.h,
                         "density": grid.density},
                "lattice": {"step": fn.step, "weight": fn.weight},
                "quantity": quantity}
    sidecar = str(path) + ".manifest.json"
    write_json(sidecar, manifest)
    return [path, sidecar]


def read_grid_csv(path) -> tuple:
    """(coords, complex values); any fault is a ConfigError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if len(cols) < 4 or cols[-2:] != ["re", "im"] or len(cols) % 2 != 0:
            raise ConfigError("%s: unexpected CSV header %r" % (path, header))
        try:
            with warnings.catch_warnings():  # no rows: refused below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError("%s: %s" % (path, exc)) from exc
    if data.shape[0] == 0:
        raise ConfigError("%s: no rows after the header" % path)
    if data.shape[1] != len(cols):
        raise ConfigError("%s: row width does not match the header" % path)
    if not (np.isfinite(data.min()) and np.isfinite(data.max())):
        raise ConfigError("%s: non-finite entries" % path)
    return data[:, :-2], data[:, -2] + 1j * data[:, -1]


def write_operator_csv(path, entries: np.ndarray) -> None:
    """One line per matrix row: the re,im pairs of its entries."""
    table = np.ascontiguousarray(entries, dtype=complex).view(np.float64)
    np.savetxt(path, table, fmt="%.17g", delimiter=",")


def write_state_csv(path, coeffs: np.ndarray) -> None:
    """One `re,im` line per coefficient: the operator CSV of one column."""
    write_operator_csv(path, np.reshape(coeffs, (-1, 1)))


def _read_complex_rows(path, rows: int, cols: int, noun: str) -> np.ndarray:
    """The (rows, cols) complex table of a CSV whose non-blank lines each
    hold cols re,im pairs; noun names the lines in the count message."""
    table = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                nums = [float(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise ConfigError("%s line %d: %s" % (path, ln, exc)) from exc
            if len(nums) != 2 * cols:
                raise ConfigError("%s line %d: expected %d values, got %d" %
                                  (path, ln, 2 * cols, len(nums)))
            table.append(nums)
    if len(table) != rows:
        raise ConfigError("%s: expected %d %s, got %d" %
                          (path, rows, noun, len(table)))
    mat = np.array(table).view(complex)
    if not np.all(np.isfinite(mat)):
        raise ConfigError("%s: non-finite entries" % path)
    return mat


def read_operator_csv(path, dim: int) -> np.ndarray:
    return _read_complex_rows(path, dim, dim, "rows")


def read_state_csv(path, dim: int) -> np.ndarray:
    return _read_complex_rows(path, dim, 1, "coefficients")[:, 0]


def _versions() -> dict:
    """Versions of the code that computed a run's outputs."""
    from . import __version__
    return {"berezin": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__, "python": platform.python_version()}


def write_run_manifest(path, cfg: ModelConfig, command: str, outputs: list,
                       residual_summary: dict, seed: int | None = None) -> None:
    doc = {"config": config_to_dict(cfg),
           "command": command,
           "outputs": [str(p) for p in outputs],
           "residual_summary": {k: float(v) for k, v in residual_summary.items()},
           "timestamp": datetime.now(timezone.utc).isoformat(),
           "versions": _versions()}
    if seed is not None:
        doc["seed"] = seed
    write_json(path, doc)
