"""In-memory span recorder for the traced benchmark run.

`Recorder.install()` replaces each traced berezin function at every place its
name is bound (`from .x import f` copies the name into other modules, so the
defining module alone is not enough) with a wrapper that records one span per
call: name, start, end, parent span and, for file writers, bytes written.
`uninstall()` puts the originals back.  Spans stay in memory; the benchmark
writes them out when the run ends.

A span's self time is its duration minus the part of that interval covered by
its direct children, so the self times of one operation's spans sum to the
operation's wall time.
"""
from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

OP = "bench.op"  # the benchmark's own span around one operation


def _grid_csv_bytes(args, kwargs) -> int:
    path = str(args[0] if args else kwargs["path"])
    return os.path.getsize(path) + os.path.getsize(path + ".manifest.json")


def _file_bytes(args, kwargs) -> int:
    return os.path.getsize(str(args[0] if args else kwargs["path"]))


# (span name, module, attribute path inside the module, bytes-written probe,
#  trace peak memory).  heisenberg does no measurable work in any workload.
TARGETS = (
    ("core.hermite_columns", "berezin.core", "hermite_columns", None, False),
    ("schroedinger.ambiguity_batch", "berezin.schroedinger", "ambiguity_batch",
     None, False),
    ("schroedinger.coherent_table", "berezin.schroedinger",
     "RepresentationContext.coherent_table", None, True),
    ("schroedinger.rep_matrix", "berezin.schroedinger", "rep_matrix", None,
     False),
    ("schroedinger.coherent_state", "berezin.schroedinger", "coherent_state",
     None, False),
    ("symbols.covariant_symbol", "berezin.symbols", "covariant_symbol", None,
     False),
    ("symbols.build_symbol_map", "berezin.symbols", "build_symbol_map", None,
     False),
    ("symbols.reconstruct", "berezin.symbols", "reconstruct", None, False),
    ("symbols.covariance_residual", "berezin.symbols", "covariance_residual",
     None, False),
    ("symbols.frame_operator", "berezin.symbols", "frame_operator", None,
     False),
    ("transforms.coefficient_map", "berezin.transforms", "coefficient_map",
     None, False),
    ("transforms.fourier_orbit", "berezin.transforms", "fourier_orbit", None,
     False),
    ("transforms.inverse_fourier_orbit", "berezin.transforms",
     "inverse_fourier_orbit", None, False),
    ("oracle.gauss_hermite_matrix_element", "berezin.oracle",
     "gauss_hermite_matrix_element", None, False),
    ("oracle.oracle_matrix_element", "berezin.oracle", "oracle_matrix_element",
     None, False),
    ("oracle.oracle_double_sum_ft", "berezin.oracle", "oracle_double_sum_ft",
     None, False),
    ("io.write_grid_csv", "berezin.io", "write_grid_csv", _grid_csv_bytes,
     False),
    ("io.write_run_manifest", "berezin.io", "write_run_manifest", _file_bytes,
     False),
    ("verify.run_verification", "berezin.verify", "run_verification", None,
     False),
    ("cli.main", "berezin.cli", "main", None, False),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 for a root
    nbytes: int = 0
    peak_bytes: int = 0  # tracemalloc peak inside the call, where traced


def self_times(spans: list) -> list:
    """Per span: duration minus the union of its direct children's intervals."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, lo, hi = 0.0, None, None
        for j in sorted(kids, key=lambda j: spans[j].start):
            a, b = max(spans[j].start, s.start), min(spans[j].end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(s.end - s.start - covered)
    return out


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Recorder:
    """Wraps TARGETS while installed and keeps every span in `spans`."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []   # (owner, attribute, original)
        # tracemalloc slows the traced call by a quarter or more, so the
        # benchmark turns it off once set-up and warm-up are recorded
        self.trace_memory = True

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0,
                               self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def _wrap(self, name, fn, count_bytes, trace_memory):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            own_tracing = (trace_memory and self.trace_memory
                           and not tracemalloc.is_tracing())
            if own_tracing:
                tracemalloc.start()
            try:
                with self.span(name) as sp:
                    result = fn(*args, **kwargs)
                    if count_bytes is not None:
                        sp.nbytes = count_bytes(args, kwargs)
                    if own_tracing:
                        sp.peak_bytes = tracemalloc.get_traced_memory()[1]
            finally:
                if own_tracing:
                    tracemalloc.stop()
            return result
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "berezin" or k.startswith("berezin."))]
        for name, module, path, count_bytes, trace_memory in TARGETS:
            owner, attr = _resolve(module, path)
            orig = owner.__dict__[attr]
            wrapped = self._wrap(name, orig, count_bytes, trace_memory)
            bindings = [(owner, attr)]
            if not isinstance(owner, type):
                bindings += [(m, k) for m in modules if m is not owner
                             for k, v in vars(m).items() if v is orig]
            for obj, key in bindings:
                setattr(obj, key, wrapped)
                self._patches.append((obj, key, orig))

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()
