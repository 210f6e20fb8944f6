"""One workload process: set up, warm up, then measure or trace.

Started by run.py, never imported.  The BLAS/OpenMP thread count is fixed
here, before numpy is imported.  The last line of stdout is one JSON object
with this process's set-up time, operation times, counts and environment.

  --mode measure  set up, warm up, then run operations for --seconds
  --mode trace    trace set-up and warm-up, then alternate untraced and
                  traced operations for --seconds
"""
from __future__ import annotations

import os

THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from spans import OP, Recorder, self_times  # noqa: E402


def _import_program():
    sys.path.insert(0, SRC)
    import berezin
    if not os.path.abspath(berezin.__file__).startswith(SRC + os.sep):
        raise SystemExit("berezin imported from %s, not from %s"
                         % (berezin.__file__, SRC))
    return berezin


def _environment(berezin) -> dict:
    import numpy
    import scipy
    return {"threads": {v: os.environ[v] for v in THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "berezin": berezin.__version__}


class Runner:
    """Runs and checks operations, counting attempts and failures."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def op(self, i: int, rec=None) -> float:
        """Runs and checks operation i, traced when `rec` is given; returns
        its wall time."""
        inputs = self.wl.inputs(i)
        self.attempted += 1
        result, error = None, None
        if rec is not None:
            rec.install()
        t0 = time.perf_counter()
        try:
            with rec.span(OP) if rec is not None else contextlib.nullcontext():
                result = self.wl.run(inputs)
        except Exception as exc:  # a failed operation; the run goes on
            error = exc
        dt = time.perf_counter() - t0
        if rec is not None:
            rec.uninstall()
        if error is None:
            try:
                self.wl.check(inputs, result)
            except Exception as exc:
                error = exc
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("op %d: %s: %s"
                                   % (i, type(error).__name__, error))
        return dt


def _trace_layers(spans, n_setup: int, traced: list, untraced: list) -> dict:
    """Per-operation layer figures from the traced operations' spans."""
    n = len(traced)
    layers: dict = {}
    for k, (sp, own) in enumerate(zip(spans, self_times(spans))):
        d = layers.setdefault(sp.name, {"s": 0.0, "calls": 0, "bytes": 0,
                                        "setup_s": 0.0, "peak_mb": 0.0})
        d["peak_mb"] = max(d["peak_mb"], sp.peak_bytes / 2 ** 20)
        if k < n_setup:
            d["setup_s"] += sp.end - sp.start
        else:
            d["s"] += own / n
            d["calls"] += 1 / n
            d["bytes"] += sp.nbytes / n
    return {"layers": layers,
            "op_mean_s": statistics.fmean(traced),
            "traced_op_s": statistics.median(traced),
            "untraced_op_s": statistics.median(untraced)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("measure", "trace"),
                   required=True)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() when run.py started this process")
    p.add_argument("--spans", default=None,
                   help="file the traced run writes its spans to")
    args = p.parse_args(argv)

    berezin = _import_program()
    import workloads

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    wl = workloads.REGISTRY[args.workload]()
    runner = Runner(wl)
    rec = Recorder() if args.mode == "trace" else None
    times, traced = [], []
    try:
        if rec is not None:
            rec.install()
        wl.setup(args.seed, workdir)
        runner.op(0)
        setup_s = time.monotonic() - args.spawned
        n_setup = 0
        if rec is not None:
            rec.uninstall()
            rec.trace_memory = False
            n_setup = len(rec.spans)

        # whole cycles; in a traced run, alternate untraced and traced
        block = wl.cycle * (2 if rec is not None else 1)
        end = time.perf_counter() + args.seconds
        i = 0
        while i % block or time.perf_counter() < end:
            if rec is not None and i % 2:
                traced.append(runner.op(i, rec))
            else:
                times.append(runner.op(i))
            i += 1
    finally:
        if rec is not None:
            rec.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    doc = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
           "setup_s": setup_s, "op_times": times,
           "attempted": runner.attempted, "failed": runner.failed,
           "errors": runner.errors,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0,
           "environment": _environment(berezin)}
    if rec is not None:
        doc["trace"] = _trace_layers(rec.spans, n_setup, traced, times)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for sp in rec.spans:
                    fh.write(json.dumps(sp.__dict__) + "\n")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
