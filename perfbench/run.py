"""Benchmark of the berezin package: one seeded command, four workloads.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the package is imported from ./src.  Each
workload runs in worker processes (perfbench/worker.py) with one BLAS/OpenMP
thread.  With --trace 0 the run starts PROCESSES measuring processes in turn,
each measuring for 1/PROCESSES of --seconds.  It reports the median set-up
time and peak RSS over them, and the median and tail of their pooled
operation times.  With --trace 1 one process traces its operations and
reports the per-layer metrics of BENCHMARK.json instead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The workloads, their checks and the predicted effect of
each layer are described in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from spans import OP

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROCESSES = 3       # measuring processes per untraced run
TIME_LIMIT = 170.0  # seconds one workload run may take, set-ups included


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class WorkerError(RuntimeError):
    pass


def _worker(workload, seed, seconds, mode, deadline, spans=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("time limit reached before the %s process" % mode)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError("%s process exceeded the time limit" % mode) from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError("%s process exited %d:\n%s"
                          % (mode, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times: list) -> tuple:
    """Highest percentile with at least ten samples beyond it (nearest rank).

    Returns (value, percentile, samples beyond).  Below eleven samples no
    percentile qualifies, and the maximum is returned with its count.
    """
    ordered = sorted(times)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def measure(workload: str, seed: int, seconds: float) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    docs = [_worker(workload, seed, seconds / PROCESSES, "measure", deadline)
            for _ in range(PROCESSES)]
    times = [t for d in docs for t in d["op_times"]]
    value, pct, beyond = tail(times)
    return {
        "docs": docs,
        "metrics": {
            "setup_s": (statistics.median(d["setup_s"] for d in docs), "s"),
            "op_s": (statistics.median(times), "s"),
            "op_tail_s": (value, "s"),
            "peak_rss_mb": (statistics.median(d["peak_rss_mb"] for d in docs),
                            "MiB"),
        },
        "notes": {
            "setup_s": "median of %d set-ups: %s" % (
                len(docs), ", ".join("%.3f" % d["setup_s"] for d in docs)),
            "op_s": "median of %d operations in %d processes"
                    % (len(times), len(docs)),
            "op_tail_s": "p%.1f of %d operations, %d beyond it"
                         % (pct, len(times), beyond),
            "peak_rss_mb": "median of %d processes" % len(docs),
        },
    }


def trace(workload: str, seed: int, seconds: float, per_layer: list) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    spans = os.path.join(HERE, "out", "spans-%s-seed%d.jsonl" % (workload, seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    doc = _worker(workload, seed, seconds, "trace", deadline, spans)
    tr = doc["trace"]
    layers = tr["layers"]
    figures = {"glue.s": layers[OP]["s"],
               "trace.op_mean_s": tr["op_mean_s"],
               "trace.overhead": tr["traced_op_s"] / tr["untraced_op_s"]}
    metrics = {}
    for m in per_layer:
        layer, _, stat = m["name"].rpartition(".")
        value = figures.get(m["name"], layers.get(layer, {}).get(stat, 0.0))
        metrics[m["name"]] = (value, m["unit"])
    accounted = sum(d["s"] for d in layers.values())
    return {"docs": [doc],
            "metrics": metrics,
            "notes": {"spans": os.path.relpath(spans, ROOT),
                      "trace.op_mean_s": "layer self times + glue.s = %.4f s"
                      % accounted,
                      "trace.overhead": "median traced op %.4f s over median "
                      "untraced op %.4f s" % (tr["traced_op_s"],
                                              tr["untraced_op_s"])}}


def run_workload(spec, workload, seed, seconds, traced) -> dict:
    load_start = os.getloadavg()
    if traced:
        res = trace(workload, seed, seconds, spec["per_layer"])
    else:
        res = measure(workload, seed, seconds)
    res["loadavg"] = (load_start, os.getloadavg())
    res["attempted"] = sum(d["attempted"] for d in res["docs"])
    res["failed"] = sum(d["failed"] for d in res["docs"])
    return res


def report(workload, seed, res) -> None:
    env = res["docs"][-1]["environment"]
    print("workload %s  seed %d  threads %s  nproc %d  python %s  numpy %s  "
          "scipy %s  berezin %s"
          % (workload, seed, ",".join("%s=%s" % kv for kv in env["threads"].items()),
             env["nproc"], env["python"], env["numpy"], env["scipy"],
             env["berezin"]))
    print("loadavg  start %s  end %s" % tuple(
        " ".join("%.2f" % x for x in la) for la in res["loadavg"]))
    for name, (value, unit) in res["metrics"].items():
        note = res["notes"].get(name, "")
        print("  %-40s %14.6g %-6s %s" % (name, value, unit, note))
    if "spans" in res["notes"]:
        print("  spans written to %s" % res["notes"]["spans"])
    print("  operations attempted %d, failed %d"
          % (res["attempted"], res["failed"]))
    for d in res["docs"]:
        for err in d["errors"]:
            print("  failure: %s" % err)


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "berezin", "__init__.py")):
        print("error: no berezin package under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    chosen = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for w in chosen:
            results[w] = run_workload(spec, w, args.seed, args.seconds,
                                      bool(args.trace))
            report(w, args.seed, results[w])
    except WorkerError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    if args.workload == "all":
        metrics = {"%s.%s" % (w, k): v for w, r in results.items()
                   for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
