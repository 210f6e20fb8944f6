"""Steadiness check: two sets of untraced runs of the same commit.

    python3 perfbench/steady.py --runs 10

Runs the BENCHMARK.json command --runs times per workload in each of two
sets, each run with its own seed, workloads interleaved.  For every
end-to-end metric and workload it prints, per set, the median and the
spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.  It also prints the
drift of the second set's median from the first set's.  A row passes when
both spreads and the drift, in either direction, stay within the metric's
bound; "not tight" marks a spread of a third of the bound or more.  Raw
results go to perfbench/out/steady-<time>.json.  Exits 1 when a row fails or
a run is not correct.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
SEED_BASE = 1000


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(spec, workload, seed) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        return {"workload": workload, "seed": seed, "wall_s": wall,
                "error": proc.stderr[-2000:]}
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc.update(workload=workload, seed=seed, wall_s=wall)
    return doc


def analyse(spec, runs: list) -> bool:
    ok = True
    print("%-14s %-12s %6s  %s  %9s  %s"
          % ("workload", "metric", "bound",
             "  ".join("median%d    spread%d" % (s + 1, s + 1)
                       for s in range(SETS)), "drift", "verdict"))
    for w in [x["name"] for x in spec["workloads"]]:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols, meds, fails, loose = [], [], [], False
            for s in range(SETS):
                vals = [r["metrics"][name]["value"] for r in runs
                        if r["workload"] == w and r["set"] == s
                        and "metrics" in r]
                if len(vals) < 2:
                    cols.append("%9s  %8s" % ("-", "-"))
                    fails.append("runs")
                    continue
                med, spr = statistics.median(vals), spread(vals)
                meds.append(med)
                cols.append("%9.4g  %7.1f%%" % (med, 100 * spr))
                if spr > bound:
                    fails.append("spread")
                elif spr >= bound / 3:
                    loose = True
            drifts = [(x - meds[0]) / meds[0] for x in meds[1:]]
            if any(abs(d) > bound for d in drifts):
                fails.append("drift")
            verdict = ("FAIL " + ",".join(fails) if fails
                       else "ok, not tight" if loose else "ok")
            ok = ok and not fails
            print("%-14s %-12s %5.0f%%  %s  %9s  %s"
                  % (w, name, 100 * bound, "  ".join(cols),
                     " ".join("%+.1f%%" % (100 * d) for d in drifts) or "-",
                     verdict))
    return ok


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10, help="runs per set")
    args = p.parse_args(argv)

    out = os.path.join(HERE, "out", time.strftime("steady-%Y%m%dT%H%M%S.json"))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    runs = []
    for s in range(SETS):
        for r in range(args.runs):
            seed = SEED_BASE + s * args.runs + r
            for w in spec["workloads"]:
                doc = run_once(spec, w["name"], seed)
                doc["set"] = s
                runs.append(doc)
                with open(out, "w", encoding="utf-8") as fh:
                    json.dump(runs, fh, indent=1)
                print("set %d run %2d %-14s seed %d  %5.1f s  %s"
                      % (s + 1, r + 1, w["name"], seed, doc["wall_s"],
                         "error" if "error" in doc else
                         " ".join("%s=%.4g" % (k, v["value"])
                                  for k, v in doc["metrics"].items())),
                      flush=True)
    print("raw results: %s" % os.path.relpath(out, ROOT))
    correct = all(r.get("correct") and r.get("failed") == 0 for r in runs)
    if not correct:
        print("some runs failed or were not correct")
    return 0 if analyse(spec, runs) and correct else 1


if __name__ == "__main__":
    sys.exit(main())
