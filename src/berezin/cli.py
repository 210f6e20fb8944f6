"""Command-line front end.

Subcommands: verify (identity battery), symbol (covariant symbol of an
operator CSV), wigner (transforms of a state CSV against the vacuum window),
report (injectivity certificate, optionally swept over M).

Exit codes: 0 all checks passed / output written; 1 a numerical check failed;
2 invalid config or input.  report's exit code does not depend on its
verdict: "not-certified" also exits 0.  Outputs land in --out with fixed
names, each run writing a manifest naming its files and residuals.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .core import ConfigError, HermiteState, OperatorMatrix, TruncationError
from .io import (config_to_dict, load_config, read_operator_csv,
                 read_state_csv, write_grid_csv, write_json, write_run_manifest)
from .schroedinger import RepresentationContext, gaussian_vector
from .symbols import check_symbol_map, covariant_symbol, injectivity_report
from .transforms import coefficient_map, inverse_fourier_orbit
from .verify import run_verification


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="berezin",
        description="Covariant-symbol calculus on the Heisenberg group: "
                    "verification battery, symbol/transform export, and "
                    "injectivity certification.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True,
                        help="path to the JSON model config")
        sp.add_argument("--out", default="./out",
                        help="output directory (default ./out)")
        sp.add_argument("--json", action="store_true",
                        help="machine-readable stdout instead of the table")

    sp = sub.add_parser("verify", help="run the full identity battery")
    common(sp)
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for randomized checks (default 0)")
    sp = sub.add_parser("symbol", help="covariant symbol of an operator")
    common(sp)
    sp.add_argument("--operator", required=True,
                    help="CSV of M^n x M^n re,im pairs, row-major")
    sp = sub.add_parser("wigner",
                        help="ambiguity and Wigner transforms of a state")
    common(sp)
    sp.add_argument("--state", required=True,
                    help="CSV of M^n coefficients, one re,im per line")
    sp = sub.add_parser("report", help="injectivity certificate")
    common(sp)
    sp.add_argument("--sweep", default=None, metavar="M1..M2",
                    help="report a truncation range, e.g. 1..4")
    return p


def _finish(cfg, args, outputs: list, summary: dict, doc: dict,
            text: str) -> None:
    """Write the run manifest, then print doc (--json) or text."""
    write_run_manifest(
        os.path.join(args.out, args.command + "_manifest.json"), cfg,
        args.command, outputs, summary, getattr(args, "seed", None))
    print(json.dumps(doc, indent=2, sort_keys=True) if args.json else text)


def cmd_verify(cfg, args) -> int:
    report = run_verification(cfg, seed=args.seed)
    table_path = os.path.join(args.out, "verify_table.txt")
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write(report.table() + "\n")
    _finish(cfg, args, [table_path], report.residual_summary(),
            {"passed": report.passed, "failures": report.failures(),
             "residual_summary": report.residual_summary(),
             "elapsed_s": report.elapsed_summary()}, report.table())
    if not report.passed:
        print("failed checks: %s" % ", ".join(report.failures()),
              file=sys.stderr)
        return 1
    return 0


def cmd_symbol(cfg, args) -> int:
    entries = read_operator_csv(args.operator, cfg.dim)
    sym = covariant_symbol(RepresentationContext(cfg), OperatorMatrix(entries))
    csv_path = os.path.join(args.out, "berezin_symbol.csv")
    outputs = write_grid_csv(csv_path, sym, "berezin_symbol", cfg)
    _finish(cfg, args, outputs, {}, {"outputs": [csv_path]},
            "wrote %s (quantity berezin_symbol)" % csv_path)
    return 0


def cmd_wigner(cfg, args) -> int:
    f = HermiteState(read_state_csv(args.state, cfg.dim))
    amb = coefficient_map(RepresentationContext(cfg), f, gaussian_vector(cfg))
    wig = inverse_fourier_orbit(amb)
    amb_path = os.path.join(args.out, "ambiguity.csv")
    wig_path = os.path.join(args.out, "wigner.csv")
    # both tables expand by one count, the first before any file is opened
    outputs = write_grid_csv(amb_path, amb, "ambiguity", cfg)
    del amb  # one table at a time
    outputs += write_grid_csv(wig_path, wig, "wigner", cfg)
    _finish(cfg, args, outputs, {}, {"outputs": [amb_path, wig_path]},
            "wrote %s and %s" % (amb_path, wig_path))
    return 0


def _parse_sweep(text: str) -> tuple:
    try:  # a part count other than two fails the unpacking too
        m1, m2 = (int(p) for p in text.split(".."))
    except ValueError as exc:
        raise ConfigError("--sweep expects M1..M2, got %r" % text) from exc
    if m1 < 1 or m2 < m1:
        raise ConfigError("--sweep expects 1 <= M1 <= M2, got %r" % text)
    return m1, m2


def _report_fields(ctx) -> dict:
    rep = injectivity_report(ctx)
    return {k: rep[k] for k in
            ("sigma_min", "sigma_max", "cond", "verdict", "baselines")}


def cmd_report(cfg, args) -> int:
    json_path = os.path.join(args.out, "injectivity.json")
    if args.sweep is None:
        rep = _report_fields(RepresentationContext(cfg))
        doc = {"config": config_to_dict(cfg), **rep}
        summary = {"sigma_min": rep["sigma_min"]}
        lines = ["sigma_min = %.12g" % rep["sigma_min"],
                 "sigma_max = %.12g" % rep["sigma_max"],
                 "cond      = %.12g" % rep["cond"],
                 "verdict   = %s" % rep["verdict"]]
    else:
        m1, m2 = _parse_sweep(args.sweep)
        subs = [RepresentationContext(dataclasses.replace(cfg, M=M))
                for M in range(m1, m2 + 1)]
        for sub in subs:  # the whole range is refused before the first SVD
            check_symbol_map(sub)
        rows = [{"M": sub.cfg.M, **_report_fields(sub)} for sub in subs]
        summary = {"sigma_min_M%d" % r["M"]: r["sigma_min"] for r in rows}
        doc = {"config": config_to_dict(cfg), "sweep": rows}
        lines = ["%3s  %14s  %14s  %12s  %s" %
                 ("M", "sigma_min", "sigma_max", "cond", "verdict")]
        for r in rows:
            lines.append("%3d  %14.8e  %14.8e  %12.6g  %s" %
                         (r["M"], r["sigma_min"], r["sigma_max"], r["cond"],
                          r["verdict"]))
    write_json(json_path, doc)
    _finish(cfg, args, [json_path], summary, doc, "\n".join(lines))
    return 0


_COMMANDS = {"verify": cmd_verify, "symbol": cmd_symbol,
             "wigner": cmd_wigner, "report": cmd_report}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, TruncationError, ValueError, OSError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
