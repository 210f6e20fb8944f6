"""Tests of the benchmark's span recorder.

    python3 -m pytest perfbench
"""
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import berezin.cli  # noqa: E402
import berezin.io  # noqa: E402
import berezin.symbols  # noqa: E402
from berezin.core import default_config  # noqa: E402
from spans import Recorder, Span, self_times  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [Span("root", 0.0, 10.0, -1),
             Span("a", 1.0, 4.0, 0),
             Span("a.child", 2.0, 3.0, 1),
             Span("b", 5.0, 7.0, 0)]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0, -1),
             Span("x", 1.0, 5.0, 0),
             Span("y", 3.0, 6.0, 0),
             Span("z", 9.0, 12.0, 0)]   # clipped to the parent's end
    assert self_times(spans)[0] == 10.0 - 5.0 - 1.0


def test_self_times_sum_to_the_root_duration():
    spans = [Span("root", 0.0, 8.0, -1), Span("a", 1.0, 3.0, 0),
             Span("b", 1.5, 2.5, 1), Span("c", 4.0, 7.5, 0)]
    assert sum(self_times(spans)) == 8.0


def test_cli_symbol_records_covariant_symbol_through_cli_binding(tmp_path):
    cfg = default_config(M=4, G=32)
    cfg_path = str(tmp_path / "cfg.json")
    op_path = str(tmp_path / "op.csv")
    berezin.io.save_config(cfg_path, cfg)
    berezin.io.write_operator_csv(op_path, np.eye(cfg.dim, dtype=complex))
    original = berezin.cli.covariant_symbol
    assert original is berezin.symbols.covariant_symbol

    rec = Recorder()
    rec.install()
    try:
        assert berezin.cli.covariant_symbol is not original
        code = berezin.cli.main(["symbol", "--config", cfg_path,
                                 "--operator", op_path,
                                 "--out", str(tmp_path / "out")])
    finally:
        rec.uninstall()

    assert code == 0
    assert berezin.cli.covariant_symbol is original
    names = [s.name for s in rec.spans]
    k = names.index("symbols.covariant_symbol")
    assert rec.spans[rec.spans[k].parent].name == "cli.main"
    assert "schroedinger.coherent_table" in names
    grid_csv = [s for s in rec.spans if s.name == "io.write_grid_csv"]
    assert len(grid_csv) == 1 and grid_csv[0].nbytes > 0
