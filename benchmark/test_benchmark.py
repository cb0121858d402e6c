"""Tests of the benchmark itself: checks, failure counting, tracing, seeds.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import child  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import isinglr.cli  # noqa: E402
import isinglr.walk  # noqa: E402


def small_op(seed=0):
    """A fast correlate operation with live reference cells."""
    op = workloads._correlate("small", workloads._Draw(seed), 30, 0.5, [1, 3, 7], 4.0, 21, 0.2)
    return {"op_id": op.op_id, "argv": op.argv, "kind": op.kind, "fmt": "csv",
            "cells": refs.cells(op, seed, "live")}


class StubCli:
    """Stands in for isinglr.cli: writes a given text, or raises."""

    def __init__(self, text=None, exc=None, rc=0):
        self.text, self.exc, self.rc = text, exc, rc

    def main(self, argv):
        if self.exc is not None:
            raise self.exc
        with open(argv[argv.index("--out") + 1], "w", encoding="utf-8") as fh:
            fh.write(self.text)
        return self.rc


def real_output(op, tmp_path):
    out = str(tmp_path / "real.csv")
    assert isinglr.cli.main(op["argv"] + ["--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        return fh.read()


def test_correct_output_passes(tmp_path):
    op = small_op()
    res = child.run_op(isinglr.cli, op, str(tmp_path / "o.csv"), None)
    assert res["ok"], res["error"]
    assert res["bytes_out"] > 0


def test_injected_wrong_value_is_one_failed_operation(tmp_path):
    op = small_op()
    text = real_output(op, tmp_path)
    cell = next(c for c in op["cells"] if c["ref"] > 1e-3)
    header, *rest = [ln for ln in text.splitlines() if not ln.startswith("#")]
    col = header.split(",").index(cell["col"])
    lines = []
    for ln in text.splitlines():
        parts = ln.split(",")
        if not ln.startswith("#") and ln != header and abs(float(parts[0]) - cell["row"][0]) < 1e-9:
            parts[col] = repr(float(parts[col]) * (1 + 1e-9))
        lines.append(",".join(parts))
    bad = StubCli("\n".join(lines) + "\n")
    res = child.run_op(bad, op, str(tmp_path / "o.csv"), None)
    assert not res["ok"] and res["error"].startswith("check:")
    spec = {"ops": [op, op], "trace": False, "out_dir": str(tmp_path)}
    result = child.run_pass(spec, bad)
    assert [o["ok"] for o in result["ops"]] == [False, False]


def test_ignores_metadata_unknown_columns_and_trust_flags(tmp_path):
    op = small_op()
    text = real_output(op, tmp_path)
    lines = ["# route=new", "# residual=1e-15"]
    for ln in text.splitlines():
        if ln.startswith("#"):
            continue
        parts = ln.split(",")
        parts[-1] = "False" if parts[-1] == "True" else parts[-1]
        lines.append(",".join(["extra"] + parts))
    lines[2] = "newcol," + lines[2].split(",", 1)[1]
    res = child.run_op(StubCli("\n".join(lines) + "\n"), op, str(tmp_path / "o.csv"), None)
    assert res["ok"], res["error"]


def test_raising_operation_fails_and_the_pass_continues(tmp_path):
    op = small_op()
    unreachable = {"op_id": "front", "argv": ["front", "--nq", "12", "--jp", "2",
                                              "--threshold", "1.5"],
                   "kind": "front", "fmt": "csv", "cells": [{"row": [], "col": "velocity",
                                                           "ref": 1.0, "atol": 0, "rtol": 1}]}
    spec = {"ops": [unreachable, op], "trace": False, "out_dir": str(tmp_path)}
    result = child.run_pass(spec, isinglr.cli)
    assert [o["ok"] for o in result["ops"]] == [False, True]
    assert "exit code 2" in result["ops"][0]["error"]     # ThresholdNotReachedError

    res = child.run_op(StubCli(exc=RuntimeError("boom")), op, str(tmp_path / "o.csv"), None)
    assert not res["ok"] and "RuntimeError" in res["error"]


def test_missing_wrapped_name_reads_as_zero_calls(tmp_path, monkeypatch):
    monkeypatch.delattr(isinglr.walk, "lr_walk")
    t = tracer.Tracer()
    t.install()
    try:
        child.run_op(isinglr.cli, small_op(), str(tmp_path / "o.csv"), t)
    finally:
        t.uninstall()
    m = tracer.layer_metrics(t.summary(), 1.0)
    assert m["walk.lr_walk_calls"] == 0 and m["walk.lr_walk_s"] == 0.0
    assert m["walk.lr_walk_grid_calls"] == 1


def test_traced_pass_self_times_add_up_and_rebinding_is_undone(tmp_path):
    original = isinglr.walk.lr_walk_grid
    op = small_op()
    spec = {"ops": [op, op], "trace": True, "out_dir": str(tmp_path),
            "spans_path": str(tmp_path / "spans.json")}
    result = child.run_pass(spec, isinglr.cli)
    lay = result["layers"]
    assert all(o["ok"] for o in result["ops"])
    assert lay["trace.self_sum_s"] == pytest.approx(lay["trace.wall_s"], rel=1e-9)
    assert lay["trace.wall_s"] == pytest.approx(result["wall_s"], rel=1e-12)
    assert lay["walk.lr_walk_grid_calls"] == 2
    assert lay["walk.grid_row_entries"] == 2 * 21 * 60
    assert lay["cli.correlate_s"] > 0 and lay["cli.bytes_out"] == result["bytes_out"]
    assert isinglr.walk.lr_walk_grid is original
    with open(tmp_path / "spans.json", encoding="utf-8") as fh:
        assert len(json.load(fh)["spans"]) >= 2


def test_highprec_reuse_counts_distinct_rows(tmp_path):
    op = workloads._correlate("hp", workloads._Draw(0), 4, 0.5, [1, 2, 3], 0, 0, 0,
                              digits=20, times=[0.2, 0.4])
    spec_op = {"op_id": op.op_id, "argv": op.argv, "kind": op.kind, "fmt": "csv",
               "cells": refs.cells(op, 0, "exact")}
    spec = {"ops": [spec_op], "trace": True, "out_dir": str(tmp_path),
            "spans_path": str(tmp_path / "spans.json")}
    result = child.run_pass(spec, isinglr.cli)
    assert result["ops"][0]["ok"], result["ops"][0]["error"]
    assert result["layers"]["walk.highprec_rows"] == 6
    assert result["layers"]["walk.highprec_row_reuse"] == pytest.approx(2 / 6)


def test_seeds_are_reproducible_and_default_is_nominal():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        assert [o.argv for o in a] == [o.argv for o in b]
        assert [o.argv for o in a] != [o.argv for o in workloads.build(name, 8)]
    nominal = workloads.build("tables", workloads.DEFAULT_SEED)
    assert nominal[0].jp == 0.5 and nominal[2].jp == 1.0
    assert all(o.jp == 1.0 for o in workloads.build("tables", 9) if o.op_id.endswith("critical"))


def test_committed_references_match_the_workloads():
    with open(run.REFS, encoding="utf-8") as fh:
        stored = json.load(fh)
    for name in workloads.WORKLOADS:
        ops = workloads.build(name, workloads.DEFAULT_SEED)
        assert [o["argv"] for o in stored[name]] == [op.argv for op in ops]
        assert all(o["cells"] for o in stored[name])


def test_json_tables_are_checked_by_column_name(tmp_path):
    op = small_op()
    op["argv"] = [a if a != "csv" else "json" for a in op["argv"]]
    op["fmt"] = "json"
    res = child.run_op(isinglr.cli, op, str(tmp_path / "o.json"), None)
    assert res["ok"], res["error"]


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    emitted = set(tracer.layer_metrics({"by_name": {}, "self": dict.fromkeys(tracer.LAYERS, 0.0),
                                        "counts": {}, "highprec_rows": 0,
                                        "highprec_distinct": 0}, 1.0))
    emitted |= {"cli.bytes_out", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
