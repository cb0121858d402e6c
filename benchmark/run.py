"""Benchmark of the isinglr CLI: time to a checked table, per workload.

    python3 benchmark/run.py --workload scan|tables|deep --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/isinglr`.  Each pass of the
workload runs in a fresh process, one process at a time, with BLAS threads
at their default and every program cache cold, as in a recipe run.  Passes
repeat until `--seconds` of measuring is used up.  Outputs are checked
against references (committed for the default seed, computed before timing
for any other seed); checking is not timed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones (medians over passes):

* setup_s      time from starting a process to `isinglr.cli` imported
* wall_s       summed time of the workload's CLI calls in one pass
* peak_rss_mb  peak resident memory of a pass process

With `--trace 1` passes alternate untraced and traced, and the metrics are
the per-layer ones of the traced passes (see tracer.py), plus
`trace.overhead_s`, traced minus untraced wall time.  The line before the
result records the environment.  Details of every pass go to
`.benchmark_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

T0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFS = os.path.join(HERE, "refs.json")
OUT = os.path.join(ROOT, ".benchmark_out")

RUN_DEADLINE_S = 165.0        # a run must end well inside 180 s
SETUP_SAMPLES = 3             # import-only processes besides the passes
SELF_SUM_TOL = 1e-6           # relative; self times must add up to wall time

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name.endswith("_s") or name == "asymptotics.s":
        return "s"
    if name.endswith("bytes_out"):
        return "bytes"
    if name.endswith("ns_per_row_entry"):
        return "ns"
    if name.endswith("reuse"):
        return "ratio"
    return "count"


def environment() -> dict:
    """Versions, mpmath backend, cores, BLAS vendor and threads, cache state."""
    import platform
    from importlib import metadata

    import mpmath.libmp
    import numpy as np

    env = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "mpmath", "click"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = None
    env["mpmath_backend"] = mpmath.libmp.BACKEND
    env["nproc"] = len(os.sched_getaffinity(0))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = None
    env["blas_threads"] = _blas_threads()
    env["cache_state"] = ("cold: fresh process per pass, no program warm-up; "
                          "one uncounted import-only start per run")
    return env


def _blas_threads():
    """Thread count of the loaded OpenBLAS, read through its C API."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def references(workload: str, seed: int, ops) -> list:
    """Reference cells per operation, committed or computed for this seed."""
    import workloads
    if seed == workloads.DEFAULT_SEED:
        with open(REFS, encoding="utf-8") as fh:
            stored = json.load(fh)[workload]
        if [o["argv"] for o in stored] != [op.argv for op in ops]:
            raise SystemExit("refs.json does not match the workload; run make_refs.py")
        return [o["cells"] for o in stored]

    import refs
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from isinglr import ChainParams, lr_direct_grid

    def oracle(nq, jp, ks, ss):
        return lr_direct_grid(ChainParams(nq, jp), ks, ss)

    return [refs.cells(op, seed, "live", oracle) for op in ops]


class Run:
    def __init__(self, args, ops, cells):
        self.args = args
        self.dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.ops = [{"op_id": op.op_id, "argv": op.argv, "kind": op.kind,
                     "fmt": op.extra.get("format", "csv"), "cells": c}
                    for op, c in zip(ops, cells)]
        self.setup = []
        self.passes = []

    def left(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - T0)

    def spawn(self, extra, count_setup=True):
        """Start a child; return (process, setup seconds) once it is ready."""
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD] + extra, cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline().strip()
        setup = time.perf_counter() - t0
        if line == "ready" and count_setup:
            self.setup.append(setup)
        return proc, line == "ready"

    def finish(self, proc) -> bool:
        try:
            proc.communicate(timeout=max(1.0, self.left()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return False
        return proc.returncode == 0

    def setup_only(self, count: bool) -> None:
        proc, _ = self.spawn(["--setup-only"], count)
        self.finish(proc)

    def one_pass(self, traced: bool) -> dict:
        n = len(self.passes)
        spec_path = os.path.join(self.dir, f"pass{n}_spec.json")
        result_path = os.path.join(self.dir, f"pass{n}_result.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"ops": self.ops, "trace": traced, "out_dir": self.dir,
                       "spans_path": os.path.join(self.dir, f"pass{n}_spans.json")}, fh)
        t0 = time.perf_counter()
        proc, ready = self.spawn([spec_path, result_path])
        ok = self.finish(proc) and ready
        result = None
        if ok:
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
        if result is None:          # the process died or ran out of time
            result = {"ops": [{"op_id": o["op_id"], "ok": False, "error": "pass process failed"}
                              for o in self.ops]}
        result["traced"] = traced
        result["elapsed_s"] = time.perf_counter() - t0
        self.passes.append(result)
        return result

    def measure(self) -> None:
        self.setup_only(count=False)                  # page cache and bytecode, not timed
        for _ in range(SETUP_SAMPLES):
            self.setup_only(count=True)
        trace = self.args.trace == 1
        min_passes = 2 if trace else 1
        t_begin = time.perf_counter()
        while True:
            traced = trace and len(self.passes) % 2 == 1
            res = self.one_pass(traced)
            if "wall_s" not in res:
                break
            n = len(self.passes)
            elapsed = time.perf_counter() - t_begin
            typical = statistics.median(p["elapsed_s"] for p in self.passes)
            if n >= min_passes and elapsed + typical > self.args.seconds:
                break
            if typical > self.left():
                break


def summarise(run: Run):
    ops = [o for p in run.passes for o in p["ops"]]
    failed = [o for o in ops if not o["ok"]]
    good = [p for p in run.passes if "wall_s" in p]
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    problems = [f"{o['op_id']}: {o['error']}" for o in failed]
    metrics = {}
    if run.args.trace == 0 and plain and run.setup:
        metrics = {
            "setup_s": statistics.median(run.setup),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    elif run.args.trace == 1 and plain and traced:
        for p in traced:
            lay = p["layers"]
            if abs(lay["trace.self_sum_s"] - lay["trace.wall_s"]) > SELF_SUM_TOL * lay["trace.wall_s"]:
                problems.append(f"self times {lay['trace.self_sum_s']} do not add up to "
                                f"traced wall {lay['trace.wall_s']}")
        names = list(traced[0]["layers"])
        values = {n: statistics.median(p["layers"][n] for p in traced) for n in names}
        values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in plain))
        metrics = {n: {"value": v, "unit": unit_of(n)} for n, v in values.items()}
    else:
        problems.append("no complete pass")
    return {"correct": not problems, "attempted": max(1, len(ops)),
            "failed": len(failed) if ops else 1, "metrics": metrics}, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "isinglr", "cli.py")):
        print(f"error: no isinglr source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed)
    cells = references(args.workload, args.seed, ops)
    run = Run(args, ops, cells)
    run.measure()
    result, problems = summarise(run)

    env = environment()
    env.update(workload=args.workload, seed=args.seed, passes=len(run.passes),
               setup_samples=len(run.setup))
    with open(os.path.join(run.dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "result": result, "problems": problems,
                   "setup_s": run.setup, "passes": run.passes}, fh, indent=1)
    for line in problems:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
