"""One measured pass of a workload, in a fresh process.

    python3 benchmark/child.py --setup-only
    python3 benchmark/child.py SPEC.json RESULT.json

The process imports `isinglr.cli` from the checkout's `src/` and prints
`ready`; the parent times set-up up to that line.  It then runs every
operation of the spec through `isinglr.cli.main`, timing only that call,
checks each output against its reference cells, and writes the result.
An operation fails if it raises, exits nonzero or fails its check; the pass
goes on with the next one.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import isinglr.cli from the checkout; refuse any other copy."""
    sys.path.insert(0, SRC)
    import isinglr.cli
    if not os.path.abspath(isinglr.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"isinglr imported from {isinglr.cli.__file__}, not {SRC}")
    return isinglr.cli


def peak_rss_mb() -> float:
    """Peak resident set of this process image.

    VmHWM starts afresh at exec; getrusage's ru_maxrss would carry over the
    parent's peak from before the exec, which depends on the reference work
    the parent did.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(cli, op: dict, out_path: str, tracer) -> dict:
    from checks import CheckFailed, check

    argv = list(op["argv"]) + ["--out", out_path]
    error = None
    if tracer is not None:
        span = tracer.open("cli." + op["argv"][0], "cli")
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:                       # the pass must go on: record and count it
        rc, error = None, traceback.format_exc(limit=3)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.close(span)
        t0, t1 = tracer.spans[span][2], tracer.spans[span][3]
    size = 0
    if error is None and rc != 0:
        error = f"exit code {rc}"
    if error is None:
        try:
            with open(out_path, "rb") as fh:
                data = fh.read()
            size = len(data)
            check(op["kind"], op["fmt"], data.decode("utf-8"), op["cells"])
        except CheckFailed as exc:
            error = f"check: {exc}"
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            error = f"unreadable output: {exc!r}"
    if os.path.exists(out_path):
        os.remove(out_path)
    return {"op_id": op["op_id"], "wall_s": t1 - t0, "ok": error is None,
            "error": error, "bytes_out": size}


def run_pass(spec: dict, cli) -> dict:
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out_path = os.path.join(spec["out_dir"], f"op_{os.getpid()}.out")
    ops = [run_op(cli, op, out_path, tracer) for op in spec["ops"]]
    wall = sum(o["wall_s"] for o in ops)
    result = {"ops": ops, "wall_s": wall,
              "peak_rss_mb": peak_rss_mb(),
              "bytes_out": sum(o["bytes_out"] for o in ops)}
    if tracer is not None:
        from tracer import layer_metrics
        tracer.uninstall()
        summary = tracer.summary()
        result["layers"] = layer_metrics(summary, wall)
        result["layers"]["cli.bytes_out"] = result["bytes_out"]
        with open(spec["spans_path"], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
    return result


def main(argv) -> int:
    cli = import_program()
    print("ready", flush=True)
    if argv[:1] == ["--setup-only"]:
        return 0
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run_pass(spec, cli)
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
