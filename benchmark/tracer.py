"""Span tracing from outside the program: wrappers around its public functions.

Each wrapper is rebound in every `isinglr` module namespace that holds the
function, so calls made through `from .walk import lr_walk_grid` are traced
as well as calls through `walk.lr_walk_grid`.  A span records its name,
layer, start, end and parent; spans stay in memory until the pass ends.  A
name the program no longer has is skipped and reads as zero calls.

Self time is a span's duration minus the durations of its child spans.  The
root spans are the CLI operations, so the self times of all layers add up to
the traced wall time.
"""

from __future__ import annotations

import inspect
import sys
import time

# (module, function) pairs traced, by layer; the module is the layer
TARGETS = {
    "walk": ("lr_walk_grid", "lr_walk", "exp_first_row_highprec", "lr_walk_highprec"),
    "critical": ("lr_critical", "bessel_jn_array"),
    "oracle": ("lr_direct_grid",),
    "analysis": ("front_velocity", "measure_saturation", "lightcone", "crossing_time",
                 "saturation_window", "reflection_safe_horizon", "default_fit_range"),
    "asymptotics": ("v_group_max", "v_lieb_robinson", "saturation_value",
                    "lr_leading_exact", "lr_leading_largek", "lr_leading_exponential",
                    "dispersion", "v_group"),
}
LAYERS = ("cli",) + tuple(TARGETS)
COMMANDS = ("correlate", "snapshot", "lightcone", "edge", "front", "saturation")


def _bound(sig, args, kwargs):
    b = sig.bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


def _grid_entries(args):
    return len(args["ss"]) * 2 * args["p"].n_qubits


def _oracle_cells(args):
    return len(list(args["ks"])) * len(args["ss"])


def _highprec_key(args):
    p = args["p"]
    return (p.n_qubits, p.j_coupling, float(args["s"]), int(args["digits"]))


# work counted at a span boundary, from the call's bound arguments
COUNTERS = {
    "walk.lr_walk_grid": ("grid_row_entries", _grid_entries),
    "oracle.lr_direct_grid": ("oracle_cells", _oracle_cells),
}


class Tracer:
    def __init__(self):
        self.spans = []           # [name, layer, start, end, parent]
        self.stack = []
        self.counts = {}
        self.highprec_keys = []
        self.installed = []

    def open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, layer: str, fn):
        counter = COUNTERS.get(name)
        highprec = name == "walk.exp_first_row_highprec"
        sig = inspect.signature(fn) if counter or highprec else None

        def traced(*args, **kwargs):
            if counter or highprec:
                try:
                    bound = _bound(sig, args, kwargs)
                    if counter:
                        self.counts[counter[0]] = (self.counts.get(counter[0], 0)
                                                   + counter[1](bound))
                    else:
                        self.highprec_keys.append(_highprec_key(bound))
                except (TypeError, KeyError, AttributeError, ValueError):
                    pass  # a changed signature loses the count, not the call
            idx = self.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every target in every loaded isinglr module namespace."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "isinglr" or n.startswith("isinglr."))]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"isinglr.{layer}")
            for fname in names:
                fn = getattr(home, fname, None) if home is not None else None
                if not callable(fn):
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", layer, fn)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, wrapper)
                            self.installed.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self.installed):
            setattr(mod, attr, fn)
        self.installed = []

    def summary(self) -> dict:
        """Inclusive time and calls per span name, self time per layer, counts."""
        child = [0.0] * len(self.spans)
        for name, layer, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        by_name, self_by_layer = {}, {layer: 0.0 for layer in LAYERS}
        for i, (name, layer, t0, t1, parent) in enumerate(self.spans):
            dur = t1 - t0
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + dur - child[i]
            rec = by_name.setdefault(name, [0.0, 0])
            rec[1] += 1
            # inclusive time counts outermost spans only (no double counting)
            if not any(self.spans[p][0] == name for p in self._ancestors(parent)):
                rec[0] += dur
        keys = set(self.highprec_keys)
        return {"by_name": by_name, "self": self_by_layer, "counts": dict(self.counts),
                "highprec_rows": len(self.highprec_keys),
                "highprec_distinct": len(keys)}

    def _ancestors(self, idx):
        while idx >= 0:
            yield idx
            idx = self.spans[idx][4]


def layer_metrics(s: dict, wall: float) -> dict:
    """Per-layer metrics of one traced pass (times in s, counts as numbers)."""
    def inc(name):
        return s["by_name"].get(name, [0.0, 0])[0]

    def calls(name):
        return s["by_name"].get(name, [0.0, 0])[1]

    entries = s["counts"].get("grid_row_entries", 0)
    grid_s = inc("walk.lr_walk_grid")
    rows = s["highprec_rows"]
    asym = [n for n in s["by_name"] if n.startswith("asymptotics.")]
    m = {
        "walk.self_s": s["self"]["walk"],
        "walk.lr_walk_grid_s": grid_s,
        "walk.lr_walk_grid_calls": calls("walk.lr_walk_grid"),
        "walk.grid_row_entries": entries,
        "walk.grid_ns_per_row_entry": 1e9 * grid_s / entries if entries else 0.0,
        "walk.lr_walk_s": inc("walk.lr_walk"),
        "walk.lr_walk_calls": calls("walk.lr_walk"),
        "walk.highprec_row_s": inc("walk.exp_first_row_highprec"),
        "walk.highprec_rows": rows,
        "walk.highprec_row_reuse": s["highprec_distinct"] / rows if rows else 0.0,
        "critical.self_s": s["self"]["critical"],
        "critical.lr_critical_s": inc("critical.lr_critical"),
        "critical.lr_critical_calls": calls("critical.lr_critical"),
        "critical.bessel_jn_array_s": inc("critical.bessel_jn_array"),
        "critical.bessel_jn_array_calls": calls("critical.bessel_jn_array"),
        "cli.self_s": s["self"]["cli"],
        "analysis.self_s": s["self"]["analysis"],
        "analysis.front_velocity_s": inc("analysis.front_velocity"),
        "analysis.measure_saturation_s": inc("analysis.measure_saturation"),
        "analysis.lightcone_s": inc("analysis.lightcone"),
        "oracle.self_s": s["self"]["oracle"],
        "oracle.lr_direct_grid_s": inc("oracle.lr_direct_grid"),
        "oracle.cells": s["counts"].get("oracle_cells", 0),
        "asymptotics.s": s["self"]["asymptotics"],
        "asymptotics.calls": sum(calls(n) for n in asym),
        "trace.wall_s": wall,
        "trace.self_sum_s": sum(s["self"].values()),
    }
    for cmd in COMMANDS:
        m[f"cli.{cmd}_s"] = inc(f"cli.{cmd}")
    return m
