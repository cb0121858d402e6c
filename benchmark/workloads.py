"""The three benchmark workloads, generated from a workload seed.

Every operation is one `isinglr` CLI invocation.  The default seed (0) runs
the nominal parameters listed below, whose references are committed in
`refs.json`.  Any other seed draws each operation's J' and time-grid offset
from the stated ranges:

* J' is drawn uniformly within +-1 % of its nominal value (J' = 1 stays
  exactly 1, because the closed form applies there only);
* each time grid is shifted by an offset drawn uniformly from [0, w), with
  w given per operation.

The ranges are deliberately narrow: the cost of a run must not depend on the
seed, while every sampled value still changes from seed to seed.  The
high-precision times sit in the middle of the bands in which the mpmath
Taylor scheme keeps its substep count, so an offset never doubles the work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 0
JP_SPREAD = 0.01
WORKLOADS = ("scan", "tables", "deep")


@dataclass
class Op:
    """One CLI invocation plus what its output check needs."""

    op_id: str
    argv: list
    kind: str                 # correlate | snapshot | lightcone | edge | front | saturation
    nq: int = 0
    jp: float = 0.0
    ks: list = field(default_factory=list)
    ss: list = field(default_factory=list)
    digits: int = None
    extra: dict = field(default_factory=dict)


class _Draw:
    """Seeded parameter draws; the default seed yields the nominal values."""

    def __init__(self, seed: int):
        self.rng = None if seed == DEFAULT_SEED else random.Random(seed)

    def jp(self, nominal: float) -> float:
        if self.rng is None or nominal == 1.0:
            return nominal
        return round(nominal * (1.0 + self.rng.uniform(-JP_SPREAD, JP_SPREAD)), 6)

    def offset(self, width: float) -> float:
        if self.rng is None:
            return 0.0
        return round(self.rng.uniform(0.0, width), 6)


def _num(x) -> str:
    return repr(float(x))


def _list(values) -> str:
    return ",".join(_num(v) for v in values)


def _ints(values) -> str:
    return ",".join(str(int(v)) for v in values)


def _linspace(smax: float, ns: int) -> list:
    return np.linspace(0.0, smax, ns).tolist()


def _correlate(op_id, d, nq, jp, ks, smax, ns, width, method="walk", fmt="csv",
               digits=None, times=None):
    jp = d.jp(jp)
    argv = ["correlate", "--nq", str(nq), "--jp", _num(jp), "--k", _ints(ks),
            "--method", method, "--format", fmt]
    if times is None:
        smax = round(smax + d.offset(width), 6)
        argv += ["--smax", _num(smax), "--ns", str(ns)]
        ss = _linspace(smax, ns)
    else:
        shift = d.offset(width)
        ss = [round(s + shift, 6) for s in times]
        argv += ["--s", _list(ss)]
    if digits is not None:
        argv += ["--digits", str(digits)]
    return Op(op_id, argv, "correlate", nq, jp, list(ks), ss, digits,
              {"method": method, "format": fmt})


def _snapshot(op_id, d, nq, jp, times, width, ks=None, critical=False, digits=None):
    jp = d.jp(jp)
    shift = d.offset(width)
    ss = [round(s + shift, 6) for s in times]
    argv = ["snapshot", "--nq", str(nq), "--jp", _num(jp), "--s", _list(ss)]
    if ks is not None:
        argv += ["--k", _ints(ks)]
    if critical:
        argv.append("--critical")
    if digits is not None:
        argv += ["--digits", str(digits)]
    ks = list(ks) if ks is not None else list(range(1, nq + 1))
    return Op(op_id, argv, "snapshot", nq, jp, ks, ss, digits, {"critical": critical})


def _lightcone(op_id, d, nq, jp, smax, ns, width):
    jp = d.jp(jp)
    smax = round(smax + d.offset(width), 6)
    argv = ["lightcone", "--nq", str(nq), "--jp", _num(jp), "--smax", _num(smax),
            "--ns", str(ns)]
    return Op(op_id, argv, "lightcone", nq, jp, list(range(1, nq + 1)),
              _linspace(smax, ns))


def _edge(op_id, d, jp, ks, times, width):
    jp = d.jp(jp)
    shift = d.offset(width)
    ss = [round(s + shift, 6) for s in times]
    argv = ["edge", "--jp", _num(jp), "--k", f"{ks[0]}..{ks[-1]}", "--s", _list(ss)]
    return Op(op_id, argv, "edge", 0, jp, list(ks), ss)


def _front(op_id, d, nq, jp, kmin, kmax):
    jp = d.jp(jp)
    argv = ["front", "--nq", str(nq), "--jp", _num(jp), "--kmin", str(kmin),
            "--kmax", str(kmax)]
    return Op(op_id, argv, "front", nq, jp, list(range(kmin, kmax + 1)),
              extra={"threshold": 0.1})


def _saturation(op_id, d, nq, jps, k):
    jps = [d.jp(j) for j in jps]
    argv = ["saturation", "--nq", str(nq), "--jp", _list(jps), "--k", str(k)]
    return Op(op_id, argv, "saturation", nq, 0.0, [k], extra={"jps": jps})


def scan(seed: int) -> list:
    """Front-velocity and saturation scans: large repeated grids plus bisection."""
    d = _Draw(seed)
    return [
        _front("front_jp0.5", d, 120, 0.5, 10, 84),
        _front("front_jp2", d, 120, 2.0, 10, 84),
        _saturation("saturation", d, 200, [0.5, 2.0], 10),
    ]


def tables(seed: int) -> list:
    """Double-precision tables, each on its own (N, J'): every call misses the caches."""
    d = _Draw(seed)
    k5 = [1, 10, 50, 100, 150]
    return [
        _correlate("correlate_n200_jp0.5", d, 200, 0.5, k5, 40.0, 401, 0.5),
        _correlate("correlate_n200_jp2", d, 200, 2.0, k5, 40.0, 401, 0.5),
        _correlate("correlate_critical", d, 200, 1.0, [1, 2, 5, 10, 20, 40, 60, 80],
                   20.0, 401, 0.5, method="critical"),
        _snapshot("snapshot_critical", d, 150, 1.0, range(1, 20, 2), 0.5, critical=True),
        _snapshot("snapshot_n240_jp2", d, 240, 2.0, range(1, 40, 2), 0.5),
        _lightcone("lightcone_n200", d, 200, 1.5, 30.0, 121, 0.5),
        _lightcone("lightcone_n400", d, 400, 0.5, 60.0, 101, 0.5),
        _correlate("correlate_n1000", d, 1000, 0.5, [1, 100, 500, 900], 100.0, 201, 1.0,
                   fmt="json"),
        _correlate("correlate_n20_eig", d, 20, 0.7, range(1, 21), 5.0, 101, 0.2),
        _edge("edge", d, 2.0, list(range(11200, 11351)), range(928, 941, 2), 1.0),
    ]


def deep(seed: int) -> list:
    """High-precision rows, recomputed once per qubit, plus the dense oracle."""
    d = _Draw(seed)
    return [
        _correlate("correlate_digits60", d, 10, 0.5, range(1, 9), 0, 0, 0.04,
                   digits=60, times=[0.3, 0.6]),
        _snapshot("snapshot_digits50", d, 16, 2.0, [0.5, 0.75], 0.04, ks=[1, 8],
                  digits=50),
        _correlate("correlate_both_n9", d, 9, 0.5, range(1, 10), 3.0, 13, 0.1,
                   method="both"),
    ]


def build(workload: str, seed: int) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return globals()[workload](seed)
