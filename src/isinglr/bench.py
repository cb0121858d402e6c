"""Wall-time comparison of the walk method against the dense oracle.

The point being demonstrated: the dense route lives in a 2^N-dimensional
state space while the walk route works with a 2N x 2N matrix, so the walk
cost grows polynomially with a small exponent while the oracle blows up
exponentially.  Times here are wall-clock and machine-dependent.  The walk
works on the light-cone prefix of q qubits only (`walk._light_cone_qubits`),
so the scaling fit against N measures N only in rows where q = N; each row
records its q.
"""

from __future__ import annotations

import time

import numpy as np

from .params import ChainParams, ValidationError, validate_budget, validate_count
from . import oracle, walk


def time_walk(p: ChainParams, ks, ss, repeats: int = 3) -> float:
    """Best-of-N wall time for a full walk-method grid, cold caches."""
    best = np.inf
    for _ in range(validate_count("repeats", repeats)):
        walk._eig_factor.cache_clear()
        t0 = time.perf_counter()
        walk.lr_walk_grid(p, ks, ss)
        best = min(best, time.perf_counter() - t0)
    return best


def scaling_report(n_qubits_list=(50, 100, 200, 400), jp: float = 0.5,
                   s_max: float = 3.0, n_times: int = 60, k_count: int = 10,
                   repeats: int = 3) -> dict:
    """Walk-method wall time across chain lengths plus a power-law fit; every
    length is checked before the first one is timed."""
    if len(set(n_qubits_list)) < 2:
        raise ValidationError("the scaling fit needs at least two distinct chain lengths, "
                              f"got {list(n_qubits_list)}")
    chains = [ChainParams(int(nq), jp) for nq in n_qubits_list]
    n_times = validate_count("n_times", n_times)
    validate_budget(n_times, f"n_times {n_times}")
    ss = np.linspace(0.0, s_max, n_times)
    rows = []
    for p in chains:
        ks = list(range(1, min(k_count, p.n_qubits) + 1))
        rows.append({"n_qubits": p.n_qubits,
                     "light_cone_qubits": walk._light_cone_qubits(p, s_max),
                     "walk_seconds": time_walk(p, ks, ss, repeats)})
    x = np.log([r["n_qubits"] for r in rows])
    y = np.log([r["walk_seconds"] for r in rows])
    exponent = float(np.polyfit(x, y, 1)[0])
    return {
        "j_coupling": jp,
        "s_max": s_max,
        "n_times": n_times,
        "k_count": k_count,
        "precision": "double",
        "timings": rows,
        "fit_against": "n_qubits",
        "fit_exponent": exponent,
    }


def comparison_report(n_qubits: int = 10, jp: float = 0.5, s_max: float = 3.0,
                      n_times: int = 60, repeats: int = 3) -> dict:
    """Walk vs dense-oracle wall times on an identical (k, s) grid."""
    p = oracle._check_dense(ChainParams(n_qubits, jp))
    ks = list(range(1, n_qubits + 1))
    n_times = validate_count("n_times", n_times)
    validate_budget(n_times, f"n_times {n_times}")
    ss = np.linspace(0.0, s_max, n_times)
    walk_t = time_walk(p, ks, ss, repeats)
    t0 = time.perf_counter()
    oracle.lr_direct_grid(p, ks, ss)
    direct_t = time.perf_counter() - t0
    return {
        "n_qubits": n_qubits,
        "j_coupling": jp,
        "s_max": s_max,
        "n_times": n_times,
        "precision": "double",
        "walk_seconds": walk_t,
        "direct_seconds": direct_t,
        "speedup": direct_t / walk_t if walk_t > 0 else float("inf"),
    }


def report(n_qubits_list, compare_nq: int = 10, jp: float = 0.5, s_max: float = 3.0,
           n_times: int = 60, repeats: int = 3) -> dict:
    """Both reports, every input checked before either one times anything: the
    lengths by the scaling report, which runs first, and the rest here."""
    oracle._check_dense(ChainParams(compare_nq, jp))
    validate_count("repeats", repeats)
    return {"scaling": scaling_report(n_qubits_list, jp, s_max, n_times, repeats=repeats),
            "comparison": comparison_report(compare_nq, jp, s_max, n_times, repeats)}
