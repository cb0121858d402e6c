"""Wall-time comparison of the walk method against the dense oracle.

The point being demonstrated: the dense route lives in a 2^N-dimensional
state space while the walk route works with a 2N x 2N matrix, so the walk
cost grows polynomially with a small exponent while the oracle blows up
exponentially.  Times here are wall-clock and machine-dependent; the
scaling fit is the meaningful output.
"""

from __future__ import annotations

import time

import numpy as np

from .params import (MAX_DENSE_QUBITS, ChainParams, DimensionGuardError, ValidationError,
                     validate_count)
from .oracle import lr_direct_grid
from .walk import _eig_factor, lr_walk_grid


def time_walk(p: ChainParams, ks, ss, repeats: int = 3) -> float:
    """Best-of-N wall time for a full walk-method grid, cold caches."""
    best = np.inf
    for _ in range(validate_count("repeats", repeats)):
        _eig_factor.cache_clear()
        t0 = time.perf_counter()
        lr_walk_grid(p, ks, ss)
        best = min(best, time.perf_counter() - t0)
    return best


def scaling_report(n_qubits_list=(50, 100, 200, 400), jp: float = 0.5,
                   s_max: float = 3.0, n_times: int = 60, k_count: int = 10,
                   repeats: int = 3) -> dict:
    """Walk-method wall time across chain lengths plus a power-law fit."""
    if len(set(n_qubits_list)) < 2:
        raise ValidationError("the scaling fit needs at least two distinct chain lengths, "
                              f"got {list(n_qubits_list)}")
    ss = np.linspace(0.0, s_max, n_times)
    rows = []
    for nq in n_qubits_list:
        p = ChainParams(int(nq), jp)
        ks = list(range(1, min(k_count, nq) + 1))
        rows.append({"n_qubits": int(nq), "walk_seconds": time_walk(p, ks, ss, repeats)})
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
        "fit_exponent": exponent,
    }


def comparison_report(n_qubits: int = 10, jp: float = 0.5, s_max: float = 3.0,
                      n_times: int = 60, repeats: int = 3) -> dict:
    """Walk vs dense-oracle wall times on an identical (k, s) grid."""
    if n_qubits > MAX_DENSE_QUBITS:
        raise DimensionGuardError(f"direct arm limited to n_qubits <= {MAX_DENSE_QUBITS}")
    p = ChainParams(n_qubits, jp)
    ks = list(range(1, n_qubits + 1))
    ss = np.linspace(0.0, s_max, n_times)
    walk_t = time_walk(p, ks, ss, repeats)
    t0 = time.perf_counter()
    lr_direct_grid(p, ks, ss)
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
