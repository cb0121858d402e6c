"""Reference values for the output checks, computed without the program's code.

Double-precision cells are checked against the eig route written out here:
conjugating the skew-symmetric walk matrix A' by diag(i^m) gives i T with T
real symmetric tridiagonal (same superdiagonal 1, J', 1, J', ...), so row 1
of exp(-2 pi s A') is Re(i^m sum_j V_0j V_mj exp(2 pi i s lam_j)) and

    C_k(s) = 2 sqrt( sum_{m >= 2k} r_m^2 )        (nodes counted from 1).

High-precision cells use an 80-digit mpmath matrix exponential of the same
matrix.  Crossing times are bisected on the eig route; velocities,
saturation values and the leading-edge forms come from their closed forms.

A reference is a list of cells; each cell names a row key, a column, the
reference value and its tolerance, |got - ref| <= atol + rtol |ref|.
"""

from __future__ import annotations

import math
import random

import numpy as np
import scipy.linalg

EIG_ATOL = 1e-12          # eig route against any double-precision route
DIGITS_RTOL = 1e-10       # --digits cells against 80-digit mpmath
CROSSING_ATOL = 1e-7
VELOCITY_RTOL = 0.02
PLATEAU_RTOL = 0.02
EDGE_ATOL = 1e-7          # leading-edge forms, absolute in log10
MP_DIGITS = 80
LIVE_DIGITS_FLOOR = 1e-10  # live high-precision checks against eig start here

CELLS_PER_OP = 24


def v_front(jp: float) -> float:
    return 2.0 * math.pi * min(jp, 1.0)


def horizon(nq: int, jp: float, k: int) -> float:
    v = v_front(jp)
    return math.inf if v == 0.0 else (2.0 * nq - k - 1.0) / v


class EigChain:
    """Eigen-factorisation of one chain; first exponential rows on demand."""

    def __init__(self, nq: int, jp: float):
        n = 2 * nq
        sup = np.where(np.arange(n - 1) % 2 == 0, 1.0, float(jp))
        try:
            self.lam, self.vec = scipy.linalg.eigh_tridiagonal(np.zeros(n), sup)
        except np.linalg.LinAlgError:
            self.lam, self.vec = scipy.linalg.eigh_tridiagonal(
                np.zeros(n), sup, lapack_driver="stev")
        self.phase = np.resize(np.array([1.0, 1.0j, -1.0, -1.0j]), n)

    def rows(self, ss) -> np.ndarray:
        ss = np.asarray(ss, dtype=float)
        g = (np.exp(2j * np.pi * np.multiply.outer(ss, self.lam)) * self.vec[0]) @ self.vec.T
        return np.real(g * self.phase)

    def c(self, ks, ss) -> np.ndarray:
        """C_k(s), shape (len(ks), len(ss)), evaluated in chunks of times."""
        ss = np.asarray(ss, dtype=float)
        out = np.empty((len(ks), len(ss)))
        for lo in range(0, len(ss), 512):
            rows = self.rows(ss[lo:lo + 512])
            tail = np.cumsum((rows ** 2)[:, ::-1], axis=1)[:, ::-1]
            out[:, lo:lo + 512] = 2.0 * np.sqrt(tail[:, [2 * k - 1 for k in ks]].T)
        out[:, ss == 0.0] = 0.0
        return out


def mp_c(nq: int, jp: float, ks, ss, digits: int = MP_DIGITS) -> np.ndarray:
    """C_k(s) from an mpmath matrix exponential at `digits` digits, as doubles."""
    import mpmath as mp
    n = 2 * nq
    out = np.empty((len(ks), len(ss)))
    with mp.workdps(digits + 10):
        a = mp.zeros(n, n)
        for m in range(n - 1):
            w = mp.mpf(1) if m % 2 == 0 else mp.mpf(jp)
            a[m, m + 1] = w
            a[m + 1, m] = -w
        for j, s in enumerate(ss):
            e = mp.expm(-2 * mp.pi * mp.mpf(s) * a)
            sq = [e[0, m] ** 2 for m in range(n)]
            for i, k in enumerate(ks):
                out[i, j] = float(2 * mp.sqrt(mp.fsum(sq[2 * k - 1:])))
    return out


def crossing_time(chain: EigChain, nq: int, jp: float, k: int, threshold: float) -> float:
    """First passage of C_k through `threshold` on a 0.02 grid from 0, bisected."""
    v = v_front(jp)
    top = min(horizon(nq, jp, k), 3.0 * k / v + 20.0)
    grid = np.arange(0.0, top + 0.02, 0.02)
    vals = chain.c([k], grid)[0]
    idx = np.nonzero((vals[:-1] < threshold) & (vals[1:] >= threshold))[0]
    if len(idx) == 0:
        raise ValueError(f"reference: C_{k} never reaches {threshold}")
    lo, hi = float(grid[idx[0]]), float(grid[idx[0] + 1])
    while hi - lo > 1e-11:
        mid = 0.5 * (lo + hi)
        if chain.c([k], [mid])[0, 0] < threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def edge_log10(form: str, k: int, s: float, jp: float) -> float:
    """The leading-edge forms in log10, evaluated in 40-digit arithmetic."""
    import mpmath as mp
    with mp.workdps(40):
        k_, s_, jp_ = mp.mpf(k), mp.mpf(s), mp.mpf(jp)
        if form == "exact":
            val = (2 * k_ * mp.log10(2) + (2 * k_ - 1) * mp.log10(mp.pi)
                   - mp.loggamma(2 * k_) / mp.log(10) + (k_ - 1) * mp.log10(jp_)
                   + (2 * k_ - 1) * mp.log10(s_))
        else:
            vt = mp.e * mp.pi * mp.sqrt(jp_) * s_
            if form == "largek":
                val = (-mp.log10(mp.pi * jp_) / 2 - mp.log10(k_) / 2
                       + (2 * k_ - 1) * (mp.log10(vt) - mp.log10(k_ - mp.mpf(0.5))))
            else:
                val = (mp.log10(mp.e) - mp.log10(mp.pi * jp_ * k_) / 2
                       - 2 * (k_ - vt) * mp.log10(mp.e))
        return float(val)


def _cell(row, col, ref, atol=0.0, rtol=0.0, transform=None) -> dict:
    cell = {"row": list(row), "col": col, "ref": float(ref), "atol": atol, "rtol": rtol}
    if transform:
        cell["transform"] = transform
    return cell


def _pick(rng: random.Random, values, n: int) -> list:
    values = list(values)
    return values if len(values) <= n else sorted(rng.sample(values, n))


def cells(op, seed: int, mode: str, oracle=None) -> list:
    """Reference cells for one operation.

    mode "exact" uses 80-digit mpmath for --digits cells (the committed
    references of the default seed); mode "live" uses the checks that hold
    for any input: the eig route for every cell and, where N <= 10, the
    dense oracle (passed in as `oracle(nq, jp, ks, ss)`).
    """
    rng = random.Random(f"{seed}:{op.op_id}")
    kind = op.kind
    out = []
    if kind == "front":
        chain = EigChain(op.nq, op.jp)
        out.append(_cell([], "velocity", v_front(op.jp), rtol=VELOCITY_RTOL))
        for k in _pick(rng, op.ks, 6):
            t = crossing_time(chain, op.nq, op.jp, k, op.extra["threshold"])
            out.append(_cell([k], "s", t, atol=CROSSING_ATOL))
        return out
    if kind == "saturation":
        for jp in op.extra["jps"]:
            plateau = 2.0 * min(1.0, 1.0 / jp)
            out.append(_cell([jp], "measured", plateau, rtol=PLATEAU_RTOL))
            out.append(_cell([jp], "analytic", plateau, atol=EIG_ATOL))
        return out
    if kind == "edge":
        forms = ("exact", "largek", "exponential")
        for _ in range(CELLS_PER_OP // 3):
            k, s = rng.choice(op.ks), rng.choice(op.ss)
            for form in forms:
                out.append(_cell([k, s], f"log10C_{form}", edge_log10(form, k, s, op.jp),
                                 atol=EDGE_ATOL))
        return out

    if kind == "lightcone":
        pairs = [(rng.choice(op.ks), rng.randrange(len(op.ss))) for _ in range(CELLS_PER_OP)]
        chain = EigChain(op.nq, op.jp)
        for k, j in pairs:
            s = op.ss[j]
            out.append(_cell([k, s], "log10C", chain.c([k], [s])[0, 0],
                             atol=EIG_ATOL, transform="pow10"))
        return out

    # correlate and snapshot: a (k, s) block of sampled cells
    critical = op.extra.get("method") == "critical" or op.extra.get("critical")
    n_k = 4 if kind == "correlate" else 6
    ks = _pick(rng, op.ks, n_k)
    ss = _pick(rng, op.ss, max(2, CELLS_PER_OP // len(ks)))
    chain = EigChain(op.nq, op.jp)
    eig = chain.c(ks, ss)
    if op.digits is not None:
        if mode == "exact":
            sources = [(mp_c(op.nq, op.jp, ks, ss), 0.0, DIGITS_RTOL)]
        else:
            sources = [(eig, EIG_ATOL, 0.0)]
            if op.nq <= 10 and oracle is not None:
                sources.append((oracle(op.nq, op.jp, ks, ss), EIG_ATOL, 0.0))
    else:
        sources = [(eig, EIG_ATOL, 0.0)]

    def col(prefix, k, s, suffix):
        if kind == "correlate":
            return f"C{k}_{suffix}"
        return [prefix, s]

    def row(k, s):
        return [s] if kind == "correlate" else [k]

    method = op.extra.get("method", "walk")
    for i, k in enumerate(ks):
        for j, s in enumerate(ss):
            if method in ("walk", "both") or kind == "snapshot":
                for values, atol, rtol in sources:
                    out.append(_cell(row(k, s), col("C_s", k, s, "walk"),
                                     values[i, j], atol, rtol))
            if method == "both":
                out.append(_cell(row(k, s), f"C{k}_direct", eig[i, j], atol=EIG_ATOL))
            if critical and s <= horizon(op.nq, op.jp, k):
                out.append(_cell(row(k, s), col("critical_s", k, s, "critical"),
                                 eig[i, j], atol=EIG_ATOL))
    return out
