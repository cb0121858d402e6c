"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Two checks are expected to stay red; their stated parameter grids are
internally inconsistent, so no implementation of the formulas involved can
satisfy them (details in the test docstrings and the failure messages).
Green companions covering the same physics at self-consistent parameters
live in test_asymptotics.py and test_walk.py.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

import isinglr
from isinglr import (
    ChainParams,
    ballot_count,
    front_velocity,
    lr_critical,
    lr_direct_grid,
    lr_leading_exact,
    lr_leading_exponential,
    lr_walk_grid,
    lr_walk_highprec,
    measure_saturation,
    saturation_value,
    saturation_window,
    v_group_max,
    v_group_max_numeric,
    v_lieb_robinson,
    walk_coefficients,
)
from isinglr.bench import scaling_report
from isinglr.oracle import (
    commutator_isotropy_check,
    commutator_with_z,
    frobenius_norm,
    operator_norm,
    _z1_evolved,
)
from isinglr.walk import exp_first_row

RESULTS = []


def record(tag, ok, detail):
    line = f"criterion {tag}: {'PASS' if ok else 'FAIL'} ({detail})"
    RESULTS.append(line)
    return line


def test_criterion_01_oracle_equivalence():
    """Walk vs dense oracle, N=10, J'=0.5, k=1..10, 60 times in [0, 3]."""
    p = ChainParams(10, 0.5)
    ks = list(range(1, 11))
    ss = np.linspace(0.0, 3.0, 60)
    t0 = time.perf_counter()
    walk = lr_walk_grid(p, ks, ss)
    direct = lr_direct_grid(p, ks, ss)
    elapsed = time.perf_counter() - t0
    worst = float(np.max(np.abs(walk - direct)))
    ok = worst <= 1e-10 and elapsed < 120.0
    line = record("01 oracle equivalence", ok,
                  f"max |walk-direct| = {worst:.3e}, elapsed {elapsed:.1f}s")
    assert ok, line


def test_criterion_02_norm_equivalence():
    """Operator norm == Frobenius norm of the commutator; QQ^dag isotropic."""
    worst_rel = 0.0
    all_isotropic = True
    for nq in (2, 4, 6):
        p = ChainParams(nq, 1.0)
        for s in np.linspace(0.0, 3.0, 50):
            z1t = _z1_evolved(p, float(s))
            for k in range(1, nq + 1):
                q = commutator_with_z(p, k, z1t)
                fro, op = frobenius_norm(q), operator_norm(q)
                worst_rel = max(worst_rel, abs(op - fro) / max(1.0, op))
                ok_iso, _ = commutator_isotropy_check(p, k, float(s))
                all_isotropic = all_isotropic and ok_iso
    ok = worst_rel <= 1e-10 and all_isotropic
    line = record("02 norm equivalence", ok,
                  f"max rel gap = {worst_rel:.3e}, isotropy everywhere = {all_isotropic}")
    assert ok, line


def test_criterion_03_critical_closed_form():
    """Bessel closed form vs walk at J'=1, N=400, k <= 60, s <= 20."""
    p = ChainParams(400, 1.0)
    ks = list(range(1, 61))
    ss = np.linspace(1.0 / 3.0, 20.0, 60)
    walk = lr_walk_grid(p, ks, ss)
    worst = 0.0
    for i, k in enumerate(ks):
        for j, s in enumerate(ss):
            worst = max(worst, abs(lr_critical(k, float(s)) - walk[i, j]))
    ok = worst <= 1e-8
    line = record("03 critical closed form", ok, f"max |critical-walk| = {worst:.3e}")
    assert ok, line


def test_criterion_04_walk_coefficient_ledger():
    """First-row entries of A^n reproduce the hand-computed walk sums."""
    worst = 0.0
    for jp in (0.5, 1.0, 2.0):
        p = ChainParams(4, jp)
        expected = {
            (1, 1): 2j,
            (2, 0): 4.0,
            (2, 2): -4.0 * jp,
            (3, 1): 1j * (8.0 + 8.0 * jp * jp),
            (3, 3): -8j * jp,
            (4, 2): -16.0 * jp ** 3 - 32.0 * jp,
        }
        rows = {n: walk_coefficients(p, n) for n in (1, 2, 3, 4)}
        for (n, m), want in expected.items():
            worst = max(worst, abs(rows[n][m] - want))
    ok = worst <= 1e-12
    line = record("04 walk-coefficient ledger", ok, f"max deviation = {worst:.3e}")
    assert ok, line


def test_criterion_05_ballot_counts():
    """Closed-form ballot numbers match exhaustive enumeration for n <= 12."""
    assert ballot_count(3, 3) == 1
    assert ballot_count(3, 1) == 2
    assert ballot_count(4, 2) == 3

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def brute(n, m):
        if m < 0 or m > n:
            return 0
        if n == 0:
            return int(m == 0)
        return brute(n - 1, m - 1) + brute(n - 1, m + 1)

    mismatches = sum(ballot_count(n, m) != brute(n, m)
                     for n in range(13) for m in range(13))
    ok = mismatches == 0
    line = record("05 ballot counts", ok, f"{mismatches} mismatches over n,m <= 12")
    assert ok, line


def _highprec_crossing(p, k, digits=70, level=1e-8):
    """Time where the true C_k (high-precision walk) first equals `level`."""
    coeff_log10 = lr_leading_exact(k, 1.0, p.j_coupling).log10_magnitude
    s_guess = 10.0 ** ((math.log10(level) - coeff_log10) / (2 * k - 1))
    lo, hi = 0.5 * s_guess, 1.5 * s_guess
    assert float(lr_walk_highprec(p, k, lo, digits)) < level
    assert float(lr_walk_highprec(p, k, hi, digits)) > level
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if float(lr_walk_highprec(p, k, mid, digits)) < level:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def test_criterion_06a_leading_edge_relative_error():
    """EXPECTED RED.  Leading-edge monomial vs 70-digit walk where C_k = 1e-8.

    The stated gate (relative error <= 1e-3 for every k <= 8) is not
    attainable: the monomial's first correction is ~1.4-4.6 s^2 relative, and
    at the C = 1e-8 crossing that amounts to 1.8e-6 (k=2), 5.9e-3 (k=4), and
    2.0e-1 (k=8).  Verified against an independent dense Heisenberg
    evolution in 50-digit arithmetic, so the gap is a property of the
    formulas, not an implementation artifact.  On the log-log scale the
    curves remain within 0.1 decade, which is the level of agreement a
    30-decade plot can express; that companion check is green in
    test_walk.py (test_matches_leading_edge_deep_tail).
    """
    p = ChainParams(10, 0.5)
    rels = {}
    for k in range(1, 9):
        s_star = _highprec_crossing(p, k)
        lead = lr_leading_exact(k, s_star, 0.5)
        hp = lr_walk_highprec(p, k, s_star, 70)
        rels[k] = abs(float(hp) - lead.to_float()) / lead.to_float()
    worst = max(rels.values())
    ok = worst <= 1e-3
    detail = ", ".join(f"k={k}: {r:.2e}" for k, r in rels.items())
    line = record("06a leading-edge relative error at C=1e-8", ok, detail)
    assert ok, line


def test_criterion_06b_leading_edge_slopes():
    """Log-log slopes of the 70-digit walk fit 2k-1 within 0.01.

    Fit window: times where the leading-edge level lies in [1e-30, 1e-22],
    deep enough that the s^2 correction is below the slope tolerance.
    """
    p = ChainParams(10, 0.5)
    worst = 0.0
    for k in range(1, 9):
        coeff_log10 = lr_leading_exact(k, 1.0, 0.5).log10_magnitude
        s_at = lambda level: 10.0 ** ((level - coeff_log10) / (2 * k - 1))
        ss = np.geomspace(s_at(-30.0), s_at(-22.0), 5)
        logs = [float(mp.log10(lr_walk_highprec(p, k, float(s), 80))) for s in ss]
        slope = np.polyfit(np.log10(ss), logs, 1)[0]
        worst = max(worst, abs(slope - (2 * k - 1)))
    ok = worst <= 0.01
    line = record("06b leading-edge log-log slopes", ok, f"max |slope-(2k-1)| = {worst:.2e}")
    assert ok, line


def test_criterion_07_exponential_front():
    """EXPECTED RED.  Exponential front vs power law on the stated grid.

    The stated windows are mutually inconsistent: at J'=2 the times
    828..862 put the ballistic edge v_lr * t at qubits 10000..10410, which
    is 800-1350 sites below the stated window k in [11200, 11350].  Out
    there the exponential form is only an upper envelope and exceeds the
    power law by 25-76 decades, for any correct implementation of the two
    expressions; the accompanying magnitude note (~1e-100) matches times
    928..940 instead, where the edge does cross the stated k window.  The
    self-consistent pairing passes at <= 0.038 decades and is kept green in
    test_asymptotics.py (test_tracks_power_law_at_ballistic_edge).
    """
    jp = 2.0
    worst = 0.0
    for s in range(828, 863, 2):
        for k in range(11200, 11351, 10):
            gap = abs(lr_leading_exponential(k, float(s), jp).log10_magnitude
                      - lr_leading_exact(k, float(s), jp).log10_magnitude)
            worst = max(worst, gap)
    ok = worst <= 0.05
    line = record("07 exponential front (stated grid)", ok,
                  f"max |dlog10| = {worst:.1f} decades")
    assert ok, line


def test_criterion_08_saturation():
    """Measured plateaus across couplings match 2 min(1, 1/J') within 2%."""
    worst = 0.0
    details = []
    for jp in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
        p = ChainParams(200 if jp < 3.0 else 300, jp)
        measured = measure_saturation(p, 10, saturation_window(p, 10))
        expect = saturation_value(jp)
        rel = abs(measured - expect) / expect
        worst = max(worst, rel)
        details.append(f"J'={jp}: {rel * 100:.2f}%")
    ok = worst <= 0.02
    line = record("08 saturation", ok, ", ".join(details))
    assert ok, line


def test_criterion_09_front_velocity():
    """Front speed within 2% of 2 pi min(J', 1) and below the leading-edge speed."""
    worst = 0.0
    details = []
    ordering = True
    for jp in (0.25, 0.5, 1.0, 2.0, 4.0):
        p = ChainParams(200, jp)
        est = front_velocity(p, threshold=0.1)
        expect = v_group_max(jp)
        rel = abs(est.velocity - expect) / expect
        worst = max(worst, rel)
        ordering = ordering and est.velocity < v_lieb_robinson(jp)
        details.append(f"J'={jp}: {rel * 100:.2f}%")
    ok = worst <= 0.02 and ordering
    line = record("09 front velocity", ok,
                  ", ".join(details) + f"; always < v_lr: {ordering}")
    assert ok, line


def test_criterion_10_group_velocity():
    """Numeric band maximum matches the piecewise form; maximizer at cos q0 = 1/g."""
    worst_v = 0.0
    worst_q = 0.0
    for jp in np.arange(0.1, 5.0 + 1e-9, 0.1):
        jp = float(round(jp, 10))
        value, q0 = v_group_max_numeric(jp)
        worst_v = max(worst_v, abs(value - v_group_max(jp)))
        if jp <= 1.0:   # g = 1/J' >= 1
            worst_q = max(worst_q, abs(math.cos(q0) - jp))
    ok = worst_v <= 1e-9 and worst_q <= 1e-8
    line = record("10 group velocity", ok,
                  f"max value gap = {worst_v:.2e}, max maximizer gap = {worst_q:.2e}")
    assert ok, line


def test_criterion_11_structural_invariants():
    """Unit-norm exponential rows, monotone nesting, exact zeros at t = 0."""
    p = ChainParams(200, 2.0)
    norm_err = max(abs(np.sum(exp_first_row(p, s) ** 2) - 1.0)
                   for s in (0.5, 3.0, 10.0, 25.0))

    nesting_ok = True
    for jp in (0.5, 2.0):
        p = ChainParams(120, jp)
        grid = lr_walk_grid(p, range(1, 121), np.linspace(0.0, 15.0, 40))
        nesting_ok = nesting_ok and bool(np.all(np.diff(grid, axis=0) <= 1e-14))

    zeros_ok = all(isinglr.lr_walk(ChainParams(50, 1.5), k, 0.0) == 0.0
                   for k in (1, 10, 50))
    zeros_ok = zeros_ok and lr_critical(4, 0.0) == 0.0
    zeros_ok = zeros_ok and isinglr.lr_direct(ChainParams(6, 1.0), 3, 0.0) == 0.0

    ok = norm_err <= 1e-12 and nesting_ok and zeros_ok
    line = record("11 structural invariants", ok,
                  f"row-norm err = {norm_err:.2e}, nesting = {nesting_ok}, zeros = {zeros_ok}")
    assert ok, line


def test_criterion_12_scaling():
    """Walk wall time over N in {50,...,400} fits a power law, exponent < 1.6."""
    report = scaling_report((50, 100, 200, 400), repeats=3)
    exponent = report["fit_exponent"]
    times = {r["n_qubits"]: r["walk_seconds"] for r in report["timings"]}
    ok = exponent < 1.6
    line = record("12 scaling", ok,
                  f"fit exponent = {exponent:.2f}, times = " +
                  ", ".join(f"N={n}: {t * 1000:.1f}ms" for n, t in times.items()))
    assert ok, line


def test_zz_print_criterion_summary(capsys):
    with capsys.disabled():
        print("\n" + "=" * 72)
        print("acceptance summary")
        print("=" * 72)
        for line in RESULTS:
            print(line)
        print("=" * 72)
