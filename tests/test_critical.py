import math
import tracemalloc
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from isinglr import (
    ChainParams,
    GuardError,
    ValidationError,
    ballot_count,
    bessel_j,
    bessel_jn_array,
    bessel_sum_check,
    build_adjacency,
    lr_critical,
    lr_critical_grid,
    lr_walk_grid,
    reflection_safe_horizon,
    signed_walk_sum,
)
from isinglr import critical
from isinglr.cli import main
from isinglr.critical import MAX_BESSEL_ARG, MAX_BESSEL_ORDER, critical_radicand_difference


@lru_cache(maxsize=None)
def enumerate_walks(n, m):
    """Exhaustive count of length-n walks 0 -> m on the half line (independent oracle)."""
    if m < 0 or m > n:
        return 0
    if n == 0:
        return 1 if m == 0 else 0
    return enumerate_walks(n - 1, m - 1) + enumerate_walks(n - 1, m + 1)


class TestBallotCount:
    def test_empty_walk(self):
        assert ballot_count(0, 0) == 1

    def test_paper_examples(self):
        assert ballot_count(3, 3) == 1
        assert ballot_count(3, 1) == 2
        assert ballot_count(4, 2) == 3

    def test_parity_mismatch_zero(self):
        assert ballot_count(5, 2) == 0

    def test_exhaustive_match_up_to_twelve(self):
        for n in range(13):
            for m in range(13):
                assert ballot_count(n, m) == enumerate_walks(n, m), (n, m)

    def test_catalan_column(self):
        # walks returning to the origin are counted by Catalan numbers
        assert [ballot_count(2 * i, 0) for i in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            ballot_count(-1, 0)


class TestSignedWalkSum:
    def test_paper_values(self):
        assert signed_walk_sum(3, 1) == -2
        assert signed_walk_sum(3, 3) == 1

    def test_parity_zero(self):
        assert signed_walk_sum(6, 3) == 0

    def test_matches_adjacency_matrix_powers(self):
        # row-1 entries of (A'_c)^n at critical coupling, large enough chain
        a = build_adjacency(ChainParams(16, 1.0))
        acc = np.eye(32)
        for n in range(13):
            for m in range(13):
                assert signed_walk_sum(n, m) == pytest.approx(acc[0, m], abs=1e-9)
            acc = acc @ a


def series_bessel(m, z, terms=80):
    """Ascending series z^{m+1} sum_n (-1)^n z^{2n} / ((n+m+1)! n!) = J_{m+1}(2z).

    Alternating with large intermediate terms, so it is summed in exact
    rational arithmetic and converted to float at the end.
    """
    from fractions import Fraction
    zf = Fraction(z)
    total = Fraction(0)
    for n in range(terms):
        total += (-1) ** n * zf ** (2 * n) / (math.factorial(n + m + 1) * math.factorial(n))
    return float(zf ** (m + 1) * total)


class TestBesselJ:
    def test_j0_at_origin(self):
        assert bessel_j(0, 0.0) == 1.0

    def test_higher_orders_vanish_at_origin(self):
        for m in range(1, 6):
            assert bessel_j(m, 0.0) == 0.0

    @pytest.mark.parametrize("m", range(7))
    @pytest.mark.parametrize("z", [0.25, 1.0, 2.5, 5.0])
    def test_ascending_series_identity(self, m, z):
        assert bessel_j(m + 1, 2 * z) == pytest.approx(series_bessel(m, z), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("x", [0.5, 7.0, 60.0, 251.3, 2000.0])
    def test_against_mpmath(self, x):
        mp.mp.dps = 30
        arr = bessel_jn_array(min(int(x) + 60, 2100), x)
        for order in range(0, len(arr), max(1, len(arr) // 11)):
            ref = float(mp.besselj(order, x))
            assert arr[order] == pytest.approx(ref, rel=5e-12, abs=1e-280)

    def test_large_order_small_argument(self):
        mp.mp.dps = 40
        ref = float(mp.besselj(40, 2.0))
        assert bessel_j(40, 2.0) == pytest.approx(ref, rel=1e-11)

    def test_normalization_identity(self):
        # J_0 + 2 sum J_{2m} = 1 is built in; check the m^2-weighted cousin
        z = 20.0
        arr = bessel_jn_array(80, z)
        total = sum((m * arr[m]) ** 2 for m in range(1, 81))
        assert total == pytest.approx(z * z / 4.0, rel=1e-13)

    def test_envelope_rejected(self):
        with pytest.raises(ValidationError):
            bessel_j(10_001, 1.0)
        with pytest.raises(ValidationError):
            bessel_j(1, 2.0e6)
        with pytest.raises(ValidationError):
            bessel_j(1, -1.0)

    @pytest.mark.parametrize("call", [
        lambda: bessel_jn_array(3.5, 1.0),
        lambda: bessel_jn_array(True, 1.0),
        lambda: bessel_jn_array(-1, 1.0),
        lambda: bessel_jn_array(MAX_BESSEL_ORDER + 1, 1.0),
        lambda: bessel_jn_array(5, np.nextafter(MAX_BESSEL_ARG, np.inf)),
        lambda: bessel_jn_array(5, [1.0, np.nan]),
        lambda: bessel_jn_array(5, [[1.0]]),
        lambda: bessel_sum_check(10.0, 2.5),
        lambda: bessel_sum_check(1.0, MAX_BESSEL_ORDER // 2 + 1),
        lambda: critical_radicand_difference(2.5, 3.0),
        lambda: critical_radicand_difference(MAX_BESSEL_ORDER // 2 + 1, 1.0),
    ], ids=["float-order", "bool-order", "negative-order", "order-past-envelope",
            "argument-past-envelope", "nan-argument", "2d-argument", "float-truncation",
            "truncation-past-envelope", "float-qubit", "qubit-past-envelope"])
    def test_every_entry_checks_orders_and_the_envelope(self, call):
        # non-integer orders are ValidationError, not numpy's TypeError, and a
        # sweep just past the envelope is refused before it starts
        with pytest.raises(ValidationError):
            call()

    def test_numpy_integer_orders_accepted(self):
        assert bessel_j(np.int64(3), 1.0) == bessel_j(3, 1.0)
        assert bessel_sum_check(10.0, np.int32(40)) == bessel_sum_check(10.0, 40)

    def test_one_sweep_covers_every_regime(self):
        # zero, subnormal, tiny, a zero of J_0 and a large argument in one call;
        # each column matches its own call and 30-digit mpmath
        xs = [0.0, 5e-324, 1e-200, 1e-13, 2.404825557695773, 251.3]
        arr = bessel_jn_array(300, xs)
        assert arr.shape == (301, len(xs))
        mp.mp.dps = 30
        for j, x in enumerate(xs):
            own = bessel_jn_array(300, x)
            assert np.array_equal(arr[:, j] == 0.0, own == 0.0)
            assert np.allclose(arr[:, j], own, rtol=1e-14, atol=0.0)
            ref = np.array([float(mp.besselj(m, mp.mpf(x))) for m in range(301)])
            # relative past the turning point m = x, absolute where J_m oscillates
            tol = np.where(np.arange(301) > x, 1e-14 * np.abs(ref) + 1e-300, 2e-16)
            assert np.all(np.abs(arr[:, j] - ref) <= tol), x

    def test_zero_denominators_stay_finite(self):
        # arguments within 3 ulps of the first 60 zeros of J_0..J_39, where
        # 2m - x q_{m+1} can round to exactly zero.  scipy's jv is slow past
        # order 20, so it is evaluated at the zeros only and carried to their
        # neighbours by the Taylor term J_m' = (J_{m-1} - J_{m+1}) / 2
        zeros = np.concatenate([scipy.special.jn_zeros(m, 60) for m in range(40)])
        steps = [zeros]
        for direction in (-np.inf, np.inf):
            x = zeros
            for _ in range(3):
                x = np.nextafter(x, direction)
                steps.append(x)
        xs = np.concatenate(steps)
        arr = bessel_jn_array(39, xs)
        assert xs.size == 16_800 and np.all(np.isfinite(arr))
        at_zeros = scipy.special.jv(np.arange(-1, 41)[:, None], zeros)    # J_-1 .. J_40
        slope = np.tile(at_zeros[:-2] - at_zeros[2:], 7) / 2.0
        ref = np.tile(at_zeros[1:-1], 7) + (xs - np.tile(zeros, 7)) * slope
        assert np.max(np.abs(arr - ref)) <= 1e-14


    # each hits an exact zero denominator 2m - x q_{m+1} = 0 in a sweep to order 39
    # (at m = 4, 10 and 27), so the nudge runs in both loops
    ZERO_DENOMINATORS = [9.76102312998167, 17.24122038248913, 40.90580460249226]

    def test_one_argument_runs_the_array_sweep_bit_for_bit(self):
        # the float loop for one argument against the array loop over [x, x], at zeros
        # of J_0..J_9 and their neighbouring doubles, in every regime, and at the
        # arguments that hit an exact zero denominator
        zeros = np.concatenate([scipy.special.jn_zeros(m, 10) for m in range(10)])
        xs = np.concatenate([zeros, np.nextafter(zeros, 0.0), np.nextafter(zeros, np.inf),
                             [0.0, 5e-324, 1e-200, 1e-13, 1.0, 251.3, 9.9e3],
                             self.ZERO_DENOMINATORS])
        for x in xs:
            pair = bessel_jn_array(39, [x, x])
            assert np.array_equal(pair[:, 0], pair[:, 1])
            assert np.array_equal(bessel_jn_array(39, x), pair[:, 0]), x
            assert np.array_equal(bessel_jn_array(39, [x]), pair[:, :1]), x
        assert bessel_j(7, 40.90580460249226) == bessel_jn_array(7, [40.90580460249226] * 2)[7, 0]


class TestBesselSumCheck:
    def test_zero_argument(self):
        assert bessel_sum_check(0.0, 10) == 0.0

    def test_converges_to_z_sq_over_eight(self):
        assert bessel_sum_check(10.0, 40) == pytest.approx(12.5, abs=1e-10)

    def test_companion_squared_identity(self):
        # sum m^2 J_m(z)^2 -> z^2/4, brute-force partial sums
        z = 20.0
        arr = bessel_jn_array(90, z)
        partial = sum(m * m * arr[m] ** 2 for m in range(1, 61))
        assert partial == pytest.approx(z * z / 4.0, abs=1e-10)


class TestLrCritical:
    def test_zero_time(self):
        for k in (1, 2, 50):
            assert lr_critical(k, 0.0) == 0.0

    def test_small_time_linear_rise_k1(self):
        # C_1 -> 4 pi s as s -> 0
        for s in (1e-4, 1e-3):
            assert lr_critical(1, s) == pytest.approx(4 * math.pi * s, rel=1e-5)

    def test_large_time_saturates_to_two(self):
        assert lr_critical(1, 40.0) == pytest.approx(2.0, abs=5e-3)
        assert lr_critical(5, 40.0) == pytest.approx(2.0, abs=5e-3)

    def test_matches_walk_before_reflections(self):
        # semi-infinite emulation: front must stay far from the chain end
        p = ChainParams(400, 1.0)
        ss = np.linspace(0.25, 20.0, 24)
        ks = (1, 2, 7, 23, 60)
        grid = lr_walk_grid(p, ks, ss)
        worst = max(abs(lr_critical(k, float(s)) - grid[i, j])
                    for i, k in enumerate(ks) for j, s in enumerate(ss))
        assert worst < 1e-8

    @pytest.mark.parametrize("k, s", [(60, 2.0), (80, 2.0), (100, 5.0), (3, 1.0),
                                      ((1, 7, 30, 100), 5.0)])
    def test_deep_tail_against_mpmath(self, k, s):
        # once 2k passes the Bessel turning region the tail still needs
        # several terms; a single term is off by up to 1e-2 relative.  A
        # tuple of k goes through one lr_critical_grid sweep instead.
        ks = k if isinstance(k, tuple) else (k,)
        refs = []
        with mp.workdps(60):
            z = 4 * mp.pi * s
            for kk in ks:
                top = 2 * kk + int(z) + 120
                tail = mp.fsum((m * mp.besselj(m, z)) ** 2 for m in range(2 * kk, top))
                refs.append(float(4 * mp.sqrt(tail) / z))
        got = lr_critical_grid(ks, [s])[:, 0] if isinstance(k, tuple) else [lr_critical(k, s)]
        assert list(got) == pytest.approx(refs, rel=1e-12, abs=0.0)

    def test_sweep_past_the_bessel_envelope_refused(self, monkeypatch):
        # k = 300000 needs a 600040-order sweep; no sweep may start
        def no_sweep(*_args):
            raise AssertionError("a Bessel sweep started before the envelope check")

        monkeypatch.setattr(critical, "bessel_jn_array", no_sweep)
        for ks, ss in [([300000], [1.0]), ([1, 4981], [0.0, 0.1]), ([1], [0.5, 1e6])]:
            with pytest.raises(GuardError, match="envelope"):
                lr_critical_grid(ks, ss)
        argv = ["correlate", "--nq", "10", "--jp", "1", "--method", "critical", "--s", "1"]
        assert main(argv + ["--k", "300000"]) == 2
        assert lr_critical_grid([4981], [0.0])[0, 0] == 0.0        # no sweep at s = 0

    def test_one_sweep_per_block_of_times(self, monkeypatch):
        sweep, calls = critical.bessel_jn_array, []

        def spy(n_max, x):
            calls.append(np.size(x))
            return sweep(n_max, x)

        monkeypatch.setattr(critical, "bessel_jn_array", spy)
        ks, ss = [1, 2, 5, 10, 20, 40, 60, 80], np.linspace(0.0, 20.0, 401)
        whole = lr_critical_grid(ks, ss)
        assert calls == [400]                                  # s = 0 needs no sweep
        calls.clear()
        assert lr_critical_grid([1, 4981], [0.0, 0.0]).tolist() == [[0.0, 0.0]] * 2
        assert calls == []
        monkeypatch.setattr(critical, "SWEEP_BLOCK", 4000)     # 9 times per block
        blocked = lr_critical_grid(ks, ss)
        assert calls == [9] * 44 + [4]
        np.testing.assert_allclose(blocked, whole, rtol=1e-14, atol=0.0)

    def test_long_grid_memory_bounded_by_blocks(self):
        # one unblocked sweep over these 200,000 times would peak near 300 MB
        tracemalloc.start()
        try:
            grid = lr_critical_grid([1, 3], np.linspace(0.0, 1.0, 200_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert grid[0, -1] == lr_critical(1, 1.0)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_walk_matches_closed_form_inside_half_the_horizon(self, data):
        # cells inside half the reflection-safe horizon of an N-qubit chain,
        # walked on a 4N-qubit chain: at s <= h/2 its end lies past the
        # light-cone bound of walk._light_cone_qubits, so the walk is the
        # semi-infinite chain to round-off.  The N-qubit chain's own last
        # qubits already feel its open end there (see the next test)
        n = data.draw(st.integers(min_value=20, max_value=300), label="N")
        ks = data.draw(st.lists(st.integers(min_value=1, max_value=n), min_size=8, max_size=8),
                       label="ks")
        horizon = min(reflection_safe_horizon(ChainParams(n, 1.0), k) for k in ks)
        ss = data.draw(st.lists(st.floats(min_value=0.0, max_value=horizon / 2), min_size=12,
                                max_size=12), label="ss")
        walk = lr_walk_grid(ChainParams(4 * n, 1.0), ks, ss)
        assert np.max(np.abs(walk - lr_critical_grid(ks, ss))) <= 1e-12

    def test_open_end_moves_the_last_qubit_inside_half_the_horizon(self):
        # the finite chain's horizon does not hold for its last qubit: at half
        # of it C_20 on 20 qubits is 2.7 % above the semi-infinite value,
        # which the 80-qubit walk and the closed form agree on
        p = ChainParams(20, 1.0)
        s = reflection_safe_horizon(p, 20) / 2
        crit = lr_critical(20, s)
        assert lr_walk_grid(ChainParams(80, 1.0), [20], [s])[0, 0] == pytest.approx(crit, rel=1e-9)
        assert lr_walk_grid(p, [20], [s])[0, 0] > 1.02 * crit

    def test_monotone_nesting_in_k(self):
        for s in (0.5, 3.0, 11.0):
            vals = [lr_critical(k, s) for k in range(1, 40)]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_agrees_with_small_dense_chain_early(self):
        from isinglr import lr_direct
        p = ChainParams(10, 1.0)
        for k in (1, 2, 3):
            for s in (0.2, 0.5, 0.8):
                assert lr_critical(k, s) == pytest.approx(lr_direct(p, k, s), abs=1e-6)

    @given(st.integers(min_value=1, max_value=100),
           st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_radicand_difference_form_nonnegative(self, k, s):
        z = 4 * math.pi * s
        assert critical_radicand_difference(k, z) >= -1e-10 * z * z

    @given(st.integers(min_value=1, max_value=80),
           st.floats(min_value=0.0, max_value=25.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, k, s):
        assert 0.0 <= lr_critical(k, s) <= 2.0 + 1e-12
