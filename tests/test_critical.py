import math
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
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
    signed_walk_sum,
)
from isinglr import critical
from isinglr.cli import main
from isinglr.critical import critical_radicand_difference


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
