import math

import numpy as np
import pytest

from isinglr import (
    ChainParams,
    FrontEstimate,
    GuardError,
    HorizonError,
    ThresholdNotReachedError,
    ValidationError,
    crossing_time,
    front_velocity,
    lightcone,
    lr_walk,
    measure_saturation,
    reflection_safe_horizon,
    saturation_window,
    v_group_max,
)
from isinglr import walk
from isinglr.analysis import default_fit_range


class TestReflectionHorizon:
    def test_formula_large_chain(self):
        # (2 N - k - 1) / v_max with v_max = 2 pi at J' = 1
        p = ChainParams(200, 1.0)
        assert reflection_safe_horizon(p, 10) == pytest.approx(389.0 / (2 * math.pi), rel=1e-12)

    def test_formula_small_chain(self):
        p = ChainParams(10, 0.5)
        assert reflection_safe_horizon(p, 1) == pytest.approx(18.0 / math.pi, rel=1e-12)

    def test_monotone_decreasing_in_k(self):
        p = ChainParams(40, 1.5)
        hs = [reflection_safe_horizon(p, k) for k in range(1, 41)]
        assert all(b < a for a, b in zip(hs, hs[1:]))

    def test_decoupled_chain_never_reflects(self):
        assert reflection_safe_horizon(ChainParams(5, 0.0), 2) == math.inf


class TestDecoupledChain:
    """At J' = 0 no front travels, so there is no default time window: a guard
    refusal, not an infinite grid.  An explicit window still works."""

    P = ChainParams(20, 0.0)

    def test_default_windows_refused(self):
        with pytest.raises(GuardError, match="J' = 0 decouples the chain"):
            crossing_time(self.P, 1, 0.1)
        with pytest.raises(GuardError, match="J' = 0 decouples the chain"):
            front_velocity(self.P)
        with pytest.raises(GuardError, match="J' = 0 decouples the chain"):
            saturation_window(self.P, 1)

    def test_explicit_window_crosses(self):
        # C_1 = 2 |sin(2 pi s)| on the decoupled chain
        s1 = crossing_time(self.P, 1, 0.1, s_max=1.0)
        assert s1 == pytest.approx(math.asin(0.05) / (2 * math.pi), abs=1e-8)


class TestCrossingTime:
    def test_first_qubit_rises_fast(self):
        # C_1 grows as 4 pi s, so the 0.1 level falls below s = 0.05
        for jp in (0.3, 1.0, 2.5):
            s1 = crossing_time(ChainParams(40, jp), 1, 0.1)
            assert 0.0 < s1 < 0.05

    def test_crossing_value_matches_threshold(self):
        p = ChainParams(60, 1.0)
        s = crossing_time(p, 7, 0.25)
        assert lr_walk(p, 7, s) == pytest.approx(0.25, abs=1e-5)

    def test_monotone_in_k(self):
        p = ChainParams(80, 0.5)
        times = [crossing_time(p, k, 0.1) for k in range(10, 26, 5)]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_unreachable_threshold_rejected(self):
        # saturation at J' = 2 is 1, so 1.9 is never reached
        with pytest.raises(ThresholdNotReachedError):
            crossing_time(ChainParams(30, 2.0), 3, 1.9)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -0.1])
    def test_non_finite_or_non_positive_threshold_rejected(self, threshold):
        with pytest.raises(ValidationError):
            crossing_time(ChainParams(30, 2.0), 3, threshold)
        with pytest.raises(ValidationError):
            front_velocity(ChainParams(30, 2.0), threshold, fit_range=(3, 6))

    @pytest.mark.parametrize("threshold", [1.0, 1.9])
    def test_threshold_at_or_above_plateau_never_reached(self, threshold):
        # C_sat = 1 at J' = 2
        with pytest.raises(ThresholdNotReachedError):
            front_velocity(ChainParams(30, 2.0), threshold, fit_range=(3, 6))

    def test_window_beyond_horizon_rejected(self):
        p = ChainParams(20, 1.0)
        with pytest.raises(HorizonError):
            crossing_time(p, 5, 0.1, s_max=100.0)

    @pytest.mark.parametrize("window", [{"s_max": math.nan}, {"s_max": math.inf},
                                        {"s_max": -1.0}, {"coarse_step": 0.0},
                                        {"coarse_step": -0.1}, {"coarse_step": math.nan}])
    def test_bad_window_rejected(self, window):
        with pytest.raises(ValidationError):
            crossing_time(ChainParams(20, 1.0), 5, 0.1, **window)


class TestFrontVelocity:
    def test_default_fit_range_shape(self):
        assert default_fit_range(ChainParams(200, 1.0)) == (20, 140)
        lo, hi = default_fit_range(ChainParams(30, 1.0))
        assert 1 <= lo < hi <= 29

    def test_velocity_near_band_maximum(self):
        # smaller chain, coarser gate than the acceptance run
        p = ChainParams(120, 1.0)
        est = front_velocity(p, threshold=0.1)
        assert est.velocity == pytest.approx(2 * math.pi, rel=0.05)
        assert est.fit_range == (12, 84)

    def test_crossings_increase_and_steps_reported(self):
        p = ChainParams(60, 0.5)
        est = front_velocity(p, threshold=0.1, fit_range=(10, 30))
        ks = [k for k, _ in est.crossing_times]
        ts = [t for _, t in est.crossing_times]
        assert ks == list(range(10, 31))
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert len(est.step_velocities) == len(ks) - 1

    def test_bisects_every_k_together(self, monkeypatch):
        batches = []
        real = walk._cone_rows

        def counted(factor, ss):
            batches.append(len(ss))
            return real(factor, ss)

        monkeypatch.setattr(walk, "_cone_rows", counted)
        p = ChainParams(60, 0.5)
        est = front_velocity(p, threshold=0.1, fit_range=(10, 30))
        assert len(batches) <= 25
        monkeypatch.undo()
        for k, s in est.crossing_times:
            assert s == pytest.approx(crossing_time(p, k, 0.1), abs=2e-8)

    def test_bad_fit_range_rejected(self):
        with pytest.raises(ValidationError):
            front_velocity(ChainParams(50, 1.0), fit_range=(40, 20))

    def test_open_fit_range_ends_take_the_default(self):
        p = ChainParams(60, 1.0)
        lo, hi = default_fit_range(p)
        assert front_velocity(p, fit_range=(None, 24)).fit_range == (lo, 24)
        assert front_velocity(p, fit_range=(12, None)).fit_range == (12, hi)
        assert front_velocity(p, fit_range=(None, None)).fit_range == (lo, hi)

    def test_one_factorization_per_front(self):
        walk._eig_factor.cache_clear()
        front_velocity(ChainParams(120, 0.5), fit_range=(10, 84))
        info = walk._eig_factor.cache_info()
        assert info.misses == 1 and info.hits > 0

    def test_estimate_invariants_enforced(self):
        with pytest.raises(ValidationError):
            FrontEstimate(0.1, ((1, 0.5), (2, 0.4)), 1.0, (1, 2))
        with pytest.raises(ValidationError):
            FrontEstimate(0.1, ((1, 0.4), (2, 0.5)), -1.0, (1, 2))


def _bisected_crossings(p, ks, threshold):
    """Plain bisection: the first coarse bracket at step 0.02, halved to 1e-8."""
    grid = np.arange(0.0, reflection_safe_horizon(p, max(ks)), 0.02)
    values = walk.lr_walk_grid(p, ks, grid)
    first = np.argmax((values[:, :-1] < threshold) & (values[:, 1:] >= threshold), axis=1)
    lo, hi = grid[first], grid[first + 1]
    while np.any(hi - lo > 1e-8):
        mid = 0.5 * (lo + hi)
        below = np.diagonal(walk.lr_walk_grid(p, ks, mid)) < threshold
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


class TestCrossingSolve:
    @staticmethod
    def _steps(monkeypatch):
        """Per-k step counts of the crossing solve, filled as it runs; the
        coarse sweep goes through `lr_walk_blocks`, so every grid is a step."""
        real, steps = walk.lr_walk_grid, {}

        def counted(p, ks, ss):
            for k in ks.tolist():
                steps[k] = steps.get(k, 0) + 1
            return real(p, ks, ss)

        monkeypatch.setattr(walk, "lr_walk_grid", counted)
        return steps

    @staticmethod
    def _sweeps(monkeypatch):
        """(grid, times built) of every `lr_walk_blocks` run, filled as it runs."""
        real, sweeps = walk.lr_walk_blocks, []

        def recorded(p, ks, ss):
            sweeps.append([np.asarray(ss), 0])
            for stop, out in real(p, ks, ss):
                sweeps[-1][1] = stop
                yield stop, out

        monkeypatch.setattr(walk, "lr_walk_blocks", recorded)
        return sweeps

    @pytest.mark.parametrize("threshold", [0.1, 1e-5])
    @pytest.mark.parametrize("nq, jp", [(120, 0.5), (120, 2.0), (200, 0.25), (200, 1.0),
                                        (200, 4.0)])
    def test_matches_plain_bisection(self, monkeypatch, nq, jp, threshold):
        p = ChainParams(nq, jp)
        steps = self._steps(monkeypatch)
        est = front_velocity(p, threshold)
        monkeypatch.undo()
        ks = [k for k, _ in est.crossing_times]
        times = np.array([s for _, s in est.crossing_times])
        assert np.max(np.abs(times - _bisected_crossings(p, ks, threshold))) <= 1e-8
        # ITP with n0 = 1 takes at most one step more than the 21 of bisection
        assert sorted(steps) == ks and max(steps.values()) <= 22

    @pytest.mark.parametrize("jp", [0.5, 2.0])
    def test_scan_fronts_solve_in_few_steps(self, monkeypatch, jp):
        steps = self._steps(monkeypatch)
        front_velocity(ChainParams(120, jp), fit_range=(10, 84))
        assert len(steps) == 75 and max(steps.values()) <= 14

    @pytest.mark.parametrize("nq, jp, fit_range, most", [
        (200, 0.25, None, 10), (120, 0.5, (10, 84), 7), (120, 2.0, (10, 84), 13)])
    def test_truncation_floor_keeps_every_point_moving(self, monkeypatch, nq, jp,
                                                       fit_range, most):
        # at N = 200, J' = 0.25, k = 139 comes within 2e-11 of its root while its
        # truncation falls under half an ulp of s = 84.76: unfloored, its point
        # rounded back onto the bracket end until the projection forced the midpoint
        p = ChainParams(nq, jp)
        steps = self._steps(monkeypatch)
        est = front_velocity(p, fit_range=fit_range)
        monkeypatch.undo()
        ks = [k for k, _ in est.crossing_times]
        times = np.array([s for _, s in est.crossing_times])
        assert max(steps.values()) <= most
        assert np.max(np.abs(times - _bisected_crossings(p, ks, 0.1))) <= 1e-8

    def test_sweep_stops_after_the_last_first_crossing(self, monkeypatch):
        p = ChainParams(120, 2.0)
        sweeps = self._sweeps(monkeypatch)
        est = front_velocity(p, fit_range=(10, 84))
        monkeypatch.undo()
        (grid, built), *_ = sweeps       # then one run per solve step
        assert grid[1] == 0.02 and built < len(grid)
        values = walk.lr_walk_grid(p, range(10, 85), grid)
        first = np.argmax((values[:, :-1] < 0.1) & (values[:, 1:] >= 0.1), axis=1)
        for (k, s), j in zip(est.crossing_times, first):
            assert grid[j] < s < grid[j + 1]

    def test_unreached_threshold_sweeps_to_the_end_then_refuses(self, monkeypatch):
        sweeps = self._sweeps(monkeypatch)
        with pytest.raises(ThresholdNotReachedError, match="C_30 never reaches"):
            crossing_time(ChainParams(60, 1.0), 30, 0.1, s_max=1.0)
        with pytest.raises(ThresholdNotReachedError):
            front_velocity(ChainParams(30, 0.5), 1.9999, fit_range=(3, 6))
        assert len(sweeps) == 2 and all(built == len(grid) for grid, built in sweeps)


class TestFrontVelocityAcrossCouplings:
    """Heavier sweeps of the full 200-qubit front extraction."""

    def test_kink_at_transition(self):
        # below J' = 1 the speed grows as 2 pi J'; above it pins at 2 pi
        below = {}
        for jp in (0.25, 0.5, 0.75):
            below[jp] = front_velocity(ChainParams(200, jp), threshold=0.1).velocity
        # v(J') passes through the origin, so fit the proportionality constant
        x = np.array(list(below))
        y = np.array(list(below.values()))
        slope = float(x @ y / (x @ x))
        assert slope == pytest.approx(2 * math.pi, rel=0.02)
        for jp in (1.5, 2.0, 4.0):
            v = front_velocity(ChainParams(200, jp), threshold=0.1).velocity
            assert v == pytest.approx(2 * math.pi, rel=0.02)

    def test_threshold_insensitivity(self):
        p = ChainParams(200, 0.5)
        csat = 2.0
        vs = [front_velocity(p, threshold=f * csat).velocity
              for f in (0.05, 0.1, 0.5)]
        assert max(vs) / min(vs) - 1.0 < 0.03


class TestSaturationMeasurement:
    def test_plateau_below_transition(self):
        p = ChainParams(120, 0.5)
        window = saturation_window(p, 8)
        assert measure_saturation(p, 8, window) == pytest.approx(2.0, rel=0.01)

    def test_plateau_above_transition(self):
        p = ChainParams(120, 2.0)
        window = saturation_window(p, 8)
        assert measure_saturation(p, 8, window) == pytest.approx(1.0, rel=0.01)

    def test_window_past_horizon_rejected(self):
        p = ChainParams(30, 1.0)
        with pytest.raises(HorizonError):
            measure_saturation(p, 5, (1.0, 100.0))

    def test_no_safe_window_rejected(self):
        # qubit too deep in a short chain: reflections arrive before the plateau
        with pytest.raises(HorizonError):
            saturation_window(ChainParams(12, 1.0), 11)

    @pytest.mark.parametrize("samples", [0, -3, 2.5, True])
    def test_sample_count_validated(self, samples):
        with pytest.raises(ValidationError):
            measure_saturation(ChainParams(120, 0.5), 8, (20.0, 30.0), samples=samples)

    @pytest.mark.parametrize("width", [-5.0, 0.0, math.nan])
    def test_window_width_validated(self, width):
        with pytest.raises(ValidationError):
            saturation_window(ChainParams(120, 0.5), 10, width=width)


class TestLightcone:
    @pytest.mark.parametrize("resolution", [-1, 0, 3.0])
    def test_resolution_validated(self, resolution):
        with pytest.raises(ValidationError):
            lightcone(ChainParams(30, 1.0), (1, 10), (0.0, 2.0), resolution=resolution)

    def test_open_qubit_ends_are_the_chain_ends(self):
        p = ChainParams(8, 0.5)
        assert lightcone(p, (None, None), (0.0, 1.0), resolution=2).k_values == tuple(range(1, 9))
        assert lightcone(p, (3, None), (0.0, 1.0), resolution=2).k_values == tuple(range(3, 9))
        with pytest.raises(ValidationError):
            lightcone(p, (1, 0), (0.0, 1.0), resolution=2)

    def test_time_zero_column_is_minus_inf(self):
        p = ChainParams(30, 1.0)
        grid = lightcone(p, (1, 10), (0.0, 2.0), resolution=5)
        assert np.all(np.isneginf(grid.log10_c[:, 0]))
        assert np.all(grid.trust_mask[:, 0])

    def test_inside_cone_near_saturation(self):
        p = ChainParams(60, 0.5)
        grid = lightcone(p, (1, 5), (0.0, 12.0), resolution=25)
        inside = grid.log10_c[0, -5:]       # k = 1, late times
        assert np.max(inside) > math.log10(1.8)

    def test_untrusted_cells_masked(self):
        p = ChainParams(60, 0.5)
        grid = lightcone(p, (1, 55), (0.0, 1.0), resolution=9)
        # deep-tail cells (far k, early s) are below the double floor
        assert not grid.trust_mask[-1, 1]
        assert grid.trust_mask[0, -1]

    def test_highprec_mode_extends_trust(self):
        p = ChainParams(10, 0.5)
        grid = lightcone(p, (1, 9), (0.0, 0.4), resolution=3, digits=40)
        assert np.all(grid.trust_mask)
        # deep tail actually resolved: k = 9 at s = 0.2 sits near 1e-15
        assert grid.log10_c[-1, 1] < -10.0

    def test_matches_walk_values(self):
        p = ChainParams(40, 1.0)
        grid = lightcone(p, (3, 6), (0.5, 2.0), resolution=4)
        for i, k in enumerate(grid.k_values):
            for j, s in enumerate(grid.s_values):
                expect = lr_walk(p, k, float(s))
                if expect > 1e-12:
                    assert grid.log10_c[i, j] == pytest.approx(math.log10(expect), abs=1e-9)

    def test_main_isocontour_slope_is_inverse_front_velocity(self):
        # follow the log10 C = -1 contour down the chain: d s / d k -> 1/v_front
        p = ChainParams(120, 2.0)
        grid = lightcone(p, (20, 60), (0.0, 14.0), resolution=561)
        ss = np.asarray(grid.s_values)
        crossings = []
        for i, k in enumerate(grid.k_values):
            row = grid.log10_c[i]
            idx = np.nonzero(row >= -1.0)[0]
            assert len(idx) > 0
            j = idx[0]
            # linear interpolation inside the bracketing cell
            f = (-1.0 - row[j - 1]) / (row[j] - row[j - 1])
            crossings.append(ss[j - 1] + f * (ss[j] - ss[j - 1]))
        slope = np.polyfit(grid.k_values, crossings, 1)[0]
        assert 1.0 / slope == pytest.approx(2 * math.pi, rel=0.06)
