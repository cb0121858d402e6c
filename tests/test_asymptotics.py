import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from isinglr import (
    GuardError,
    LogValue,
    ValidationError,
    dispersion,
    lr_leading_exact,
    lr_leading_exponential,
    lr_leading_largek,
    saturation_value,
    v_group,
    v_group_max,
    v_group_max_numeric,
    v_lieb_robinson,
)
from isinglr import params
from isinglr.asymptotics import LOG10_E, lr_leading_grid
from isinglr.params import validate_positive


class TestLogValue:
    def test_zero_pairing_enforced(self):
        with pytest.raises(ValidationError):
            LogValue(-math.inf, 1)
        with pytest.raises(ValidationError):
            LogValue(3.0, 0)

    def test_zero_roundtrip(self):
        z = LogValue.zero()
        assert z.sign == 0 and z.to_float() == 0.0
        assert LogValue.from_float(0.0) == z

    @given(st.floats(min_value=-1e200, max_value=1e200,
                     allow_nan=False).filter(lambda x: x != 0.0))
    def test_float_roundtrip(self, x):
        assert LogValue.from_float(x).to_float() == pytest.approx(x, rel=1e-12)

    def test_deep_magnitudes_representable(self):
        v = LogValue(-1042.7)
        assert v.to_float() == 0.0          # underflows as a double, by design
        assert v.log10_magnitude == -1042.7


class TestLeadingExact:
    def test_k1_is_4_pi_s_independent_of_coupling(self):
        for jp in (0.0, 0.3, 2.0):
            v = lr_leading_exact(1, 0.01, jp)
            assert v.to_float() == pytest.approx(4 * math.pi * 0.01, rel=1e-13)

    def test_k2_coefficient(self):
        # 2^4 pi^3 / 3! * (1/2) = (4/3) pi^3
        s = 0.02
        v = lr_leading_exact(2, s, 0.5)
        assert v.to_float() == pytest.approx((4.0 / 3.0) * math.pi ** 3 * s ** 3, rel=1e-13)

    def test_zero_time_and_decoupled(self):
        assert lr_leading_exact(3, 0.0, 1.0).sign == 0
        assert lr_leading_exact(2, 0.5, 0.0).sign == 0
        assert lr_leading_exact(1, 0.5, 0.0).to_float() == pytest.approx(
            4 * math.pi * 0.5, rel=1e-13)

    @given(st.integers(min_value=1, max_value=200),
           st.floats(min_value=1e-3, max_value=10.0),
           st.floats(min_value=0.01, max_value=5.0))
    @settings(max_examples=60)
    def test_loglog_slope_is_exactly_2k_minus_1(self, k, s, jp):
        h = 1e-6
        up = lr_leading_exact(k, s * (1 + h), jp).log10_magnitude
        dn = lr_leading_exact(k, s * (1 - h), jp).log10_magnitude
        slope = (up - dn) / (math.log10(1 + h) - math.log10(1 - h))
        assert slope == pytest.approx(2 * k - 1, abs=1e-9 * (2 * k - 1) + 1e-6)


class TestLeadingLargeK:
    def test_stirling_convergence(self):
        # log-domain gap to the exact form shrinks as k grows
        jp = 2.0
        gaps = []
        for k in (5, 50, 500):
            s = k / v_lieb_robinson(jp)     # stay on the ballistic ray
            gap = abs(lr_leading_largek(k, s, jp).log10_magnitude
                      - lr_leading_exact(k, s, jp).log10_magnitude)
            gaps.append(gap)
        assert gaps[1] < gaps[0] / 5 and gaps[2] < gaps[1] / 5
        assert gaps[2] < 1e-2

    def test_same_monomial_power(self):
        k, jp = 7, 2.0
        up = lr_leading_largek(k, 2.0, jp).log10_magnitude
        dn = lr_leading_largek(k, 1.0, jp).log10_magnitude
        assert (up - dn) / math.log10(2.0) == pytest.approx(2 * k - 1, abs=1e-9)

    def test_needs_k_at_least_two(self):
        with pytest.raises(ValidationError):
            lr_leading_largek(1, 1.0, 1.0)


class TestLeadingExponential:
    def test_value_on_the_ray(self):
        # at k = v_lr t the form reduces to e / sqrt(pi J' k)
        jp = 2.0
        k = 10_000
        s = k / v_lieb_robinson(jp)
        v = lr_leading_exponential(k, s, jp)
        assert v.to_float() == pytest.approx(math.e / math.sqrt(math.pi * jp * k), rel=1e-9)

    def test_appendix_chain_limit(self):
        # (2k-1) log(v t / k) -> -2 (k - v t) as k grows at fixed offset
        jp, dk = 2.0, 25.0
        for k in (1e4, 1e6, 1e8):
            vt = k - dk
            lhs = (2 * k - 1) * math.log(vt / k)
            rhs = -2.0 * (k - vt)
            assert lhs == pytest.approx(rhs, abs=60.0 * dk * dk / k + 1e-9)

    def test_tracks_power_law_at_ballistic_edge(self):
        # the far-front regime: k within a few dozen sites of v_lr t, k ~ 1e4;
        # there the exponential form and the exact power law agree to a
        # small fraction of a decade while C itself spans ~1e-2 .. 1e-120
        jp = 2.0
        v = v_lieb_robinson(jp)
        worst = 0.0
        for s in range(928, 941, 2):
            kt = v * s
            for k in range(int(kt) - 30, int(kt) + 31):
                if not (11200 <= k <= 11350):
                    continue
                gap = abs(lr_leading_exponential(k, s, jp).log10_magnitude
                          - lr_leading_exact(k, s, jp).log10_magnitude)
                worst = max(worst, gap)
        assert 0.0 < worst <= 0.05

    def test_bounds_the_deeper_tail_from_above(self):
        # past the ballistic edge the exponential is an upper envelope
        jp = 2.0
        v = v_lieb_robinson(jp)
        for s in (928.0, 936.0):
            for dk in (50, 200, 800):
                k = int(v * s) + dk
                assert (lr_leading_exponential(k, s, jp).log10_magnitude
                        >= lr_leading_exact(k, s, jp).log10_magnitude)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_leading_edge_forms_and_lr_velocity_reject(self, bad):
        for form in (lr_leading_exact, lr_leading_largek, lr_leading_exponential):
            with pytest.raises(ValidationError):
                form(5, bad, 2.0)
            with pytest.raises(ValidationError):
                form(5, 1.0, bad)
        with pytest.raises(ValidationError):
            v_lieb_robinson(bad)


class TestVelocities:
    def test_lr_velocity_values(self):
        assert v_lieb_robinson(1.0) == pytest.approx(math.e * math.pi, rel=1e-15)
        assert v_lieb_robinson(0.0) == 0.0
        assert v_lieb_robinson(4.0) == pytest.approx(2 * math.e * math.pi, rel=1e-15)

    @given(st.floats(min_value=1e-3, max_value=20.0))
    @settings(max_examples=80)
    def test_lr_velocity_exceeds_front_velocity(self, jp):
        assert v_lieb_robinson(jp) > v_group_max(jp)


class TestDispersion:
    def test_gap_at_zone_center(self):
        for jp in (0.5, 1.3, 4.0):
            assert dispersion(0.0, jp) == pytest.approx(2 * abs(1 - jp), rel=1e-13)

    def test_gapless_at_critical_coupling(self):
        assert dispersion(0.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_zone_edge(self):
        for jp in (0.5, 2.0):
            assert dispersion(math.pi, jp) == pytest.approx(2 * (1 + jp), rel=1e-13)

    def test_decoupled_rejected(self):
        with pytest.raises(ValidationError):
            dispersion(0.5, 0.0)


class TestGroupVelocity:
    def test_zeros_at_zone_center_and_edge(self):
        for jp in (0.5, 1.0, 2.0):
            assert v_group(0.0, jp) == 0.0
            # float pi is not exactly pi; sin leaves ~1e-16 residue
            assert v_group(math.pi, jp) == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=0.05, max_value=5.0))
    @settings(max_examples=80)
    def test_antisymmetric_in_q(self, q, jp):
        assert v_group(-q, jp) == pytest.approx(-v_group(q, jp), abs=1e-12)

    def test_max_piecewise_values(self):
        assert v_group_max(0.5) == pytest.approx(math.pi, rel=1e-15)
        assert v_group_max(1.0) == pytest.approx(2 * math.pi, rel=1e-15)
        assert v_group_max(2.0) == pytest.approx(2 * math.pi, rel=1e-15)

    def test_max_continuous_at_transition(self):
        eps = 1e-9
        assert v_group_max(1.0 - eps) == pytest.approx(v_group_max(1.0 + eps), rel=1e-8)

    @pytest.mark.parametrize("jp", [0.3, 1.0, 3.0])
    def test_numeric_max_matches_closed_form(self, jp):
        value, _ = v_group_max_numeric(jp)
        assert value == pytest.approx(v_group_max(jp), abs=1e-9)

    @pytest.mark.parametrize("jp", [0.1, 0.4, 0.85, 1.0])
    def test_maximizer_location_below_transition(self, jp):
        # cos(q0) = 1/g = J' whenever g = 1/J' >= 1
        _, q0 = v_group_max_numeric(jp)
        assert math.cos(q0) == pytest.approx(jp, abs=1e-8)

    @pytest.mark.parametrize("jp", [1.5, 3.0])
    def test_maximizer_location_above_transition(self, jp):
        _, q0 = v_group_max_numeric(jp)
        assert math.cos(q0) == pytest.approx(1.0 / jp, abs=1e-8)


class TestSaturation:
    def test_values(self):
        assert saturation_value(0.5) == 2.0
        assert saturation_value(2.0) == 1.0
        assert saturation_value(1.0) == 2.0

    def test_continuous_at_transition(self):
        eps = 1e-12
        assert saturation_value(1.0 - eps) == pytest.approx(saturation_value(1.0 + eps),
                                                            rel=1e-9)

    @given(st.floats(min_value=0.0, max_value=50.0))
    def test_range(self, jp):
        assert 0.0 < saturation_value(jp) <= 2.0


def reference_cell(form, k, s, jp):
    """log10 of one leading-edge cell by its scalar formula, checks included (-inf: zero)."""
    if k < (2 if form == "largek" else 1):
        raise ValidationError("the large-k form needs k >= 2" if form == "largek"
                              else "qubit index must be >= 1")
    validate_positive("time", s, allow_zero=True)
    validate_positive("coupling", jp, allow_zero=form == "exact")
    vt = math.e * math.pi * math.sqrt(jp) * s
    if form == "exact":
        if s == 0.0 or (jp == 0.0 and k >= 2):
            return -math.inf
        return (2 * k * math.log10(2.0)
                + (2 * k - 1) * math.log10(math.pi)
                - math.lgamma(2 * k) * LOG10_E
                + (k - 1) * (math.log10(jp) if k > 1 else 0.0)
                + (2 * k - 1) * math.log10(s))
    if form == "largek":
        if s == 0.0:
            return -math.inf
        # v_lr s below the normal doubles: log10 v_lr + log10 s
        log_vt = (math.log10(vt) if vt >= sys.float_info.min
                  else math.log10(math.e * math.pi * math.sqrt(jp)) + math.log10(s))
        return (-0.5 * math.log10(math.pi * jp)
                - 0.5 * math.log10(k)
                + (2 * k - 1) * (log_vt - math.log10(k - 0.5)))
    return LOG10_E - 0.5 * math.log10(math.pi * jp * k) - 2.0 * (k - vt) * LOG10_E


def reference_grid(form, ks, ss, jp):
    """The cells one by one, k-major; the first refusal met is raised."""
    return np.array([[reference_cell(form, k, s, jp) for s in ss] for k in ks])


FORMS = {"exact": lr_leading_exact, "largek": lr_leading_largek,
         "exponential": lr_leading_exponential}


class TestLeadingGrid:
    """The grid, its one-cell forms and the scalar formulas agree bit for bit."""

    @given(form=st.sampled_from(sorted(FORMS)),
           ks=st.lists(st.one_of(st.integers(-1, 3), st.integers(1, 20_000)),
                       min_size=1, max_size=5),
           ss=st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1e4, allow_nan=False)),
                       min_size=1, max_size=5),
           jp=st.one_of(st.just(0.0), st.just(1.0), st.floats(-0.5, 8.0, allow_nan=False)))
    @example(form="exact", ks=[1, 2, 3], ss=[0.0, 0.5], jp=0.0)
    @example(form="exact", ks=[1, 40], ss=[0.0, 2.0], jp=0.5)
    @example(form="largek", ks=[2, 3], ss=[0.0, 1.0], jp=2.0)
    @example(form="largek", ks=[1], ss=[1.0], jp=2.0)
    @example(form="largek", ks=[2, 3], ss=[0.0, 1e-300, 1e-160, 1.0], jp=1e-300)
    @example(form="exponential", ks=[1, 11300], ss=[0.0, 930.0], jp=2.0)
    @settings(max_examples=300, deadline=None)
    def test_grid_is_the_one_cell_forms(self, form, ks, ss, jp):
        try:
            want = reference_grid(form, ks, ss, jp)
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
                lr_leading_grid(form, ks, ss, jp)
            return
        grid = lr_leading_grid(form, ks, ss, jp)
        assert grid.shape == (len(ks), len(ss)) and np.array_equal(grid, want)
        if form == "largek":    # an underflowed v_lr s still gives a finite cell
            assert np.all(np.isfinite(grid[:, np.array(ss) != 0.0]))
        for i, k in enumerate(ks):
            for j, s in enumerate(ss):
                cell = FORMS[form](k, s, jp)
                assert cell.log10_magnitude == grid[i, j]
                assert cell.sign == (0 if grid[i, j] == -math.inf else 1)

    def test_edge_table_shape_and_budget(self, monkeypatch):
        assert lr_leading_grid("exact", [], [1.0], 2.0).shape == (0, 1)
        assert lr_leading_grid("largek", [2, 3], [], 2.0).shape == (2, 0)
        with pytest.raises(ValidationError, match="unknown leading-edge form"):
            lr_leading_grid("stirling", [2], [1.0], 2.0)
        monkeypatch.setattr(params, "MAX_GRID_ENTRIES", 6)
        assert lr_leading_grid("exact", [1, 2, 3], [1.0, 2.0], 2.0).shape == (3, 2)
        with pytest.raises(GuardError):     # refused before the bad index is read
            lr_leading_grid("exact", [0, 2, 3, 4], [1.0, 2.0], 2.0)
