import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from isinglr import (
    ChainParams,
    GuardError,
    Method,
    RouteGrid,
    ValidationError,
    front_velocity,
    lightcone,
    lr_critical_grid,
    lr_direct_grid,
    lr_walk_grid,
    lr_walk_grid_highprec,
    params,
    validate_params,
)
from isinglr.asymptotics import (lr_leading_exact, lr_leading_exponential, lr_leading_grid,
                                 lr_leading_largek)
from isinglr.params import validate_correlations
from isinglr.params import (
    DOUBLE_TRUST_FLOOR,
    MAX_COUPLING,
    cast_trusted,
    critical_trusted,
    double_trusted,
    validate_increasing,
    validate_qubit_index,
    validate_times,
)

LEADING_CELLS = {"exact": lr_leading_exact, "largek": lr_leading_largek,
                 "exponential": lr_leading_exponential}


class TestChainParams:
    def test_in_range_accepted(self):
        p = ChainParams(4, 0.5)
        assert validate_params(p) is p
        assert p.n_nodes == 8

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValidationError):
            ChainParams(0, 1.0)

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValidationError):
            ChainParams(10, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_coupling_rejected(self, bad):
        with pytest.raises(ValidationError):
            ChainParams(3, bad)

    def test_coupling_bound(self):
        assert ChainParams(3, MAX_COUPLING).j_coupling == 1e150
        with pytest.raises(ValidationError, match=r"j_coupling must be <= 1e\+150"):
            ChainParams(3, 2e150)

    def test_decoupled_chain_allowed(self):
        assert ChainParams(5, 0.0).j_coupling == 0.0

    def test_non_integer_qubits_rejected(self):
        with pytest.raises(ValidationError):
            ChainParams(2.5, 1.0)

    @given(st.integers(min_value=1, max_value=500),
           st.floats(min_value=0, max_value=100, allow_nan=False))
    def test_valid_inputs_roundtrip(self, nq, jp):
        p = ChainParams(nq, jp)
        assert p.n_qubits == nq
        assert p.j_coupling == jp


class TestQubitIndex:
    @pytest.mark.parametrize("k", [3, np.int64(3), np.uint8(3)])
    def test_python_and_numpy_integers_accepted(self, k):
        out = validate_qubit_index(ChainParams(4, 0.5), k)
        assert out == 3 and type(out) is int
        assert lr_critical_grid([k], [1.0])[0, 0] == lr_critical_grid([3], [1.0])[0, 0]
        for form, cell in LEADING_CELLS.items():
            assert lr_leading_grid(form, [k], [1.0], 2.0)[0, 0] == cell(3, 1.0, 2.0).log10_magnitude
            assert cell(k, 1.0, 2.0) == cell(3, 1.0, 2.0)

    @pytest.mark.parametrize("k", [2.7, 3.0, np.float64(2.0), True, 0, 5])
    def test_floats_bools_and_out_of_range_rejected_at_every_grid_entry(self, k):
        p = ChainParams(4, 0.5)
        with pytest.raises(ValidationError):
            lr_walk_grid(p, [1, k], [1.0])
        with pytest.raises(ValidationError):
            lr_walk_grid_highprec(p, [1, k], [1.0], 20)
        with pytest.raises(ValidationError):
            lr_direct_grid(p, [1, k], [1.0])
        with pytest.raises(ValidationError):
            lightcone(p, (1, k), (0.0, 1.0), resolution=3)
        with pytest.raises(ValidationError):
            front_velocity(p, fit_range=(1, k))
        if k != 5:   # the closed form and the leading-edge forms are for the semi-infinite chain
            with pytest.raises(ValidationError):
                lr_critical_grid([1, k], [1.0])
            for form, cell in LEADING_CELLS.items():
                with pytest.raises(ValidationError, match="^qubit index must be an integer in "):
                    lr_leading_grid(form, [2, k], [1.0], 2.0)
                with pytest.raises(ValidationError, match="^qubit index must be an integer in "):
                    cell(k, 1.0, 2.0)

    @pytest.mark.parametrize("route, what", [
        ("walk", "a walk grid"), ("digits", "an arbitrary-precision grid"),
        ("direct", "a dense grid"), ("critical", "a closed-form grid"),
        ("edge", "a leading-edge grid")])
    def test_grid_counted_before_any_index_is_read(self, route, what, monkeypatch):
        # 0 is no qubit index, but 40 qubits x 26 times is above a budget of 1000:
        # the count comes first, so the refusal is the budget's, in its one shape
        monkeypatch.setattr(params, "MAX_GRID_ENTRIES", 1000)
        p, ks, ss = ChainParams(4, 0.5), list(range(40)), np.linspace(0.0, 1.0, 26)
        grid = {"walk": lambda: lr_walk_grid(p, ks, ss),
                "digits": lambda: lr_walk_grid_highprec(p, ks, ss, 20),
                "direct": lambda: lr_direct_grid(p, ks, ss),
                "critical": lambda: lr_critical_grid(ks, ss),
                "edge": lambda: lr_leading_grid("exact", ks, ss, 2.0)}[route]
        with pytest.raises(GuardError, match=f"^{what} of 40 qubits x 26 times is 1040 cells, "
                                             "above the grid budget 1000$"):
            grid()


class TestTimeGrid:
    """The time-grid rules: `validate_times`, `validate_increasing` and the light
    cone's linspace count."""

    def test_strictly_increasing_required(self):
        with pytest.raises(ValidationError):
            validate_increasing(validate_times((0.0, 1.0, 1.0)))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            validate_times((-0.1, 1.0))

    def test_one_increasing_rule(self):
        assert validate_increasing([0.0]).tolist() == [0.0]
        assert validate_increasing([0.0, 5e-324, 1.0]).tolist() == [0.0, 5e-324, 1.0]
        for ss in ([0.0, 0.0], [1.0, 0.5], [-0.0, 0.0]):
            with pytest.raises(ValidationError, match="time grid must be strictly increasing"):
                validate_increasing(ss)

    def test_linspace(self):
        g = lightcone(ChainParams(4, 0.5), (1, 2), (0.0, 3.0), resolution=4)
        assert g.ss.tolist() == [0.0, 1.0, 2.0, 3.0]

    @pytest.mark.parametrize("n", [True, 2.5, 0, -3, "4"])
    def test_linspace_count_must_be_an_integer(self, n):
        with pytest.raises(ValidationError):
            lightcone(ChainParams(4, 0.5), (1, 2), (0.0, 3.0), resolution=n)

    def test_linspace_numpy_count(self):
        p = ChainParams(4, 0.5)
        assert lightcone(p, (1, 2), (0.0, 3.0), resolution=np.int64(4)).ss.tolist() == [
            0.0, 1.0, 2.0, 3.0]
        assert lightcone(p, (1, 2), (0.5, 3.0), resolution=1).ss.tolist() == [0.5]


class TestRouteGridChecks:
    """A `RouteGrid` of exact values is checked against the [0, 2] bound and
    C(0) = 0 on construction; a log10 grid is not."""

    def grid(self, route, ss, values, log10=False):
        values = np.array([values], dtype=float)
        return RouteGrid(route, (1,), np.array(ss), values, np.ones_like(values, dtype=bool),
                         log10)

    def test_bound_enforced_for_exact_methods(self):
        with pytest.raises(ValidationError):
            self.grid(Method.WALK, [0.0, 1.0], [0.0, 2.5])

    def test_zero_at_time_zero_enforced(self):
        with pytest.raises(ValidationError):
            self.grid(Method.DIRECT, [0.0], [0.3])

    def test_log10_values_not_bounded(self):
        # log10 cells can exceed 2; only the shape is checked
        assert self.grid(Method.WALK, [1.0], [7.0], log10=True).values.tolist() == [[7.0]]

    def test_good_grid(self):
        assert self.grid(Method.WALK, [0.0, 0.5], [0.0, 1.2]).route is Method.WALK


class TestValidateCorrelations:
    SS = np.array([0.0, 0.5, 1.0])

    def test_good_grid_returned_as_array(self):
        grid = [[0.0, 1.2, 2.0 + 1e-12], [0.0, -1e-12, 0.3]]
        out = validate_correlations(grid, self.SS)
        assert isinstance(out, np.ndarray) and out.tolist() == grid

    @pytest.mark.parametrize("cell, value, message", [
        ((1, 2), 2.5, r"C\(1.0\) = 2.5 outside the \[0, 2\] bound"),
        ((0, 1), math.nan, r"C\(0.5\) = nan outside the \[0, 2\] bound"),
        ((1, 0), -1e-300, r"C\(0\) must vanish, got -1e-300"),
    ])
    def test_bad_cell_named(self, cell, value, message):
        grid = np.zeros((2, 3))
        grid[cell] = value
        with pytest.raises(ValidationError, match=message):
            validate_correlations(grid, self.SS)

    def test_first_bad_cell_in_row_order_names_the_error(self):
        grid = np.array([[0.0, 3.0, 0.0], [0.5, 0.0, 0.0]])
        with pytest.raises(ValidationError, match=r"C\(0.5\) = 3.0"):
            validate_correlations(grid, self.SS)
        with pytest.raises(ValidationError, match="C\\(0\\) must vanish"):
            validate_correlations(grid[::-1], self.SS)


TINY = np.finfo(float).tiny


class TestTrustRules:
    def test_double_floor(self):
        below = np.nextafter(DOUBLE_TRUST_FLOOR, 0.0)
        assert DOUBLE_TRUST_FLOOR == 1e-13
        assert double_trusted([[DOUBLE_TRUST_FLOOR, below, 0.0]], [1.0, 1.0, 1.0]).tolist() \
            == [[True, False, False]]
        assert double_trusted([[0.0, below]], [0.0, 0.0]).tolist() == [[True, True]]

    def test_cast_keeps_normal_doubles_and_exact_zeros(self):
        import mpmath as mp
        exact = np.array([[mp.mpf(TINY), mp.mpf(TINY) / 2, mp.mpf(0), mp.mpf("1e-400")]],
                         dtype=object)
        values = exact.astype(float)
        assert values.tolist() == [[TINY, TINY / 2, 0.0, 0.0]]
        assert cast_trusted(exact, values).tolist() == [[True, False, True, False]]

    def test_critical_tail_sum_stays_normal(self):
        # C pi s is sqrt(tiny) = 2^-511 where the tail sum (C pi s)^2 reaches tiny
        edge = math.sqrt(TINY)
        assert edge == 2.0 ** -511 and edge * edge == TINY
        ss = [1.0, 1.0, 0.0, 2.0]
        values = [[edge / math.pi * (1 + 1e-12), edge / math.pi * (1 - 1e-12), 0.0, 0.0]]
        assert critical_trusted(values, ss).tolist() == [[True, False, True, False]]
        assert (values[0][1] * math.pi * ss[1]) ** 2 < TINY
