import math
import timeit
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from isinglr import (
    ChainParams,
    GuardError,
    ValidationError,
    build_adjacency,
    exp_first_row,
    exp_first_row_highprec,
    lr_critical_grid,
    lr_direct,
    lr_direct_grid,
    lr_walk,
    lr_walk_grid,
    lr_walk_grid_highprec,
    lr_walk_highprec,
    relevant_strings,
    walk_coefficients,
)
from isinglr import cli, params, walk
from isinglr.params import cast_trusted
from isinglr.walk import _cone_rows, _grid_factor, _light_cone_qubits


class TestRelevantStrings:
    def test_single_qubit_pair(self):
        rs = relevant_strings(ChainParams(1, 1.0))
        assert [str(s) for s in rs] == ["Z", "Y"]

    def test_four_qubit_listing(self):
        rs = relevant_strings(ChainParams(4, 0.5))
        assert [str(s) for s in rs] == [
            "ZIII", "YIII",
            "XZII", "XYII",
            "XXZI", "XXYI",
            "XXXZ", "XXXY",
        ]

    def test_three_qubit_entry_five(self):
        rs = relevant_strings(ChainParams(3, 1.0))
        assert str(rs[4]) == "XXZ"

    def test_count_and_distinctness(self):
        rs = relevant_strings(ChainParams(7, 2.0))
        assert isinstance(rs, tuple) and len(rs) == 14
        assert len({str(s) for s in rs}) == 14

    def test_strings_past_the_budget_refused(self, monkeypatch):
        # 2N strings of N codes: 50 at N = 5, 72 at N = 6
        monkeypatch.setattr(params, "MAX_GRID_ENTRIES", 50)
        assert len(relevant_strings(ChainParams(5, 0.5))) == 10
        with pytest.raises(GuardError, match="^12 Pauli strings of 6 sites, above the grid "
                                             "budget 50$"):
            relevant_strings(ChainParams(6, 0.5))


class TestAdjacency:
    def test_four_qubit_matrix(self):
        jp = 0.5
        a = build_adjacency(ChainParams(4, jp))
        expect = np.array([
            [0, 1, 0, 0, 0, 0, 0, 0],
            [-1, 0, jp, 0, 0, 0, 0, 0],
            [0, -jp, 0, 1, 0, 0, 0, 0],
            [0, 0, -1, 0, jp, 0, 0, 0],
            [0, 0, 0, -jp, 0, 1, 0, 0],
            [0, 0, 0, 0, -1, 0, jp, 0],
            [0, 0, 0, 0, 0, -jp, 0, 1],
            [0, 0, 0, 0, 0, 0, -1, 0],
        ])
        assert np.array_equal(a, expect)
        assert not a.flags.writeable

    def test_two_qubit_superdiagonal(self):
        a = build_adjacency(ChainParams(2, 0.7))
        assert np.array_equal(np.diag(a, 1), [1.0, 0.7, 1.0])

    def test_matrix_past_the_budget_refused(self, monkeypatch):
        # a dense (2N)^2 matrix: 100 entries at N = 5, 144 at N = 6
        monkeypatch.setattr(params, "MAX_GRID_ENTRIES", 100)
        assert build_adjacency(ChainParams(5, 0.5)).shape == (10, 10)
        with pytest.raises(GuardError, match="^a 12 x 12 walk matrix, above the grid budget 100$"):
            build_adjacency(ChainParams(6, 0.5))

    @given(st.integers(min_value=1, max_value=40),
           st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_skew_symmetry(self, nq, jp):
        a = build_adjacency(ChainParams(nq, jp))
        assert np.array_equal(a, -a.T)


class TestWalkCoefficients:
    def test_length_one(self):
        c = walk_coefficients(ChainParams(4, 0.7), 1)
        expect = np.zeros(8, dtype=complex)
        expect[1] = 2j
        assert np.allclose(c, expect, atol=0)

    @pytest.mark.parametrize("jp", [0.5, 1.0, 2.0])
    def test_ledger_lengths_two_to_four(self, jp):
        p = ChainParams(4, jp)
        c2 = walk_coefficients(p, 2)
        assert c2[0] == pytest.approx(4.0, abs=1e-12)
        assert c2[2] == pytest.approx(-4.0 * jp, abs=1e-12)
        c3 = walk_coefficients(p, 3)
        assert c3[1] == pytest.approx(1j * (8 + 8 * jp ** 2), abs=1e-12)
        assert c3[3] == pytest.approx(-8j * jp, abs=1e-12)
        c4 = walk_coefficients(p, 4)
        assert c4[2] == pytest.approx(-16.0 * jp ** 3 - 32.0 * jp, abs=1e-12)

    def test_matches_dense_matrix_power(self):
        p = ChainParams(5, 1.5)
        a = build_adjacency(p) * 2j
        acc = np.eye(10, dtype=complex)
        for n in range(7):
            assert np.allclose(walk_coefficients(p, n), acc[0], atol=1e-9)
            acc = acc @ a

    @given(st.integers(min_value=0, max_value=12))
    @settings(max_examples=13, deadline=None)
    def test_parity_selection(self, n):
        # length-n walks land only on nodes whose offset shares n's parity
        c = walk_coefficients(ChainParams(6, 0.8), n)
        for m, val in enumerate(c):
            if (m - n) % 2 != 0:
                assert val == 0

    def test_negative_length_rejected(self):
        with pytest.raises(ValidationError):
            walk_coefficients(ChainParams(2, 1.0), -1)

    def test_vector_past_the_budget_refused(self, monkeypatch):
        # one 2N-node vector: 10 nodes at N = 5, 12 at N = 6
        monkeypatch.setattr(params, "MAX_GRID_ENTRIES", 10)
        assert walk_coefficients(ChainParams(5, 0.5), 3).shape == (10,)
        with pytest.raises(GuardError, match="^a walk vector of 12 nodes, above the grid "
                                             "budget 10$"):
            walk_coefficients(ChainParams(6, 0.5), 3)


class TestExpFirstRow:
    def test_time_zero(self):
        r = exp_first_row(ChainParams(3, 1.0), 0.0)
        assert np.array_equal(r, [1, 0, 0, 0, 0, 0])

    @pytest.mark.parametrize("nq, jp, s", [(3, 1.0, 0.7), (40, 2.0, 1.3), (200, 0.5, 12.0)])
    def test_time_zero_row_is_exact_beside_other_times(self, nq, jp, s):
        # the factor's round-off (about 2e-16) must not reach the s = 0 row
        p = ChainParams(nq, jp)
        ss = np.array([0.0, s, 0.0])
        rows = _cone_rows(_grid_factor(p, ss, 0), ss)
        unit = [1.0] + [0.0] * (rows.shape[1] - 1)
        assert rows[0].tolist() == unit and rows[2].tolist() == unit
        assert lr_walk_grid(p, range(1, nq + 1), [0.0, s])[:, 0].tolist() == [0.0] * nq

    def test_single_qubit_rotation(self):
        # 2x2 generator: row is (cos 2 pi s, -sin 2 pi s)
        p = ChainParams(1, 0.9)
        for s in (0.13, 0.5, 1.7):
            r = exp_first_row(p, s)
            assert r[0] == pytest.approx(math.cos(2 * math.pi * s), abs=1e-13)
            assert r[1] == pytest.approx(-math.sin(2 * math.pi * s), abs=1e-13)

    def test_unit_norm_large_chain(self):
        r = exp_first_row(ChainParams(200, 2.0), 10.0)
        assert abs(np.sum(r ** 2) - 1.0) < 1e-12

    def test_matches_scipy_expm(self):
        p = ChainParams(6, 1.3)
        a = build_adjacency(p)
        for s in (0.2, 1.1):
            direct = scipy.linalg.expm(-2 * math.pi * s * a)[0]
            assert np.allclose(exp_first_row(p, s), direct, atol=1e-12)

    def test_light_cone_rows_match_full_chain_expm(self):
        truncated = 0
        for nq, jp, ss in [(80, 0.5, [0.4, 2.7]), (150, 2.0, [5.0, 9.5]),
                           (64, 4.0, [1.0, 3.0]), (400, 0.5, [0.3, 3.0])]:
            p = ChainParams(nq, jp)
            ss = np.asarray(ss)
            a = build_adjacency(p)
            direct = np.array([scipy.linalg.expm(-2 * math.pi * s * a)[0] for s in ss])
            rows = np.array([exp_first_row(p, s) for s in ss])
            assert np.max(np.abs(rows - direct)) < 1e-12
            truncated += _light_cone_qubits(p, float(ss.max())) < nq
        assert truncated >= 2

    @pytest.mark.parametrize("nq, jp, s", [
        (200, 2.0, 40.0), (64, 5.0, 10.0), (240, 2.0, 39.0), (200, 0.5, 40.0),
        (300, 1.0, 30.0), (40, 0.0, 3.0), (40, 1e-300, 3.0),
        (64, 1 + 1 / 64, 10.0), (64, 1 + 1 / 64 + 1e-9, 10.0), (64, 1 + 1 / 64 - 1e-9, 10.0),
        (300, 1e-3, 20.0), (200, 2.0, 8.0),
    ])
    def test_matches_30_digit_row(self, nq, jp, s):
        # (40, 0) and (40, 1e-300) have fully degenerate spectra; the three
        # 1 + 1/64 shapes sit on and beside the coupling where the mode
        # nearest k = pi becomes the edge mode; the last two cut the light
        # cone short of N (at 128 and 160 qubits).
        p = ChainParams(nq, jp)
        row = exp_first_row(p, s)
        exact = np.array([float(x) for x in exp_first_row_highprec(p, s, 30)])
        assert np.max(np.abs(row - exact)) < 1e-13
        assert abs(np.linalg.norm(row) - 1.0) < 1e-14

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            exp_first_row(ChainParams(2, 1.0), -0.5)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_time_rejected_at_every_entry(self, s):
        p = ChainParams(4, 0.5)
        with pytest.raises(ValidationError):
            lr_direct(p, 1, s)
        with pytest.raises(ValidationError):
            lr_direct_grid(p, [1, 2], [0.0, s])
        with pytest.raises(ValidationError):
            lr_critical_grid([1, 2], [0.0, s])
        with pytest.raises(ValidationError):
            exp_first_row(p, s)
        with pytest.raises(ValidationError):
            lr_walk(p, 3, s)
        with pytest.raises(ValidationError):
            lr_walk_grid(p, [1, 2], [0.0, s])
        with pytest.raises(ValidationError):
            exp_first_row_highprec(p, s, 20)
        with pytest.raises(ValidationError):
            lr_walk_highprec(p, 2, s, 20)


def _svd_factor(p):
    """The factor as the SVD of the upper bidiagonal B^T: a test-only oracle."""
    bt = np.eye(p.n_qubits)
    bt[np.arange(p.n_qubits - 1), np.arange(1, p.n_qubits)] = p.j_coupling
    v, sigma, ut = np.linalg.svd(bt)
    weight = ut[:, :1] * np.resize([1.0, -1.0], p.n_qubits)
    return sigma, ut * weight, -v.T * weight


def _nearest_doubles(exact):
    """The double nearest each mpmath float of `exact`, subnormals included."""
    import mpmath as mp

    def nearest(x):
        if x >= np.finfo(float).tiny:
            return float(x)
        return float(mp.nint(mp.ldexp(x, 1074))) * 2.0 ** -1074   # an exact product
    return np.frompyfunc(nearest, 1, 1)(exact).astype(float)


def _expm_rows(p, ss):
    """Rows of exp(-2 pi s A'): the unit row times scipy's expm(-2 pi s A' / n),
    n times, with n a power of two that brings the norm below 1.  This is the
    row oracle of the exact modes.  The SVD of B^T is not one: its singular
    vectors blur where the sigma cluster (off by 1.2e-13 at q = 12, J' = 2.5e-14).
    Neither is expm at norms up to 8 pi (off by 1.3e-13 at q = 1, J' = 2).
    This form was within 2.9e-15 of 30-digit rows on 200 drawn shapes."""
    rows = []
    for s in ss:
        n = 2 ** max(0, math.frexp(2.0 * math.pi * s * (1.0 + p.j_coupling))[1])
        step = scipy.linalg.expm(build_adjacency(p) * (-2.0 * math.pi * s / n))
        row = np.eye(1, p.n_nodes)[0]
        for _ in range(n):
            row = row @ step
        rows.append(row)
    return np.array(rows)


@st.composite
def _chains(draw):
    """(q, J'): J' drawn on [0, 8] or pinned at the points where the modes
    degenerate, at the edge-mode threshold 1 + 1/q and beside it, and far past it."""
    q = draw(st.integers(min_value=1, max_value=96))
    edge = 1.0 + 1.0 / q
    pinned = [0.0, 1e-300, 1.0, edge, edge + 1e-9, edge - 1e-9, edge + 1e-6, edge - 1e-6, 50.0]
    return q, draw(st.one_of(st.floats(min_value=0.0, max_value=8.0), st.sampled_from(pinned)))


class TestExactModes:
    @given(_chains())
    @example((12, 2.5034090512641736e-14))
    @example((1, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_svd_of_the_bidiagonal_block(self, chain):
        q, jp = chain
        p = ChainParams(q, jp)
        # phases 2 pi s sigma up to 8 pi; all q modes enter, not just a light cone
        ss = np.array([0.05, 0.5, 4.0]) / (1.0 + jp)
        walk._eig_factor.cache_clear()
        rows = _cone_rows(walk._eig_factor(p), ss)
        assert np.max(np.abs(rows - _expm_rows(p, ss))) < 1e-13

        sigma = np.sort(walk._eig_factor(p)[0])
        expect = np.sort(_svd_factor(p)[0])
        edge = int(jp > 1.0 + 1.0 / q)   # the edge mode's sigma, the smallest, falls as J'^-q
        assert np.max(np.abs(sigma[edge:] / expect[edge:] - 1.0), initial=0.0) < 1e-14
        assert np.prod(sigma) == pytest.approx(1.0, rel=1e-12)   # |det B| = 1

    def test_no_dense_factorization(self, monkeypatch):
        def dense(*_args, **_kwargs):
            raise AssertionError("a dense factorization was called")

        for name in ("svd", "eigh", "eig", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, dense)
        walk._eig_factor.cache_clear()
        sigma, even, odd = walk._eig_factor(ChainParams(300, 1.5))
        assert sigma.shape == (300,) and even.shape == odd.shape == (300, 300)

    def test_factor_built_in_place(self):
        # the two q x q halves are written into one array, with no stacked copy
        # and no q x q temporary beside them
        walk._eig_factor.cache_clear()
        tracemalloc.start()
        try:
            sigma, even, odd = walk._eig_factor(ChainParams(1024, 1.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * (sigma.nbytes + even.nbytes + odd.nbytes)


def _direct_sine_factor(p):
    """`_eig_factor` with one sine per entry: each phase m (k + pi) reduced in
    exact integers and taken through np.sin directly, the reference of the tables."""
    q, jp = p.n_qubits, p.j_coupling
    psi, n = walk._bulk_phases(q, jp), np.arange(q + 1)
    phase = (np.multiply.outer(np.arange(q + 1, 2 * q, dtype=float), n) % (2 * q)
             * (math.pi / q) - np.multiply.outer(psi, n / q))
    even, odd = np.sin(phase[:, :-1] + psi[:, None]), np.sin(phase[:, 1:])
    norm_u, norm_v = np.einsum("jn,jn->j", even, even), np.einsum("jn,jn->j", odd, odd)
    return (even * (np.sin(psi) / norm_u)[:, None],
            odd * (np.sin(psi) / np.sqrt(norm_u * norm_v))[:, None])


def _counted_trig(monkeypatch):
    """Entries passed to np.sin and np.cos, counted as they run."""
    count = [0]
    for name in ("sin", "cos"):
        def spy(x, *args, _real=getattr(np, name), **kwargs):
            count[0] += np.size(x)
            return _real(x, *args, **kwargs)
        monkeypatch.setattr(np, name, spy)
    return count


class TestPhaseTables:
    SIGMA = np.linspace(0.013, 3.0, 120)      # the frequency span of J' = 2

    @pytest.mark.parametrize("ss", [
        np.linspace(0.0, 40.0, 401), np.arange(0.0, 55.02, 0.02),
        np.linspace(3.3, 17.1, 250), np.arange(0.013, 30.0, 0.07),
        np.array(cli.parse_float_list("0.5,0.55,...,30")),
        np.linspace(1.5, 20.0, 32), np.linspace(1.5, 20.0, 33), np.linspace(1.5, 20.0, 327)],
        ids=["linspace", "arange", "shifted", "arange-shifted", "cli", "n32", "n33", "n327"])
    def test_evenly_spaced_times_from_tables(self, monkeypatch, ss):
        theta = np.multiply.outer(2.0 * np.pi * ss, self.SIGMA)
        count = _counted_trig(monkeypatch)
        cos, sin = walk._time_phases(ss, self.SIGMA)
        monkeypatch.undo()
        assert count[0] < theta.size                  # the tables were taken
        bound = 16 * np.finfo(float).eps * theta.max()
        assert np.max(np.abs(cos - np.cos(theta))) < bound
        assert np.max(np.abs(sin - np.sin(theta))) < bound

    @pytest.mark.parametrize("ss", [
        np.linspace(1.5, 20.0, 31),
        np.sort(np.random.default_rng(5).uniform(0.0, 40.0, 200)),
        np.linspace(0.0, 40.0, 401) + np.where(np.arange(401) == 250, 1e-9, 0.0)],
        ids=["n31", "random", "one-moved"])
    def test_other_times_keep_the_direct_formula(self, ss):
        theta = np.multiply.outer(2.0 * np.pi * ss, self.SIGMA)
        cos, sin = walk._time_phases(ss, self.SIGMA)
        assert np.array_equal(cos, np.cos(theta)) and np.array_equal(sin, np.sin(theta))

    @pytest.mark.parametrize("q", [1, 2, 3, 31, 120, 577, 2048])
    def test_factor_matches_direct_sines(self, q):
        for jp in (0.5, 1.0, 1.0 + 1.0 / q, 2.0):
            walk._eig_factor.cache_clear()
            _, even, odd = walk._eig_factor(ChainParams(q, jp))
            ref_even, ref_odd = _direct_sine_factor(ChainParams(q, jp))
            assert np.max(np.abs(even[:-1] - ref_even), initial=0.0) < 1e-15
            assert np.max(np.abs(odd[:-1] - ref_odd), initial=0.0) < 1e-15

    def test_grid_evaluates_a_fraction_of_its_phases(self, monkeypatch):
        p, ss = ChainParams(200, 0.5), np.linspace(0.0, 40.0, 401)
        assert walk._light_cone_qubits(p, 40.0) == 200
        lr_walk_grid(p, [1, 100], ss)                 # the factor, cached
        count = _counted_trig(monkeypatch)
        lr_walk_grid(p, [1, 100], ss)
        assert count[0] < 0.25 * 2 * len(ss) * 200


class TestLrWalk:
    def test_zero_at_time_zero(self):
        p = ChainParams(6, 1.0)
        for k in range(1, 7):
            assert lr_walk(p, k, 0.0) == 0.0

    def test_matches_direct_small_chain(self):
        # pointwise agreement with the dense oracle, N = 10 sampled lightly
        p = ChainParams(10, 0.5)
        for k in (1, 3, 10):
            for s in (0.3, 1.1, 2.9):
                assert abs(lr_walk(p, k, s) - lr_direct(p, k, s)) < 1e-10

    def test_monotone_nesting(self):
        p = ChainParams(30, 0.8)
        grid = lr_walk_grid(p, range(1, 31), np.linspace(0, 6, 41))
        assert np.all(np.diff(grid, axis=0) <= 1e-15)

    def test_saturates_to_two_below_transition(self):
        p = ChainParams(200, 0.5)
        vals = lr_walk_grid(p, [10], np.linspace(15, 25, 120))[0]
        assert np.max(vals) > 1.98

    def test_saturates_to_two_over_jp_above_transition(self):
        p = ChainParams(200, 2.0)
        vals = lr_walk_grid(p, [10], np.linspace(10, 20, 120))[0]
        assert abs(np.max(vals) - 1.0) < 0.02

    def test_bound_holds_everywhere(self):
        p = ChainParams(50, 3.0)
        grid = lr_walk_grid(p, range(1, 51), np.linspace(0, 8, 60))
        assert np.all(grid <= 2.0 + 1e-12)

    def test_series_consistency(self):
        # the truncated commutator series converges to the exponential form
        p = ChainParams(6, 0.9)
        k, s = 2, 0.6
        total = np.zeros(p.n_nodes, dtype=complex)
        fact = 1.0
        partials = []
        for n in range(0, 60):
            if n > 0:
                fact *= n
            total += (-2 * math.pi * s) ** n / fact * \
                np.real(walk_coefficients(p, n) / (2j) ** n)
            partials.append(2.0 * math.sqrt(float(np.sum(np.abs(total[2 * k - 1:]) ** 2))))
        assert partials[-1] == pytest.approx(lr_walk(p, k, s), abs=1e-10)

    def test_factor_cache_holds_one_chain(self):
        lr_walk_grid(ChainParams(12, 0.5), [1, 3], [0.5, 1.0])
        lr_walk_grid(ChainParams(14, 2.0), [1, 3], [0.5, 1.0])
        assert walk._eig_factor.cache_info().currsize == 1

    @pytest.mark.parametrize("jp", [0.0, 0.5, 1e150])
    def test_phase_without_a_fractional_digit_refused(self, jp, monkeypatch):
        # the largest phase 2 pi s (1 + J') at 2**52 and past it, refused before the
        # light cone is counted; just under it the grid runs
        def no_cone(p, s_max):
            raise AssertionError("a refused time reached the light-cone count")

        p = ChainParams(4, jp)
        edge = 2.0 ** 52 / (2.0 * math.pi * (1.0 + jp))
        lr_walk_grid(p, [1], [0.0, edge * (1.0 - 1e-9)])
        monkeypatch.setattr(walk, "_light_cone_qubits", no_cone)
        for s in (edge * (1.0 + 1e-9), 1e300, 1e308):
            with pytest.raises(GuardError, match="2\\*\\*52"):
                lr_walk_grid(p, [1, 2], [0.5, s])
            with pytest.raises(GuardError, match="2\\*\\*52"):
                walk.exp_first_row(p, s)

    def test_grid_budget_refuses_oversized_grids_at_once(self, monkeypatch):
        def no_factor(p):
            raise AssertionError("an oversized grid reached the factorization")

        monkeypatch.setattr(walk, "_eig_factor", no_factor)
        p = ChainParams(200000, 0.5)
        with pytest.raises(GuardError):      # an answer of 100 qubits x 200,000 times
            lr_walk_grid(p, range(1, 101), np.linspace(0.0, 3.0, 200000))
        with pytest.raises(GuardError):      # one time, a 200,000-qubit light cone
            lr_walk(p, 1, 1e5)
        # the largest benchmark grid, N = 1000 out to s = 101 on 201 times,
        # stays inside an eighth of the budget
        p, ks, ss = ChainParams(1000, 0.5), [1, 100, 500, 900], np.linspace(0.0, 101.0, 201)
        q = walk._light_cone_qubits(p, 101.0)
        assert 8 * ((2 * q) ** 2 + len(ks) * len(ss)) < params.MAX_GRID_ENTRIES

    def test_long_chain_costs_its_light_cone(self, monkeypatch):
        # the budget counts the factor and the answer, not 2N nodes per time:
        # a million-qubit chain factors and walks the same 64-qubit cone as N = 1000
        ks, ss, p = [1, 5], np.linspace(0.0, 2.0, 9), ChainParams(10 ** 6, 1.0)
        real, factored = walk._eig_factor, []
        monkeypatch.setattr(walk, "_eig_factor", lambda cone: factored.append(cone) or real(cone))
        grid = lr_walk_grid(p, ks, ss)
        assert factored == [ChainParams(64, 1.0)] and _light_cone_qubits(p, 2.0) == 64
        assert np.array_equal(grid, lr_walk_grid(ChainParams(1000, 1.0), ks, ss))
        assert np.max(np.abs(grid - lr_critical_grid(ks, ss))) < 1e-12
        row = exp_first_row(p, 2.0)
        assert len(row) == p.n_nodes and not row[128:].any()

    def _blocks(self, monkeypatch, p, ks, ss, block):
        """The grid at `block` row entries per block, and the rows and factors
        of its blocks."""
        real, calls = walk._cone_rows, []

        def recorded(factor, times):
            rows = real(factor, times)
            calls.append((factor, rows.copy()))
            return rows

        with monkeypatch.context() as mp:
            mp.setattr(walk, "_cone_rows", recorded)
            mp.setattr(walk, "_GRID_BLOCK", block)
            grid = lr_walk_grid(p, ks, ss)
        return grid, calls

    @pytest.mark.parametrize("nq, jp, ks, ss, blocks, zeros", [
        # k = 900 lies past 2q = 1152 at every time, and the other k at s = 0;
        # 113 times per block fill the entry budget
        (1000, 0.5, [1, 100, 500, 900], np.linspace(0.0, 100.0, 201), 2, 201 + 3),
        (40, 2.0, range(1, 41), [0.0, 0.7, 0.0, 1.3, 0.0, 0.0, 2.1], 1, 4 * 40),
        # q = 120 would fit 546 times in the entry budget, and takes 128
        (120, 0.5, [1, 10, 60, 120], np.linspace(0.0, 30.0, 401), 4, 4),
    ])
    def test_blocked_grid_is_exact(self, monkeypatch, nq, jp, ks, ss, blocks, zeros):
        # at the default blocks and at one time per block, the grid is bit for
        # bit the full-width tail sums of its own rows, all blocks share one
        # factor, and s = 0 cells and k past the 2q-node prefix are exactly 0.
        # A default block holds at most 128 times and `_GRID_BLOCK` row entries.
        # BLAS rounds a row's product differently with the number of rows in
        # the call (one row is a matrix-vector product), so the two block sizes
        # may differ there by an ulp
        p, ss = ChainParams(nq, jp), np.asarray(ss)
        cols = np.array([2 * k - 1 for k in ks])
        q = walk._light_cone_qubits(p, float(ss.max()))
        zero = (cols[:, None] >= 2 * q) | (ss == 0.0)
        assert zero.sum() == zeros
        default = lr_walk_grid(p, ks, ss)
        for block, count in ((walk._GRID_BLOCK, blocks), (1, len(ss))):
            grid, calls = self._blocks(monkeypatch, p, ks, ss, block)
            assert len(calls) == count and len({id(factor) for factor, _ in calls}) == 1
            if block == walk._GRID_BLOCK:
                assert all(len(r) <= 128 and r.size <= block for _, r in calls)
            rows = np.zeros((len(ss), p.n_nodes))
            rows[:, :2 * q] = np.concatenate([r for _, r in calls])
            full = 2.0 * np.sqrt(np.cumsum((rows ** 2)[:, ::-1], axis=1)[:, ::-1])
            assert np.array_equal(grid, full[:, cols].T)
            assert np.array_equal(grid[zero], np.zeros(zero.sum()))
            assert np.max(np.abs(grid - default)) < 1e-14

    def test_largest_light_cone_blocks_stay_in_the_entry_budget(self, monkeypatch):
        # q = 2047 is the largest light cone the grid budget admits ((2q)^2 = 2^24
        # at q = 2048 leaves no room for an answer): 32 times of 4094 nodes per
        # block, 131,008 of the `_GRID_BLOCK` = 131,072 row entries
        p, ks, ss = ChainParams(2047, 0.5), [1, 1000, 2047], np.linspace(0.0, 420.0, 41)
        assert walk._light_cone_qubits(p, 420.0) == 2047
        grid, calls = self._blocks(monkeypatch, p, ks, ss, walk._GRID_BLOCK)
        assert [r.shape for _, r in calls] == [(32, 4094), (9, 4094)]
        assert all(r.size <= walk._GRID_BLOCK for _, r in calls)
        rows = np.concatenate([r for _, r in calls])
        full = 2.0 * np.sqrt(np.cumsum((rows ** 2)[:, ::-1], axis=1)[:, ::-1])
        assert np.array_equal(grid, full[:, [1, 1999, 4093]].T)
        walk._eig_factor.cache_clear()              # its two halves hold 64 MB

    def test_long_grid_memory_bounded_by_blocks(self):
        # one (n_s, 2N) row array and its tail sums for these 20,000 times
        # would peak near 180 MB
        p = ChainParams(200, 0.5)
        walk._eig_factor.cache_clear()
        tracemalloc.start()
        try:
            grid = lr_walk_grid(p, [1, 100], np.linspace(0.0, 30.0, 20_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert grid[0, -1] == pytest.approx(lr_walk(p, 1, 30.0), abs=1e-13)

    def test_blocks_stream_the_grid(self, monkeypatch):
        # the blocks are the grid's columns bit for bit, at most 128 times each; the
        # budget counts one block with the factor, (2q)^2 = 57,600 plus 4 x 128, so
        # a budget that refuses the 4 x 401 answer still streams it
        p, ks, ss = ChainParams(120, 0.5), [1, 10, 60, 120], np.linspace(0.0, 30.0, 401)
        grid = lr_walk_grid(p, ks, ss)
        blocks = list(walk.lr_walk_blocks(p, ks, ss))
        assert [b.shape for b in blocks] == [(4, 128)] * 3 + [(4, 17)]
        assert np.array_equal(np.hstack(blocks), grid)
        monkeypatch.setattr(params, "MAX_GRID_ENTRIES", 58_500)
        assert np.array_equal(np.hstack(list(walk.lr_walk_blocks(p, ks, ss))), grid)
        with pytest.raises(GuardError, match="^a walk grid of 401 times on a 120-qubit light "
                                             "cone needs 59204 entries, above the grid budget"):
            lr_walk_grid(p, ks, ss)
        monkeypatch.setattr(params, "MAX_GRID_ENTRIES", 500)
        with pytest.raises(GuardError, match="^a walk grid of 4 qubits x 401 times holds a "
                                             "block of 128 times, 512 cells, above the grid"):
            next(walk.lr_walk_blocks(p, ks, ss))

    def test_grid_matches_single_point(self):
        p = ChainParams(140, 1.7)
        ss = np.linspace(0.0, 4.0, 23)
        grid = lr_walk_grid(p, [2, 17, 58], ss)
        for j in (0, 7, 22):
            for i, k in enumerate((2, 17, 58)):
                assert grid[i, j] == pytest.approx(lr_walk(p, k, float(ss[j])), abs=1e-12)


class TestHighPrecision:
    def test_zero_time_exact(self):
        assert lr_walk_highprec(ChainParams(4, 0.5), 2, 0.0, 60) == 0

    def test_agrees_with_double_walk(self):
        p = ChainParams(10, 0.5)
        for k, s in [(1, 0.4), (2, 1.0), (5, 2.2)]:
            hp = float(lr_walk_highprec(p, k, s, 60))
            if lr_walk(p, k, s) >= 1e-6:
                assert abs(hp - lr_walk(p, k, s)) < 1e-12

    def test_matches_leading_edge_deep_tail(self):
        # k = 8, s = 0.05: the power-law form holds to a few parts in 1e3
        # (the next correction is ~1.4 s^2 relative)
        import mpmath as mp
        from isinglr import lr_leading_exact
        p = ChainParams(10, 0.5)
        hp = lr_walk_highprec(p, 8, 0.05, 80)
        lead = lr_leading_exact(8, 0.05, 0.5)
        rel = abs(float(mp.log10(hp)) - lead.log10_magnitude) / abs(lead.log10_magnitude)
        assert float(hp) == pytest.approx(lead.to_float(), rel=5e-3)
        assert rel < 1e-4

    def test_row_matches_double_row(self):
        p = ChainParams(8, 1.2)
        row_hp = np.array([float(x) for x in exp_first_row_highprec(p, 0.8, 50)])
        row = exp_first_row(p, 0.8)
        assert np.max(np.abs(row - row_hp)) < 1e-13

    def test_precision_floor_rejected(self):
        with pytest.raises(ValidationError):
            lr_walk_highprec(ChainParams(4, 1.0), 1, 0.5, digits=8)

    def _count_steps(self, monkeypatch):
        calls = []
        real = walk._advance

        def counted(p, row, tau0, h, bits):
            calls.append((tau0, h))
            return real(p, row, tau0, h, bits)

        monkeypatch.setattr(walk, "_advance", counted)
        return calls

    def test_grid_builds_one_row_per_time(self, monkeypatch):
        # lattice step 1 at J' = 0.7: whole steps to s = 2, and one partial
        # step from the lattice point below each time off the lattice
        p = ChainParams(6, 0.7)
        ks, ss = [1, 3, 4, 6], [0.0, 2.5, 0.25, 0.9, 2.0]
        assert walk._lattice_step(p) == 1.0
        calls = self._count_steps(monkeypatch)
        grid = lr_walk_grid_highprec(p, ks, ss, 30)
        assert calls == [(0.0, 0.25), (0.0, 0.9), (0.0, 1.0), (1.0, 1.0), (2.0, 0.5)]
        assert grid.shape == (len(ks), len(ss))
        for i, k in enumerate(ks):
            for j, s in enumerate(ss):
                assert grid[i, j] == lr_walk_highprec(p, k, s, 30)

    def test_grid_checks_every_time_before_any_row(self, monkeypatch):
        calls = self._count_steps(monkeypatch)
        with pytest.raises(ValidationError):
            lr_walk_grid_highprec(ChainParams(4, 0.5), [1, 2], [0.1, 0.2, math.nan], 20)
        assert calls == []

    def test_work_budget_refuses_long_times_at_once(self, monkeypatch):
        calls = self._count_steps(monkeypatch)
        with pytest.raises(GuardError):
            lr_walk_highprec(ChainParams(2, 0.5), 1, 1e6, 20)
        with pytest.raises(GuardError):
            lr_walk_grid_highprec(ChainParams(2, 0.5), [1], [0.1, 1e6], 20)
        assert calls == []
        # the deep N = 200, J' = 2 light cone out to s = 30 stays inside the
        # budget: 60 lattice steps of 0.5 plus one partial step, 400 nodes each
        p = ChainParams(200, 2.0)
        assert walk._substeps(p, 30.0) == 61
        assert 61 * p.n_nodes <= walk.MAX_HIGHPREC_WORK

    def test_grid_budget_counts_repeated_times(self, monkeypatch):
        # the work budget counts distinct times off the lattice, so 10,000 copies of
        # one time pass it; their 40,000-cell answer, two object arrays, does not
        # pass a budget of 10^4 cells, and is refused before any row or answer
        calls = self._count_steps(monkeypatch)
        monkeypatch.setattr(params, "MAX_GRID_ENTRIES", 10**4)
        p, ss = ChainParams(4, 0.5), np.full(10**4, 0.5)
        tracemalloc.start()
        try:
            with pytest.raises(GuardError, match="^an arbitrary-precision grid of 4 qubits x "
                                                 "10000 times is 40000 cells, above the grid "
                                                 "budget 10000$"):
                walk.lr_walk_grid_doubles(p, [1, 2, 3, 4], ss, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [] and peak < 2**16
        assert walk.lr_walk_grid_doubles(p, [1], ss, 20)[0].shape == (1, 10**4)

    def test_work_budget_counts_digits(self, monkeypatch):
        # one step on 4 nodes is cheap at 120 digits, but 100000 digits ask
        # for pi to millions of bits and run for minutes: refused
        def no_step(*_args):
            raise AssertionError("a Taylor step started before the budget refused")

        monkeypatch.setattr(walk, "_advance", no_step)
        p = ChainParams(2, 0.5)
        with pytest.raises(GuardError, match="work budget"):
            lr_walk_grid_highprec(p, [1], [0.1], 100000)
        with pytest.raises(GuardError, match="work budget"):
            exp_first_row_highprec(p, 0.1, 100000)
        # up to 120 digits the budget is that of steps x nodes alone: one
        # step on MAX_HIGHPREC_WORK nodes fits at 120 digits, not at 121, and
        # so does the deep N = 200, J' = 2 light cone out to s = 30
        top = ChainParams(walk.MAX_HIGHPREC_WORK // 2, 0.5)
        walk._row_bits(top, [0.1], 120)
        walk._row_bits(ChainParams(200, 2.0), [30.0], 120)
        with pytest.raises(GuardError):
            walk._row_bits(top, [0.1], 121)

    def test_pi_bits_from_integers(self):
        import mpmath as mp

        assert all(walk._pi_fixed(q) == mp.libmp.pi_fixed(q) for q in range(16, 4097))
        for q in (5003, 10007, 30011):
            assert walk._pi_fixed(q) == mp.libmp.pi_fixed(q)

    @settings(max_examples=25, deadline=None)
    @given(nq=st.integers(1, 100), jp=st.floats(0.0, 3.0),
           ss=st.lists(st.floats(0.0, 0.3), min_size=1, max_size=3),
           digits=st.sampled_from([16, 30]))
    @example(nq=90, jp=1.0, ss=[0.0, 0.1, 0.12], digits=20)
    @example(nq=111, jp=2.0, ss=[0.06254501791463911], digits=20)
    def test_double_cast_rounds_once(self, nq, jp, ss, digits):
        # float() of an mpmath cell rounds to 53 bits and then again below
        # 2^-1022 (at k = 77 of the second example, one subnormal unit off);
        # the double grid is the nearest double, and equals float() elsewhere
        p = ChainParams(nq, jp)
        ks = list(range(1, nq + 1))
        values, tails = walk.lr_walk_grid_doubles(p, ks, ss, digits)
        exact = lr_walk_grid_highprec(p, ks, ss, digits)
        cast = exact.astype(float)
        assert values.dtype == float and values.tobytes() == _nearest_doubles(exact).tobytes()
        kept = (cast >= np.finfo(float).tiny) | (exact == 0)
        assert values[kept].tobytes() == cast[kept].tobytes()
        assert np.array_equal(tails == 0, exact == 0)
        assert np.array_equal(cast_trusted(tails, values), cast_trusted(exact, cast))

    @settings(max_examples=25, deadline=None)
    @given(nq=st.integers(1, 100), jp=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
           ss=st.lists(st.floats(0.0, 0.3), min_size=1, max_size=3),
           digits=st.sampled_from([16, 30]))
    @example(nq=90, jp=1.0, ss=[0.0, 0.1, 0.12], digits=20)
    @example(nq=12, jp=0.0, ss=[0.25, 0.7], digits=16)
    def test_log10_cast_matches_mpmath(self, nq, jp, ss, digits):
        # the mpmath log10 that `lightcone --digits` printed, cell for cell,
        # exact zeros (-inf) and cells far below 1e-308 included
        import mpmath as mp

        p = ChainParams(nq, jp)
        ks = list(range(1, nq + 1))
        logs = walk.lr_walk_grid_log10(p, ks, ss, digits)
        exact = lr_walk_grid_highprec(p, ks, ss, digits)
        with mp.workdps(digits + 10):
            want = np.frompyfunc(lambda c: float(mp.log10(c)) if c > 0 else -math.inf,
                                 1, 1)(exact).astype(float)
        assert logs.dtype == float and logs.tobytes() == want.tobytes()

    def test_log10_cast_covers_every_band(self):
        # the first pinned shape above holds exact zeros and cells down to
        # 1e-362; the second, at J' = 0, C_1 = 2 |sin 2 pi s| and C_k>1 = 0
        logs = walk.lr_walk_grid_log10(ChainParams(90, 1.0), range(1, 91), [0.0, 0.1, 0.12], 20)
        assert np.any(logs == -math.inf) and np.any(logs < -308) and np.any(logs > -13)
        logs = walk.lr_walk_grid_log10(ChainParams(12, 0.0), range(1, 13), [0.25, 0.7], 16)
        assert np.all(logs[1:] == -math.inf)
        assert logs[0, 0] == math.log10(2.0)
        assert logs[0, 1] == pytest.approx(math.log10(2.0 * math.sin(0.4 * math.pi)), rel=1e-15)

    def test_log_constants_from_the_shared_series(self):
        # ln 2 and ln 100 come from the series of Machin's pi, without
        # alternation, at 152 bits
        import mpmath as mp

        with mp.workdps(60):
            ln2, ln100 = (mp.ldexp(x, -152) for x in walk._logs_fixed())
            assert abs(ln2 - mp.log(2)) < mp.mpf(2) ** -140
            assert abs(ln100 - mp.log(100)) < mp.mpf(2) ** -140

    def test_double_cast_covers_every_band(self):
        # the first pinned shape above holds exact zeros, cells that round
        # to zero, subnormals and normal doubles
        p, ks = ChainParams(90, 1.0), list(range(1, 91))
        values, tails = walk.lr_walk_grid_doubles(p, ks, [0.0, 0.1, 0.12], 20)
        tiny = np.finfo(float).tiny
        assert np.any(tails == 0) and np.any((values == 0.0) & (tails != 0))
        assert np.any((values > 0.0) & (values < tiny)) and np.any(values >= tiny)

    @pytest.fixture(scope="class")
    def eigsy_120(self):
        """T = Q diag(E) Q^T at 120 digits, for the N = 24, J' = 0.5 walk matrix
        A' = U (i T) U*, U = diag(i^m): T is symmetric tridiagonal with A''s
        superdiagonal on both off-diagonals."""
        import mpmath as mp
        p = ChainParams(24, 0.5)
        with mp.workdps(120):
            t = mp.zeros(p.n_nodes, p.n_nodes)
            for m, c in enumerate(walk._superdiagonal(p)):
                t[m, m + 1] = t[m + 1, m] = c
            return p, *mp.eigsy(t)

    @pytest.mark.parametrize("s", [0.1, 0.5, 1.5])
    def test_matches_120_digit_expm(self, s, eigsy_120):
        # cells fall to 3e-76; every one is held to relative error 1e-25.  The row of
        # exp(-2 pi s A') = U Q e^(-2 pi i s E) Q^T U* is |r_m| = |sum_j Q_0j Q_mj
        # e^(-2 pi i s E_j)|, from one eigendecomposition shared by the three times:
        # not a Taylor series, so independent of the fixed-point kernel
        import mpmath as mp
        p, e, q = eigsy_120
        ks = list(range(1, p.n_qubits + 1))
        grid = lr_walk_grid_highprec(p, ks, [s], 40)
        with mp.workdps(120):
            phases = [mp.expj(-2 * mp.pi * mp.mpf(s) * x) for x in e]
            row = [abs(mp.fsum(q[0, j] * q[m, j] * phases[j] for j in range(p.n_nodes)))
                   for m in range(p.n_nodes)]
            for i, k in enumerate(ks):
                ref = 2 * mp.sqrt(mp.fsum(x * x for x in row[2 * k - 1:]))
                assert ref > 1e-77
                assert abs(grid[i, 0] / ref - 1) <= 1e-25

    def test_zero_coupling_keeps_unreachable_nodes_zero(self):
        # J' = 0 cuts the walk after node 1: r = (cos 2 pi s, -sin 2 pi s, 0, ...)
        import mpmath as mp
        p, s = ChainParams(24, 0.0), 0.7
        row = exp_first_row_highprec(p, s, 40)
        assert all(x == 0 for x in row[2:])
        grid = lr_walk_grid_highprec(p, range(1, p.n_qubits + 1), [s], 40)
        assert all(c == 0 for c in grid[1:, 0])
        with mp.workdps(50):
            theta = 2 * mp.pi * mp.mpf(s)
            assert abs(row[0] / mp.cos(theta) - 1) < 1e-45
            assert abs(row[1] / -mp.sin(theta) - 1) < 1e-45
            assert abs(grid[0, 0] / (2 * abs(mp.sin(theta))) - 1) < 1e-45

    @settings(max_examples=20, deadline=None)
    @given(nq=st.integers(1, 8), jp=st.floats(0.0, 3.0),
           ss=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4))
    def test_grid_cells_equal_one_cell_calls(self, nq, jp, ss):
        p = ChainParams(nq, jp)
        ss = ss + ss[:1]          # unsorted, with a repeated time
        ks = list(range(1, nq + 1))
        grid = lr_walk_grid_highprec(p, ks, ss, 20)
        double = lr_walk_grid(p, ks, ss)
        for i, k in enumerate(ks):
            for j, s in enumerate(ss):
                assert grid[i, j] == lr_walk_highprec(p, k, s, 20)
                if double[i, j] >= 1e-6:
                    assert abs(float(grid[i, j]) - double[i, j]) < 1e-12
