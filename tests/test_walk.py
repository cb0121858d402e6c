import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

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
from isinglr import walk
from isinglr.walk import _light_cone_qubits, _rows_eig


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


class TestExpFirstRow:
    def test_time_zero(self):
        r = exp_first_row(ChainParams(3, 1.0), 0.0)
        assert np.array_equal(r, [1, 0, 0, 0, 0, 0])

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
            assert np.max(np.abs(_rows_eig(p, ss) - direct)) < 1e-12
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
    @settings(max_examples=200, deadline=None)
    def test_rows_match_svd_of_the_bidiagonal_block(self, chain):
        q, jp = chain
        p = ChainParams(q, jp)
        # phases 2 pi s sigma up to 8 pi, where the SVD itself stays well
        # inside 1e-13; all q modes enter, not just a light cone
        ss = np.array([0.05, 0.5, 4.0]) / (1.0 + jp)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walk, "_light_cone_qubits", lambda p, s_max: p.n_qubits)
            rows = _rows_eig(p, ss)
            mp.setattr(walk, "_eig_factor", _svd_factor)
            reference = _rows_eig(p, ss)
        assert np.max(np.abs(rows - reference)) < 1e-13

        walk._eig_factor.cache_clear()
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

    def test_grid_budget_refuses_oversized_grids_at_once(self, monkeypatch):
        def no_factor(p):
            raise AssertionError("an oversized grid reached the factorization")

        monkeypatch.setattr(walk, "_eig_factor", no_factor)
        p = ChainParams(200000, 0.5)
        with pytest.raises(GuardError):      # 200,000 times x 400,000 nodes
            lr_walk_grid(p, [1], np.linspace(0.0, 3.0, 200000))
        with pytest.raises(GuardError):      # one time, a 200,000-qubit light cone
            lr_walk(p, 1, 1e5)
        # the largest benchmark grid, N = 1000 out to s = 101 on 201 times,
        # stays inside an eighth of the budget
        p, ss = ChainParams(1000, 0.5), np.linspace(0.0, 101.0, 201)
        q = walk._light_cone_qubits(p, 101.0)
        assert 8 * ((2 * q) ** 2 + len(ss) * p.n_nodes) < walk.MAX_GRID_ENTRIES

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

    @pytest.mark.parametrize("s", [0.1, 0.5, 1.5])
    def test_matches_120_digit_expm(self, s):
        # cells fall to 3e-76; every one is held to relative error 1e-25
        import mpmath as mp
        p = ChainParams(24, 0.5)
        ks = list(range(1, p.n_qubits + 1))
        grid = lr_walk_grid_highprec(p, ks, [s], 40)
        with mp.workdps(120):
            a = mp.zeros(p.n_nodes, p.n_nodes)
            for m, c in enumerate(walk._superdiagonal(p)):
                a[m, m + 1], a[m + 1, m] = c, -c
            row = mp.expm(-2 * mp.pi * mp.mpf(s) * a)[0, :]
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
