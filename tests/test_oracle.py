import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isinglr import (
    ChainParams,
    DimensionGuardError,
    GuardError,
    PauliString,
    ValidationError,
    build_hamiltonian,
    commutator_isotropy_check,
    frobenius_norm,
    heisenberg_evolve,
    lr_direct,
    lr_direct_grid,
    operator_norm,
    pauli_string_matrix,
)
from isinglr import lr_walk_grid, oracle, params
from isinglr.oracle import PAULI, commutator_with_z, _z1_evolved


def kron_chain(codes):
    """Independent Kronecker construction used to check the bit-trick builder."""
    out = np.array([[1.0 + 0j]])
    for c in codes:
        out = np.kron(out, PAULI[c])
    return out


def reference_hamiltonian(nq, jp):
    dim = 2 ** nq
    h = np.zeros((dim, dim), dtype=complex)
    for k in range(nq):
        codes = ["I"] * nq
        codes[k] = "X"
        h -= kron_chain(codes)
    for k in range(nq - 1):
        codes = ["I"] * nq
        codes[k] = "Z"
        codes[k + 1] = "Z"
        h -= jp * kron_chain(codes)
    return h


class TestPauliStringMatrix:
    def test_single_site_z(self):
        m = pauli_string_matrix(PauliString(("Z",)))
        assert np.array_equal(m, np.diag([1.0, -1.0]))

    def test_identity_string(self):
        m = pauli_string_matrix(PauliString(("I", "I")))
        assert np.array_equal(m, np.eye(4))

    def test_hermitian_and_unitary(self):
        m = pauli_string_matrix(PauliString.from_str("XZY"))
        assert np.allclose(m, m.conj().T)
        assert np.allclose(m @ m.conj().T, np.eye(8))

    def test_trace_orthonormality_two_sites(self):
        # (1/2^N) tr(s s') = delta_{s,s'} over all pairs at N = 2
        strings = [PauliString(c) for c in itertools.product("IXYZ", repeat=2)]
        mats = [pauli_string_matrix(s) for s in strings]
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                val = np.trace(a @ b) / 4.0
                assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-14)

    def test_trace_orthonormality_exhaustive_three_sites(self):
        strings = [PauliString(c) for c in itertools.product("IXYZ", repeat=3)]
        mats = [pauli_string_matrix(s) for s in strings]
        dim = 8.0
        for i, a in enumerate(mats):
            for j in range(i, len(mats)):
                val = np.trace(a @ mats[j]) / dim
                assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-14)

    def test_bad_code_rejected(self):
        with pytest.raises(ValidationError):
            PauliString(("Q",))

    def test_matrix_past_the_budget_refused(self, monkeypatch):
        # a complex 4^L matrix counts 2 * 4^L floats: 128 at three sites, 512 at four
        monkeypatch.setattr(params, "MAX_GRID_ENTRIES", 128)
        assert pauli_string_matrix(PauliString.from_str("XZY")).shape == (8, 8)
        with pytest.raises(DimensionGuardError, match="^a 4-site Pauli matrix of 2 \\* 4\\^4 "
                                                      "entries, above the grid budget 128$"):
            pauli_string_matrix(PauliString.from_str("XZYI"))


class TestHamiltonian:
    def test_single_qubit_is_minus_x(self):
        h = build_hamiltonian(ChainParams(1, 3.7))
        assert np.array_equal(h, -PAULI["X"])

    def test_two_qubits_uncoupled_spectrum(self):
        # direct 4x4 diagonalization of -X1 - X2
        h = build_hamiltonian(ChainParams(2, 0.0))
        assert np.allclose(np.linalg.eigvalsh(h), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_two_qubits_critical_spectrum(self):
        # direct 4x4 diagonalization: eigenvalues {-sqrt5, -1, 1, sqrt5}
        h = build_hamiltonian(ChainParams(2, 1.0))
        expect = [-math.sqrt(5.0), -1.0, 1.0, math.sqrt(5.0)]
        assert np.allclose(np.linalg.eigvalsh(h), expect, atol=1e-12)

    @pytest.mark.parametrize("nq,jp", [(2, 0.5), (3, 1.0), (4, 2.0)])
    def test_matches_kron_reference(self, nq, jp):
        assert np.allclose(build_hamiltonian(ChainParams(nq, jp)),
                           reference_hamiltonian(nq, jp), atol=1e-14)

    def test_open_boundary(self):
        # no Z_N Z_1 wraparound: the J' term count is N-1
        h0 = build_hamiltonian(ChainParams(3, 0.0))
        h1 = build_hamiltonian(ChainParams(3, 1.0))
        zz = h1 - h0
        codes = lambda i, j: ["Z" if k in (i, j) else "I" for k in range(3)]
        expect = -(kron_chain(codes(0, 1)) + kron_chain(codes(1, 2)))
        assert np.allclose(zz, expect, atol=1e-14)

    def test_dimension_guard(self):
        with pytest.raises(DimensionGuardError):
            build_hamiltonian(ChainParams(15, 1.0))

    def test_hamiltonian_counted_against_the_grid_budget(self):
        # 2 * 4^N floats: 2^23 at N = 11 is admitted, 2^25 at N = 12 is refused
        # before the 268 MB matrix is allocated
        p = ChainParams(11, 0.5)
        assert oracle._check_dense(p, hamiltonian=True) is p
        tracemalloc.start()
        try:
            with pytest.raises(DimensionGuardError, match=(
                    "^dense oracle refuses n_qubits=12: its Hamiltonian of 2 \\* 4\\^12 entries, "
                    "above the grid budget 16777216$")):
                build_hamiltonian(ChainParams(12, 0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestHeisenbergEvolve:
    def test_time_zero_is_identity_map(self):
        h = build_hamiltonian(ChainParams(2, 1.0))
        op = pauli_string_matrix(PauliString.from_str("ZI"))
        assert np.array_equal(heisenberg_evolve(op, h, 0.0), op)

    def test_single_qubit_overlap_is_cosine(self):
        # analytic 2x2: <Z(s)|Z> = cos(2 pi s) under H' = -X
        h = build_hamiltonian(ChainParams(1, 0.0))
        z = PAULI["Z"]
        for s in (0.1, 0.37, 0.93):
            zt = heisenberg_evolve(z, h, s)
            overlap = np.real(np.trace(zt @ z)) / 2.0
            assert overlap == pytest.approx(math.cos(2 * math.pi * s), abs=1e-12)

    def test_spectrum_preserved(self):
        p = ChainParams(3, 0.5)
        h = build_hamiltonian(p)
        op = pauli_string_matrix(PauliString.from_str("ZXI"))
        before = np.linalg.eigvalsh(op)
        after = np.linalg.eigvalsh(heisenberg_evolve(op, h, 0.37))
        assert np.allclose(before, after, atol=1e-10)

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValidationError):
            heisenberg_evolve(PAULI["Z"], bad, 0.5)

    @given(st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_unitary_invariance_of_frobenius_norm(self, s):
        p = ChainParams(3, 1.3)
        h = build_hamiltonian(p)
        op = pauli_string_matrix(PauliString.from_str("YZX"))
        assert frobenius_norm(heisenberg_evolve(op, h, s)) == pytest.approx(1.0, abs=1e-12)


class TestNorms:
    def test_identity_norms(self):
        eye = np.eye(8, dtype=complex)
        assert frobenius_norm(eye) == pytest.approx(1.0, abs=1e-15)
        assert operator_norm(eye) == pytest.approx(1.0, abs=1e-12)

    def test_pauli_strings_have_unit_frobenius_norm(self):
        for codes in itertools.product("IXYZ", repeat=2):
            m = pauli_string_matrix(PauliString(codes))
            assert frobenius_norm(m) == pytest.approx(1.0, abs=1e-14)

    def test_scaling_homogeneity(self):
        m = 2.0 * pauli_string_matrix(PauliString.from_str("XI"))
        assert frobenius_norm(m) == pytest.approx(2.0, abs=1e-14)

    def test_operator_norm_diag(self):
        assert operator_norm(np.diag([3.0, -1.0])) == pytest.approx(3.0, abs=1e-13)


class TestLrDirect:
    def test_zero_at_time_zero(self):
        p = ChainParams(4, 1.0)
        for k in range(1, 5):
            assert lr_direct(p, k, 0.0) == 0.0

    def test_single_qubit_analytic(self):
        # C_1(s) = 2 |sin(2 pi s)| from the 2x2 evolution
        p = ChainParams(1, 0.3)
        for s in (0.05, 0.31, 0.8, 1.4):
            expect = 2 * abs(math.sin(2 * math.pi * s))
            assert lr_direct(p, 1, s) == pytest.approx(expect, abs=1e-12)

    def test_values_bounded(self):
        p = ChainParams(4, 1.5)
        for k in (1, 2, 4):
            for s in np.linspace(0, 3, 16):
                v = lr_direct(p, k, float(s))
                assert -1e-12 <= v <= 2.0 + 1e-12

    def test_grid_matches_pointwise(self):
        p = ChainParams(3, 0.7)
        ss = np.linspace(0.0, 2.0, 9)
        grid = lr_direct_grid(p, [1, 3], ss)
        for j, s in enumerate(ss):
            assert grid[0, j] == pytest.approx(lr_direct(p, 1, float(s)), abs=1e-13)
            assert grid[1, j] == pytest.approx(lr_direct(p, 3, float(s)), abs=1e-13)

    def test_dimension_guard(self):
        with pytest.raises(DimensionGuardError):
            lr_direct(ChainParams(15, 1.0), 1, 0.5)

    def test_factor_counted_against_the_grid_budget(self, monkeypatch):
        # the mirror-block factor holds 2 * 4^(N-1) floats: 2^23 at N = 12 reaches the
        # factorization, 2^25 at N = 13 is refused before it, as is any longer chain
        class Reached(Exception):
            pass

        def no_factor(p):
            raise Reached

        monkeypatch.setattr(oracle, "_sector_factors", no_factor)
        with pytest.raises(Reached):
            lr_direct_grid(ChainParams(12, 0.5), [1], [0.5])
        tracemalloc.start()
        try:
            for nq in (13, 14, 10**18):
                with pytest.raises(DimensionGuardError, match=(
                        f"^dense oracle refuses n_qubits={nq}: its factor of 2 \\* 4\\^{nq - 1} "
                        "entries, above the grid budget 16777216$")):
                    lr_direct_grid(ChainParams(nq, 0.5), [1], [0.5])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("nq,jp", [(1, 0.0), (4, 0.5), (9, 2.5)])
    def test_phase_without_a_fractional_digit_refused(self, nq, jp, monkeypatch):
        # pi s lam, |lam| <= N + (N - 1) J', at 2**52 and past it: refused before the factor
        edge = 2.0 ** 52 / (math.pi * (nq + (nq - 1) * jp))
        lr_direct_grid(ChainParams(nq, jp), [1], [edge * (1.0 - 1e-9)])
        monkeypatch.setattr(oracle, "_sector_factors", None)
        for s in (edge * (1.0 + 1e-9), 1e300, 1e308):
            with pytest.raises(GuardError, match="2\\*\\*52"):
                lr_direct_grid(ChainParams(nq, jp), [1], [0.0, s])

    def test_grid_past_the_budget_refused_before_any_array(self, monkeypatch):
        # 4 qubits x 2,501 times is one cell more than a budget of 10^4: refused
        # before the factor or the answer is built
        monkeypatch.setattr(params, "MAX_GRID_ENTRIES", 10**4)
        p, ss = ChainParams(4, 0.5), np.linspace(0.0, 1.0, 2501)
        assert lr_direct_grid(p, [1, 2, 3, 4], ss[1:]).shape == (4, 2500)
        monkeypatch.setattr(oracle, "_sector_factors", None)
        tracemalloc.start()
        try:
            with pytest.raises(GuardError, match="^a dense grid of 4 qubits x 2501 times is "
                                                 "10004 cells, above the grid budget 10000$"):
                lr_direct_grid(p, [1, 2, 3, 4], ss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_index_guard(self):
        with pytest.raises(ValidationError):
            lr_direct(ChainParams(4, 1.0), 5, 0.5)
        with pytest.raises(ValidationError):
            lr_direct(ChainParams(4, 1.0), 2.7, 0.5)


class TestNormEquivalence:
    @pytest.mark.parametrize("nq", [2, 4, 6])
    def test_operator_equals_frobenius_on_grid(self, nq):
        p = ChainParams(nq, 1.0)
        for s in np.linspace(0.0, 3.0, 13):
            z1t = _z1_evolved(p, float(s))
            for k in range(1, nq + 1):
                q = commutator_with_z(p, k, z1t)
                fro = frobenius_norm(q)
                op = operator_norm(q)
                assert abs(op - fro) <= 1e-10 * max(1.0, op)

    def test_isotropy_time_zero(self):
        ok, c = commutator_isotropy_check(ChainParams(4, 1.0), 2, 0.0)
        assert ok and c == 0.0

    def test_isotropy_matches_direct_value(self):
        p = ChainParams(4, 1.0)
        ok, c = commutator_isotropy_check(p, 2, 0.5)
        assert ok
        assert math.sqrt(c) == pytest.approx(lr_direct(p, 2, 0.5), abs=1e-12)

    def test_isotropy_larger_chain(self):
        ok, c = commutator_isotropy_check(ChainParams(6, 2.0), 3, 1.0)
        assert ok
        assert math.sqrt(max(c, 0.0)) == pytest.approx(
            lr_direct(ChainParams(6, 2.0), 3, 1.0), abs=1e-12)

    def test_isotropy_counted_against_the_grid_budget(self, monkeypatch):
        # the Hamiltonian, Q and Q Q^dag, 2 * 4^N floats each: 6 * 4^10 is admitted,
        # 6 * 4^11 = 25,165,824 is refused before any array is built
        assert commutator_isotropy_check(ChainParams(10, 0.5), 3, 0.0) == (True, 0.0)

        def no_array(*_args):
            raise AssertionError("an array was built past the grid budget")

        monkeypatch.setattr(oracle, "build_hamiltonian", no_array)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionGuardError, match=(
                    "^the isotropy check refuses n_qubits=11: its Hamiltonian, Q and Q Q\\^dag "
                    "of 3 x 2 \\* 4\\^11 entries, above the grid budget 16777216$")):
                commutator_isotropy_check(ChainParams(11, 0.5), 3, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestSectorOracle:
    """The parity-sector grid against routes that share none of its steps."""

    @pytest.mark.parametrize("nq", range(1, 9))
    @pytest.mark.parametrize("jp", [0.0, 0.5, 1.0, 2.5])
    def test_matches_full_space_evolution(self, nq, jp):
        p = ChainParams(nq, jp)
        ks = list(range(1, nq + 1))
        ss = np.linspace(0.0, 3.0, 9)
        grid = lr_direct_grid(p, ks, ss)
        h = build_hamiltonian(p)
        z1 = pauli_string_matrix(PauliString.from_str("Z" + "I" * (nq - 1)))
        for j, s in enumerate(ss):
            z1t = heisenberg_evolve(z1, h, float(s))
            for i, k in enumerate(ks):
                full = frobenius_norm(commutator_with_z(p, k, z1t))
                assert abs(grid[i, j] - full) <= 1e-13

    def test_one_factorization_per_sector(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        for obj in vars(oracle).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
        monkeypatch.setattr(oracle.np.linalg, "eigh", counting_eigh)
        p, ss = ChainParams(6, 0.7), np.linspace(0.0, 3.0, 13)
        blocks = [(20, 20), (12, 12), (16, 16), (16, 16)]  # (R = +1, R = -1) per sector
        lr_direct_grid(p, range(1, 7), ss)
        assert calls == blocks
        lr_direct_grid(p, range(1, 7), ss)
        assert calls == blocks

    def test_factor_cache_holds_one_chain(self):
        lr_direct_grid(ChainParams(4, 0.5), [1, 2], [0.5, 1.0])
        lr_direct_grid(ChainParams(5, 2.0), [1, 2], [0.5, 1.0])
        assert oracle._sector_factors.cache_info().currsize == 1

    @given(nq=st.integers(1, 8),
           jp=st.floats(0.0, 5.0, allow_nan=False),
           times=st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_properties_against_walk(self, nq, jp, times):
        p = ChainParams(nq, jp)
        ks = list(range(1, nq + 1))
        ss = np.array([0.0] + times)
        direct = lr_direct_grid(p, ks, ss)
        walk = lr_walk_grid(p, ks, ss)
        assert np.max(np.abs(direct - walk)) <= 1e-12
        assert np.all((direct >= -1e-12) & (direct <= 2.0 + 1e-12))
        assert np.all(direct[:, 0] == 0.0) and np.all(walk[:, 0] == 0.0)
        assert np.all(np.diff(walk, axis=0) <= 0.0)
        assert np.all(np.diff(direct, axis=0) <= 1e-13)


def sector_slots(nq):
    """Each state's position within its parity sector, by plain enumeration."""
    sectors = ([], [])
    for state in range(2 ** nq):
        sectors[bin(state).count("1") % 2].append(state)
    return {state: i for sector in sectors for i, state in enumerate(sector)}


class TestWalshReduction:
    """The slot fact the Walsh-basis grid rests on, its memory and its reach."""

    HALF_BYTES_N10 = 8 * 4 ** 9  # one (dim/2)^2 float64 array at N = 10

    @pytest.mark.parametrize("nq", range(1, 11))
    def test_qubit_flip_xors_one_slot_bit(self, nq):
        slot = sector_slots(nq)
        for k in range(1, nq + 1):
            mask = 1 << (nq - k - 1) if k < nq else 0
            for state, c in slot.items():
                assert slot[state ^ (1 << (nq - k))] == c ^ mask

    @pytest.mark.parametrize("nq,jp", [(1, 0.5), (2, 1.0), (5, 0.0), (8, 2.5), (10, 0.7)])
    def test_walsh_folded_factors_stay_orthogonal(self, nq, jp):
        lam_e, v_e, lam_o, v_o, w = dense_factors(ChainParams(nq, jp))
        half = len(v_e)
        for v in (v_e, v_o):
            assert np.max(np.abs(v.T @ v - np.eye(half))) <= 1e-13
        # flipping qubit 1 is the sign pattern of slot bit N-2 in the Walsh basis
        sign = 1.0 - 2.0 * ((np.arange(half) & ((1 << nq - 1) >> 1)) != 0)
        assert np.max(np.abs(v_e.T @ (sign[:, None] * v_o) - w)) <= 1e-13

    def test_peak_memory_counts_half_size_arrays(self):
        p = ChainParams(10, 0.5)
        oracle._sector_factors.cache_clear()
        tracemalloc.start()
        try:
            oracle._sector_factors(p)
            build = tracemalloc.get_traced_memory()[1] / self.HALF_BYTES_N10
            tracemalloc.reset_peak()
            lr_direct_grid(p, range(1, 11), np.linspace(0.0, 3.0, 13))
            grid = tracemalloc.get_traced_memory()[1] / self.HALF_BYTES_N10
        finally:
            tracemalloc.stop()
        assert build <= 5.1  # two sector factors, W and the eigh input
        assert grid <= 7.1  # three cached factors and four per-time buffers

    def test_grid_peak_is_six_half_size_arrays(self):
        # the mirror blocks (half of a half-size array per sector), W and the four
        # per-time buffers
        p = ChainParams(10, 0.5)
        oracle._sector_factors.cache_clear()
        tracemalloc.start()
        try:
            lr_direct_grid(p, range(1, 11), np.linspace(0.0, 3.0, 13))
            grid = tracemalloc.get_traced_memory()[1] / self.HALF_BYTES_N10
        finally:
            tracemalloc.stop()
        assert grid <= 6.1

    @pytest.mark.parametrize("ks,ss", [([], [0.5, 1.0]), ([1, 10], [0.0, 0.0]), ([1], [])])
    def test_empty_grid_builds_nothing(self, ks, ss):
        oracle._sector_factors.cache_clear()
        tracemalloc.start()
        try:
            grid = lr_direct_grid(ChainParams(10, 0.5), ks, ss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.shape == (len(ks), len(ss)) and not grid.any()
        info = oracle._sector_factors.cache_info()
        assert info.hits == info.misses == 0
        assert peak < self.HALF_BYTES_N10 / 100

    @given(nq=st.integers(9, 10),
           jp=st.floats(0.0, 5.0, allow_nan=False),
           times=st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=3))
    @settings(max_examples=12, deadline=None)
    def test_properties_against_walk_n9_n10(self, nq, jp, times):
        self.check_against_walk(nq, jp, times)

    @given(jp=st.floats(0.0, 5.0, allow_nan=False),
           times=st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=2))
    @settings(max_examples=3, deadline=None)
    def test_properties_against_walk_n11(self, jp, times):
        # the odd size diagonalises the mirror blocks of one parity sector: about 0.12 s
        # a factor at every coupling and 0.1 s a time
        self.check_against_walk(11, jp, times)

    @staticmethod
    def check_against_walk(nq, jp, times):
        p = ChainParams(nq, jp)
        ks = list(range(1, nq + 1))
        ss = np.array([0.0] + times)
        direct = lr_direct_grid(p, ks, ss)
        walk = lr_walk_grid(p, ks, ss)
        assert np.max(np.abs(direct - walk)) <= 1e-12
        assert np.all((direct >= -1e-12) & (direct <= 2.0 + 1e-12))
        assert np.all(direct[:, 0] == 0.0) and np.all(walk[:, 0] == 0.0)
        assert np.all(np.diff(walk, axis=0) <= 0.0)
        assert np.all(np.diff(direct, axis=0) <= 1e-13)


def ones(x):
    """Set bits of each entry of the integer array `x`."""
    return np.vectorize(lambda v: bin(v).count("1"))(x)


@functools.lru_cache(maxsize=None)
def walsh(half):
    """The orthonormal Walsh-Hadamard matrix on `half` slots, its own inverse."""
    slot = np.arange(half)
    return (-1.0) ** ones(slot[:, None] & slot) / math.sqrt(half)


def sector_states(nq, parity):
    """The X-basis states of one parity sector, in slot order."""
    return [x for x in range(2 ** nq) if bin(x).count("1") % 2 == parity]


def folded_mirror(nq, parity):
    """The mirror k <-> N+1-k on one sector, by bit reversal of each state, folded."""
    slot = {x: i for i, x in enumerate(sector_states(nq, parity))}
    r = np.zeros((len(slot), len(slot)))
    for x, i in slot.items():
        r[slot[int(format(x, f"0{nq}b")[::-1], 2)], i] = 1.0
    return walsh(len(slot)) @ r @ walsh(len(slot))


def folded_hamiltonian(nq, jp, parity):
    """H'' = -sum Z_k - J' sum X_k X_{k+1} on one sector of the X basis, folded."""
    slot = {x: i for i, x in enumerate(sector_states(nq, parity))}
    h = np.diag([2.0 * bin(x).count("1") - nq for x in slot])
    for x, i in slot.items():
        for k in range(nq - 1):
            h[i, slot[x ^ (3 << k)]] -= jp
    return walsh(len(slot)) @ h @ walsh(len(slot))


def dense_factors(p):
    """(lam_e, V_e, lam_o, V_o, W), V folded and in Walsh index order, rebuilt from the
    mirror blocks.  A block holds V's rows at each pair's first member and at the fixed
    points, R = +1 columns first; a partner's row is its first member's times the mirror
    sign s in the R = +1 columns and times -s in the R = -1 ones, and s = -1 only on the
    last `neg` pairs of the odd sector."""
    order, (m, neg), sectors, w = oracle._sector_factors(p)
    half, out = len(order), []
    for parity, (lam, up, um) in enumerate(sectors):
        n = len(up)
        s = np.repeat([1.0, -1.0 if parity else 1.0], [m - neg, neg])[:, None]
        v = np.zeros((half, half))
        v[order[:m], :n], v[order[:m], n:] = up[:m], um[:m]
        v[order[m:2 * m], :n], v[order[m:2 * m], n:] = s * up[:m], -s * um[:m]
        v[order[2 * m:m + n], :n], v[order[m + n:], n:] = up[m:], um[m:]
        out += [lam, v]
    return (*out, w)


class TestMirrorBlocks:
    """The mirror R: k <-> N+1-k commutes with H'' and the parity, so each sector
    splits into R = +1 and R = -1 blocks, each diagonalised on its own."""

    @pytest.mark.parametrize("nq", range(1, 11))
    def test_folded_mirror_is_a_signed_permutation(self, nq):
        order, (m, neg), sectors, _ = oracle._sector_factors(ChainParams(nq, 0.5))
        perms = []
        for parity, (_, up, _) in enumerate(sectors):
            r = folded_mirror(nq, parity)
            assert np.all((np.abs(r) < 1e-12) | (np.abs(np.abs(r) - 1.0) < 1e-12))
            assert np.all(np.count_nonzero(np.abs(r) > 0.5, axis=0) == 1)
            perms.append(np.argmax(np.abs(r), axis=0))
            sign = np.sign(r[perms[-1], np.arange(len(r))])
            if parity == 0:
                assert np.all(sign == 1.0)
            # the pair order: partners are each other's image; R's sign is -1 only on the
            # odd sector's last `neg` pairs and on its fixed points past the R = +1 block
            n = len(up)
            first, partner, fixed = order[:m], order[m:2 * m], order[2 * m:]
            assert np.array_equal(perms[-1][first], partner)
            assert np.array_equal(perms[-1][partner], first)
            assert np.array_equal(perms[-1][fixed], fixed)
            odd_signs = np.repeat([1.0, 1.0 - 2.0 * parity], [m - neg, neg])
            assert np.array_equal(sign[first], odd_signs)
            assert np.array_equal(sign[fixed], np.repeat([1.0, -1.0], [n - m, len(fixed) - n + m]))
        assert np.array_equal(perms[0], perms[1])

    @pytest.mark.parametrize("nq", range(1, 11))
    def test_block_eigenpairs_satisfy_the_sector_hamiltonian(self, nq):
        jp = 0.7
        lam_e, v_e, lam_o, v_o, _ = dense_factors(ChainParams(nq, jp))
        order, (m, neg), sectors, _ = oracle._sector_factors(ChainParams(nq, jp))
        for parity, (lam, v, (_, up, _)) in enumerate(zip((lam_e, lam_o), (v_e, v_o), sectors)):
            n = len(up)
            h, r = folded_hamiltonian(nq, jp, parity), folded_mirror(nq, parity)
            assert np.max(np.abs(h @ v - v * lam)) <= 1e-13
            assert np.max(np.abs(r @ v[:, :n] - v[:, :n]), initial=0.0) <= 1e-13
            assert np.max(np.abs(r @ v[:, n:] + v[:, n:]), initial=0.0) <= 1e-13

    @pytest.mark.parametrize("nq", [1, 3, 5, 7, 9])
    def test_odd_blocks_are_the_chiral_images(self, nq):
        p = ChainParams(nq, 1.3)
        _, _, ((lam_e, up_e, um_e), (lam_o, up_o, um_o)), _ = oracle._sector_factors(p)
        # C commutes with R at odd N: blocks of one size, the spectrum negated, and each
        # odd column in the mirror block of its even original
        assert up_o.shape == up_e.shape and um_o.shape == um_e.shape
        assert np.array_equal(lam_o, -lam_e)
        _, _, _, v_o, _ = dense_factors(p)
        n, r = len(up_o), folded_mirror(nq, 1)
        assert np.max(np.abs(r @ v_o[:, :n] - v_o[:, :n])) <= 1e-13
        assert np.max(np.abs(r @ v_o[:, n:] + v_o[:, n:]), initial=0.0) <= 1e-13
        h = folded_hamiltonian(nq, 1.3, 1)
        assert np.max(np.abs(h @ v_o + v_o * lam_e)) <= 1e-13

    @pytest.mark.parametrize("nq", [6, 7])
    def test_underflowing_coupling_is_zero(self, nq, monkeypatch):
        # J'^2 below the smallest normal: no entry whose square underflows reaches eigh,
        # and the grid is the J' = 0 grid, bit for bit
        smallest = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            smallest.append(np.min(np.abs(a[a != 0.0]), initial=np.inf))
            return eigh(a, *args, **kwargs)

        oracle._sector_factors.cache_clear()
        monkeypatch.setattr(oracle.np.linalg, "eigh", recording_eigh)
        ss = np.linspace(0.0, 3.0, 13)
        tiny = lr_direct_grid(ChainParams(nq, 1e-300), range(1, nq + 1), ss)
        assert smallest and min(smallest) ** 2 >= np.finfo(float).tiny
        assert np.array_equal(tiny, lr_direct_grid(ChainParams(nq, 0.0), range(1, nq + 1), ss))


class TestChiralImage:
    """At odd N, C = prod_{k odd} Y_k prod_{k even} X_k flips every bit and sends
    H'' = -sum Z_k - J' sum X_k X_{k+1} to -H'': the odd factor is the even one's image."""

    def test_odd_chain_diagonalises_one_sector(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        oracle._sector_factors.cache_clear()
        monkeypatch.setattr(oracle.np.linalg, "eigh", counting_eigh)
        lr_direct_grid(ChainParams(7, 0.7), range(1, 8), np.linspace(0.0, 3.0, 13))
        assert calls == [(36, 36), (28, 28)]

    @pytest.mark.parametrize("nq,jp", [(1, 0.5), (3, 1.0), (5, 0.0), (7, 0.7), (9, 2.5)])
    def test_odd_factor_is_the_chiral_image(self, nq, jp):
        lam_e, v_e, lam_o, v_o, w = dense_factors(ChainParams(nq, jp))
        half = len(v_e)
        # H'' on the whole space from Kronecker products, restricted to the odd sector
        h = np.zeros((2 ** nq, 2 ** nq), dtype=complex)
        for k in range(nq):
            h -= kron_chain(["Z" if j == k else "I" for j in range(nq)])
        for k in range(nq - 1):
            h -= jp * kron_chain(["X" if j in (k, k + 1) else "I" for j in range(nq)])
        odd = np.flatnonzero(ones(np.arange(2 ** nq)) % 2)
        h_odd = h[np.ix_(odd, odd)].real
        slot = np.arange(half)
        walsh = (-1.0) ** ones(slot[:, None] & slot) / math.sqrt(half)   # its own inverse
        u_o = walsh @ v_o
        assert np.array_equal(lam_o, -lam_e)
        assert np.max(np.abs(h_odd @ u_o + u_o * lam_e)) <= 1e-13
        # after the fold the image is a signed permutation: v_o[w] = (-1)^|w| v_e[w ^ b],
        # b the even slot bits (0b1010101 at N = 9)
        b = sum(1 << j for j in range(0, nq - 1, 2))
        assert np.array_equal(v_o, (-1.0) ** ones(slot)[:, None] * v_e[slot ^ b])
        # so W = V_e^T X_1 V_o is symmetric at N = 1 (mod 4), antisymmetric at N = 3 (mod 4)
        assert np.max(np.abs(w - (-1) ** (nq // 2) * w.T)) <= 1e-14

    @pytest.mark.parametrize("jp", [0.5, 2.5])
    def test_odd_grid_matches_full_space_evolution(self, jp):
        p = ChainParams(7, jp)
        ss = np.linspace(0.0, 3.0, 7)
        grid = lr_direct_grid(p, range(1, 8), ss)
        h = build_hamiltonian(p)
        z1 = pauli_string_matrix(PauliString.from_str("ZIIIIII"))
        for j, s in enumerate(ss):
            z1t = heisenberg_evolve(z1, h, float(s))
            for k in range(1, 8):
                full = frobenius_norm(commutator_with_z(p, k, z1t))
                assert abs(grid[k - 1, j] - full) <= 1e-13
