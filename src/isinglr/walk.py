"""Operator Pauli-walk evaluation of the correlation function, linear in N.

Commuting H' repeatedly with Z_1 only ever produces 2N Pauli strings, ordered
in per-qubit pairs (X_1..X_{j-1} Z_j, X_1..X_{j-1} Y_j).  The iterated
commutator coefficients are walk sums on a graph whose adjacency matrix is
A = 2i A' with A' real, skew-symmetric, tridiagonal, and superdiagonal
alternating (1, J', 1, J', ...).  The correlation function reduces to the
first row of an orthogonal matrix,

    C_k(s) = 2 sqrt( sum_{m >= 2k} r_m^2 ),   r = row 1 of exp(-2 pi s A').

In double precision the row comes from the eigendecomposition of the
equivalent real symmetric tridiagonal matrix (phase-conjugating A' by
diag(i^m) makes i A' real symmetric), exact orthogonality by construction.
That matrix has a zero diagonal, so in even/odd node order it is
[[0, B], [B^T, 0]] with B an N x N bidiagonal block, whose singular triplets
are the open chain's exact modes (Lieb, Schultz & Mattis 1961; Pfeuty 1970),
written down in O(N^2) with no dense factorization (see `_eig_factor`).
Up to time s the row is nonzero in double precision only inside the light
cone, the first ~2 pi s (1 + J') nodes, so only that prefix of the chain is
factorized and the cost at short times does not grow with N.

A second route evaluates the row in arbitrary precision for the deep tail,
where values fall below anything representable in doubles.  It runs in
Python-integer fixed point with one scale per node: entry m is the integer
R_m = r_m 2^(P + e_m), where P covers the requested digits plus 10 guard
digits and 32 guard bits.  After every step e_m >= 0 is -log2 of the row's
envelope max_{j >= m} |r_j|, so it never decreases with m; the first step
from s = 0 takes it from the leading Taylor term (2 pi s)^m c_0..c_{m-1} / m!
instead.  Each Taylor step runs at the scales of the row it starts from, and
the series stops when every node's term rounds to zero at its own scale.

Error model: every rounding is at most half a unit of its node's scale, and
the step weights carry 32 more bits than the row, so each step adds to r_m
an error of about 2^-P times the envelope max_{j >= m} |r_j| at the start of
that step, times the number of Taylor terms.  Ahead of the front, where
|r_m| falls with m and grows with s, that is a relative error per node,
down to any magnitude, and each C_k = 2 sqrt(sum_{m >= 2k-1} r_m^2) has a
relative error of the same order.  Behind the front, where entries
oscillate, the error stays that of the largest envelope met along the way,
as in any fixed-precision evaluation.  Rows step along a lattice of
power-of-two steps h with 2 pi h (1 + J') <= 16, and each output time takes
one partial step from the lattice point below it, so a value depends only
on (N, J', s, digits).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .params import (
    ChainParams,
    GuardError,
    ValidationError,
    validate_params,
    validate_qubit_index,
    validate_times,
)
from .oracle import PauliString

#: Largest double-precision walk grid, in float entries, that is allocated:
#: (2q)^2 for the factor of the light-cone prefix plus one (n_s, 2N) row
#: array (several such arrays are live at once).  The factor, the open q-qubit
#: chain's exact modes built in O(q^2), is two q x q halves: the (2q)^2 term
#: over-counts it by 2x, so the budget refuses the grids that a full tridiagonal
#: eigendecomposition would.  The largest benchmark grid, N = 1000 out to
#: s = 101 on 201 times, needs 1.7e6.
MAX_GRID_ENTRIES = 2 ** 24
#: Largest arbitrary-precision row work, Taylor steps x 2N nodes, that is
#: started; the deep N = 200, J' = 2, s = 30 light cone needs 61 x 400.
MAX_HIGHPREC_WORK = 2 ** 18
#: Largest generator norm 2 pi h (1 + J') of one step of the row lattice.
_LATTICE_NORM = 16.0
#: Fixed-point bits of a row beyond its digits + 10 guard digits.
_GUARD_BITS = 32
#: Extra bits of the step weights: the e^16 growth of Taylor terms, and more.
_WEIGHT_GUARD_BITS = 32


def relevant_strings(p: ChainParams) -> tuple:
    """The ordered closed set of 2N Pauli strings reachable from Z_1: pairs
    (X_1..X_{j-1} Z_j, X_1..X_{j-1} Y_j) for j = 1..N, in node order."""
    validate_params(p)
    nq = p.n_qubits
    out = []
    for j in range(1, nq + 1):
        prefix = ["X"] * (j - 1)
        suffix = ["I"] * (nq - j)
        out.append(PauliString(tuple(prefix + ["Z"] + suffix)))
        out.append(PauliString(tuple(prefix + ["Y"] + suffix)))
    return tuple(out)


def _superdiagonal(p: ChainParams) -> np.ndarray:
    c = np.empty(p.n_nodes - 1)
    c[0::2] = 1.0
    c[1::2] = p.j_coupling
    return c


def build_adjacency(p: ChainParams) -> np.ndarray:
    """A' = A / (2i): the real, skew-symmetric, tridiagonal walk-graph matrix,
    read-only."""
    validate_params(p)
    c = _superdiagonal(p)
    m = np.diag(c, 1) - np.diag(c, -1)
    m.setflags(write=False)
    return m


def walk_coefficients(p: ChainParams, n: int) -> np.ndarray:
    """First row of A^n = (2i A')^n: summed weight products of length-n walks.

    Entry m (0-based) is the coefficient of the (m+1)-th relevant string in
    the n-fold iterated commutator of H' with Z_1.  Exact in floats for the
    moderate n these coefficients are useful for (entries are dyadic-rational
    polynomials in J').
    """
    validate_params(p)
    if not isinstance(n, int) or n < 0:
        raise ValidationError(f"walk length must be a nonnegative integer, got {n!r}")
    c = _superdiagonal(p)
    v = np.zeros(p.n_nodes)
    v[0] = 1.0
    for _ in range(n):
        v = _times_adjacency(v, c)
    return (2j) ** n * v


def _times_adjacency(v: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Row vector v times the skew tridiagonal matrix with superdiagonal c."""
    out = np.zeros_like(v)
    out[1:] += v[:-1] * c
    out[:-1] -= v[1:] * c
    return out


def _light_cone_qubits(p: ChainParams, s_max: float) -> int:
    """Qubits of the chain prefix that determines the rows up to time s_max.

    exp(-2 pi s A') = J_0(y) + 2 sum_j J_j(y) P_j(K) with y = 2 pi s (1 + J'),
    K = A'/(1 + J') and ||P_j(K)|| <= 1, and row 1 of P_j(K) involves only
    the first j + 1 nodes.  The Bessel coefficients fall below double
    precision past order y + 14 y^(1/3) + 40, so a chain cut after that many
    nodes gives the same row.  Rounding up to 32 qubits lets nearby grids and
    bisection steps share one cached factorization.
    """
    y = 2.0 * math.pi * s_max * (1.0 + p.j_coupling)
    nodes = y + 14.0 * max(y, 1.0) ** (1.0 / 3.0) + 40.0
    return min(p.n_qubits, 32 * math.ceil(nodes / 64.0))


def _bulk_phases(q: int, jp: float) -> np.ndarray:
    """psi_j = arg(J' + e^{i k_j}) of the modes j = 1..q-1 of `_eig_factor`: the
    root on [0, pi] of psi = arg(J' - e^{-i eps}), eps = pi - k = (pi (q - j) +
    psi)/q, by Newton steps kept inside a shrinking bracket."""
    j = np.arange(1, q)
    lo, hi, psi = np.zeros(q - 1), np.full(q - 1, math.pi), np.full(q - 1, math.pi / 2)
    for _ in range(100):
        eps = (math.pi * (q - j) + psi) / q
        h = 2.0 * np.sin(eps / 2) ** 2                          # 1 - cos(eps), no cancellation
        g = np.arctan2(np.sin(eps), jp - 1.0 + h) - psi
        lo, hi = np.where(g > 0.0, psi, lo), np.where(g > 0.0, hi, psi)
        step = psi + g / (1.0 + (1.0 - jp + jp * h) / (q * ((1.0 - jp) ** 2 + 2.0 * jp * h)))
        inside = (lo <= step) & (step <= hi)
        if inside.all() and np.max(np.abs(step - psi), initial=0.0) < 1e-10:
            return step
        psi = np.where(inside, step, (lo + hi) / 2)
    return psi


def _edge_root(q: int, jp: float) -> float:
    """t = (pi - k)^2 of the mode nearest k = pi, by bisection: Pfeuty's condition
    at k = pi - e over e, S(q + 1) = J' S(q) with S(m) = sin(e m)/e, has a simple
    root in t, negative past J' = 1 + 1/q (the edge mode, S(m) = sinh(|e| m)/|e|).
    S(q + 1) - S(q) is taken in product form; the residual is scaled to stay finite."""
    lo, hi = (-math.log(jp) ** 2 if jp > 1.0 else 0.0), (math.pi / (q + 0.5)) ** 2
    for _ in range(100):
        t = (lo + hi) / 2
        r, f = math.sqrt(abs(t)), 1.0 - (jp - 1.0) * q                 # f at t = 0
        if t > 0.0:
            f = 2.0 * math.cos(r * (q + 0.5)) * math.sin(r / 2) - (jp - 1.0) * math.sin(r * q)
        elif t < 0.0:
            f = (-math.expm1(-r) * (1.0 + math.exp(-r * (2 * q + 1)))
                 + (jp - 1.0) * math.expm1(-2.0 * r * q) * math.exp(-r))
        lo, hi = (t, hi) if f >= 0.0 else (lo, t)
    return (lo + hi) / 2


@functools.lru_cache(maxsize=1)
def _eig_factor(p: ChainParams):
    """Spectral factorization of i A' from the exact modes of the open chain.

    Conjugated by diag(i^m), i A' is the real symmetric tridiagonal matrix
    T = [[0, B], [B^T, 0]] in even/odd node order, B lower bidiagonal
    (diagonal 1, subdiagonal J').  If B = U diag(sigma) V^T, T has eigenpairs
    +-sigma_j, (u_j, +-v_j)/sqrt(2) (Golub & Kahan 1965), so row 1 of
    exp(-2 pi s A') is (-1)^n sum_j u_0j u_nj cos(2 pi s sigma_j) at node 2n
    and -(-1)^n sum_j u_0j v_nj sin(2 pi s sigma_j) at node 2n + 1.

    The singular triplets are the open chain's exact modes (Lieb, Schultz &
    Mattis 1961; Pfeuty 1970), built in O(q^2): u_n = sin(k n + psi),
    v_n = sin(k (n + 1)), sigma = |1 + J' e^{ik}|, psi = arg(J' + e^{ik}) and
    k = (pi j - psi)/q, j = 1..q.  Phases m (k + pi) = pi ((j + q) m mod 2q)/q
    - psi m/q are reduced in exact integers, so no entry loses q ulps.  Mode
    q, nearest k = pi, is (-1)^n (S(q - n), S(n + 1)) in the variable t of
    `_edge_root`, continuous where it meets k = pi at J' = 1 + 1/q and turns
    into the edge mode, whose sigma is 1/prod(other sigma) as |det B| = 1.
    Returns sigma and the signed halves of the two sums, rows indexed by j.
    """
    q, jp = p.n_qubits, p.j_coupling
    psi, t, n = _bulk_phases(q, jp), _edge_root(q, jp), np.arange(q + 1)
    y = np.multiply.outer(np.arange(q + 1, 2 * q), n) % (2 * q) * (math.pi / q)
    y -= np.multiply.outer(psi, n / q)
    even, odd = np.sin(y[:, :-1] + psi[:, None]), np.sin(y[:, 1:])   # (-1)^n u_n, -(-1)^n v_n
    norm_u, norm_v = np.einsum("jn,jn->j", even, even), np.einsum("jn,jn->j", odd, odd)
    even *= (np.sin(psi) / norm_u)[:, None]
    odd *= (np.sin(psi) / np.sqrt(norm_u * norm_v))[:, None]
    r = math.sqrt(abs(t))
    eps = np.append((math.pi * (q - n[1:-1]) + psi) / q, r)
    sigma = np.hypot(1.0 - jp, 2.0 * math.sqrt(jp) * np.sin(eps / 2))
    if t < 0.0:                                    # S(1..q) scaled by e^(-r (q + 1))
        edge = -np.expm1(-2.0 * r * n[1:]) * np.exp(r * (n[1:] - q - 1)) / (2.0 * r)
        sigma[-1] = np.prod(1.0 / sigma[:-1])
    else:
        edge = n[1:] * np.sinc(r * n[1:] / math.pi)
    edge *= edge[-1] / np.dot(edge, edge)
    return sigma, np.vstack([even, edge[::-1]]), np.vstack([odd, -edge])


def _rows_eig(p: ChainParams, ss: np.ndarray) -> np.ndarray:
    """exp(-2 pi s A') first rows for each s, shape (n_s, 2N).

    Only the light-cone prefix of the chain is factorized; entries past it
    are zero.
    """
    q = _light_cone_qubits(p, float(np.max(ss, initial=0.0)))
    entries = (2 * q) ** 2 + len(ss) * p.n_nodes
    if entries > MAX_GRID_ENTRIES:
        raise GuardError(
            f"a walk grid of {len(ss)} times x {p.n_nodes} nodes on a {q}-qubit light "
            f"cone needs {entries} entries, above the budget {MAX_GRID_ENTRIES}")
    sigma, even, odd = _eig_factor(ChainParams(q, p.j_coupling))
    theta = np.multiply.outer(2.0 * np.pi * ss, sigma)
    rows = np.zeros((len(ss), p.n_nodes))
    rows[:, 0:2 * q:2] = np.cos(theta) @ even
    rows[:, 1:2 * q:2] = np.sin(theta) @ odd
    return rows


def exp_first_row(p: ChainParams, s: float) -> np.ndarray:
    """Row 1 of exp(-2 pi s A'); a unit vector since the matrix is orthogonal."""
    validate_params(p)
    ss = validate_times([s])
    if ss[0] == 0.0:
        row = np.zeros(p.n_nodes)
        row[0] = 1.0
        return row
    return _rows_eig(p, ss)[0]


def _tail_correlations(rows: np.ndarray) -> np.ndarray:
    """C values for every k from exponential rows: 2 sqrt(tail sums of r^2)."""
    tail = np.cumsum((rows ** 2)[:, ::-1], axis=1)[:, ::-1]
    return 2.0 * np.sqrt(tail)


def lr_walk_grid(p: ChainParams, ks, ss) -> np.ndarray:
    """C_k(s) for qubit list `ks` and time array `ss`, shape (len(ks), len(ss))."""
    validate_params(p)
    ks = [validate_qubit_index(p, k) for k in ks]
    ss = validate_times(ss)
    c_all = _tail_correlations(_rows_eig(p, ss))   # (n_s, 2N), column m = tail from m
    out = c_all[:, [2 * k - 1 for k in ks]].T
    out[:, ss == 0.0] = 0.0
    return out


def lr_walk(p: ChainParams, k: int, s: float) -> float:
    """C_k(s) from the walk method: 2 sqrt(sum_{m >= 2k} r_m^2)."""
    return float(lr_walk_grid(p, [k], [s])[0, 0])


# ---------------------------------------------------------------------------
# arbitrary-precision route


def _check_digits(digits: int) -> None:
    if digits < 16:
        raise ValidationError(f"precision must be >= 16 digits, got {digits}")


def _lattice_step(p: ChainParams) -> float:
    """Power-of-two time step h of the row lattice, with 2 pi h (1 + J') <= 16."""
    _, exponent = math.frexp(_LATTICE_NORM / (2.0 * math.pi * (1.0 + p.j_coupling)))
    return math.ldexp(1.0, exponent - 1)


def _substeps(p: ChainParams, s_max: float) -> int:
    """Taylor steps that reach s_max: whole lattice steps plus one partial step.

    Every step costs 2N big-integer products per Taylor term, so a work
    budget refuses long times up front.
    """
    steps = math.floor(s_max / _lattice_step(p)) + 1
    if steps * p.n_nodes > MAX_HIGHPREC_WORK:
        raise GuardError(
            f"{steps} steps x {p.n_nodes} nodes exceeds the arbitrary-precision "
            f"work budget {MAX_HIGHPREC_WORK}")
    return steps


def _row_bits(digits: int) -> int:
    """Fixed-point bits P: digits + 10 guard digits, plus guard bits."""
    return math.ceil((digits + 10) * math.log2(10.0)) + _GUARD_BITS


def _round_shift(x: int, d: int) -> int:
    """x 2^d rounded to the nearest integer."""
    if d >= 0:
        return x << d
    return (x + (1 << (-d - 1))) >> -d


def _scale_exponents(neg_log2: np.ndarray) -> list:
    """Node exponents max(0, floor(x_m)), made nondecreasing in m.

    An infinite x marks a node that is exactly zero together with every node
    past it (a zero coupling before it); it takes the exponent before it.
    """
    e = np.where(np.isfinite(neg_log2), np.maximum(np.floor(neg_log2), 0.0), 0.0)
    return np.maximum.accumulate(e).astype(int).tolist()


def _leading_exponents(p: ChainParams, tau: float) -> list:
    """Exponents -log2 L_m(tau) of the leading Taylor terms.

    L_m(tau) = (2 pi tau)^m c_0 ... c_{m-1} / m! is the walk straight from
    node 0 to node m, which dominates r_m(tau) ahead of the light cone.
    """
    m = np.arange(p.n_nodes)
    with np.errstate(divide="ignore"):
        log_c = np.cumsum(np.log2(_superdiagonal(p)))
    log_fact = np.cumsum(np.log2(m[1:]))
    log_lead = m * math.log2(2.0 * math.pi * tau)
    log_lead[1:] += log_c - log_fact
    return _scale_exponents(-log_lead)


def _envelope_exponents(row: np.ndarray, e: list, bits: int) -> list:
    """Exponents -log2 max_{j >= m} |r_j| of a fixed-point row's own envelope."""
    log_r = np.array([float(r.bit_length() - bits - x) if r else -math.inf
                      for r, x in zip(row, e)])
    return _scale_exponents(-np.maximum.accumulate(log_r[::-1])[::-1])


def _step_weights(p: ChainParams, e: list, h: float, wbits: int):
    """Fixed-point weights of one Taylor step on a row with node scales e.

    Node m enters node m + 1 with weight 2 pi h c_m 2^(wbits + e_m+1 - e_m)
    and node m + 1 enters node m with 2 pi h c_m 2^(wbits + e_m - e_m+1).
    Each is returned as an integer with wbits + 16 significant bits and a
    right shift to apply to its product, so no weight loses bits however far
    the scales of neighbours differ.  Returns ((left, shift), (right, shift)).
    """
    import mpmath

    q = wbits + 16
    pi_q = mpmath.libmp.pi_fixed(q)
    base = {}
    h_num, h_den = h.as_integer_ratio()
    for c in {1.0, p.j_coupling}:
        c_num, c_den = c.as_integer_ratio()                         # h c is exact
        mant = pi_q * h_num * c_num                                 # 2 pi h c 2^wbits
        exp = wbits + 2 - q - (h_den * c_den).bit_length()
        trim = max(0, mant.bit_length() - q)
        base[c] = (_round_shift(mant, -trim), exp + trim)
    couplings, drop = _superdiagonal(p).tolist(), np.diff(e).tolist()

    def weights(sign):
        exps = [base[c][1] + sign * d for c, d in zip(couplings, drop)]
        return (np.array([base[c][0] << max(x, 0) for c, x in zip(couplings, exps)], dtype=object),
                np.array([max(-x, 0) for x in exps], dtype=object))

    return weights(1), weights(-1)


def _taylor_step(p: ChainParams, row: np.ndarray, e: list, h: float, bits: int) -> np.ndarray:
    """A fixed-point row times exp(-2 pi h A'), at the row's own node scales.

    Terms are added until every node's term rounds to zero at its scale.
    """
    wbits = bits + _WEIGHT_GUARD_BITS
    (left, left_shift), (right, right_shift) = _step_weights(p, e, h, wbits)
    acc, term, order = row.copy(), row, 1
    while True:
        # term_m = -(2 pi h / order) (term_m-1 c_m-1 - term_m+1 c_m), rounded
        u = np.empty_like(term)
        u[:-1] = (right * term[1:]) >> right_shift
        u[-1] = 0
        u[1:] -= (left * term[:-1]) >> left_shift
        term = (((u >> (wbits - 1)) // order) + 1) >> 1
        if not term.any():
            return acc
        acc += term
        order += 1


def _advance(p: ChainParams, row: tuple, tau0: float, h: float, bits: int) -> tuple:
    """Step a fixed-point row (R, e) from tau0 to tau0 + h.

    The step runs at the scales of the row it starts from, so no bit of that
    row is rounded away first; the first step, from s = 0, runs at the
    leading-term scales of its end time.  The result is then rescaled to its
    own envelope.
    """
    r, e = row
    if tau0 == 0.0:
        e = _leading_exponents(p, h)    # the start row is exactly node 0
    acc = _taylor_step(p, r, e, h, bits)
    e_new = _envelope_exponents(acc, e, bits)
    return (np.array([_round_shift(x, b - a) for x, a, b in zip(acc, e, e_new)], dtype=object),
            e_new)


def _fixed_rows(p: ChainParams, times, bits: int):
    """(s, R, e) for each distinct time, ascending: R_m = r_m 2^(bits + e_m).

    One row walks the lattice of `_lattice_step` steps from s = 0, and each
    time takes one partial step from the lattice point below it, so a row
    depends only on (p, s, bits) and not on the other times asked for.
    """
    h0 = _lattice_step(p)
    start = np.zeros(p.n_nodes, dtype=object)
    start[0] = 1 << bits
    row, point = (start, [0] * p.n_nodes), 0
    for s in sorted(set(times)):
        below = math.floor(s / h0)
        while point < below:
            row = _advance(p, row, point * h0, h0, bits)
            point += 1
        part = math.fmod(s, h0)
        yield (s, *(_advance(p, row, below * h0, part, bits) if part else row))


def _tail_sums(row: np.ndarray, e: list) -> list:
    """sum_{j >= m} R_j^2 for every m, each at node m's scale 2^(2 (bits + e_m))."""
    out = [0] * len(row)
    acc, e_next = 0, e[-1]
    for m in range(len(row) - 1, -1, -1):
        acc = (acc >> 2 * (e_next - e[m])) + row[m] * row[m]
        out[m], e_next = acc, e[m]
    return out


def exp_first_row_highprec(p: ChainParams, s: float, digits: int = 60) -> np.ndarray:
    """Row 1 of exp(-2 pi s A') in arbitrary precision.

    Built in scaled integer fixed point (see the module docstring), with 10
    guard digits; returns an object array of mpmath floats.
    """
    import mpmath as mp

    validate_params(p)
    _check_digits(digits)
    (s,) = validate_times([s])
    _substeps(p, s)
    bits = _row_bits(digits)
    ((_, row, e),) = _fixed_rows(p, [s], bits)
    with mp.workdps(digits + 10):
        return np.array([mp.mpf((r, -(bits + x))) for r, x in zip(row, e)], dtype=object)


def lr_walk_grid_highprec(p: ChainParams, ks, ss, digits: int = 60) -> np.ndarray:
    """C_k(s) in arbitrary precision, shape (len(ks), len(ss)), mpmath floats.

    One fixed-point row per distinct time serves every k, as the tail sums
    of its squares; the rows step once along the time lattice.  All inputs,
    and the work budget at the largest time, are checked before the first
    row is built.
    """
    import mpmath as mp

    validate_params(p)
    ks = [validate_qubit_index(p, k) for k in ks]
    _check_digits(digits)
    ss = validate_times(ss)
    _substeps(p, float(np.max(ss, initial=0.0)))
    bits = _row_bits(digits)
    out = np.empty((len(ks), len(ss)), dtype=object)
    with mp.workdps(digits + 10):
        for s, row, e in _fixed_rows(p, ss.tolist(), bits):
            tails = _tail_sums(row, e)
            column = [2 * mp.sqrt(mp.mpf((tails[2 * k - 1], -2 * (bits + e[2 * k - 1]))))
                      for k in ks]
            out[:, ss == s] = np.array(column, dtype=object).reshape(-1, 1)
    return out


def lr_walk_highprec(p: ChainParams, k: int, s: float, digits: int = 60):
    """C_k(s) by the walk method in arbitrary precision; returns an mpmath float.

    Needed wherever the correlation function falls below ~1e-14: double
    precision cannot resolve the tail of the exponential row there.
    """
    return lr_walk_grid_highprec(p, [k], [s], digits)[0, 0]
