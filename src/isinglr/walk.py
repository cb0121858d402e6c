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
factorized and the cost at short times does not grow with N.  A grid builds
rows on that prefix a block of times at a time and keeps only the tail sums
asked for, so it holds one block plus its answer, whatever N and the times.
At s = 0 the row is the exact unit row, so C_k(0) = 0 comes from the row itself.
A row is q-term cosine and sine sums of the phases 2 pi s sigma_j; in a block
of evenly spaced times each phase is an anchor's plus an offset's, from two
tables of about sqrt(n_s) rows joined by angle addition.  That and the BLAS
blocking of the row products round with the grid, so a double cell may differ
in its last bits with the grid it is computed in.

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
on (N, J', s, digits).  Each C_k(s) is read off an integer tail sum T at a
scale 2^(-2 e) and rounded once to a double, as 2 sqrt(T 2^(-2 e)) or as its
log10 (ln T by an integer atanh series), in integer arithmetic alone; only
the functions that return mpmath floats import mpmath.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .params import (
    ChainParams,
    GuardError,
    ValidationError,
    validate_budget,
    validate_params,
    validate_phase,
    validate_qubit_index,
    validate_times,
)
from .oracle import PauliString

#: Row entries (times x 2q light-cone nodes) built at once by `lr_walk_grid`.
_GRID_BLOCK = 2 ** 17
#: Largest arbitrary-precision row work that is started: Taylor steps x 2N
#: nodes x max(1, digits/120)^2, as a node step costs about digits^2.4; the
#: deep N = 200, J' = 2, s = 30 light cone at 120 digits needs 61 x 400.
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
    nodes gives the same row.  Rounding up to 32 qubits lets nearby grids share
    one cached factorization.
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


def _angle_sums(coarse: np.ndarray, fine: np.ndarray) -> tuple:
    """cos and sin of coarse + fine, broadcast, by angle addition from the
    cosines and sines of the two tables alone (Tang, ACM TOMS 15 (1989) 144):
    tables of A and B angles give all A B sums for A + B sines and cosines."""
    cos_a, sin_a, cos_b, sin_b = np.cos(coarse), np.sin(coarse), np.cos(fine), np.sin(fine)
    cos, sin = cos_a * cos_b, sin_a * cos_b
    cos -= sin_a * sin_b
    sin += cos_a * sin_b
    return cos, sin


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
    - psi m/q are reduced in exact integers, so no entry loses q ulps, at the
    nodes m = a B and m = b < B, B = isqrt(q) + 1; `_angle_sums` joins them into
    every node's sin and cos, B modes at a time, from about 4 q^1.5 sines in all,
    and sin(k n + psi) is one more angle addition with cos psi and sin psi.  Mode
    q, nearest k = pi, is (-1)^n (S(q - n), S(n + 1)) in the variable t of
    `_edge_root`, continuous where it meets k = pi at J' = 1 + 1/q and turns
    into the edge mode, whose sigma is 1/prod(other sigma) as |det B| = 1.
    Returns sigma and the signed halves of the two sums, rows indexed by j.
    """
    q, jp = p.n_qubits, p.j_coupling
    psi, t, n = _bulk_phases(q, jp), _edge_root(q, jp), np.arange(q + 1)
    halves = np.empty((2, q, q))                   # bulk modes j = 1..q-1, then mode q
    even, odd = halves[0, :-1], halves[1, :-1]     # (-1)^n u_n, -(-1)^n v_n
    width = math.isqrt(q) + 1                      # nodes a width + b cover n = 0..q
    coarse, fine = (np.multiply.outer(np.arange(q + 1, 2 * q), m) % (2 * q) * (math.pi / q)
                    - np.multiply.outer(psi, m / q) for m in (n[::width], n[:width]))
    cos_psi, sin_psi = np.cos(psi)[:, None], np.sin(psi)[:, None]
    for j in range(0, q - 1, width):               # a block of modes at a time
        cos, sin = (x.reshape(len(x), -1) for x in
                    _angle_sums(coarse[j:j + width, :, None], fine[j:j + width, None, :]))
        odd[j:j + width] = sin[:, 1:q + 1]
        np.multiply(sin[:, :q], cos_psi[j:j + width], out=even[j:j + width])
        even[j:j + width] += cos[:, :q] * sin_psi[j:j + width]
    norm_u, norm_v = np.einsum("jn,jn->j", even, even), np.einsum("jn,jn->j", odd, odd)
    even *= sin_psi / norm_u[:, None]
    odd *= sin_psi / np.sqrt(norm_u * norm_v)[:, None]
    r = math.sqrt(abs(t))
    eps = np.append((math.pi * (q - n[1:-1]) + psi) / q, r)
    sigma = np.hypot(1.0 - jp, 2.0 * math.sqrt(jp) * np.sin(eps / 2))
    if t < 0.0:                                    # S(1..q) scaled by e^(-r (q + 1))
        edge = -np.expm1(-2.0 * r * n[1:]) * np.exp(r * (n[1:] - q - 1)) / (2.0 * r)
        sigma[-1] = np.prod(1.0 / sigma[:-1])
    else:
        edge = n[1:] * np.sinc(r * n[1:] / math.pi)
    edge *= edge[-1] / np.dot(edge, edge)
    halves[0, -1], halves[1, -1] = edge[::-1], -edge
    return sigma, halves[0], halves[1]


def _grid_factor(p: ChainParams, ss: np.ndarray, held: int) -> tuple:
    """The cached factor of the light-cone prefix for times `ss`, once the grid
    budget admits (2q)^2 factor entries plus the caller's `held` answer entries, and
    the largest phase 2 pi s sigma, sigma <= 1 + J', keeps a fractional digit."""
    s_max = float(np.max(ss, initial=0.0))
    validate_phase("walk", 2.0 * math.pi * s_max * (1.0 + p.j_coupling))
    q = _light_cone_qubits(p, s_max)
    entries = (2 * q) ** 2 + held
    validate_budget(entries, f"a walk grid of {len(ss)} times on a {q}-qubit light cone "
                             f"needs {entries} entries")
    return _eig_factor(ChainParams(q, p.j_coupling))


def _time_phases(ss: np.ndarray, sigma: np.ndarray) -> tuple:
    """cos and sin of 2 pi s sigma, each of shape (n_s, q).  At 32 or more times,
    each within 4 ulps of an anchor plus b steps, with an anchor every B ~ sqrt(n_s)
    times and b < B, they come from the anchors' and the offsets' tables by
    `_angle_sums`; linspace, arange and the CLI's decimal progressions qualify.
    Any other time list keeps the direct formula, bit for bit."""
    n = len(ss)
    if n >= 32:
        width = math.isqrt(n - 1) + 1
        offsets = np.arange(width) * ((ss[-1] - ss[0]) / (n - 1))
        grid = np.add.outer(ss[::width], offsets).ravel()[:n]
        if np.all(np.abs(ss - grid) <= 4.0 * np.spacing(ss)):
            return tuple(x.reshape(-1, len(sigma))[:n] for x in _angle_sums(
                np.multiply.outer(2.0 * np.pi * ss[::width], sigma)[:, None],
                np.multiply.outer(2.0 * np.pi * offsets, sigma)))
    theta = np.multiply.outer(2.0 * np.pi * ss, sigma)
    return np.cos(theta), np.sin(theta, out=theta)


def _cone_rows(factor: tuple, ss: np.ndarray) -> np.ndarray:
    """exp(-2 pi s A') first rows on the factor's 2q-node prefix, shape (n_s, 2q),
    the factor's sums over the cosines and sines of `_time_phases`; the row at
    s = 0 is the exact unit row, free of the factor's round-off."""
    sigma, even, odd = factor
    cos, sin = _time_phases(ss, sigma)
    rows = np.empty((len(ss), 2 * len(sigma)))
    rows[:, 0::2] = cos @ even
    rows[:, 1::2] = sin @ odd
    rows[ss == 0.0] = np.eye(1, rows.shape[1])     # exp(0) = I: the exact unit row
    return rows


def exp_first_row(p: ChainParams, s: float) -> np.ndarray:
    """Row 1 of exp(-2 pi s A'), a unit vector: the light-cone prefix's row, zero past it."""
    validate_params(p)
    ss = validate_times([s])
    row = _cone_rows(_grid_factor(p, ss, p.n_nodes), ss)[0]
    return np.pad(row, (0, p.n_nodes - len(row)))


def _tail_correlations(rows: np.ndarray) -> np.ndarray:
    """C values for every k from exponential rows, in place: 2 sqrt(tail sums of r^2)."""
    np.cumsum(np.square(rows, out=rows)[:, ::-1], axis=1, out=rows[:, ::-1])
    return np.multiply(np.sqrt(rows, out=rows), 2.0, out=rows)


def lr_walk_blocks(p: ChainParams, ks, ss):
    """`lr_walk_grid` a block of times at a time: yields (stop, out) after each
    block, `out` its one answer, final up to column `stop`, so a sweep may stop."""
    validate_params(p)
    nodes = np.array([2 * validate_qubit_index(p, k) - 1 for k in ks], dtype=int)
    ss = validate_times(ss)
    factor = _grid_factor(p, ss, len(nodes) * len(ss))
    inside = nodes < 2 * len(factor[0])
    out = np.zeros((len(nodes), len(ss)))
    step = max(1, _GRID_BLOCK // (2 * len(factor[0])))
    for i in range(0, len(ss) or 1, step):
        tails = _tail_correlations(_cone_rows(factor, ss[i:i + step]))
        out[inside, i:i + step] = tails[:, nodes[inside]].T
        yield min(i + step, len(ss)), out


def lr_walk_grid(p: ChainParams, ks, ss) -> np.ndarray:
    """C_k(s) for qubit list `ks` and time array `ss`, shape (len(ks), len(ss)).

    Rows are built over the light-cone prefix of q qubits, `_GRID_BLOCK // 2q`
    times at a time, and each block keeps only the tail columns of `ks`; a k
    past the prefix reads exactly 0, as its rows are exactly zero there.
    """
    for _, out in lr_walk_blocks(p, ks, ss):
        pass
    return out


def lr_walk(p: ChainParams, k: int, s: float) -> float:
    """C_k(s) from the walk method: 2 sqrt(sum_{m >= 2k} r_m^2)."""
    return float(lr_walk_grid(p, [k], [s])[0, 0])


# ---------------------------------------------------------------------------
# arbitrary-precision route


def _lattice_step(p: ChainParams) -> float:
    """Power-of-two time step h of the row lattice, with 2 pi h (1 + J') <= 16."""
    _, exponent = math.frexp(_LATTICE_NORM / (2.0 * math.pi * (1.0 + p.j_coupling)))
    return math.ldexp(1.0, exponent - 1)


def _substeps(p: ChainParams, s_max: float, partial: int = 1) -> float:
    """Taylor steps that reach s_max: whole lattice steps plus `partial` partial steps,
    counted in floats, which hold the count of any time (inf past the largest double)."""
    return float(s_max) // _lattice_step(p) + partial


def _row_bits(p: ChainParams, ss, digits: int, n_k: int = 1) -> tuple:
    """The fixed-point engine's one entry: checks digits >= 16, the times, the
    grid budget of an n_k x times answer and the work budget of every step,
    partial steps included, before any row is built; returns the times and
    P = digits + 10 guard digits, plus guard bits."""
    if digits < 16:
        raise ValidationError(f"precision must be >= 16 digits, got {digits}")
    ss, h = validate_times(ss), _lattice_step(p)
    validate_budget(n_k * len(ss), f"an arbitrary-precision grid of {n_k} qubits x {len(ss)} "
                                   f"times is {n_k * len(ss)} cells")
    steps = _substeps(p, max(ss, default=0.0), len({s for s in ss.tolist() if math.fmod(s, h)}))
    if steps * p.n_nodes * max(digits, 120) ** 2 > MAX_HIGHPREC_WORK * 120 ** 2:
        raise GuardError(
            f"{steps:.3g} steps x {p.n_nodes} nodes x max(1, {digits} digits/120)^2 exceeds "
            f"the arbitrary-precision work budget {MAX_HIGHPREC_WORK}")
    return ss, math.ceil((digits + 10) * math.log2(10.0)) + _GUARD_BITS


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


def _arctan_fixed(num: int, den: int, q: int, alternate: bool) -> int:
    """atan(z) 2^(q + 32) with `alternate` signs, or atanh(z) without, z = num/den,
    summed in integers with 32 guard bits (one unit of error per term)."""
    total, power, n, num2, den2 = 0, (num << (q + 32)) // den, 1, num * num, den * den
    while power:
        total += -(power // n) if alternate and n % 4 == 3 else power // n
        power, n = power * num2 // den2, n + 2
    return total


@functools.lru_cache(maxsize=1)
def _pi_fixed(q: int) -> int:
    """floor(pi 2^q) by Machin's formula, pi = 16 atan(1/5) - 4 atan(1/239)."""
    return (16 * _arctan_fixed(1, 5, q, True) - 4 * _arctan_fixed(1, 239, q, True)) >> 32


@functools.lru_cache(maxsize=1)
def _logs_fixed() -> tuple:
    """(ln 2, ln 100) 2^152: 2 atanh(1/3), and 2 (3 ln 2 + 2 atanh(1/9))."""
    ln2 = 2 * _arctan_fixed(1, 3, 120, False)
    return ln2, 6 * ln2 + 4 * _arctan_fixed(1, 9, 120, False)


def _step_weights(p: ChainParams, e: list, h: float, wbits: int):
    """Fixed-point weights of one Taylor step on a row with node scales e.

    Node m enters node m + 1 with weight 2 pi h c_m 2^(wbits + e_m+1 - e_m)
    and node m + 1 enters node m with 2 pi h c_m 2^(wbits + e_m - e_m+1).
    Each is returned as an integer with wbits + 16 significant bits and a
    right shift to apply to its product, so no weight loses bits however far
    the scales of neighbours differ.  Returns ((left, shift), (right, shift)).
    """
    q = wbits + 16
    pi_q = _pi_fixed(q)
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
    (s,), bits = _row_bits(p, [s], digits)
    ((_, row, e),) = _fixed_rows(p, [s], bits)
    with mp.workdps(digits + 10):
        return np.array([mp.mpf((r, -(bits + x))) for r, x in zip(row, e)], dtype=object)


def _tail_grid(p: ChainParams, ks, ss, digits: int) -> tuple:
    """Integer tail sums T and scales e of every cell, C_k(s) = 2 sqrt(T 2^(-2 e)).

    One fixed-point row per distinct time serves every k, as the tail sums
    of its squares.  All inputs, the grid budget and the work budget are
    checked before the first row is built.
    """
    validate_params(p)
    nodes = [2 * validate_qubit_index(p, k) - 1 for k in ks]
    ss, bits = _row_bits(p, ss, digits, len(nodes))
    tails, scales = np.empty((2, len(nodes), len(ss)), dtype=object)
    for s, row, e in _fixed_rows(p, ss.tolist(), bits):
        sums = _tail_sums(row, e)
        tails[:, ss == s] = np.array([sums[m] for m in nodes], dtype=object).reshape(-1, 1)
        scales[:, ss == s] = np.array([bits + e[m] for m in nodes], dtype=object).reshape(-1, 1)
    return tails, scales


def _sqrt_double(tail: int, scale: int) -> float:
    """2 sqrt(tail 2^(-2 scale)) rounded once to a double: an integer square root
    with 64 spare bits and a sticky bit, then a correctly rounded int / int."""
    g = max(0, 117 - tail.bit_length() // 2)
    root = math.isqrt(tail << 2 * g)
    return (root | (root * root != tail << 2 * g)) / (1 << (g + scale - 1))


def _log10_double(tail: int, scale: int) -> float:
    """log10 (2 sqrt(tail 2^(-2 scale))), -inf at 0, off by < 2^-100 before one int / int:
    ln tail = (k - 1) ln 2 + 2 atanh((t - 2^151)/(t + 2^151)), t the top 152 of its k bits."""
    if not tail:
        return -math.inf
    (ln2, ln100), k, half = _logs_fixed(), tail.bit_length(), 1 << 151
    t = _round_shift(tail, 152 - k)
    return ((k + 1 - 2 * scale) * ln2 + 2 * _arctan_fixed(t - half, t + half, 120, False)) / ln100


def lr_walk_grid_highprec(p: ChainParams, ks, ss, digits: int = 60) -> np.ndarray:
    """C_k(s) in arbitrary precision, shape (len(ks), len(ss)), mpmath floats."""
    import mpmath as mp

    tails, scales = _tail_grid(p, ks, ss, digits)
    with mp.workdps(digits + 10):
        cell = np.frompyfunc(lambda t, e: 2 * mp.sqrt(mp.mpf((t, -2 * e))), 2, 1)
        return cell(tails, scales)


def lr_walk_grid_doubles(p: ChainParams, ks, ss, digits: int = 60) -> tuple:
    """The grid of `lr_walk_grid_highprec`, each cell rounded once to a double
    from its integer tail sum, with no mpmath; returns (values, tails)."""
    tails, scales = _tail_grid(p, ks, ss, digits)
    return np.frompyfunc(_sqrt_double, 2, 1)(tails, scales).astype(float), tails


def lr_walk_grid_log10(p: ChainParams, ks, ss, digits: int = 60) -> np.ndarray:
    """log10 of the grid of `lr_walk_grid_doubles`, each cell rounded once, no mpmath."""
    return np.frompyfunc(_log10_double, 2, 1)(*_tail_grid(p, ks, ss, digits)).astype(float)


def lr_walk_highprec(p: ChainParams, k: int, s: float, digits: int = 60):
    """C_k(s) by the walk method in arbitrary precision; returns an mpmath float.

    Needed wherever the correlation function falls below ~1e-14: double
    precision cannot resolve the tail of the exponential row there.
    """
    return lr_walk_grid_highprec(p, [k], [s], digits)[0, 0]
