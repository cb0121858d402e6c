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
Up to time s the row is nonzero in double precision only inside the light
cone, the first ~2 pi s (1 + J') nodes, so only that prefix of the chain is
factorized and the cost at short times does not grow with N.

A second route evaluates the row in arbitrary-precision arithmetic for the
deep tail, where values fall below anything representable in doubles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .params import (
    ChainParams,
    GuardError,
    PrecisionUnavailableError,
    ValidationError,
    validate_params,
    validate_qubit_index,
    validate_times,
)
from .oracle import PauliString

#: Largest arbitrary-precision row work, Taylor substeps x 2N nodes, that is
#: started; the deep N = 200, J' = 2, s = 30 light cone needs 2048 x 400.
MAX_HIGHPREC_WORK = 2 ** 21


@dataclass(frozen=True)
class RelevantStrings:
    """The ordered closed set of 2N Pauli strings reachable from Z_1."""

    strings: tuple

    def __len__(self):
        return len(self.strings)

    def __getitem__(self, i):
        return self.strings[i]


def relevant_strings(p: ChainParams) -> RelevantStrings:
    """Pairs (X_1..X_{j-1} Z_j, X_1..X_{j-1} Y_j) for j = 1..N, in node order."""
    validate_params(p)
    nq = p.n_qubits
    out = []
    for j in range(1, nq + 1):
        prefix = ["X"] * (j - 1)
        suffix = ["I"] * (nq - j)
        out.append(PauliString(tuple(prefix + ["Z"] + suffix)))
        out.append(PauliString(tuple(prefix + ["Y"] + suffix)))
    return RelevantStrings(tuple(out))


def _superdiagonal(p: ChainParams) -> np.ndarray:
    c = np.empty(p.n_nodes - 1)
    c[0::2] = 1.0
    c[1::2] = p.j_coupling
    return c


@dataclass(frozen=True)
class WalkAdjacency:
    """A' = A / (2i): real, skew-symmetric, tridiagonal walk-graph matrix."""

    n_qubits: int
    coupling: float
    superdiagonal: tuple

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_qubits

    @property
    def matrix(self) -> np.ndarray:
        n = self.n_nodes
        m = np.zeros((n, n))
        c = np.asarray(self.superdiagonal)
        m[np.arange(n - 1), np.arange(1, n)] = c
        m[np.arange(1, n), np.arange(n - 1)] = -c
        m.setflags(write=False)
        return m

    def params(self) -> ChainParams:
        return ChainParams(self.n_qubits, self.coupling)


def build_adjacency(p: ChainParams) -> WalkAdjacency:
    validate_params(p)
    return WalkAdjacency(p.n_qubits, p.j_coupling, tuple(_superdiagonal(p)))


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
    """Row vector v times the skew tridiagonal matrix with superdiagonal c.

    Works for any dtype numpy can multiply elementwise, floats or object
    arrays of big floats alike.
    """
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


@functools.lru_cache(maxsize=32)
def _eig_factor(p: ChainParams):
    """Spectral factorization of i A' via the real symmetric tridiagonal twin.

    Conjugating by diag(i^m) turns i A' into the real symmetric tridiagonal
    matrix with the same superdiagonal, so row 1 of exp(-2 pi s A') is
    Re(i^m sum_j V_0j V_mj e^{2 pi i s lam_j}): a cosine sum with sign
    (-1)^(m/2) at even m, a sine sum with sign -(-1)^((m-1)/2) at odd m.
    Returns lam and the two signed halves of V_0j V_mj, each (2N, N).
    """
    c = _superdiagonal(p)
    diag = np.zeros(p.n_nodes)
    try:
        lam, vec = scipy.linalg.eigh_tridiagonal(diag, c)
    except np.linalg.LinAlgError:
        # stemr occasionally fails on tightly clustered spectra (large J');
        # the QR driver is slower but unconditionally reliable.
        lam, vec = scipy.linalg.eigh_tridiagonal(diag, c, lapack_driver="stev")
    vec *= vec[0]
    sign = np.resize([1.0, -1.0], p.n_qubits)[:, None]
    even = np.ascontiguousarray((sign * vec[0::2]).T)
    odd = np.ascontiguousarray((-sign * vec[1::2]).T)
    return lam, even, odd


def _rows_eig(p: ChainParams, ss: np.ndarray) -> np.ndarray:
    """exp(-2 pi s A') first rows for each s, shape (n_s, 2N).

    Only the light-cone prefix of the chain is factorized; entries past it
    are zero.
    """
    q = _light_cone_qubits(p, float(np.max(ss, initial=0.0)))
    lam, even, odd = _eig_factor(ChainParams(q, p.j_coupling))
    theta = np.multiply.outer(2.0 * np.pi * ss, lam)
    rows = np.zeros((len(ss), p.n_nodes))
    rows[:, 0:2 * q:2] = np.cos(theta) @ even
    rows[:, 1:2 * q:2] = np.sin(theta) @ odd
    return rows


def exp_first_row(a: WalkAdjacency, s: float) -> np.ndarray:
    """Row 1 of exp(-2 pi s A'); a unit vector since the matrix is orthogonal."""
    ss = validate_times([s])
    p = a.params()
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


def _require_mpmath():
    try:
        import mpmath
    except ImportError as exc:  # pragma: no cover - mpmath ships with scipy
        raise PrecisionUnavailableError(
            "arbitrary-precision evaluation needs the mpmath package") from exc
    return mpmath


def _check_digits(digits: int) -> None:
    if digits < 16:
        raise ValidationError(f"precision must be >= 16 digits, got {digits}")


def _substeps(mp, p: ChainParams, s_mp) -> int:
    """Power-of-two Taylor substeps that bring each step's generator norm to 1/2.

    The count grows as 2 pi s (1 + J'), and every substep costs 2N big-float
    products per Taylor term, so a work budget refuses long times up front.
    """
    bound = 2 * mp.pi * s_mp * (1 + mp.mpf(p.j_coupling))
    steps = 1
    while bound / steps > mp.mpf("0.5"):
        steps *= 2
    if steps * p.n_nodes > MAX_HIGHPREC_WORK:
        raise GuardError(
            f"{steps} substeps x {p.n_nodes} nodes exceeds the arbitrary-precision "
            f"work budget {MAX_HIGHPREC_WORK}")
    return steps


def exp_first_row_highprec(p: ChainParams, s: float, digits: int = 60) -> np.ndarray:
    """Row 1 of exp(-2 pi s A') in big-float arithmetic.

    Taylor evaluation with the time argument scaled into 2^j substeps so the
    step generator has norm <= 1/2, applied repeatedly to the basis row
    vector; working precision carries 10 guard digits.  Returns an object
    array of mpmath floats.
    """
    mp = _require_mpmath()
    validate_params(p)
    _check_digits(digits)
    (s,) = validate_times([s])
    with mp.workdps(digits + 10):
        s_mp = mp.mpf(s)
        steps = _substeps(mp, p, s_mp)
        # step generator -2 pi (s/steps) A'
        w = _superdiagonal(p).astype(object) * (-2 * mp.pi * (s_mp / steps))
        tol = mp.mpf(10) ** (-(digits + 10))
        row = np.array([mp.mpf(1)] + [mp.mpf(0)] * (p.n_nodes - 1), dtype=object)
        if s_mp == 0:
            return row
        for _ in range(steps):
            acc = row.copy()
            term = row
            order = 1
            while True:
                term = _times_adjacency(term, w) / order
                acc += term
                if max(abs(term)) < tol:
                    break
                order += 1
            row = acc
        return row


def lr_walk_grid_highprec(p: ChainParams, ks, ss, digits: int = 60) -> np.ndarray:
    """C_k(s) in arbitrary precision, shape (len(ks), len(ss)), mpmath floats.

    One big-float row per time serves every k, as the tail sums of its
    squares.  All inputs, and the work budget at the largest time, are
    checked before the first row is built.
    """
    mp = _require_mpmath()
    validate_params(p)
    ks = [validate_qubit_index(p, k) for k in ks]
    _check_digits(digits)
    ss = validate_times(ss)
    out = np.empty((len(ks), len(ss)), dtype=object)
    with mp.workdps(digits + 10):
        _substeps(mp, p, mp.mpf(np.max(ss, initial=0.0)))
        for j, s in enumerate(ss.tolist()):
            row = exp_first_row_highprec(p, s, digits)
            for i, k in enumerate(ks):
                out[i, j] = +(2 * mp.sqrt(mp.fsum(x * x for x in row[2 * k - 1:])))
    return out


def lr_walk_highprec(p: ChainParams, k: int, s: float, digits: int = 60):
    """C_k(s) by the walk method in arbitrary precision; returns an mpmath float.

    Needed wherever the correlation function falls below ~1e-14: double
    precision cannot resolve the tail of the exponential row there.
    """
    return lr_walk_grid_highprec(p, [k], [s], digits)[0, 0]
