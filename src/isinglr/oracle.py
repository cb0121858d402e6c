"""Brute-force reference over the full 2^N operator space.

Builds the dense dimensionless Hamiltonian H' = -sum_k X_k - J' sum_k Z_k Z_{k+1}
(open boundary) and evolves operators exactly in the Heisenberg picture,
Q(s) = exp(i pi s H') Q exp(-i pi s H') in dimensionless time s = t/tau.
Ground truth for short chains; the walk engines are tested against it.

`lr_direct_grid` works in the X basis (a Hadamard on every qubit), where
H'' = -sum Z_k - J' sum X_k X_{k+1} is real and conserves the parity prod Z_k,
and Z_k becomes the bit flip X_k.  A sector state's slot is its top N-1 bits,
so flipping qubit k < N XORs slot bit N-k-1 and flipping qubit N keeps the slot.
Cached per ChainParams: a real eigh per parity sector, (lam_e, V_e) and
(lam_o, V_o), W = V_e^T X_1^{eo} V_o, then a Walsh-Hadamard butterfly over the
slot bits of V_e and V_o, which turns every slot XOR into a +-1 sign pattern.
At odd N one eigh serves both sectors.  C = prod_{k odd} Y_k prod_{k even} X_k
flips every bit and anticommutes with H'' (each Z_k meets one flip, each bond
holds one Y), and flipping all N bits changes the parity, so C maps the even
sector onto the odd one and H'' to -H'': lam_o = -lam_e, and row half-1-i of
V_o is row i of V_e times (-1)^(set bits of that even state on sites 1, 3, ..., N).
Z_1(s) is block-off-diagonal with block A = V_e (W o e^{i Phi}) V_o^T,
Phi_ij = pi s (lam_e,i - lam_o,j): four real half-size products per time.
[X_k, Z_1(s)] has two blocks of equal norm, C_k^2 = (2/dim) ||B_k^H - B_k||_F^2,
B_k = A X_k.  In the Walsh basis its entry is A^H - A where i and j agree in bit
N-k-1 and A^H + A where they differ, so with same = |A^H - A|^2 and
diff = |A^H + A|^2 taken entrywise and u0, u1 marking the bit clear and set,
C_k^2 = (2/dim)(u0 same u0 + u1 same u1 + 2 u0 diff u1) for every k at once,
diff being symmetric.  Every term is non-negative; 2 - (4/dim) Re tr(B_k^2)
would cancel catastrophically for small C.

Against the full-space route (`_z1_evolved`, then `commutator_with_z`) the
grid agrees to 4.2e-14 absolute at N <= 8, J' <= 2.5.  Peak memory is seven
(dim/2)^2 float64 arrays (three cached factors, four per-time buffers),
14 * 4^N bytes: 15 MB at N = 10, 235 MB at N = 12, 3.8 GB at N = 14.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import (MAX_DENSE_QUBITS, ChainParams, DimensionGuardError, ValidationError,
                     validate_params, validate_qubit_index, validate_times)

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliString:
    """One single-site Pauli code per qubit, site 1 first."""

    codes: tuple

    def __post_init__(self):
        codes = tuple(self.codes)
        if not codes:
            raise ValidationError("a Pauli string needs at least one site")
        bad = [c for c in codes if c not in PAULI]
        if bad:
            raise ValidationError(f"unknown Pauli codes {bad}; use I/X/Y/Z")
        object.__setattr__(self, "codes", codes)

    @classmethod
    def from_str(cls, text: str) -> "PauliString":
        return cls(tuple(text))

    def __str__(self):
        return "".join(self.codes)

    def __len__(self):
        return len(self.codes)


def pauli_string_matrix(s: PauliString) -> np.ndarray:
    """Kronecker product of the single-site matrices, site 1 leftmost."""
    return functools.reduce(np.kron, [PAULI[c] for c in s.codes])


def _check_dense(p: ChainParams) -> ChainParams:
    validate_params(p)
    if p.n_qubits > MAX_DENSE_QUBITS:
        raise DimensionGuardError(f"dense oracle refuses n_qubits={p.n_qubits} (limit "
                                  f"{MAX_DENSE_QUBITS}; use the walk method instead)")
    return p


def _z_diagonal(n_qubits: int, k: int) -> np.ndarray:
    """Diagonal of Z_k in the computational basis (site 1 = leftmost factor)."""
    return 1.0 - 2.0 * ((np.arange(2 ** n_qubits) >> (n_qubits - k)) & 1)


def build_hamiltonian(p: ChainParams) -> np.ndarray:
    """Dense H' = -sum X_k - J' sum Z_k Z_{k+1}, open boundary."""
    _check_dense(p)
    nq, jp, dim = p.n_qubits, p.j_coupling, 2 ** p.n_qubits
    h = np.zeros((dim, dim), dtype=complex)
    rows = np.arange(dim)
    for k in range(1, nq + 1):
        h[rows, rows ^ (1 << (nq - k))] -= 1.0
    diag = np.zeros(dim)
    for k in range(1, nq):
        diag -= jp * _z_diagonal(nq, k) * _z_diagonal(nq, k + 1)
    h[rows, rows] += diag
    return h


def heisenberg_evolve(op: np.ndarray, hamiltonian: np.ndarray, s: float) -> np.ndarray:
    """Q(s) = exp(i pi s H') Q exp(-i pi s H') via eigendecomposition of H'."""
    op = np.asarray(op, dtype=complex)
    h = np.asarray(hamiltonian, dtype=complex)
    if op.shape != h.shape or op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValidationError("operator and Hamiltonian must be square with equal shape")
    if not np.allclose(h, h.conj().T, atol=1e-12):
        raise ValidationError("Hamiltonian must be Hermitian")
    if s == 0.0:
        return op.copy()
    lam, vec = np.linalg.eigh(h)
    u = (vec * np.exp(1j * np.pi * s * lam)) @ vec.conj().T
    return u @ op @ u.conj().T


def frobenius_norm(op: np.ndarray) -> float:
    """Normalized Frobenius norm sqrt(tr(op^dag op) / dim)."""
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValidationError("operator must be square")
    return float(np.linalg.norm(op, "fro") / np.sqrt(op.shape[0]))


def operator_norm(op: np.ndarray) -> float:
    """Largest singular value."""
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValidationError("operator must be square")
    return float(np.linalg.norm(op, 2))


@functools.lru_cache(maxsize=1)
def _sector_factors(p: ChainParams):
    """Real eigh of H'' in the even and odd sectors (at odd N the odd one is the even
    one's chiral image), Walsh-folded in place, and W."""
    nq, half = p.n_qubits, 2 ** (p.n_qubits - 1)
    idx, slot = np.arange(2 * half), np.arange(half)
    ones = lambda x: sum((x >> b) & 1 for b in range(nq))
    pop = ones(idx)
    sectors = []
    for states in (idx[pop % 2 == 0], idx[pop % 2 == 1])[:2 - nq % 2]:  # odd N: even only
        h = np.diag(2.0 * pop[states] - nq)
        for k in range(1, nq):
            h[slot, (states ^ (3 << (nq - k - 1))) >> 1] -= p.j_coupling
        sectors.append(np.linalg.eigh(h))
        del h
    if nq % 2:  # the chiral image: even state x at slot i goes to ~x at odd slot half-1-i
        lam_e, v_e = sectors[0]
        odd_sites = sum(1 << (nq - k) for k in range(1, nq + 1, 2))
        sign = 1.0 - 2.0 * (ones(idx[pop % 2 == 0] & odd_sites) % 2)
        sectors.append((-lam_e, np.multiply(v_e[::-1], sign[::-1, None])))
    (lam_e, v_e), (lam_o, v_o) = sectors
    w = v_e.T @ v_o[slot ^ ((1 << nq - 1) >> 1)]
    for v in (v_e, v_o):  # orthonormal Walsh-Hadamard butterfly over the slot bits
        for i in range(nq - 1):
            x, y = np.moveaxis(v.reshape(-1, 2, 2 ** i, half), 1, 0)
            x[...], y[...] = x + y, x - y
        v *= half ** -0.5
    return lam_e, v_e, lam_o, v_o, w


def _z1_evolved(p: ChainParams, s: float) -> np.ndarray:
    """sigma_1^z(s) as a dense matrix in the computational basis, full-space route."""
    z1 = np.diag(_z_diagonal(p.n_qubits, 1).astype(complex))
    return heisenberg_evolve(z1, build_hamiltonian(p), s)


def commutator_with_z(p: ChainParams, k: int, z1_t: np.ndarray) -> np.ndarray:
    """[Z_k, sigma_1^z(s)]; Z_k is diagonal, so this is an elementwise product."""
    zk = _z_diagonal(p.n_qubits, k)
    return (zk[:, None] - zk[None, :]) * z1_t


def lr_direct(p: ChainParams, k: int, s: float) -> float:
    """C_k(s) as the normalized Frobenius norm of [Z_k, Z_1(s)]: one grid cell."""
    return float(lr_direct_grid(p, [k], [s])[0, 0])


def lr_direct_grid(p: ChainParams, ks, ss) -> np.ndarray:
    """C_k(s) on a (k, s) grid; per time, four real half-size products and one reduction."""
    _check_dense(p)
    ks = [validate_qubit_index(p, k) for k in ks]
    ss = validate_times(ss)
    nq, half, nk = p.n_qubits, 2 ** (p.n_qubits - 1), len(ks)
    sq = np.zeros((nk, len(ss)))
    times = np.flatnonzero(ss) if ks else ()
    if len(times):
        lam_e, v_e, lam_o, v_o, w = _sector_factors(p)
        # u1: slot bit N-k-1 set, per k (k = N flips no slot bit); u0: clear
        u1 = ((np.arange(half)[:, None] & ((1 << nq - np.array(ks)) >> 1)) != 0) * 1.0
        u0 = 1.0 - u1
        a, b, re, im = (np.empty((half, half)) for _ in range(4))
    for j in times:
        e, o = (np.array([np.cos(math.pi * ss[j] * lam), np.sin(math.pi * ss[j] * lam)])
                for lam in (lam_e, lam_o))
        # e = (ce, se), o = (co, so): cos Phi = ce co + se so, sin Phi = se co - ce so
        for x, part in ((e, re), (e[::-1] * [[1.0], [-1.0]], im)):
            np.matmul(x.T, o, out=a)
            a *= w
            np.matmul(v_e, a, out=b)
            np.matmul(b, v_o.T, out=part)
        del e, o, x  # not held through the passes below
        # entrywise, a = same = |A^H - A|^2 (pairs on one side of slot bit N-k-1)
        # and b = diff = |A^H + A|^2 (pairs across it)
        for out, tmp, f, g in ((a, b, np.subtract, np.add), (b, re, np.add, np.subtract)):
            np.square(f(re.T, re, out=out), out=out)
            out += np.square(g(im.T, im, out=tmp), out=tmp)
        # diff is symmetric (each entry squares a sum or a difference of the same two
        # operands), so u1 diff u0 = u0 diff u1 and one product gives both
        sq[:, j] = (np.einsum("ik,ik->k", u0, a @ u0) + np.einsum("ik,ik->k", u1, a @ u1)
                    + 2.0 * np.einsum("ik,ik->k", u0, b @ u1))
    return np.sqrt(sq * (2.0 / 2 ** nq))


# Off-diagonal magnitudes of Q Q^dag above this fraction of the largest
# diagonal entry disqualify the commutator from being a multiple of identity.
ISOTROPY_TOL = 1e-10


def commutator_isotropy_check(p: ChainParams, k: int, s: float):
    """Test whether Q Q^dag is a multiple of the identity for Q = [Z_k, Z_1(s)].

    Returns (is_multiple_of_identity, c) with Q Q^dag ~ c I.  The correlation
    function equals sqrt(c) whenever the check passes.

    The gate adds a machine-noise floor to the relative tolerance: the dense
    evolution carries ~eps absolute error per entry, so ahead of the front
    (C ~ 1e-8 and below) the off-diagonals of Q Q^dag are noise of size
    ~2 sqrt(c) eta, which a flat relative gate would reject.
    """
    _check_dense(p)
    validate_qubit_index(p, k)
    if p.n_qubits > 10:
        raise DimensionGuardError("isotropy check is limited to n_qubits <= 10")
    if s == 0.0:
        return True, 0.0
    dim = 2 ** p.n_qubits
    q = commutator_with_z(p, k, _z1_evolved(p, float(s)))
    qq = q @ q.conj().T
    diag = np.real(np.diag(qq))
    c = float(np.mean(diag))
    scale = float(np.max(np.abs(diag)))
    eta = 16.0 * np.finfo(float).eps * math.sqrt(dim)
    noise_floor = dim * (2.0 * math.sqrt(max(scale, 0.0)) * eta + eta * eta)
    tol = ISOTROPY_TOL * scale + noise_floor
    off = qq - np.diag(np.diag(qq))
    ok = float(np.max(np.abs(off))) <= tol and float(np.max(np.abs(diag - c))) <= tol
    return bool(ok), c
