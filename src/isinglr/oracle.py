"""Brute-force reference over the full 2^N operator space.

Builds the dense dimensionless Hamiltonian H' = -sum_k X_k - J' sum_k Z_k Z_{k+1}
(open boundary), evolves operators exactly in the Heisenberg picture through a
Hermitian eigendecomposition, and evaluates commutator norms.  Ground truth
for short chains; every fast method in this package is tested against it.

The Heisenberg propagator in dimensionless time s = t/tau is exp(+i pi s H'),
so an operator evolves as Q(s) = exp(i pi s H') Q exp(-i pi s H').
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import (
    MAX_DENSE_QUBITS,
    ChainParams,
    DimensionGuardError,
    ValidationError,
    validate_params,
    validate_qubit_index,
    validate_times,
)

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
    out = PAULI[s.codes[0]]
    for c in s.codes[1:]:
        out = np.kron(out, PAULI[c])
    return out


def _check_dense(p: ChainParams) -> ChainParams:
    validate_params(p)
    if p.n_qubits > MAX_DENSE_QUBITS:
        raise DimensionGuardError(
            f"dense oracle refuses n_qubits={p.n_qubits} (limit {MAX_DENSE_QUBITS}; "
            f"use the walk method instead)")
    return p


def _z_diagonal(n_qubits: int, k: int) -> np.ndarray:
    """Diagonal of Z_k in the computational basis (site 1 = leftmost factor)."""
    idx = np.arange(2 ** n_qubits)
    bit = n_qubits - k
    return 1.0 - 2.0 * ((idx >> bit) & 1)


def build_hamiltonian(p: ChainParams) -> np.ndarray:
    """Dense H' = -sum X_k - J' sum Z_k Z_{k+1}, open boundary."""
    _check_dense(p)
    nq, jp = p.n_qubits, p.j_coupling
    dim = 2 ** nq
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
    phase = np.exp(1j * np.pi * s * lam)
    u = (vec * phase) @ vec.conj().T
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


@functools.lru_cache(maxsize=8)
def _evolution_factors(p: ChainParams):
    """Eigendecomposition of H' plus Z_1 rotated into the eigenbasis."""
    h = build_hamiltonian(p)
    lam, vec = np.linalg.eigh(h)
    z1 = np.diag(_z_diagonal(p.n_qubits, 1).astype(complex))
    w = vec.conj().T @ z1 @ vec
    return lam, vec, w


def _z1_evolved(p: ChainParams, s: float) -> np.ndarray:
    """sigma_1^z(s) as a dense matrix in the computational basis."""
    lam, vec, w = _evolution_factors(p)
    if s == 0.0:
        return vec @ w @ vec.conj().T
    phase = np.exp(1j * np.pi * s * lam)
    m = (phase[:, None] * w) * phase.conj()[None, :]
    return vec @ m @ vec.conj().T


def commutator_with_z(p: ChainParams, k: int, z1_t: np.ndarray) -> np.ndarray:
    """[Z_k, sigma_1^z(s)]; Z_k is diagonal, so this is an elementwise product."""
    zk = _z_diagonal(p.n_qubits, k)
    return (zk[:, None] - zk[None, :]) * z1_t


def lr_direct(p: ChainParams, k: int, s: float) -> float:
    """C_k(s) as the normalized Frobenius norm of [Z_k, Z_1(s)], dense route."""
    _check_dense(p)
    k = validate_qubit_index(p, k)
    (s,) = validate_times([s])
    if s == 0.0:
        return 0.0
    q = commutator_with_z(p, k, _z1_evolved(p, s))
    return frobenius_norm(q)


def lr_direct_grid(p: ChainParams, ks, ss) -> np.ndarray:
    """C_k(s) on a (k, s) grid; evolves Z_1 once per time point."""
    _check_dense(p)
    ks = [validate_qubit_index(p, k) for k in ks]
    ss = validate_times(ss)
    dim = 2 ** p.n_qubits
    zdiags = {k: _z_diagonal(p.n_qubits, k) for k in ks}
    out = np.empty((len(ks), len(ss)))
    for j, s in enumerate(ss):
        if s == 0.0:
            out[:, j] = 0.0
            continue
        z1t_sq = np.abs(_z1_evolved(p, float(s))) ** 2
        for i, k in enumerate(ks):
            zk = zdiags[k]
            dz2 = (zk[:, None] - zk[None, :]) ** 2
            out[i, j] = np.sqrt(np.sum(dz2 * z1t_sq) / dim)
    return out


# Off-diagonal magnitudes of Q Q^dag above this fraction of the largest
# diagonal entry disqualify the commutator from being a multiple of identity.
ISOTROPY_TOL = 1e-10


def commutator_isotropy_check(p: ChainParams, k: int, s: float):
    """Test whether Q Q^dag is a multiple of the identity for Q = [Z_k, Z_1(s)].

    Returns (is_multiple_of_identity, c) with Q Q^dag ~ c I.  The correlation
    function equals sqrt(c) whenever the check passes.

    The gate combines the relative tolerance with a machine-noise floor: the
    dense evolution carries ~eps-level absolute error per entry, so when the
    commutator itself is tiny (ahead of the front, C ~ 1e-8 and below) the
    off-diagonals of Q Q^dag are noise of size ~2 sqrt(c) eta and a flat
    relative gate would reject isotropy that holds to working precision.
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
    ok = (float(np.max(np.abs(off))) <= tol
          and float(np.max(np.abs(diag - c))) <= tol)
    return bool(ok), c
