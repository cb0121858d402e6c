"""Brute-force reference over the full 2^N operator space.

Builds the dense dimensionless Hamiltonian H' = -sum_k X_k - J' sum_k Z_k Z_{k+1}
(open boundary) and evolves operators exactly in the Heisenberg picture,
Q(s) = exp(i pi s H') Q exp(-i pi s H') in dimensionless time s = t/tau.
Ground truth for short chains; the walk engines are tested against it.

`lr_direct_grid` works in the X basis (a Hadamard on every qubit), where
H'' = -sum Z_k - J' sum X_k X_{k+1} is real and conserves the parity prod Z_k,
and Z_k becomes the bit flip X_k.  A sector state's slot is its top N-1 bits,
so flipping qubit k < N XORs slot bit N-k-1 and flipping qubit N keeps the slot.
In the Walsh basis of the slots (a Walsh-Hadamard transform over the slot bits)
every slot XOR is a +-1 sign pattern, so H'' has -1 at (w, w ^ 2^(N-k-1)) for
Z_k, k < N, -(-1)^parity at (w, w ^ all bits) for Z_N, and each bond on the
diagonal: -J' times the sign of its two slot bits (of bit 0 for the last bond).
The mirror R: k <-> N+1-k reverses a state's bits and maps slots by s -> L s + c
over GF(2), c being bit N-2 in the odd sector and 0 in the even one.  In the Walsh
basis R is the signed permutation e_w -> (-1)^(c.w) e_sigma(w), sigma = L^T, which
keeps bit N-2, reverses the bits below it and complements them where bit N-2 is
set: one permutation for both sectors, every sign +1 in the even one.  Pair order
lists each pair's first member, then the partners, then the fixed points, those
with bit N-2 set last in each part, so the odd sector's -1 signs close each range.
R commutes with H'' and splits each sector into an R = +1 block (pair sums, +1
fixed points) and an R = -1 block (pair differences, -1 fixed points), each
diagonalised on its own: (20, 12) and (16, 16) at N = 6, (136, 120) at N = 9.
Cached per ChainParams: the pair order; per sector the eigenvalues, R = +1 first,
and two blocks, the eigenvectors' rows at the first members and fixed points (a
partner's row is its first member's times R's sign s in the R = +1 columns and
times -s in the R = -1 ones); and W = V_e^T X_1^{eo} V_o, X_1 the sign of bit N-2.
At odd N one sector is diagonalised.  C = prod_{k odd} Y_k prod_{k even} X_k
flips every bit and anticommutes with H'' (each Z_k meets one flip, each bond
holds one Y), and flipping all N bits changes the parity, so C maps the even
sector onto the odd one and H'' to -H'': lam_o = -lam_e, and in the Walsh basis
v_o[w] = (-1)^|w| v_e[w ^ even slot bits].  C commutes with R (odd sites mirror
onto odd sites), so each odd block is the image of the even block of its parity.
Z_1(s) is block-off-diagonal with block A = V_e (W o e^{i Phi}) V_o^T,
Phi_ij = pi s (lam_e,i - lam_o,j).  Each real part of A^T = V_o (V_e M)^T, with
M = W o cos Phi or W o sin Phi, takes four block products, each V a product per
block into contiguous rows and then one butterfly (sum and difference) over the
pairs: half the products of dense sector factors; rows and columns are in pair order.
[X_k, Z_1(s)] has two blocks of equal norm, C_k^2 = (2/dim) ||B_k^H - B_k||_F^2,
B_k = A X_k.  In the Walsh basis its entry is A^H - A where i and j agree in bit
N-k-1 and A^H + A where they differ, so with same = |A^H - A|^2 and
diff = |A^H + A|^2 taken entrywise and u0, u1 marking the bit clear and set,
C_k^2 = (2/dim)(u0 same u0 + u1 same u1 + 2 u0 diff u1) for every k at once,
diff being symmetric.  Both are symmetric, so A^T serves for A.  Every term is
non-negative; 2 - (4/dim) Re tr(B_k^2) would cancel catastrophically for small C.

Against the full-space route (`_z1_evolved`, then `commutator_with_z`) the
grid agrees to 2.5e-14 absolute at N <= 8, J' <= 2.5.  Peak memory is six
(dim/2)^2 float64 arrays (the blocks, half an array per sector, W, and four
per-time buffers), 12 * 4^N bytes: 13 MB at N = 10, 201 MB at N = 12, 3.2 GB at
N = 14; building the factor peaks near 4.2 arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import (MAX_DENSE_QUBITS, ChainParams, DimensionGuardError, ValidationError,
                     validate_grid, validate_params, validate_phase, validate_qubit_index)

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


def _unmirror(t: np.ndarray, out: np.ndarray, m: int, n: int, neg: int) -> np.ndarray:
    """out = V t in pair order for V held as blocks, t the blocks' products (R = +1 rows
    first): the butterfly over the pairs, of which the last `neg` have sign -1."""
    p, q = t[:m], t[n:n + m]
    np.add(p, q, out=out[:m])
    np.subtract(p[:m - neg], q[:m - neg], out=out[m:2 * m - neg])
    np.subtract(q[m - neg:], p[m - neg:], out=out[2 * m - neg:2 * m])
    out[2 * m:m + n], out[m + n:] = t[m:n], t[n + m:]
    return out


@functools.lru_cache(maxsize=1)
def _sector_factors(p: ChainParams):
    """Pair order, its pair counts, real eigh of H'' in the mirror blocks of the even and
    odd sectors (at odd N the odd ones are the even ones' chiral images), and W."""
    nq, half = p.n_qubits, 2 ** (p.n_qubits - 1)
    # a coupling whose square underflows (below sqrt(tiny), 1.5e-154) moves no cell by
    # 1e-150: it is taken as 0, so its grid is the J' = 0 grid and eigh meets no subnormal
    jp = p.j_coupling if p.j_coupling ** 2 >= np.finfo(float).tiny else 0.0
    i = np.arange(half)
    ones = lambda x: sum((x >> b) & 1 for b in range(nq))
    top = i & (half >> 1)  # bit N-2: the signs of X_1 and of the odd sector's mirror
    low = sum((((i >> j) & 1) << (nq - 3 - j) for j in range(nq - 2)), i * 0)
    sigma = top | low ^ (top > 0) * (half // 2 - 1)
    a, f = (x[np.argsort(top[x] > 0, kind="stable")] for x in (i[i < sigma], i[i == sigma]))
    order, m = np.concatenate([a, sigma[a], f]), len(a)
    pos = np.argsort(order)
    bonds = sum((1 - 2 * (ones(order & (3 << nq - k - 1) >> 1) % 2) for k in range(1, nq)), 0 * i)
    sectors, dense = [], []
    for par in range(2 - nq % 2):
        neg = par * np.count_nonzero(top[a])
        n = half - m - par * np.count_nonzero(top[f])
        h = np.diag(-jp * bonds)
        for x, val in [(1 << b, 1.0) for b in range(nq - 1)] + [(half - 1, 1.0 - 2 * par)]:
            h[i, pos[order ^ x]] -= val
        blocks = []
        for odd, c in enumerate((np.r_[:m, 2 * m:m + n], np.r_[:m, m + n:half])):
            # P^T H P for the block's orthonormal coordinates P: a partner's column of
            # P^T H equals its first member's, so only those and the fixed points are read
            x = h[:, c]
            y = x[m:2 * m] * np.repeat([1.0 - 2 * odd, 2 * odd - 1.0], [m - neg, neg])[:, None]
            x = np.vstack([(x[:m] + y) * math.sqrt(0.5), x[m + n:] if odd else x[2 * m:m + n]])
            x[:, :m] *= math.sqrt(2.0)
            lam, u = np.linalg.eigh(x)
            u[:m] *= math.sqrt(0.5)  # from coordinates to V's rows at the first members
            blocks += [lam, u]
        sectors.append((np.concatenate(blocks[::2]), *blocks[1::2]))
        del h, x
        t = np.zeros((half, half))
        t[:n, :n], t[n:, n:] = blocks[1::2]
        dense.append(_unmirror(t, np.empty_like(t), m, n, neg))
        del t
    if nq % 2:  # the chiral image: v_o[w] = (-1)^|w| v_e[w ^ even slot bits]
        v = dense[0][pos[order ^ sum(1 << j for j in range(0, nq - 1, 2))]]
        dense.append(np.multiply(v, 1.0 - 2.0 * (ones(order) % 2)[:, None], out=v))
        sectors.append((-sectors[0][0], v[np.r_[:m, 2 * m:m + n], :n],
                        v[np.r_[:m, m + n:half], n:]))
    w = dense[0].T @ np.multiply(dense[1], 1.0 - 2.0 * (top[order] > 0)[:, None], out=dense[1])
    return order, (m, np.count_nonzero(top[a])), sectors, w


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
    """C_k(s) on a (k, s) grid, of at most the grid budget's cells; per time, eight block
    products, four pair butterflies and one reduction."""
    _check_dense(p)
    ks, ss = validate_grid(p, ks, ss, "a dense grid")
    nq, half, nk = p.n_qubits, 2 ** (p.n_qubits - 1), len(ks)
    # the phases pi s lam, |lam| <= N + (N - 1) J', keep a fractional digit
    validate_phase("dense oracle",
                   math.pi * float(np.max(ss, initial=0.0)) * (nq + (nq - 1) * p.j_coupling))
    sq = np.zeros((nk, len(ss)))
    times = np.flatnonzero(ss) if ks else ()
    if len(times):
        order, (m, neg), (even, odd), w = _sector_factors(p)
        # u1: slot bit N-k-1 set, per k (k = N flips no slot bit), in pair order; u0: clear
        u1 = ((order[:, None] & ((1 << nq - np.array(ks)) >> 1)) != 0) * 1.0
        u0 = 1.0 - u1
        a, b, re, im = (np.empty((half, half)) for _ in range(4))
    for j in times:
        e, o = (np.array([np.cos(math.pi * ss[j] * lam), np.sin(math.pi * ss[j] * lam)])
                for lam in (even[0], odd[0]))
        # e = (ce, se), o = (co, so): cos Phi = ce co + se so, sin Phi = se co - ce so;
        # each part is A^T = V_o (V_e (W o e^{i Phi}))^T, its rows and columns in pair order
        for x, part in ((e, re), (e[::-1] * [[1.0], [-1.0]], im)):
            np.matmul(x.T, o, out=a)
            a *= w
            for (_, up, um), y, out, flips in ((even, a, a, 0), (odd, a.T, part, neg)):
                n = len(up)
                np.matmul(up, y[:n], out=b[:n])
                np.matmul(um, y[n:], out=b[n:])
                _unmirror(b, out, m, n, flips)
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
