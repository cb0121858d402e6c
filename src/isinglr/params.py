"""Shared parameter types, input validators and trust rules for the Ising-chain
correlation library.

Everything downstream works in dimensionless units: the chain is described by
the qubit count and the coupling ratio J' = J/gamma, and all times are
s = t/tau with tau the single-qubit precession time.  `ChainParams` is a frozen
dataclass, validated on construction and safe to share across threads.  The
grids the routes compute, each with its trust mask, are `analysis.RouteGrid`s;
their [0, 2] bound check, `validate_correlations`, and the trust rules are here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np


class ValidationError(ValueError):
    """Bad input values or inconsistent configuration."""


class GuardError(RuntimeError):
    """A numeric guard refused to run a computation."""


class DimensionGuardError(GuardError):
    """Dense-oracle dimension limit exceeded."""


class ThresholdNotReachedError(GuardError):
    """A requested correlation level is never attained inside the safe window."""


class HorizonError(GuardError):
    """A requested time window extends past the reflection-safe horizon."""


#: Dense computations refuse chains longer than this (state space 2^14).
MAX_DENSE_QUBITS = 14

#: Chains refuse couplings above this: the mode solver of the walk squares J'
#: and scales it by up to 2^11 light-cone qubits, which stays a finite double.
MAX_COUPLING = 1e150

#: Double-precision correlation values below this are reported untrusted.
DOUBLE_TRUST_FLOOR = 1e-13

#: A phase at or above this has no fractional digit in a double, so its sine and
#: cosine carry no correct digit.
MAX_PHASE = 2.0 ** 52

#: The grid budget of `validate_budget`, in float entries.  A double-precision walk grid
#: counts its light-cone factor as (2q)^2, twice its two q x q halves, as a full tridiagonal
#: eigendecomposition would, plus its len(ks) x times answer (1.3e6 for the largest
#: benchmark grid, N = 1000 to s = 101 on 201 times); any other grid or list counts cells.
MAX_GRID_ENTRIES = 2 ** 24


@dataclass(frozen=True)
class ChainParams:
    """Chain length and dimensionless nearest-neighbour coupling J'."""

    n_qubits: int
    j_coupling: float

    def __post_init__(self):
        if not isinstance(self.n_qubits, int) or isinstance(self.n_qubits, bool):
            raise ValidationError(f"n_qubits must be an integer, got {self.n_qubits!r}")
        if self.n_qubits < 1:
            raise ValidationError(f"n_qubits must be >= 1, got {self.n_qubits}")
        object.__setattr__(self, "j_coupling",
                           validate_positive("j_coupling", self.j_coupling, allow_zero=True))
        if self.j_coupling > MAX_COUPLING:
            raise ValidationError(f"j_coupling must be <= {MAX_COUPLING:g}, "
                                  f"got {self.j_coupling}")

    @property
    def n_nodes(self) -> int:
        """Size of the walk-operator space: two Pauli strings per qubit."""
        return 2 * self.n_qubits


def validate_params(p: ChainParams) -> ChainParams:
    """Re-check a ChainParams instance and return it unchanged.

    Construction already validates; this is the explicit entry point for
    callers holding instances of unknown provenance.
    """
    if not isinstance(p, ChainParams):
        raise ValidationError(f"expected ChainParams, got {type(p).__name__}")
    ChainParams(p.n_qubits, p.j_coupling)
    return p


def validate_qubit_index(p: ChainParams | None, k) -> int:
    """Return k as a plain int: a Python or numpy integer, not a bool, in [1, N].

    `p = None` stands for the semi-infinite chain, which has no upper bound.
    """
    top = math.inf if p is None else p.n_qubits
    if not isinstance(k, numbers.Integral) or isinstance(k, bool) or not (1 <= k <= top):
        raise ValidationError(f"qubit index must be an integer in [1, {top}], got {k!r}")
    return int(k)


def validate_times(ss) -> np.ndarray:
    """Return `ss` as a one-dimensional float array of finite times >= 0."""
    ss = np.asarray(ss, dtype=float)
    if ss.ndim != 1:
        raise ValidationError("time grid must be one-dimensional")
    if not np.all(np.isfinite(ss) & (ss >= 0.0)):
        raise ValidationError("times must all be finite and >= 0")
    return ss


def validate_phase(route: str, phase: float) -> None:
    """Refuse a double-precision route whose largest phase reaches `MAX_PHASE`."""
    if not phase < MAX_PHASE:
        raise GuardError(f"the {route}'s largest phase, {phase:.3g} rad, reaches 2**52, where a "
                         "double holds no fractional digit; use shorter times")


def validate_increasing(ss) -> np.ndarray:
    """Return `ss` as a float array once every time is above the one before it."""
    ss = np.asarray(ss, dtype=float)
    if np.any(ss[1:] <= ss[:-1]):
        raise ValidationError("time grid must be strictly increasing")
    return ss


def validate_positive(name: str, value, allow_zero: bool = False) -> float:
    """Return `value` as a finite float > 0, or >= 0 with `allow_zero`."""
    value = float(value)
    if not (math.isfinite(value) and (value >= 0.0 if allow_zero else value > 0.0)):
        raise ValidationError(f"{name} must be finite and {'>=' if allow_zero else '>'} 0, "
                              f"got {value}")
    return value


def validate_count(name: str, value) -> int:
    """Return `value` as a plain int >= 1 (a Python or numpy integer, not a bool)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
        raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def validate_budget(entries, what: str) -> None:
    """Refuse a grid of more entries than `MAX_GRID_ENTRIES`; `what` names and counts them."""
    if entries > MAX_GRID_ENTRIES:
        raise GuardError(f"{what}, above the grid budget {MAX_GRID_ENTRIES}")


def validate_threshold(threshold, plateau: float) -> float:
    """A finite level > 0; one at or above the plateau C_sat is never reached."""
    threshold = validate_positive("threshold", threshold)
    if threshold >= plateau:
        raise ThresholdNotReachedError(f"threshold {threshold} outside (0, C_sat={plateau})")
    return threshold


# Trust masks of a (k, s) grid, one rule per route's error model, each paired
# with its route in `analysis.route_grid` and carried by the `RouteGrid` it
# returns; a printed row is trusted where every value column it prints is.
# `lightcone --digits` needs no rule: its log10 cells, rounded once from integer
# tail sums, carry the route's error, relative ahead of the front, and every
# cell is trusted.

def double_trusted(values, ss) -> np.ndarray:
    """Eig walk and dense oracle: absolute error, the round-off of unit rows.

    A cell is trusted at or above the noise floor, and at s = 0, where C = 0
    exactly.
    """
    return (np.asarray(values) >= DOUBLE_TRUST_FLOOR) | (np.asarray(ss) == 0.0)


def cast_trusted(exact, values) -> np.ndarray:
    """Arbitrary-precision values printed as the doubles `values`.

    A cell is trusted where the cast keeps it: an exact zero, or a normal
    double.  A nonzero value that casts to zero or to a subnormal is not.
    `exact` may be the values or anything zero where they are, such as the
    integer tail sums they are rounded from.
    """
    return (np.asarray(exact) == 0) | (np.abs(values) >= np.finfo(float).tiny)


def critical_trusted(values, ss) -> np.ndarray:
    """J' = 1 closed form: relative error, until its tail sum underflows.

    The tail sum_{m >= 2k} (m J_m)^2 equals (C pi s)^2, so its squares stay
    normal doubles while C pi s >= sqrt(tiny), about 1.5e-154.  A cell is
    trusted there, and at s = 0, where C = 0 exactly.
    """
    ss = np.asarray(ss)
    return (np.asarray(values) * math.pi * ss >= math.sqrt(np.finfo(float).tiny)) | (ss == 0.0)


class Method(str, Enum):
    """Which evaluation route produced a grid."""

    WALK = "walk"
    DIRECT = "direct"
    CRITICAL = "critical"


# Slack for the [0, 2] bound and the C(0) = 0 identity; the underlying
# computations satisfy both exactly, this only absorbs float round-off.
_BOUND_SLACK = 1e-9


def validate_correlations(values, ss) -> np.ndarray:
    """Return a (..., n_s) grid of exact correlation values at times `ss` as an
    array, once every cell lies in the [0, 2] bound (NaN does not) and vanishes
    at s = 0; the first offending cell in row order names the error."""
    values = np.asarray(values, dtype=float)
    ss = np.broadcast_to(np.asarray(ss, dtype=float), values.shape)
    outside = ~((values >= -_BOUND_SLACK) & (values <= 2.0 + _BOUND_SLACK))
    bad = outside | ((ss == 0.0) & (values != 0.0))
    if bad.any():
        i = np.argmax(bad)
        raise ValidationError(f"C({ss.flat[i]}) = {values.flat[i]} outside the [0, 2] bound"
                              if outside.flat[i] else f"C(0) must vanish, got {values.flat[i]}")
    return values
