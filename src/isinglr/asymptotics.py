"""Leading-edge forms, the two propagation velocities, and saturation.

Ahead of the correlation front the correlation function is a single monomial
in time,

    C_k = 2^{2k} pi^{2k-1} / (2k-1)!  J'^{k-1} s^{2k-1},

whose Stirling form exposes the ballistic combination v_lr t / (k - 1/2) with
v_lr tau = e pi sqrt(J'), and which collapses to an exponential front
e (pi J' k)^{-1/2} exp(-2 (k - v_lr t)) near k ~ v_lr t.  These expressions
span hundreds of orders of magnitude, so they are carried as sign plus
log10 magnitude (LogValue) rather than as doubles.

The other velocity in the problem belongs to the quasiparticle band
E(q) = 2 J' sqrt(g^2 + 1 - 2 g cos q), g = 1/J': its maximum group velocity
2 pi min(J', 1) / tau is the speed of the main correlation front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ValidationError, validate_grid, validate_positive

LOG10_E = math.log10(math.e)


@dataclass(frozen=True)
class LogValue:
    """A real number stored as sign and log10 of the magnitude."""

    log10_magnitude: float
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValidationError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if (self.sign == 0) != (self.log10_magnitude == -math.inf):
            raise ValidationError("sign 0 must pair with log10 magnitude -inf and vice versa")

    @classmethod
    def zero(cls) -> "LogValue":
        return cls(-math.inf, 0)

    @classmethod
    def from_float(cls, x: float) -> "LogValue":
        if x == 0.0:
            return cls.zero()
        return cls(math.log10(abs(x)), 1 if x > 0 else -1)

    def to_float(self) -> float:
        """Best-effort double; underflows to 0 and overflows to inf."""
        if self.sign == 0:
            return 0.0
        try:
            mag = 10.0 ** self.log10_magnitude
        except OverflowError:
            mag = math.inf
        return math.copysign(mag, self.sign)

    def __float__(self):
        return self.to_float()


def v_lieb_robinson(jp: float) -> float:
    """Leading-edge speed limit in units of 1/tau: e pi sqrt(J')."""
    validate_positive("coupling", jp, allow_zero=True)
    return math.e * math.pi * math.sqrt(jp)


#: The leading-edge forms, each with whether it allows J' = 0.
LEADING_FORMS = {"exact": True, "largek": False, "exponential": False}


def lr_leading_grid(form: str, ks, ss, jp: float) -> np.ndarray:
    """log10 of a leading-edge form (exact, largek or exponential; the one-cell forms
    below) on the (k, s) grid, shape (len(ks), len(ss)); -inf marks an exact zero.

    Each per-k and per-s term is taken once with `math`, and the cells join them in
    the one-cell formula's order, so a cell is the same double in any grid.  The
    request passes `params.validate_grid` (times, cells against the grid budget, then
    qubit indices), then the form's own rules: k >= 2 for largek, and the coupling.
    """
    if form not in LEADING_FORMS:
        raise ValidationError(f"unknown leading-edge form {form!r}")
    ks, ss = validate_grid(None, ks, ss, "a leading-edge grid")
    if form == "largek" and min(ks, default=2) < 2:
        raise ValidationError("the large-k form needs k >= 2")
    validate_positive("coupling", jp, allow_zero=LEADING_FORMS[form])
    ss = ss.tolist()
    if not (ks and ss):
        return np.zeros((len(ks), len(ss)))
    v = v_lieb_robinson(jp)
    if form == "exponential":
        head = [LOG10_E - 0.5 * math.log10(math.pi * jp * k) for k in ks]
        gap = np.array([float(k) for k in ks])[:, None] - [v * s for s in ss]
        return np.array(head)[:, None] - 2.0 * gap * LOG10_E
    live = np.array([s != 0.0 for s in ss])
    c = np.array([float(2 * k - 1) for k in ks])[:, None]
    if form == "exact":
        rows = np.array([jp != 0.0 or k < 2 for k in ks])
        head = [2 * k * math.log10(2.0)
                + (2 * k - 1) * math.log10(math.pi)
                - math.lgamma(2 * k) * LOG10_E
                + (k - 1) * (math.log10(jp) if k > 1 else 0.0) if row else 0.0
                for k, row in zip(ks, rows)]
        grid = np.array(head)[:, None] + c * [math.log10(s) if x else 0.0
                                              for s, x in zip(ss, live)]
        live = rows[:, None] & live
    else:
        head = [-0.5 * math.log10(math.pi * jp) - 0.5 * math.log10(k) for k in ks]
        # below the normal doubles v_lr s loses digits or vanishes: its log is a sum
        tiny = np.finfo(float).tiny
        log_vt = [0.0 if not x else math.log10(v * s) if v * s >= tiny
                  else math.log10(v) + math.log10(s) for s, x in zip(ss, live)]
        grid = np.array(head)[:, None] + c * (log_vt - np.array([math.log10(k - 0.5)
                                                                for k in ks])[:, None])
    return np.where(live, grid, -math.inf)


def _one_cell(form: str, k: int, s: float, jp: float) -> LogValue:
    log10 = float(lr_leading_grid(form, [k], [s], jp)[0, 0])
    return LogValue(log10, 0 if log10 == -math.inf else 1)


def lr_leading_exact(k: int, s: float, jp: float) -> LogValue:
    """Leading-edge correlation monomial, exact coefficient, in log domain:
    log10 (2^{2k} pi^{2k-1} / (2k-1)! J'^{k-1} s^{2k-1}); zero at s = 0 and at
    J' = 0 past k = 1."""
    return _one_cell("exact", k, s, jp)


def lr_leading_largek(k: int, s: float, jp: float) -> LogValue:
    """Stirling form of the leading edge, valid for k well above 1:
    (pi J' k)^{-1/2} (v_lr t / (k - 1/2))^{2k-1} in log domain."""
    return _one_cell("largek", k, s, jp)


def lr_leading_exponential(k: int, s: float, jp: float) -> LogValue:
    """Exponential front e (pi J' k)^{-1/2} exp(-2 (k - v_lr t)).

    Describes the far leading edge where k is large and near v_lr t; no
    regime guard is applied, callers sweep whole (k, t) windows with it.
    """
    return _one_cell("exponential", k, s, jp)


def dispersion(q: float, jp: float) -> float:
    """Quasiparticle energy 2 J' sqrt(g^2 + 1 - 2 g cos q), g = 1/J', in units of gamma."""
    validate_positive("coupling", jp)
    # algebraically identical to the g form, stable for small J'
    return 2.0 * math.sqrt(1.0 + jp * jp - 2.0 * jp * math.cos(q))


def v_group(q: float, jp: float) -> float:
    """Group velocity dE/dq in units of 1/tau."""
    validate_positive("coupling", jp)
    sin_q = math.sin(q)
    if sin_q == 0.0:
        return 0.0
    denom = math.hypot(1.0 - jp * math.cos(q), jp * sin_q)
    return 2.0 * math.pi * jp * sin_q / denom


def v_group_max(jp: float) -> float:
    """Band maximum of the group velocity: 2 pi J' below the transition, 2 pi above."""
    validate_positive("coupling", jp, allow_zero=True)
    return 2.0 * math.pi * min(jp, 1.0)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def v_group_max_numeric(jp: float, iterations: int = 90):
    """(max group velocity, maximizing wavenumber) by direct maximization.

    Golden-section search on [0, pi] for the value, then bisection on the
    stationarity condition to pin the maximizer; ships alongside the
    piecewise closed form so each can audit the other.
    """
    validate_positive("coupling", jp)
    a, b = 0.0, math.pi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = v_group(x1, jp), v_group(x2, jp)
    for _ in range(iterations):
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = v_group(x1, jp)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = v_group(x2, jp)
    value = max(f1, f2)

    def stationarity(q: float) -> float:
        # derivative numerator of v_group; roots at cos q = J' or 1/J'
        cos_q, sin_q = math.cos(q), math.sin(q)
        d2 = (1.0 - jp * cos_q) ** 2 + (jp * sin_q) ** 2
        return cos_q * d2 - jp * sin_q * sin_q

    lo, hi = 1e-18, math.pi - 1e-18
    if stationarity(lo) <= 0.0:
        q_max = 0.0       # maximum sits at the band edge (critical coupling)
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if stationarity(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        q_max = 0.5 * (lo + hi)
        value = max(value, v_group(q_max, jp))
    return value, q_max


def saturation_value(jp: float) -> float:
    """Long-time plateau of C_k on an effectively infinite chain: 2 min(1, 1/J')."""
    validate_positive("coupling", jp, allow_zero=True)
    return 2.0 if jp <= 1.0 else 2.0 / jp
