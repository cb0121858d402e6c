"""Closed form for the semi-infinite chain at the critical coupling J' = 1.

At J' = 1 every walk-graph edge weight is +1 or -1, all walks of a given
length between two nodes share one sign, and the number of walks on the
right-unbounded line is a ballot number.  Resumming the series turns the
correlation function into Bessel functions of the first kind:

    C_k(s) = sqrt( (4 pi s)^2 / 4  -  sum_{m=1}^{2k-1} m^2 J_m(4 pi s)^2 ) / (pi s).

Since sum_{m>=1} m^2 J_m(z)^2 = z^2/4 exactly, the radicand equals the tail
sum_{m >= 2k} m^2 J_m(z)^2, which is how it is evaluated here: the tail has
only nonnegative terms, so the subtraction's catastrophic cancellation in the
pre-front region (radicand ~ 1e-30 against z^2/4 ~ 1e4) never happens.

Bessel values come from Miller's backward recurrence with the even-order
normalization sum; forward recurrence is unstable for order > argument, which
is exactly the regime the closed form needs.  The recurrence is carried as
ratios of neighbouring orders (Gautschi, SIAM Review 9 (1967) 24), which
need no seed scale, no overflow rescale and no small-argument branch, and
one sweep runs over a whole array of arguments.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .params import (GuardError, ValidationError, validate_budget, validate_qubit_index,
                     validate_times)

#: Supported evaluation envelope of the Bessel sweep.
MAX_BESSEL_ORDER = 10_000
MAX_BESSEL_ARG = 1.0e6


def ballot_count(n: int, m: int) -> int:
    """Number of length-n walks from node 0 to node m >= 0, unbounded to the right.

    Bertrand's ballot problem: (m+1)/(1 + (n+m)/2) * binom(n, (n+m)/2) when n
    and m share parity, zero otherwise (and zero for m > n).
    """
    if not isinstance(n, int) or not isinstance(m, int) or n < 0 or m < 0:
        raise ValidationError("walk length and end node must be nonnegative integers")
    if m > n or (n - m) % 2 != 0:
        return 0
    half = (n + m) // 2
    return (m + 1) * math.comb(n, half) // (half + 1)


def signed_walk_sum(n: int, m: int) -> int:
    """Summed weight products of length-n walks 0 -> m at critical coupling.

    Every left step contributes a factor -1; all walks of one (n, m) class
    have (n-m)/2 left steps, hence the common sign (-1)^((n-m)/2).
    """
    count = ballot_count(n, m)
    if count == 0:
        return 0
    return (-1) ** ((n - m) // 2) * count


def _miller_start(n_max: int, x: float) -> int:
    # Decay of J_m(x) only sets in past m ~ x; the x^(1/3) Airy widening plus
    # a fixed pad gives ~15 digits from the downward recurrence seed.
    start = max(n_max + 16, int(math.ceil(x + 18.0 * max(x, 1.0) ** (1.0 / 3.0))) + 16)
    return start + (start % 2)


def _order(name: str, n) -> int:
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or not 0 <= n <= MAX_BESSEL_ORDER:
        raise ValidationError(f"{name} must be an integer in [0, {MAX_BESSEL_ORDER}], got {n!r}")
    return int(n)


_TWO_EPS = 2.0 * float(np.finfo(float).eps)


def _ratios(start: int, n_max: int, x: float) -> list:
    """`bessel_jn_array`'s sweep for one argument in Python floats, bit for bit:
    J_0 = 1 / (1 + 2 u_1), then q_1 .. q_{n_max}."""
    q = u = 0.0
    out = [0.0] * (n_max + 1)
    for m in range(start, 0, -1):
        d = 2.0 * m - x * q
        q = x / (d if d != 0.0 else m * _TWO_EPS)
        u = q * ((m % 2 == 0) + u)
        if m <= n_max:
            out[m] = q
    out[0] = 1.0 / (1.0 + 2.0 * u)
    return out


def bessel_jn_array(n_max: int, x) -> np.ndarray:
    """J_0(x) .. J_{n_max}(x): shape (n_max + 1,) for scalar x, (n_max + 1, len(x)) for 1-D x.

    One backward sweep serves every argument.  From an order high above n_max
    and max x it carries the ratios q_m = J_m / J_{m-1} = x / (2m - x q_{m+1})
    and u_m = q_m ([m even] + u_{m+1}), so the normalization J_0 + 2 sum_m
    J_{2m} = 1 gives J_0 = 1 / (1 + 2 u_1), and J_m = J_0 q_1 ... q_m.  An
    exact zero denominator (x on a zero of J_{m-1}) is nudged to 2m eps.  One
    argument runs the same sweep in Python floats (`_ratios`), with the same
    roundings and a fraction of the per-order cost.
    """
    n_max = _order("order", n_max)
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1 or not np.all((xs >= 0.0) & (xs <= MAX_BESSEL_ARG)):
        raise ValidationError(f"arguments must be a scalar or 1-D in [0, {MAX_BESSEL_ARG:g}], "
                              f"got {x!r}")
    xv = np.atleast_1d(xs)
    start = _miller_start(n_max, float(np.max(xv, initial=0.0)))
    if xv.size == 1:
        out = np.array(_ratios(start, n_max, float(xv[0])))[:, None]
    else:
        q = u = np.zeros_like(xv)
        out = np.empty((n_max + 1, xv.size))
        for m in range(start, 0, -1):
            d = 2.0 * m - xv * q
            d[d == 0.0] = m * _TWO_EPS
            q = xv / d
            u = q * ((m % 2 == 0) + u)
            if m <= n_max:
                out[m] = q
        out[0] = 1.0 / (1.0 + 2.0 * u)
    np.cumprod(out, axis=0, out=out)
    return out if xs.ndim else out[:, 0]


def bessel_j(order: int, z: float) -> float:
    """Bessel function of the first kind J_order(z) on the supported envelope."""
    return float(bessel_jn_array(order, z)[order])


def _tail_orders(k: int, z: float) -> int:
    # Past both 2k and z + O(z^(1/3)) the squared terms shrink at least
    # geometrically (by 3x or more per order for z up to 1e3), so 40 more
    # orders leave a remainder below double precision relative to the sum.
    # Padding only the z bound would stop at one term once 2k passes it.
    return max(2 * k, int(math.ceil(z + 18.0 * max(z, 1.0) ** (1.0 / 3.0)))) + 40


#: Orders x times of one Bessel sweep in lr_critical_grid; bounds its memory.
SWEEP_BLOCK = 2**20


def lr_critical_grid(ks, ss) -> np.ndarray:
    """C_k(s) at J' = 1 for qubit list `ks` and times `ss`, shape (len(ks), len(ss)).

    One Bessel sweep per block of times serves every k, with blocks of at most
    SWEEP_BLOCK orders x times: the tails sum_{m >= 2k} (m J_m)^2 are read off
    one reversed cumulative sum, added smallest terms first.  A grid whose
    largest sweep leaves the envelope of `bessel_j` is refused before any
    sweep, as is one of more cells than the grid budget; times s = 0, where C = 0,
    need none.
    """
    ks = [validate_qubit_index(None, k) for k in ks]
    ss = validate_times(ss)
    cells = len(ks) * len(ss)
    validate_budget(cells, f"a closed-form grid of {len(ks)} qubits x {len(ss)} times is "
                           f"{cells} cells")
    z_max = 4.0 * math.pi * float(np.max(ss, initial=0.0))
    # a time whose argument overflows has no order count
    top = _tail_orders(max(ks, default=1), z_max) if math.isfinite(z_max) else math.inf
    if z_max > 0.0 and (top > MAX_BESSEL_ORDER or z_max > MAX_BESSEL_ARG):
        raise GuardError(
            f"the closed form sums Bessel orders to {top} at argument {z_max:g}, outside the "
            f"supported envelope (orders <= {MAX_BESSEL_ORDER}, arguments <= {MAX_BESSEL_ARG:g})")
    out = np.zeros((len(ks), len(ss)))
    orders = 2 * np.array(ks, dtype=int)
    live = np.flatnonzero(ss)
    step = max(1, SWEEP_BLOCK // (top + 1))
    m = np.arange(top + 1, dtype=float)[:, None]
    for cols in (live[i:i + step] for i in range(0, live.size, step)):
        z = 4.0 * math.pi * ss[cols]
        tails = np.cumsum(((m * bessel_jn_array(top, z)) ** 2)[::-1], axis=0)[::-1]
        out[:, cols] = 4.0 * np.sqrt(tails[orders]) / z
    return out


def lr_critical(k: int, s: float) -> float:
    """C_k(s) for the semi-infinite chain at J' = 1, evaluated as a Bessel tail sum."""
    return float(lr_critical_grid([k], [s])[0, 0])


def critical_radicand_difference(k: int, z: float) -> float:
    """The radicand in its subtracted form, z^2/4 - sum_{m<2k} m^2 J_m(z)^2.

    Mathematically identical to the tail sum lr_critical uses; kept for
    testing that the subtracted form stays nonnegative up to round-off.
    """
    j = bessel_jn_array(2 * validate_qubit_index(None, k) - 1, z)
    m = np.arange(1, j.size, dtype=float)
    # (z/2)^2 rounds once; z*z/4 rounds twice once z^2 is subnormal
    return (0.5 * z) ** 2 - float(np.sum((m * j[1:]) ** 2))


def bessel_sum_check(z: float, m_trunc: int) -> float:
    """Partial sum sum_{m=1}^{M} m^2 J_{2m}(z); converges to z^2/8.

    Independent consistency probe for the identities behind the closed form.
    """
    m = np.arange(1, _order("truncation", m_trunc) + 1, dtype=float)
    return float(np.sum(m * m * bessel_jn_array(2 * m.size, z)[2::2]))
