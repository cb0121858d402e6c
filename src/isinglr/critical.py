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
is exactly the regime the closed form needs.
"""

from __future__ import annotations

import math

import numpy as np

from .params import (GuardError, ValidationError, validate_positive, validate_qubit_index,
                     validate_times)

#: Supported evaluation envelope for bessel_j.
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


def bessel_jn_array(n_max: int, x: float) -> np.ndarray:
    """J_0(x) .. J_{n_max}(x) by one backward-recurrence sweep.

    Runs Miller's algorithm from a seed high above both n_max and x and
    normalizes with J_0 + 2 sum_m J_{2m} = 1, rescaling on the way down to
    dodge overflow.
    """
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    x = validate_positive("argument", x, allow_zero=True)
    out = np.zeros(n_max + 1)
    if x == 0.0:
        out[0] = 1.0
        return out
    if x < 1e-12:
        # ascending-series limit J_m(x) ~ (x/2)^m / m!; relative error O(x^2).
        # Also dodges 2/x overflow for denormal arguments.
        term = 1.0
        for m in range(n_max + 1):
            out[m] = term
            term *= x / (2.0 * (m + 1))
            if term == 0.0:
                break
        return out
    two_over_x = 2.0 / x
    j_up = 0.0          # J_{m+1} estimate
    j_cur = 1e-30       # J_m estimate, arbitrary seed scale
    even_sum = 0.0
    for m in range(_miller_start(n_max, x), 0, -1):
        j_down = m * two_over_x * j_cur - j_up
        j_up = j_cur
        j_cur = j_down
        if abs(j_cur) > 1e250:
            j_cur *= 1e-250
            j_up *= 1e-250
            even_sum *= 1e-250
            out *= 1e-250
        order = m - 1
        if order <= n_max:
            out[order] = j_cur
        if order > 0 and order % 2 == 0:
            even_sum += 2.0 * j_cur
    out /= even_sum + j_cur
    return out


def bessel_j(order: int, z: float) -> float:
    """Bessel function of the first kind J_order(z) on the supported envelope."""
    if not isinstance(order, int) or order < 0:
        raise ValidationError(f"order must be a nonnegative integer, got {order!r}")
    if order > MAX_BESSEL_ORDER:
        raise ValidationError(f"order {order} outside supported envelope (<= {MAX_BESSEL_ORDER})")
    if not math.isfinite(z) or z < 0.0 or z > MAX_BESSEL_ARG:
        raise ValidationError(f"argument {z!r} outside supported envelope [0, {MAX_BESSEL_ARG:g}]")
    return float(bessel_jn_array(order, z)[order])


def _tail_orders(k: int, z: float) -> int:
    # Past both 2k and z + O(z^(1/3)) the squared terms shrink at least
    # geometrically (by 3x or more per order for z up to 1e3), so 40 more
    # orders leave a remainder below double precision relative to the sum.
    # Padding only the z bound would stop at one term once 2k passes it.
    return max(2 * k, int(math.ceil(z + 18.0 * max(z, 1.0) ** (1.0 / 3.0)))) + 40


def lr_critical_grid(ks, ss) -> np.ndarray:
    """C_k(s) at J' = 1 for qubit list `ks` and times `ss`, shape (len(ks), len(ss)).

    One Bessel sweep per time serves every k: the tails sum_{m >= 2k} (m J_m)^2
    are read off one reversed cumulative sum, added smallest terms first.  A
    grid whose largest sweep leaves the envelope of `bessel_j` is refused
    before any sweep (times s = 0 need none).
    """
    ks = [validate_qubit_index(None, k) for k in ks]
    ss = validate_times(ss)
    z_max = 4.0 * math.pi * float(np.max(ss, initial=0.0))
    top = _tail_orders(max(ks, default=1), z_max)
    if z_max > 0.0 and (top > MAX_BESSEL_ORDER or z_max > MAX_BESSEL_ARG):
        raise GuardError(
            f"the closed form sums Bessel orders to {top} at argument {z_max:g}, outside the "
            f"supported envelope (orders <= {MAX_BESSEL_ORDER}, arguments <= {MAX_BESSEL_ARG:g})")
    out = np.zeros((len(ks), len(ss)))
    orders = 2 * np.array(ks, dtype=int)
    for j, s in enumerate(ss.tolist()):
        if s == 0.0:
            continue
        z = 4.0 * math.pi * s
        top = _tail_orders(max(ks, default=1), z)
        terms = (np.arange(top + 1, dtype=float) * bessel_jn_array(top, z)) ** 2
        tails = np.cumsum(terms[::-1])[::-1]
        out[:, j] = 4.0 * np.sqrt(tails[orders]) / z
    return out


def lr_critical(k: int, s: float) -> float:
    """C_k(s) for the semi-infinite chain at J' = 1, evaluated as a Bessel tail sum."""
    return float(lr_critical_grid([k], [s])[0, 0])


def critical_radicand_difference(k: int, z: float) -> float:
    """The radicand in its subtracted form, z^2/4 - sum_{m<2k} m^2 J_m(z)^2.

    Mathematically identical to the tail sum lr_critical uses; kept for
    testing that the subtracted form stays nonnegative up to round-off.
    """
    if k < 1:
        raise ValidationError("qubit index must be >= 1")
    j = bessel_jn_array(2 * k - 1, z)
    m = np.arange(1, 2 * k, dtype=float)
    # (z/2)^2 rounds once; z*z/4 rounds twice once z^2 is subnormal
    return (0.5 * z) ** 2 - float(np.sum((m * j[1:]) ** 2))


def bessel_sum_check(z: float, m_trunc: int) -> float:
    """Partial sum sum_{m=1}^{M} m^2 J_{2m}(z); converges to z^2/8.

    Independent consistency probe for the identities behind the closed form.
    """
    if m_trunc < 0:
        raise ValidationError("truncation must be >= 0")
    if m_trunc == 0:
        return 0.0
    j = bessel_jn_array(2 * m_trunc, z)
    m = np.arange(1, m_trunc + 1, dtype=float)
    return float(np.sum(m * m * j[2::2]))
