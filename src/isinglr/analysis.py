"""Experiment drivers: the route table, front extraction, saturation, light-cone grids.

`route_grid` pairs each route with its trust rule in `params` and returns a
`RouteGrid`, the one grid type of every route-backed table, which checks its
shape and, for exact values, the [0, 2] bound and C(0) = 0 on construction.
The drivers turn such grids into the headline numbers: the front velocity from
threshold-crossing times, the long-time saturation level, and log-scale
light-cone maps.  All of them respect the reflection horizon: on a finite
chain, excitations bounce off the far end and travel back, so data past the
round-trip time no longer represents an infinite chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .params import (
    ChainParams,
    GuardError,
    HorizonError,
    Method,
    ThresholdNotReachedError,
    ValidationError,
    cast_trusted,
    critical_trusted,
    double_trusted,
    validate_budget,
    validate_correlations,
    validate_count,
    validate_increasing,
    validate_params,
    validate_positive,
    validate_qubit_index,
    validate_threshold,
)
from .asymptotics import saturation_value, v_group_max
from . import critical, oracle, walk

#: The fewest qubits a fit window holds: the crossing-time model has three parameters.
MIN_FIT_QUBITS = 4


@dataclass(frozen=True)
class FrontEstimate:
    """Threshold-crossing times and the front velocity fitted from them."""

    threshold: float
    crossing_times: tuple          # ((k, s_k), ...) over the fit range
    velocity: float                # units of 1/tau
    fit_range: tuple               # (k_min, k_max)

    def __post_init__(self):
        ts = [s for _, s in self.crossing_times]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValidationError("crossing times must increase with qubit index")
        if not (self.velocity > 0.0):
            raise ValidationError("front velocity must be positive")

    @property
    def step_velocities(self) -> tuple:
        """1/(s_{k+1} - s_k) per adjacent pair, each gap positive once constructed."""
        ts = [s for _, s in self.crossing_times]
        return tuple(1.0 / (b - a) for a, b in zip(ts, ts[1:]))


@dataclass(frozen=True)
class RouteGrid:
    """One route's C_k(s) on a (k, s) grid, or its log10, with a per-cell trust mask.

    `values` and `trusted` are (len(ks), len(ss)) arrays; exact values (not
    `log10`) are checked against the [0, 2] bound and C(0) = 0 on construction.
    """

    route: Method
    ks: tuple
    ss: np.ndarray
    values: np.ndarray
    trusted: np.ndarray            # False where untrusted
    log10: bool = False

    def __post_init__(self):
        shape = (len(self.ks), len(self.ss))
        if self.values.shape != shape or self.trusted.shape != shape:
            raise ValidationError("grid arrays must be (n_k, n_s)")
        if not self.log10:
            validate_correlations(self.values, self.ss)


def route_grid(method: Method, p: ChainParams, ks, ss, digits=None) -> RouteGrid:
    """One route's grid as doubles with the trust mask of its rule in `params`:
    the eig walk, the walk with `digits` (each cell rounded once from its integer
    tail sum), the dense oracle or the J' = 1 closed form.  The other routes
    ignore `digits`."""
    if method is Method.CRITICAL:
        grid = critical.lr_critical_grid(ks, ss)
        trusted = critical_trusted(grid, ss)
    elif method is Method.WALK and digits is not None:
        grid, tails = walk.lr_walk_grid_doubles(p, ks, ss, digits)
        trusted = cast_trusted(tails, grid)
    else:
        grid = (oracle.lr_direct_grid if method is Method.DIRECT else walk.lr_walk_grid)(p, ks, ss)
        trusted = double_trusted(grid, ss)
    return RouteGrid(method, ks, ss, grid, trusted)


def route_grids(routes, p: ChainParams, ks, ss, digits=None) -> tuple:
    """The grids of `routes` in route order; every route is checked to apply
    before the first grid is computed."""
    if Method.CRITICAL in routes and p.j_coupling != 1.0:
        raise ValidationError("the closed form applies at jp = 1 only")
    if digits is not None and Method.WALK not in routes:
        raise ValidationError("--digits applies to the walk route only")
    return tuple(route_grid(method, p, ks, ss, digits) for method in routes)


def reflection_safe_horizon(p: ChainParams, k):
    """Latest time before end-of-chain reflections can reach qubit k, or an array
    of them for a sequence of qubits, each index checked.

    Round trip of the fastest quasiparticle from qubit 1 to the end and back
    to qubit k: (2 N - k - 1) / v_max.  Infinite for decoupled chains, and at
    subnormal couplings, where it is past every double.
    """
    validate_params(p)
    if np.ndim(k):
        k = np.array([validate_qubit_index(p, q) for q in k], dtype=float)
    else:
        validate_qubit_index(p, k)
    v = v_group_max(p.j_coupling)
    if v == 0.0:
        return math.inf + 0.0 * k      # an array of inf for a sequence
    # at a subnormal speed the round trip outlasts every double: inf is its value
    with np.errstate(over="ignore"):
        return (2.0 * p.n_qubits - k - 1.0) / v


def _expected_arrival(p: ChainParams, k: int) -> float:
    """k / v_front, which sets the default time windows; J' = 0 has none."""
    v = v_group_max(p.j_coupling)
    if v == 0.0:
        raise GuardError(f"J' = 0 decouples the chain: no front travels, so qubit {k} "
                         "has no default time window")
    return k / v


def crossing_time(p: ChainParams, k: int, threshold: float,
                  coarse_step: float = 0.02, s_max: float = None) -> float:
    """First time C_k reaches `threshold`: a coarse bracket, then solved to 1e-8.

    Later re-crossings from quantum oscillations are ignored; front arrival
    is the first-passage event.  See `_first_crossings`.
    """
    validate_params(p)
    validate_qubit_index(p, k)
    coarse_step = validate_positive("coarse_step", coarse_step)
    if s_max is not None:
        s_max = validate_positive("s_max", s_max)
    threshold = validate_threshold(threshold, saturation_value(p.j_coupling))
    horizon = reflection_safe_horizon(p, k)
    if s_max is None:
        s_max = min(horizon, 3.0 * _expected_arrival(p, k) + 12.0)
    if s_max > horizon:
        raise HorizonError(f"search window {s_max} exceeds reflection horizon {horizon:.4g}")

    grid = _sweep_times(1, s_max, coarse_step)
    return float(_first_crossings(p, [k], threshold, grid, s_max)[0])


def _sweep_times(n_k: int, s_end: float, step: float) -> np.ndarray:
    """The coarse sweep 0, step, ... through s_end, once n_k qubits x its length
    (counted before any time is built) are within the grid budget."""
    count = np.ceil((s_end + step) / step)         # np.arange's length, inf past the doubles
    validate_budget(n_k * count, f"a sweep of {n_k} qubits x {count:.0f} times to s = {s_end:.4g}")
    return np.arange(0.0, s_end + step, step)


def _first_crossings(p: ChainParams, ks, threshold: float, grid: np.ndarray,
                     s_end: float) -> np.ndarray:
    """First upward crossing of `threshold` for every k: the midpoint of a
    sign-change bracket at most 1e-8 wide.

    The coarse sweep over `grid` stops after the first block of times in which
    every k has crossed.  The ITP method (Oliveira & Takahashi, ACM TOMS 47
    (2020), art. 5; eps = 5e-9, n0 = 1) then solves all first brackets together
    from the sweep's values at their ends, in at most one step more than
    bisection, each step one walk grid over the open brackets, of which it keeps
    the diagonal C_{k_i}(s_i).
    """
    for stop, values in walk.lr_walk_blocks(p, ks, grid):
        up = (values[:, :stop - 1] < threshold) & (values[:, 1:stop] >= threshold)
        if up.any(axis=1).all():
            break
    missed = ~up.any(axis=1)
    if missed.any():
        raise ThresholdNotReachedError(
            f"C_{ks[np.argmax(missed)]} never reaches {threshold} before s = {s_end:.4g}")
    ks, first = np.asarray(ks), np.argmax(up, axis=1)
    lo, hi = grid[first], grid[first + 1]
    f_lo, f_hi = (values[np.arange(len(ks)), first + d] - threshold for d in (0, 1))
    eps, step, kappa1 = 5e-9, 0, 0.2 / (hi - lo)
    n_max = np.ceil(np.log2((hi - lo) / (2.0 * eps))) + 1.0       # bisection's steps + n0
    while (i := np.flatnonzero(hi - lo > 2.0 * eps)).size:
        a, b, fa, fb = lo[i], hi[i], f_lo[i], f_hi[i]
        mid, radius = 0.5 * (a + b), eps * 2.0 ** (n_max[i] - step) - 0.5 * (b - a)
        falsi = (b * fa - a * fb) / (fa - fb)
        # a truncation below a few ulps of s would round back onto the same point
        toward = np.sign(mid - falsi)
        delta = np.maximum(kappa1[i] * (b - a) ** 2, 4.0 * np.spacing(mid))
        x = np.where(delta <= np.abs(mid - falsi), falsi + toward * delta, mid)
        x = np.where(np.abs(x - mid) <= radius, x, mid - toward * radius)
        f = np.diagonal(walk.lr_walk_grid(p, ks[i], x)) - threshold
        below, step = f < 0.0, step + 1
        lo[i[below]], f_lo[i[below]] = x[below], f[below]
        hi[i[~below]], f_hi[i[~below]] = x[~below], f[~below]
    return 0.5 * (lo + hi)


def default_fit_range(p: ChainParams) -> tuple:
    """Bulk window clear of the near-end transient and the reflection zone; a
    chain too short for `MIN_FIT_QUBITS` of it (N < 14) has none."""
    k_min = max(10, p.n_qubits // 10)
    k_max = min(max(k_min + 4, (7 * p.n_qubits) // 10), p.n_qubits - 1)
    if k_max - k_min + 1 < MIN_FIT_QUBITS:
        raise ValidationError(
            f"a chain of {p.n_qubits} qubits has no default fit window: it starts at "
            f"k = {k_min} and needs {MIN_FIT_QUBITS} qubits before the chain end")
    return k_min, k_max


def front_velocity(p: ChainParams, threshold: float = 0.1,
                   fit_range: tuple = None) -> FrontEstimate:
    """Front speed from threshold-crossing times across the bulk window.

    The crossing time grows as s_k = k/v + b k^(1/3) + a: the cube-root term
    is the slow front broadening, and dropping it biases any small-window
    slope by several percent.  A least-squares fit of that three-parameter
    model recovers v well inside 2 percent; the raw per-step finite
    differences are reported alongside.  An open end of `fit_range` (None)
    takes its value from `default_fit_range`; the window must hold at least
    `MIN_FIT_QUBITS` qubits.
    """
    validate_params(p)
    threshold = validate_threshold(threshold, saturation_value(p.j_coupling))
    fit_range = tuple(fit_range or (None, None))
    if None in fit_range:
        fit_range = tuple(default if k is None else k for k, default
                          in zip(fit_range, default_fit_range(p), strict=True))
    k_min, k_max = (validate_qubit_index(p, k) for k in fit_range)
    if k_max - k_min + 1 < MIN_FIT_QUBITS:
        raise ValidationError(f"fit range {fit_range} must hold at least {MIN_FIT_QUBITS} "
                              "qubits for the three-parameter fit")

    ks = np.arange(k_min, k_max + 1)
    # crossings happen near k / v_front, so 1.5x arrival plus a pad suffices
    s_top = min(reflection_safe_horizon(p, k_max),
                1.5 * _expected_arrival(p, k_max) + 15.0)
    grid = _sweep_times(len(ks), s_top, 0.02)
    times = _first_crossings(p, ks, threshold, grid, s_top)

    design = np.column_stack([np.ones_like(ks, dtype=float), ks.astype(float),
                              ks.astype(float) ** (1.0 / 3.0)])
    coeffs, *_ = np.linalg.lstsq(design, times, rcond=None)
    velocity = 1.0 / coeffs[1]
    return FrontEstimate(threshold=threshold,
                         crossing_times=tuple(zip(ks.tolist(), times.tolist())),
                         velocity=float(velocity),
                         fit_range=(k_min, k_max))


def measure_saturation(p: ChainParams, k: int, s_window: tuple,
                       samples: int = 400) -> float:
    """Maximum of C_k over a window after front passage; approaches C_sat.

    The window must end before the reflection horizon, otherwise the finite
    chain contaminates the plateau.
    """
    validate_params(p)
    validate_qubit_index(p, k)
    samples = validate_count("samples", samples)
    s_lo, s_hi = float(s_window[0]), float(s_window[1])
    if not (0.0 <= s_lo < s_hi):
        raise ValidationError(f"bad saturation window {s_window}")
    horizon = reflection_safe_horizon(p, k)
    if s_hi > horizon:
        raise HorizonError(
            f"window end {s_hi} exceeds reflection horizon {horizon:.4g} for k={k}")
    grid = np.linspace(s_lo, s_hi, samples)
    return float(np.max(walk.lr_walk_grid(p, [k], grid)[0]))


def saturation_window(p: ChainParams, k: int, width: float = 15.0) -> tuple:
    """A default window: well after front arrival, inside the horizon."""
    width = validate_positive("width", width)
    arrival = _expected_arrival(p, k)
    start = 3.0 * arrival + 8.0
    horizon = reflection_safe_horizon(p, k)
    if start + 1.0 > horizon:
        raise HorizonError(f"no reflection-safe saturation window for k={k} on this chain")
    return start, min(start + width, horizon)


def lightcone(p: ChainParams, k_range: tuple, s_range: tuple,
              resolution: int = 101, digits: int = None) -> RouteGrid:
    """log10 C_k(s) over a (k, s) grid, a `RouteGrid` with `log10` set.

    In double precision it is the log10 of `route_grid`'s walk grid, with the
    same mask: cells below the 1e-13 floor are untrusted (exact zeros at s=0
    stay trusted and are reported as -inf).  Passing `digits` switches to the
    arbitrary-precision rows, which resolve tails to 1e-100 and below, each
    log10 rounded once from its integer tail sum.  An open end of `k_range`
    (None) is the end of the chain, 1 or N; the times must strictly increase.
    """
    validate_params(p)
    k_lo, k_hi = (validate_qubit_index(p, end if k is None else k)
                  for k, end in zip(k_range, (1, p.n_qubits), strict=True))
    if k_hi < k_lo:
        raise ValidationError("empty qubit range")
    ks = tuple(range(k_lo, k_hi + 1))
    resolution = validate_count("resolution", resolution)
    validate_budget(resolution, f"resolution {resolution}")
    s_lo, s_hi = float(s_range[0]), float(s_range[1])
    if not (0.0 <= s_lo <= s_hi < math.inf):
        raise ValidationError(f"bad time range {s_range}")
    ss = validate_increasing(np.linspace(s_lo, s_hi, resolution))

    if digits is None:
        grid = route_grid(Method.WALK, p, ks, ss)
        with np.errstate(divide="ignore"):
            return replace(grid, values=np.log10(grid.values), log10=True)
    logs = walk.lr_walk_grid_log10(p, ks, ss, digits)
    return RouteGrid(Method.WALK, ks, ss, logs, np.ones_like(logs, dtype=bool), log10=True)
