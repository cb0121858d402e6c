"""Command-line front end: correlation tables as CSV/JSON.

Each command is layout only: its grids are `analysis.RouteGrid`s, checked on
construction, each with the trust mask of its route's rule in `params`, and a
table's columns are their fields.  CSV files open with `#`-prefixed key=value
metadata lines, then one header row, then data; floats carry 17 significant
digits so files round-trip doubles exactly; log10 of an exact zero is emitted
as the literal -inf and a NaN as nan.  JSON tables carry float cells as the
same 17-digit strings, so -inf and nan survive JSON.  Both formats stream from
one block writer, `_write_rows`, which formats every column a block of rows at
a time; its float cells come from `_decimal17`, a vectorised `format(x, ".17g")`
equal to it byte for byte, which calls `format` itself outside 1e-270 <= |x| <=
1e270 or near a rounding tie.  `correlate`, `snapshot` and `lightcone` rows carry a
`trusted` column: the AND of the `trusted` cells of each value column the row
prints; `lightcone --digits` trusts every cell (`analysis.lightcone`).
Snapshot rows also drop past the reflection-safe horizon of their qubit.

Exit codes: 0 success, 1 usage error, 2 numeric-guard refusal.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass

import click
import numpy as np

from .params import (ChainParams, GuardError, Method, ValidationError, validate_budget,
                     validate_increasing, validate_times)
from . import analysis, asymptotics, bench

USAGE_EXIT = 1
GUARD_EXIT = 2


def fmt(x) -> str:
    return format(x, ".17g") if isinstance(x, float) else str(x)


#: Rows joined and written per write call, so no file is built as one string.
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class Tiled:
    """Column of an outer-product grid: every value repeated `each` times in a
    row, and that sequence repeated `times` times.  A block of rows formats the
    values it indexes, not the whole column."""

    values: object
    each: int = 1
    times: int = 1


def _byte_rows(strings, width: int = 0) -> np.ndarray:
    """The (ASCII) strings as the rows of a NUL-padded uint8 matrix (`width` wide if given)."""
    rows = np.array(list(strings), dtype=f"S{width or ''}")
    return rows.view(np.uint8).reshape(len(rows), rows.itemsize)


# `_decimal17`'s tables: 10^F as a double-double (column F + 260, filled on first use);
# the trailing zeros of each 4-digit group; as 8-byte words, each group with a free
# byte after each digit, the masks that keep digits 1..j, a sign and "0.000" lead, an
# exponent (the last one empty) and the cells of +-0, +-inf and nan.
_POW10 = np.full((2, 551), np.nan)
_TRAILING = sum(np.arange(10**4) % 10**z == 0 for z in range(1, 5))
_GROUPS = np.zeros((10000, 8), np.uint8)
_GROUPS[:, ::2] = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48   # digits of 0..9999
_GROUPS = _GROUPS.view(np.uint64).ravel()
_MASKS = np.frombuffer(b"".join(b"\xff\0" * j + b"\0\0" * (16 - j) for j in range(17)),
                       np.uint64).reshape(17, 4)
_LEAD, _EXPONENT = (np.array(words, "S8").view(np.uint64) for words in (
    [sign + lead for sign in ("", "-") for lead in ("", "0.", "0.0", "0.00", "0.000")],
    [*(f"e{e:+03d}" for e in range(-330, 331)), ""]))
_SPECIAL = _byte_rows(["0", "-0", "inf", "-inf", "nan", "nan"], 48)


def _scaled(a, f):
    """a 10^f as s + t with |t| <= ulp(s) / 2, within 2^-103 a 10^f: Dekker's exact product
    of `a` and the hi part of 10^f (Veltkamp's 26-bit splits), plus `a` times its lo part
    (three roundings of at most 2^-105 a 10^f each: lo's own, that product's and its sum)."""
    for g in set(f[np.isnan(_POW10[0, f + 260])].tolist()):
        num, den = 10 ** max(g, 0), 10 ** max(-g, 0)
        m, d = (num / den).as_integer_ratio()
        _POW10[:, g + 260] = num / den, (num * d - m * den) / (den * d)
    hi, lo = np.take(_POW10, f + 260, axis=1)
    ah, bh = (v * 134217729.0 - (v * 134217729.0 - v) for v in (a, hi))
    p = a * hi
    t = ((ah * bh - p) + ah * (hi - bh) + (a - ah) * bh) + (a - ah) * (hi - bh) + a * lo
    s = p + t
    return s, t - (s - p)


def _decimal17(x) -> np.ndarray:
    """`format(v, ".17g")` of each double `v` in `x`, byte for byte, as the rows of a
    uint8 matrix whose NULs, between characters too, are to be dropped.

    The digits D = round(|v| 10^(16-E)) come from `_scaled`, within 1e-14 of
    |v| 10^(16-E) < 10^17; E = floor(log10 |v|) is corrected by that unrounded product
    and moved up by a round to 10^17.  Then Python's `g` layout: fixed point for
    -4 <= E < 17, else a signed exponent of at least two digits; trailing zeros and a
    bare point dropped.  +-0, +-inf and nan are constant cells.  A cell falls back to
    `format` where |v| is outside [1e-270, 1e270] or the product lies within 1e-9 of a
    rounding tie, which the error bound cannot decide."""
    a = np.abs(x)
    fast = (a >= 1e-270) & (a <= 1e270)
    a = np.where(fast, a, 1.0)                 # the other cells are laid out as 1, then replaced
    e = np.floor(np.log10(a)).astype(np.int64)
    s, t = _scaled(a, 16 - e)
    # s - 10^n is exact near 10^n, so each sum has the sign of the unrounded s + t - 10^n
    shift = ((s - 1e17) + t >= 0).astype(np.int64) - ((s - 1e16) + t < 0)
    if shift.any():
        e += shift
        s, t = _scaled(a, 16 - e)
    d = s.astype(np.int64) + np.rint(t).astype(np.int64)   # a tie takes `format` below
    carry = d == 10 ** 17
    d, e = np.where(carry, 10 ** 16, d), e + carry
    groups = np.empty((len(d), 4), np.int64)   # digits 1-4, 5-8, 9-12, 13-16
    zeros = np.zeros(len(d), np.int64)         # trailing zero digits, group by group
    for g in (3, 2, 1, 0):                     # `//` by a constant is fast, `%` is not
        q = d // 10 ** 4
        d, groups[:, g] = q, d - 10 ** 4 * q
        zeros += (zeros == 12 - 4 * g) * np.take(_TRAILING, groups[:, g])
    sci = (e < -4) | (e > 16)
    point = np.where(sci, 0, e)                # the digit the point follows; < 0: in the lead
    keep = np.where(sci, 16 - zeros, np.maximum(16 - zeros, e))
    # bytes: sign and lead 0-5, digit j 6 + 2j, a point after it 7 + 2j, exponent 40-44
    cells = np.empty((len(a), 6), np.uint64)
    cells[:, 0] = np.take(_LEAD, 5 * (x < 0) + np.maximum(-point, 0))
    cells[:, 1:5] = np.take(_GROUPS, groups) & np.take(_MASKS, keep, axis=0)
    cells[:, 5] = np.take(_EXPONENT, np.where(sci, e + 330, -1))
    cells = cells.view(np.uint8)
    cells[:, 6] = d + 48                       # the first digit
    cells[np.arange(len(a)), 7 + 2 * np.maximum(point, 0)] = 46 * ((point >= 0) & (keep > point))
    const = ~np.isfinite(x) | (x == 0)
    cells[const] = _SPECIAL[(4 * np.isnan(x) + 2 * np.isinf(x) + np.signbit(x))[const]]
    slow = np.flatnonzero(~fast & ~const | (np.abs(np.abs(t - np.rint(t)) - 0.5) < 1e-9))
    cells[slow] = _byte_rows((format(v, ".17g") for v in x[slow].tolist()), 48)
    return cells


def _cells(values, as_json: bool) -> np.ndarray:
    """Cell matrix of a 1-D array of bools, from a table, or of other values by `str`
    (`json.dumps` in JSON)."""
    spell = json.dumps if as_json else str
    if values.dtype.kind == "b":
        return np.take(_byte_rows([spell(False), spell(True)]), values.astype(np.intp), axis=0)
    return _byte_rows(map(spell, values.tolist()))


def _block(col, a: np.ndarray, i: int, n: int):
    """The values that rows i..i+n-1 of a column print, and each row's index into
    them (None: one value per row).  A `Tiled` column gives the span of values its
    rows index, or those rows' values where the span is wider than the block."""
    if not isinstance(col, Tiled):
        return a[i:i + n], None
    at = np.arange(i, i + n) // col.each % len(a)
    lo, hi = at.min(), at.max()
    return (a[at], None) if hi - lo >= n else (a[lo:hi + 1], at - lo)


def _write_rows(stream, columns, as_json: bool) -> bool:
    """Write the rows of equal-length `columns`, one string per block of at most
    `_BLOCK_ROWS` rows, and say whether there were any.  A block's float values, from
    every column (see `_block`), take one `_decimal17` call, rows index their column's
    cells, and the cell matrices are joined by separator columns with the NULs
    dropped.  JSON rows take the `json.dump(indent=2)` layout, floats quoted."""
    arrays = [np.asarray(col.values if isinstance(col, Tiled) else col) for col in columns]
    floats = [a.dtype.kind == "f" for a in arrays]
    row = (",\n      " if as_json else ",").join('"\0"' if as_json and f else "\0" for f in floats)
    seps = [_byte_rows([s]).repeat(_BLOCK_ROWS, axis=0)       # built once for every block
            for s in ((",\n    [\n      %s\n    ]" if as_json else "%s\n") % row).split("\0")]
    rows = max((len(a) * getattr(col, "each", 1) * getattr(col, "times", 1)
                for col, a in zip(columns, arrays)), default=0)
    for i in range(0, rows, _BLOCK_ROWS):
        n = min(_BLOCK_ROWS, rows - i)
        blocks = [_block(col, a, i, n) for col, a in zip(columns, arrays)]
        spans = [v for (v, _), f in zip(blocks, floats) if f]
        cells = iter(np.split(_decimal17(np.concatenate(spans, dtype=float)),
                              np.cumsum([len(v) for v in spans])[:-1]) if spans else ())
        parts = [seps[0][:n]]
        for (v, at), f, sep in zip(blocks, floats, seps[1:]):
            c = next(cells) if f else _cells(v, as_json)
            parts += [c if at is None else np.take(c, at, axis=0), sep[:n]]
        text = np.concatenate(parts, axis=1).tobytes().translate(None, b"\0").decode()
        stream.write(text[1:] if as_json and i == 0 else text)     # no comma before row 1
    return rows > 0


class Output:
    """CSV/JSON writer bound to --out (default stdout)."""

    def __init__(self, path):
        self.path = path

    @contextlib.contextmanager
    def _stream(self):
        if self.path in (None, "-"):
            yield sys.stdout
        else:
            with open(self.path, "w", encoding="utf-8") as stream:
                yield stream

    def json(self, payload: dict):
        with self._stream() as stream:
            json.dump(payload, stream, indent=2)
            stream.write("\n")

    def table(self, meta: dict, header, columns, format: str):
        """Stream equal-length `columns` (1-D arrays, sequences or `Tiled`) under `header`."""
        with self._stream() as stream:
            if format == "json":
                meta = {k: fmt(v) if isinstance(v, float) else v for k, v in meta.items()}
                head = json.dumps({"meta": meta, "columns": list(header), "rows": []}, indent=2)
                stream.write(head[:-len("]\n}")])           # through `"rows": [`
                stream.write("\n  ]\n}\n" if _write_rows(stream, columns, True) else "]\n}\n")
            else:
                stream.write("".join(f"# {key}={fmt(val)}\n" for key, val in meta.items())
                             + ",".join(header) + "\n")
                _write_rows(stream, columns, False)


def _number(kind, item: str, text: str):
    """One list item as `kind` (int or float); anything else is a usage error."""
    try:
        return kind(item)
    except ValueError:
        raise click.UsageError(f"{item!r} in {text!r} is not a valid {kind.__name__}") from None


def _items(text: str, kind) -> list:
    """A comma list of `kind` (int or float), where '...' as the next-to-last
    item continues the two before it, start and next, as an arithmetic
    progression that ends exactly at the last item.  Items before start are
    kept as typed.  Terms are (a + j b) / d, with d the common denominator
    of the exact decimal start and step and one correctly rounded division
    each, so each is the value its decimal spelling would give; a last item
    that is not start plus a whole number (at least one) of steps is a usage
    error."""
    parts = [p.strip() for p in text.split(",")]
    values = [_number(kind, p, text) for p in parts if p != "..."]
    if "..." not in parts:
        return values
    i = parts.index("...")
    if i < 2 or i != len(parts) - 2:
        raise click.UsageError(f"cannot expand ellipsis in {text!r}; use start,next,...,end")
    from fractions import Fraction      # imported on first use, off the start-up path

    try:
        start, nxt, end = (Fraction(parts[j]) for j in (i - 2, i - 1, i + 1))
    except ValueError:
        raise click.UsageError(f"progression in {text!r} needs finite terms") from None
    step = nxt - start
    count = (end - start) / step if step else 0
    if count < 1 or count.denominator != 1:
        raise click.UsageError(
            f"ellipsis in {text!r} is not an arithmetic progression: end - start must be "
            "a whole number (at least one) of steps next - start")
    validate_budget(n := i - 1 + int(count), f"{text!r} expands to {n} items")
    d = math.lcm(start.denominator, step.denominator)
    a, b = int(start * d), int(step * d)
    terms = range(a, a + (int(count) + 1) * b, b)
    return values[:i - 2] + (list(map(kind, terms)) if d == 1 else [t / d for t in terms])


def parse_int_list(text: str):
    """Integer lists: '3', '1,4,9', '1..10', or '1,3,...,39' (see `_items`).

    A list that expands to nothing, such as '3..2', or that holds an item
    that is not an integer, such as 'a', is a usage error.
    """
    text = text.strip()
    if ".." in text and "..." not in text:
        bounds = text.split("..")
        if len(bounds) != 2:
            raise click.UsageError(f"cannot expand range {text!r}; use start..end")
        lo, hi = (_number(int, b, text) for b in bounds)
        validate_budget(n := hi - lo + 1, f"{text!r} expands to {n} items")
        values = list(range(lo, hi + 1))
    else:
        values = _items(text, int)
    if not values:
        raise click.UsageError(f"{text!r} selects nothing")
    return values


def parse_float_list(text: str):
    """Float lists: '0.5', '1,2.5', or '0.5,1,...,3' (see `_items`)."""
    return _items(text, float)


def time_grid(s_values, s_max, n_s):
    if s_values:
        # time-series grids must be strictly increasing: np.unique's sort and
        # mask, spelled out because np.unique imports numpy.ma on first use
        ss = np.sort(np.asarray(parse_float_list(s_values), dtype=float))
        first = np.ones(len(ss), dtype=bool)
        first[1:] = ss[1:] != ss[:-1]
        return ss[first]
    validate_budget(n_s, f"'--ns' expands to {n_s} items")
    # --smax checked before the spread
    return validate_increasing(np.linspace(0.0, validate_times([s_max])[0], n_s))


@click.group()
def cli():
    """Lieb-Robinson correlation functions for the transverse-field Ising chain."""


def _options(*options):
    def apply(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return apply


out_option = click.option("--out", type=click.Path(writable=True), default=None,
                          help="Output file (default stdout).")
chain_options = _options(
    click.option("--nq", type=int, required=True, help="Chain length N."),
    click.option("--jp", type=float, required=True, help="Dimensionless coupling J' = J/gamma."))
output_options = _options(
    out_option,
    click.option("--format", "fmt_name", type=click.Choice(["csv", "json"]),
                 default="csv", show_default=True, help="Table output format."))


@cli.command()
@chain_options
@output_options
@click.option("--k", "k_spec", default=None, help="Qubit indices, e.g. 1..10 or 2,5,9.")
@click.option("--s", "s_values", default=None, help="Explicit time list (overrides --smax/--ns).")
@click.option("--smax", type=float, default=3.0, show_default=True, help="Grid end time t/tau.")
@click.option("--ns", type=click.IntRange(min=1), default=61, show_default=True,
              help="Grid points.")
@click.option("--method", type=click.Choice(["walk", "direct", "both", "critical"]),
              default="walk", show_default=True)
@click.option("--digits", type=int, default=None,
              help="Evaluate the walk rows in arbitrary precision with this many digits.")
def correlate(nq, jp, out, fmt_name, k_spec, s_values, smax, ns, method, digits):
    """Time series of C_k(t/tau) for selected qubits."""
    p = ChainParams(nq, jp)
    ks = parse_int_list(k_spec) if k_spec else list(range(1, min(nq, 10) + 1))
    if len(set(ks)) != len(ks):
        raise click.UsageError(f"--k {k_spec!r} repeats a qubit")
    ss = time_grid(s_values, smax, ns)
    routes = [Method.WALK, Method.DIRECT] if method == "both" else [Method(method)]
    grids = analysis.route_grids(routes, p, ks, ss, digits)
    columns = {f"C{k}_{grid.route.value}": col for grid in grids for k, col in zip(ks, grid.values)}
    if method == "both":
        for k in ks:
            columns[f"absdiff{k}"] = np.abs(columns[f"C{k}_walk"] - columns[f"C{k}_direct"])
    meta = {"nq": nq, "jp": jp, "method": method,
            "precision": digits if digits else "double"}
    Output(out).table(meta, ["s", *columns, "trusted"],
                      [ss, *columns.values(), np.all([g.trusted for g in grids], axis=(0, 1))],
                      fmt_name)


@cli.command()
@chain_options
@output_options
@click.option("--s", "s_values", required=True,
              help="Snapshot times, e.g. 1,3,...,39.")
@click.option("--k", "k_spec", default=None, help="Qubit range (default whole chain).")
@click.option("--critical", "with_critical", is_flag=True,
              help="Add the J'=1 closed-form column for each time.")
@click.option("--digits", type=int, default=None, help="Arbitrary-precision walk rows.")
def snapshot(nq, jp, out, fmt_name, s_values, k_spec, with_critical, digits):
    """Spatial snapshots: C_k at fixed times, one row per qubit."""
    p = ChainParams(nq, jp)
    ks = parse_int_list(k_spec) if k_spec else list(range(1, nq + 1))
    if len(set(ks)) != len(ks):
        raise click.UsageError(f"--k {k_spec!r} repeats a qubit")
    ss = parse_float_list(s_values)
    if len(set(ss)) != len(ss):
        raise click.UsageError(f"--s {s_values!r} repeats a time")
    routes = [Method.WALK, Method.CRITICAL] if with_critical else [Method.WALK]
    grids = analysis.route_grids(routes, p, ks, ss, digits)
    prefix = {Method.WALK: "C", Method.CRITICAL: "critical"}
    header = [f"{prefix[grid.route]}_s{fmt(s)}" for grid in grids for s in ss]
    horizon = analysis.reflection_safe_horizon(p, ks)
    trusted = np.all([g.trusted for g in grids], axis=(0, 2)) & (max(ss) <= horizon)
    meta = {"nq": nq, "jp": jp, "method": "+".join(which.value for which in routes),
            "precision": digits if digits else "double"}
    Output(out).table(meta, ["k", *header, "trusted"],
                      [ks, *(col for grid in grids for col in grid.values.T), trusted], fmt_name)


@cli.command()
@chain_options
@out_option
@click.option("--threshold", type=float, default=0.1, show_default=True)
@click.option("--kmin", type=int, default=None, help="Fit window start (default bulk).")
@click.option("--kmax", type=int, default=None, help="Fit window end (default bulk).")
def front(nq, jp, out, threshold, kmin, kmax):
    """Front-velocity estimate from threshold crossings, as JSON (nested, so no --format)."""
    est = analysis.front_velocity(ChainParams(nq, jp), threshold, (kmin, kmax))
    Output(out).json({
        "nq": nq,
        "jp": jp,
        "threshold": est.threshold,
        "velocity": est.velocity,
        "velocity_expected": asymptotics.v_group_max(jp),
        "v_lieb_robinson": asymptotics.v_lieb_robinson(jp),
        "fit_range": list(est.fit_range),
        "crossing_times": [[int(k), s] for k, s in est.crossing_times],
        "step_velocities": list(est.step_velocities),
    })


@cli.command()
@click.option("--jp", "jp_list", required=True, help="Couplings, e.g. 0.25,0.5,1,2,4.")
@click.option("--nq", type=int, default=200, show_default=True)
@click.option("--k", "k_probe", type=int, default=10, show_default=True,
              help="Probe qubit for the plateau.")
@output_options
def saturation(jp_list, nq, k_probe, out, fmt_name):
    """Measured long-time plateau of C_k against the analytic 2 min(1, 1/J')."""
    jps = parse_float_list(jp_list)
    measured = []
    for jp in jps:
        p = ChainParams(nq, jp)
        window = analysis.saturation_window(p, k_probe)
        measured.append(analysis.measure_saturation(p, k_probe, window))
    Output(out).table({"nq": nq, "k": k_probe}, ["jp", "measured", "analytic"],
                      [jps, measured, [asymptotics.saturation_value(jp) for jp in jps]],
                      fmt_name)


@cli.command()
@click.option("--jp", "jp_list", required=True, help="Couplings to scan.")
@click.option("--nq", type=int, default=200, show_default=True)
@click.option("--threshold", type=float, default=0.1, show_default=True)
@output_options
def velocities(jp_list, nq, threshold, out, fmt_name):
    """Front velocity vs coupling, with the analytic front and leading-edge speeds."""
    jps = parse_float_list(jp_list)
    measured = [analysis.front_velocity(ChainParams(nq, jp), threshold).velocity
                for jp in jps]
    Output(out).table({"nq": nq, "threshold": threshold},
                      ["jp", "v_front_measured", "v_front_analytic", "v_lieb_robinson"],
                      [jps, measured, [asymptotics.v_group_max(jp) for jp in jps],
                       [asymptotics.v_lieb_robinson(jp) for jp in jps]], fmt_name)


@cli.command()
@chain_options
@output_options
@click.option("--kmin", type=int, default=1, show_default=True)
@click.option("--kmax", type=int, default=None, help="Default: chain end.")
@click.option("--smax", type=float, default=30.0, show_default=True)
@click.option("--ns", type=click.IntRange(min=1), default=101, show_default=True)
@click.option("--digits", type=int, default=None,
              help="High-precision rows; needed for contours below 1e-13.")
def lightcone(nq, jp, out, fmt_name, kmin, kmax, smax, ns, digits):
    """Light-cone grid: k, s, log10 C, trusted; -inf marks exact zeros."""
    p = ChainParams(nq, jp)
    grid = analysis.lightcone(p, (kmin, kmax), (0.0, smax), resolution=ns, digits=digits)
    meta = {"nq": nq, "jp": jp, "precision": digits if digits else "double"}
    Output(out).table(meta, ["k", "s", "log10C", "trusted"],
                      [Tiled(grid.ks, each=len(grid.ss)), Tiled(grid.ss, times=len(grid.ks)),
                       np.ravel(grid.values), np.ravel(grid.trusted)], fmt_name)


@cli.command()
@click.option("--jp", type=float, required=True, help="Dimensionless coupling J' = J/gamma.")
@output_options
@click.option("--k", "k_spec", required=True, help="Qubit indices, e.g. 11200..11350.")
@click.option("--s", "s_values", required=True, help="Times, e.g. 928,930,...,940.")
@click.option("--forms", default="exact,largek,exponential", show_default=True,
              help="Comma list from exact,largek,exponential.")
def edge(jp, out, k_spec, s_values, forms, fmt_name):
    """Log-domain leading-edge tables far ahead of the front.

    These analytic forms are the only viable route out at qubit indices in
    the tens of thousands, where matrix methods are hopeless and the values
    underflow doubles by hundreds of decades.  No chain length is involved:
    the forms describe the semi-infinite leading edge.
    """
    ks = parse_int_list(k_spec)
    ss = parse_float_list(s_values)
    wanted = [f.strip() for f in forms.split(",")]
    if len(set(wanted)) != len(wanted):
        raise click.UsageError(f"--forms {forms!r} repeats a form")
    unknown = [f for f in wanted if f not in asymptotics.LEADING_FORMS]
    if unknown:
        raise click.UsageError(f"unknown forms {unknown}")
    header = ["k", "s"] + [f"log10C_{f}" for f in wanted]
    columns = [Tiled(ks, each=len(ss)), Tiled(ss, times=len(ks))]
    columns += [np.ravel(asymptotics.lr_leading_grid(f, ks, ss, jp)) for f in wanted]
    Output(out).table({"jp": jp, "v_lieb_robinson": asymptotics.v_lieb_robinson(jp)},
                      header, columns, fmt_name)


@cli.command("bench")
@click.option("--nq", "nq_list", default="50,100,200,400", show_default=True,
              help="Chain lengths for the walk scaling fit.")
@click.option("--compare-nq", type=int, default=10, show_default=True,
              help="Chain length for the walk vs direct comparison.")
@click.option("--smax", type=float, default=3.0, show_default=True)
@click.option("--ns", type=click.IntRange(min=1), default=60, show_default=True)
@click.option("--repeats", type=int, default=3, show_default=True)
@out_option
def bench_cmd(nq_list, compare_nq, smax, ns, repeats, out):
    """Wall-time scaling of the walk method and speedup over the dense oracle."""
    Output(out).json(bench.report(parse_int_list(nq_list), compare_nq, s_max=smax,
                                  n_times=ns, repeats=repeats))


def recipe_argv(options: dict) -> list:
    """A recipe's options as command-line arguments: `--key value`, or a bare
    `--key` for a true flag (a false flag is left out)."""
    return [arg for key, val in options.items() if val is not False
            for arg in ([f"--{key}"] if val is True else [f"--{key}", str(val)])]


@cli.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(writable=True), default=None,
              help="Overrides the out entry of the recipe.")
def recipe(config, out):
    """Run a saved run configuration (JSON with command + options)."""
    with open(config, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    name = spec.get("command")
    target = cli.get_command(None, name)
    if target is None:
        raise click.UsageError(f"recipe names unknown command {name!r}")
    options = dict(spec.get("options", {}))
    if out is not None:
        options["out"] = out
    target.main(args=recipe_argv(options), standalone_mode=False)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except (click.UsageError, ValidationError) as exc:
        click.echo(f"error: {exc}", err=True)
        return USAGE_EXIT
    except GuardError as exc:
        click.echo(f"numeric guard: {exc}", err=True)
        return GUARD_EXIT
    except click.exceptions.Exit as exc:  # --help and friends
        return exc.exit_code
    except click.Abort:
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
