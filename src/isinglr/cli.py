"""Command-line front end: correlation tables as CSV/JSON.

Output conventions: CSV files open with `#`-prefixed key=value metadata
lines, then one header row, then data; floats carry 17 significant digits so
files round-trip doubles exactly; log10 of an exact zero is emitted as the
literal -inf and a NaN as nan.  JSON tables carry float cells as the same
17-digit strings, so -inf and nan survive JSON.  `correlate`, `snapshot` and
`lightcone` rows carry a `trusted` column: the AND of the trust mask of each
value column the row prints.  `route_grid` is the one place where a route's
grid is checked against the [0, 2] bound and C(0) = 0 and paired with its
trust rule in `params`: eig walk and dense values are trusted at or above
the 1e-13 noise floor; `--digits` walk values, each rounded once to a double
from its integer tail sum, where that double keeps them (an exact zero or a
normal double); closed-form values while their tail sum (C pi s)^2 stays a
normal double.  `lightcone` trusts every `--digits` cell
(`analysis.lightcone`), a log10 rounded likewise.
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

from .params import (
    ChainParams,
    GuardError,
    Method,
    ValidationError,
    cast_trusted,
    critical_trusted,
    double_trusted,
    validate_correlations,
    validate_times,
)
from . import analysis, asymptotics, bench, critical, oracle, walk

USAGE_EXIT = 1
GUARD_EXIT = 2


def fmt(x) -> str:
    return format(x, ".17g") if isinstance(x, float) else str(x)


#: Rows joined and written per write call, so no file is built as one string.
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class Tiled:
    """Column of an outer-product grid: every value repeated `each` times in a
    row, and that sequence repeated `times` times.  Each distinct value is
    formatted once."""

    values: object
    each: int = 1
    times: int = 1


def _cells(col, text: bool):
    """One column's cells, `_BLOCK_ROWS` at a time as lists, with one formatter per
    dtype: floats as 17-significant-digit strings; ints and bools as strings when
    `text`, as themselves otherwise (JSON).  A `Tiled` column formats its distinct
    values once and indexes each block of cells from them."""
    if isinstance(col, Tiled):
        distinct = np.array([c for block in _cells(col.values, text) for c in block],
                            dtype=object)
        rows = len(distinct) * col.each * col.times
        for i in range(0, rows, _BLOCK_ROWS):
            yield distinct[np.arange(i, min(i + _BLOCK_ROWS, rows)) // col.each
                           % len(distinct)].tolist()
        return
    values = np.asarray(col)
    for i in range(0, len(values), _BLOCK_ROWS):
        cells = values[i:i + _BLOCK_ROWS].tolist()
        if values.dtype.kind == "f":
            yield list(map("{:.17g}".format, cells))
        else:
            yield list(map(str, cells)) if text else cells


def _rows(columns, text: bool):
    """Row tuples of equal-length `columns`, one `_BLOCK_ROWS` block at a time."""
    for block in zip(*(_cells(col, text) for col in columns)):
        yield zip(*block)


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

    def csv(self, meta: dict, header, columns):
        with self._stream() as stream:
            for key, val in meta.items():
                stream.write(f"# {key}={fmt(val)}\n")
            stream.write(",".join(header) + "\n")
            for rows in _rows(columns, text=True):
                stream.write("\n".join(map(",".join, rows)) + "\n")

    def json(self, payload: dict):
        with self._stream() as stream:
            json.dump(payload, stream, indent=2)
            stream.write("\n")

    def table(self, meta: dict, header, columns, format: str):
        """Write equal-length `columns` (1-D arrays, sequences or `Tiled`)
        under `header`."""
        if format == "json":
            self.json({"meta": {k: fmt(v) if isinstance(v, float) else v
                                for k, v in meta.items()},
                       "columns": list(header),
                       "rows": [row for rows in _rows(columns, text=False) for row in rows]})
        else:
            self.csv(meta, header, columns)


def _number(kind, item: str, text: str):
    """One list item as `kind` (int or float); anything else is a usage error."""
    try:
        return kind(item)
    except ValueError:
        raise click.UsageError(f"{item!r} in {text!r} is not a valid {kind.__name__}") from None


def _check_length(n: int, text: str):
    """No list longer than the largest walk grid is expanded (a guard refusal)."""
    if n > walk.MAX_GRID_ENTRIES:
        raise GuardError(f"{text!r} expands to {n} items, above the budget {walk.MAX_GRID_ENTRIES}")


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
    _check_length(i - 2 + int(count) + 1, text)
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
        _check_length(hi - lo + 1, text)
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
    _check_length(n_s, "--ns")
    ss = validate_times(np.linspace(0.0, s_max, n_s))
    if np.any(ss[1:] <= ss[:-1]):
        raise ValidationError("time grid must be strictly increasing")
    return ss


def route_grid(method: Method, p: ChainParams, ks, ss, digits=None):
    """One route's grid as doubles, checked against the [0, 2] bound and C(0) = 0,
    and the trust mask from its rule in `params`: the eig walk, the walk with
    `digits` (each cell rounded once from its integer tail sum), the dense oracle
    or the J' = 1 closed form.  The other routes ignore `digits`."""
    if method is Method.CRITICAL:
        grid = validate_correlations(critical.lr_critical_grid(ks, ss), ss)
        return grid, critical_trusted(grid, ss)
    if method is Method.WALK and digits is not None:
        grid, tails = walk.lr_walk_grid_doubles(p, ks, ss, digits)
        return validate_correlations(grid, ss), cast_trusted(tails, grid)
    grid = (oracle.lr_direct_grid if method is Method.DIRECT else walk.lr_walk_grid)(p, ks, ss)
    return validate_correlations(grid, ss), double_trusted(grid, ss)


def route_grids(routes, p: ChainParams, ks, ss, digits=None):
    """The grids of `routes` and their masks, two tuples in route order; every
    route is checked to apply before the first grid is computed."""
    if Method.CRITICAL in routes and p.j_coupling != 1.0:
        raise ValidationError("the closed form applies at jp = 1 only")
    if digits is not None and Method.WALK not in routes:
        raise ValidationError("--digits applies to the walk route only")
    return zip(*(route_grid(method, p, ks, ss, digits) for method in routes))


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
    ss = time_grid(s_values, smax, ns)
    routes = [Method.WALK, Method.DIRECT] if method == "both" else [Method(method)]
    grids, trust = route_grids(routes, p, ks, ss, digits)
    columns = {f"C{k}_{which.value}": col
               for which, grid in zip(routes, grids) for k, col in zip(ks, grid)}
    if method == "both":
        for k in ks:
            columns[f"absdiff{k}"] = np.abs(columns[f"C{k}_walk"] - columns[f"C{k}_direct"])
    meta = {"nq": nq, "jp": jp, "method": method,
            "precision": digits if digits else "double"}
    Output(out).table(meta, ["s", *columns, "trusted"],
                      [ss, *columns.values(), np.all(trust, axis=(0, 1))], fmt_name)


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
    ss = parse_float_list(s_values)
    if len(set(ss)) != len(ss):
        raise click.UsageError(f"--s {s_values!r} repeats a time")
    routes = [Method.WALK, Method.CRITICAL] if with_critical else [Method.WALK]
    grids, trust = route_grids(routes, p, ks, ss, digits)
    prefix = {Method.WALK: "C", Method.CRITICAL: "critical"}
    header = [f"{prefix[which]}_s{fmt(s)}" for which in routes for s in ss]
    horizon = np.array([analysis.reflection_safe_horizon(p, k) for k in ks])
    trusted = np.all(trust, axis=(0, 2)) & (max(ss) <= horizon)
    meta = {"nq": nq, "jp": jp, "method": "+".join(which.value for which in routes),
            "precision": digits if digits else "double"}
    Output(out).table(meta, ["k", *header, "trusted"],
                      [ks, *(col for grid in grids for col in grid.T), trusted], fmt_name)


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
    n_k, n_s = len(grid.k_values), len(grid.s_values)
    meta = {"nq": nq, "jp": jp, "precision": digits if digits else "double"}
    Output(out).table(meta, ["k", "s", "log10C", "trusted"],
                      [Tiled(grid.k_values, each=n_s), Tiled(grid.s_values, times=n_k),
                       np.ravel(grid.log10_c), np.ravel(grid.trust_mask)], fmt_name)


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
    evaluators = {"exact": asymptotics.lr_leading_exact, "largek": asymptotics.lr_leading_largek,
                  "exponential": asymptotics.lr_leading_exponential}
    unknown = [f for f in wanted if f not in evaluators]
    if unknown:
        raise click.UsageError(f"unknown forms {unknown}")
    header = ["k", "s"] + [f"log10C_{f}" for f in wanted]
    columns = [Tiled(ks, each=len(ss)), Tiled(ss, times=len(ks))]
    columns += [[evaluators[f](k, s, jp).log10_magnitude for k in ks for s in ss]
                for f in wanted]
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
