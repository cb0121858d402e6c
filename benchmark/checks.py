"""Output checks: parse a CLI result by column name and compare sampled cells.

`#` metadata lines, unknown columns and the `trusted` flags are ignored, so
added metadata or changed trust rules never fail a check.  Rows are found by
their key columns (s; k; k and s; jp), matched within KEY_TOL, so a time
grid computed in another order still lines up.
"""

from __future__ import annotations

import json
import math

KEY_TOL = 1e-9

# key columns of each output kind
KEYS = {
    "correlate": ("s",),
    "snapshot": ("k",),
    "lightcone": ("k", "s"),
    "edge": ("k", "s"),
    "saturation": ("jp",),
    "front": ("k",),
}


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


def parse_table(text: str, fmt: str):
    """(columns, rows) from CSV or a JSON {"columns", "rows"} table."""
    if fmt == "json":
        payload = json.loads(text)
        return list(payload["columns"]), [list(r) for r in payload["rows"]]
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise CheckFailed("empty table")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def parse_front(text: str):
    """Front estimate JSON as a (k, s) table plus the velocity."""
    payload = json.loads(text)
    rows = [[k, s] for k, s in payload["crossing_times"]]
    return ["k", "s"], rows, float(payload["velocity"])


def _resolve_column(columns, spec) -> int:
    """Index of a column named exactly, or of a [prefix, value] column like C_s3.5."""
    if isinstance(spec, str):
        if spec not in columns:
            raise CheckFailed(f"missing column {spec!r}")
        return columns.index(spec)
    prefix, value = spec
    for i, name in enumerate(columns):
        if name.startswith(prefix):
            try:
                if abs(float(name[len(prefix):]) - value) <= KEY_TOL:
                    return i
            except ValueError:
                continue
    raise CheckFailed(f"missing column {prefix}{value!r}")


class _RowIndex:
    """Rows by rounded key, checked within KEY_TOL on lookup."""

    def __init__(self, columns, rows, keys):
        try:
            self.pos = [columns.index(k) for k in keys]
        except ValueError:
            raise CheckFailed(f"missing key columns {keys}") from None
        self.rows = {}
        for r in rows:
            key = tuple(float(r[p]) for p in self.pos)
            self.rows.setdefault(tuple(round(v * 1e6) for v in key), []).append((key, r))

    def find(self, key):
        base = tuple(round(v * 1e6) for v in key)
        for delta in ((0,) * len(key), *(_neighbours(len(key)))):
            for got, row in self.rows.get(tuple(b + d for b, d in zip(base, delta)), ()):
                if all(abs(g - v) <= KEY_TOL for g, v in zip(got, key)):
                    return row
        raise CheckFailed(f"missing row {key}")


def _neighbours(n):
    if n == 1:
        return [(-1,), (1,)]
    return [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if (a, b) != (0, 0)]


def compare(got: float, cell: dict) -> bool:
    if cell.get("transform") == "pow10":
        got = 0.0 if got == -math.inf else 10.0 ** got
    ref = cell["ref"]
    return math.isfinite(got) and abs(got - ref) <= cell["atol"] + cell["rtol"] * abs(ref)


def check(kind: str, fmt: str, text: str, cells: list) -> None:
    """Raise CheckFailed at the first cell whose value is off its reference."""
    if not cells:
        raise CheckFailed("no reference cells")
    velocity = None
    if kind == "front":
        columns, rows, velocity = parse_front(text)
    else:
        columns, rows = parse_table(text, fmt)
    index = _RowIndex(columns, rows, KEYS[kind])
    for cell in cells:
        if cell["col"] == "velocity":
            got = velocity
        else:
            row = index.find(cell["row"])
            got = float(row[_resolve_column(columns, cell["col"])])
        if not compare(got, cell):
            raise CheckFailed(f"{cell['col']} at {cell['row']}: got {got!r}, "
                              f"reference {cell['ref']!r} (atol {cell['atol']}, "
                              f"rtol {cell['rtol']})")
