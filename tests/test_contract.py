"""The command-line contract: every input ends in a table or in one error line.

Each drawn call of `cli.main` exits 0 with a parseable table and nothing on
stderr, or exits 1 (usage error) or 2 (numeric-guard refusal) with exactly one
stderr line and nothing on stdout.  It raises nothing else, prints no warning
(warnings are errors here) and stays under a `tracemalloc` peak of 64 MiB.
Options are drawn from extreme floats, malformed lists and small chains; `bench`
and `recipe` run fixed cases: every extreme `--smax`, and malformed recipe files.
"""

import contextlib
import io
import json
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from isinglr.cli import main

#: An option's values: plain ones, drawn four times in five, and hostile ones.  Chains
#: stay small enough for the dense route (N <= 8) or past its limit (N = 16, which
#: `front` needs for its default window).
EXTREME = ["0", "-0", "1e-320", "1e-300", "1e300", "inf", "-inf", "nan", "-1"]
NQ = (["2", "3", "5", "8", "16"], ["0", "-1", "x", "1e3"])
JP = (["0.5", "1", "2.5"], EXTREME)
TIME = (["0.5", "1", "2.5"], EXTREME)
COUNT = (["1", "2", "5"], ["0", "-1", "x", "1e3"])
QUBIT = (["2", "5", "10", "13"], ["0", "-1", "x", "16"])
THRESHOLD = (["0.1", "0.5", "1e-3"], EXTREME)
QUBITS = (["1", "2,5", "1..4", "1,2,...,4"],
          ["3,3", "2,1", "4..2", "0..3", "1..", "1,...,3", "", ",", "a", "nan", "1e300"])
TIMES = (["0.5", "0.1,0.2", "1,2", "0,0.25,...,1"],
         ["3,3", "2,1", "0.5,1,...,2", "", ",", "a", "1e300", "1e-320", "nan", "-inf", "1e3"])
DIGITS = (["16", "20"], ["15", "x", "-1"])
FORMAT = (["csv", "json"], ["xml"])
FLAG = ([True], [True])

#: Each command's options, drawn half the time unless `REQUIRED`; a flag takes no value.
OPTIONS = {
    "correlate": {"--nq": NQ, "--jp": JP, "--k": QUBITS, "--s": TIMES, "--smax": TIME,
                  "--ns": COUNT, "--method": (["walk", "direct", "both", "critical"], ["x"]),
                  "--digits": DIGITS, "--format": FORMAT},
    "snapshot": {"--nq": NQ, "--jp": JP, "--s": TIMES, "--k": QUBITS, "--critical": FLAG,
                 "--digits": DIGITS, "--format": FORMAT},
    "front": {"--nq": NQ, "--jp": JP, "--threshold": THRESHOLD, "--kmin": QUBIT,
              "--kmax": QUBIT},
    "saturation": {"--jp": (["0.5", "1,2.5"], TIMES[1] + EXTREME), "--nq": NQ, "--k": QUBIT,
                   "--format": FORMAT},
    "velocities": {"--jp": (["0.5", "1,2.5"], TIMES[1] + EXTREME), "--nq": NQ,
                   "--threshold": THRESHOLD, "--format": FORMAT},
    "lightcone": {"--nq": NQ, "--jp": JP, "--kmin": QUBIT, "--kmax": QUBIT, "--smax": TIME,
                  "--ns": COUNT, "--digits": DIGITS, "--format": FORMAT},
    "edge": {"--jp": JP, "--k": QUBITS, "--s": TIMES, "--format": FORMAT,
             "--forms": (["exact", "largek", "exponential", "exact,largek,exponential"],
                         ["exact,exact", "x", ""])},
}

#: Options always drawn (`--nq` and `--jp` for a command not listed): the required
#: ones, and the chain and time-grid sizes whose defaults (200 qubits, or 101 times
#: to s = 30) are not small.
REQUIRED = {"correlate": ("--nq", "--jp", "--ns"), "snapshot": ("--nq", "--jp", "--s"),
            "lightcone": ("--nq", "--jp", "--smax", "--ns"), "edge": ("--jp", "--k", "--s")}

#: The most memory one call may trace.
MAX_PEAK = 64 * 2**20


@st.composite
def argvs(draw):
    """A command and a drawn subset of its options, each with a drawn value."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for option, (plain, hostile) in OPTIONS[command].items():
        if option in REQUIRED.get(command, ("--nq", "--jp")) or draw(st.booleans()):
            value = draw(st.sampled_from(hostile if draw(st.integers(0, 4)) == 0 else plain))
            argv += [option] if value is True else [option, value]
    return argv


def parse_table(text: str, json_out: bool) -> None:
    """Fail unless `text` is one JSON document, or CSV `#` metadata, a header and
    rows as wide as the header."""
    if json_out:
        json.loads(text)
        return
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert lines, "no header"
    width = len(lines[0].split(","))
    assert all(len(line.split(",")) == width for line in lines[1:])


def check_contract(argv: list) -> None:
    """Run `main(argv)` in process and hold it to the contract."""
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = out.getvalue(), err.getvalue()
    assert peak < MAX_PEAK, f"{argv}: traced peak {peak} bytes"
    if code == 0:
        assert err == "", f"{argv}: {err!r}"
        parse_table(out, argv[0] in ("front", "bench") or "json" in argv)
    else:
        assert code in (1, 2), f"{argv}: exit {code}"
        assert out == "", f"{argv}: {out!r}"
        assert err.count("\n") == 1 and err.endswith("\n"), f"{argv}: {err!r}"
        assert err.startswith("error: " if code == 1 else "numeric guard: "), f"{argv}: {err!r}"


@given(argvs())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_every_call_ends_in_a_table_or_one_error_line(argv):
    check_contract(argv)


@pytest.mark.parametrize("smax", EXTREME)
def test_bench_ends_in_a_report_or_one_error_line(smax):
    check_contract(["bench", "--nq", "4,6", "--compare-nq", "4", "--repeats", "1", "--ns", "3",
                    "--smax", smax])


@pytest.mark.parametrize("text", ["{bad", "[1]", '{"command": "correlate", "options": [1, 2]}',
                                  '{"command": ["correlate"]}'],
                         ids=["not-json", "array", "options-list", "command-list"])
def test_malformed_recipe_ends_in_one_error_line(text, tmp_path):
    config = tmp_path / "recipe.json"
    config.write_text(text)
    check_contract(["recipe", str(config)])
