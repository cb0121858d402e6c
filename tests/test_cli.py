import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import click
import numpy as np
import pytest
from click.testing import CliRunner

from isinglr import (ChainParams, DimensionGuardError, GuardError, Method, ValidationError,
                     critical, oracle, params, walk)
from isinglr import __version__, analysis
from isinglr import cli as cli_module
from isinglr.params import cast_trusted, critical_trusted, double_trusted
from isinglr.cli import Output, Tiled, cli, fmt, main, parse_float_list, parse_int_list


def run_ok(args):
    result = CliRunner().invoke(cli, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.output


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.strip().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            meta[key] = val
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestListParsing:
    def test_range_syntax(self):
        assert parse_int_list("1..5") == [1, 2, 3, 4, 5]

    def test_comma_list(self):
        assert parse_int_list("2,5,9") == [2, 5, 9]

    def test_ellipsis_progression(self):
        assert parse_int_list("1,3,...,9") == [1, 3, 5, 7, 9]
        assert parse_float_list("828,830,...,836") == [828.0, 830.0, 832.0, 834.0, 836.0]

    def test_integer_progressions_stay_ranges(self):
        assert cli_module._items("1,3,...,9", int) == range(1, 10, 2)
        assert cli_module._items("9,7,...,1", int) == range(9, 0, -2)
        assert cli_module._items("2,1,3,...,9", int) == [2, 1, 3, 5, 7, 9]
        for spec, typed in (("1,3,...,9", "1,3,5,7,9"), ("9,7,...,1", "9,7,5,3,1")):
            for args in (["correlate", "--nq", "10", "--jp", "0.5", "--ns", "3"],
                         ["snapshot", "--nq", "10", "--jp", "0.5", "--s", "1,2"],
                         ["edge", "--jp", "2", "--s", "1,2", "--forms", "exact"]):
                assert run_ok([*args, "--k", spec]) == run_ok([*args, "--k", typed])

    def test_bad_ellipsis_rejected(self):
        with pytest.raises(click.UsageError):
            parse_int_list("1,...,10")

    @pytest.mark.parametrize("text", ["3..2", "5,3,...,9"])
    def test_empty_selection_rejected(self, text):
        with pytest.raises(click.UsageError):
            parse_int_list(text)

    def test_items_before_a_progression_are_kept(self):
        assert parse_int_list("1,2,3,5,...,9") == [1, 2, 3, 5, 7, 9]
        assert parse_float_list("0.25,1,3,...,7") == [0.25, 1.0, 3.0, 5.0, 7.0]

    def test_fractional_progression_is_exact_decimal(self):
        assert parse_float_list("0.5,1,...,3") == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        # each term is the double its decimal spelling gives: 0.1 + 2 * 0.1 != 0.3
        assert parse_float_list("0.1,0.2,...,0.5") == [0.1, 0.2, 0.3, 0.4, 0.5]
        assert parse_float_list("3,2.75,...,2") == [3.0, 2.75, 2.5, 2.25, 2.0]
        out = run_ok(["correlate", "--nq", "6", "--jp", "0.5", "--k", "1",
                      "--s", "0.5,1,...,3"])
        assert [row[0] for row in parse_csv(out)[2]] == ["0.5", "1", "1.5", "2", "2.5", "3"]

    def test_expansion_past_the_grid_budget_refused(self, monkeypatch):
        monkeypatch.setattr(params, "MAX_GRID_ENTRIES", 1000)
        assert len(parse_int_list("1..1000")) == len(parse_float_list("1,2,...,1000")) == 1000
        assert len(parse_float_list("0.5,1,2,...,999")) == 1000
        for text in ("1..1001", "0,1,...,1000", "0.5,0,1,...,999"):
            with pytest.raises(GuardError, match="expands to 1001 items"):
                parse_float_list(text) if "," in text else parse_int_list(text)
        assert main(["correlate", "--nq", "4", "--jp", "0.5", "--s", "0,0.001,...,1"]) == 2

    def test_time_count_past_the_grid_budget_refused(self, monkeypatch):
        def no_grid(*_args, **_kwargs):
            raise AssertionError("a time grid was built before its count was checked")

        monkeypatch.setattr(params, "MAX_GRID_ENTRIES", 1000)
        monkeypatch.setattr(np, "linspace", no_grid)
        for args in (["correlate", "--nq", "4", "--jp", "0.5"],
                     ["lightcone", "--nq", "4", "--jp", "0.5"],
                     ["bench", "--nq", "4,6", "--compare-nq", "4", "--repeats", "1"]):
            assert main(args + ["--ns", "1001"]) == 2
        assert main(["correlate", "--nq", "4", "--jp", "0.5", "--ns", "1001", "--s", "1"]) == 0
        p = ChainParams(4, 0.5)
        with pytest.raises(GuardError, match="resolution 1001"):
            cli_module.analysis.lightcone(p, (1, 4), (0.0, 1.0), resolution=1001)
        with pytest.raises(GuardError, match="n_times 1001"):
            cli_module.bench.scaling_report((4, 6), n_times=1001, repeats=1)
        with pytest.raises(GuardError, match="n_times 1001"):
            cli_module.bench.comparison_report(4, n_times=1001, repeats=1)

    def test_billion_term_progression_refused_at_once(self):
        assert main(["correlate", "--nq", "4", "--jp", "0.5", "--s", "0,1e-9,...,1"]) == 2
        assert main(["correlate", "--nq", "4", "--jp", "0.5", "--k", "1..1000000000"]) == 2

    @pytest.mark.parametrize("text", ["0.5,1,...,2.2", "1,3,...,1", "1,1,...,3"])
    def test_progression_missing_its_typed_end_rejected(self, text):
        with pytest.raises(click.UsageError, match="whole number"):
            parse_float_list(text)


class TestSelectionExitCodes:
    @pytest.mark.parametrize("args", [
        ["correlate", "--nq", "10", "--jp", "0.5", "--ns", "-1"],
        ["correlate", "--nq", "10", "--jp", "0.5", "--ns", "0"],
        ["lightcone", "--nq", "10", "--jp", "0.5", "--ns", "-3"],
        ["bench", "--nq", "20", "--compare-nq", "4", "--ns", "0", "--repeats", "1"],
    ])
    def test_non_positive_grid_points(self, args):
        assert main(args) == 1

    @pytest.mark.parametrize("args", [
        ["correlate", "--nq", "10", "--jp", "0.5", "--k", "3..2"],
        ["snapshot", "--nq", "10", "--jp", "0.5", "--s", "1", "--k", "3..2"],
        ["edge", "--jp", "2.0", "--k", "5..4", "--s", "1"],
        ["snapshot", "--nq", "10", "--jp", "0.5", "--s", "1,1"],
        ["lightcone", "--nq", "6", "--jp", "0.5", "--kmax", "0", "--ns", "3"],
        ["edge", "--jp", "2.0", "--k", "3", "--s", "1", "--forms", "exact,exact"],
    ])
    def test_empty_or_repeated_selection(self, args):
        assert main(args) == 1

    @pytest.mark.parametrize("args, item", [
        (["correlate", "--nq", "5", "--jp", "0.5", "--k", "a"], "'a'"),
        (["snapshot", "--nq", "5", "--jp", "0.5", "--s", "1,,2"], "''"),
    ], ids=["correlate-k", "snapshot-s"])
    def test_non_numeric_item(self, args, item, capsys):
        assert main(args) == 1
        assert f"error: {item} in " in capsys.readouterr().err

    def test_version_prints_the_package_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr() == (f"isinglr, version {__version__}\n", "")


class TestImports:
    def test_cli_loads_neither_scipy_nor_numpy_ma(self):
        # numpy.ma comes in with np.unique's first call, scipy with scipy.linalg
        code = (
            "import contextlib, io, sys, isinglr.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert isinglr.cli.main(['correlate', '--nq', '10', '--jp', '0.5',\n"
            "                             '--s', '0.3,0.6,0.3', '--digits', '20']) == 0\n"
            "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "               or m == 'numpy.ma' or m.startswith('numpy.ma.')))\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == ""

    def test_digits_tables_load_no_mpmath(self, tmp_path):
        # every command, --digits tables included, with mpmath unimportable
        recipe = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "recipes", "leading_edge_n10_jp05_highprec.json")
        commands = [
            ["correlate", "--nq", "10", "--jp", "0.5", "--s", "0,0.3", "--digits", "30"],
            ["correlate", "--nq", "6", "--jp", "0.5", "--s", "0,0.3", "--method", "both"],
            ["correlate", "--nq", "6", "--jp", "1", "--s", "0,0.3", "--method", "critical"],
            ["snapshot", "--nq", "16", "--jp", "1", "--s", "0.5,1", "--critical", "--digits", "30"],
            ["lightcone", "--nq", "8", "--jp", "0.5", "--smax", "1", "--ns", "3"],
            ["lightcone", "--nq", "8", "--jp", "0", "--smax", "1", "--ns", "3", "--digits", "20"],
            ["edge", "--jp", "2.0", "--k", "11300,11340", "--s", "930,932"],
            ["front", "--nq", "60", "--jp", "1.0", "--kmin", "10", "--kmax", "24"],
            ["saturation", "--jp", "0.5,2", "--nq", "80", "--k", "6"],
            ["velocities", "--jp", "1", "--nq", "70"],
            ["bench", "--nq", "4,6", "--compare-nq", "4", "--ns", "3", "--repeats", "1"],
            ["recipe", recipe, "--out", str(tmp_path / "recipe.csv")],
        ]
        code = (
            "import contextlib, io, sys\n"
            "sys.modules['mpmath'] = None\n"
            "import isinglr.cli\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert isinglr.cli.main(argv) == 0, argv\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True)
        assert done.returncode == 0, done.stderr

    def test_double_precision_correlate_loads_no_mpmath(self):
        code = (
            "import contextlib, io, sys, isinglr.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for method in ('walk', 'both'):\n"
            "        assert isinglr.cli.main(['correlate', '--nq', '6', '--jp', '0.5',\n"
            "                                 '--s', '0,0.3', '--method', method]) == 0\n"
            "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'mpmath'))\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == ""

    @pytest.mark.parametrize("text", ["0.5,0.1,0.5,0.3", "7,5,...,1", "2,-0.0,0.0,1,-0.0",
                                      "0.0,-0.0", "1e-300,5e-324,0,5e-324", "4"])
    def test_time_grid_equals_np_unique(self, text):
        got = cli_module.time_grid(text, 3.0, 61)
        want = np.unique(np.asarray(parse_float_list(text), dtype=float))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestCorrelate:
    def test_csv_shape_and_zero_row(self):
        out = run_ok(["correlate", "--nq", "6", "--jp", "0.5", "--k", "1..3",
                      "--smax", "1.0", "--ns", "5"])
        meta, header, rows = parse_csv(out)
        assert meta["nq"] == "6" and meta["method"] == "walk"
        assert header == ["s", "C1_walk", "C2_walk", "C3_walk", "trusted"]
        assert len(rows) == 5
        assert float(rows[0][1]) == 0.0        # C(0) = 0 exactly

    @pytest.mark.parametrize("jp", ["1e300", "1e154"])
    def test_coupling_above_the_bound_is_a_usage_error(self, jp, capsys):
        # (1 - J')^2 in the walk's mode solver overflowed at 1e300 and warned at 1e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["correlate", "--nq", "4", "--jp", jp, "--k", "1", "--s", "0.5"])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: j_coupling must be <= 1e+150, got "
                                           f"{float(jp)}\n")

    def test_coupling_at_the_bound_is_a_table(self):
        # at J' = 1e150 the walk's phase 2 pi s (1 + J') stays below 2**52 up to s ~ 1e-137
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, rows = parse_csv(run_ok(["correlate", "--nq", "2000", "--jp", "1e150",
                                           "--k", "1,2", "--s", "0,1e-140"]))
        assert [r[-1] for r in rows] == ["True", "False"]

    def test_deterministic_output(self):
        args = ["correlate", "--nq", "5", "--jp", "1.0", "--smax", "2", "--ns", "7"]
        assert run_ok(args) == run_ok(args)

    def test_both_methods_diff_column(self):
        out = run_ok(["correlate", "--nq", "6", "--jp", "0.5", "--k", "1,2",
                      "--smax", "2.0", "--ns", "9", "--method", "both"])
        _, header, rows = parse_csv(out)
        assert "absdiff1" in header and "absdiff2" in header
        col = header.index("absdiff1")
        assert max(float(r[col]) for r in rows) < 1e-10

    def test_both_methods_trust_reads_values_not_differences(self):
        # walk and dense agree to round-off, so the absdiff columns sit below
        # the 1e-13 floor; only C9 = 4e-14 at s = 0.25 makes a row untrusted
        out = run_ok(["correlate", "--nq", "9", "--jp", "0.5", "--k", "1..9",
                      "--smax", "3", "--ns", "13", "--method", "both"])
        _, header, rows = parse_csv(out)
        values = [i for i, name in enumerate(header) if name.startswith("C")]
        for r in rows:
            above = all(float(r[i]) >= 1e-13 for i in values) or float(r[0]) == 0.0
            assert r[-1] == str(above)
        assert [r[-1] for r in rows].count("True") == 12

    def test_direct_guard_exit_code(self):
        code = main(["correlate", "--nq", "20", "--jp", "1.0", "--method", "direct"])
        assert code == 2

    def test_usage_error_exit_code(self):
        assert main(["correlate", "--nq", "4"]) == 1      # missing --jp
        assert main(["correlate", "--nq", "-3", "--jp", "1.0"]) == 1

    def test_non_finite_time_exit_code(self):
        assert main(["correlate", "--nq", "6", "--jp", "0.5", "--k", "2",
                     "--s", "nan", "--digits", "20"]) == 1
        assert main(["correlate", "--nq", "6", "--jp", "0.5", "--k", "2", "--s", "inf"]) == 1

    def test_repeated_qubit_is_a_usage_error(self, capsys):
        # name-keyed columns would otherwise drop the second C1 column
        assert main(["correlate", "--nq", "4", "--jp", "0.5", "--k", "1,1", "--ns", "3",
                     "--method", "both"]) == 1
        assert capsys.readouterr() == ("", "error: --k '1,1' repeats a qubit\n")
        # a snapshot would print the row twice
        assert main(["snapshot", "--nq", "5", "--jp", "0.5", "--s", "1", "--k", "3,3"]) == 1
        assert capsys.readouterr() == ("", "error: --k '3,3' repeats a qubit\n")
        # and so would an edge table, for a repeated qubit or time
        assert main(["edge", "--jp", "2", "--k", "3,3", "--s", "1,1"]) == 1
        assert capsys.readouterr() == ("", "error: --k '3,3' repeats a qubit\n")
        assert main(["edge", "--jp", "2", "--k", "3", "--s", "1,2,1"]) == 1
        assert capsys.readouterr() == ("", "error: --s '1,2,1' repeats a time\n")

    @pytest.mark.parametrize("argv, message", [
        (["snapshot", "--nq", "8", "--jp", "1", "--s", "1e3", "--k", "1..4", "--critical",
          "--digits", "20"], "the closed form sums Bessel orders to 1.3e+04"),
        (["correlate", "--nq", "15", "--jp", "0.5", "--method", "both", "--digits", "20",
          "--k", "1", "--s", "0,1,...,40"], "dense oracle refuses n_qubits=15"),
    ], ids=["critical-envelope", "dense-length"])
    def test_no_route_refuses_after_another_worked(self, argv, message, monkeypatch, capsys):
        def no_rows(*_args):
            raise AssertionError("walk rows were built before a route refused")

        monkeypatch.setattr(walk, "_advance", no_rows)
        monkeypatch.setattr(walk, "_eig_factor", no_rows)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"numeric guard: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, kind", [
        (["correlate", "--nq", "4", "--jp", "0.5", "--k", ""], "int"),
        (["snapshot", "--nq", "4", "--jp", "0.5", "--s", "1", "--k", ""], "int"),
        (["correlate", "--nq", "4", "--jp", "0.5", "--s", ""], "float"),
    ], ids=["correlate-k", "snapshot-k", "correlate-s"])
    def test_empty_list_refused_not_replaced_by_the_default(self, argv, kind, capsys):
        # the rule `edge --k ''` and `snapshot --s ''` follow
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: '' in '' is not a valid {kind}\n")

    def test_closed_form_refusal_prints_its_order_count_in_few_digits(self, capsys):
        # the order count at s = 1e300 has 302 digits
        assert main(["correlate", "--nq", "4", "--jp", "1", "--method", "critical",
                     "--k", "1", "--s", "1e300"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and len(err) < 200
        assert err.startswith("numeric guard: the closed form sums Bessel orders to 1.26e+301 ")

    def test_infinite_smax_refused_before_the_grid(self):
        # np.linspace(0, inf) would warn "invalid value encountered in multiply" first
        code = (
            "import sys, isinglr.cli\n"
            "for command in ('correlate', 'lightcone'):\n"
            "    assert isinglr.cli.main([command, '--nq', '6', '--jp', '0.5',\n"
            "                             '--smax', 'inf']) == 1\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
        done = subprocess.run([sys.executable, "-W", "default", "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stderr == ("error: times must all be finite and >= 0\n"
                               "error: times must all be finite and >= 0\n")
        assert done.stdout == ""

    def test_walk_grid_budget_exit_code(self, monkeypatch):
        def no_factor(p):
            raise AssertionError("an oversized grid reached the factorization")

        monkeypatch.setattr(walk, "_eig_factor", no_factor)
        # an answer of 10 qubits x 2,000,000 times, on a 64-qubit light cone
        assert main(["correlate", "--nq", "200000", "--jp", "0.5", "--ns", "2000000"]) == 2

    def test_time_tuple_built_after_the_walk_budget(self, monkeypatch):
        def no_factor(p):
            raise AssertionError("an oversized grid reached the factorization")

        monkeypatch.setattr(params, "MAX_GRID_ENTRIES", 2 ** 20)
        monkeypatch.setattr(walk, "_eig_factor", no_factor)
        # (2q)^2 + 4 qubits x 300,000 times = 1,200,064 entries on the 4-qubit chain.
        # The times are 2.3 MiB as an array; as a list or tuple of Python floats
        # they would take 9.2 MiB more before the refusal.
        tracemalloc.start()
        try:
            assert main(["correlate", "--nq", "4", "--jp", "0.5", "--ns", "300000"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    @pytest.mark.parametrize("smax", ["0", "1e-322"])
    def test_linspace_grid_must_increase(self, smax, capsys):
        # 61 times from 0 to 0, or to 20 subnormal steps, repeat a time
        assert main(["correlate", "--nq", "4", "--jp", "0.5", "--smax", smax]) == 1
        assert capsys.readouterr() == ("", "error: time grid must be strictly increasing\n")

    def test_long_table_streams_from_its_arrays(self, tmp_path):
        # 50,000 rows of 6 cells: the arrays are 2.4 MB and the CSV 4.9 MB; cells
        # are formatted a block of rows at a time, never a whole column at once
        out = tmp_path / "long.csv"
        args = ["correlate", "--nq", "4", "--jp", "0.5", "--ns", "50000", "--out", str(out)]
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20
        assert out.read_text().count("\n") == 4 + 1 + 50000

    def test_long_json_table_streams_from_its_arrays(self, tmp_path):
        # the same 50,000 rows as JSON: the rows list is never built whole
        out = tmp_path / "long.json"
        args = ["correlate", "--nq", "4", "--jp", "0.5", "--ns", "50000", "--format", "json",
                "--out", str(out)]
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20
        assert len(json.loads(out.read_text())["rows"]) == 50000

    def test_highprec_work_budget_exit_code(self):
        assert main(["correlate", "--nq", "2", "--jp", "0.5", "--k", "1",
                     "--s", "1e6", "--digits", "20"]) == 2

    def test_highprec_work_budget_counts_digits(self, monkeypatch):
        def no_step(*_args):
            raise AssertionError("a Taylor step started before the budget refused")

        monkeypatch.setattr(walk, "_advance", no_step)
        assert main(["correlate", "--nq", "2", "--jp", "0.5", "--k", "1",
                     "--s", "0.1", "--digits", "100000"]) == 2

    def test_highprec_work_budget_counts_partial_steps(self, monkeypatch):
        # every time below the first lattice point takes its own partial step:
        # 1999 steps on 400 nodes, although the largest time needs only one
        def no_step(*_args):
            raise AssertionError("a Taylor step started before the budget refused")

        monkeypatch.setattr(walk, "_advance", no_step)
        assert main(["correlate", "--nq", "200", "--jp", "2", "--k", "1,100", "--smax", "0.45",
                     "--ns", "2000", "--digits", "30"]) == 2

    def test_digits_without_walk_column_rejected(self):
        for method in ("critical", "direct"):
            assert main(["correlate", "--nq", "4", "--jp", "1.0", "--k", "1", "--s", "0.5",
                         "--method", method, "--digits", "30"]) == 1

    def test_critical_method_requires_unit_coupling(self):
        assert main(["correlate", "--nq", "6", "--jp", "0.5", "--method", "critical"]) == 1

    def test_json_format(self):
        out = run_ok(["correlate", "--nq", "4", "--jp", "1.0", "--k", "1",
                      "--smax", "1", "--ns", "3", "--format", "json"])
        data = json.loads(out)
        assert data["columns"][0] == "s"
        assert len(data["rows"]) == 3
        assert data["meta"]["nq"] == 4

    def test_highprec_digits(self):
        out = run_ok(["correlate", "--nq", "4", "--jp", "0.5", "--k", "1",
                      "--smax", "0.4", "--ns", "3", "--digits", "40"])
        meta, header, rows = parse_csv(out)
        assert meta["precision"] == "40"
        assert all(r[-1] == "True" for r in rows)

    def test_digits_cells_lost_in_the_double_cast_untrusted(self):
        # at s = 0.01 the k = 60 value is about 2e-322, subnormal as a double
        out = run_ok(["correlate", "--nq", "80", "--jp", "2", "--k", "40,60",
                      "--s", "0,0.01,0.05", "--digits", "30"])
        _, _, rows = parse_csv(out)
        assert 0.0 < float(rows[1][2]) < 2.2250738585072014e-308
        assert [r[-1] for r in rows] == ["True", "False", "True"]

    def test_digits_keep_the_dense_floor(self):
        # --digits changes the walk column only: C8_direct = 3.8e-15 at s = 0.1
        # is round-off against a true 1.1e-17
        out = run_ok(["correlate", "--nq", "8", "--jp", "0.5", "--k", "1,8",
                      "--s", "0.1,0.3", "--method", "both", "--digits", "30"])
        _, header, rows = parse_csv(out)
        assert float(rows[0][header.index("C8_direct")]) > 1e-15
        assert [r[-1] for r in rows] == ["False", "True"]

    def test_critical_cells_past_tail_underflow_untrusted(self):
        # C40 = 2.5e-212 at s = 0.01, so its tail sum (C pi s)^2 underflows to 0
        out = run_ok(["correlate", "--nq", "200", "--jp", "1", "--k", "1,40,80",
                      "--s", "0,0.01,0.5", "--method", "critical"])
        _, _, rows = parse_csv(out)
        assert float(rows[1][2]) == 0.0
        assert [r[-1] for r in rows] == ["True", "False", "False"]


class TestRouteGrid:
    """Each route's grid comes with the mask of that route's rule in `params`."""

    KS, SS = [1, 3, 6], np.array([0.0, 0.01, 0.4])

    @pytest.mark.parametrize("method, grid_fn, rule", [
        (Method.WALK, walk.lr_walk_grid, double_trusted),
        (Method.DIRECT, oracle.lr_direct_grid, double_trusted),
        (Method.CRITICAL, lambda p, ks, ss: critical.lr_critical_grid(ks, ss), critical_trusted),
    ], ids=["eig", "direct", "critical"])
    def test_double_routes(self, method, grid_fn, rule):
        p = ChainParams(6, 1.0)
        out = analysis.route_grid(method, p, self.KS, self.SS)
        grid, mask = out.values, out.trusted
        want = grid_fn(p, self.KS, self.SS)
        assert grid.tobytes() == want.tobytes()
        assert np.array_equal(mask, rule(want, self.SS))

    def test_digits_walk_route(self):
        p = ChainParams(6, 1.0)
        out = analysis.route_grid(Method.WALK, p, self.KS, self.SS, 30)
        grid, mask = out.values, out.trusted
        exact = walk.lr_walk_grid_highprec(p, self.KS, self.SS, 30)
        assert grid.tobytes() == exact.astype(float).tobytes()
        assert np.array_equal(mask, cast_trusted(exact, grid))

    def test_routes_checked_before_any_grid(self, monkeypatch):
        monkeypatch.setattr(analysis, "route_grid", None)
        p = ChainParams(6, 0.5)
        with pytest.raises(ValidationError):
            analysis.route_grids([Method.WALK, Method.CRITICAL], p, [1], [0.5])
        with pytest.raises(ValidationError):
            analysis.route_grids([Method.DIRECT], p, [1], [0.5], digits=30)


class TestBoundRule:
    """Every correlate, snapshot and double lightcone grid is checked once against
    the [0, 2] bound and C(0) = 0, whichever route computed it."""

    K_S = ["--k", "1,2", "--s", "0,0.5"]

    @pytest.mark.parametrize("args, module, name", [
        (["correlate", "--nq", "6", "--jp", "0.5"], walk, "lr_walk_grid"),
        (["correlate", "--nq", "6", "--jp", "0.5", "--method", "both"], oracle, "lr_direct_grid"),
        (["correlate", "--nq", "6", "--jp", "1", "--method", "critical"], critical,
         "lr_critical_grid"),
        (["correlate", "--nq", "6", "--jp", "0.5", "--digits", "20"], walk,
         "lr_walk_grid_doubles"),
        (["snapshot", "--nq", "6", "--jp", "0.5"], walk, "lr_walk_grid"),
        (["snapshot", "--nq", "6", "--jp", "1", "--critical"], critical, "lr_critical_grid"),
        (["snapshot", "--nq", "6", "--jp", "0.5", "--digits", "20"], walk,
         "lr_walk_grid_doubles"),
    ], ids=["correlate", "correlate-direct", "correlate-critical", "correlate-digits",
            "snapshot", "snapshot-critical", "snapshot-digits"])
    @pytest.mark.parametrize("time, value, message", [
        (1, 2.5, "C(0.5) = 2.5 outside the [0, 2] bound"),
        (1, math.nan, "C(0.5) = nan outside the [0, 2] bound"),
        (0, 0.25, "C(0) must vanish, got 0.25"),
    ], ids=["above", "nan", "nonzero-at-zero"])
    def test_bad_cell_is_a_usage_error(self, args, module, name, time, value, message,
                                       monkeypatch, capsys):
        real = getattr(module, name)

        def bad(*route_args):
            out = real(*route_args)
            (out[0] if isinstance(out, tuple) else out)[-1, time] = value
            return out

        monkeypatch.setattr(module, name, bad)
        assert main(args + self.K_S) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("time, value, message", [
        (1, 2.5, "C(0.5) = 2.5 outside the [0, 2] bound"),
        (1, math.nan, "C(0.5) = nan outside the [0, 2] bound"),
        (0, 0.25, "C(0) must vanish, got 0.25"),
    ], ids=["above", "nan", "nonzero-at-zero"])
    def test_bad_lightcone_cell_is_a_usage_error(self, time, value, message, monkeypatch,
                                                 capsys):
        real = walk.lr_walk_grid

        def bad(*route_args):
            out = real(*route_args)
            out[-1, time] = value
            return out

        monkeypatch.setattr(walk, "lr_walk_grid", bad)
        # qubits 1 and 2 at the times 0 and 0.5, as in the tables above
        assert main(["lightcone", "--nq", "6", "--jp", "0.5", "--kmax", "2", "--smax", "0.5",
                     "--ns", "2"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestSnapshot:
    def test_rows_per_qubit_with_trust(self):
        out = run_ok(["snapshot", "--nq", "30", "--jp", "0.5", "--s", "1,3,...,7"])
        meta, header, rows = parse_csv(out)
        assert header[0] == "k" and header[-1] == "trusted"
        assert len(rows) == 30
        assert len(header) == 1 + 4 + 1

    def test_critical_column(self):
        out = run_ok(["snapshot", "--nq", "40", "--jp", "1.0", "--s", "2", "--critical"])
        _, header, rows = parse_csv(out)
        assert header == ["k", "C_s2", "critical_s2", "trusted"]
        for r in rows[:6]:
            assert float(r[1]) == pytest.approx(float(r[2]), abs=1e-7)

    def test_light_cone_zeros_below_floor_untrusted(self):
        # k = 100 and 200 are exact zeros from the light-cone cut, still below the floor
        out = run_ok(["snapshot", "--nq", "200", "--jp", "0.5", "--s", "1",
                      "--k", "1,60,100,200"])
        _, _, rows = parse_csv(out)
        assert [r[-1] for r in rows] == ["True", "False", "False", "False"]

    def test_digits_rows_lost_in_the_double_cast_untrusted(self):
        # nonzero in mpmath, but 0 as a double at k = 80 and subnormal at k = 60, s = 0.01
        out = run_ok(["snapshot", "--nq", "80", "--jp", "2", "--s", "0.05,0.01",
                      "--k", "40,60,70,80", "--digits", "30"])
        _, _, rows = parse_csv(out)
        assert [r[-1] for r in rows] == ["True", "False", "False", "False"]
        assert float(rows[3][1]) == 0.0

    def test_digits_rows_with_underflowed_critical_cells_untrusted(self):
        # the walk keeps C40 = 2.5e-212 at s = 0.01; the closed form prints 0
        out = run_ok(["snapshot", "--nq", "200", "--jp", "1", "--k", "1,40,80",
                      "--s", "0.01", "--critical", "--digits", "30"])
        _, _, rows = parse_csv(out)
        assert float(rows[1][1]) == pytest.approx(2.5e-212, rel=0.05)
        assert float(rows[1][2]) == 0.0
        assert [r[-1] for r in rows] == ["True", "False", "False"]

    def test_critical_coupling_checked_before_any_grid(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("a walk grid was computed")

        monkeypatch.setattr(walk, "lr_walk_grid", no_grid)
        assert main(["snapshot", "--nq", "20", "--jp", "0.5", "--s", "1", "--critical"]) == 1
        assert main(["correlate", "--nq", "20", "--jp", "0.5", "--method", "critical"]) == 1

    def test_subnormal_coupling_prints_no_warning(self, capsys):
        # at J' = 1e-310 the round trip outlasts every double: the horizon is inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["snapshot", "--nq", "20", "--jp", "1e-310", "--s", "1", "--k", "1"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and parse_csv(out)[1:] == (["k", "C_s1", "trusted"],
                                                    [["1", "9.4086147703502862e-16", "False"]])

    def test_untrusted_rows_flagged_beyond_horizon(self):
        # s = 40 is far past the reflection horizon of a 20-qubit chain
        out = run_ok(["snapshot", "--nq", "20", "--jp", "1.0", "--s", "40"])
        _, header, rows = parse_csv(out)
        assert all(r[-1] == "False" for r in rows)


class TestFrontCommand:
    def test_json_payload(self):
        out = run_ok(["front", "--nq", "60", "--jp", "1.0",
                      "--kmin", "10", "--kmax", "24"])
        data = json.loads(out)
        assert data["fit_range"] == [10, 24]
        assert data["velocity"] == pytest.approx(2 * math.pi, rel=0.08)
        assert data["v_lieb_robinson"] == pytest.approx(math.e * math.pi, rel=1e-12)
        assert len(data["crossing_times"]) == 15

    def test_format_rejected(self):
        # the estimate is nested JSON; there is no CSV form to ask for
        assert main(["front", "--nq", "60", "--jp", "1.0", "--format", "csv"]) == 1

    def test_one_open_fit_end_takes_the_default(self):
        data = json.loads(run_ok(["front", "--nq", "60", "--jp", "1.0", "--kmax", "24"]))
        assert data["fit_range"] == [10, 24]

    def test_unreached_threshold_is_a_guard_refusal(self, capsys):
        # C_4 at J' = 0.5 stays below 1.9999 < C_sat = 2 up to its search window
        assert main(["front", "--nq", "30", "--jp", "0.5", "--threshold", "1.9999",
                     "--kmin", "3", "--kmax", "6"]) == 2
        assert "numeric guard: C_4 never reaches 1.9999" in capsys.readouterr().err

    @pytest.mark.parametrize("kmax", ["21", "22"])
    def test_fit_window_under_four_qubits_is_a_usage_error(self, kmax, capsys):
        # three fit parameters: 2 qubits give a minimum-norm fit, 3 an exact one
        assert main(["front", "--nq", "200", "--jp", "0.5", "--kmin", "20", "--kmax", kmax]) == 1
        assert capsys.readouterr() == (
            "", f"error: fit range (20, {kmax}) must hold at least 4 qubits for the "
                "three-parameter fit\n")

    @pytest.mark.parametrize("args, nq", [
        (["front", "--nq", "5", "--jp", "0.5"], 5),
        (["velocities", "--nq", "11", "--jp", "1"], 11),
        (["front", "--nq", "13", "--jp", "1", "--kmin", "2"], 13),
    ], ids=["front", "velocities", "one-open-end"])
    def test_chain_too_short_for_the_default_window(self, args, nq, capsys):
        assert main(args) == 1
        assert capsys.readouterr() == (
            "", f"error: a chain of {nq} qubits has no default fit window: it starts at "
                "k = 10 and needs 4 qubits before the chain end\n")

    @pytest.mark.parametrize("command", ["front", "velocities"])
    def test_long_sweep_refused_before_its_times(self, command, capsys):
        # at J' = 1e-8 the coarse sweep to s = 3.3e8 is 1.7e10 times, 125 GiB as an
        # array; its length is counted against the grid budget first
        tracemalloc.start()
        try:
            code = main([command, "--nq", "20", "--jp", "1e-8"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == 2 and peak < 16 * 2**20
        assert out == "" and err.startswith("numeric guard: a sweep of 5 qubits")
        assert err.count("\n") == 1

    def test_unresolved_crossings_refused_without_a_warning(self, capsys):
        # at C = 1e-300 the crossings of k = 10..14 fall in one 1e-8 bracket; their
        # order is checked before any step velocity divides by a gap between them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["front", "--nq", "40", "--jp", "0.5", "--threshold", "1e-300",
                         "--kmin", "10", "--kmax", "14"]) == 1
        assert capsys.readouterr() == (
            "", "error: crossing times must increase with qubit index\n")

    def test_shortest_chain_with_a_default_window(self):
        data = json.loads(run_ok(["front", "--nq", "14", "--jp", "1"]))
        assert data["fit_range"] == [10, 13]

    @pytest.mark.parametrize("args", [
        ["front", "--nq", "60", "--jp", "1.0", "--threshold", "nan"],
        ["front", "--nq", "60", "--jp", "1.0", "--threshold", "-0.1"],
        ["velocities", "--nq", "60", "--jp", "1.0", "--threshold", "0"],
        ["velocities", "--nq", "60", "--jp", "1.0", "--threshold", "inf"],
    ])
    def test_bad_threshold_is_a_usage_error(self, args):
        assert main(args) == 1


class TestScanCommands:
    @pytest.mark.parametrize("args", [
        ["front", "--nq", "20", "--jp", "0"],
        ["velocities", "--nq", "20", "--jp", "0,0.5"],
        ["saturation", "--nq", "20", "--jp", "0"],
    ], ids=["front", "velocities", "saturation"])
    def test_decoupled_chain_is_a_guard_refusal(self, args, capsys):
        # at J' = 0 no front travels, so there is no default time window
        assert main(args) == 2
        assert "J' = 0 decouples the chain" in capsys.readouterr().err

    def test_saturation_table(self):
        out = run_ok(["saturation", "--jp", "0.5,2", "--nq", "80", "--k", "6"])
        _, header, rows = parse_csv(out)
        assert header == ["jp", "measured", "analytic"]
        measured = {float(r[0]): float(r[1]) for r in rows}
        assert measured[0.5] == pytest.approx(2.0, rel=0.02)
        assert measured[2.0] == pytest.approx(1.0, rel=0.02)

    def test_saturation_runs_on_the_given_chain(self):
        # the k = 10 window at J' = 4 needs more than 40 qubits, as at J' = 2
        for jp in ("2", "4"):
            assert main(["saturation", "--jp", jp, "--nq", "40", "--k", "10"]) == 2

    def test_velocities_table(self):
        out = run_ok(["velocities", "--jp", "1", "--nq", "70"])
        _, header, rows = parse_csv(out)
        assert header == ["jp", "v_front_measured", "v_front_analytic", "v_lieb_robinson"]
        v = float(rows[0][1])
        assert v == pytest.approx(2 * math.pi, rel=0.08)
        assert v < float(rows[0][3])


class TestLightconeCommand:
    def test_minus_inf_literal_and_trust(self):
        out = run_ok(["lightcone", "--nq", "20", "--jp", "1.0",
                      "--kmax", "6", "--smax", "2", "--ns", "3"])
        _, header, rows = parse_csv(out)
        assert header == ["k", "s", "log10C", "trusted"]
        zero_time = [r for r in rows if float(r[1]) == 0.0]
        assert zero_time and all(r[2] == "-inf" for r in zero_time)

    def test_zero_width_time_grid_is_a_usage_error(self, capsys):
        # three times from 0 to 0 repeat a time, as in correlate
        assert main(["lightcone", "--nq", "3", "--jp", "0.5", "--smax", "0", "--ns", "3"]) == 1
        assert capsys.readouterr() == ("", "error: time grid must be strictly increasing\n")

    def test_one_time_at_zero(self):
        _, _, rows = parse_csv(run_ok(["lightcone", "--nq", "3", "--jp", "0.5", "--smax", "0",
                                       "--ns", "1"]))
        assert rows == [[str(k), "0", "-inf", "True"] for k in (1, 2, 3)]

    def test_long_time_axis_streams_from_its_arrays(self, tmp_path):
        # 200,000 times on one qubit: the Tiled s column is formatted a block of rows
        # at a time, like every other column, never whole
        out = tmp_path / "cone.csv"
        args = ["lightcone", "--nq", "1", "--jp", "0.5", "--ns", "200000", "--out", str(out)]
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20
        assert out.read_text().count("\n") == 3 + 1 + 200000


class TestLongTimes:
    """A time whose largest phase reaches 2**52 keeps no fractional digit in a double:
    the double routes refuse it in one line, before any array is built."""

    @pytest.mark.parametrize("args, route", [
        (["correlate", "--nq", "4", "--jp", "0.5", "--k", "1", "--s", "1e308"], "walk"),
        (["lightcone", "--nq", "4", "--jp", "0.5", "--smax", "1e308", "--ns", "2"], "walk"),
        (["snapshot", "--nq", "4", "--jp", "0.5", "--s", "1e308"], "walk"),
        (["correlate", "--nq", "4", "--jp", "0.5", "--k", "1", "--s", "1e308", "--method",
          "direct"], "dense oracle"),
        (["correlate", "--nq", "4", "--jp", "0.5", "--k", "1", "--s", "1e300"], "walk"),
        (["correlate", "--nq", "4", "--jp", "0.5", "--k", "1", "--s", "1e300", "--method",
          "direct"], "dense oracle"),
        (["correlate", "--nq", "2000", "--jp", "1e150", "--k", "1,2", "--s", "0,0.5"], "walk"),
        (["correlate", "--nq", "4", "--jp", "1", "--k", "1", "--s", "1e308", "--method",
          "critical"], "closed form"),
    ], ids=["walk", "lightcone", "snapshot", "direct", "walk-1e300", "direct-1e300",
            "coupling-bound", "critical"])
    def test_one_refusal_line(self, args, route, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(args)
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("numeric guard: ") and route in err

    @pytest.mark.parametrize("command", [
        ["correlate", "--nq", "4", "--jp", "0.5", "--k", "1", "--s", "1e308"],
        ["correlate", "--nq", "4", "--jp", "100", "--k", "1", "--s", "1e308"],
        ["lightcone", "--nq", "4", "--jp", "0.5", "--smax", "1e308", "--ns", "2"],
    ], ids=["correlate", "step-count-overflows", "lightcone"])
    def test_digits_refusal_counts_steps_to_three_digits(self, command, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(command + ["--digits", "20"])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err.count("\n") == 1
        steps = err.removeprefix("numeric guard: ").split(" steps x ")[0]
        assert steps in ("1e+308", "inf")


class TestEdgeCommand:
    def test_log_domain_columns(self):
        # v_lr * 930 ~ 11232, so both k sit ahead of the ballistic edge
        out = run_ok(["edge", "--jp", "2.0", "--k", "11300,11340", "--s", "930"])
        _, header, rows = parse_csv(out)
        assert header == ["k", "s", "log10C_exact", "log10C_largek", "log10C_exponential"]
        # deep-front magnitudes land far below double range yet stay finite here
        assert all(-2000.0 < float(r[2]) < 0.0 for r in rows)

    @pytest.mark.parametrize("args", [
        ["edge", "--jp", "nan", "--k", "3", "--s", "1"],
        ["edge", "--jp", "2.0", "--k", "3", "--s", "nan"],
    ], ids=["jp", "s"])
    def test_non_finite_input_is_a_usage_error(self, args, capsys):
        assert main(args) == 1
        assert capsys.readouterr().out == ""


    def test_underflowed_largek_cell_is_finite(self):
        # v_lr s = 8.5e-450 underflows to 0; the cell sums log10 v_lr and log10 s
        _, _, rows = parse_csv(run_ok(["edge", "--jp", "1e-300", "--k", "2", "--s", "1e-300",
                                       "--forms", "largek"]))
        log_vt = math.log10(math.e * math.pi) - 150.0 - 300.0
        want = -0.5 * math.log10(math.pi * 1e-300) - 0.5 * math.log10(2) + 3 * (
            log_vt - math.log10(1.5))
        assert len(rows) == 1 and float(rows[0][2]) == pytest.approx(want, rel=1e-14)

    def test_oversized_table_exits_2_before_any_array(self, capsys):
        # 5,000 qubits x 5,000 times is 25,000,000 cells, above the budget of 2^24;
        # one form's column alone would take 200 MB
        tracemalloc.start()
        try:
            code = main(["edge", "--jp", "2", "--k", "1..5000", "--s", "1,2,...,5000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 2 ** 21
        assert "above the grid budget" in capsys.readouterr().err

    def test_budget_counts_cells_not_lists(self, monkeypatch):
        monkeypatch.setattr(params, "MAX_GRID_ENTRIES", 12)
        assert main(["edge", "--jp", "2", "--k", "2..5", "--s", "1,2,3", "--out", os.devnull]) == 0
        assert main(["edge", "--jp", "2", "--k", "2..5", "--s", "1,2,3,4"]) == 2


class TestGridBudget:
    """Every grid-budget refusal exits 2 with one line, `<what>, above the grid budget <N>`."""

    @pytest.mark.parametrize("argv, what", [
        (["correlate", "--nq", "4", "--jp", "0.5", "--s", "0,0.001,...,1"],
         "'0,0.001,...,1' expands to 1001 items"),
        (["correlate", "--nq", "4", "--jp", "0.5", "--k", "1..1001"],
         "'1..1001' expands to 1001 items"),
        (["correlate", "--nq", "4", "--jp", "0.5", "--ns", "1001"], "--ns 1001"),
        (["lightcone", "--nq", "4", "--jp", "0.5", "--ns", "1001"], "resolution 1001"),
        (["bench", "--nq", "4,6", "--compare-nq", "4", "--repeats", "1", "--ns", "1001"],
         "n_times 1001"),
        (["edge", "--jp", "2", "--k", "1..40", "--s", "1,2,...,26"],
         "a leading-edge grid of 40 qubits x 26 times is 1040 cells"),
        (["front", "--nq", "20", "--jp", "0.5"],
         "a sweep of 5 qubits x 399 times to s = 7.958 holds its times and a block of 128 times, "
         "1039 entries"),
        (["correlate", "--nq", "100", "--jp", "0.5", "--k", "1", "--ns", "100"],
         "a walk grid of 100 times on a "),
        (["correlate", "--nq", "4", "--jp", "1", "--method", "critical", "--k", "1..4",
          "--ns", "300"], "a closed-form grid of 4 qubits x 300 times is 1200 cells"),
        (["correlate", "--nq", "4", "--jp", "0.5", "--method", "direct", "--k", "1..4",
          "--ns", "300"], "a dense grid of 4 qubits x 300 times is 1200 cells"),
        (["correlate", "--nq", "4", "--jp", "0.5", "--k", "1..4", "--ns", "300",
          "--digits", "20"], "an arbitrary-precision grid of 4 qubits x 300 times is 1200 cells"),
    ], ids=["list", "range", "ns", "resolution", "n_times", "edge", "sweep", "walk", "critical",
            "direct", "digits"])
    def test_one_rule_one_line(self, argv, what, monkeypatch, capsys):
        monkeypatch.setattr(params, "MAX_GRID_ENTRIES", 1000)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"numeric guard: {what}")
        assert err.endswith(", above the grid budget 1000\n") and err.count("\n") == 1

    def test_closed_form_grid_refused_before_any_sweep(self, monkeypatch, capsys):
        # 2,000 qubits x 10,001 times is 20,002,000 cells, above the budget of 2^24;
        # the answer alone would take 160 MB
        def no_sweep(*_args):
            raise AssertionError("a Bessel sweep started before the budget refused")

        monkeypatch.setattr(critical, "bessel_jn_array", no_sweep)
        tracemalloc.start()
        try:
            code = main(["correlate", "--nq", "2000", "--jp", "1", "--method", "critical",
                         "--k", "1..2000", "--s", "0,0.0001,...,1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 16 * 2**20
        assert capsys.readouterr() == (
            "", "numeric guard: a closed-form grid of 2000 qubits x 10001 times is 20002000 "
                "cells, above the grid budget 16777216\n")

    @pytest.mark.parametrize("argv, what", [
        (["correlate", "--nq", "4000000", "--jp", "1", "--method", "critical",
          "--k", "1..4000000"], "a closed-form grid"),
        (["snapshot", "--nq", "4000000", "--jp", "1", "--critical", "--k", "1..4000000"],
         "a closed-form grid"),
        (["snapshot", "--nq", "4000000", "--jp", "1"], "a walk grid"),
        (["edge", "--jp", "1", "--k", "1..4000000"], "a leading-edge grid"),
        (["correlate", "--nq", "4000000", "--jp", "1", "--method", "critical",
          "--k", "1,2,...,4000000"], "a closed-form grid"),
        (["snapshot", "--nq", "4000000", "--jp", "1", "--critical", "--k", "1,2,...,4000000"],
         "a closed-form grid"),
        (["edge", "--jp", "1", "--k", "1,2,...,4000000"], "a leading-edge grid"),
    ], ids=["correlate", "snapshot", "snapshot-whole-chain", "edge", "correlate-progression",
            "snapshot-progression", "edge-progression"])
    def test_qubit_range_counted_before_it_is_built(self, argv, what, capsys):
        # 4,000,000 qubits is within the list budget, but x 5 times above the grid
        # budget; as a list and a set of Python ints it would take about 345 MB
        tracemalloc.start()
        try:
            code = main([*argv, "--s", "0,1,2,3,4"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 16 * 2**20
        assert capsys.readouterr() == (
            "", f"numeric guard: {what} of 4000000 qubits x 5 times is 20000000 cells, "
                "above the grid budget 16777216\n")

    @pytest.mark.parametrize("argv", [
        ["correlate", "--nq", "13", "--jp", "0.5", "--method", "direct"],
        ["correlate", "--nq", "13", "--jp", "0.5", "--method", "both"],
        ["correlate", "--nq", "14", "--jp", "0.5", "--method", "direct"],
        ["correlate", "--nq", "14", "--jp", "0.5", "--method", "both"],
        ["bench", "--nq", "20,40", "--compare-nq", "13", "--repeats", "1"],
    ], ids=["direct-13", "both-13", "direct-14", "both-14", "bench-13"])
    def test_dense_chain_past_the_budget_refused_before_any_array(self, argv, monkeypatch,
                                                                  capsys):
        # the mirror-block factor holds 2 * 4^(N-1) floats, 845 MB at N = 13
        def no_factor(p):
            raise AssertionError("a dense factor was built past the grid budget")

        monkeypatch.setattr(oracle, "_sector_factors", no_factor)
        nq = argv[argv.index("--nq" if argv[0] == "correlate" else "--compare-nq") + 1]
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code = main(argv)
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 2**20 and seconds < 0.5, (code, peak, seconds)
        assert capsys.readouterr() == (
            "", f"numeric guard: dense oracle refuses n_qubits={nq}: its factor of "
                f"2 * 4^{int(nq) - 1} entries, above the grid budget 16777216\n")


class TestOutPath:
    """An --out that cannot be opened ends in one error line, before any grid."""

    RECIPE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "recipes", "lightcone_n200_jp2_deep.json")

    @pytest.fixture
    def no_grids(self, monkeypatch):
        def no_grid(*_args, **_kwargs):
            raise AssertionError("a grid was computed before --out was checked")

        monkeypatch.setattr(analysis, "route_grids", no_grid)
        monkeypatch.setattr(analysis, "lightcone", no_grid)

    @pytest.mark.usefixtures("no_grids")
    @pytest.mark.parametrize("command", ["correlate", "recipe"])
    @pytest.mark.parametrize("out", ["no_such_dir/deep.csv", "", ".", "no_such_dir/"],
                             ids=["missing-dir", "empty", "directory", "trailing-slash"])
    def test_unopenable_out_refused_before_any_grid(self, command, out, tmp_path, monkeypatch,
                                                    capsys):
        monkeypatch.chdir(tmp_path)
        argv = (["recipe", self.RECIPE] if command == "recipe"
                else ["correlate", "--nq", "4", "--jp", "0.5"])
        assert main([*argv, "--out", out]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_bare_file_name_is_in_the_current_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["correlate", "--nq", "4", "--jp", "0.5", "--ns", "3", "--out", "t.csv"]) == 0
        assert parse_csv((tmp_path / "t.csv").read_text())[0]["nq"] == "4"

    def test_error_opening_the_file_is_one_line(self, tmp_path, monkeypatch, capsys):
        def refused(path, *_args, **_kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(cli_module, "open", refused, raising=False)
        out = str(tmp_path / "t.csv")
        assert main(["correlate", "--nq", "4", "--jp", "0.5", "--ns", "3", "--out", out]) == 1
        assert capsys.readouterr() == ("", f"error: [Errno 13] Permission denied: {out!r}\n")


class TestBenchCommand:
    def test_report_structure(self):
        out = run_ok(["bench", "--nq", "20,40", "--compare-nq", "6",
                      "--ns", "12", "--repeats", "1"])
        data = json.loads(out)
        assert data["scaling"]["precision"] == "double"
        assert len(data["scaling"]["timings"]) == 2
        assert data["comparison"]["speedup"] > 0

    def test_rows_record_their_light_cone(self):
        # at s_max = 3 every chain past 64 qubits walks the same 64-qubit cone;
        # at the README's --smax 70 the cone covers every chain of its example
        for s_max, lengths, cones in [(3.0, (50, 100, 200), [50, 64, 64]),
                                      (70.0, (50, 100, 200, 400), [50, 100, 200, 400])]:
            report = cli_module.bench.scaling_report(lengths, s_max=s_max, n_times=2,
                                                     k_count=1, repeats=1)
            assert [r["light_cone_qubits"] for r in report["timings"]] == cones
            assert [r["n_qubits"] for r in report["timings"]] == list(lengths)
            assert report["fit_against"] == "n_qubits"

    def test_dense_guard_exit_code(self):
        assert main(["bench", "--nq", "20,40", "--compare-nq", "20",
                     "--ns", "12", "--repeats", "1"]) == 2

    def test_dense_refusal_is_the_oracles(self, capsys):
        assert main(["bench", "--nq", "20,40", "--compare-nq", "15",
                     "--ns", "12", "--repeats", "1"]) == 2
        assert "dense oracle refuses n_qubits=15" in capsys.readouterr().err
        with pytest.raises(DimensionGuardError, match="dense oracle refuses"):
            cli_module.bench.comparison_report(15, repeats=1)

    @pytest.mark.parametrize("args", [
        ["--nq", "20,40", "--repeats", "0"],
        ["--nq", "20", "--repeats", "1"],
        ["--nq", "20,20", "--repeats", "1"],
    ], ids=["no-repeats", "one-length", "repeated-length"])
    def test_no_report_without_a_fit(self, args, capsys):
        assert main(["bench", "--compare-nq", "4", "--ns", "6", *args]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("args, code", [
        (["--nq", "20"], 1),
        (["--nq", "1,x"], 1),
        (["--nq", "20,20"], 1),
        (["--nq", "20,0"], 1),
        (["--nq", "20,40", "--repeats", "0"], 1),
        (["--nq", "20,40", "--compare-nq", "20"], 2),
    ], ids=["one-length", "non-integer-length", "repeated-length", "zero-length",
            "no-repeats", "dense-guard"])
    def test_inputs_checked_before_anything_is_timed(self, args, code, monkeypatch):
        def timed(*_args, **_kwargs):
            raise AssertionError("timed before every input was checked")

        monkeypatch.setattr(cli_module.bench, "time_walk", timed)
        monkeypatch.setattr(oracle, "lr_direct_grid", timed)
        assert main(["bench", "--compare-nq", "10", "--ns", "6", *args]) == code

    @pytest.mark.parametrize("smax", ["nan", "inf"])
    def test_non_finite_end_refused_without_a_warning(self, smax, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bench", "--nq", "4,6", "--compare-nq", "4", "--repeats", "1",
                         "--ns", "3", "--smax", smax]) == 1
        assert capsys.readouterr() == ("", "error: times must all be finite and >= 0\n")

    def test_span_must_strictly_increase(self, capsys):
        assert main(["bench", "--nq", "4,6", "--compare-nq", "4", "--repeats", "1",
                     "--ns", "3", "--smax", "0"]) == 1
        assert capsys.readouterr() == ("", "error: time grid must be strictly increasing\n")
        run_ok(["bench", "--nq", "4,6", "--compare-nq", "4", "--repeats", "1", "--ns", "1",
                "--smax", "0"])


class TestRecipe:
    @pytest.mark.parametrize("text, message", [
        ("{bad", "is not JSON: Expecting property name enclosed in double quotes"),
        ("[1]", "is not a JSON object"),
        ('{"command": "correlate", "options": [1, 2]}',
         "recipe options [1, 2] are not name-value pairs"),
        ('{"command": ["correlate"]}', "recipe names unknown command ['correlate']"),
    ], ids=["not-json", "array", "options-list", "command-list"])
    def test_malformed_recipe_is_one_error_line(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        assert main(["recipe", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_recipe_roundtrip(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "correlate",
            "options": {"nq": 5, "jp": 0.5, "k": "1..2", "smax": 1.0, "ns": 3},
        }))
        out_file = tmp_path / "out.csv"
        run_ok(["recipe", str(cfg), "--out", str(out_file)])
        meta, header, rows = parse_csv(out_file.read_text())
        assert meta["nq"] == "5" and len(rows) == 3

    def test_shipped_recipes_parse(self):
        import pathlib
        recipes = sorted(pathlib.Path("recipes").glob("*.json"))
        assert recipes, "recipe files should ship with the repo"
        for path in recipes:
            spec = json.loads(path.read_text())
            command = cli.get_command(None, spec["command"])
            assert command is not None, path
            command.make_context(command.name, cli_module.recipe_argv(spec["options"]))

    def test_recipe_options_parse_with_their_command(self):
        command = cli.get_command(None, "snapshot")
        argv = cli_module.recipe_argv({"nq": 8, "jp": 1.0, "s": "1,2", "critical": True,
                                       "format": "json"})
        params = command.make_context("snapshot", argv).params
        assert params["nq"] == 8 and params["with_critical"] and params["fmt_name"] == "json"
        assert cli_module.recipe_argv({"critical": False}) == []
        with pytest.raises(click.NoSuchOption):
            command.make_context("snapshot", cli_module.recipe_argv({"bogus": 1}))


def reference_fmt(x) -> str:
    """Cell format of the former row-by-row writer."""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.17g}"
    return str(x)


def reference_table(meta, header, rows, format):
    """Bytes of the former row-by-row writer: one formatted cell at a time."""
    if format == "json":
        def jsonable(v):
            if isinstance(v, float):
                return reference_fmt(v)
            if isinstance(v, (bool, np.bool_)):
                return bool(v)
            if isinstance(v, np.integer):
                return int(v)
            return v
        return json.dumps({"meta": {k: jsonable(v) for k, v in meta.items()},
                           "columns": list(header),
                           "rows": [[jsonable(v) for v in row] for row in rows]},
                          indent=2) + "\n"
    text = "".join(f"# {key}={reference_fmt(val)}\n" for key, val in meta.items())
    text += ",".join(header) + "\n"
    return text + "".join(",".join(reference_fmt(v) for v in row) + "\n" for row in rows)


def reference_rows(columns):
    """Rows of a column table, with each `Tiled` column spelled out."""
    spelled = [[v for v in col.values for _ in range(col.each)] * col.times
               if isinstance(col, Tiled) else list(col) for col in columns]
    return list(zip(*spelled))


SPECIAL_FLOATS = [math.nan, -math.nan, -math.inf, math.inf, -0.0, 0.0, 5e-324,
                  2.2250738585072014e-308, 1.0 / 3.0, 1e300, -2.5]

# Where a 17-digit formatter can go wrong: carries to the next power of ten, exact
# ties at the 18th digit, the edges of the kernel's range, E read off by one from
# log10 near powers of ten, subnormals and NaN payloads.
HARD_FLOATS = [9.9999999999999999e-5, 99999999999999999.0, 9.9999999999999996e-270, 1e-270,
               1e270, 1.0000000000000001e270, 26215 / 2**18, -(2 * 10**15 + 1) / 4, 0.5,
               100.0, 1e16, 1e17, 123456789012345678.0, 1e-5, 0.0001, 9.999999999999999e22,
               1e23, float.fromhex("0x1.fffffffffffffp-1022"), -5e-324,
               np.frombuffer(np.uint64(0x7FF0000000000123).tobytes(), np.float64)[0]]


class TestGoldenBytes:
    """The column writer against the former row writer, byte for byte."""

    def test_fmt_is_17_significant_digits(self):
        for x in SPECIAL_FLOATS + [np.float64(-0.0), np.float64(5e-324)]:
            assert fmt(x) == format(x, ".17g") == reference_fmt(x)
        assert fmt(-0.0) == "-0" and fmt(-math.nan) == "nan"
        assert fmt(7) == "7" and fmt("double") == "double"

    @pytest.mark.parametrize("format", ["csv", "json"])
    @pytest.mark.parametrize("columns", [
        [np.array(SPECIAL_FLOATS), np.arange(-5, 6, dtype=np.int64),
         np.array([True, False] * 5 + [True]), list(range(11))],
        [Tiled([3, 7], each=3), Tiled([0.0, -0.0, math.nan], times=2),
         np.linspace(-1.0, 1.0, 6), Tiled(np.array([True, False]), each=3)],
        [np.zeros(0), np.zeros(0, dtype=bool)],
        [],
        [np.arange(2 * cli_module._BLOCK_ROWS + 3) * 0.1],
        # 3 x 2049 rows for the default block: every Tiled column spans blocks
        [Tiled([1, 2, 3], each=cli_module._BLOCK_ROWS // 2 + 1),
         Tiled([0.25, -0.0, math.nan], times=cli_module._BLOCK_ROWS // 2 + 1),
         Tiled(np.array([True, False, True]), each=(cli_module._BLOCK_ROWS // 2 + 1) // 3,
               times=3)],
        [np.array(HARD_FLOATS)],
        # a column longer than a block, tiled twice: the second block's span wraps
        [Tiled(np.arange(cli_module._BLOCK_ROWS + 5) * 0.1 - 3.0, times=2),
         Tiled(np.arange(cli_module._BLOCK_ROWS + 5), times=2)],
    ], ids=["special", "tiled", "no-rows", "no-columns", "blocks", "tiled-blocks",
            "hard-cases", "tiled-wrap"])
    def test_cells(self, capsys, columns, format):
        header = [f"c{i}" for i in range(len(columns))]
        meta = {"nq": 4, "jp": -0.0, "precision": "double", "x": math.nan}
        Output(None).table(meta, header, columns, format)
        out = capsys.readouterr().out
        assert out == reference_table(meta, header, reference_rows(columns), format)

    @pytest.mark.parametrize("format", ["csv", "json"])
    @pytest.mark.parametrize("args", [
        ["correlate", "--nq", "6", "--jp", "0.5", "--k", "1..3", "--smax", "1", "--ns", "5"],
        ["correlate", "--nq", "6", "--jp", "0.5", "--k", "1,2", "--smax", "2",
         "--ns", "5", "--method", "both"],
        ["correlate", "--nq", "6", "--jp", "1", "--smax", "1", "--ns", "4",
         "--method", "critical"],
        # the k = 60 cell at s = 0.01 is subnormal as a double: an untrusted row
        ["correlate", "--nq", "80", "--jp", "2", "--k", "40,60", "--s", "0,0.01,0.05",
         "--digits", "30"],
        ["snapshot", "--nq", "40", "--jp", "1.0", "--s", "0,2", "--critical"],
        ["snapshot", "--nq", "20", "--jp", "1.0", "--s", "1,40", "--k", "1,5,20"],
        ["snapshot", "--nq", "80", "--jp", "2", "--s", "0.05,0.01", "--k", "40,60,70,80",
         "--digits", "30"],
        ["lightcone", "--nq", "20", "--jp", "1.0", "--kmax", "6", "--smax", "2", "--ns", "3"],
        ["lightcone", "--nq", "8", "--jp", "0.5", "--smax", "1", "--ns", "3", "--digits", "20"],
        ["edge", "--jp", "2.0", "--k", "11300,11340", "--s", "930,932"],
        ["saturation", "--jp", "0.5,2", "--nq", "80", "--k", "6"],
        ["velocities", "--jp", "1", "--nq", "70"],
    ], ids=lambda args: "-".join(args[:1] + args[-2:]))
    def test_every_table_command(self, monkeypatch, args, format):
        calls = []
        real = Output.table

        def record(self, meta, header, columns, format):
            calls.append((meta, header, columns, format))
            return real(self, meta, header, columns, format)

        monkeypatch.setattr(Output, "table", record)
        out = run_ok(args + ["--format", format])
        (meta, header, columns, fmt_name), = calls
        assert fmt_name == format
        assert out == reference_table(meta, header, reference_rows(columns), format)

    def test_tiled_columns_formatted_a_block_at_a_time(self, monkeypatch):
        # a column over three blocks long, tiled twice, so that two blocks' spans wrap:
        # no call formats more than a block of it
        sizes = []
        real = cli_module._decimal17
        monkeypatch.setattr(cli_module, "_decimal17", lambda x: sizes.append(len(x)) or real(x))
        values = np.arange(3 * cli_module._BLOCK_ROWS + 5) * 0.5
        Output(os.devnull).table({}, ["s"], [Tiled(values, times=2)], "csv")
        assert len(sizes) == 7 and max(sizes) <= cli_module._BLOCK_ROWS

    def test_json_rows_written_a_block_at_a_time(self, monkeypatch):
        rows = 3 * cli_module._BLOCK_ROWS + 1
        columns = [np.full(rows, 0.25), np.full(rows, 7), np.ones(rows, dtype=bool)]
        writes = []
        monkeypatch.setattr(sys, "stdout", type("Recorder", (), {"write": writes.append})())
        Output(None).table({"nq": 4}, ["a", "b", "c"], columns, "json")
        expected = reference_table({"nq": 4}, ["a", "b", "c"], reference_rows(columns), "json")
        assert "".join(writes) == expected
        row = len(',\n    [\n      "0.25",\n      7,\n      true\n    ]')
        assert len(writes) > 1
        assert max(map(len, writes)) <= cli_module._BLOCK_ROWS * row


def decimal17_strings(x):
    """The cells of `cli._decimal17(x)` as strings."""
    cells = cli_module._decimal17(np.asarray(x, dtype=float))
    lines = np.concatenate([cells, np.full((len(cells), 1), ord("\n"), np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\0").decode().split("\n")[:-1]


class TestDecimalKernel:
    """`cli._decimal17` against `format(x, ".17g")`, on about 200,000 doubles."""

    def test_matches_format_byte_for_byte(self):
        rng = np.random.default_rng(20261019)
        bits = rng.integers(0, 2**64, 80_000, dtype=np.uint64, endpoint=False)
        mantissa = bits & np.uint64(2**52 - 1)
        sign = bits & np.uint64(2**63)
        subnormal = sign[:5000] | mantissa[:5000]
        payload = sign[:2000] | np.uint64(0x7FF << 52) | (mantissa[:2000] | np.uint64(1))
        powers = np.array([10.0 ** k for k in range(-323, 309)])
        # (2q + 1) / 2^j with 18 significant digits: an exact tie at the 17th
        j = rng.integers(3, 25, 20_000)
        lo = 10.0 ** (17 - j)
        odd = np.floor((lo + rng.random(len(j)) * 8 * lo) * 2.0 ** j / 2) * 2 + 1
        ties = odd / 2.0 ** j
        ties = ties[(ties >= lo) & (ties < 10 * lo)]
        short = [float(f"{m}e{k}") for m, k in zip(rng.integers(1, 10**6, 40_000).tolist(),
                                                     rng.integers(-40, 40, 40_000).tolist())]
        scaled = rng.standard_normal(40_000) * 10.0 ** rng.integers(-300, 300, 40_000)
        x = np.concatenate([
            np.concatenate([bits, subnormal, payload]).view(np.float64),
            powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0), ties, -ties,
            short, scaled, HARD_FLOATS, [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]])
        assert len(x) > 190_000 and len(ties) > 10_000
        assert decimal17_strings(x) == [format(v, ".17g") for v in x.tolist()]

    @pytest.mark.parametrize("off", [-0.5, 0.5])
    def test_exponent_one_off_from_log10_is_corrected(self, monkeypatch, off):
        # E starts as floor(log10 |x|); a log10 moved by half a decade reads it one too
        # low or one too high for most values, which the unrounded product must correct
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + off)
        rng = np.random.default_rng(5)
        x = np.concatenate([HARD_FLOATS,
                            rng.standard_normal(1000) * 10.0 ** np.arange(-200, 200, 0.4)])
        assert decimal17_strings(x) == [format(v, ".17g") for v in x.tolist()]

    def test_format_takes_only_cells_out_of_range_or_near_a_tie(self, monkeypatch):
        seen = []

        def spy(v, spec):
            seen.append(v)
            return format(v, spec)

        monkeypatch.setattr(cli_module, "format", spy, raising=False)
        tie = 26215 / 2**18        # 0.100002288818359375: 18 digits, a tie at the 17th
        x = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0 / 3.0, tie, 1e-300, -1e300, 5e-324]
        assert decimal17_strings(x) == [format(v, ".17g") for v in x]
        assert seen == [tie, 1e-300, -1e300, 5e-324]

