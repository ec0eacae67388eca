"""Tests for the command-line interface: output schema, determinism, exit codes."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wordpack
from wordpack import cli, density, search, superpattern
from wordpack.cli import (
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from wordpack.construct import MAX_CONSTRUCT_N
from wordpack.search import canonical_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert out, f"no stdout; stderr: {err}"
    return code, json.loads(out)


class TestEnvelope:
    def test_schema_and_sections(self, capsys):
        code, env = run_json(capsys, "count", "-p", "122", "-w", "213322")
        assert code == EXIT_OK
        assert env["schema"] == "wordpack/1"
        assert env["command"] == "count"
        assert set(env) == {"schema", "command", "config", "result", "stats"}
        assert env["config"]["pattern"] == "122"
        assert env["config"]["word"] == "213322"

    def test_rational_rendering(self, capsys):
        _, env = run_json(capsys, "count", "-p", "122", "-w", "213322")
        delta = env["result"]["delta"]
        assert delta == {"num": 3, "den": 20, "decimal": 0.15}

    def test_json_ends_with_newline(self, capsys):
        code, out, _ = run_cli(
            capsys, "table3", "--format", "json"
        )
        assert code == EXIT_OK and out.endswith("}\n")


class TestCount:
    def test_opening_example(self, capsys):
        code, env = run_json(capsys, "count", "-p", "122", "-w", "213322")
        assert code == EXIT_OK
        assert env["result"]["count"] == 3
        assert env["result"]["denominator"] == 20

    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "count", "-p", "122", "-w", "213322")
        assert code == EXIT_OK
        assert "nu           3" in out
        assert "delta        3/20 (0.15)" in out

    def test_explicit_alphabet(self, capsys):
        _, env = run_json(capsys, "count", "-p", "11", "-w", "11", "-k", "5")
        assert env["result"]["k"] == 5

    def test_vincular_pattern(self, capsys):
        from wordpack import count_generalized, parse_pattern, parse_word

        _, env = run_json(capsys, "count", "-p", "12-1", "-w", "1212")
        expected = count_generalized(parse_pattern("12-1"), parse_word("1212"))
        assert env["result"]["count"] == expected

    def test_recanonicalized_pattern_warns_in_one_line(self, capsys):
        code, out, err = run_cli(capsys, "count", "-p", "13", "-w", "12")
        assert code == EXIT_OK and "nu           1" in out
        assert err == "wordpack: warning: pattern letters (1, 3) re-canonicalized to (1, 2)\n"


class TestDensity:
    def test_auto_route_example(self, capsys):
        code, env = run_json(capsys, "density", "-p", "121")
        assert code == EXIT_OK
        assert abs(env["result"]["value"]["decimal"] - 0.2320508075688772) < 1e-12
        assert env["result"]["exact"] is False
        assert env["result"]["error_bound"] <= 1e-9

    def test_exact_route(self, capsys):
        code, env = run_json(capsys, "density", "-p", "1122")
        assert code == EXIT_OK
        assert env["result"]["value"] == {"num": 3, "den": 8, "decimal": 0.375}
        assert env["result"]["exact"] is True

    def test_explicit_routes(self, capsys):
        for route, pattern, expected in [
            ("single-rise", "112", 0.4641016151377546),
            ("two-block", "1122", 0.375),
            ("three-block", "1221", 0.1875),
            ("simple-product", "1122", 0.375),
            ("constant", "111", 1.0),
            ("subword-overlap", "112g", 0.5),
        ]:
            code, env = run_json(capsys, "density", "-p", pattern, "--route", route)
            assert code == EXIT_OK, (route, pattern)
            assert abs(env["result"]["value"]["decimal"] - expected) < 1e-12

    def test_wrong_route_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "density", "-p", "123", "--route", "three-block")
        assert code == EXIT_USAGE and "three-block" in err
        code, out, err = run_cli(
            capsys, "density", "-p", "1-32", "--route", "cap", "--ell", "3"
        )
        assert code == EXIT_USAGE and out == ""
        assert err == "wordpack: error: route 'cap' applies to classical patterns, not 1-32\n"

    @pytest.mark.parametrize("ell", ["5", "6"])
    def test_cap_route_without_agreeing_starts_is_one_line(self, capsys, ell):
        code, out, err = run_cli(
            capsys, "density", "-p", "11112", "--route", "cap", "--ell", ell
        )
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(
            f"wordpack: error: route 'cap' could not certify 11112 with --ell {ell}: "
            "multistart disagreement"
        )
        assert len(err.splitlines()) == 1

    def test_cap_route_requires_ell(self, capsys):
        code, _, err = run_cli(capsys, "density", "-p", "1122", "--route", "cap")
        assert code == EXIT_USAGE and "--ell" in err

    def test_cap_route(self, capsys):
        code, env = run_json(
            capsys, "density", "-p", "1122", "--route", "cap", "--ell", "4",
            "--starts", "8",
        )
        assert code == EXIT_OK
        assert env["result"]["value"]["decimal"] <= 0.375 + 1e-9
        assert "proportions" in env["result"]["aux"]

    DENSITY_CAP = ("density", "-p", "12", "--route", "cap", "--ell", "3")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            pytest.param(DENSITY_CAP, "--starts", id="--starts"),
            pytest.param(DENSITY_CAP, "--seed", id="--seed"),
            # every subcommand that takes --seed refuses a negative one alike
            pytest.param(("verify", "--suite", "overlap-formula"), "--seed", id="verify--seed"),
        ],
    )
    def test_negative_starts_is_usage_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv, flag, "-1")
        assert code == EXIT_USAGE and out == ""
        assert flag in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("-p", "12", "--ell", "3", "--starts", "100000000"), "--starts"),
            (("-p", "1234", "--ell", "200"), "--ell"),
            (("-p", "12", "--ell", "3", "--starts", "99999999999999999999"), "--starts"),
        ],
    )
    def test_cap_route_size_limits(self, capsys, monkeypatch, argv, flag):
        """Too large an --ell or --starts is refused in one line, before the
        optimiser builds anything."""
        def build(*args):
            raise AssertionError("the cap optimiser started on a refused input")

        monkeypatch.setattr(density, "_CapPolynomial", build)
        code, out, err = run_cli(capsys, "density", "--route", "cap", *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"wordpack: error: route 'cap' refuses {argv[1]} with {flag} ")
        assert len(err.splitlines()) == 1

    def test_cap_route_ignores_the_blas_thread_count(self):
        """The same JSON result with one and with two BLAS threads."""
        argv = ["density", "-p", "1122", "--route", "cap", "--ell", "8", "--format", "json"]
        script = f"import sys; from wordpack.cli import main; sys.exit(main({argv!r}))"
        src = os.path.dirname(os.path.dirname(wordpack.__file__))
        results = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True).stdout
            results.append(json.dumps(json.loads(out)["result"]).encode())
        assert results[0] == results[1]

    def test_no_route_for_vincular(self, capsys):
        code, _, err = run_cli(capsys, "density", "-p", "12-1")
        assert code == EXIT_USAGE


class TestSearch:
    def test_exhaustive_run(self, capsys):
        code, env = run_json(capsys, "search", "-p", "121", "-k", "4", "-n", "6")
        assert code == EXIT_OK
        assert env["result"]["mu"]["num"] == 8
        assert env["result"]["witness"] == "112211"
        assert env["result"]["exhaustive"] is True
        assert isinstance(env["stats"]["nodes"], int)

    def test_budget_exhaustion_exits_2_with_results(self, capsys):
        code, env = run_json(
            capsys, "search", "-p", "121", "-k", "12", "-n", "12",
            "--budget-nodes", "5000",
        )
        assert code == EXIT_BUDGET
        assert env["result"]["exhaustive"] is False
        assert env["result"]["mu"]["num"] >= 1  # best found still reported
        assert env["stats"]["nodes"] == 5000

    def test_too_large_without_budget_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "search", "-p", "121", "-k", "12", "-n", "12")
        assert code == EXIT_USAGE and "budget" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("search", "-p", "12", "-k", "2", "-n", "1000", "--budget-nodes", "5000"), "-n 1000"),
            (("search", "-p", "12", "-k", "3", "-n", "99999999999", "--budget-nodes", "10"),
             "-n 99999999999"),
            (("series", "-p", "12", "--n-range", "2:501", "--budget-nodes", "10"), "--n-range 501"),
        ],
    )
    def test_word_length_limit(self, capsys, monkeypatch, argv, flag):
        """An n past MAX_SEARCH_N is refused in one line, before the search
        builds anything (branch and bound would recurse past CPython's limit
        at n = 1000, and allocate n + 1 arrays)."""
        def build(*args):
            raise AssertionError("the search started on a refused input")

        monkeypatch.setattr(search, "_by_alphabet", build)
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err == f"wordpack: error: {flag} is above the longest word a search takes, 500\n"

    def test_longest_word_searches(self, capsys):
        code, env = run_json(
            capsys, "search", "-p", "12", "-k", "2", "-n", "500", "--budget-nodes", "5000"
        )
        assert code == EXIT_BUDGET and env["stats"]["nodes"] == 5000
        assert len(env["result"]["witness"]) == 500

    def test_csv_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "-p", "121", "-k", "4", "-n", "6", "--format", "csv"
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "n", "k", "mu", "delta_num", "delta_den", "delta_decimal",
            "witness", "exhaustive", "nodes",
        ]
        assert rows[1][:7] == ["6", "4", "8", "2", "5", "0.4", "112211"]
        assert rows[1][7] == "true"

    def test_csv_budget_that_completes_no_word_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "search", "-p", "12", "-k", "3", "-n", "3",
            "--budget-nodes", "1", "--format", "csv",
        )
        assert code == EXIT_BUDGET and err == ""
        assert list(csv.reader(io.StringIO(out))) == [
            ["pattern", "k", "n", "completed", "error", "exhaustive"],
            ["12", "3", "3", "false", "search explored no complete word", "false"],
        ]


class TestSeries:
    def test_diagonal_series(self, capsys):
        code, env = run_json(capsys, "series", "-p", "132", "--n-range", "4:6")
        assert code == EXIT_OK
        rows = env["result"]["rows"]
        assert [r["n"] for r in rows] == [4, 5, 6]
        assert [r["k"] for r in rows] == [4, 5, 6]
        assert env["result"]["nonincreasing"] is True
        assert env["result"]["violations"] == []
        assert env["stats"]["nodes_total"] > 0

    def test_fixed_k_series(self, capsys):
        code, env = run_json(
            capsys, "series", "-p", "121", "--n-range", "3:6", "-k", "2"
        )
        assert code == EXIT_OK
        assert all(r["k"] == 2 for r in env["result"]["rows"])

    def test_bad_range_is_usage_error(self, capsys):
        for bad in ("6:4", "4-6", "a:b", "4:6:8"):
            code, _, _ = run_cli(capsys, "series", "-p", "121", "--n-range", bad)
            assert code == EXIT_USAGE, bad

    def test_range_below_pattern_length(self, capsys):
        code, _, err = run_cli(capsys, "series", "-p", "1122", "--n-range", "2:5")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag, value", [("--budget-nodes", "1"), ("--budget-seconds", "0.000001")]
    )
    def test_budget_that_completes_no_word_exits_2(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, "series", "-p", "12", "--n-range", "2:3", flag, value,
            "--format", "json",
        )
        assert code == EXIT_BUDGET and err == ""
        result = json.loads(out)["result"]
        assert result["completed"] is False and result["exhaustive"] is False
        assert result["error"] == "search explored no complete word"

    @pytest.mark.parametrize(
        "flag, value", [("--budget-nodes", "1"), ("--budget-seconds", "0.000001")]
    )
    def test_csv_budget_that_completes_no_word_exits_2(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, "series", "-p", "12", "--n-range", "2:3", flag, value,
            "--format", "csv",
        )
        assert code == EXIT_BUDGET and err == ""
        assert list(csv.reader(io.StringIO(out))) == [
            ["pattern", "k_policy", "completed", "error", "exhaustive"],
            ["12", "diagonal", "false", "search explored no complete word", "false"],
        ]

    def test_budgeted_rows_carry_exhaustive_and_nodes(self, capsys):
        code, env = run_json(
            capsys, "series", "-p", "12-1", "--n-range", "3:7", "-k", "2",
            "--budget-nodes", "40",
        )
        assert code == EXIT_BUDGET
        flags = [r["exhaustive"] for r in env["result"]["rows"]]
        assert flags[0] is True and flags[-1] is False
        assert [s["n"] for s in env["stats"]["nodes"]] == [3, 4, 5, 6, 7]
        assert env["stats"]["nodes_total"] == sum(
            s["nodes"] for s in env["stats"]["nodes"]
        )


class TestConstruct:
    def test_balanced_json(self, capsys):
        code, env = run_json(
            capsys, "construct", "--builder", "balanced", "-n", "16", "-k", "4"
        )
        assert code == EXIT_OK
        assert env["result"]["word"] == "1111222233334444"
        assert env["result"]["verified"] is True
        assert env["result"]["recounts"] == env["result"]["predicted_counts"]

    def test_emit_word_is_bare(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "--builder", "super-word", "-l", "3", "-m", "3",
            "--emit", "word",
        )
        assert code == EXIT_OK
        assert out == "1231231\n"

    def test_layered_with_target(self, capsys):
        code, env = run_json(
            capsys, "construct", "--builder", "layered", "--proportions", "1,2",
            "-n", "9", "--mode", "word", "-p", "112",
        )
        assert code == EXIT_OK
        assert env["result"]["word"] == "111222222"
        assert env["result"]["verified"] is True

    def test_twelve_one(self, capsys):
        code, env = run_json(
            capsys, "construct", "--builder", "twelve-one", "-n", "10", "--d", "3"
        )
        assert code == EXIT_OK
        assert env["result"]["verified"] is True

    def test_missing_builder_args(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--builder", "pqr", "-n", "12")
        assert code == EXIT_USAGE and "--p" in err
        code, _, err = run_cli(capsys, "construct", "--builder", "balanced")
        assert err == "wordpack: error: builder 'balanced' requires -n, -k\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("--builder", "pqr", "--p", "1", "--q", "1", "--r", "2", "-n", "3000000"), "-n"),
            (("--builder", "pqr", "--p", "1", "--q", "1", "--r", "10001", "-n", "9"), "--r"),
            (("--builder", "balanced", "-n", "16", "-k", "10001"), "-k"),
            (("--builder", "balanced", "-n", "16", "-k", "4", "--ident", "10001"), "--ident"),
            (("--builder", "nested", "--p", "1", "--q", "1",
              "--s", "99999999999999999999", "--depth", "2", "-n", "10"), "--s"),
            (("--builder", "nested", "--p", "10001", "--q", "1",
              "--s", "2", "--depth", "2", "-n", "10"), "--p"),
            (("--builder", "nested", "--p", "1", "--q", "10001",
              "--s", "2", "--depth", "2", "-n", "10"), "--q"),
            (("--builder", "nested", "--p", "1", "--q", "1",
              "--s", "2", "--depth", "10001", "-n", "10"), "--depth"),
            (("--builder", "layered", "--proportions", "1,2", "-n", "10001"), "-n"),
            (("--builder", "twelve-one", "-n", "10", "--d", "10001"), "--d"),
            (("--builder", "sqrt-layers", "-n", "10001"), "-n"),
        ],
    )
    def test_size_limits(self, capsys, monkeypatch, argv, flag):
        """Every size flag above MAX_CONSTRUCT_N is refused in one line that
        names it, before any builder runs."""
        def build(*args):
            raise AssertionError("a builder started on a refused input")

        for name in ("balanced_monotone_word", "pqr_word", "nested_word",
                     "layered_word", "twelve_one_word", "sqrt_layer_perm"):
            monkeypatch.setattr(cli, name, build)
        code, out, err = run_cli(capsys, "construct", *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"wordpack: error: {flag} ")
        assert f"{MAX_CONSTRUCT_N}" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("--builder", "pqr", "--p", "1", "--q", "1", "--r", "2", "-n", "12"),
        ("--builder", "nested", "--p", "1", "--q", "1", "--s", "2", "--depth", "2", "-n", "20"),
    ], ids=["pqr", "nested"])
    def test_builder_recounts_its_prediction(self, capsys, argv):
        code, env = run_json(capsys, "construct", *argv)
        assert code == EXIT_OK and env["result"]["verified"] is True
        assert env["result"]["recounts"] == env["result"]["predicted_counts"]

    def test_wide_word_is_comma_separated(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--builder", "sqrt-layers", "-n", "16",
                               "--emit", "word")
        assert code == EXIT_OK
        assert out == "4,3,2,1,8,7,6,5,12,11,10,9,16,15,14,13\n"

    @pytest.mark.parametrize("entry", ["1e99999999", "1e-99999999", "2E+4301", "1e43_01"])
    def test_huge_proportion_exponent_is_refused(self, capsys, entry):
        """Fraction would compute 10**exponent first (1e10000000 takes 14 s)."""
        started = time.monotonic()
        code, out, err = run_cli(capsys, "construct", "--builder", "layered",
                                 "--proportions", f"1,{entry}", "-n", "5")
        assert time.monotonic() - started < 0.5
        assert code == EXIT_USAGE and out == ""
        assert err == (f"wordpack: error: --proportions entry {entry!r} has an exponent "
                       f"above {cli.MAX_PROPORTION_EXPONENT} in absolute value\n")

    def test_largest_proportion_exponent_is_read(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--builder", "layered",
                               "--proportions", "1e-4300,1e4300", "-n", "5", "--emit", "word")
        assert code == EXIT_OK and out == "54321\n"

    def test_size_limit_itself_is_built(self, capsys):
        code, env = run_json(capsys, "construct", "--builder", "twelve-one",
                             "-n", str(MAX_CONSTRUCT_N), "--d", str(MAX_CONSTRUCT_N // 2))
        assert code == EXIT_OK and env["result"]["n"] == MAX_CONSTRUCT_N
        assert env["result"]["verified"] is True

    def test_super_word_checks_universality(self, capsys):
        code, env = run_json(
            capsys, "construct", "--builder", "super-word", "-l", "4", "-m", "4"
        )
        assert code == EXIT_OK
        assert env["result"]["word"] == "1234123412341"
        assert env["result"]["verified"] is True


class TestSuper:
    def test_three_three(self, capsys):
        code, env = run_json(capsys, "super", "-l", "3", "-m", "3")
        assert code == EXIT_OK
        assert env["result"]["length"] == 7
        assert env["result"]["witness"] == "1213121"
        assert env["result"]["lower_bound_certified"] is True
        assert env["result"]["log"] == [
            {"length": 6, "verdict": "exhausted"},
            {"length": 7, "verdict": "witness"},
        ]
        assert "nodes" not in env["result"]  # node counts live in stats only
        assert env["stats"]["nodes_total"] > 0

    def test_budget_exhaustion_exits_2(self, capsys):
        code, env = run_json(
            capsys, "super", "-l", "4", "-m", "4", "--budget-nodes", "2000"
        )
        assert code == EXIT_BUDGET
        assert env["result"]["lower_bound_certified"] is False
        assert env["result"]["length"] == 13  # constructive fallback
        assert env["result"]["lower_bound"] == 9

    def test_budget_stopped_search_builds_no_universe(self, capsys, monkeypatch):
        """(2, 17) has 131,071 patterns; a budget-stopped search returns the
        constructive word, checked against class indices alone."""
        def build(*args):
            raise AssertionError("the Pattern universe was built")

        monkeypatch.setattr(superpattern, "_universe_cached", build)
        code, env = run_json(capsys, "super", "-l", "2", "-m", "17", "--budget-nodes", "10")
        assert code == EXIT_BUDGET
        assert env["result"]["witness"] == "12" * 16 + "1"
        assert env["result"]["universe_size"] == 131071

    def test_csv_not_supported(self, capsys):
        code, _, err = run_cli(capsys, "super", "-l", "2", "-m", "2", "--format", "csv")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ("super", "-l", "8", "-m", "8"),
            ("super", "-l", "8", "-m", "8", "--budget-nodes", "10"),
            ("super", "-l", "2", "-m", "18"),
            ("super", "-l", "3", "-m", "99999999999"),
            ("construct", "--builder", "super-word", "-l", "8", "-m", "8"),
        ],
    )
    def test_universe_size_limit(self, capsys, monkeypatch, argv):
        """A universe past MAX_UNIVERSE patterns is refused in one line
        before it is built: (8, 8) has 545,835 patterns, and took about
        71 s and 2.5 GB to reach its budget's exit 2."""
        def build(*args):
            raise AssertionError("the universe was built for a refused input")

        monkeypatch.setattr(superpattern, "_universe_cached", build)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        l, m = argv[argv.index("-l") + 1], argv[argv.index("-m") + 1]
        assert code == EXIT_USAGE and out == ""
        assert err == (f"wordpack: error: -l {l} -m {m} is past the largest universe "
                       "a universality check takes, 131072 patterns\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("super", "-l", "1", "-m", "1200"),
            ("construct", "--builder", "super-word", "-l", "1", "-m", "100000"),
        ],
    )
    def test_one_letter_length_limit(self, capsys, argv):
        """A one-letter universe holds one pattern, but its words have m
        letters: an m past MAX_SEARCH_N is refused in one line (the search
        recursed once per letter, and the builder's time grew as m^2)."""
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        m = argv[argv.index("-m") + 1]
        assert code == EXIT_USAGE and out == ""
        assert err == (f"wordpack: error: -m {m} is above the longest pattern "
                       "a universality check takes, 500\n")

    def test_largest_universes_pass(self):
        """(2, 17) and (7, 7) are the largest universes the limit keeps, and
        no universe it keeps has a level m of more than 2^22 bits."""
        assert superpattern.MAX_UNIVERSE == 1 << 17
        kept = [(l, m) for m in range(1, 18) for l in range(1, m + 1)
                if canonical_count(m, l) <= superpattern.MAX_UNIVERSE]
        for l, m in kept:
            cli._check_universe(l, m)
            assert l ** m <= 1 << 22
        assert (2, 17) in kept and (7, 7) in kept and (3, 11) not in kept
        cli._check_universe(1, search.MAX_SEARCH_N)  # one letter: one pattern
        cli._check_universe(20, 7)  # (7, 7)


class TestTable3:
    def test_values(self, capsys):
        code, env = run_json(capsys, "table3")
        assert code == EXIT_OK
        rows = env["result"]["rows"]
        assert set(rows) == {"111", "112", "121", "123", "132"}
        assert rows["111"]["value"] == {"num": 1, "den": 1, "decimal": 1.0}
        assert rows["123"]["value"] == {"num": 1, "den": 1, "decimal": 1.0}
        two_rise = 2 * 3 ** 0.5 - 3
        assert abs(rows["112"]["value"]["decimal"] - two_rise) < 1e-10
        assert abs(rows["132"]["value"]["decimal"] - two_rise) < 1e-10
        assert abs(rows["121"]["value"]["decimal"] - (3 ** 0.5 - 1.5)) < 1e-10

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table3", "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["pattern", "decimal", "error_bound", "provenance"]
        assert [r[0] for r in rows[1:]] == ["111", "112", "121", "123", "132"]


class TestVerify:
    def test_overlap_suite(self, capsys):
        code, env = run_json(capsys, "verify", "--suite", "overlap-formula")
        assert code == EXIT_OK
        suite = env["result"]["suites"]["overlap-formula"]
        assert suite["passed"] is True
        assert suite["detail"]["violations"] == []
        anchors = suite["detail"]["anchors"]
        assert anchors["112g"]["oracle"] == 2
        assert anchors["123g"]["oracle"] == 1
        assert anchors["1432g"]["oracle"] == 3

    def test_all_suites_pass(self, capsys):
        code, env = run_json(capsys, "verify")
        assert code == EXIT_OK
        assert env["result"]["passed"] is True
        assert set(env["result"]["suites"]) == {
            "monotonicity", "restriction", "layered-witness", "overlap-formula",
        }


class TestDeterminism:
    #: three fixed configurations exercising both engines and the
    #: superpattern search, per the determinism contract
    CONFIGS = [
        ("search", "-p", "112", "-k", "8", "-n", "8", "--budget-nodes", "100000"),
        ("search", "-p", "12-1", "-k", "6", "-n", "7"),
        ("super", "-l", "3", "-m", "4"),
    ]

    def test_repeat_runs_byte_identical(self, capsys):
        for config in self.CONFIGS:
            _, out1, _ = run_cli(capsys, *config, "--format", "json")
            _, out2, _ = run_cli(capsys, *config, "--format", "json")
            assert out1 == out2, config

    def test_threads_do_not_change_results(self, capsys):
        for config in self.CONFIGS:
            _, env1 = run_json(capsys, *config, "--threads", "1")
            _, env4 = run_json(capsys, *config, "--threads", "4")
            assert env1["result"] == env4["result"], config

    def test_zero_threads_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "search", "-p", "12", "-k", "3", "-n", "3",
                                 "--threads", "0")
        assert code == EXIT_USAGE and out == ""
        assert err == "wordpack: error: --threads must be a positive integer\n"


#: exact stdout and exit code of the table and CSV renderings; the
#: budgeted `series` row pins its branch-and-bound figures
GOLDEN = [
    ("count -p 122 -w 213322", "table", EXIT_OK, """\
pattern      122
word         213322
nu           3
denominator  20
delta        3/20 (0.15)
"""),
    ("count -p 122 -w 213322", "csv", EXIT_OK, """\
pattern,word,nu,denominator,delta_num,delta_den,delta_decimal
122,213322,3,20,3,20,0.15
"""),
    ("density -p 121", "table", EXIT_OK, """\
pattern      121
route        auto
density      0.2320508075688773
exact        false
provenance   split single-rise formula
error_bound  1e-10
"""),
    ("density -p 121", "csv", EXIT_OK, """\
pattern,route,decimal,error_bound,provenance
121,auto,0.2320508075688773,1e-10,split single-rise formula
"""),
    ("density -p 1122 --route two-block", "table", EXIT_OK, """\
pattern     1122
route       two-block
density     3/8 (0.375)
exact       true
provenance  two-block binomial formula
"""),
    ("density -p 1122 --route two-block", "csv", EXIT_OK, """\
pattern,route,decimal,error_bound,provenance
1122,two-block,0.375,,two-block binomial formula
"""),
    ("search -p 121 -k 4 -n 6", "table", EXIT_OK, """\
pattern      121
k            4
n            6
mu           8
denominator  20
delta        2/5 (0.4)
witness      112211
exhaustive   true
"""),
    ("search -p 121 -k 4 -n 6", "csv", EXIT_OK, """\
n,k,mu,delta_num,delta_den,delta_decimal,witness,exhaustive,nodes
6,4,8,2,5,0.4,112211,true,2163
"""),
    ("search -p 12 -k 3 -n 3 --budget-nodes 1", "table", EXIT_BUDGET, """\
error       search explored no complete word
exhaustive  false
"""),
    ("search -p 12 -k 3 -n 3 --budget-nodes 1", "csv", EXIT_BUDGET, """\
pattern,k,n,completed,error,exhaustive
12,3,3,false,search explored no complete word,false
"""),
    ("series -p 121 --n-range 6:7 --budget-nodes 20000", "table", EXIT_BUDGET, """\
n=6 k=6        mu=8 delta=2/5 (0.4) witness=112211
n=7 k=7        mu=13 delta=13/35 (0.37142857142857144) witness=1123211 [budget hit]
nonincreasing  true
"""),
    ("series -p 121 --n-range 6:7 --budget-nodes 20000", "csv", EXIT_BUDGET, """\
n,k,mu,delta_num,delta_den,delta_decimal,witness,exhaustive,nodes
6,6,8,2,5,0.4,112211,true,2742
7,7,13,13,35,0.37142857142857144,1123211,false,20000
"""),
    ("construct --builder balanced -n 16 -k 4 --emit json", "table", EXIT_OK, """\
builder      balanced
recipe       balanced-monotone(n=16, k=4)
word         1111222233334444
length       16
alphabet     4
count[11-2]  predicted=72 recounted=72
count[12]    predicted=96 recounted=96
density      24/35 (0.6857142857142857)
verified     true
"""),
    ("construct --builder balanced -n 16 -k 4 --emit json", "csv", EXIT_USAGE, ""),
    ("construct --builder balanced -n 16 -k 4 --emit word", "table", EXIT_OK, """\
1111222233334444
"""),
    ("construct --builder balanced -n 16 -k 4 --emit word", "csv", EXIT_OK, """\
word
1111222233334444
"""),
    ("super -l 2 -m 2", "table", EXIT_OK, """\
l            2
m            2
universe     3 patterns
length       3
witness      121
lower_bound  3 (certified)
log          3 witness
"""),
    ("super -l 2 -m 2", "csv", EXIT_USAGE, ""),
    ("table3", "table", EXIT_OK, """\
111  1.0  [constant pattern packs perfectly]
112  0.4641016151377546  [single-rise root formula]
121  0.2320508075688773  [split single-rise formula]
123  1.0  [monotone pattern packs perfectly]
132  0.4641016151377546  [single-rise root formula (after layer reduction)]
"""),
    ("table3", "csv", EXIT_OK, """\
pattern,decimal,error_bound,provenance
111,1.0,,constant pattern packs perfectly
112,0.4641016151377546,1e-12,single-rise root formula
121,0.2320508075688773,1e-10,split single-rise formula
123,1.0,,monotone pattern packs perfectly
132,0.4641016151377546,1e-12,single-rise root formula (after layer reduction)
"""),
    ("verify --suite overlap-formula", "table", EXIT_OK, """\
overlap-formula  pass
"""),
    ("verify --suite overlap-formula", "csv", EXIT_USAGE, ""),
]


@pytest.mark.parametrize(
    "command, fmt, code, out", GOLDEN, ids=[f"{c} [{f}]" for c, f, _, _ in GOLDEN]
)
def test_golden_rendering(capsys, command, fmt, code, out):
    got_code, got_out, err = run_cli(capsys, *command.split(), "--format", fmt)
    assert (got_code, got_out) == (code, out)
    if code == EXIT_USAGE:
        assert "has no tabular form" in err and len(err.splitlines()) == 1
    else:
        assert err == ""


class TestUsageErrors:
    def test_bad_pattern_text(self, capsys):
        code, _, err = run_cli(capsys, "count", "-p", "12-x", "-w", "123")
        assert code == EXIT_USAGE and "12-x" in err

    def test_word_with_hyphens(self, capsys):
        code, _, _ = run_cli(capsys, "count", "-p", "12", "-w", "1-2")
        assert code == EXIT_USAGE

    def test_no_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == EXIT_USAGE

    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "-p", "12", "-w", "12", "--bogus"])
        assert exc.value.code == EXIT_USAGE

    def test_negative_budget(self, capsys):
        code, _, _ = run_cli(
            capsys, "search", "-p", "12", "-k", "2", "-n", "4",
            "--budget-nodes", "0",
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_budget_seconds(self, capsys, value):
        code, out, err = run_cli(
            capsys, "search", "-p", "121", "-k", "3", "-n", "6",
            "--budget-seconds", value, "--format", "json",
        )
        assert code == EXIT_USAGE and out == ""
        assert err == "wordpack: error: --budget-seconds must be finite\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["density", "-p", "12", "--route", "bogus"],
             "wordpack density: error: argument --route: invalid choice: 'bogus'"),
            (["count", "-p", "12"],
             "wordpack count: error: the following arguments are required: -w/--word"),
        ],
    )
    def test_argparse_refusal_is_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_USAGE
        assert err.startswith(message) and len(err.splitlines()) == 1

    def test_failed_invariant_exits_3(self, capsys, monkeypatch):
        def handler(config):
            raise AssertionError("x")

        monkeypatch.setitem(cli._HANDLERS, "count", handler)
        code, out, err = run_cli(capsys, "count", "-p", "12", "-w", "12")
        assert code == EXIT_INTERNAL and out == ""
        assert err == "wordpack: internal invariant failure: x\n"


#: drawn for an integer flag one time in eight: none of them lies between
#: the small values drawn otherwise and the size limits, so no draw is slow
EDGES = ("0", "-1", "-9", str(10 ** 30), "", "x", "1.5")
PATTERNS = ("12", "121", "132", "1122", "11112", "12-1", "1-2-1", "121g", "2143", "1" * 20 + "2")
BAD_PATTERNS = ("", "x", "1--2", "-1", "12-")


def _drawn(good, bad):
    """One of the good values, or one time in eight a bad one."""
    good, bad = tuple(good), tuple(bad)
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(bad if i == 0 else good))


def _ints(*small):
    return _drawn(map(str, small), EDGES)


_PATTERN = _drawn(PATTERNS, BAD_PATTERNS)

#: per subcommand, each flag with the values it is drawn from and whether
#: it is drawn as required (construct's builders each require a few)
GRAMMAR = {
    "count": {"-p": (_PATTERN, True), "-k": (_ints(3, 6), False),
              "-w": (_drawn(("213322", "1" * 40 + "2"), ("", "12a", "1-2", "0")), True)},
    "density": {"-p": (_PATTERN, True), "--route": (_drawn(cli._ROUTES, ("bogus",)), False),
                "--ell": (_ints(2, 3, 4), False), "--starts": (_ints(1, 8), False),
                "--seed": (_ints(7), False)},
    "search": {"-p": (_PATTERN, True), "-k": (_ints(2, 3, 7), True), "-n": (_ints(3, 5, 7), True),
               "--budget-seconds": (_drawn(("5",), ("0", "-1", "nan", "inf", "", "x")), False),
               "--threads": (_ints(1, 2), False)},
    "series": {"-p": (_PATTERN, True), "-k": (_ints(2, 3), False),
               "--n-range": (_drawn(("3:5", "4:4", "2:6"), ("5:3", "0:3", "3:", ":", "a:b", "",
                                                          "3:501", f"3:{10 ** 30}")), True)},
    "construct": {"--builder": (_drawn(cli._BUILDERS, ("bogus",)), True),
                  "--emit": (_drawn(("word", "json"), ("x",)), False),
                  "-n": (_ints(1, 5, 12), True), "-k": (_ints(1, 3), True),
                  "-l": (_ints(2, 3), True), "-m": (_ints(2, 3, 4), True),
                  "--p": (_ints(1, 2), True), "--q": (_ints(1, 2), True),
                  "--r": (_ints(1, 2), True), "--s": (_ints(2, 3, 4), True),
                  "--depth": (_ints(1, 3), True), "--d": (_ints(1, 3), True),
                  "--ident": (_ints(1, 3), False),
                  "--proportions": (_drawn(("1,2", "1/3,2/3", "0.5,0.5"),
                                           ("", ",", "1,-1", "0,0", "1/0", "a",
                                            "1e99999999", "1e-99999999")), True),
                  "--mode": (_drawn(("permutation", "word"), ("x",)), False),
                  "-p": (_PATTERN, False)},
    "super": {"-l": (_ints(1, 2, 3, 4), True), "-m": (_ints(1, 2, 3, 4), True),
              "--threads": (_ints(1, 2), False)},
    "table3": {},
    "verify": {"--suite": (_drawn(("all", *cli._SUITES), ("bogus",)), False),
               "--seed": (_ints(7), False)},
}


@st.composite
def _argvs(draw):
    """A subcommand and its flags, each with a drawn value: a required flag
    seven times in eight, another flag half the time.  The searching
    subcommands always get --budget-nodes, and the valid values drawn for
    it are small."""
    sub = draw(st.sampled_from(sorted(GRAMMAR)))
    argv = [sub]
    for flag, (values, required) in GRAMMAR[sub].items():
        if draw(st.integers(0, 7)) >= (1 if required else 4):
            argv += [flag, draw(values)]
    if sub in ("search", "series", "super"):
        argv += ["--budget-nodes", draw(_drawn(("1", "100", "3000"), ("0", "-1", "", "x")))]
    if draw(st.booleans()):
        argv += ["--format", draw(_drawn(("table", "json", "csv"), ("xml", "")))]
    return argv


@given(_argvs())
@settings(max_examples=250, deadline=None)
def test_fuzzed_argv_exits_cleanly(argv):
    """Any argv from the grammar exits 0, 1 or 2 with at most one stderr
    line and no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's refusals
            code = exc.code
    text = err.getvalue()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_BUDGET), (argv, code, text)
    assert len(text.splitlines()) <= 1 and "Traceback" not in text, (argv, text)
