"""Tests of the benchmark itself: its checks must turn a wrong count, a wrong
witness or a raised exception into a reported failure, never a crash, and
its percentile helper must name a percentile only with ten samples beyond.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from harness import Job, Runner, Tracer, tail_percentile  # noqa: E402
from wordpack.core import Word, parse_pattern  # noqa: E402
from wordpack.count import count_generalized, pattern_table  # noqa: E402
from wordpack.density import DensityRouteError, DensityValue  # noqa: E402
from wordpack.search import SearchResult  # noqa: E402


def result(count, witness, exhaustive=True, nodes=10, k=3, n=None):
    w = Word(tuple(int(c) for c in witness))
    return SearchResult(Fraction(count), 1, Fraction(count), w, k, n or w.n, nodes, exhaustive)


def failures_of_call(call, check):
    """Run one job; return the failures it reported."""
    runner = Runner(Tracer(False))
    runner.run(Job("probe", call, check))
    return runner.failures


def failures_of(output, check):
    return failures_of_call(lambda: output, check)


def raising_call():
    raise RuntimeError("boom")


# -- percentile helper -------------------------------------------------------


def test_p90_needs_ten_samples_beyond():
    assert tail_percentile(list(range(1, 100)), 0.9) is None
    assert tail_percentile(list(range(1, 101)), 0.9) == 90
    assert tail_percentile(list(range(100, 0, -1)), 0.9) == 90


def test_p50_needs_ten_samples_beyond():
    assert tail_percentile(list(range(19)), 0.5) is None
    assert tail_percentile(list(range(20)), 0.5) == 9
    assert tail_percentile([], 0.5) is None


def test_end_to_end_takes_each_jobs_median_over_the_passes():
    fast = {"latencies": [0.001] * 100, "wall_s": 1.0, "cpu_s": 0.9, "peak_rss_mb": 10.0}
    slow = dict(fast, latencies=[0.003] * 100, wall_s=4.0)
    m = run.end_to_end([fast, slow, fast], [0.5, 0.3, 0.4])
    assert m["job_p50_ms"] == m["job_p90_ms"] == 1.0
    assert m["wall_s"] == 2.0 and m["setup_s"] == 0.4
    with pytest.raises(ValueError):  # p90 needs 100 jobs
        run.end_to_end([dict(fast, latencies=[0.001] * 99)], [0.3])
    with pytest.raises(ValueError):
        run.end_to_end([fast, dict(fast, latencies=[0.001] * 101)], [0.3])


# -- runner ------------------------------------------------------------------


def test_raised_exception_is_a_failure_and_the_pass_goes_on():
    runner = Runner(Tracer(True))
    runner.run(Job("bad", raising_call, lambda out: None))
    runner.run(Job("good", lambda: 3, lambda out: None if out == 3 else "wrong"))
    assert runner.failures == [("bad", "raised RuntimeError: boom")]
    assert len(runner.latencies) == 2


def test_check_that_trips_is_a_failure():
    fails = failures_of(None, lambda out: None if out["x"] else "no")
    assert len(fails) == 1 and fails[0][1].startswith("check raised TypeError")


# -- checks ------------------------------------------------------------------


def test_max_check_rejects_wrong_count_witness_and_flag():
    tr = Tracer(False)
    p = parse_pattern("121")
    check = wl.max_check(tr, p, 8, "112211")
    assert failures_of(result(8, "112211"), check) == []
    assert "count" in failures_of(result(9, "112211"), check)[0][1]
    assert "witness" in failures_of(result(8, "122111"), check)[0][1]
    assert "exhaustive" in failures_of(result(8, "112211", exhaustive=False), check)[0][1]
    # a witness whose recount disagrees with the reported count
    no_witness = wl.max_check(tr, p, 8)
    assert "recount" in failures_of(result(8, "111111"), no_witness)[0][1]
    assert "raised" in failures_of_call(raising_call, check)[0][1]


def test_table_check_rejects_tampered_tables():
    tr = Tracer(False)
    w = Word((1, 2, 1, 3, 2, 2, 1, 3))
    samples = wl.pattern_inventory()[:40]
    check = wl.table_check(tr, w, samples)
    table = pattern_table(w, 4)
    assert failures_of(table, check) == []
    for key in list(table)[:5]:
        bad = dict(table)
        bad[key] += 1
        assert failures_of(bad, check), key
    assert failures_of({}, check)
    assert "raised" in failures_of_call(raising_call, check)[0][1]


def test_budgeted_check_allows_improvement_but_not_impossible_counts():
    tr = Tracer(False)
    p = parse_pattern("112")
    check = wl.budgeted_check(tr, p, 31, 100)
    w = "11111223"
    assert failures_of(result(31, w, exhaustive=False, nodes=100), check) == []
    assert "known maximum" in failures_of(result(32, w, exhaustive=False), check)[0][1]
    assert "recount" in failures_of(result(30, w, exhaustive=False), check)[0][1]
    assert "budget" in failures_of(result(31, w, exhaustive=False, nodes=101), check)[0][1]


def test_super_and_universal_checks():
    tr = Tracer(False)
    from wordpack.superpattern import SuperResult, is_universal

    check = wl.super_check(tr, 3, 3)
    good = SuperResult(3, 3, 7, Word((1, 2, 1, 3, 1, 2, 1)), 7, True, 399, ())
    assert failures_of(good, check) == []
    assert failures_of(SuperResult(3, 3, 8, good.witness, 7, True, 399, ()), check)
    assert failures_of(SuperResult(3, 3, 7, good.witness, 7, False, 399, ()), check)
    wrong = Word((1, 2, 1, 3, 1, 2, 2))
    assert failures_of(SuperResult(3, 3, 7, wrong, 7, True, 399, ()), check)

    w = Word((1, 2, 3, 1, 2))
    ucheck = wl.universal_check(w, 3, 3)
    assert failures_of(is_universal(w, 3, 3), ucheck) == []
    flag, missing = is_universal(w, 3, 3)
    assert failures_of((not flag, missing), ucheck)
    assert failures_of((flag, missing[1:]), ucheck)


def test_cli_check_rejects_exit_codes_drift_and_garbage():
    first = {}
    check = wl.cli_check(wl.readme_reference("count -p 122 -w 213322"), first, "k")
    tr = Tracer(False)
    code, out = wl.run_cli(tr, ["count", "-p", "122", "-w", "213322", "--format", "json"])
    assert failures_of((code, out), check) == []
    assert failures_of((code, out), check) == []  # identical repeat
    env = json.loads(out)
    env["result"]["count"] = 4
    assert "README" in failures_of((0, json.dumps(env)), check)[0][1]
    assert "exit code" in failures_of((1, out), check)[0][1]
    assert "check raised" in failures_of((0, "not json"), check)[0][1]
    # drift between runs of one command
    drift = wl.cli_check(lambda res: None, first, "k")
    env = json.loads(out)
    env["result"]["word"] = "213323"
    assert "differs between runs" in failures_of((0, json.dumps(env)), drift)[0][1]


def test_cli_bad_flags_do_not_kill_the_pass():
    code, _ = wl.run_cli(Tracer(False), ["count", "--no-such-flag"])
    assert code != 0


def test_density_check():
    values = {}
    assert failures_of(DensityRouteError("no route"), wl.density_check("1-32", values, "23-1")) == []
    good = DensityValue(Fraction(3, 8), "test")
    assert failures_of(good, wl.density_check("1122", values, "2211")) == []
    assert failures_of(DensityValue(Fraction(1, 3), "test"), wl.density_check("2211", values, "1122"))
    assert failures_of(DensityValue(Fraction(1, 2), "test"), wl.density_check("1221", values, "1221")) == []


def test_builder_check():
    from wordpack.construct import twelve_one_word

    tr = Tracer(False)
    c = twelve_one_word(40, 13)
    assert failures_of(c, wl.builder_check(tr, 40)) == []
    assert failures_of(c, wl.builder_check(tr, 41))
    bad = type(c)(c.word, c.recipe, c.targets, (c.predicted_counts[0] + 1,))
    assert "recount" in failures_of(bad, wl.builder_check(tr, 40))[0][1]


def test_exact_maxima_checks_reject_wrong_answers():
    tr = Tracer(False)
    jobs = {j.name: j for j in wl.exact_maxima(random.Random("test"), tr)}
    job = jobs["max_count.12-1.k2.n10"]
    good = job.call()
    assert job.check(good) is None
    assert job.check(result(int(good.count) + 1, "1212121111")) is not None
    assert job.check(result(good.count, "1211212111")) is not None
    series = jobs["delta_series.121"]
    rep = series.call()
    assert series.check(rep) is None
    assert series.check(type(rep)(rep.rows, ((4, 5),))) is not None
    assert series.check(type(rep)(rep.rows[:1] + rep.rows[:1], ())) is not None
    grid = jobs["by_alphabet.121.n5"]
    by = grid.call()
    assert grid.check(by) is None
    worse = dict(by)
    worse[2] = result(3, "11211")
    assert grid.check(worse) is not None
    enum = jobs["enumerate_canonical"]
    rows = enum.call()
    assert enum.check(rows) is None
    assert enum.check(rows[:-1]) is not None
    assert enum.check(rows[1:] + rows[:1]) is not None


def test_reference_count_matches_the_library():
    rng = random.Random(7)
    for text in ("121", "12-1", "2-13", "1122", "121g", "1-32", "21-1"):
        p = parse_pattern(text)
        for _ in range(5):
            letters = [rng.randint(1, 3) for _ in range(rng.randint(4, 14))]
            assert wl.reference_count(p.letters, p.hyphens, letters) == count_generalized(
                p, Word(tuple(letters), 3)
            ), (text, letters)


def test_self_time_subtracts_children():
    tr = Tracer(True)
    tr.spans = [
        harness.Span(0, None, 0, "job.x", 0.0, 10.0),
        harness.Span(1, 0, 0, "count.generalized.count_generalized", 1.0, 4.0),
        harness.Span(2, 0, 0, "search.bnb.max_count", 5.0, 9.0),
    ]
    tr.add("search.bnb_nodes", 8)
    m = harness.layer_metrics(tr)
    assert m["bench.self_s"] == 3.0
    assert m["count.self_s"] == 3.0 and m["count.generalized_calls"] == 1
    assert m["search.bnb_busy_s"] == 4.0 and m["search.bnb_nodes_per_s"] == 2.0


def test_floor_reaches_every_timed_layer_figure():
    tr = Tracer(True)
    runner = Runner(tr)
    for job in wl.layer_floor(tr):
        runner.run(job)
    assert runner.failures == []
    zero = {name for name, value in harness.layer_metrics(tr).items() if not value}
    # only counts and ratios of events the floor never causes may read 0
    assert zero <= {"search.bnb_budget_hits", "search.bnb_budgeted_count",
                    "density.route_refusals", "cli.nonzero_exits"}


def test_benchmark_json_names_every_metric_the_harness_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    reported = set(harness.layer_metrics(Tracer(True))) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
