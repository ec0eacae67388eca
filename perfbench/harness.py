"""Job runner, tracer and statistics shared by the benchmark workloads.

A *job* is one public call into ``wordpack`` (one CLI command, one
``max_count``, one ``pattern_table`` ...).  Its latency covers the call
alone; the check that validates its output runs right after and counts
toward the pass's wall time but not toward the job's latency.

The tracer wraps the benchmark's own calls into each module's public
functions.  Span names read ``<layer>.<group>.<function>`` where the layer
is the ``wordpack`` module (``core``, ``count``, ``search``, ``density``,
``construct``, ``superpattern``, ``cli``) and the group tells apart calls
the per-layer metrics count separately (for example exhaustive versus
branch-and-bound ``max_count``).  Job spans use the layer ``job``; their
self time, reported as ``bench.self_s``, is the benchmark's own work:
checks and bookkeeping.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

LAYERS = ("core", "count", "search", "density", "construct", "superpattern", "cli")

#: A check returns None when the output is right, else a one-line reason.
Check = Callable[[Any], Optional[str]]


class Job(NamedTuple):
    name: str
    call: Callable[[], Any]
    check: Check


class Span(NamedTuple):
    span_id: int
    parent: Optional[int]
    job: Optional[int]
    name: str
    start: float
    end: float


class Tracer:
    """Counters always; spans only when ``enabled``.

    Spans stay in memory and are written once, by :meth:`write`, after the
    pass has ended.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.job: Optional[int] = None
        self._stack: List[Tuple[int, str, float]] = []
        self._next_id = 0

    def open(self, name: str) -> None:
        if self.enabled:
            self._stack.append((self._next_id, name, time.perf_counter()))
            self._next_id += 1

    def close(self) -> None:
        if self.enabled:
            end = time.perf_counter()
            span_id, name, start = self._stack.pop()
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(Span(span_id, parent, self.job, name, start, end))

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] += amount

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


class Runner:
    """Runs jobs one after another (a closed loop with one caller), keeping
    every latency and every failure; a failed job never stops the pass."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.latencies: List[float] = []
        self.failures: List[Tuple[str, str]] = []

    def run(self, job: Job) -> None:
        tr = self.tracer
        tr.job = len(self.latencies)
        tr.open(f"job.{job.name}")
        error: Optional[str] = None
        t0 = time.perf_counter()
        try:
            out = job.call()
        except Exception as exc:  # a raising call is a failed job; the pass goes on
            error = f"raised {type(exc).__name__}: {exc}"
        self.latencies.append(time.perf_counter() - t0)
        if error is None:
            try:
                error = job.check(out)
            except Exception as exc:  # a check tripping on a wrong output is a failure too
                error = f"check raised {type(exc).__name__}: {exc}"
        tr.close()
        tr.job = None
        if error is not None:
            self.failures.append((job.name, error))


def tail_percentile(samples: Sequence[float], q: float, min_beyond: int = 10) -> Optional[float]:
    """Nearest-rank q-quantile, or None unless at least ``min_beyond``
    samples lie beyond it (p90 therefore needs at least 100 samples)."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counters."""
    busy: Dict[str, float] = defaultdict(float)  # by span-name prefix
    calls: Dict[str, int] = defaultdict(int)
    child_time: Dict[int, float] = defaultdict(float)
    for s in tracer.spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    self_s: Dict[str, float] = defaultdict(float)
    for s in tracer.spans:
        dur = s.end - s.start
        parts = s.name.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            busy[prefix] += dur
            calls[prefix] += 1
        self_s[parts[0]] += dur - child_time[s.span_id]
    c = tracer.counters
    m: Dict[str, float] = {}
    m["core.calls"] = calls["core"]
    m["core.busy_s"] = busy["core"]

    m["count.table_calls"] = calls["count.table"]
    m["count.table_entries"] = c["count.table_entries"]
    m["count.table_busy_s"] = busy["count.table"]
    for n in (8, 12, 16):
        group = f"count.table.n{n}"
        m[f"count.table_us_per_word_n{n}"] = 1e6 * _ratio(busy[group], calls[group])
    m["count.generalized_calls"] = calls["count.generalized"]
    m["count.generalized_busy_s"] = busy["count.generalized"]
    m["count.generalized_letters_per_s"] = _ratio(
        c["count.generalized_letters"], busy["count.generalized"]
    )

    m["search.enumerate_rows_per_s"] = _ratio(c["search.enumerate_rows"], busy["search.enumerate"])
    m["search.exhaustive_calls"] = calls["search.exhaustive"]
    m["search.exhaustive_words"] = c["search.exhaustive_words"]
    m["search.exhaustive_busy_s"] = busy["search.exhaustive"]
    m["search.exhaustive_words_per_s"] = _ratio(
        c["search.exhaustive_words"], busy["search.exhaustive"]
    )
    m["search.bnb_calls"] = calls["search.bnb"]
    m["search.bnb_nodes"] = c["search.bnb_nodes"]
    m["search.bnb_busy_s"] = busy["search.bnb"]
    m["search.bnb_nodes_per_s"] = _ratio(c["search.bnb_nodes"], busy["search.bnb"])
    m["search.bnb_budget_hits"] = _ratio(c["search.bnb_budget_hits"], calls["search.bnb"])
    m["search.bnb_budgeted_count"] = c["search.bnb_budgeted_count"]

    m["superpattern.certify_calls"] = calls["superpattern.certify"]
    m["superpattern.nodes"] = c["superpattern.nodes"]
    m["superpattern.busy_s"] = busy["superpattern.certify"]
    m["superpattern.nodes_per_s"] = _ratio(c["superpattern.nodes"], busy["superpattern.certify"])
    m["superpattern.universal_checks"] = calls["superpattern.universal"]
    m["superpattern.universal_us_per_check"] = 1e6 * _ratio(
        busy["superpattern.universal"], calls["superpattern.universal"]
    )

    m["density.calls"] = calls["density.route"]
    m["density.route_refusals"] = _ratio(c["density.route_refusals"], calls["density.route"])
    m["density.busy_s"] = busy["density.route"]
    m["density.cap_calls"] = calls["density.cap"]
    m["density.cap_busy_s"] = busy["density.cap"]

    m["construct.calls"] = calls["construct"]
    m["construct.letters_built"] = c["construct.letters_built"]
    m["construct.busy_s"] = busy["construct"]

    m["cli.commands"] = calls["cli"]
    m["cli.busy_s"] = busy["cli"]
    m["cli.stdout_bytes"] = c["cli.stdout_bytes"]
    m["cli.nonzero_exits"] = c["cli.nonzero_exits"]

    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["bench.self_s"] = self_s["job"]
    return m
