"""Command-line surface unifying counting, search, densities, constructions
and superpattern search, with machine-readable output.

Each subcommand states its values once: raw ``result`` and ``stats`` dicts,
an ordered ``table`` of label -> value and, for the tabular subcommands,
``csv`` rows of column -> value.  One rule renders each format.  JSON is a
versioned envelope {"schema", "command", "config", "result", "stats"}
serialized with sorted keys, so identical configurations produce
byte-identical output; exact rationals appear as {"num", "den", "decimal"}.
The table renders a rational as ``a/b (decimal)`` and a bool as
``true``/``false``.  CSV splits a rational column ``x`` into ``x_num``,
``x_den`` and ``x_decimal``, writes a bool as ``true``/``false`` and None
as an empty cell.  Node counters live only in the stats object, which is
excluded from the determinism contract.
``--threads`` must be a positive integer but has no effect: every search
runs in the calling thread.

Exit codes: 0 success; 1 usage error; 2 budget exhausted (results still
emitted); 3 internal invariant failure (always a bug).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .core import (
    Pattern,
    blocks,
    layered_decompose,
    parse_pattern,
    parse_word,
    symmetry_class,
)
from .count import density as exact_density
from .density import (
    DensityRouteError,
    DensityValue,
    _pqr_shape,
    asymptotic_density,
    gen_layered_density,
    k1_density,
    layered_density_cap,
    m_overlap,
    pqr_density,
    r_s_density,
    simple_layered_density,
    three_letter_table,
)
from .construct import (
    MAX_CONSTRUCT_N,
    Construction,
    balanced_monotone_word,
    layered_word,
    nested_word,
    pqr_word,
    sqrt_layer_perm,
    superpattern_word,
    twelve_one_word,
)
from .search import (
    MAX_SEARCH_N,
    SearchBudget,
    SearchResult,
    canonical_count,
    delta_series,
    max_count,
    verify_layered_witness,
    verify_perm_restriction,
    verify_tiebreak_map,
)
from .superpattern import (
    MAX_UNIVERSE,
    is_universal,
    shortest_superpattern,
)

__all__ = ["RunConfig", "run", "main"]

SCHEMA = "wordpack/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_INTERNAL = 3

_ROUTES = (
    "auto",
    "constant",
    "simple-product",
    "single-rise",
    "two-block",
    "three-block",
    "subword-overlap",
    "cap",
)

_BUILDERS = (
    "balanced",
    "pqr",
    "nested",
    "layered",
    "super-word",
    "twelve-one",
    "sqrt-layers",
)

@dataclass(frozen=True)
class RunConfig:
    """One fully resolved invocation; identical configs yield byte-identical
    JSON output (the stats object is outside that contract)."""

    subcommand: str
    pattern: Optional[str] = None
    word: Optional[str] = None
    k: Optional[int] = None
    n: Optional[int] = None
    n_range: Optional[str] = None
    l: Optional[int] = None
    m: Optional[int] = None
    p: Optional[int] = None
    q: Optional[int] = None
    r: Optional[int] = None
    s: Optional[int] = None
    depth: Optional[int] = None
    d: Optional[int] = None
    ident: int = 2
    proportions: Optional[str] = None
    mode: str = "permutation"
    builder: Optional[str] = None
    emit: str = "json"
    route: str = "auto"
    ell: Optional[int] = None
    starts: int = 64
    budget_nodes: Optional[int] = None
    budget_seconds: Optional[float] = None
    threads: Optional[int] = None
    format: str = "table"
    seed: int = 12345
    suite: str = "all"


class UsageError(ValueError):
    """Bad flag combination or unparsable input; maps to exit code 1."""


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    known = {f.name for f in fields(RunConfig)}
    values = {k: v for k, v in vars(args).items() if k in known}
    return RunConfig(**values)


def _check_threads(config: RunConfig) -> None:
    if config.threads is not None and config.threads < 1:
        raise UsageError("--threads must be a positive integer")


def _budget(config: RunConfig) -> Optional[SearchBudget]:
    if config.budget_nodes is None and config.budget_seconds is None:
        return None
    if config.budget_nodes is not None and config.budget_nodes < 1:
        raise UsageError("--budget-nodes must be a positive integer")
    if config.budget_seconds is not None and config.budget_seconds <= 0:
        raise UsageError("--budget-seconds must be positive")
    if config.budget_seconds is not None and not math.isfinite(config.budget_seconds):
        raise UsageError("--budget-seconds must be finite")
    return SearchBudget(
        max_nodes=config.budget_nodes, max_seconds=config.budget_seconds
    )


def _check_length(flag: str, n: int) -> None:
    if n > MAX_SEARCH_N:
        raise UsageError(f"{flag} {n} is above the longest word a search takes, {MAX_SEARCH_N}")


def _check_universe(l: int, m: int) -> None:
    """Refuse an (l, m) whose universe holds more than MAX_UNIVERSE patterns
    before it is built.  Over two letters or more it holds at least 2^m - 1,
    so an m of MAX_UNIVERSE's bit length or more is refused uncounted.  A
    one-letter universe holds one pattern, but its words have m letters, so
    m is held to MAX_SEARCH_N as a search's n is."""
    base = min(l, m)
    if base > 1 and (
        m >= MAX_UNIVERSE.bit_length() or canonical_count(m, base) > MAX_UNIVERSE
    ):
        raise UsageError(
            f"-l {l} -m {m} is past the largest universe a universality check "
            f"takes, {MAX_UNIVERSE} patterns"
        )
    if m > MAX_SEARCH_N:
        raise UsageError(
            f"-m {m} is above the longest pattern a universality check takes, {MAX_SEARCH_N}"
        )


def _parse_n_range(text: str) -> Tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"--n-range takes A:B, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"--n-range takes integers A:B, got {text!r}")
    if lo > hi:
        raise UsageError(f"--n-range needs A <= B, got {text!r}")
    return lo, hi


# ---------------------------------------------------------------------------
# rendering


def _jsonsafe(obj: object) -> object:
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator, "decimal": float(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonsafe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonsafe(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if hasattr(obj, "item"):  # numpy scalars
        return _jsonsafe(obj.item())
    return str(obj)  # Pattern, Word


def _text(value: object) -> str:
    """One table cell: a rational as ``a/b (decimal)``, a bool as
    ``true``/``false``, anything else through ``str``."""
    if isinstance(value, Fraction):
        return f"{value} ({float(value)!r})"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _cells(row: Mapping[str, object]) -> Dict[str, object]:
    """One CSV row: a rational column ``x`` splits into ``x_num``, ``x_den``
    and ``x_decimal``, and a bool renders as ``true``/``false``."""
    out: Dict[str, object] = {}
    for key, value in row.items():
        if isinstance(value, Fraction):
            out[f"{key}_num"] = value.numerator
            out[f"{key}_den"] = value.denominator
            out[f"{key}_decimal"] = float(value)
        else:
            out[key] = _text(value) if isinstance(value, bool) else value
    return out


@dataclass
class _Report:
    """One command's values, each stated once: raw ``result`` and ``stats``
    for JSON, an ordered label -> value ``table``, and ``csv`` rows of
    column -> value (None: the command has no tabular form)."""

    result: Dict[str, object]
    table: Dict[str, object]
    csv: Optional[List[Dict[str, object]]] = None
    stats: Dict[str, object] = field(default_factory=dict)


def _emit(config: RunConfig, report: _Report, stream=None) -> None:
    out = stream or sys.stdout
    if config.format == "json":
        envelope = {
            "schema": SCHEMA,
            "command": config.subcommand,
            "config": asdict(config),
            "result": report.result,
            "stats": report.stats,
        }
        out.write(json.dumps(_jsonsafe(envelope), sort_keys=True, indent=2) + "\n")
    elif config.format == "csv":
        if report.csv is None:
            raise UsageError(
                f"subcommand {config.subcommand!r} has no tabular form; "
                "use --format json or table"
            )
        rows = [_cells(row) for row in report.csv]
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows(row.values() for row in rows)
    else:
        width = max((len(k) for k in report.table), default=0)
        for key, value in report.table.items():
            out.write(f"{key.ljust(width)}  {_text(value)}".rstrip() + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_count(config: RunConfig) -> Tuple[int, _Report]:
    if config.pattern is None or config.word is None:
        raise UsageError("count requires -p/--pattern and -w/--word")
    p = parse_pattern(config.pattern)
    w = parse_word(config.word, config.k or 0)
    rep = exact_density(p, w)
    count = int(rep.count) if rep.count.denominator == 1 else rep.count
    result = {
        "pattern": p,
        "word": w,
        "k": w.k,
        "count": count,
        "denominator": rep.denom,
        "delta": rep.density,
    }
    table = {
        "pattern": p,
        "word": w,
        "nu": str(rep.count),
        "denominator": rep.denom,
        "delta": rep.density,
    }
    return EXIT_OK, _Report(result, table, [table])


def _route_density(config: RunConfig, p: Pattern) -> DensityValue:
    route = config.route
    if route == "auto":
        return asymptotic_density(p)
    if route == "constant":
        if not p.is_constant:
            raise DensityRouteError(f"{p} is not constant")
        return DensityValue(Fraction(1), "constant pattern packs perfectly")
    if route == "subword-overlap":
        return gen_layered_density(p)
    if route == "cap" and config.ell is None:
        raise UsageError("route 'cap' requires --ell (number of layers)")
    if not p.is_classical:
        raise DensityRouteError(
            f"route {route!r} applies to classical patterns, not {p}"
        )
    candidates = symmetry_class(p, include_inverse=p.is_permutation)
    if route in ("cap", "simple-product"):
        for q in candidates:
            shape = layered_decompose(q)
            if shape is None:
                continue
            if route == "simple-product":
                return simple_layered_density(shape)
            try:
                return layered_density_cap(
                    shape, config.ell, starts=config.starts, seed=config.seed
                )
            except RuntimeError as exc:  # the starts did not agree
                raise DensityRouteError(
                    f"route 'cap' could not certify {p} with --ell {config.ell}: {exc}"
                ) from exc
            except ValueError as exc:  # the message opens with "ell" or "starts"
                raise UsageError(f"route 'cap' refuses {p} with --{exc}") from exc
        raise DensityRouteError(f"{p} is not layered")
    if route in ("single-rise", "two-block"):
        for q in candidates:
            try:
                mult = blocks(q)
            except ValueError:  # not monotone nondecreasing
                continue
            if route == "two-block" and len(mult) == 2:
                return r_s_density(*mult)
            if route == "single-rise" and len(mult) == 2 and mult[1] == 1:
                return k1_density(mult[0])
        if route == "two-block":
            raise DensityRouteError(f"{p} is not a two-block pattern")
        raise DensityRouteError(f"{p} is not a block of equal letters plus one rise")
    if route == "three-block":
        for q in candidates:
            pqr = _pqr_shape(q.letters)
            if pqr is not None:
                return pqr_density(*pqr)
        raise DensityRouteError(f"{p} is not a low-high-low three-block pattern")
    raise UsageError(f"unknown route {route!r}")


def _density_obj(dv: DensityValue) -> Dict[str, object]:
    return {
        "value": dv.value if dv.exact else {"decimal": float(dv.value)},
        "exact": dv.exact,
        "provenance": dv.provenance,
        "error_bound": dv.error_bound,
    }


def _cmd_density(config: RunConfig) -> Tuple[int, _Report]:
    if config.pattern is None:
        raise UsageError("density requires -p/--pattern")
    if config.starts < 0:
        raise UsageError("--starts must be a nonnegative integer")
    p = parse_pattern(config.pattern)
    dv = _route_density(config, p)
    result = {"pattern": p, "route": config.route, **_density_obj(dv), "aux": dv.aux}
    table = {
        "pattern": p,
        "route": config.route,
        "density": dv.value if dv.exact else float(dv.value),
        "exact": dv.exact,
        "provenance": dv.provenance,
    }
    if dv.error_bound is not None:
        table["error_bound"] = dv.error_bound
    row = {
        "pattern": p,
        "route": config.route,
        "decimal": float(dv.value),
        "error_bound": dv.error_bound,
        "provenance": dv.provenance,
    }
    return EXIT_OK, _Report(result, table, [row])


def _search_obj(res: SearchResult) -> Dict[str, object]:
    return {
        "k": res.k,
        "n": res.n,
        "mu": res.count,
        "denominator": res.denom,
        "delta": res.density,
        "witness": res.witness,
        "exhaustive": res.exhaustive,
    }


def _search_row(res: SearchResult) -> Dict[str, object]:
    return {
        "n": res.n,
        "k": res.k,
        "mu": str(res.count),
        "delta": res.density,
        "witness": res.witness,
        "exhaustive": res.exhaustive,
        "nodes": res.nodes,
    }


def _no_word(head: Dict[str, object], exc: RuntimeError) -> Tuple[int, _Report]:
    """A budget that completed no word: exit 2 with an inconclusive result."""
    result = dict(head, completed=False, error=str(exc), exhaustive=False)
    table = {"error": str(exc), "exhaustive": False}
    return EXIT_BUDGET, _Report(result, table, [result], {"nodes": None})


def _cmd_search(config: RunConfig) -> Tuple[int, _Report]:
    if config.pattern is None or config.k is None or config.n is None:
        raise UsageError("search requires -p/--pattern, -k and -n")
    _check_length("-n", config.n)
    p = parse_pattern(config.pattern)
    budget = _budget(config)
    _check_threads(config)
    try:
        res = max_count(p, config.k, config.n, budget)
    except RuntimeError as exc:
        return _no_word({"pattern": p, "k": config.k, "n": config.n}, exc)
    result = {"pattern": p, **_search_obj(res)}
    table = dict(result, mu=str(res.count))
    report = _Report(result, table, [_search_row(res)], {"nodes": res.nodes})
    return EXIT_OK if res.exhaustive else EXIT_BUDGET, report


def _cmd_series(config: RunConfig) -> Tuple[int, _Report]:
    if config.pattern is None or config.n_range is None:
        raise UsageError("series requires -p/--pattern and --n-range A:B")
    p = parse_pattern(config.pattern)
    lo, hi = _parse_n_range(config.n_range)
    _check_length("--n-range", hi)
    if lo < p.m:
        raise UsageError(
            f"--n-range starts below the pattern length ({lo} < {p.m})"
        )
    budget = _budget(config)
    _check_threads(config)
    k_policy = "fixed" if config.k is not None else "diagonal"
    try:
        series = delta_series(p, range(lo, hi + 1), config.k, budget)
    except RuntimeError as exc:
        return _no_word({"pattern": p, "k_policy": k_policy}, exc)
    rows = series.rows
    result = {
        "pattern": p,
        "k_policy": k_policy,
        "rows": [_search_obj(r) for r in rows],
        "nonincreasing": not series.violations,
        "violations": series.violations,
    }
    stats = {
        "nodes_total": sum(r.nodes for r in rows),
        "nodes": [{"n": r.n, "nodes": r.nodes} for r in rows],
    }
    table: Dict[str, object] = {
        f"n={r.n} k={r.k}": f"mu={r.count} delta={_text(r.density)} "
        f"witness={r.witness}" + ("" if r.exhaustive else " [budget hit]")
        for r in rows
    }
    table["nonincreasing"] = not series.violations
    report = _Report(result, table, [_search_row(r) for r in rows], stats)
    exhaustive = all(r.exhaustive for r in rows)
    return EXIT_OK if exhaustive else EXIT_BUDGET, report


#: the largest decimal exponent, in absolute value, of a --proportions
#: entry: Fraction computes 10**exponent (1e10000000 takes 14 s), and
#: CPython already refuses a mantissa of more digits than this
MAX_PROPORTION_EXPONENT = 4300


def _parse_proportions(text: str) -> Tuple[Fraction, ...]:
    parts = [s.strip() for s in text.split(",") if s.strip()]
    if not parts:
        raise UsageError("--proportions needs a comma-separated list")
    out = []
    for part in parts:
        _, e, exp = part.lower().rpartition("e")
        digits = exp.lstrip("+-").replace("_", "").lstrip("0")
        if e and digits.isdecimal() and (
                len(digits) > 4 or int(digits) > MAX_PROPORTION_EXPONENT):
            raise UsageError(f"--proportions entry {part!r} has an exponent above "
                             f"{MAX_PROPORTION_EXPONENT} in absolute value")
        try:
            out.append(Fraction(part))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad proportion {part!r}")
    return tuple(out)


def _require(builder: str, **needed: Optional[object]) -> None:
    """Refuse a missing flag, or a size above MAX_CONSTRUCT_N (-l and -m
    have _check_universe's limits), naming the flag."""
    flags = {name: ("-" if name in ("n", "k", "l", "m") else "--") + name for name in needed}
    missing = [flags[name] for name, value in needed.items() if value is None]
    if missing:
        raise UsageError(f"builder {builder!r} requires {', '.join(missing)}")
    for name, value in needed.items():
        if isinstance(value, int) and name not in ("l", "m") and value > MAX_CONSTRUCT_N:
            raise UsageError(f"{flags[name]} {value} is above the largest size "
                             f"construct takes, {MAX_CONSTRUCT_N}")


def _build(config: RunConfig) -> Construction:
    b = config.builder
    if b == "balanced":
        _require(b, n=config.n, k=config.k, ident=config.ident)
        return balanced_monotone_word(config.n, config.k, config.ident)
    if b == "pqr":
        _require(b, p=config.p, q=config.q, r=config.r, n=config.n)
        return pqr_word(config.p, config.q, config.r, config.n)
    if b == "nested":
        _require(b, p=config.p, q=config.q, s=config.s, depth=config.depth, n=config.n)
        return nested_word(config.p, config.q, config.s, config.depth, config.n)
    if b == "layered":
        _require(b, proportions=config.proportions, n=config.n)
        target = parse_pattern(config.pattern) if config.pattern else None
        return layered_word(
            _parse_proportions(config.proportions), config.n, config.mode, target
        )
    if b == "super-word":
        _require(b, l=config.l, m=config.m)
        _check_universe(config.l, config.m)
        return superpattern_word(config.l, config.m)
    if b == "twelve-one":
        _require(b, n=config.n, d=config.d)
        return twelve_one_word(config.n, config.d)
    if b == "sqrt-layers":
        _require(b, n=config.n)
        return sqrt_layer_perm(config.n)
    raise UsageError(f"unknown builder {b!r}")


def _cmd_construct(config: RunConfig) -> Tuple[int, _Report]:
    if config.builder is None:
        raise UsageError("construct requires --builder")
    built = _build(config)
    recounts = built.recount()
    verified = recounts == built.predicted_counts
    if config.builder == "super-word":
        verified = verified and is_universal(built.word, config.l, config.m)[0]
    status = EXIT_OK if verified else EXIT_INTERNAL
    if config.emit == "word":
        result = {"word": built.word}
        return status, _Report(result, {str(built.word): ""}, [result])
    result = {
        "builder": config.builder,
        "recipe": built.recipe,
        "word": built.word,
        "n": built.word.n,
        "k": built.word.k,
        "targets": built.targets,
        "predicted_counts": built.predicted_counts,
        "recounts": recounts,
        "predicted_density": built.predicted_density,
        "verified": verified,
    }
    table: Dict[str, object] = {
        "builder": config.builder,
        "recipe": built.recipe,
        "word": built.word,
        "length": built.word.n,
        "alphabet": built.word.k,
    }
    for t, c, rc in zip(built.targets, built.predicted_counts, recounts):
        table[f"count[{t}]"] = f"predicted={c} recounted={rc}"
    if built.predicted_density is not None:
        table["density"] = built.predicted_density
    table["verified"] = verified
    return status, _Report(result, table)


def _cmd_super(config: RunConfig) -> Tuple[int, _Report]:
    if config.l is None or config.m is None:
        raise UsageError("super requires -l and -m")
    _check_universe(config.l, config.m)
    budget = _budget(config)
    _check_threads(config)
    res = shortest_superpattern(config.l, config.m, budget)
    universe_size = canonical_count(res.m, res.l)
    result = {
        "l": res.l,
        "m": res.m,
        "universe_size": universe_size,
        "length": res.length,
        "witness": res.witness,
        "lower_bound": res.lower_bound,
        "lower_bound_certified": res.lower_bound_certified,
        "log": [{"length": v.length, "verdict": v.verdict} for v in res.log],
    }
    stats = {
        "nodes_total": res.nodes,
        "nodes": [{"length": v.length, "nodes": v.nodes} for v in res.log],
    }
    certified = " (certified)" if res.lower_bound_certified else " (budget hit)"
    table = {
        "l": res.l,
        "m": res.m,
        "universe": f"{universe_size} patterns",
        "length": res.length,
        "witness": res.witness,
        "lower_bound": f"{res.lower_bound}{certified}",
        "log": "; ".join(f"{v.length} {v.verdict}" for v in res.log),
    }
    status = EXIT_OK if res.lower_bound_certified else EXIT_BUDGET
    return status, _Report(result, table, stats=stats)


def _cmd_table3(config: RunConfig) -> Tuple[int, _Report]:
    values = sorted(three_letter_table().items())
    result = {"rows": {text: _density_obj(dv) for text, dv in values}}
    table = {text: f"{float(dv.value)!r}  [{dv.provenance}]" for text, dv in values}
    rows = [
        {
            "pattern": text,
            "decimal": float(dv.value),
            "error_bound": dv.error_bound,
            "provenance": dv.provenance,
        }
        for text, dv in values
    ]
    return EXIT_OK, _Report(result, table, rows)


# ---------------------------------------------------------------------------
# verify suites


def _suite_monotonicity(seed: int) -> Tuple[bool, Dict[str, object]]:
    """Finite densities never increase with n, never decrease with k, and
    saturate once k reaches n."""
    texts = ["112", "121", "1122", "12-1"]
    max_n = 6
    checks = 0
    violations: List[List[object]] = []
    for text in texts:
        p = parse_pattern(text)
        vals: Dict[Tuple[int, int], Fraction] = {}
        for n in range(p.m, max_n + 1):
            for k in range(1, n + 1):
                vals[(k, n)] = max_count(p, k, n).density
        for (k, n), dv in vals.items():
            if (k, n + 1) in vals:
                checks += 1
                if vals[(k, n + 1)] > dv:
                    violations.append([text, "n-step", k, n])
            if (k + 1, n) in vals:
                checks += 1
                if vals[(k + 1, n)] < dv:
                    violations.append([text, "k-step", k, n])
        for n in range(p.m, max_n + 1):
            checks += 1
            if max_count(p, n + 2, n).density != vals[(n, n)]:
                violations.append([text, "saturation", n])
    return not violations, {
        "patterns": texts,
        "max_n": max_n,
        "checks": checks,
        "violations": violations,
    }


def _suite_restriction(seed: int) -> Tuple[bool, Dict[str, object]]:
    """Permutation-pattern maxima are attained on permutations, and the
    tie-breaking map never loses occurrences."""
    detail: Dict[str, object] = {}
    passed = True
    for text in ("132", "123"):
        rep = verify_perm_restriction(parse_pattern(text), 6)
        detail[text] = {
            "n": rep.n,
            "word_max": rep.word_max,
            "perm_max": rep.perm_max,
            "equal": rep.equal,
        }
        passed = passed and rep.equal
    tb = verify_tiebreak_map(parse_pattern("132"), 6, samples=300, seed=seed)
    detail["tiebreak"] = asdict(tb)
    return passed and tb.violations == 0, detail


def _suite_layered_witness(seed: int) -> Tuple[bool, Dict[str, object]]:
    """Layered pattern sets admit layered maximizers; with every layer of
    size >= 2 all maximizers are layered."""
    reps = {
        text: verify_layered_witness(parse_pattern(text), 6)
        for text in ("2143", "132")
    }
    passed = all(rep.layered_maximizer_exists for rep in reps.values())
    passed = passed and reps["2143"].all_maximizers_layered is True
    return passed, {text: asdict(rep) for text, rep in reps.items()}


def _compositions(total: int) -> List[Tuple[int, ...]]:
    if total == 0:
        return [()]
    out = []
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            out.append((first,) + rest)
    return out


def _suite_overlap_formula(seed: int) -> Tuple[bool, Dict[str, object]]:
    """The closed-form minimal self-overlap shift matches the direct oracle
    on every nondecreasing nonconstant block pattern of length <= 6."""
    checks = 0
    violations: List[str] = []
    for m in range(2, 7):
        for comp in _compositions(m):
            if len(comp) < 2:
                continue
            letters = "".join(
                str(i + 1) * part for i, part in enumerate(comp)
            )
            p = parse_pattern(letters + "g")
            formula, oracle = m_overlap(p)
            checks += 1
            if formula != oracle:
                violations.append(letters)
    anchors = {
        "112g": 2,
        "123g": 1,
        "1432g": 3,
    }
    anchor_results = {}
    for text, expected in anchors.items():
        _, oracle = m_overlap(parse_pattern(text))
        anchor_results[text] = {"expected": expected, "oracle": oracle}
        checks += 1
        if oracle != expected:
            violations.append(text)
    return not violations, {
        "max_m": 6,
        "checks": checks,
        "violations": violations,
        "anchors": anchor_results,
    }


#: every suite takes the run's --seed; only "restriction" samples
_SUITES = {
    "monotonicity": _suite_monotonicity,
    "restriction": _suite_restriction,
    "layered-witness": _suite_layered_witness,
    "overlap-formula": _suite_overlap_formula,
}


def _cmd_verify(config: RunConfig) -> Tuple[int, _Report]:
    wanted = list(_SUITES) if config.suite == "all" else [config.suite]
    suites: Dict[str, Dict[str, object]] = {}
    for name in wanted:
        if name not in _SUITES:
            raise UsageError(f"unknown suite {name!r}")
        passed, detail = _SUITES[name](config.seed)
        suites[name] = {"passed": passed, "detail": detail}
    all_passed = all(suite["passed"] for suite in suites.values())
    table = {
        name: "pass" if suite["passed"] else "FAIL" for name, suite in suites.items()
    }
    report = _Report({"suites": suites, "passed": all_passed}, table)
    return (EXIT_OK if all_passed else EXIT_INTERNAL), report


_HANDLERS = {
    "count": _cmd_count,
    "density": _cmd_density,
    "search": _cmd_search,
    "series": _cmd_series,
    "construct": _cmd_construct,
    "super": _cmd_super,
    "table3": _cmd_table3,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # one line and exit 1, not argparse's 2
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="output format (default table)",
    )


def _add_budget_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget-nodes", type=int, default=None,
                     help="stop after this many search nodes")
    sub.add_argument("--budget-seconds", type=float, default=None,
                     help="stop after this much wall-clock time")
    sub.add_argument("--threads", type=int, default=None,
                     help="accepted and validated but has no effect")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wordpack",
        description="Pattern-packing statistics for words over ordered alphabets.",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    sp = subs.add_parser("count", help="occurrences of a pattern in a word",
                         allow_abbrev=False)
    sp.add_argument("-p", "--pattern", required=True)
    sp.add_argument("-w", "--word", required=True)
    sp.add_argument("-k", type=int, default=None, help="ambient alphabet size")
    _add_output_flags(sp)

    sp = subs.add_parser("density", help="asymptotic packing density",
                         allow_abbrev=False)
    sp.add_argument("-p", "--pattern", required=True)
    sp.add_argument("--route", choices=_ROUTES, default="auto")
    sp.add_argument("--ell", type=int, default=None,
                    help="layer count for the cap route")
    sp.add_argument("--starts", type=int, default=64,
                    help="multistart count for the cap route")
    sp.add_argument("--seed", type=int, default=12345)
    _add_output_flags(sp)

    sp = subs.add_parser("search", help="exact maximum over words in [k]^n",
                         allow_abbrev=False)
    sp.add_argument("-p", "--pattern", required=True)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("-n", type=int, required=True)
    _add_budget_flags(sp)
    _add_output_flags(sp)

    sp = subs.add_parser("series", help="density table over a range of n",
                         allow_abbrev=False)
    sp.add_argument("-p", "--pattern", required=True)
    sp.add_argument("--n-range", required=True, metavar="A:B")
    sp.add_argument("-k", type=int, default=None,
                    help="fixed alphabet size (default: diagonal k = n)")
    _add_budget_flags(sp)
    _add_output_flags(sp)

    sp = subs.add_parser("construct", help="extremal word constructions",
                         allow_abbrev=False)
    sp.add_argument("--builder", choices=_BUILDERS, required=True)
    sp.add_argument("--emit", choices=("word", "json"), default="json")
    sp.add_argument("-n", type=int, default=None)
    sp.add_argument("-k", type=int, default=None)
    sp.add_argument("-l", type=int, default=None)
    sp.add_argument("-m", type=int, default=None)
    sp.add_argument("--p", type=int, default=None, help="low-block length")
    sp.add_argument("--q", type=int, default=None, help="second low-block length")
    sp.add_argument("--r", type=int, default=None, help="high-block length")
    sp.add_argument("--s", type=int, default=None, help="letters per repeated level")
    sp.add_argument("--depth", type=int, default=None, help="nesting depth")
    sp.add_argument("--d", type=int, default=None, help="distinct-letter count")
    sp.add_argument("--ident", type=int, default=2,
                    help="tie multiplicity for the balanced builder")
    sp.add_argument("--proportions", default=None, metavar="A,B,...",
                    help="layer proportions for the layered builder")
    sp.add_argument("--mode", choices=("permutation", "word"),
                    default="permutation")
    sp.add_argument("-p", "--pattern", default=None,
                    help="target pattern for the layered builder")
    _add_output_flags(sp)

    sp = subs.add_parser("super", help="shortest universal word for (l, m)",
                         allow_abbrev=False)
    sp.add_argument("-l", type=int, required=True)
    sp.add_argument("-m", type=int, required=True)
    _add_budget_flags(sp)
    _add_output_flags(sp)

    sp = subs.add_parser("table3", help="densities of all three-letter patterns",
                         allow_abbrev=False)
    _add_output_flags(sp)

    sp = subs.add_parser("verify", help="run the library's property suites",
                         allow_abbrev=False)
    sp.add_argument("--suite", choices=("all", *_SUITES), default="all")
    sp.add_argument("--seed", type=int, default=12345)
    _add_output_flags(sp)

    return parser


def run(config: RunConfig, stream=None) -> int:
    """Execute one resolved configuration; returns the exit status."""
    handler = _HANDLERS.get(config.subcommand)
    if handler is None:
        raise UsageError(f"unknown subcommand {config.subcommand!r}")
    if config.seed < 0:
        raise UsageError("--seed must be a nonnegative integer")
    status, report = handler(config)
    _emit(config, report, stream)
    return status


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    sys.stderr.write(f"wordpack: warning: {message}\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    config = _config_from_args(args)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            return run(config)
    except ValueError as exc:  # UsageError, ParseError and DensityRouteError too
        sys.stderr.write(f"wordpack: error: {exc}\n")
        return EXIT_USAGE
    except AssertionError as exc:
        sys.stderr.write(f"wordpack: internal invariant failure: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
