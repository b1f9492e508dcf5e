"""Per-layer metrics: their definitions, what each should move, and coverage.

Each entry of LAYER_METRICS names the end-to-end metric and workload it is
expected to move, written down before any optimisation is measured, so a
later change can cite its prediction by metric name.  BENCHMARK.json's
`per_layer` list is this table without the last column.
"""

from __future__ import annotations

from tracer import SpanStats

# (name, unit, better, what it should move)
LAYER_METRICS = (
    ("engine.eliminate.self_s", "s", "lower", "wall_s on deduce"),
    ("engine.eliminate.substitutions", "count", "lower", "wall_s on deduce"),
    ("engine.eliminate.found_ratio", "ratio", "higher", "wall_s on deduce"),
    ("engine.propagate.self_s", "s", "lower", "wall_s on deduce (k = 7, k = 2)"),
    ("engine.propagate.ticks", "count", "lower", "wall_s on deduce (k = 7, k = 2)"),
    ("engine.derive.self_s", "s", "lower", "wall_s on deduce (k = 7, k = 2)"),
    ("engine.derive.ticks", "count", "lower", "wall_s on deduce (k = 7, k = 2)"),
    ("engine.derive.hit_ratio", "ratio", "higher", "wall_s on deduce (k = 7, k = 2)"),
    ("engine.explore.self_s", "s", "lower", "wall_s on deduce"),
    ("engine.roots.s", "s", "lower", "wall_s on deduce"),
    ("engine.splits", "count", "lower", "wall_s on deduce"),
    ("engine.branches", "count", "lower", "wall_s on deduce"),
    ("engine.branches_pruned", "count", "lower", "wall_s on deduce"),
    ("engine.trace.bytes", "bytes", "lower", "wall_s on deduce"),
    ("engine.trace.serialize_s", "s", "lower", "wall_s on deduce"),
    ("engine.generate.self_s", "s", "lower", "wall_s on deduce, a small share"),
    ("engine.generate.equations", "count", "lower", "wall_s on deduce, a small share"),
    ("engine.verify.self_s", "s", "lower", "wall_s on deduce, a small share"),
    ("engine.verify.checked", "count", "lower", "wall_s on deduce, a small share"),
    ("poly.constructed", "count", "lower", "wall_s and peak_rss_mb on deduce"),
    ("poly.substitute_poly.calls", "count", "lower", "wall_s on deduce"),
    ("poly.substitute_poly.self_s", "s", "lower", "wall_s on deduce"),
    ("poly.substitute.calls", "count", "lower", "wall_s on deduce"),
    ("squares.enumerate.calls", "count", "lower", "wall_s on deduce"),
    ("squares.enumerate.self_s", "s", "lower", "wall_s on deduce"),
    ("squares.enumerate.cache_hit_ratio", "ratio", "higher", "wall_s on deduce"),
    ("squares.sieve.s", "s", "lower", "wall_s on exceptions"),
    ("squares.scan.self_s", "s", "lower", "wall_s on exceptions"),
    ("squares.hurwitz.s", "s", "lower", "wall_s on exceptions"),
    ("arith.evaluate.calls", "count", "lower", "wall_s on deduce, a small share"),
    ("arith.factorize.cache_hit_ratio", "ratio", "higher", "wall_s on deduce, a small share"),
    ("cache.save.s", "s", "lower", "wall_s on exceptions (warm half against cold half)"),
    ("cache.load.s", "s", "lower", "wall_s on exceptions (warm half against cold half)"),
    ("cache.hit_ratio", "ratio", "higher", "wall_s on exceptions (warm half against cold half)"),
    ("cache.bytes_written", "bytes", "lower", "wall_s on exceptions (warm half against cold half)"),
    ("cache.bytes_read", "bytes", "lower", "wall_s on exceptions (warm half against cold half)"),
    ("cli.run.self_s", "s", "lower", "wall_s on exceptions"),
    ("cli.stdout_bytes", "bytes", "lower", "wall_s on exceptions"),
    ("trace.wall_s", "s", "lower", "none: traced pass time, the base of the two ratios below"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced wall_s / untraced wall_s"),
    ("trace.top_level_share", "ratio", "higher", "none: root span time / traced wall_s"),
)

# Span or counter names each workload must reach (nonzero) and must bypass
# (zero).  A wrapped function that is renamed or no longer called makes the
# traced run fail instead of silently reporting an empty layer.
_ENGINE_RUN = (
    "engine.explore", "engine.propagate", "engine.derive", "engine.eliminate",
    "engine.roots", "poly.substitute_poly", "engine.branches",
)
_EXCEPTIONS = (
    "cli.run", "cache.sieve_with_cache", "cache.save", "cache.load",
    "squares.sieve", "squares.scan", "squares.hurwitz",
)
_KERNEL = (
    "engine.generate", "engine.verify", "squares.enumerate", "poly.constructed",
    "arith.evaluate.calls",
)
COVERAGE = {
    "deduce": {
        "exercises": _ENGINE_RUN + _KERNEL + ("engine.trace.serialize",),
        "bypasses": _EXCEPTIONS,
    },
    "exceptions": {
        "exercises": _EXCEPTIONS,
        "bypasses": _ENGINE_RUN + _KERNEL + ("engine.trace.serialize", "poly.substitute.calls"),
    },
}


def reached(stats: dict[str, SpanStats], counts: dict[str, int]) -> dict[str, int]:
    """Calls per span name and ticks per counter, in one namespace."""
    out = {name: s.calls for name, s in stats.items()}
    out.update(counts)
    return out


def coverage_problems(workload: str, calls: dict[str, int]) -> list[str]:
    expect = COVERAGE[workload]
    problems = [f"{workload}: layer {name} never reached" for name in expect["exercises"] if not calls.get(name)]
    problems += [
        f"{workload}: layer {name} reached {calls[name]} times, expected bypassed"
        for name in expect["bypasses"]
        if calls.get(name)
    ]
    return problems


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    stats: dict[str, SpanStats], counts: dict[str, int], lru: dict[str, list[int]],
    stdout_bytes: int, wall_s: float, roots_s: float,
) -> dict[str, float]:
    """Every LAYER_METRICS value except the overhead ratio, for one traced pass."""
    def span(name):
        return stats.get(name, SpanStats())

    def hit_ratio(cache):
        hits, misses = lru[cache]
        return _ratio(hits, hits + misses)

    return {
        "engine.eliminate.self_s": span("engine.eliminate").self_s,
        "engine.eliminate.substitutions": counts.get("engine.eliminate.substitutions", 0),
        "engine.eliminate.found_ratio": _ratio(counts.get("engine.eliminate.found", 0), span("engine.eliminate").calls),
        "engine.propagate.self_s": span("engine.propagate").self_s,
        # propagate's counter delta includes the derivation passes it runs
        "engine.propagate.ticks": counts.get("engine.propagate.ticks_total", 0) - counts.get("engine.derive.ticks", 0),
        "engine.derive.self_s": span("engine.derive").self_s,
        "engine.derive.ticks": counts.get("engine.derive.ticks", 0),
        "engine.derive.hit_ratio": _ratio(counts.get("engine.derive.hits", 0), span("engine.derive").calls),
        "engine.explore.self_s": span("engine.explore").self_s,
        "engine.roots.s": span("engine.roots").total_s,
        "engine.splits": counts.get("engine.splits", 0),
        "engine.branches": counts.get("engine.branches", 0),
        "engine.branches_pruned": counts.get("engine.branches_pruned", 0),
        "engine.trace.bytes": counts.get("engine.trace.bytes", 0),
        "engine.trace.serialize_s": span("engine.trace.serialize").total_s,
        "engine.generate.self_s": span("engine.generate").self_s,
        "engine.generate.equations": counts.get("engine.generate.equations", 0),
        "engine.verify.self_s": span("engine.verify").self_s,
        "engine.verify.checked": counts.get("engine.verify.checked", 0),
        "poly.constructed": counts.get("poly.constructed", 0),
        "poly.substitute_poly.calls": span("poly.substitute_poly").calls,
        "poly.substitute_poly.self_s": span("poly.substitute_poly").self_s,
        "poly.substitute.calls": counts.get("poly.substitute.calls", 0),
        "squares.enumerate.calls": span("squares.enumerate").calls,
        "squares.enumerate.self_s": span("squares.enumerate").self_s,
        "squares.enumerate.cache_hit_ratio": hit_ratio("part_tuples"),
        "squares.sieve.s": span("squares.sieve").total_s,
        "squares.scan.self_s": span("squares.scan").self_s,
        "squares.hurwitz.s": span("squares.hurwitz").total_s,
        "arith.evaluate.calls": counts.get("arith.evaluate.calls", 0),
        "arith.factorize.cache_hit_ratio": hit_ratio("factorize"),
        "cache.save.s": span("cache.save").total_s,
        "cache.load.s": span("cache.load").total_s,
        "cache.hit_ratio": _ratio(counts.get("cache.hits", 0), span("cache.load").calls),
        "cache.bytes_written": counts.get("cache.bytes_written", 0),
        "cache.bytes_read": counts.get("cache.bytes_read", 0),
        "cli.run.self_s": span("cli.run").self_s,
        "cli.stdout_bytes": stdout_bytes,
        "trace.wall_s": wall_s,
        "trace.top_level_share": _ratio(roots_s, wall_s),
    }
