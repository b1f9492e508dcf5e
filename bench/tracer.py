"""Spans and counters recorded around sqadd's layer boundaries.

The tracer patches the package from outside: each wrapped name is replaced
where the caller looks it up (a module global or a class attribute), so the
package itself carries no instrumentation.  A name that no longer exists
raises AttributeError when the tracer is installed; a refactor that renames
a wrapped function therefore fails loudly instead of dropping a layer.

Spans are kept in memory as (id, parent, name, start, end) and written out
once at the end of a pass; self times are computed from them afterwards.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


def _counter_arg(args, kwargs):
    """The engine's `_Counter`, passed third to propagate/_derive_pass/eliminate."""
    return args[2] if len(args) > 2 else kwargs.get("counter")


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- wrapper factories ------------------------------------------------

    def _span(self, name, fn, after=None, ticks=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            counter = _counter_arg(args, kwargs) if ticks else None
            before = counter.steps if counter is not None else 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)
                if counter is not None:
                    counts[ticks] += counter.steps - before
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)  # AttributeError: the layer moved
        self._originals.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- install / restore --------------------------------------------------

    def __enter__(self) -> "Tracer":
        import sqadd.cache as cache
        import sqadd.cli as cli
        import sqadd.engine as engine
        import sqadd.squares as squares
        from sqadd.arith import PartialFunction
        from sqadd.poly import Poly

        try:
            self._install(cache, cli, engine, squares, PartialFunction, Poly)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _install(self, cache, cli, engine, squares, PartialFunction, Poly) -> None:
        span, count, patch = self._span, self._count, self._patch

        def spanned(name, after=None, ticks=None):
            return lambda fn: span(name, fn, after, ticks)

        def counted(name):
            return lambda fn: count(name, fn)

        def add(key, amount):
            def after(counts, args, result):
                counts[key] += amount(args, result)

            return after

        def file_size(path) -> int:
            path = Path(path)
            return path.stat().st_size if path.exists() else 0

        # engine: entry points, stages and the counters they tick
        patch(engine, "run_uniqueness", spanned("engine.run_uniqueness"))
        patch(engine, "search_nonidentity", spanned("engine.search_nonidentity"))
        patch(engine, "_explore", spanned("engine.explore"))
        patch(engine, "generate_equations", spanned(
            "engine.generate", add("engine.generate.equations", lambda a, r: len(r))))
        patch(engine, "propagate", spanned(
            "engine.propagate",
            add("engine.branches_pruned", lambda a, r: r.status == engine.CONTRADICTION),
            ticks="engine.propagate.ticks_total"))
        patch(engine, "_derive_pass", spanned(
            "engine.derive", add("engine.derive.hits", lambda a, r: bool(r)),
            ticks="engine.derive.ticks"))
        patch(engine, "eliminate", spanned(
            "engine.eliminate", add("engine.eliminate.found", lambda a, r: r is not None),
            ticks="engine.eliminate.substitutions"))
        patch(engine, "rational_roots", spanned(
            "engine.roots", add("engine.splits", lambda a, r: bool(r))))
        patch(engine, "verify_assignment", spanned(
            "engine.verify", add("engine.verify.checked", lambda a, r: r.checked)))
        patch(engine.DeductionTrace, "serialize", spanned(
            "engine.trace.serialize", add("engine.trace.bytes", lambda a, r: len(r.encode()))))
        patch(engine.BranchState, "fork", counted("engine.branches"))

        # poly and arith: the kernel the engine builds equations with
        patch(Poly, "__init__", counted("poly.constructed"))
        patch(Poly, "substitute", counted("poly.substitute.calls"))
        patch(Poly, "substitute_poly", spanned("poly.substitute_poly"))
        patch(PartialFunction, "evaluate", counted("arith.evaluate.calls"))
        patch(PartialFunction, "peek", counted("arith.evaluate.calls"))

        # squares: enumeration for the engine, sieve and scan for the CLI
        patch(engine, "enumerate_representations", spanned("squares.enumerate"))
        patch(cache, "expressibility_sieve", spanned("squares.sieve"))
        patch(squares, "expressibility_sieve", spanned("squares.sieve"))
        patch(cli, "exceptional_set", spanned("squares.scan"))
        patch(cli, "hurwitz_exceptions", spanned("squares.hurwitz"))

        # cache and cli
        patch(cli, "sieve_with_cache", spanned("cache.sieve_with_cache"))
        patch(cache, "save_sieve", spanned(
            "cache.save", add("cache.bytes_written", lambda a, r: file_size(a[0]))))
        patch(cache, "load_sieve", spanned(
            "cache.load",
            lambda counts, a, r: counts.update({
                "cache.hits": r is not None,
                "cache.bytes_read": file_size(a[0]) if r is not None else 0,
            })))
        patch(cli, "run", spanned("cli.run"))

    def __exit__(self, *exc) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end]) + "\n")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def read_spans(path: Path) -> list[tuple]:
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh]


def aggregate(spans: list[tuple]) -> tuple[dict[str, SpanStats], float]:
    """Per span name: calls, total and self time; plus the root spans' total.

    Self time is a span's duration minus the durations of its child spans.
    """
    child_time = [0.0] * len(spans)
    for sid, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats: dict[str, SpanStats] = {}
    roots = 0.0
    for sid, parent, name, start, end in spans:
        s = stats.setdefault(name, SpanStats())
        s.calls += 1
        s.total_s += end - start
        s.self_s += end - start - child_time[sid]
        if parent is None:
            roots += end - start
    return stats, roots
