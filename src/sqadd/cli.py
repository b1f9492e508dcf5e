"""Command-line frontend.

Subcommands: repr (representation queries), exceptions (exceptional sets
checked against the closed forms), deduce (uniqueness run with trace file),
verify (model-check an explicit table), search2 (k = 2 witness search).
Results go to stdout, diagnostics to stderr.  Exit codes: 0 success/PASS,
1 FAIL/violation, 2 usage error, 3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import engine
from .arith import SITE_LIMIT, is_prime_power
from .cache import sieve_with_cache
from .engine import (
    BudgetExhausted,
    EngineBudget,
    Forced,
    IncompleteTableError,
    Underdetermined,
    parse_rational,
    run_uniqueness,
    search_nonidentity,
    verify_assignment,
)
from .squares import (
    dubouis_reference_set,
    enumerate_representations,
    exceptional_set,
    hurwitz_exceptions,
    hurwitz_reference_set,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    pass


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def at_least(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return at_least


# A table key: a plain ASCII decimal base, optionally "^" and an exponent.
_SITE_KEY = re.compile(r"([0-9]+)(?:\^([0-9]+))?")


def _parse_site(text: str) -> int:
    """A table key, "q" or "p^e", naming a prime-power site; UsageError otherwise.

    A site must be below 2^64, so that checking a key stays cheap.
    """
    match = _SITE_KEY.fullmatch(text)
    if match is None:
        raise UsageError(f"table key {text!r} is not a prime-power site")
    try:
        base, exponent = int(match[1]), int(match[2] or 1)
    except ValueError:  # more digits than int() converts
        raise UsageError(f"table key {text!r} is out of range: a site is below 2^64") from None
    # base^e >= 2^(e * (bit_length - 1)), so a huge power is refused untaken
    if exponent * (base.bit_length() - 1) >= 64 or base**exponent >= SITE_LIMIT:
        raise UsageError(f"table key {text!r} is out of range: a site is below 2^64")
    site = base**exponent
    if site < 2 or not is_prime_power(site):
        raise UsageError(f"table key {text!r} is not a prime-power site")
    return site


def _render(fmt: str, payload: dict, csv_lines: list[str], text_lines: list[str]) -> str:
    """A subcommand's output: one compact JSON line, or its csv or text lines."""
    if fmt == "json":
        return json.dumps(payload, separators=(",", ":")) + "\n"
    return "".join(line + "\n" for line in (csv_lines if fmt == "csv" else text_lines))


def _table_json(table: dict[int, Fraction]) -> dict[str, str]:
    return {str(site): str(value) for site, value in sorted(table.items())}


# --------------------------------------------------------------------------
# Subcommands


def _cmd_repr(args: argparse.Namespace) -> int:
    reps = enumerate_representations(args.n, args.k, args.cap)
    payload = {
        "n": args.n,
        "k": args.k,
        "count": len(reps),
        "representations": [list(parts) for parts in reps],
    }
    csv_lines = [",".join(map(str, parts)) for parts in reps]
    text_lines = [" ".join(map(str, parts)) for parts in reps]
    sys.stdout.write(_render(args.fmt, payload, csv_lines, text_lines))
    return EXIT_OK


def _cmd_exceptions(args: argparse.Namespace) -> int:
    k, bound = args.k, args.N
    if args.hurwitz and k != 3:
        raise UsageError("--hurwitz applies to k = 3 only")
    if args.hurwitz:
        members = hurwitz_exceptions(bound)
        reference = hurwitz_reference_set(bound)
    else:
        level = sieve_with_cache(k, bound, args.cache_dir)
        members = list(exceptional_set(k, bound, level))
        reference = dubouis_reference_set(k, bound) if k >= 4 else None
    match = reference is None or members == reference
    payload = {"k": k, "N": bound, "members": members, "reference": reference, "match": match}
    verdict = [] if reference is None else ["PASS" if match else "FAIL"]
    csv_lines = [str(n) for n in members] + verdict
    text_lines = [",".join(map(str, members))] + verdict
    sys.stdout.write(_render(args.fmt, payload, csv_lines, text_lines))
    return EXIT_OK if match else EXIT_FAIL


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _trace_destination(args: argparse.Namespace) -> Path:
    if args.out is not None:
        return Path(str(args.out) + ".trace")
    return Path(f"deduce-{args.k}-{args.N}.trace")


def _cmd_deduce(args: argparse.Namespace) -> int:
    trace_path = _trace_destination(args)
    for path in (args.out, trace_path):
        if path is not None and path.is_dir():
            raise UsageError(f"{path} is a directory")
    if trace_path.exists() and not args.force:
        print(f"error: {trace_path} exists; pass --force to overwrite", file=sys.stderr)
        return EXIT_USAGE
    budget = EngineBudget(args.max_steps, args.max_branches)
    verdict = run_uniqueness(args.k, args.N, budget)
    _write(trace_path, verdict.trace.serialize())

    out = verdict.outcome
    payload: dict = {"verdict": verdict.kind, "k": args.k, "N": args.N}
    csv_lines = [f"verdict,{verdict.kind}"]
    if isinstance(out, Forced):
        table = sorted(out.table.items())
        payload["table"] = _table_json(out.table)
        csv_lines = [f"{site},{value}" for site, value in table]
        text_lines = ["verdict: forced"] + [f"f({site}) = {value}" for site, value in table]
    elif isinstance(out, Underdetermined):
        payload.update(
            free_sites=list(out.free_sites),
            witness_count=out.witness_count,
            forced_prefix=out.forced_prefix,
            first_free=out.first_free,
            note=out.note,
        )
        text_lines = [
            "verdict: underdetermined",
            f"forced prefix: {out.forced_prefix}",
            f"first free n: {out.first_free}",
            f"free sites: {','.join(map(str, out.free_sites))}",
            f"surviving branches: {out.witness_count}",
        ] + ([f"note: {out.note}"] if out.note else [])
    else:
        payload["defect"] = "all branches contradict"
        text_lines = ["verdict: all-branches-contradict (defect)"]
    payload["trace_file"] = str(trace_path)
    text_lines.append(f"trace written to {trace_path}")

    rendered = _render(args.fmt, payload, csv_lines, text_lines)
    if args.out is not None:
        _write(args.out, rendered)
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


def _load_table(path: Path) -> dict[int, Fraction]:
    try:
        # an object becomes its tuple of (key, value) pairs, repeats kept
        raw = json.loads(Path(path).read_text(), object_pairs_hook=tuple)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read table {path}: {exc}") from exc
    except RecursionError:
        raise UsageError(f"cannot read table {path}: nested too deeply") from None
    if not isinstance(raw, tuple):
        raise UsageError("table file must be a JSON object of site: value")
    table: dict[int, Fraction] = {}
    keys: dict[int, str] = {}
    for key, value in raw:
        site = _parse_site(key)
        if site in keys:
            raise UsageError(f"table keys {keys[site]!r} and {key!r} both name site {site}")
        keys[site] = key
        table[site] = parse_rational(value)
    return table


def _cmd_verify(args: argparse.Namespace) -> int:
    table = _load_table(args.table)
    try:
        report = verify_assignment(table, args.k, args.N)
    except IncompleteTableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload: dict = {"ok": report.ok, "checked": report.checked}
    if report.ok:
        lines = [f"ok ({report.checked} equations)"]
    else:
        payload["violation"] = engine.provenance_fields(report.first_violation.provenance)
        lines = [f"violation: {payload['violation']}"]
    sys.stdout.write(_render(args.fmt, payload, lines, lines))
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_search2(args: argparse.Namespace) -> int:
    budget = EngineBudget(args.max_steps, args.max_branches)
    table = search_nonidentity(2, args.N, args.site_bound, budget)
    if table is None:
        lines = ["no witness found"]
        sys.stdout.write(_render(args.fmt, {"witness": None}, lines, lines))
        return EXIT_FAIL
    deviations = {s: v for s, v in table.items() if v != s}
    payload = {"witness": _table_json(table), "deviations": _table_json(deviations)}
    csv_lines = [f"{site},{value}" for site, value in sorted(table.items())]
    text_lines = ["witness found; non-identity sites:"] + [
        f"f({site}) = {value}" for site, value in sorted(deviations.items())
    ]
    sys.stdout.write(_render(args.fmt, payload, csv_lines, text_lines))
    return EXIT_OK


# --------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqadd",
        description="verify and explore additivity of multiplicative functions on sums of k positive squares",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    positive = _int_at_least(1)

    def common(p: argparse.ArgumentParser, handler) -> None:
        p.add_argument(
            "--format", default="text", dest="fmt", choices=("json", "csv", "text")
        )
        p.set_defaults(handler=handler)

    def budget_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-steps", type=positive, default=1_000_000)
        p.add_argument("--max-branches", type=positive, default=256)

    p_repr = sub.add_parser("repr", help="list representations of n into k positive squares")
    p_repr.add_argument("n", type=positive)
    p_repr.add_argument("k", type=positive)
    p_repr.add_argument("--cap", type=positive, default=None)
    common(p_repr, _cmd_repr)

    p_exc = sub.add_parser("exceptions", help="exceptional set vs the closed-form reference")
    p_exc.add_argument("k", type=_int_at_least(3))
    p_exc.add_argument("N", type=positive)
    p_exc.add_argument("--hurwitz", action="store_true")
    p_exc.add_argument("--cache-dir", type=Path, default=None)
    common(p_exc, _cmd_exceptions)

    p_ded = sub.add_parser("deduce", help="run the uniqueness deduction")
    p_ded.add_argument("k", type=_int_at_least(2))
    p_ded.add_argument("N", type=positive)
    p_ded.add_argument("--out", type=Path, default=None)
    p_ded.add_argument("--force", action="store_true")
    budget_flags(p_ded)
    common(p_ded, _cmd_deduce)

    p_ver = sub.add_parser("verify", help="model-check an explicit assignment table")
    p_ver.add_argument("k", type=positive)
    p_ver.add_argument("N", type=positive)
    p_ver.add_argument("--table", type=Path, required=True)
    common(p_ver, _cmd_verify)

    p_s2 = sub.add_parser("search2", help="search a non-identity witness for k = 2")
    p_s2.add_argument("N", type=positive)
    p_s2.add_argument("--site-bound", type=positive, default=20)
    budget_flags(p_s2)
    common(p_s2, _cmd_search2)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
