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
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import engine
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

CACHE_ENV = "SQADD_CACHE_DIR"


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    """Validated invocation; determinism is unconditional (nothing is seeded)."""

    subcommand: str
    k: Optional[int] = None
    bound: Optional[int] = None
    fmt: str = "text"
    cache_dir: Optional[Path] = None
    out: Optional[Path] = None
    force: bool = False
    max_steps: int = 1_000_000
    max_branches: int = 256
    site_bound: int = 20
    cap: Optional[int] = None
    table_path: Optional[Path] = None
    hurwitz: bool = False

    def validate(self) -> None:
        if self.fmt not in ("json", "csv", "text"):
            raise UsageError(f"unknown format {self.fmt!r}")
        if self.k is not None and self.k < 1:
            raise UsageError("k must be positive")
        if self.bound is not None and self.bound < 1:
            raise UsageError("N must be positive")
        if self.max_steps < 1 or self.max_branches < 1:
            raise UsageError("budgets must be positive")
        if self.subcommand == "deduce" and self.k is not None and self.k < 2:
            raise UsageError("deduce requires k >= 2")
        if self.subcommand == "exceptions":
            if self.hurwitz and self.k != 3:
                raise UsageError("--hurwitz applies to k = 3 only")
            if self.k is not None and self.k < 3:
                raise UsageError("exceptions requires k >= 3")
        if self.subcommand == "verify" and self.table_path is None:
            raise UsageError("verify requires --table FILE")

    def budget(self) -> EngineBudget:
        return EngineBudget(max_steps=self.max_steps, max_branches=self.max_branches)


def _parse_site(text: str) -> int:
    if "^" in text:
        p, e = text.split("^")
        return int(p) ** int(e)
    return int(text)


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _table_json(table: dict[int, Fraction]) -> dict[str, str]:
    return {str(site): str(value) for site, value in sorted(table.items())}


# --------------------------------------------------------------------------
# Subcommands


def _cmd_repr(config: RunConfig) -> int:
    reps = enumerate_representations(config.bound, config.k, config.cap)
    if config.fmt == "json":
        _emit(
            json.dumps(
                {
                    "n": config.bound,
                    "k": config.k,
                    "count": len(reps),
                    "representations": [list(r.parts) for r in reps],
                },
                separators=(",", ":"),
            )
        )
    elif config.fmt == "csv":
        for r in reps:
            _emit(",".join(str(a) for a in r.parts))
    else:
        for r in reps:
            _emit(" ".join(str(a) for a in r.parts))
    return EXIT_OK


def _cmd_exceptions(config: RunConfig) -> int:
    k, bound = config.k, config.bound
    if config.hurwitz:
        members = hurwitz_exceptions(bound)
        reference = hurwitz_reference_set(bound)
    else:
        sieve, _ = sieve_with_cache(k, bound, config.cache_dir)
        members = list(exceptional_set(k, bound, sieve).members)
        reference = dubouis_reference_set(k, bound) if k >= 4 else None
    match = reference is None or members == reference
    if config.fmt == "json":
        payload = {
            "k": k,
            "N": bound,
            "members": members,
            "reference": reference,
            "match": match,
        }
        _emit(json.dumps(payload, separators=(",", ":")))
    elif config.fmt == "csv":
        for n in members:
            _emit(str(n))
        if reference is not None:
            _emit("PASS" if match else "FAIL")
    else:
        _emit(",".join(str(n) for n in members))
        if reference is not None:
            _emit("PASS" if match else "FAIL")
    return EXIT_OK if match else EXIT_FAIL


def _trace_destination(config: RunConfig) -> Path:
    if config.out is not None:
        return Path(str(config.out) + ".trace")
    return Path(f"deduce-{config.k}-{config.bound}.trace")


def _cmd_deduce(config: RunConfig) -> int:
    trace_path = _trace_destination(config)
    if trace_path.exists() and not config.force:
        print(
            f"error: {trace_path} exists; pass --force to overwrite",
            file=sys.stderr,
        )
        return EXIT_USAGE
    verdict = run_uniqueness(config.k, config.bound, config.budget())
    trace_path.write_text(verdict.trace.serialize())

    lines: list[str] = []
    payload: dict = {"verdict": verdict.kind, "k": config.k, "N": config.bound}
    if isinstance(verdict.outcome, Forced):
        payload["table"] = _table_json(verdict.outcome.table)
        lines.append("verdict: forced")
        for site, value in sorted(verdict.outcome.table.items()):
            lines.append(f"f({site}) = {value}")
    elif isinstance(verdict.outcome, Underdetermined):
        out = verdict.outcome
        payload.update(
            {
                "free_sites": list(out.free_sites),
                "witness_count": out.witness_count,
                "forced_prefix": out.forced_prefix,
                "first_free": out.first_free,
                "note": out.note,
            }
        )
        lines.append("verdict: underdetermined")
        lines.append(f"forced prefix: {out.forced_prefix}")
        lines.append(f"first free n: {out.first_free}")
        lines.append(f"free sites: {','.join(str(s) for s in out.free_sites)}")
        lines.append(f"surviving branches: {out.witness_count}")
        if out.note:
            lines.append(f"note: {out.note}")
    else:
        payload["defect"] = "all branches contradict"
        lines.append("verdict: all-branches-contradict (defect)")
    payload["trace_file"] = str(trace_path)
    lines.append(f"trace written to {trace_path}")

    if config.fmt == "json":
        rendered = json.dumps(payload, separators=(",", ":"))
    elif config.fmt == "csv":
        if isinstance(verdict.outcome, Forced):
            rendered = "\n".join(
                f"{site},{value}" for site, value in sorted(verdict.outcome.table.items())
            )
        else:
            rendered = f"verdict,{verdict.kind}"
    else:
        rendered = "\n".join(lines)
    if config.out is not None:
        config.out.write_text(rendered + "\n")
    else:
        _emit(rendered)
    return EXIT_OK


def _load_table(path: Path) -> dict[int, Fraction]:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read table {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("table file must be a JSON object of site: value")
    return {_parse_site(site): parse_rational(value) for site, value in raw.items()}


def _cmd_verify(config: RunConfig) -> int:
    table = _load_table(config.table_path)
    try:
        report = verify_assignment(table, config.k, config.bound)
    except IncompleteTableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if config.fmt == "json":
        payload: dict = {"ok": report.ok, "checked": report.checked}
        if report.first_violation is not None:
            payload["violation"] = engine.provenance_fields(
                report.first_violation.provenance
            )
        _emit(json.dumps(payload, separators=(",", ":")))
    else:
        if report.ok:
            _emit(f"ok ({report.checked} equations)")
        else:
            prov = engine.provenance_fields(report.first_violation.provenance)
            _emit(f"violation: {prov}")
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_search2(config: RunConfig) -> int:
    table = search_nonidentity(
        2, config.bound, config.site_bound, config.budget()
    )
    if table is None:
        if config.fmt == "json":
            _emit(json.dumps({"witness": None}, separators=(",", ":")))
        else:
            _emit("no witness found")
        return EXIT_FAIL
    deviations = {s: v for s, v in table.items() if v != s}
    if config.fmt == "json":
        _emit(
            json.dumps(
                {
                    "witness": _table_json(table),
                    "deviations": _table_json(deviations),
                },
                separators=(",", ":"),
            )
        )
    elif config.fmt == "csv":
        for site, value in sorted(table.items()):
            _emit(f"{site},{value}")
    else:
        _emit("witness found; non-identity sites:")
        for site, value in sorted(deviations.items()):
            _emit(f"f({site}) = {value}")
    return EXIT_OK


# --------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqadd",
        description="verify and explore additivity of multiplicative functions on sums of k positive squares",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", default="text", dest="fmt")

    p_repr = sub.add_parser("repr", help="list representations of n into k positive squares")
    p_repr.add_argument("n", type=int)
    p_repr.add_argument("k", type=int)
    p_repr.add_argument("--cap", type=int, default=None)
    common(p_repr)

    p_exc = sub.add_parser("exceptions", help="exceptional set vs the closed-form reference")
    p_exc.add_argument("k", type=int)
    p_exc.add_argument("N", type=int)
    p_exc.add_argument("--hurwitz", action="store_true")
    p_exc.add_argument("--cache-dir", type=Path, default=None)
    common(p_exc)

    p_ded = sub.add_parser("deduce", help="run the uniqueness deduction")
    p_ded.add_argument("k", type=int)
    p_ded.add_argument("N", type=int)
    p_ded.add_argument("--out", type=Path, default=None)
    p_ded.add_argument("--force", action="store_true")
    p_ded.add_argument("--max-steps", type=int, default=1_000_000)
    p_ded.add_argument("--max-branches", type=int, default=256)
    common(p_ded)

    p_ver = sub.add_parser("verify", help="model-check an explicit assignment table")
    p_ver.add_argument("k", type=int)
    p_ver.add_argument("N", type=int)
    p_ver.add_argument("--table", type=Path, required=False)
    common(p_ver)

    p_s2 = sub.add_parser("search2", help="search a non-identity witness for k = 2")
    p_s2.add_argument("N", type=int)
    p_s2.add_argument("--site-bound", type=int, default=20)
    p_s2.add_argument("--max-steps", type=int, default=1_000_000)
    p_s2.add_argument("--max-branches", type=int, default=256)
    common(p_s2)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None and os.environ.get(CACHE_ENV):
        cache_dir = Path(os.environ[CACHE_ENV])
    return RunConfig(
        subcommand=args.subcommand,
        k=getattr(args, "k", None),
        bound=getattr(args, "N", None) or getattr(args, "n", None),
        fmt=args.fmt,
        cache_dir=cache_dir,
        out=getattr(args, "out", None),
        force=getattr(args, "force", False),
        max_steps=getattr(args, "max_steps", 1_000_000),
        max_branches=getattr(args, "max_branches", 256),
        site_bound=getattr(args, "site_bound", 20),
        cap=getattr(args, "cap", None),
        table_path=getattr(args, "table", None),
        hurwitz=getattr(args, "hurwitz", False),
    )


_DISPATCH = {
    "repr": _cmd_repr,
    "exceptions": _cmd_exceptions,
    "deduce": _cmd_deduce,
    "verify": _cmd_verify,
    "search2": _cmd_search2,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    config = _config_from_args(args)
    try:
        config.validate()
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _DISPATCH[config.subcommand](config)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
