#!/usr/bin/env python3
"""Compare two checkouts on the benchmark, in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
                                   --seed S [--pairs N] [--seconds T]
                                   [--trace {0,1}] [--out FILE]

Each pair runs `bench/run.py` once from each checkout, one after the
other; odd pairs start with the parent and even pairs with the change, so
a drift in the host's speed falls on both sides alike.  The result is one
section of a BENCH_*.json file: the command, the `src/` line count of each
side, the trace digests `bench/run.py` printed, every pair's metrics, and
per metric the median and quartiles of each side (statistics.quantiles,
n=4, inclusive), the number of pairs the change won and the change of the
median in percent.  Which way is better comes from BENCHMARK.json.
``claim_rule_met`` says whether a claimed gain on the metric would stand:
there are at least ten pairs, the change wins at least 9 in 10 of them (a
tie counts for neither side), and its median is better than the parent's
by more than the parent's q3 - q1.

The process's peak RSS moves with the length of the checkout's path, so
the script warns when the two paths differ in length.  It also warns when
PYTHONDONTWRITEBYTECODE is set: then no `.pyc` file is written, every run
compiles `src/` again, and setup_s and peak_rss_mb grow with its size.

With --out the section is stored under the key WORKLOAD_seed_S (with
_trace_1 for traced runs) of FILE, which keeps its other keys; without it
the section is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(root: Path, args) -> dict:
    """One `bench/run.py` run from the checkout at root."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: bench/run.py failed in {root} (exit {proc.returncode})")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    digests = [line for line in lines[:-1] if line.startswith("trace sha256 ")]
    record = {name: metric["value"] for name, metric in result["metrics"].items()}
    record.update(attempted=result["attempted"], failed=result["failed"], correct=result["correct"])
    return {"record": record, "digests": digests}


def src_lines(root: Path) -> dict[str, int]:
    counts = {
        str(path.relative_to(root)): len(path.read_text().splitlines())
        for path in sorted((root / "src").rglob("*.py"))
    }
    counts["total"] = sum(counts.values())
    return counts


def spread(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    summary = {}
    for name, value in pairs[0]["parent"].items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if name in ("attempted", "failed"):
            continue
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        sign = -1 if better.get(name, "lower") == "lower" else 1
        p, c = spread(parent), spread(change)
        wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
        summary[name] = {
            "parent": p,
            "change": c,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_change_pct": (
                round(100 * (c["median"] - p["median"]) / p["median"], 1) if p["median"] else None
            ),
            "claim_rule_met": (
                len(pairs) >= 10
                and 10 * wins >= 9 * len(pairs)
                and sign * (c["median"] - p["median"]) > p["q3"] - p["q1"]
            ),
        }
    return summary


def path_length_warning(parent: Path, change: Path) -> str | None:
    """A warning when the two checkout paths differ in length, else None."""
    if len(str(parent)) == len(str(change)):
        return None
    return (
        f"warning: the checkout paths differ in length ({len(str(parent))} and "
        f"{len(str(change))} characters); peak_rss_mb moves with that length"
    )


def bytecode_warning(environ) -> str | None:
    """A warning when PYTHONDONTWRITEBYTECODE is set in environ, else None."""
    if not environ.get("PYTHONDONTWRITEBYTECODE"):
        return None
    return (
        "warning: PYTHONDONTWRITEBYTECODE is set, so every run compiles src/ again; "
        "setup_s and peak_rss_mb include that compiling"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="a workload of bench/run.py")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="BENCH_*.json file to store the section in")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for root in (args.parent, args.change):
        if not (root / "bench" / "run.py").is_file():
            parser.error(f"{root} has no bench/run.py")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for warning in (path_length_warning(roots["parent"], roots["change"]), bytecode_warning(os.environ)):
        if warning:
            print(warning, file=sys.stderr)
    pairs, digests = [], {}
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        pair = {"pair": i, "first": order[0]}
        for side in order:
            got = run_bench(roots[side], args)
            pair[side] = got["record"]
            digests.setdefault(side, got["digests"])
            print(f"pair {i} {side}: {json.dumps(got['record'])}", file=sys.stderr)
        pairs.append(pair)

    section = {
        "command": (
            f"python3 bench/run.py --workload {args.workload} --seed {args.seed} "
            f"--seconds {args.seconds:g} --trace {args.trace}, each side from its own checkout"
        ),
        "src_lines": {side: src_lines(root) for side, root in roots.items()},
        "trace_digests": digests,
        "pairs": pairs,
        "summary": summarize(pairs, better),
    }
    if args.out is None:
        print(json.dumps(section, indent=1))
        return 0
    key = f"{args.workload}_seed_{args.seed}" + ("_trace_1" if args.trace else "")
    document = json.loads(args.out.read_text()) if args.out.exists() else {}
    document[key] = section
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
