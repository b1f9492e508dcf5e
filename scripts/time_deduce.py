#!/usr/bin/env python3
"""Time uniqueness runs from two checkouts, in alternating pairs.

    python3 scripts/time_deduce.py PARENT_DIR CHANGE_DIR K:N [K:N ...]
                                   [--pairs P]

For each K:N, every pair runs `run_uniqueness(K, N)` once from each
checkout, each in a fresh interpreter that imports the checkout's `src/`;
odd pairs start with the parent and even pairs with the change.  Only the
call itself is timed, not the interpreter start or the import.  The JSON
printed holds the `src/` line count of each side and, per K:N and side, the
verdict, the sha256 of the serialized trace, the step total (the final
count of the `--max-steps` counter), every run's seconds and their median
and quartiles (as in `bench_pairs.py`); `same_trace` and `same_steps` say
whether the two sides agree.  The bench's `deduce` workload goes no higher
than N = 200, and only to N = 42 for k = 7; this script covers the larger
runs such as 7:200 and 6:400.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from bench_pairs import spread, src_lines

# Runs in the child: time one call, then hash the trace outside the timing.
# The engine's counters are kept as they are made, so the final count of the
# `--max-steps` one, the run's step total, can be read after the call.
CHILD = """\
import hashlib, json, sys, time
from sqadd import engine
k, n = int(sys.argv[1]), int(sys.argv[2])
made, real = [], engine._Counter
def counter(*args, **kwargs):
    made.append(real(*args, **kwargs))
    return made[-1]
engine._Counter = counter
start = time.perf_counter()
verdict = engine.run_uniqueness(k, n)
seconds = time.perf_counter() - start
digest = hashlib.sha256(verdict.trace.serialize().encode()).hexdigest()
(steps,) = [c.steps for c in made if c.flag == "--max-steps"]
print(json.dumps({"seconds": seconds, "sha256": digest, "steps": steps, "verdict": verdict.kind}))
"""


def unit(text: str) -> tuple[int, int]:
    """argparse type: "K:N" with positive integers K and N."""
    k, colon, n = text.partition(":")
    try:
        if colon and int(k) > 0 and int(n) > 0:
            return int(k), int(n)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected K:N, got {text!r}")


def run_once(root: Path, k: int, n: int) -> dict:
    """One run_uniqueness(k, n) in a fresh interpreter on root's src/."""
    env = os.environ.copy()
    rest = env.get("PYTHONPATH")
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + rest if rest else src
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(k), str(n)],
        cwd=root, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: run_uniqueness({k}, {n}) failed in {root} (exit {proc.returncode})")
    return json.loads(proc.stdout)


def side_summary(runs: list[dict]) -> dict:
    for key, what in (("sha256", "traces"), ("steps", "step totals")):
        found = {run[key] for run in runs}
        if len(found) != 1:
            raise SystemExit(f"error: one checkout gave {len(found)} different {what}")
    seconds = [run["seconds"] for run in runs]
    return {
        "verdict": runs[0]["verdict"],
        "trace_sha256": runs[0]["sha256"],
        "steps": runs[0]["steps"],
        "seconds": seconds,
        **spread(seconds),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("units", type=unit, nargs="+", metavar="K:N")
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not (root / "src" / "sqadd" / "engine.py").is_file():
            parser.error(f"{root} has no src/sqadd/engine.py")

    result: dict = {"src_lines": {side: src_lines(root)["total"] for side, root in roots.items()}}
    for k, n in args.units:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(1, args.pairs + 1):
            for side in ("parent", "change") if i % 2 else ("change", "parent"):
                runs[side].append(run_once(roots[side], k, n))
        sides = {side: side_summary(got) for side, got in runs.items()}
        sides["same_trace"] = sides["parent"]["trace_sha256"] == sides["change"]["trace_sha256"]
        sides["same_steps"] = sides["parent"]["steps"] == sides["change"]["steps"]
        result[f"{k}:{n}"] = sides
        print(f"{k}:{n} done", file=sys.stderr)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
