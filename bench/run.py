#!/usr/bin/env python3
"""sqadd benchmark: one command, two workloads, every metric by name.

    python3 bench/run.py --workload {deduce,exceptions}
                         --seed N --seconds S --trace {0,1}

Run from the repository root.  A workload is cut into units, each one
command as a user would run it (workloads.units), and every unit runs in a
fresh interpreter, single-threaded, because every CLI user pays for cold
caches and the import on each call.  A cycle runs every unit once, after an
import-only probe; cycles repeat until S seconds have been measured.

On a shared host the same code and inputs can run up to 2x slower in one
process than in the next, so the figures are medians over many processes:
wall_s is the sum over units of each unit's median time, peak_rss_mb the
largest unit's median peak, and setup_s the median start-up over every
process started (the probes and the units).

--trace 0 reports the end-to-end metrics from untraced cycles.  --trace 1
alternates untraced and traced cycles and reports the per-layer metrics
(medians over traced cycles) and the tracing overhead.  Both check every
operation against its oracle and every deduce trace digest across cycles.
The last line of stdout is the JSON result; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import layers
import workloads
from tracer import aggregate, read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
UNIT_TIMEOUT_S = 120


class PassFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, unit: int, trace: bool, workdir: Path) -> dict:
    """Run one unit (or an import-only probe) in a fresh interpreter."""
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(unit), str(int(trace)), str(workdir)]
    spawned_at = time.perf_counter()
    proc = subprocess.run(
        cmd + [repr(spawned_at)], cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=UNIT_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise PassFailed(f"{workload} unit {unit} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if trace:
        result["spans"] = read_spans(workdir / "spans.jsonl")
    return result


def merge(cycle: list[dict]) -> dict:
    """One cycle's unit results as if they were one pass."""
    spans, counts = [], Counter()
    lru = {name: [0, 0] for name in cycle[0]["lru"]}
    for result in cycle:
        offset = len(spans)
        spans += [
            (sid + offset, None if parent is None else parent + offset, name, start, end)
            for sid, parent, name, start, end in result.get("spans", ())
        ]
        counts.update(result.get("counts", {}))
        for name, (hits, misses) in result["lru"].items():
            lru[name][0] += hits
            lru[name][1] += misses
    return {
        "ops": [r for result in cycle for r in result["ops"]],
        "wall_s": sum(result["wall_s"] for result in cycle),
        "stdout_bytes": sum(result["stdout_bytes"] for result in cycle),
        "lru": lru,
        "counts": counts,
        "spans": spans,
    }


def typical(cycles: list[list[dict]], key: str) -> list[float]:
    """Per unit, the median of `key` over the cycles."""
    return [statistics.median(cycle[u][key] for cycle in cycles) for u in range(len(cycles[0]))]


def digests(result: dict) -> dict[str, str]:
    return {r["op"]: r["digest"] for r in result["ops"] if r["digest"] is not None}


def traced_metrics(workload: str, traced: list[dict], untraced: list[list[dict]]) -> tuple[dict, list[str]]:
    per_pass, problems = [], []
    for result in traced:
        stats, roots_s = aggregate(result["spans"])
        problems += layers.coverage_problems(workload, layers.reached(stats, result["counts"]))
        per_pass.append(layers.layer_metrics(
            stats, result["counts"], result["lru"], result["stdout_bytes"], result["wall_s"], roots_s))
    counts = [
        {name: m[name] for name, unit, _, _ in layers.LAYER_METRICS if unit in ("count", "bytes")}
        for m in per_pass
    ]
    if any(c != counts[0] for c in counts):
        problems.append(f"{workload}: per-layer counts differ between traced cycles")
    metrics = {
        name: statistics.median(m[name] for m in per_pass)
        for name, _, _, _ in layers.LAYER_METRICS if name != "trace.overhead_ratio"
    }
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / sum(typical(untraced, "wall_s"))
    return metrics, problems


def measure(args, workdir: Path) -> dict:
    # The first import in a fresh checkout compiles bytecode once; not timed.
    spawn("probe", 0, 0, False, workdir / "warm-up")
    n_units = len(workloads.units(args.workload, args.seed))
    setups, untraced, traced = [], [], []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        # A probe before each cycle spreads the set-up samples over the run.
        setups.append(spawn("probe", 0, 0, False, workdir / f"probe-{i}")["setup_s"])
        trace = args.trace and i % 2 == 1
        cycle = [
            spawn(args.workload, args.seed, u, trace, workdir / f"cycle-{i}-unit-{u}") for u in range(n_units)
        ]
        (traced if trace else untraced).append(cycle)
        setups += [result["setup_s"] for result in cycle]
        i += 1
        if time.perf_counter() >= deadline and untraced and (traced or not args.trace):
            break

    passes = [merge(cycle) for cycle in untraced + traced]
    ops = [r for result in passes for r in result["ops"]]
    failed = sum(not r["ok"] for r in ops)
    for r in ops:
        if not r["ok"]:
            print(f"FAILED {r['op']}: {r['error']}", file=sys.stderr)

    # The same code must give the same trace bytes in every cycle, traced or not.
    first = digests(passes[0])
    for result in passes[1:]:
        for op, digest in digests(result).items():
            if first.get(op) != digest:
                failed += 1
                print(f"FAILED {op}: trace digest {digest} differs from {first.get(op)}", file=sys.stderr)
    baseline = json.loads((HERE / "baseline.json").read_text())["trace_sha256"]
    for op, digest in sorted(first.items()):
        note = "" if baseline.get(op) == digest else "  (differs from the seed commit)"
        print(f"trace sha256 {op} {digest}{note}")

    if args.trace:
        metrics, problems = traced_metrics(args.workload, passes[len(untraced):], untraced)
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        if problems:
            raise PassFailed("traced run does not cover the layers this workload is defined by")
        units = {name: unit for name, unit, _, _ in layers.LAYER_METRICS}
    else:
        metrics = {
            "wall_s": sum(typical(untraced, "wall_s")),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(typical(untraced, "peak_rss_mb")),
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    print(
        f"{args.workload}: {len(ops)} ops in {n_units} units; cycle wall_s untraced "
        f"{[round(r['wall_s'], 3) for r in passes[:len(untraced)]]} "
        f"traced {[round(r['wall_s'], 3) for r in passes[len(untraced):]]}",
        file=sys.stderr,
    )
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "sqadd" / "__init__.py").is_file():
        print(f"error: no sqadd sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        result = measure(args, workdir)
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
