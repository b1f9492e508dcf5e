"""One unit of a workload in a fresh interpreter.

Usage: python3 bench/child.py WORKLOAD SEED UNIT TRACE WORKDIR SPAWNED_AT

UNIT indexes workloads.units(WORKLOAD, SEED); WORKLOAD "probe" runs nothing.

SPAWNED_AT is the parent's time.perf_counter() just before it started this
process.  perf_counter reads CLOCK_MONOTONIC on Linux, which every process
shares, so the set-up time below covers interpreter start-up plus the
import, as a CLI user pays it.  Prints one JSON line; with TRACE = 1 the
spans go to WORKDIR/spans.jsonl.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
import sqadd  # noqa: E402
import sqadd.cli  # noqa: E402,F401

READY = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    workload, seed, unit, trace, workdir, spawned_at = sys.argv[1:7]
    if Path(sqadd.__file__).resolve().parent != SRC / "sqadd":
        print(f"error: imported sqadd from {sqadd.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    workdir = Path(workdir)
    ops = workloads.units(workload, int(seed))[int(unit)] if workload != "probe" else []
    ctx = workloads.PassContext(workdir)
    tracer = Tracer() if trace == "1" else None

    start = time.perf_counter()
    with tracer or contextlib.nullcontext():
        records = [workloads.run_op(ctx, op) for op in ops]
    wall = time.perf_counter() - start

    from sqadd.arith import factorize
    from sqadd.squares import _part_tuples

    lru = {"part_tuples": _part_tuples.cache_info(), "factorize": factorize.cache_info()}
    result = {
        "setup_s": READY - float(spawned_at),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": records,
        "stdout_bytes": ctx.stdout_bytes,
        "lru": {name: [info.hits, info.misses] for name, info in lru.items()},
    }
    if tracer is not None:
        tracer.write(workdir / "spans.jsonl")
        result["counts"] = dict(tracer.counts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
