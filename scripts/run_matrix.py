#!/usr/bin/env python3
"""Run the full verification matrix and print a one-line summary per job.

Covers: exceptional sets vs the closed forms (k = 4..12), the square
exceptions at a large bound, and uniqueness deductions for k = 2..6.
`--quick` shrinks the bounds for a fast smoke pass.

A deduction passes when k = 2 is underdetermined, or when k >= 3 is forced
to a table that equals the identity and satisfies every equation up to the
bound.  Below FORCED_FROM_BOUND a k >= 3 run may also end underdetermined:
the bound is too small to pin every site, which is not a wrong answer.
All branches contradicting fails at every bound (the identity is a model).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sqadd.arith import identity_table
from sqadd.cli import _int_at_least
from sqadd.engine import Forced, Underdetermined, run_uniqueness, verify_assignment
from sqadd.squares import (
    dubouis_reference_set,
    exceptional_set,
    hurwitz_exceptions,
    hurwitz_reference_set,
)


DEDUCE_KS = range(2, 7)

# The `--quick` deduction bound; k = 3..6 are forced from here on.
FORCED_FROM_BOUND = 60


def deduction_ok(k: int, bound: int, outcome) -> bool:
    if isinstance(outcome, Forced):
        return (
            k >= 3
            and outcome.table == identity_table(bound)
            and verify_assignment(outcome.table, k, bound).ok
        )
    if isinstance(outcome, Underdetermined):
        return k == 2 or bound < FORCED_FROM_BOUND
    return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small bounds")
    parser.add_argument(
        "--deduce-bound",
        type=_int_at_least(max(DEDUCE_KS)),
        default=None,
        help="bound of the deductions; at least the largest k deduced",
    )
    args = parser.parse_args()

    exc_bound = 1_000 if args.quick else 10_000
    square_bound = 10_000 if args.quick else 1_000_000
    deduce_bound = args.deduce_bound
    if deduce_bound is None:
        deduce_bound = FORCED_FROM_BOUND if args.quick else 200

    failures = 0

    for k in range(4, 13):
        start = time.time()
        got = list(exceptional_set(k, exc_bound))
        ok = got == dubouis_reference_set(k, exc_bound)
        failures += not ok
        print(
            f"exceptions k={k:<2} N={exc_bound}: "
            f"{'PASS' if ok else 'FAIL'} ({len(got)} members, {time.time()-start:.2f}s)"
        )

    start = time.time()
    squares = hurwitz_exceptions(square_bound)
    ok = squares == hurwitz_reference_set(square_bound)
    failures += not ok
    print(
        f"square exceptions N={square_bound}: "
        f"{'PASS' if ok else 'FAIL'} ({len(squares)} members, {time.time()-start:.2f}s)"
    )

    for k in DEDUCE_KS:
        start = time.time()
        verdict = run_uniqueness(k, deduce_bound)
        elapsed = time.time() - start
        splits = sum(1 for s in verdict.trace.steps if s.rule == "split")
        if isinstance(verdict.outcome, Underdetermined):
            detail = (
                f"prefix {verdict.outcome.forced_prefix}, "
                f"{len(verdict.outcome.free_sites)} free sites"
            )
        else:
            detail = f"{len(verdict.trace.steps)} steps"
        ok = deduction_ok(k, deduce_bound, verdict.outcome)
        failures += not ok
        print(
            f"deduce k={k} N={deduce_bound}: {verdict.kind} "
            f"[{'PASS' if ok else 'FAIL'}] ({splits} splits, {detail}, {elapsed:.2f}s)"
        )

    print("matrix:", "ALL PASS" if not failures else f"{failures} FAILURES")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
