"""Reference elimination: the closure in its plainest form.

`eliminate_reference` enters every row into the index, copies of a row
included, and reads a row's symbols from its terms each time the row
enters or leaves, where `sqadd.engine.eliminate` records each row's
symbol set and whether it can be a source as it enters.  It is the closure
as it was before `eliminate` merged copies of a row into their first copy,
a path `eliminate` no longer has.  The substitution cap is read from
`sqadd.engine`, so a test that patches it there patches both closures,
and the signature follows `eliminate`'s (state, counter); the algorithm is
unedited but for the eliminant degree cap, which both closures dropped.
The differential tests compare the two on `(result, counter.steps)`.
"""

from typing import Optional

from sqadd import engine
from sqadd.engine import BranchState, EngineBudget, _Counter, _eliminate_work
from sqadd.poly import Poly


def eliminate_reference(
    state: BranchState,
    counter: Optional[_Counter] = None,
) -> Optional[tuple[int, Poly]]:
    counter = counter or _Counter(EngineBudget().max_steps)
    work = _eliminate_work(state)
    counts = [0] * len(work)  # symbols in each row
    occurs: dict[int, set[int]] = {}  # symbol -> the live rows holding it
    best: dict[int, tuple[int, Poly]] = {}

    def enter(idx: int, poly: Poly) -> None:
        syms = poly.symbols()
        work[idx] = poly
        counts[idx] = len(syms)
        for sym in syms:
            occurs.setdefault(sym, set()).add(idx)
        if len(syms) == 1:
            (sym,) = syms
            if sym not in best or idx < best[sym][0]:
                best[sym] = (idx, poly)

    def leave(idx: int) -> None:
        for sym in work[idx].symbols():
            occurs[sym].discard(idx)

    for idx, poly in enumerate(work):
        enter(idx, poly)

    sub_counts = [0] * len(work)
    substituted: set[int] = set()
    universe = sorted(occurs, reverse=True)

    changed = True
    while changed:
        changed = False
        for sym in universe:
            if sym in substituted:
                continue
            # c*sym + r with r linear, free of sym and not constant
            candidates = [
                (counts[idx], idx)
                for idx in occurs[sym]
                if counts[idx] > 1 and work[idx].total_degree() == 1
            ]
            if not candidates:
                continue
            _, source = min(candidates)
            row = work[source]
            leave(source)
            substituted.add(sym)
            changed = True
            for idx in sorted(occurs[sym]):
                if sub_counts[idx] >= engine.ELIMINANT_MAX_SUBSTITUTIONS:
                    continue
                counter.tick("elimination")
                sub_counts[idx] += 1
                leave(idx)
                enter(idx, work[idx].substitute_poly(sym, row))

    if not best:
        return None
    chosen = min(best)
    return chosen, best[chosen][1].primitive()
