"""Reference witness search: the rational grid over every free site.

`search_nonidentity_reference` is `sqadd.engine.search_nonidentity` as it
was before the grid gave way to the absence rule: each surviving branch
tries its own table, then every unassigned site up to the site bound over
a grid of seven small rationals, at most 16 x max_branches candidates in
all.  The grid and its per-branch cap now live here, and the engine no
longer words a "witness grid" message, so a grid stop would read as a
step limit; no differential case reaches it at the default budget.  The
algorithm is unedited.  The differential tests compare the two searches'
tables, or None.
"""

from fractions import Fraction
from typing import Optional

from sqadd.arith import identity_table
from sqadd.engine import (
    EngineBudget,
    _Counter,
    _explore,
    verify_assignment,
)

# Candidate values tried at each free site, in order.  Small rationals are
# enough: a genuinely free site accepts any value.
_WITNESS_GRID = (
    Fraction(1),
    Fraction(0),
    Fraction(2),
    Fraction(3),
    Fraction(1, 2),
    Fraction(-1),
    Fraction(5),
)

# The grid tries at most this many candidates per branch the budget allows.
_WITNESS_GRID_PER_BRANCH = 16


def search_nonidentity_reference(
    k: int,
    bound: int,
    site_bound: int,
    budget: Optional[EngineBudget] = None,
) -> Optional[dict[int, Fraction]]:
    """Hunt for a non-identity multiplicative model of the k-additive system.

    Surviving branches of the uniqueness run are instantiated on their free
    sites (up to site_bound) over a small rational grid, identity elsewhere,
    and each candidate is model-checked by verify_assignment.  Returns the
    first passing table that differs from the identity, or None.
    """
    budget = budget or EngineBudget()
    survivors, _ = _explore(k, bound, budget)
    identity = identity_table(bound)
    grid = _Counter(budget.max_branches * _WITNESS_GRID_PER_BRANCH)
    for branch in survivors:
        base = dict(identity)
        base.update(branch.pf.assigned_table(limit=bound))
        if base != identity:
            report = verify_assignment(base, k, bound)
            if report.ok:
                return base
        for site in branch.pf.unassigned_sites(limit=min(site_bound, bound)):
            for value in _WITNESS_GRID:
                if value == site:
                    continue
                grid.tick("witness grid")
                candidate = dict(base)
                candidate[site] = value
                report = verify_assignment(candidate, k, bound)
                if report.ok:
                    return candidate
    return None
