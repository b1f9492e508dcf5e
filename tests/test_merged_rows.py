"""Elimination with merged duplicate rows against the unmerged reference.

`eliminate` keeps later copies of a row as spares of its first copy.  Each
test runs it and `eliminate_reference` (the closure without merging) on the
same system and requires the same eliminant and the same step total, and
that a budget one step short stops both at the same step.  Low caps make
sources reach `ELIMINANT_MAX_SUBSTITUTIONS`, where a copy survives its
source and lives on as an ordinary row.
"""

import random

import pytest
from reference_eliminate import eliminate_reference

from sqadd import engine
from sqadd.arith import PartialFunction
from sqadd.engine import (
    Additivity,
    BranchState,
    BudgetExhausted,
    Equation,
    Multiplicativity,
    _Counter,
    eliminate,
    generate_equations,
    propagate,
)
from sqadd.poly import Poly

SITES = (2, 3, 4, 5, 7)
MONOMIALS = [(), *((s,) for s in SITES), *((a, b) for a in SITES for b in SITES if a <= b)]


def random_system(rng: random.Random) -> BranchState:
    """4-10 rows over SITES, some with degree-2 terms, 1-3 of them copies.

    A copy repeats an earlier row, possibly scaled; half the rows claim one
    of two values of n, so their same-n cross differences join the system.
    """
    polys: list[Poly] = []
    for _ in range(rng.randint(3, 7)):
        linear = rng.sample(MONOMIALS[: 1 + len(SITES)], rng.randint(2, 4))
        quadratic = rng.sample(MONOMIALS[1 + len(SITES) :], rng.random() < 0.4)
        polys.append(Poly({m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in linear + quadratic}))
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(1, len(polys))
        scale = rng.choice((-2, -1, 1, 3))
        polys.insert(at, Poly({m: scale * c for m, c in rng.choice(polys[:at]).terms.items()}))
    pending = [
        Equation(
            poly,
            Additivity(rng.choice((10, 11)), ()) if rng.random() < 0.5
            else Multiplicativity(i, 1, i),
        )
        for i, poly in enumerate(polys)
    ]
    return BranchState(pf=PartialFunction(), pending=pending, k=2, bound=10)


def outcome(closure, state: BranchState, limit: int = 10**9):
    counter = _Counter(limit)
    try:
        return closure(state, counter), counter.steps
    except BudgetExhausted as err:
        return (err.what, err.spent), None


def assert_same(state: BranchState) -> None:
    expected = outcome(eliminate_reference, state)
    assert outcome(eliminate, state) == expected
    steps = expected[1]
    if steps:
        short = outcome(eliminate_reference, state, steps - 1)
        assert short == (("elimination", steps), None)
        assert outcome(eliminate, state, steps - 1) == short


@pytest.mark.parametrize("cap", [1, 2])
def test_random_systems_with_copies(monkeypatch, cap):
    monkeypatch.setattr(engine, "ELIMINANT_MAX_SUBSTITUTIONS", cap)
    rng = random.Random(cap)
    for _ in range(1000):
        assert_same(random_system(rng))


@pytest.mark.parametrize("cap", [1, 2, 3])
@pytest.mark.parametrize("k, bound", [(3, 40), (4, 60), (5, 80), (6, 100), (7, 60)])
def test_generated_roots(monkeypatch, k, bound, cap):
    monkeypatch.setattr(engine, "ELIMINANT_MAX_SUBSTITUTIONS", cap)
    pf = PartialFunction.upto(bound)
    state = BranchState(pf=pf, pending=generate_equations(k, bound, pf), k=k, bound=bound)
    assert_same(state)
    propagate(state)
    assert_same(state)


def test_rows_whose_hashes_collide_are_not_copies():
    # hash(-1) == hash(-2), so x3 - x2 and x3 - 2*x2 hash alike; only the
    # second row, kept live, lets x3 = x2 reduce it to the eliminant -x2
    rows = [Poly({(3,): 1, (2,): -1}), Poly({(3,): 1, (2,): -2})]
    pending = [Equation(poly, Multiplicativity(i, 1, i)) for i, poly in enumerate(rows)]
    state = BranchState(pf=PartialFunction(), pending=pending, k=2, bound=10)
    first, second = (frozenset(poly.terms.items()) for poly in engine._eliminate_work(state))
    assert first != second and hash(first) == hash(second)
    assert_same(state)
    assert eliminate(state) == (2, Poly({(2,): 1}))
