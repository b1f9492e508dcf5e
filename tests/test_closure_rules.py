"""What the substitution closure relies on, and what one of its rules buys.

`eliminate` collects every row that collapses to one symbol, whatever its
degree, and `rational_roots` is complete for any degree.  The degree stays
small anyway: f is multiplicative, so f(n) is one monomial with one factor
per distinct prime power of n, and a generated row has total degree at most
omega_max(N), the most distinct primes of any n <= N.  Propagation folds
rows, a cross difference subtracts two, and substituting a linear source
keeps every monomial's degree, so no row of the closure goes above it.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqadd.arith import PartialFunction, factorize
from sqadd.engine import (
    BranchState,
    _eliminate_work,
    generate_equations,
    propagate,
    run_uniqueness,
)
from sqadd.poly import Poly


def omega_max(bound: int) -> int:
    return max(len(factorize(n)) for n in range(1, bound + 1))


# omega_max is 3 below 210 = 2*3*5*7 and 5 from 2310 = 2*3*5*7*11 on
@pytest.mark.parametrize("k, bound", [(3, 200), (6, 140), (3, 2400)])
def test_rows_stay_within_omega_max(k, bound):
    pf = PartialFunction.upto(bound)
    state = BranchState(pf=pf, pending=generate_equations(k, bound, pf), k=k, bound=bound)
    limit = omega_max(bound)
    assert max(row.total_degree() for row in _eliminate_work(state)) <= limit
    propagate(state)
    assert max(row.total_degree() for row in _eliminate_work(state)) <= limit


SITES = (2, 3, 4, 5)
coefficients = st.integers(-4, 4).filter(bool)
monomials = st.lists(st.sampled_from(SITES), max_size=4).map(lambda m: tuple(sorted(m)))


@st.composite
def linear_sources(draw):
    """(symbol, c*symbol + r) with r linear in the other sites, possibly constant."""
    symbol = draw(st.sampled_from(SITES))
    others = st.sampled_from([()] + [(s,) for s in SITES if s != symbol])
    rest = draw(st.dictionaries(others, coefficients, max_size=3))
    return symbol, Poly({**rest, (symbol,): draw(coefficients)})


@given(st.dictionaries(monomials, coefficients, max_size=6), linear_sources())
def test_linear_substitution_never_raises_the_degree(terms, source):
    row = Poly(terms)
    symbol, source = source
    assert row.substitute_poly(symbol, source).total_degree() <= row.total_degree()


# Without the same-n cross differences in `_eliminate_work`, these runs end
# Underdetermined: no other rule of the closure reaches their eliminants.
@pytest.mark.parametrize("k, bound", [(6, 30), (7, 22), (13, 28)])
def test_cross_differences_force(k, bound):
    assert run_uniqueness(k, bound).kind == "forced"
