"""The assignment-state readers as they were before sharing one read.

`evaluate`, `peek` and `known_value` are `PartialFunction`'s methods, and
`verify_reference` is `engine.verify_assignment` with its own table
evaluator, each body unedited, with `self` named `pf`.  The differential
tests in `test_arith.py` and `test_engine.py` compare the current readers
against these.
"""

from typing import Optional

from sqadd.arith import PartialFunction, factorize, prime_powers_upto
from sqadd.engine import (
    REPRESENTATION_CAP,
    Additivity,
    Equation,
    IncompleteTableError,
    VerificationReport,
)
from sqadd.poly import Poly, Rational, Scalar, as_scalar
from sqadd.squares import enumerate_representations


def evaluate(pf: PartialFunction, n: int) -> Poly:
    """Multiplicative evaluation as a polynomial in the unknown sites."""
    if n == 1:
        return Poly({(): 1})
    coeff: Scalar = 1
    mono: list[int] = []
    for p, e in factorize(n):
        site = p**e
        value = pf.ensure_site(site)
        if value is None:
            mono.append(site)
        else:
            coeff *= value
    mono.sort()
    return Poly({tuple(mono): coeff})


def peek(pf: PartialFunction, n: int, site: int) -> tuple[Scalar, Scalar, tuple[int, ...]]:
    """f(n) as A*x + B in x = f(site), and the sites that block it.

    Never tracks a site.  ``blocking`` lists the untracked sites of n
    if there are any, else its unknown sites other than ``site``; A and
    B are meaningful only when it is empty.  A known factor 0 makes
    f(n) = 0 whatever the unknowns: (0, 0, ()).
    """
    coeff: Scalar = 1
    linear = False
    missing: list[int] = []
    unknown: list[int] = []
    for p, e in factorize(n):
        q = p**e
        if q not in pf._entries:
            missing.append(q)
            continue
        value = pf._entries[q]
        if value is not None:
            coeff *= value
        elif q == site:
            linear = True
        else:
            unknown.append(q)
    if missing:
        return 0, 0, tuple(missing)
    if not coeff:
        return 0, 0, ()
    if unknown:
        return 0, 0, tuple(unknown)
    return (coeff, 0, ()) if linear else (0, coeff, ())


def known_value(pf: PartialFunction, n: int) -> Optional[Scalar]:
    """f(n) when every site of n is known, else None."""
    acc: Scalar = 1
    for p, e in factorize(n):
        value = pf._entries.get(p**e)
        if value is None:
            return None
        acc *= value
    return acc


def verify_reference(
    table: dict[int, Rational], k: int, bound: int
) -> VerificationReport:
    """Substitute an explicit multiplicative f into every generated equation.

    The table must cover all prime powers <= bound; the first violated
    equation (n ascending, representations lexicographic) is reported with
    its provenance.
    """
    required = prime_powers_upto(bound)
    missing = [site for site in required if site not in table]
    if missing:
        raise IncompleteTableError(missing)

    sites = {site: as_scalar(value) for site, value in table.items()}
    values: dict[int, Scalar] = {}

    def f(n: int) -> Scalar:
        got = values.get(n)
        if got is None:
            acc: Scalar = 1
            for p, e in factorize(n):
                acc *= sites[p**e]
            values[n] = acc
            got = acc
        return got

    checked = 0
    for n in range(1, bound + 1):
        for parts in enumerate_representations(n, k, REPRESENTATION_CAP):
            checked += 1
            residue = f(n) - sum(f(a * a) for a in parts)
            if residue:
                poly = Poly.const(residue)
                return VerificationReport(
                    False, Equation(poly, Additivity(n, parts)), checked
                )
    return VerificationReport(True, None, checked)
