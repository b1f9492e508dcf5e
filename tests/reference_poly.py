"""Ring operations on `Poly` for the tests: sum, negation, difference, product.

The engine builds its equations with `Poly.minus_sum`, `substitute` and
`substitute_poly` and never adds or multiplies two polys, so the ring
operations live here, as the reference the ring-law and substitution tests
check `Poly` against.  An int or Fraction operand stands for a constant.
"""

from sqadd.poly import Poly, _times


def as_poly(value) -> Poly:
    return value if isinstance(value, Poly) else Poly.const(value)


def add(a, b) -> Poly:
    terms = dict(as_poly(a).terms)
    for mono, coeff in as_poly(b).terms.items():
        terms[mono] = terms.get(mono, 0) + coeff
    return Poly(terms)


def neg(a) -> Poly:
    return Poly({mono: -coeff for mono, coeff in as_poly(a).terms.items()})


def sub(a, b) -> Poly:
    return add(a, neg(b))


def mul(a, b) -> Poly:
    return Poly(_times(as_poly(a).terms, as_poly(b).terms))
