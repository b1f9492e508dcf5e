"""Ring laws and substitution behavior of the exact polynomial type.

The ring operations come from `reference_poly`: the engine needs none of
them, so `Poly` does not carry them.
"""

from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_poly import add, mul, str_reference, sub, substitute_poly_reference

from sqadd.engine import rational_roots
from sqadd.poly import Poly

# unknowns are their sites
X2, X4, X9 = 2, 4, 9

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)

monomials = st.lists(
    st.sampled_from([X2, X4, X9]), min_size=0, max_size=3
).map(lambda syms: tuple(sorted(syms)))


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(monomials, rationals, max_size=4))
    return Poly(terms)


class TestRingLaws:
    @given(polys(), polys(), polys())
    def test_add_associative(self, a, b, c):
        assert add(add(a, b), c) == add(a, add(b, c))

    @given(polys(), polys())
    def test_add_commutative(self, a, b):
        assert add(a, b) == add(b, a)

    @given(polys(), polys())
    def test_mul_commutative(self, a, b):
        assert mul(a, b) == mul(b, a)

    @given(polys(), polys(), polys())
    def test_mul_associative(self, a, b, c):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    @given(polys(), polys(), polys())
    def test_distributive(self, a, b, c):
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

    @given(polys())
    def test_additive_inverse(self, a):
        assert sub(a, a).is_zero()

    @given(polys())
    def test_units(self, a):
        assert add(a, Poly()) == a
        assert mul(a, Poly.const(1)) == a
        assert mul(a, Poly()).is_zero()


class TestSubstitution:
    def test_linear_example(self):
        # 3*x2 - 2 - x4 at x2 = 2 collapses to 4 - x4
        p = Poly({(X2,): 3, (): -2, (X4,): -1})
        assert p.substitute({X2: 2}.get) == Poly({(): 4, (X4,): -1})

    def test_product_example(self):
        assert Poly({(X2, X4): 1}).substitute({X2: 0}.get).is_zero()

    def test_quadratic_root_example(self):
        p = Poly({(X2, X2): 1, (X2,): -5, (): 4})
        assert p.substitute({X2: 4}.get).is_zero()
        assert p.substitute({X2: 1}.get).is_zero()
        assert p.substitute({X2: 2}.get) == Poly.const(-2)

    def test_folds_every_known_site_at_once(self):
        # x2*x4*x9 - x4^2 + 3*x9 at x2 = 2, x4 = 1/2: x9 - 1/4 + 3*x9
        p = Poly({(X2, X4, X9): 1, (X4, X4): -1, (X9,): 3})
        lookup = {X2: 2, X4: Fraction(1, 2)}.get
        assert p.substitute(lookup) == Poly({(X9,): 4, (): Fraction(-1, 4)})

    @given(polys())
    def test_nothing_known_returns_self(self, a):
        assert a.substitute({}.get) is a
        assert a.substitute({X2: None}.get) is a

    @given(polys(), rationals, rationals)
    def test_one_pass_equals_site_by_site(self, a, u, v):
        both = a.substitute({X2: u, X9: v}.get)
        assert both == a.substitute({X2: u}.get).substitute({X9: v}.get)

    @given(polys(), polys(), rationals)
    def test_substitute_is_additive(self, a, b, v):
        known = {X2: v}.get
        assert add(a, b).substitute(known) == add(a.substitute(known), b.substitute(known))

    @given(polys(), polys(), rationals)
    def test_substitute_is_multiplicative(self, a, b, v):
        known = {X2: v}.get
        assert mul(a, b).substitute(known) == mul(a.substitute(known), b.substitute(known))


def fraction_substitute(p: Poly, symbol: int, value: Poly) -> Poly:
    """Reference: p with ``symbol`` replaced by ``value``, in Fraction arithmetic."""
    total = Poly()
    for mono, coeff in p.terms.items():
        term = Poly({tuple(s for s in mono if s != symbol): coeff})
        for _ in range(mono.count(symbol)):
            term = mul(term, value)
        total = add(total, term)
    return total


integer_polys = st.dictionaries(
    monomials, st.integers(-6, 6), max_size=4
).map(Poly)

# r in a source row c*x4 + r: free of x4, linear as the engine's rows are,
# or of higher degree, which the substitution allows as well
rests = st.dictionaries(
    st.lists(st.sampled_from([X2, X9]), max_size=2).map(lambda s: tuple(sorted(s))),
    st.integers(-6, 6),
    max_size=3,
)


class TestIntegerSubstitution:
    @given(integer_polys, st.integers(-5, 5).filter(bool), rests)
    def test_is_a_scaled_fraction_substitution(self, p, c, rest):
        source = Poly({**rest, (X4,): c})
        got = p.substitute_poly(X4, source)
        # the rational reference: p at x4 = -r/c
        expected = fraction_substitute(p, X4, mul(Poly(rest), Fraction(-1, c)))
        if expected.is_zero():
            assert got.is_zero()
            return
        mono = next(iter(expected.terms))
        factor = Fraction(got.terms.get(mono, 0), expected.terms[mono])
        assert factor != 0
        assert got == mul(expected, factor)
        # primitive: integer coefficients with content 1
        assert all(type(v) is int for v in got.terms.values())
        assert gcd(*got.terms.values()) == 1

    def test_example(self):
        # x2*x4 - 6 with x4 = 3*x2 - 2 (the row -x4 + 3*x2 - 2), times c = -1
        p = Poly({(X2, X4): 1, (): -6})
        source = Poly({(X4,): -1, (X2,): 3, (): -2})
        assert p.substitute_poly(X4, source) == Poly({(X2, X2): -3, (X2,): 2, (): 6})

    def test_clears_denominators_and_content(self):
        # x4^2 - 1 with x4 = x2/2: times c^2 = 4 gives x2^2 - 4
        p = Poly({(X4, X4): 1, (): -1})
        assert p.substitute_poly(X4, Poly({(X4,): 2, (X2,): -1})) == Poly(
            {(X2, X2): 1, (): -4}
        )
        # 2*x4 + 2*x2 with x4 = x2 is 4*x2, content 4
        p = Poly({(X4,): 2, (X2,): 2})
        assert p.substitute_poly(X4, Poly({(X4,): 1, (X2,): -1})) == Poly({(X2,): 1})


# rows for the differential: x4 up to the fourth power, next to other sites
# or alone, and rows without x4 at all
X3, X5 = 3, 5
row_monomials = st.tuples(
    st.integers(0, 4), st.lists(st.sampled_from([X2, X3, X5, X9]), max_size=2)
).map(lambda t: tuple(sorted([X4] * t[0] + t[1])))
integer_rows = st.dictionaries(row_monomials, st.integers(-9, 9), max_size=5).map(Poly)
# r of a source: linear or not, with or without a constant term, free of x4 and x5
source_rests = st.dictionaries(
    st.lists(st.sampled_from([X2, X3, X9]), max_size=2).map(lambda s: tuple(sorted(s))),
    st.integers(-9, 9),
    max_size=4,
)
nonzero = st.integers(-7, 7).filter(bool)


def same_terms(got: Poly, expected: Poly) -> None:
    # the same terms with the same signs, in the same order
    assert list(got.terms.items()) == list(expected.terms.items())


class TestSubstitutionMatchesReference:
    """`substitute_poly` against the reference without a kept plan or a fast path."""

    @given(integer_rows, nonzero, source_rests)
    @settings(max_examples=300)
    def test_matches_the_reference(self, row, c, rest):
        source = Poly({**rest, (X4,): c})
        same_terms(row.substitute_poly(X4, source), substitute_poly_reference(row, X4, source))

    @given(integer_rows, nonzero, source_rests)
    def test_a_row_without_the_symbol_comes_out_primitive(self, row, c, rest):
        row = Poly({m: 6 * v for m, v in row.terms.items() if X4 not in m})
        source = Poly({**rest, (X4,): c})
        got = row.substitute_poly(X4, source)
        same_terms(got, substitute_poly_reference(row, X4, source))
        assert got.is_zero() or gcd(*got.terms.values()) == 1

    @given(st.lists(integer_rows, min_size=1, max_size=4), nonzero, nonzero, source_rests)
    def test_one_source_for_two_symbols(self, rows, c4, c5, rest):
        # c4*x4 + c5*x5 + r eliminates x4 and x5 in turn; neither symbol may
        # reuse what the source kept for the other
        source = Poly({**rest, (X4,): c4, (X5,): c5})
        for row in rows:
            for symbol in (X4, X5, X4):
                same_terms(
                    row.substitute_poly(symbol, source),
                    substitute_poly_reference(row, symbol, source),
                )

    @given(st.dictionaries(monomials, st.integers(-12, 12), max_size=4))
    def test_primitive_of_an_int_row_matches_its_fraction_copy(self, terms):
        as_fractions = Poly({m: Fraction(v) for m, v in terms.items()})
        same_terms(Poly(terms).primitive(), as_fractions.primitive())


# powers up to 4 of a site, the constant monomial (), and coefficients that
# are ints or Fractions, with +-1 of both types drawn often
display_monomials = st.lists(st.sampled_from([2, 3, 4, 9]), max_size=4).map(lambda s: tuple(sorted(s)))
display_coefficients = st.one_of(
    st.sampled_from([1, -1, Fraction(1), Fraction(-1)]),
    st.integers(-12, 12),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


class TestDisplayMatchesReference:
    @settings(max_examples=200)
    @given(st.dictionaries(display_monomials, display_coefficients, max_size=6))
    @example({})
    @example({(): Fraction(-3, 2)})
    @example({(2, 2, 2, 2): -1, (2, 3, 3): Fraction(1, 2), (4,): Fraction(1), (): -7})
    def test_matches_the_reference(self, terms):
        poly = Poly(terms)
        assert str(poly) == str_reference(poly)


class TestMinusSum:
    @given(polys(), polys(), polys())
    def test_matches_repeated_subtraction(self, a, b, c):
        got = a.minus_sum([b, c])
        assert got == sub(sub(a, b), c)
        assert all(coeff != 0 for coeff in got.terms.values())

    def test_cancelled_monomial_is_dropped(self):
        # x4 + 1 - x4 keeps no zero entry for x4
        got = Poly({(X4,): 1, (): 1}).minus_sum([Poly({(X4,): 1})])
        assert got.terms == {(): 1}


class TestCanonicalForm:
    @given(polys())
    def test_no_zero_coefficients(self, a):
        assert all(c != 0 for c in a.terms.values())

    @given(polys(), polys())
    def test_equal_content_equal_key(self, a, b):
        merged = sub(add(a, b), b)
        assert merged == a

    def test_degree_lex_display_order(self):
        p = Poly({(X2, X2): 3, (X2,): -8, (): 4})
        assert str(p) == "3*x2^2 - 8*x2 + 4"

    def test_primitive_normalization(self):
        p = Poly({(X2, X2): 6, (X2,): -16, (): 8})
        assert p.primitive() == Poly({(X2, X2): 3, (X2,): -8, (): 4})
        assert all(type(c) is int for c in p.primitive().terms.values())
        q = Poly({(X2,): Fraction(-1, 2), (): Fraction(3, 2)})
        assert q.primitive() == Poly({(X2,): 1, (): -3})

    def test_linear_solve(self):
        assert Poly({(X2,): 2, (): -6}).linear_solve() == (X2, Fraction(3))
        # a value is a Fraction even when the coefficients are ints
        assert type(Poly({(X2,): 4, (): -2}).linear_solve()[1]) is Fraction
        assert Poly({(X2,): 1, (X4,): 1}).linear_solve() is None
        assert Poly({(X2, X2): 1, (): -4}).linear_solve() is None

    def test_univariate_coeffs_of_an_int_row_are_ints(self):
        row = Poly({(X2, X2): 3, (X2,): -8, (): 4})
        assert row.univariate_coeffs() == (X2, [4, -8, 3])
        assert all(type(c) is int for c in row.univariate_coeffs()[1])
        # a constant coefficient that is absent is an int 0
        _, coeffs = row.minus_sum([Poly({(): 4})]).univariate_coeffs()
        assert coeffs == [0, -8, 3] and type(coeffs[0]) is int

    @given(st.lists(st.integers(-12, 12), min_size=2, max_size=5))
    def test_rational_roots_agree_for_int_and_fraction_rows(self, coeffs):
        ints = Poly({(X2,) * i: c for i, c in enumerate(coeffs)})
        if ints.is_constant():
            return
        fracs = Poly({m: Fraction(c) for m, c in ints.terms.items()})
        assert rational_roots(ints) == rational_roots(fracs)


class TestRationalExactness:
    @given(
        st.integers(-50, 50),
        st.integers(1, 50),
        st.integers(-50, 50),
        st.integers(1, 50),
    )
    def test_fraction_addition_cross_multiplies(self, a, b, c, d):
        # the value domain is exact: a/b + c/d == (ad + bc) / bd identically
        left = Fraction(a, b) + Fraction(c, d)
        right = Fraction(a * d + c * b, b * d)
        assert left == right
        assert left.denominator >= 1
        assert gcd(left.numerator, left.denominator) == 1
