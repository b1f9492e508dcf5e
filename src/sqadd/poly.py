"""Exact polynomials for the deduction engine's equations.

The unknowns are values of a multiplicative function at prime-power sites
p^e, and each unknown is its site: a plain ``int``, displayed ``x{site}``.
Every equation is a ``Poly`` required to equal zero.  The engine builds
f(n) - f(a_1^2) - ... - f(a_k^2) with ``minus_sum``, and ``substitute``
folds every known site value into an equation in one pass over its terms.
Coefficients are ``int`` or ``Fraction``, which mix exactly and print
alike; equations over integral site values stay in ``int`` arithmetic.
Elimination runs on integer rows: ``primitive`` scales an equation to
integer coefficients with content 1, and ``substitute_poly`` eliminates a
symbol from one row with another and returns such a row again, so the
substitution closure builds no fraction.  All arithmetic is exact and every
result is canonical: no zero coefficients, monomials ordered
degree-lexicographically by site.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Optional, Union

Rational = Fraction

Scalar = Union[int, Fraction]


def as_scalar(value) -> Scalar:
    """The rational ``value`` as an ``int`` when integral, else a Fraction."""
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def symbol_name(site: int) -> str:
    """Display name of the unknown f(site)."""
    return f"x{site}"


# A monomial is a nondecreasing tuple of sites, repeats encode powers.
Monomial = tuple[int, ...]


def _merge(a: Monomial, b: Monomial) -> Monomial:
    return tuple(sorted(a + b))


def _monomial_key(m: Monomial) -> tuple:
    return (len(m), m)


def _times(a: Mapping[Monomial, Scalar], b: Mapping[Monomial, Scalar]) -> dict:
    """Product of two term dicts; zero entries are left for Poly to drop."""
    terms: dict[Monomial, Scalar] = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = _merge(m1, m2)
            terms[mono] = terms.get(mono, 0) + c1 * c2
    return terms


class Poly:
    """Immutable multivariate polynomial with int or Fraction coefficients."""

    __slots__ = ("terms", "_plan")  # _plan: see substitute_poly

    def __init__(self, terms: Optional[Mapping[Monomial, Scalar]] = None):
        self.terms: dict[Monomial, Scalar] = (
            {mono: c for mono, c in terms.items() if c} if terms else {}
        )

    # -- constructors ------------------------------------------------

    @classmethod
    def const(cls, value: Scalar) -> "Poly":
        return cls({(): Fraction(value)})

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    # -- structure ---------------------------------------------------

    def symbols(self) -> set[int]:
        return set().union(*self.terms)

    def total_degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    # -- comparison --------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    # -- substitution ----------------------------------------------------

    def substitute(self, known: Callable[[int], Optional[Scalar]]) -> "Poly":
        """Fold in every site whose value ``known(site)`` gives, in one pass.

        ``known`` returns None for a site still unknown.  When no site of
        this poly is known the result is ``self``, not a copy.
        """
        terms: dict[Monomial, Scalar] = {}
        folded = False
        for mono, coeff in self.terms.items():
            rest: list[int] = []
            for s in mono:
                value = known(s)
                if value is None:
                    rest.append(s)
                else:
                    coeff *= value
                    folded = True
            if coeff:
                m = tuple(rest)
                terms[m] = terms.get(m, 0) + coeff
        return Poly(terms) if folded else self

    def substitute_poly(self, symbol: int, source: "Poly") -> "Poly":
        """Eliminate ``symbol`` from this integer row with the row c*symbol + r.

        ``source`` is that row: integer coefficients, ``symbol`` only in the
        term c*symbol.  With d the highest power of ``symbol`` here, the
        result is c^d * self(symbol = -r/c) divided by its content, an
        integer row again; it vanishes where self(symbol = -r/c) does.
        The powers of c and of -r are built once per (source, symbol) and
        kept on ``source`` for its last symbol: the closure substitutes one
        source into many rows in turn.
        """
        plan = getattr(source, "_plan", None)
        if plan is None or plan[0] != symbol:
            c = source.terms[(symbol,)]
            minus_r = {m: -v for m, v in source.terms.items() if m != (symbol,)}
            plan = source._plan = (symbol, [1, c], [{(): 1}, minus_r])
        _, c_powers, r_powers = plan  # c^j and (-r)^j, grown as needed
        c, minus_r = c_powers[1], r_powers[1]
        counts = [mono.count(symbol) for mono in self.terms]
        top = max(counts, default=0)
        while len(c_powers) <= top:
            c_powers.append(c_powers[-1] * c)
            r_powers.append(_times(r_powers[-1], minus_r))
        terms: dict[Monomial, int] = {}
        for (mono, coeff), count in zip(self.terms.items(), counts):
            coeff *= c_powers[top - count]
            if not count:
                terms[mono] = terms.get(mono, 0) + coeff
                continue
            i = mono.index(symbol)  # a monomial is sorted: its copies are adjacent
            rest = mono[:i] + mono[i + count :]
            for m, v in r_powers[count].items():
                if rest:
                    m = _merge(rest, m)
                terms[m] = terms.get(m, 0) + coeff * v
        content = gcd(*terms.values())
        if content <= 1:  # 0 when every term cancelled: Poly drops the zeros
            return Poly(terms)
        return Poly({m: v // content for m, v in terms.items()})

    def minus_sum(self, parts: Iterable["Poly"]) -> "Poly":
        """``self`` minus every poly in ``parts``: f(n) - f(a_1^2) - ... ."""
        terms = dict(self.terms)
        for part in parts:
            for mono, coeff in part.terms.items():
                terms[mono] = terms.get(mono, 0) - coeff
        return Poly(terms)

    # -- shape queries used by the engine ------------------------------

    def linear_solve(self) -> Optional[tuple[int, Fraction]]:
        """If the poly is c*s + d with one symbol, return (s, -d/c)."""
        syms = self.symbols()
        if len(syms) != 1:
            return None
        (s,) = syms
        if any(len(m) > 1 for m in self.terms):
            return None
        return (s, Fraction(-self.terms.get((), 0)) / self.terms[(s,)])

    def univariate_coeffs(self) -> Optional[tuple[int, list[Scalar]]]:
        """Dense coefficients (c0..cd) when exactly one symbol occurs."""
        syms = self.symbols()
        if len(syms) != 1:
            return None
        (s,) = syms
        coeffs: list[Scalar] = [0] * (self.total_degree() + 1)
        for mono, coeff in self.terms.items():
            coeffs[len(mono)] += coeff
        return s, coeffs

    def primitive(self) -> "Poly":
        """Scale to coprime integer coefficients with positive leading term."""
        if not self.terms:
            return self
        ints = self.terms
        if not all(type(c) is int for c in ints.values()):
            ratios = {m: c.as_integer_ratio() for m, c in ints.items()}
            den = lcm(*(d for _, d in ratios.values()))
            ints = {m: n * (den // d) for m, (n, d) in ratios.items()}
        content = gcd(*ints.values())
        if ints[max(ints, key=_monomial_key)] < 0:
            content = -content
        return Poly({m: v // content for m, v in ints.items()})

    # -- display -------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in reversed(sorted(self.terms.items(), key=lambda kv: _monomial_key(kv[0]))):
            if mono:
                body = "*".join(
                    symbol_name(s) + (f"^{power}" if power > 1 else "")
                    for s, power in Counter(mono).items()
                )
                if coeff == 1:
                    text = body
                elif coeff == -1:
                    text = f"-{body}"
                else:
                    text = f"{coeff}*{body}"
            else:
                text = str(coeff)
            if parts and not text.startswith("-"):
                parts.append("+ " + text)
            elif parts:
                parts.append("- " + text[1:])
            else:
                parts.append(text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"
