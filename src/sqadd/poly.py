"""Exact polynomials for the deduction engine's equations.

The unknowns are values of a multiplicative function at prime-power sites
p^e, and each unknown is its site: a plain ``int``, displayed ``x{site}``.
Every equation is a ``Poly`` required to equal zero.  The engine builds
f(n) - f(a_1^2) - ... - f(a_k^2) with ``minus_sum`` and eliminates with
``substitute_poly``, each one accumulation into a single term dict.  All
arithmetic is exact (``fractions.Fraction``) and every result is canonical:
no zero coefficients, monomials ordered degree-lexicographically by site.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Optional, Union

Rational = Fraction

Scalar = Union[int, Fraction]


def symbol_name(site: int) -> str:
    """Display name of the unknown f(site)."""
    return f"x{site}"


# A monomial is a nondecreasing tuple of sites, repeats encode powers.
Monomial = tuple[int, ...]


def _merge(a: Monomial, b: Monomial) -> Monomial:
    return tuple(sorted(a + b))


def _monomial_key(m: Monomial) -> tuple:
    return (len(m), m)


class Poly:
    """Immutable multivariate polynomial with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, Scalar]] = None):
        cleaned: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if c:
                    cleaned[mono] = c
        object.__setattr__(self, "terms", cleaned)

    # -- constructors ------------------------------------------------

    @classmethod
    def const(cls, value: Scalar) -> "Poly":
        return cls({(): Fraction(value)})

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.terms.get((), Fraction(0))

    # -- structure ---------------------------------------------------

    def symbols(self) -> set[int]:
        out: set[int] = set()
        for mono in self.terms:
            out.update(mono)
        return out

    def total_degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: _monomial_key(kv[0]))

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other) -> Optional["Poly"]:
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return None

    def __add__(self, other) -> "Poly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        terms = dict(self.terms)
        for mono, coeff in rhs.terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return Poly(terms)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __mul__(self, other) -> "Poly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in rhs.terms.items():
                mono = _merge(m1, m2)
                terms[mono] = terms.get(mono, Fraction(0)) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    # -- substitution and evaluation ----------------------------------

    def substitute(self, symbol: int, value: Scalar) -> "Poly":
        """Replace every occurrence of ``symbol`` by a rational constant."""
        v = Fraction(value)
        terms: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            count = 0
            rest: list[int] = []
            for s in mono:
                if s == symbol:
                    count += 1
                else:
                    rest.append(s)
            c = coeff * v**count if count else coeff
            if c:
                m = tuple(rest)
                terms[m] = terms.get(m, Fraction(0)) + c
        return Poly(terms)

    def substitute_poly(self, symbol: int, replacement: "Poly") -> "Poly":
        """Replace ``symbol`` by an arbitrary polynomial."""
        powers = [Poly.const(1)]  # replacement**i, built as needed
        terms: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            count = mono.count(symbol)
            if not count:
                terms[mono] = terms.get(mono, 0) + coeff
                continue
            rest = tuple(s for s in mono if s != symbol)
            while len(powers) <= count:
                powers.append(powers[-1] * replacement)
            for m, c in powers[count].terms.items():
                m = _merge(rest, m)
                terms[m] = terms.get(m, 0) + coeff * c
        return Poly(terms)

    def minus_sum(self, parts: Iterable["Poly"]) -> "Poly":
        """``self`` minus every poly in ``parts``: f(n) - f(a_1^2) - ... ."""
        terms = dict(self.terms)
        for part in parts:
            for mono, coeff in part.terms.items():
                terms[mono] = terms.get(mono, 0) - coeff
        return Poly(terms)

    def evaluate(self, values: Mapping[int, Scalar]) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            acc = coeff
            for s in mono:
                acc *= Fraction(values[s])
            total += acc
        return total

    # -- shape queries used by the engine ------------------------------

    def linear_solve(self) -> Optional[tuple[int, Fraction]]:
        """If the poly is c*s + d with one symbol, return (s, -d/c)."""
        syms = self.symbols()
        if len(syms) != 1:
            return None
        (s,) = syms
        if any(len(m) > 1 for m in self.terms):
            return None
        c = self.terms.get((s,))
        if not c:
            return None
        return (s, -self.terms.get((), 0) / c)

    def solve_for(self, symbol: int) -> Optional["Poly"]:
        """Solve for ``symbol`` when its coefficient is a nonzero constant.

        Requires the poly to be c*symbol + rest with ``rest`` free of the
        symbol; returns -rest/c, else None.
        """
        c = self.terms.get((symbol,))
        if not c:
            return None
        rest: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            if mono == (symbol,):
                continue
            if symbol in mono:
                return None
            rest[mono] = -coeff / c
        return Poly(rest)

    def univariate_coeffs(self) -> Optional[tuple[int, list[Fraction]]]:
        """Dense coefficients (c0..cd) when exactly one symbol occurs."""
        syms = self.symbols()
        if len(syms) != 1:
            return None
        (s,) = syms
        coeffs = [Fraction(0)] * (self.total_degree() + 1)
        for mono, coeff in self.terms.items():
            coeffs[len(mono)] += coeff
        return s, coeffs

    def primitive(self) -> "Poly":
        """Scale to coprime integer coefficients with positive leading term."""
        if not self.terms:
            return self
        den = 1
        for c in self.terms.values():
            den = den * c.denominator // gcd(den, c.denominator)
        num = 0
        for c in self.terms.values():
            num = gcd(num, abs(c.numerator * den // c.denominator))
        scale = Fraction(den, num) if num else Fraction(den)
        lead = self.sorted_terms()[-1][1]
        if lead < 0:
            scale = -scale
        return Poly({m: c * scale for m, c in self.terms.items()})

    # -- display -------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in reversed(self.sorted_terms()):
            if mono:
                factors: list[str] = []
                i = 0
                while i < len(mono):
                    j = i
                    while j < len(mono) and mono[j] == mono[i]:
                        j += 1
                    power = j - i
                    factors.append(symbol_name(mono[i]) + (f"^{power}" if power > 1 else ""))
                    i = j
                body = "*".join(factors)
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
