"""Ring operations on `Poly` for the tests: sum, negation, difference, product.

The engine builds its equations with `Poly.minus_sum`, `substitute` and
`substitute_poly` and never adds or multiplies two polys, so the ring
operations live here, as the reference the ring-law and substitution tests
check `Poly` against.  An int or Fraction operand stands for a constant.

`substitute_poly_reference` is `Poly.substitute_poly` as it was before it
kept the powers of c and -r on the source and gained its linear fast path:
the body is unedited, with `self` named `row`.

`str_reference` is `Poly.__str__` as it was before it read a monomial's
powers from a `Counter`: the body is unedited, with `self` named `poly` and
the call of the removed `Poly.sorted_terms` replaced by that method's body.
"""

from math import gcd

from sqadd.poly import Monomial, Poly, _merge, _monomial_key, _times, symbol_name


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


def substitute_poly_reference(row: Poly, symbol: int, source: Poly) -> Poly:
    c = source.terms[(symbol,)]
    minus_r = {m: -v for m, v in source.terms.items() if m != (symbol,)}
    counts = [mono.count(symbol) for mono in row.terms]
    top = max(counts, default=0)
    c_powers = [1]
    for _ in range(top):
        c_powers.append(c_powers[-1] * c)
    r_powers: list[dict] = [{(): 1}]  # (-r)^j, built as needed
    terms: dict[Monomial, int] = {}
    for (mono, coeff), count in zip(row.terms.items(), counts):
        coeff *= c_powers[top - count]
        if not count:
            terms[mono] = terms.get(mono, 0) + coeff
            continue
        i = mono.index(symbol)  # a monomial is sorted: its copies are adjacent
        rest = mono[:i] + mono[i + count :]
        while len(r_powers) <= count:
            r_powers.append(_times(r_powers[-1], minus_r))
        for m, v in r_powers[count].items():
            m = _merge(rest, m)
            terms[m] = terms.get(m, 0) + coeff * v
    content = gcd(*terms.values())
    if not content:
        return Poly()
    return Poly({m: v // content for m, v in terms.items()})


def str_reference(poly: Poly) -> str:
    if not poly.terms:
        return "0"
    parts: list[str] = []
    for mono, coeff in reversed(sorted(poly.terms.items(), key=lambda kv: _monomial_key(kv[0]))):
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
