"""Factorization and partially-known multiplicative functions.

A multiplicative function is determined by its values on prime powers, so
the assignment state maps each tracked site p^e to its known rational, or
to None while f(p^e) is still an unknown; the unknown is the site itself.
Evaluation at any n multiplies the entries of its coprime prime-power
factors; f(1) = 1 is built in (multiplicative and not identically zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .poly import Poly, Rational


class SiteConflictError(ValueError):
    """A site was assigned two different values: engine bug or bad branch."""


@dataclass(frozen=True)
class Factorization:
    """Prime factorization with strictly ascending primes; () encodes 1."""

    pairs: tuple[tuple[int, int], ...]

    def value(self) -> int:
        n = 1
        for p, e in self.pairs:
            n *= p**e
        return n


# Trial division with a 2,3,5 wheel; arguments stay small (<= ~10^7).
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


@lru_cache(maxsize=1 << 18)
def factorize(n: int) -> Factorization:
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    pairs: list[tuple[int, int]] = []
    m = n
    for p in (2, 3, 5):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
    p = 7
    i = 0
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
        p += _WHEEL[i]
        i = (i + 1) & 7
    if m > 1:
        pairs.append((m, 1))
    return Factorization(tuple(pairs))


def is_prime_power(n: int) -> bool:
    return len(factorize(n).pairs) == 1


def prime_power_split(n: int) -> tuple[int, int]:
    """(p, e) for a prime power n."""
    pairs = factorize(n).pairs
    if len(pairs) != 1:
        raise ValueError(f"{n} is not a prime power")
    return pairs[0]


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    p = 2
    while p * p <= n:
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        p += 1
    return [i for i in range(2, n + 1) if sieve[i]]


def prime_powers_upto(n: int) -> list[int]:
    """All p^e <= n, ascending."""
    out: list[int] = []
    for p in primes_upto(n):
        q = p
        while q <= n:
            out.append(q)
            q *= p
    out.sort()
    return out


class PartialFunction:
    """Assignment state of a multiplicative function on prime-power sites."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: dict[int, Optional[Fraction]] = {}

    def copy(self) -> "PartialFunction":
        dup = PartialFunction()
        dup._entries = dict(self._entries)
        return dup

    # -- sites ---------------------------------------------------------

    def ensure_site(self, site: int) -> Optional[Fraction]:
        """Known value of the site, tracking it as an unknown (None) if new."""
        if site not in self._entries:
            if not is_prime_power(site):
                raise ValueError(f"{site} is not a prime power site")
            self._entries[site] = None
        return self._entries[site]

    def known(self, site: int) -> Optional[Fraction]:
        return self._entries.get(site)

    def assigned_table(self, limit: Optional[int] = None) -> dict[int, Fraction]:
        return {
            site: value
            for site, value in sorted(self._entries.items())
            if value is not None and (limit is None or site <= limit)
        }

    def unassigned_sites(self, limit: Optional[int] = None) -> list[int]:
        return [
            site
            for site, value in sorted(self._entries.items())
            if value is None and (limit is None or site <= limit)
        ]

    # -- assignment ------------------------------------------------------

    def assign(self, site: int, value: Rational) -> None:
        """Record f(site) = value.  Idempotent; conflicting values raise."""
        value = Fraction(value)
        current = self._entries.get(site)
        if current is not None:
            if current != value:
                raise SiteConflictError(
                    f"f({site}) already {current}, refusing {value}"
                )
            return
        if site not in self._entries and not is_prime_power(site):
            raise ValueError(f"{site} is not a prime power site")
        self._entries[site] = value

    # -- evaluation --------------------------------------------------------

    def evaluate(self, n: int) -> Poly:
        """Multiplicative evaluation as a polynomial in the unknown sites."""
        if n == 1:
            return Poly.const(1)
        coeff = Fraction(1)
        mono: list[int] = []
        for p, e in factorize(n).pairs:
            site = p**e
            value = self.ensure_site(site)
            if value is None:
                mono.append(site)
            else:
                coeff *= value
        mono.sort()
        return Poly({tuple(mono): coeff})

    def peek(self, n: int) -> tuple[Optional[Poly], tuple[int, ...]]:
        """Like evaluate but never allocates; missing sites are reported."""
        if n == 1:
            return Poly.const(1), ()
        coeff = Fraction(1)
        mono: list[int] = []
        missing: list[int] = []
        for p, e in factorize(n).pairs:
            site = p**e
            if site not in self._entries:
                missing.append(site)
                continue
            value = self._entries[site]
            if value is None:
                mono.append(site)
            else:
                coeff *= value
        if missing:
            return None, tuple(missing)
        mono.sort()
        return Poly({tuple(mono): coeff}), ()

    def known_value(self, n: int) -> Optional[Fraction]:
        """f(n) when every site of n is known, else None."""
        if n == 1:
            return Fraction(1)
        acc = Fraction(1)
        for p, e in factorize(n).pairs:
            value = self._entries.get(p**e)
            if value is None:
                return None
            acc *= value
        return acc

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        known = sum(1 for v in self._entries.values() if v is not None)
        return f"PartialFunction({known} known / {len(self._entries)} sites)"


def identity_table(limit: int) -> dict[int, Fraction]:
    """The identity assignment f(p^e) = p^e on all sites up to limit."""
    return {site: Fraction(site) for site in prime_powers_upto(limit)}
