"""Factorization and partially-known multiplicative functions.

A multiplicative function is determined by its values on prime powers, so
the assignment state is a map from sites p^e to either a known rational or
a polynomial symbol.  Evaluation at any n multiplies the entries of its
coprime prime-power factors; f(1) = 1 is built in (multiplicative and not
identically zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .poly import Poly, Rational, Symbol


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


Entry = Union[Fraction, Symbol]


class PartialFunction:
    """Assignment state of a multiplicative function on prime-power sites."""

    __slots__ = ("_entries", "_next_id")

    def __init__(self) -> None:
        self._entries: dict[int, Entry] = {}
        self._next_id = 0

    def copy(self) -> "PartialFunction":
        dup = PartialFunction()
        dup._entries = dict(self._entries)
        dup._next_id = self._next_id
        return dup

    # -- sites ---------------------------------------------------------

    def ensure_site(self, site: int) -> Entry:
        """Existing entry for the site, allocating a fresh Symbol if new."""
        entry = self._entries.get(site)
        if entry is None:
            if not is_prime_power(site):
                raise ValueError(f"{site} is not a prime power site")
            entry = Symbol(self._next_id, site)
            self._next_id += 1
            self._entries[site] = entry
        return entry

    def known(self, site: int) -> Optional[Fraction]:
        entry = self._entries.get(site)
        return entry if isinstance(entry, Fraction) else None

    def symbol_for(self, site: int) -> Optional[Symbol]:
        entry = self._entries.get(site)
        return entry if isinstance(entry, Symbol) else None

    def assigned_table(self, limit: Optional[int] = None) -> dict[int, Fraction]:
        return {
            site: entry
            for site, entry in sorted(self._entries.items())
            if isinstance(entry, Fraction) and (limit is None or site <= limit)
        }

    def unassigned_sites(self, limit: Optional[int] = None) -> list[int]:
        return [
            site
            for site, entry in sorted(self._entries.items())
            if isinstance(entry, Symbol) and (limit is None or site <= limit)
        ]

    # -- assignment ------------------------------------------------------

    def assign(self, site: int, value: Rational) -> None:
        """Record f(site) = value.  Idempotent; conflicting values raise."""
        value = Fraction(value)
        current = self._entries.get(site)
        if isinstance(current, Fraction):
            if current != value:
                raise SiteConflictError(
                    f"f({site}) already {current}, refusing {value}"
                )
            return
        if current is None and not is_prime_power(site):
            raise ValueError(f"{site} is not a prime power site")
        self._entries[site] = value

    # -- evaluation --------------------------------------------------------

    def evaluate(self, n: int) -> Poly:
        """Multiplicative evaluation as a polynomial in the unknown sites."""
        if n == 1:
            return Poly.const(1)
        coeff = Fraction(1)
        mono: list[Symbol] = []
        for p, e in factorize(n).pairs:
            entry = self.ensure_site(p**e)
            if isinstance(entry, Fraction):
                coeff *= entry
            else:
                mono.append(entry)
        mono.sort(key=Symbol.sort_key)
        return Poly({tuple(mono): coeff})

    def peek(self, n: int) -> tuple[Optional[Poly], tuple[int, ...]]:
        """Like evaluate but never allocates; missing sites are reported."""
        if n == 1:
            return Poly.const(1), ()
        coeff = Fraction(1)
        mono: list[Symbol] = []
        missing: list[int] = []
        for p, e in factorize(n).pairs:
            entry = self._entries.get(p**e)
            if entry is None:
                missing.append(p**e)
            elif isinstance(entry, Fraction):
                coeff *= entry
            else:
                mono.append(entry)
        if missing:
            return None, tuple(missing)
        mono.sort(key=Symbol.sort_key)
        return Poly({tuple(mono): coeff}), ()

    def known_value(self, n: int) -> Optional[Fraction]:
        """f(n) when every site of n is known, else None."""
        if n == 1:
            return Fraction(1)
        acc = Fraction(1)
        for p, e in factorize(n).pairs:
            entry = self._entries.get(p**e)
            if not isinstance(entry, Fraction):
                return None
            acc *= entry
        return acc

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        known = sum(1 for v in self._entries.values() if isinstance(v, Fraction))
        return f"PartialFunction({known} known / {len(self._entries)} sites)"


def identity_table(limit: int) -> dict[int, Fraction]:
    """The identity assignment f(p^e) = p^e on all sites up to limit."""
    return {site: Fraction(site) for site in prime_powers_upto(limit)}
