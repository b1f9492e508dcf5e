"""Factorization and partially-known multiplicative functions.

A multiplicative function is determined by its values on prime powers, so
the assignment state maps each tracked site p^e to its known rational, or
to None while f(p^e) is still an unknown; the unknown is the site itself.
Evaluation at any n multiplies the entries of its coprime prime-power
factors; f(1) = 1 is built in (multiplicative and not identically zero).
A known value is kept as an ``int`` while it is integral, as it is on every
branch the engine forces, and as a ``Fraction`` otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .poly import Poly, Rational, Scalar, as_scalar


class SiteConflictError(ValueError):
    """A site was assigned two different values: engine bug or bad branch."""


# Trial division by 2, 3, 5, 7, then by the 2,3,5 wheel, whose steps repeat
# from index 3; arguments stay small (<= ~10^7).
_STEPS = (1, 2, 2, 4, 2, 4, 2, 4, 6, 2, 6)


@lru_cache(maxsize=1 << 18)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """(p, e) pairs of n with strictly ascending primes; () encodes 1."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    pairs: list[tuple[int, int]] = []
    m = n
    p = 2
    i = 0
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
        p += _STEPS[i]
        i = i + 1 if i < 10 else 3
    if m > 1:
        pairs.append((m, 1))
    return tuple(pairs)


# Sites are below 2^64.  Miller-Rabin with the primes up to 37 as bases has
# no strong pseudoprime below 3.1 * 10^23, so the test below is exact there.
SITE_LIMIT = 1 << 64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime_power(n: int) -> bool:
    """Whether n = p^e with p prime and e >= 1, for n < SITE_LIMIT.

    The cost grows with the digits of n, not with its size: each candidate
    exponent e gives one integer root to test for primality.
    """
    if n >= SITE_LIMIT:
        raise ValueError(f"{n} is not below 2^64")
    if n < 2:
        return False
    if _is_prime(n):
        return True
    for e in range(2, n.bit_length()):
        # the root is below 2^32, so the float is within 1/2 of it
        root = round(n ** (1 / e))
        if root**e == n and _is_prime(root):
            return True
    return False


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

    __slots__ = ("_entries", "revision", "_states")

    def __init__(self) -> None:
        self._entries: dict[int, Optional[Scalar]] = {}
        # bumped on every change of the entries: a new site or a new value
        self.revision = 0
        self._states: Optional[tuple[int, list]] = None  # see peek_multiples

    @classmethod
    def upto(cls, bound: int) -> "PartialFunction":
        """Every prime-power site <= bound tracked as unknown, as ensure_site
        would leave them; the sites are prime powers by construction."""
        pf = cls()
        pf._entries = dict.fromkeys(prime_powers_upto(bound))
        pf.revision = len(pf._entries)
        return pf

    def copy(self) -> "PartialFunction":
        dup = PartialFunction()
        dup._entries = dict(self._entries)
        dup.revision = self.revision
        return dup

    # -- sites ---------------------------------------------------------

    def ensure_site(self, site: int) -> Optional[Scalar]:
        """Known value of the site, tracking it as an unknown (None) if new."""
        if site not in self._entries:
            if not is_prime_power(site):
                raise ValueError(f"{site} is not a prime power site")
            self._entries[site] = None
            self.revision += 1
        return self._entries[site]

    def known(self, site: int) -> Optional[Scalar]:
        return self._entries.get(site)

    def assigned_table(self, limit: Optional[int] = None) -> dict[int, Fraction]:
        return {
            site: Fraction(value)
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
        value = as_scalar(value)
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
        self.revision += 1

    # -- evaluation --------------------------------------------------------

    def _state(self, n: int) -> tuple[tuple[int, ...], Scalar, tuple[int, ...]]:
        """The untracked sites of n, the product of its known values and its
        unknown sites; the sites in ascending order of their primes."""
        untracked: list[int] = []
        unknown: list[int] = []
        coeff: Scalar = 1
        for p, e in factorize(n):
            q = p**e
            if q not in self._entries:
                untracked.append(q)
            elif self._entries[q] is None:
                unknown.append(q)
            else:
                coeff *= self._entries[q]
        return tuple(untracked), coeff, tuple(unknown)

    def evaluate(self, n: int) -> Poly:
        """Multiplicative evaluation as a polynomial in the unknown sites."""
        untracked, coeff, unknown = self._state(n)
        for site in untracked:
            self.ensure_site(site)
        return Poly({tuple(sorted(untracked + unknown)): coeff})

    def peek(self, n: int, site: int) -> tuple[Scalar, Scalar, tuple[int, ...]]:
        """f(n) as A*x + B in x = f(site), and the sites that block it.

        Never tracks a site.  ``blocking`` lists the untracked sites of n
        if there are any, else its unknown sites other than ``site``; A and
        B are meaningful only when it is empty.  A known factor 0 makes
        f(n) = 0 whatever the unknowns: (0, 0, ()).
        """
        untracked, coeff, unknown = self._state(n)
        if untracked:
            return 0, 0, untracked
        if not coeff:
            return 0, 0, ()
        if not unknown:
            return 0, coeff, ()
        if unknown == (site,):
            return coeff, 0, ()
        return 0, 0, tuple(q for q in unknown if q != site)

    def peek_multiples(self, base: int, site: int, first: int, last: int) -> dict[int, tuple[Scalar, Scalar]]:
        """``peek(m * base, site)`` as (A, B) for each m in first..last prime
        to the prime power base where it does not block; ``site`` is a power
        of the same prime, as in the derivation scan.

        f(m * base) = f(m) * f(base), and the states of f(m) for m <= last
        are kept until the revision changes, so no m * base is factorized.
        The check per m restates ``peek``'s order for the case where only
        base can be ``site``: an untracked site blocks, else a known factor
        0 gives (0, 0), else an unknown site other than ``site`` blocks.
        """
        if self._states is None or self._states[0] != self.revision or len(self._states[1]) <= last:
            self._states = (self.revision, [None] + [self._state(m) for m in range(1, last + 1)])
        states = self._states[1]
        ((p, _),) = factorize(base)
        base_untracked, base_value, base_unknown = self._state(base)
        lefts: dict[int, tuple[Scalar, Scalar]] = {}
        for m in range(first, last + 1):
            untracked, value, unknown = states[m]
            if base_untracked or untracked or m % p == 0:
                continue
            left = value * base_value
            if not left:
                lefts[m] = (0, 0)
            elif not unknown and not (base_unknown and base != site):
                lefts[m] = (left, 0) if base_unknown else (0, left)
        return lefts

    def known_value(self, n: int) -> Optional[Scalar]:
        """f(n) when every site of n is known, else None."""
        untracked, coeff, unknown = self._state(n)
        return None if untracked or unknown else coeff

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        known = sum(1 for v in self._entries.values() if v is not None)
        return f"PartialFunction({known} known / {len(self._entries)} sites)"


def identity_table(limit: int) -> dict[int, Fraction]:
    """The identity assignment f(p^e) = p^e on all sites up to limit."""
    return {site: Fraction(site) for site in prime_powers_upto(limit)}
