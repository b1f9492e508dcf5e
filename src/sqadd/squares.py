"""Sums of k positive squares: enumeration, expressibility, exceptional sets.

Two independent routes answer "is n a sum of k positive squares":

* a lexicographic backtracking enumerator (per-n, early exit, cap as a
  prefix of the full ordered list), which skips remainders that Fermat's
  two-square and Legendre's three-square residue classes rule out, and
* a dynamic-programming bitmask sieve over all n <= N at once.

The enumerator never reads the sieve, so each route checks the other.

The exceptional-set routines compare the searched sets against closed-form
reference lists, which is the point of the whole module.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Iterable, Iterator, Optional


@lru_cache(maxsize=1 << 17)
def _part_tuples(n: int, k: int, cap: Optional[int]) -> tuple[tuple[int, ...], ...]:
    if n < k:
        return ()
    if k == 1:
        r = isqrt(n)
        return ((r,),) if r * r == n else ()
    out: list[tuple[int, ...]] = []
    # One frame per open level: its remainder and an iterator over its
    # candidate parts; prefix holds each open level's current part.  A loop
    # over this stack, not one Python call per part, so any k runs.
    frames: list[tuple[int, Iterator[int]]] = []
    prefix: list[int] = []
    remaining, slots, lo = n, k, 1
    while True:
        # smallest remaining part v satisfies slots * v^2 <= remaining
        if slots > 3:
            frames.append((remaining, iter(range(lo, isqrt(remaining // slots) + 1))))
            prefix.append(0)
        else:
            # the last two or three parts.  4m = x^2 + y^2 (+ z^2) forces
            # every part even, so m is a sum of as many positive squares.
            # Past the factors of 4, two squares are never 3, 6 or 7 mod 8
            # (Fermat) and three never 7 (Legendre)
            if slots == 3:
                m = remaining
                while not m & 3:
                    m >>= 2
                heads = () if m & 7 == 7 else range(lo, isqrt(remaining // 3) + 1)
            else:
                heads = (None,)
            for u in heads:
                rest, low, head = remaining, lo, prefix
                if u is not None:
                    rest, low, head = remaining - u * u, u, [*prefix, u]
                m = rest
                while not m & 3:
                    m >>= 2
                if m & 7 in (3, 6, 7):
                    continue
                # the last two parts v <= w in one loop: w^2 = rest - v^2
                # is at least v^2, so w >= v
                for v in range(low, isqrt(rest // 2) + 1):
                    r = rest - v * v
                    w = isqrt(r)
                    if w * w == r:
                        out.append((*head, v, w))
                        if cap is not None and len(out) >= cap:
                            return tuple(out)
        # on to the next part of the innermost level that has one left
        while frames:
            rest, parts = frames[-1]
            v = next(parts, None)
            if v is not None:
                prefix[-1] = v
                remaining, slots, lo = rest - v * v, k - len(frames), v
                break
            frames.pop()
            prefix.pop()
        else:
            return tuple(out)


def enumerate_representations(
    n: int, k: int, cap: Optional[int] = None
) -> list[tuple[int, ...]]:
    """Canonical representations of n into k positive squares.

    Each representation is its nondecreasing tuple of k parts a_i >= 1 with
    a_1^2 + ... + a_k^2 = n.  Output is in lexicographic order and a cap
    returns a prefix of the unlimited list.  Deterministic and pure.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be positive or None, got {cap}")
    return list(_part_tuples(n, k, cap))


def is_expressible(n: int, k: int) -> bool:
    """Whether n is a sum of k positive squares (early-exit search)."""
    return bool(enumerate_representations(n, k, 1))


# The largest bound the sieve takes: each level is a bitmap of bound + 1
# bits, 12.5 MB at this ceiling.
SIEVE_MAX_BOUND = 10**8


def expressibility_sieve(k: int, bound: int) -> list[int]:
    """Bitmasks E[1..k]; bit n of E[j] set iff n is a sum of j positive squares.

    E[0] is the empty-sum mask (bit 0 only) so indexing is by j directly.
    The masks are plain ints and safe to share once built.
    """
    if k < 1 or bound < 1:
        raise ValueError("k and bound must be positive")
    if bound > SIEVE_MAX_BOUND:
        raise ValueError(f"bound {bound} is above the sieve's ceiling of {SIEVE_MAX_BOUND}")
    mask = (1 << (bound + 1)) - 1
    squares = 0
    a = 1
    while a * a <= bound:
        squares |= 1 << (a * a)
        a += 1
    levels = [1, squares]
    for _ in range(2, k + 1):
        prev = levels[-1]
        cur = 0
        a = 1
        while a * a <= bound - 1:
            cur |= prev << (a * a)
            a += 1
        levels.append(cur & mask)
    return levels


def _clear_bits(level: int, bound: int, ns: Iterable[int]) -> Iterator[int]:
    """The n in ns (each 0 <= n <= bound) whose bit in the level is clear."""
    raw = level.to_bytes(bound // 8 + 1, "little")
    return (n for n in ns if not raw[n >> 3] >> (n & 7) & 1)


def exceptional_set(
    k: int, bound: int, level: Optional[int] = None
) -> tuple[int, ...]:
    """All n <= bound that are not sums of k positive squares, ascending.

    `level` is level k of expressibility_sieve(k, bound) when the caller
    already has it; otherwise the sieve is built here.
    """
    if k < 3:
        raise ValueError(f"exceptional_set requires k >= 3, got {k}")
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    if level is None:
        level = expressibility_sieve(k, bound)[k]
    return tuple(_clear_bits(level, bound, range(1, bound + 1)))


def hurwitz_exceptions(bound: int) -> list[int]:
    """Perfect squares <= bound that are not sums of three positive squares."""
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    level = expressibility_sieve(3, bound)[3]
    squares = (a * a for a in range(1, isqrt(bound) + 1))
    return list(_clear_bits(level, bound, squares))


def hurwitz_reference_set(bound: int) -> list[int]:
    """Closed form for the square exceptions: powers of 4 and 25 times them."""
    out = set()
    q = 1
    while q <= bound:
        out.add(q)
        if 25 * q <= bound:
            out.add(25 * q)
        q *= 4
    return sorted(out)


# Sporadic exceptions for sums of four positive squares, plus three
# geometric families 2*4^m, 6*4^m, 14*4^m.
_FOUR_SQUARE_SPORADIC = (1, 3, 5, 9, 11, 17, 29, 41)
_FOUR_SQUARE_FAMILIES = (2, 6, 14)


def dubouis_reference_set(k: int, bound: int) -> list[int]:
    """The closed-form exception list for sums of k positive squares, k >= 4.

    For k = 5 the list is the union of the generic k >= 5 pattern and the
    lone extra value 33 (confirmed against brute force by the test suite).
    """
    if k < 4:
        raise ValueError(f"no closed form for k = {k}; need k >= 4")
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    values: set[int] = set()
    if k == 4:
        values.update(_FOUR_SQUARE_SPORADIC)
        for f in _FOUR_SQUARE_FAMILIES:
            v = f
            while v <= bound:
                values.add(v)
                v *= 4
    else:
        values.update(range(1, k))
        values.update((k + 1, k + 2, k + 4, k + 5, k + 7, k + 10, k + 13))
        if k == 5:
            values.add(33)
    return sorted(v for v in values if v <= bound)
