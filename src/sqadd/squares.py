"""Sums of k positive squares: enumeration, expressibility, exceptional sets.

Two independent routes answer "is n a sum of k positive squares":

* a lexicographic backtracking enumerator (per-n, early exit, cap as a
  prefix of the full ordered list), which skips remainders that Fermat's
  two-square and Legendre's three-square residue classes rule out, and
* a dynamic-programming sieve over all n <= N at once, in two phases:
  levels 1..4 are dense bitmaps built by shift-ORs, and from level 4 on,
  where level j's complement is 1..j - 1 and O(log N) offsets above j,
  each level steps those offsets until a step leaves them unchanged.

The enumerator never reads the sieve, so each route checks the other.

The exceptional-set routines compare the searched sets against closed-form
reference lists, which is the point of the whole module.  They read the
sieve, never the enumerator, and each takes the one level it needs:
`exceptional_set` reads level k's complement with one regex scan of its
bit-reversed binary string, and `hurwitz_exceptions` reads level 2 and
evaluates level 3's recurrence at the squares only.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import isqrt
from typing import Iterator, Optional


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


# The largest bound the sieve takes: the level it returns is a bitmap of
# bound + 1 bits, 12.5 MB at this ceiling.
SIEVE_MAX_BOUND = 10**8

# Byte i with its bits in reverse order, built by doubling: the upper half
# of each table is the lower half with the next bit down set.
_REVERSED_BYTE = b"\x00"
for _bit in (128, 64, 32, 16, 8, 4, 2, 1):
    _REVERSED_BYTE += bytes(x | _bit for x in _REVERSED_BYTE)
del _bit

_ONE = re.compile("1")


def _reversed(x: int, top: int) -> int:
    """x < 2^(top + 1) with each bit n moved to bit top - n.

    Bit t of the little-endian bytes, each byte's bits reversed, is bit
    8 * len - 1 - t of the same bytes read big-endian.
    """
    raw = x.to_bytes(top // 8 + 1, "little").translate(_REVERSED_BYTE)
    return int.from_bytes(raw, "big") >> (7 - top % 8)


def _members(reversed_set: int) -> tuple[int, ...]:
    """The n >= 1 of a set held with bit top - n standing for n, ascending.

    Bit top stands for 0 and must be set: then the binary string has
    top + 1 digits and digit n stands for n, so one regex scan of that
    one string finds the members in C.
    """
    return tuple(map(re.Match.start, _ONE.finditer(format(reversed_set, "b"), 1)))


def _next_tail(tail: list[int]) -> list[int]:
    """Level j + 1's complement above j + 1 from level j's above j, as offsets.

    j + 1 + t - a^2 is level j's offset t + 1 - a^2 (0 is j, a sum of j
    squares), so t is kept iff every a with a^2 <= t + 1 leaves one in `tail`.
    """
    members = set(tail)
    return [t for t in tail if all(t + 1 - a * a in members for a in range(2, isqrt(t + 1) + 1))]


def expressibility_sieve(k: int, bound: int) -> int:
    """Level k as a bitmask: bit n set iff n <= bound is a sum of k positive squares.

    Levels 1..min(k, 4) are built with bit bound - n standing for n.
    Level 1 is the squares, and level j + 1 ORs level j shifted right by
    each square a^2 < bound: the sums above the bound fall off the low end,
    so no intermediate is wider than bound + 1 bits.  For k <= 4 one bit
    reversal turns that level into the returned one.

    Levels 5..k step the complement: 1..j - 1 for level j and a tail of
    offsets t for j + t, which `_next_tail` steps.  Level 4 hands over as
    its tail has O(log bound) members (sporadic ones and 2 * 4^m, 6 * 4^m,
    14 * 4^m), where level 3's complement has about bound / 6.  The step
    only removes offsets, so the first step that changes nothing ends the
    loop whatever k is (from level 6 on the tail is 1, 2, 4, 5, 7, 10, 13).
    Keeping t reads only offsets below t: the bound cuts once, at level k.
    """
    if k < 1 or bound < 1:
        raise ValueError("k and bound must be positive")
    if bound > SIEVE_MAX_BOUND:
        raise ValueError(f"bound {bound} is above the sieve's ceiling of {SIEVE_MAX_BOUND}")
    raw = bytearray(bound // 8 + 1)
    for a in range(1, isqrt(bound) + 1):
        b = bound - a * a
        raw[b >> 3] |= 1 << (b & 7)
    level = int.from_bytes(raw, "little")
    squares = [a * a for a in range(1, isqrt(bound - 1) + 1)]
    for _ in range(1, min(k, 4)):
        prev, level = level, 0
        for s in squares:
            level |= prev >> s
    if k <= 4:
        return _reversed(level, bound)
    # bit bound, which stands for 0, is never in a level, so it is in the complement
    tail = [n - 4 for n in _members(~level & ((1 << (bound + 1)) - 1)) if n > 4]
    for _ in range(4, k):
        tail, last = _next_tail(tail), tail
        if tail == last:
            break
    clear = sum(1 << (k + t) for t in tail if k + t <= bound)
    return ((1 << (bound + 1)) - (1 << min(k, bound + 1))) ^ clear


def exceptional_set(
    k: int, bound: int, level: Optional[int] = None
) -> tuple[int, ...]:
    """All n <= bound that are not sums of k positive squares, ascending.

    `level` is expressibility_sieve(k, bound) when the caller already has
    it; otherwise the sieve is built here.  The complement of bits 1..bound,
    with bit 0 set, is bit-reversed up to its highest member and read by
    `_members`, so the call holds one binary string as long as that member
    and no reversed copy of it.
    """
    if k < 3:
        raise ValueError(f"exceptional_set requires k >= 3, got {k}")
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    if level is None:
        level = expressibility_sieve(k, bound)
    clear = ~level & ((1 << (bound + 1)) - 2) | 1
    return _members(_reversed(clear, clear.bit_length() - 1))


def hurwitz_exceptions(bound: int, level: Optional[int] = None) -> list[int]:
    """Perfect squares <= bound that are not sums of three positive squares.

    `level` is expressibility_sieve(2, bound) when the caller already has
    it; otherwise it is built here.  Level 3 is decided at the squares
    only, so it is never built: with a the smallest part, m^2 is a sum of
    three positive squares iff some a with 3a^2 <= m^2 leaves m^2 - a^2 set
    in level 2.  That is the sieve's own recurrence, read from level 2's
    bytes and stopped at the first hit for each m.
    """
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    if level is None:
        level = expressibility_sieve(2, bound)
    raw = level.to_bytes(bound // 8 + 1, "little")
    out = []
    for m in range(1, isqrt(bound) + 1):
        square = m * m
        for a in range(1, isqrt(square // 3) + 1):
            r = square - a * a
            if raw[r >> 3] >> (r & 7) & 1:
                break
        else:
            out.append(square)
    return out


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
        values.update(range(1, min(k, bound + 1)))
        values.update((k + 1, k + 2, k + 4, k + 5, k + 7, k + 10, k + 13))
        if k == 5:
            values.add(33)
    return sorted(v for v in values if v <= bound)
