"""Reference sieve: every level as a forward bitmap of shift-ORs.

`expressibility_sieve_reference` is `sqadd.squares.expressibility_sieve` as
it was before the dense levels were built bit-reversed and the sparse ones
from their complement: level 1 is the squares, and level j + 1 ORs level j
shifted left by each square, masked to bits 0..bound.  The only edit is the
name.  The differential tests compare the two ints exactly.
"""

from sqadd.squares import SIEVE_MAX_BOUND


def expressibility_sieve_reference(k: int, bound: int) -> int:
    """Level k as a bitmask: bit n set iff n <= bound is a sum of k positive squares.

    Level 1 is the squares, and level j + 1 ORs level j shifted by each
    square.  Only the level being extended is kept while the next is built.
    """
    if k < 1 or bound < 1:
        raise ValueError("k and bound must be positive")
    if bound > SIEVE_MAX_BOUND:
        raise ValueError(f"bound {bound} is above the sieve's ceiling of {SIEVE_MAX_BOUND}")
    mask = (1 << (bound + 1)) - 1
    level = 0
    a = 1
    while a * a <= bound:
        level |= 1 << (a * a)
        a += 1
    for _ in range(1, k):
        prev, level = level, 0
        a = 1
        while a * a <= bound - 1:
            level |= prev << (a * a)
            a += 1
        level &= mask
    return level
