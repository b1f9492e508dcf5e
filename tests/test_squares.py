"""Enumerating representations and exceptional sets, checked against brute force."""

import sys
from itertools import combinations_with_replacement
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqadd import squares
from sqadd.squares import (
    SIEVE_MAX_BOUND,
    _part_tuples,
    dubouis_reference_set,
    enumerate_representations,
    exceptional_set,
    expressibility_sieve,
    hurwitz_exceptions,
    hurwitz_reference_set,
    is_expressible,
)


def brute_force_parts(n: int, k: int) -> list[tuple[int, ...]]:
    """Independent oracle: scan all nondecreasing k-tuples up to isqrt(n)."""
    out = []
    for parts in combinations_with_replacement(range(1, isqrt(n) + 1), k):
        if sum(a * a for a in parts) == n:
            out.append(parts)
    return out


def unpruned_part_tuples(n: int, k: int, cap) -> tuple[tuple[int, ...], ...]:
    """The backtracking enumerator with no residue pruning: every remainder
    is searched, whether or not it can be a sum of the parts left."""
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def rec(remaining: int, slots: int, lo: int) -> None:
        hi = isqrt(remaining // slots)
        if slots == 2:
            for v in range(lo, hi + 1):
                w = isqrt(remaining - v * v)
                if w * w == remaining - v * v:
                    out.append((*prefix, v, w))
                    if len(out) == cap:
                        return
            return
        for v in range(lo, hi + 1):
            prefix.append(v)
            rec(remaining - v * v, slots - 1, v)
            prefix.pop()
            if len(out) == cap:
                return

    rec(n, k, 1)
    return tuple(out)


class TestEnumerate:
    def test_28_into_4_contains_both_published_pairs(self):
        parts = enumerate_representations(28, 4)
        assert (1, 3, 3, 3) in parts
        assert (2, 2, 2, 4) in parts

    def test_28_into_4_exact_set(self):
        # oracle: brute force over a1 <= a2 <= a3 <= a4 <= 5
        expected = brute_force_parts(28, 4)
        assert expected == [(1, 1, 1, 5), (1, 3, 3, 3), (2, 2, 2, 4)]
        assert enumerate_representations(28, 4) == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 9])
    def test_n_equal_k_is_all_ones(self, k):
        assert enumerate_representations(k, k) == [(1,) * k]

    def test_12_into_3(self):
        expected = brute_force_parts(12, 3)
        assert expected == [(2, 2, 2)]
        assert enumerate_representations(12, 3) == expected

    def test_matches_brute_force_broadly(self):
        for n in range(1, 120):
            for k in range(1, 6):
                got = enumerate_representations(n, k)
                assert got == brute_force_parts(n, k), (n, k)

    def test_lexicographic_order(self):
        reps = enumerate_representations(300, 4)
        assert reps == sorted(reps)

    @given(
        n=st.integers(min_value=1, max_value=400),
        k=st.integers(min_value=1, max_value=6),
        cap=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_cap_is_a_prefix(self, n, k, cap):
        full = enumerate_representations(n, k)
        capped = enumerate_representations(n, k, cap)
        assert capped == full[:cap]

    @given(
        n=st.integers(min_value=0, max_value=400),
        k=st.integers(min_value=1, max_value=5),
        cap=st.sampled_from([None, 1, 64]),
    )
    @settings(max_examples=150, deadline=None)
    def test_part_tuples_match_brute_force(self, n, k, cap):
        assert _part_tuples(n, k, cap) == tuple(brute_force_parts(n, k)[:cap])

    # Every residue class mod 8 and every power of 4 reaches the two- and
    # three-slot remainders.  For k = 5 and 6 the bound is lower where the
    # lists are long: to 2000 without a cap they hold 1.5 million tuples.
    @pytest.mark.parametrize("cap", [None, 1, 64])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_residue_pruning_drops_no_tuple(self, k, cap):
        top = 2000 if k <= 4 or cap == 1 else {None: 500, 64: 1000}[cap]
        for n in range(1, top + 1):
            assert _part_tuples.__wrapped__(n, k, cap) == unpruned_part_tuples(n, k, cap), n

    # The enumerator keeps a stack of open parts, not one Python call per
    # part, so it runs for any k under the default recursion limit.  The
    # reference recurses, so only its call gets a raised limit.
    @pytest.mark.parametrize("cap", [None, 1, 3, 64])
    @pytest.mark.parametrize("k", [1000, 2500])
    def test_large_k_matches_the_reference(self, k, cap):
        limit = sys.getrecursionlimit()
        for n in range(k - 1, k + 120):
            sys.setrecursionlimit(limit + 2 * k)
            try:
                expected = unpruned_part_tuples(n, k, cap)
            finally:
                sys.setrecursionlimit(limit)
            assert _part_tuples.__wrapped__(n, k, cap) == expected, n

    def test_invariants_exhaustive(self):
        # every returned representation has exactly k parts, all positive,
        # nondecreasing, whose squares sum back to n
        for n in range(1, 10_001):
            for parts in enumerate_representations(n, 3):
                assert len(parts) == 3
                assert parts[0] >= 1
                assert all(a <= b for a, b in zip(parts, parts[1:]))
                assert sum(a * a for a in parts) == n

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_representations(0, 3)
        with pytest.raises(ValueError):
            enumerate_representations(5, 0)
        with pytest.raises(ValueError):
            enumerate_representations(5, 3, 0)


class TestExpressible:
    def test_33_not_five_squares(self):
        assert not is_expressible(33, 5)

    def test_4_not_three_squares(self):
        assert not is_expressible(4, 3)

    @pytest.mark.parametrize("k", range(5, 13))
    def test_k_plus_3_always_expressible(self, k):
        assert is_expressible(k + 3, k)
        assert brute_force_parts(k + 3, k)

    def test_agrees_with_enumerator(self):
        for n in range(1, 500):
            for k in range(1, 8):
                assert is_expressible(n, k) == bool(enumerate_representations(n, k, 1))

    def test_never_reads_the_sieve(self, monkeypatch):
        # the enumerator/sieve differential of acceptance criterion 6 holds
        # only while the enumerator is independent of the sieve
        levels = [None] + [expressibility_sieve(k, 2000)[k] for k in range(1, 9)]

        def refuse(*args):
            raise AssertionError("the enumerator read the sieve")

        monkeypatch.setattr(squares, "expressibility_sieve", refuse)
        _part_tuples.cache_clear()
        for k in range(1, 9):
            for n in range(1, 2001):
                assert is_expressible(n, k) == bool(levels[k] >> n & 1), (n, k)
        for k in range(2, 9):
            for n in range(1, 301):
                assert enumerate_representations(n, k) == list(unpruned_part_tuples(n, k, None)), n

    def test_bound_above_the_ceiling_is_refused_before_building(self):
        # the refusal allocates nothing: the bitmap here would be 12.5 GB
        for bound in (SIEVE_MAX_BOUND + 1, 10**11):
            with pytest.raises(ValueError, match="ceiling"):
                expressibility_sieve(3, bound)
        with pytest.raises(ValueError, match="ceiling"):
            hurwitz_exceptions(10**11)

    def test_monotone_padding(self):
        # n a sum of k positive squares implies n+1 is one of k+1
        sieves = {k: expressibility_sieve(k, 2001)[k] for k in range(1, 11)}
        for k in range(1, 10):
            cur, nxt = sieves[k], sieves[k + 1]
            for n in range(1, 2000):
                if (cur >> n) & 1:
                    assert (nxt >> (n + 1)) & 1, (n, k)


class TestExceptionalSets:
    def test_five_squares_bound_40(self):
        got = exceptional_set(5, 40)
        assert got == (1, 2, 3, 4, 6, 7, 9, 10, 12, 15, 18, 33)

    def test_four_squares_bound_50(self):
        got = exceptional_set(4, 50)
        assert got == (1, 2, 3, 5, 6, 8, 9, 11, 14, 17, 24, 29, 32, 41)
        # the bound itself is the last member, so its bit is the top one read
        assert exceptional_set(4, 41) == got
        assert exceptional_set(4, 1) == (1,)

    def test_six_squares_bound_25(self):
        got = exceptional_set(6, 25)
        assert got == (1, 2, 3, 4, 5, 7, 8, 10, 11, 13, 16, 19)

    def test_agrees_with_per_n_search(self):
        # bounds at, just below and past a byte edge of the bitmap
        for k in (3, 4, 5, 6):
            for bound in (1, 7, 8, 9, 300):
                batch = exceptional_set(k, bound)
                slow = tuple(n for n in range(1, bound + 1) if not is_expressible(n, k))
                assert batch == slow, (k, bound)

    def test_validation(self):
        with pytest.raises(ValueError):
            exceptional_set(2, 100)


class TestDubouisReference:
    def test_k4_bound_50(self):
        assert dubouis_reference_set(4, 50) == [
            1, 2, 3, 5, 6, 8, 9, 11, 14, 17, 24, 29, 32, 41,
        ]

    def test_k5_bound_40(self):
        assert dubouis_reference_set(5, 40) == [
            1, 2, 3, 4, 6, 7, 9, 10, 12, 15, 18, 33,
        ]

    def test_k7_bound_25(self):
        assert dubouis_reference_set(7, 25) == [
            1, 2, 3, 4, 5, 6, 8, 9, 11, 12, 14, 17, 20,
        ]

    def test_k5_union_confirmed_by_search(self):
        # the k = 5 list is the generic k >= 5 pattern plus the value 33
        assert dubouis_reference_set(5, 2000) == [
            n for n in range(1, 2001) if not is_expressible(n, 5)
        ]

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            dubouis_reference_set(3, 100)


class TestHurwitz:
    def test_bound_1100(self):
        got = hurwitz_exceptions(1100)
        assert got == [1, 4, 16, 25, 64, 100, 256, 400, 1024]
        # the bound itself is the last member, so its bit is the top one read
        assert hurwitz_exceptions(1024) == got

    def test_bound_3(self):
        assert hurwitz_exceptions(3) == [1]
        assert hurwitz_exceptions(1) == [1]

    def test_matches_closed_form_to_10_4(self):
        assert hurwitz_exceptions(10_000) == hurwitz_reference_set(10_000)

    def test_closed_form_values(self):
        assert hurwitz_reference_set(110) == [1, 4, 16, 25, 64, 100]
