"""Factorization and partial multiplicative function state."""

import random
from fractions import Fraction
from math import gcd, prod

import pytest
import reference_arith
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_poly import mul

from sqadd.arith import (
    SITE_LIMIT,
    PartialFunction,
    SiteConflictError,
    factorize,
    is_prime_power,
    prime_powers_upto,
)
from sqadd.poly import Poly


def spf_sieve(limit: int) -> list[int]:
    """Smallest-prime-factor table, the independent factorization oracle."""
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def trial_division(n: int, primes: list[int]) -> tuple[tuple[int, int], ...]:
    """(p, e) pairs of n by dividing by each prime in turn while p * p <= the rest."""
    pairs, m = [], n
    for p in primes:
        if p * p > m:
            break
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            pairs.append((p, e))
    if m > 1:
        pairs.append((m, 1))
    return tuple(pairs)


class TestFactorize:
    def test_examples(self):
        assert factorize(12) == ((2, 2), (3, 1))
        assert factorize(1) == ()
        assert factorize(9991) == ((97, 1), (103, 1))

    def test_round_trip_to_1e5(self):
        spf = spf_sieve(100_000)
        for n in range(1, 100_001):
            fact = factorize(n)
            assert prod(p**e for p, e in fact) == n
            # compare against the sieve-derived factorization
            m, pairs = n, []
            while m > 1:
                p = spf[m]
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                pairs.append((p, e))
            assert fact == tuple(pairs), n

    def test_products_of_large_primes_match_trial_division(self):
        spf = spf_sieve(101_000)
        primes = [p for p in range(2, len(spf)) if spf[p] == p]
        upto_5e4 = [p for p in primes if p <= 50_000]
        # the smallest primes, each against large cofactors
        factors = [(p, q) for p in upto_5e4[:20] for q in upto_5e4[-5:]]
        rng = random.Random(0)
        factors += [tuple(rng.sample(upto_5e4, 2)) for _ in range(500)]
        cases = [p * q for p, q in factors]
        cases += [p * p for p in primes if 99_000 <= p <= 101_000]
        for n in cases:
            assert factorize(n) == trial_division(n, primes), n

    def test_primes_ascending_and_prime(self):
        def naive_prime(p):
            return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

        for n in (360, 9991, 77777, 2**10 * 3**4 * 41):
            pairs = factorize(n)
            assert list(pairs) == sorted(pairs)
            assert all(naive_prime(p) for p, _ in pairs)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_a_square_doubles_the_exponents_of_its_root(self):
        # squares far from the ones other tests factorize, so each is a miss
        for a in [*range(10**6, 10**6 + 300), 10007, 2**20 * 3, 999983 * 7]:
            assert factorize(a * a) == tuple((p, 2 * e) for p, e in factorize(a)), a
            assert prod(p**e for p, e in factorize(a * a)) == a * a


# The derivation scan's left side f(m * p^e2) for p not dividing m: every
# site a prime power up to 48 (the sites of m) or a power of 2, 3, 5 or 7
# (the sites p^e2), each untracked, unknown, 0, an integer or a Fraction.
MULTIPLIER_BOUND = 48
PEEK_SITES = sorted(
    set(prime_powers_upto(MULTIPLIER_BOUND)) | {p**e for p in (2, 3, 5, 7) for e in range(1, 7)}
)
STATES = ["untracked", "unknown", 0, 1, -2, 7, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]
site_states = st.sampled_from(STATES)


def partial_function(states: list) -> PartialFunction:
    pf = PartialFunction()
    for site, state in zip(PEEK_SITES, states):
        if state == "unknown":
            pf.ensure_site(site)
        elif state != "untracked":
            pf.assign(site, state)
    return pf


def assert_left_sides_match_peek(pf, p, e, e2, first):
    base, site = p**e2, p**e
    lefts = pf.peek_multiples(base, site, first, MULTIPLIER_BOUND)
    assert all(first <= m <= MULTIPLIER_BOUND and m % p for m in lefts)
    for m in range(first, MULTIPLIER_BOUND + 1):
        if m % p == 0:
            continue
        a, b, blocking = pf.peek(m * base, site)
        if blocking:
            assert m not in lefts, (m, blocking)
        else:
            got = lefts[m]
            assert got == (a, b), m
            assert tuple(map(type, got)) == (type(a), type(b)), m


class TestPeekMultiples:
    @given(
        st.lists(site_states, min_size=len(PEEK_SITES), max_size=len(PEEK_SITES)),
        st.sampled_from([2, 3, 5, 7]),
        st.integers(1, 6),
        st.integers(0, 2),
        st.integers(1, MULTIPLIER_BOUND),
        st.sampled_from(PEEK_SITES),
        site_states,
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_peek(self, states, p, e, drop, first, changed, new_state):
        e2 = max(e - drop, 1)
        pf = partial_function(states)
        assert_left_sides_match_peek(pf, p, e, e2, first)
        # one more change moves the revision on; nothing stale may be read
        if new_state == "unknown":
            pf.ensure_site(changed)
        elif new_state != "untracked" and pf.known(changed) is None:
            pf.assign(changed, new_state)
        assert_left_sides_match_peek(pf, p, e, e2, first)

    def test_order_of_the_blocking_rules(self):
        # f(2) = 0, f(3) unknown, f(7) untracked; site and base 25
        pf = PartialFunction()
        pf.assign(2, 0)
        pf.ensure_site(3)
        pf.ensure_site(25)
        lefts = pf.peek_multiples(25, 25, 1, 14)
        assert lefts[1] == (1, 0)  # f(25) = x
        assert lefts[2] == (0, 0)  # a known zero does not block,
        assert lefts[6] == (0, 0)  # not even next to an unknown site,
        assert 14 not in lefts  # but an untracked site blocks first
        assert 3 not in lefts and 7 not in lefts


def typed(value):
    """A reader's result with the type of every scalar in it."""
    if isinstance(value, Poly):
        return [(mono, coeff, type(coeff)) for mono, coeff in value.terms.items()]
    if isinstance(value, tuple):
        return [typed(item) for item in value]
    return value, type(value)


# n up to 10^4 has sites beyond PEEK_SITES too, and those stay untracked
reader_inputs = given(
    st.lists(site_states, min_size=len(PEEK_SITES), max_size=len(PEEK_SITES)),
    st.integers(1, 10_000),
    st.integers(0, 9),
    st.sampled_from(PEEK_SITES),
)


class TestReadersMatchReference:
    """evaluate, peek and known_value against their bodies before they
    shared one read of the state (tests/reference_arith.py)."""

    @staticmethod
    def site_of(n, index, other):
        sites = [p**e for p, e in factorize(n)]
        return sites[index] if index < len(sites) else other

    @reader_inputs
    @settings(max_examples=400, deadline=None)
    def test_evaluate(self, states, n, index, other):
        pf, ref = partial_function(states), partial_function(states)
        assert typed(pf.evaluate(n)) == typed(reference_arith.evaluate(ref, n))
        assert list(pf._entries.items()) == list(ref._entries.items())
        assert pf.revision == ref.revision

    @reader_inputs
    @settings(max_examples=400, deadline=None)
    def test_peek(self, states, n, index, other):
        pf = partial_function(states)
        entries, revision = list(pf._entries.items()), pf.revision
        site = self.site_of(n, index, other)
        assert typed(pf.peek(n, site)) == typed(reference_arith.peek(pf, n, site))
        assert (list(pf._entries.items()), pf.revision) == (entries, revision)

    @reader_inputs
    @settings(max_examples=400, deadline=None)
    def test_known_value(self, states, n, index, other):
        pf = partial_function(states)
        assert typed(pf.known_value(n)) == typed(reference_arith.known_value(pf, n))

    def test_a_known_zero_next_to_unknown_and_untracked_sites(self):
        # f(2) = 0, f(3) unknown, f(5) untracked: every reader, on 2*3, 2*3*5
        pf = PartialFunction()
        pf.assign(2, 0)
        pf.ensure_site(3)
        for n in (6, 30, 2, 3, 1):
            for site in (2, 3, 5, 9):
                assert typed(pf.peek(n, site)) == typed(reference_arith.peek(pf, n, site))
            assert typed(pf.known_value(n)) == typed(reference_arith.known_value(pf, n))
        ref = pf.copy()
        assert typed(pf.evaluate(30)) == typed(reference_arith.evaluate(ref, 30))
        assert (list(pf._entries.items()), pf.revision) == (list(ref._entries.items()), ref.revision)


class TestPrimePowers:
    def test_upto_30(self):
        assert prime_powers_upto(30) == [
            2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29,
        ]

    def test_all_entries_are_prime_powers(self):
        for site in prime_powers_upto(500):
            assert len(factorize(site)) == 1

    def test_is_prime_power_matches_factorize(self):
        for n in range(-3, 20_000):
            assert is_prime_power(n) == (n >= 1 and len(factorize(n)) == 1), n

    def test_is_prime_power_large(self):
        # strong pseudoprimes to the bases 2..7 and 2..23, a square of a
        # prime near 2^32, and the largest prime below 2^64
        assert not is_prime_power(3_215_031_751)
        assert not is_prime_power(3_825_123_056_546_413_051)
        assert is_prime_power(4_294_967_291**2)
        assert not is_prime_power(4_294_967_291 * 4_294_967_279)
        assert is_prime_power(3**40) and is_prime_power(2**63)
        assert is_prime_power(18_446_744_073_709_551_557)
        with pytest.raises(ValueError):
            is_prime_power(SITE_LIMIT)


class TestPartialFunction:
    def test_evaluate_18_with_known_2(self):
        pf = PartialFunction()
        pf.assign(2, 2)
        poly = pf.evaluate(18)
        assert poly == Poly({(9,): 2})

    def test_evaluate_1_is_constant_one(self):
        assert PartialFunction().evaluate(1) == Poly.const(1)

    def test_evaluate_30(self):
        pf = PartialFunction()
        pf.assign(2, 2)
        pf.assign(3, 3)
        poly = pf.evaluate(30)
        assert poly == Poly({(5,): 6})

    def test_prime_and_its_square_are_independent(self):
        pf = PartialFunction()
        pf.assign(2, 2)
        poly = pf.evaluate(4)
        assert not poly.is_constant()
        assert poly.symbols() == {4}

    def test_assign_idempotent_and_conflicting(self):
        pf = PartialFunction()
        pf.assign(3, 3)
        pf.assign(3, 3)
        with pytest.raises(SiteConflictError):
            pf.assign(3, 1)

    def test_assign_rejects_composite_site(self):
        with pytest.raises(ValueError):
            PartialFunction().assign(12, 12)

    def test_peek_reports_untracked_sites_and_tracks_none(self):
        pf = PartialFunction()
        pf.assign(2, 2)
        pf.ensure_site(9)
        assert pf.peek(2 * 9 * 5, 9) == (0, 0, (5,))
        assert pf.peek(4 * 9 * 5, 9) == (0, 0, (4, 5))
        assert pf.peek(4 * 5 * 7, 9) == (0, 0, (4, 5, 7))
        assert len(pf) == 2

    def test_peek_unknown_site_other_than_site_blocks(self):
        pf = PartialFunction()
        pf.assign(2, 2)
        for site in (3, 5, 7):
            pf.ensure_site(site)
        assert pf.peek(2 * 3 * 5 * 7, 3) == (0, 0, (5, 7))

    def test_peek_is_linear_in_site(self):
        pf = PartialFunction()
        pf.assign(2, Fraction(1, 2))
        pf.assign(5, 5)
        pf.ensure_site(9)
        # f(90) = f(2) f(9) f(5) = (5/2) x9, and f(10) = 5/2 has no x9
        assert pf.peek(90, 9) == (Fraction(5, 2), 0, ())
        assert pf.peek(10, 9) == (0, Fraction(5, 2), ())
        assert pf.peek(1, 9) == (0, 1, ())

    def test_peek_known_zero_folds_to_zero(self):
        # f(2) = 0 makes f(2m) = 0 for odd m, whatever the unknowns of m
        pf = PartialFunction()
        pf.assign(2, 0)
        pf.ensure_site(3)
        pf.ensure_site(9)
        assert pf.peek(2 * 3, 9) == (0, 0, ())
        assert pf.peek(2 * 9, 9) == (0, 0, ())
        # untracked sites are still reported first
        assert pf.peek(2 * 5, 9) == (0, 0, (5,))

    def test_known_value(self):
        pf = PartialFunction()
        pf.assign(2, 2)
        pf.assign(9, 9)
        assert pf.known_value(18) == 18
        assert pf.known_value(36) is None  # f(4) untracked

    def test_multiplicativity_as_polynomial_identity(self):
        pf = PartialFunction()
        pf.assign(2, 2)
        pf.assign(9, Fraction(1, 3))  # mixed known/unknown sites
        evals = {n: pf.evaluate(n) for n in range(1, 501)}
        for m in range(2, 501):
            em = evals[m]
            for n in range(m + 1, 501):
                if gcd(m, n) != 1:
                    continue
                assert pf.evaluate(m * n) == mul(em, evals[n]), (m, n)

    def test_copy_is_independent(self):
        pf = PartialFunction()
        pf.evaluate(6)
        dup = pf.copy()
        dup.assign(2, 2)
        assert pf.known(2) is None
        assert dup.known(2) == Fraction(2)

    def test_integral_value_is_kept_as_int(self):
        pf = PartialFunction()
        pf.assign(4, Fraction(4, 2))
        pf.assign(3, Fraction(-3, 4))
        assert type(pf.known(4)) is int and pf.known(4) == 2
        assert type(pf.known(3)) is Fraction and pf.known(3) == Fraction(-3, 4)
        # the same value given again as a Fraction is no conflict
        pf.assign(4, Fraction(2))
        assert all(type(c) is int for c in pf.evaluate(4 * 5).terms.values())
        assert type(pf.known_value(4)) is int
        # the table keeps its Fraction values
        assert pf.assigned_table() == {3: Fraction(-3, 4), 4: Fraction(2)}
        assert all(type(v) is Fraction for v in pf.assigned_table().values())

    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 60, 200, 1000])
    def test_upto_registers_what_ensure_site_would(self, bound):
        looped = PartialFunction()
        for site in prime_powers_upto(bound):
            looped.ensure_site(site)
        built = PartialFunction.upto(bound)
        assert list(built._entries.items()) == list(looped._entries.items())
        assert built.revision == looped.revision
        # the built state moves on as the looped one does
        for pf in (built, looped):
            pf.ensure_site(1024)
            pf.assign(2, 2)
        assert list(built._entries.items()) == list(looped._entries.items())
        assert built.revision == looped.revision

    def test_revision_moves_on_every_change(self):
        pf = PartialFunction()
        seen = [pf.revision]
        pf.ensure_site(5)  # a new site
        seen.append(pf.revision)
        pf.ensure_site(5)  # already tracked
        assert pf.revision == seen[-1]
        pf.assign(5, 5)  # a value for a tracked site: the size stays
        seen.append(pf.revision)
        pf.assign(5, 5)  # the same value again
        assert pf.revision == seen[-1]
        pf.assign(7, 7)  # a new site with its value
        seen.append(pf.revision)
        assert len(set(seen)) == len(seen)
        dup = pf.copy()
        dup.assign(9, 9)
        assert dup.revision != pf.revision
