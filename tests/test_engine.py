"""Equation generation, propagation, elimination, branching, verdicts."""

import hashlib
from dataclasses import asdict, fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_arith import verify_reference
from reference_poly import mul, neg, sub
from reference_witness import search_nonidentity_reference

from sqadd import engine
from sqadd.arith import PartialFunction, identity_table
from sqadd.engine import (
    ACTIVE,
    CONTRADICTION,
    Additivity,
    AllBranchesContradict,
    BranchState,
    BudgetExhausted,
    DeductionTrace,
    EngineBudget,
    Equation,
    Forced,
    IncompleteTableError,
    Multiplicativity,
    Underdetermined,
    Verdict,
    _Counter,
    eliminate,
    generate_equations,
    parse_rational,
    propagate,
    provenance_fields,
    rational_roots,
    run_uniqueness,
    search_nonidentity,
    verify_assignment,
)
from sqadd.poly import Poly


def fresh_state(k: int, bound: int, keep=None) -> BranchState:
    """Generated system, optionally filtered to a subset of n values."""
    pf = PartialFunction.upto(bound)
    eqs = generate_equations(k, bound, pf)
    if keep is not None:
        eqs = [e for e in eqs if e.provenance.n in keep]
    return BranchState(pf=pf, pending=list(eqs), k=k, bound=bound)


class TestGenerate:
    def test_cube_relation_for_k3(self):
        state = fresh_state(3, 27)
        pf = state.pf
        target = sub(pf.evaluate(27), mul(3, pf.evaluate(9)))
        polys = [
            e.poly
            for e in state.pending
            if e.provenance.n == 27 and e.provenance.parts == (3, 3, 3)
        ]
        assert polys == [target]

    def test_k5_n20_pair_yields_linear_cross(self):
        state = fresh_state(5, 20)
        eqs = {
            e.provenance.parts: e.poly
            for e in state.pending
            if e.provenance.n == 20
        }
        assert set(eqs) == {(1, 1, 1, 1, 4), (2, 2, 2, 2, 2)}
        expected = Poly({(16,): 1, (): 4, (4,): -5})
        diff = sub(eqs[(1, 1, 1, 1, 4)], eqs[(2, 2, 2, 2, 2)])
        assert diff in (expected, neg(expected))

    def test_k2_n2_forces_two(self):
        state = fresh_state(2, 2)
        assert state.pending[0].poly == Poly({(2,): 1, (): -2})
        assert state.pending[0].provenance == Additivity(2, (1, 1))

    def test_deterministic_order(self):
        a = fresh_state(4, 80)
        b = fresh_state(4, 80)
        assert [e.provenance for e in a.pending] == [e.provenance for e in b.pending]

    def test_identity_model_soundness_small(self):
        for k in range(2, 7):
            pf = PartialFunction()
            for site, value in identity_table(300).items():
                pf.assign(site, value)
            eqs = generate_equations(k, 300, pf)
            assert eqs, k
            assert all(e.poly.is_zero() for e in eqs), k

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_equations(1, 10, PartialFunction())
        with pytest.raises(ValueError):
            generate_equations(3, 2, PartialFunction())


class TestPropagate:
    def test_lemma_chain_alone_stays_active(self):
        # equations at n in {6, 9} only: 3*x2 = 2 + x4 and x9 = 1 + 2*x4
        state = fresh_state(3, 9, keep={3, 6, 9})
        propagate(state)
        assert state.status == ACTIVE
        live = [e.poly for e in state.pending if e is not None]
        assert Poly({(2,): 3, (): -2, (4,): -1}) in live
        assert Poly({(9,): 1, (): -1, (4,): -2}) in live
        assert state.pf.known(3) == 3  # the trivial all-ones equation fires

    def test_zero_equations_dropped_silently(self):
        state = fresh_state(3, 12)
        before = len(state.log)
        propagate(state)
        # vacuous equations (e.g. both sides of n=12 reduce to 3*x4) vanish
        assert all(e is None or not e.poly.is_zero() for e in state.pending)
        assert all(step.rule != "drop" for step in state.log[before:])

    def test_k4_values_by_pure_propagation(self):
        state = fresh_state(4, 60)
        propagate(state)
        assert state.status == ACTIVE
        for n in (2, 3, 5, 7, 9, 11, 13, 16, 17, 25, 29, 41):
            assert state.pf.known(n) == n, n

    def test_contradiction_status(self):
        state = fresh_state(3, 11)
        state.pf.assign(4, 1)  # inconsistent with the n in {6, 9, 11} chain
        state.pf.assign(2, 2)
        propagate(state)
        assert state.status == CONTRADICTION
        assert state.log[-1].rule == "contradiction"

    def test_derivation_contradiction_ends_the_run(self):
        # f(8) has no equation; its scan reaches 12 = 2^2 + 2^2 + 2^2,
        # where f(3) f(4) - 3 f(4) = 4 - 6 folds to -2 without x8
        state = BranchState(pf=PartialFunction.upto(10), pending=[], k=3, bound=10)
        for site, value in {2: 2, 3: 2, 4: 2, 9: 2, 5: 5, 7: 7}.items():
            state.pf.assign(site, value)
        propagate(state)
        assert state.status == CONTRADICTION
        last = state.log[-1]
        assert last.rule == "contradiction"
        assert last.inputs == {
            "kind": "multiplicativity", "n": 12, "known_factor": 3, "target_factor": 4,
        }
        assert last.output == {"residue": "-2"}
        assert [step.rule for step in state.log].count("contradiction") == 1

    def test_propagation_contradiction_with_a_fraction_residue(self):
        # x2 - 2 from 2 = 1 + 1 folds to 5/2 - 2 = 1/2
        state = fresh_state(2, 2)
        state.pf.assign(2, Fraction(5, 2))
        propagate(state)
        assert state.status == CONTRADICTION
        last = state.log[-1]
        assert last.inputs == {"kind": "additivity", "n": 2, "parts": [1, 1]}
        assert last.output == {"residue": str(Fraction(1, 2))}

    def test_derivation_contradiction_with_a_fraction_residue(self):
        # as above with f(4) = 1/2: f(3) f(4) - 3 f(4) = 1 - 3/2 at n = 12
        state = BranchState(pf=PartialFunction.upto(10), pending=[], k=3, bound=10)
        for site, value in {2: 2, 3: 2, 4: Fraction(1, 2), 9: 2, 5: 5, 7: 7}.items():
            state.pf.assign(site, value)
        propagate(state)
        assert state.status == CONTRADICTION
        last = state.log[-1]
        assert last.inputs == {
            "kind": "multiplicativity", "n": 12, "known_factor": 3, "target_factor": 4,
        }
        assert last.output == {"residue": str(Fraction(-1, 2))}

    def test_failed_scans_replay_across_passes(self, monkeypatch):
        # a pass that starts where the branch's last failed pass started and
        # ended replays every scan from the memo and peeks at nothing
        peeks = 0
        passes = []  # (branch path, start revision, end revision, found, peeks)
        peek, derive_pass = PartialFunction.peek, engine._derive_pass

        def counted_peek(self, n, site):
            nonlocal peeks
            peeks += 1
            return peek(self, n, site)

        def recorded_pass(state, *args):
            start, before = state.pf.revision, peeks
            found = derive_pass(state, *args)
            passes.append((state.path, start, state.pf.revision, found, peeks - before))
            return found

        monkeypatch.setattr(PartialFunction, "peek", counted_peek)
        monkeypatch.setattr(engine, "_derive_pass", recorded_pass)
        run_uniqueness(5, 120)
        last_failed = {}
        repeats = []
        for path, start, end, found, count in passes:
            if last_failed.get(path) == (start, start):
                repeats.append(count)
            if not found:
                last_failed[path] = (start, end)
        assert repeats
        assert repeats == [0] * len(repeats)

    def test_coprime_multiple_derivation(self):
        # 2^5 has no in-bound equation at N = 60; the engine must reach
        # through 96 = 3 * 32 and recursively 144 = 9 * 16 for f(2^6).
        verdict = run_uniqueness(3, 60)
        assert verdict.kind == "forced"
        assert verdict.outcome.table[32] == 32
        derive_steps = [s for s in verdict.trace.steps if s.rule == "derive"]
        assert any(s.output["site"] == 32 for s in derive_steps)


class TestFork:
    def test_child_is_active_owns_its_state_and_shares_the_log(self):
        parent = fresh_state(3, 12)
        parent.path = (1,)
        parent.status = CONTRADICTION
        parent.note = "eliminant without rational roots"
        pending = list(parent.pending)
        child = parent.fork(0, 2, Fraction(2))
        assert child.status == ACTIVE and child.note == ""
        assert child.path == (1, 0)
        assert (child.k, child.bound) == (3, 12)
        # the fork's own step lands in the one log, numbered in it
        assert child.log is parent.log
        assert [(s.index, s.branch, s.rule) for s in parent.log] == [(0, (1, 0), "branch")]
        # pf and pending are copies: the child's changes stay its own
        assert child.pf.known(2) == 2 and parent.pf.known(2) is None
        child.pf.assign(3, 3)
        child.pending[0] = None
        assert parent.pf.known(3) is None
        assert parent.pending == pending
        assert parent.status == CONTRADICTION and parent.note


class TestEliminate:
    def test_single_equation_already_univariate(self):
        pf = PartialFunction()
        x = 2
        pf.ensure_site(x)
        eq = Equation(Poly({(x,): 2, (): -6}), Additivity(2, (1, 1)))
        state = BranchState(pf=pf, pending=[eq], k=2, bound=2)
        site, poly = eliminate(state)
        assert site == x
        assert poly == Poly({(x,): 2, (): -6}).primitive()

    def test_lemma_one_system_eliminates_to_quadratic(self):
        # the k = 3 system displayed for n in {6, 9, 11, 14, 18, 21, 22, 24}
        state = fresh_state(3, 24, keep={3, 6, 9, 11, 12, 14, 18, 21, 22, 24})
        propagate(state)  # assigns f(3) = 3, folds the rest
        site, poly = eliminate(state)
        assert site == 2
        assert poly == Poly({(2, 2): 3, (2,): -8, (): 4})
        # oracle: expand and verify both quadratic-formula roots
        assert poly.substitute({2: 2}.get).is_zero()
        assert poly.substitute({2: Fraction(2, 3)}.get).is_zero()

    def test_padded_identities_eliminate_to_lemma6_quadratic(self):
        # k >= 6 equations from 20, 28, 40 padded with unit squares
        state = fresh_state(6, 41, keep={21, 30, 41})
        propagate(state)
        site, poly = eliminate(state)
        assert site == 4
        assert poly == Poly({(4, 4): 1, (4,): -5, (): 4})

    def test_nothing_to_eliminate(self):
        pf = PartialFunction()
        state = BranchState(pf=pf, pending=[], k=3, bound=10)
        assert eliminate(state) is None


class TestRationalRoots:
    def test_two_cases_quadratic(self):
        x = 4
        poly = Poly({(x, x): 1, (x,): -5, (): 4})
        assert rational_roots(poly) == [1, 4]

    def test_lemma_one_quadratic(self):
        x = 2
        poly = Poly({(x, x): 3, (x,): -8, (): 4})
        assert rational_roots(poly) == [Fraction(2, 3), 2]

    def test_no_rational_roots(self):
        x = 2
        assert rational_roots(Poly({(x, x): 1, (): 1})) == []

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            rational_roots(Poly())

    def test_zero_root_and_multiplicity(self):
        x = 2
        # x^2 * (x - 3): roots {0, 3}, multiplicity ignored
        poly = Poly({(x, x, x): 1, (x, x): -3})
        assert rational_roots(poly) == [0, 3]

    @given(
        st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=4),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_complete_over_constructed_roots(self, roots):
        # oracle: the product of (q*x - p) factors times (x^2 + 1)
        x = 2
        poly = Poly({(x, x): 1, (): 1})
        for r in roots:
            poly = mul(poly, Poly({(x,): r.denominator, (): -r.numerator}))
        assert rational_roots(poly) == sorted(set(roots))

    def test_divisors_match_trial_division(self):
        for n in [*range(-300, 0), *range(1, 3001)]:
            slow = [d for d in range(1, abs(n) + 1) if n % d == 0]
            assert engine._divisors(n) == slow, n


class TestRunUniqueness:
    @pytest.mark.parametrize(
        "entry",
        [run_uniqueness, lambda k, n: search_nonidentity(k, n, 20)],
        ids=["run_uniqueness", "search_nonidentity"],
    )
    @pytest.mark.parametrize(
        "k, bound, message", [(1, 10**7, "k must be >= 2"), (5, 3, "bound must be >= k")]
    )
    def test_arguments_are_checked_before_any_state(self, monkeypatch, entry, k, bound, message):
        def no_state(bound):
            raise AssertionError("state built before the arguments were checked")

        monkeypatch.setattr(PartialFunction, "upto", no_state)
        with pytest.raises(ValueError, match=message):
            entry(k, bound)

    def test_k3_forced_with_published_values(self):
        verdict = run_uniqueness(3, 60)
        assert verdict.kind == "forced"
        table = verdict.outcome.table
        for n in (2, 3, 4, 5, 7, 8, 9, 11, 16, 25):
            assert table[n] == n, n

    def test_k6_two_way_split_and_pruned_branch(self):
        verdict = run_uniqueness(6, 60)
        assert verdict.kind == "forced"
        splits = [s for s in verdict.trace.steps if s.rule == "split"]
        assert len(splits) == 1
        assert splits[0].output["roots"] == ["1", "4"]
        assert splits[0].inputs["site"] == 4
        # the root-1 branch (child index 0) ends in contradiction
        contradictions = [
            s for s in verdict.trace.steps if s.rule == "contradiction"
        ]
        assert any(s.branch == (0,) for s in contradictions)

    def test_k2_underdetermined(self):
        verdict = run_uniqueness(2, 60)
        assert verdict.kind == "underdetermined"
        out = verdict.outcome
        assert out.witness_count >= 1
        assert 3 in out.free_sites  # f(3) is unconstrained by two squares

    def test_forced_table_and_witness_values_are_fractions(self):
        # values are ints inside the engine; the tables it returns are not
        for table in (run_uniqueness(3, 60).outcome.table, search_nonidentity(2, 10, 5)):
            assert table and all(type(v) is Fraction for v in table.values())

    def test_forced_table_passes_model_check(self):
        verdict = run_uniqueness(4, 100)
        assert verdict.kind == "forced"
        report = verify_assignment(verdict.outcome.table, 4, 100)
        assert report.ok

    def test_never_all_branches_contradict(self):
        for k in (2, 3, 4, 5, 6):
            verdict = run_uniqueness(k, 40)
            assert not isinstance(verdict.outcome, AllBranchesContradict), k

    def test_budget_exhaustion_is_an_error(self):
        with pytest.raises(BudgetExhausted):
            run_uniqueness(5, 200, EngineBudget(max_steps=100))

    # The exact step totals, one tick per equation folded in propagation,
    # per multiple scanned in derivation and per substitution in
    # elimination: a run fits in S steps and not in S - 1.
    @pytest.mark.parametrize(
        "run, steps",
        [
            (lambda budget: run_uniqueness(3, 200, budget), 2533),
            (lambda budget: run_uniqueness(4, 200, budget), 738),
            (lambda budget: run_uniqueness(5, 120, budget), 4026),
            (lambda budget: run_uniqueness(6, 140, budget), 9275),
            (lambda budget: run_uniqueness(7, 42, budget), 2172),
            (lambda budget: search_nonidentity(2, 400, 20, budget), 4984),
        ],
        ids=[
            "deduce-3-200", "deduce-4-200", "deduce-5-120", "deduce-6-140", "deduce-7-42",
            "search2-400",
        ],
    )
    def test_step_budget_is_exact(self, run, steps):
        run(EngineBudget(max_steps=steps))
        with pytest.raises(BudgetExhausted):
            run(EngineBudget(max_steps=steps - 1))

    # A derivation scan that failed is replayed, not rerun, on the same
    # state; the replay spends its ticks at once and must still stop at the
    # first step over the budget, in the stage that step belongs to.
    def test_weighted_tick_stops_where_single_ticks_would(self):
        counter = _Counter(10)
        counter.tick("derivation", 6)
        with pytest.raises(BudgetExhausted) as err:
            counter.tick("derivation", 6)
        assert (err.value.what, err.value.spent) == ("derivation", 11)

    def test_step_budget_message(self):
        with pytest.raises(BudgetExhausted) as err:
            run_uniqueness(7, 42, EngineBudget(max_steps=1500))
        assert str(err.value) == (
            "budget exhausted: derivation after 1501 steps, "
            "over the limit of 1500 set by --max-steps"
        )

    def test_budget_stops_at_the_first_step_over(self):
        for steps in range(100, 2172, 37):
            with pytest.raises(BudgetExhausted) as err:
                run_uniqueness(7, 42, EngineBudget(max_steps=steps))
            assert err.value.spent == steps + 1, steps

    @pytest.mark.parametrize(
        "run, steps, what",
        [
            (lambda budget: run_uniqueness(7, 42, budget), 1500, "derivation"),
            (lambda budget: run_uniqueness(7, 42, budget), 2000, "elimination"),
            (lambda budget: search_nonidentity(2, 400, 20, budget), 4983, "derivation"),
        ],
        ids=["deduce-7-42-1500", "deduce-7-42-2000", "search2-400-4983"],
    )
    def test_budget_exhaustion_names_the_stage(self, run, steps, what):
        with pytest.raises(BudgetExhausted) as err:
            run(EngineBudget(max_steps=steps))
        assert (err.value.what, err.value.spent) == (what, steps + 1)

    # The branch budget is checked once per split, for all of its roots,
    # after the split is recorded and before any child is explored.
    @pytest.mark.parametrize("branches", range(1, 7))
    def test_branch_budget_stops_before_the_children(self, branches):
        with pytest.raises(BudgetExhausted) as err:
            run_uniqueness(7, 42, EngineBudget(max_branches=branches))
        assert (err.value.what, err.value.spent) == ("branches", branches + 1)

    def test_branch_budget_that_fits_runs_to_the_end(self):
        verdict = run_uniqueness(7, 42, EngineBudget(max_branches=7))
        assert verdict.kind == "underdetermined"
        with pytest.raises(BudgetExhausted) as err:
            run_uniqueness(3, 200, EngineBudget(max_branches=2))
        assert (err.value.what, err.value.spent) == ("branches", 3)
        assert run_uniqueness(3, 200, EngineBudget(max_branches=3)).kind == "forced"

    # The root is the first branch but is never charged against the limit:
    # a run without a split fits a limit of 0, and the first split is over it.
    def test_zero_branch_budget_counts_the_root(self):
        assert run_uniqueness(4, 60, EngineBudget(max_branches=0)).kind == "forced"
        with pytest.raises(BudgetExhausted) as err:
            run_uniqueness(3, 60, EngineBudget(max_branches=0))
        assert str(err.value) == (
            "budget exhausted: branches after 1 branches, "
            "over the limit of 0 set by --max-branches"
        )

    def test_trace_deterministic(self):
        a = run_uniqueness(3, 40)
        b = run_uniqueness(3, 40)
        assert a.trace.serialize() == b.trace.serialize()

    # sha256 of the serialized trace; pins the step order of the branch
    # search.  (3, 200) leans on coprime-multiple derivation, (5, 120) and
    # (6, 140) on elimination (the integer-row substitution), and (7, 100)
    # on both, with four splits; (6, 140) and (7, 42) match
    # bench/baseline.json.  (3, 1000) is the largest closure the suite
    # affords.
    @pytest.mark.parametrize(
        "k, bound, digest",
        [
            (3, 60, "ec76c7ff01e786bf78d710a189e5c2ca6808d296da670398d5d179f2e245a1c1"),
            (3, 200, "c17522c47066589297523ac68baf8295c09026064625a76421d2fa5c284ec5ff"),
            (5, 120, "6981f8cb79a3fe5e4116f062fca407949e49173630fdcdeccb93fb2977764a73"),
            (6, 60, "fb6d4942b734d50de64d0e6ba58cdf79595abadd11562762c8028c2bf0b63308"),
            (6, 140, "75215910828c1804ae61e05e6fb4a8d920a998b3605fa88614be8f7e2eb7bd80"),
            (7, 42, "fcf91932b40118ad2785dcb9de5b2133c61994ffd3e084939f258ecd8e6d67c7"),
            (7, 100, "f78067a028e9f8c941978e636e582c6146ca9266d42a6d16054ce37ab0847a80"),
            (3, 1000, "20d9580e61e311661bf35622ee146ec2338ee4326bee76c2521b3bc614f19687"),
        ],
    )
    def test_trace_golden_digest(self, k, bound, digest):
        verdict = run_uniqueness(k, bound)
        text = verdict.trace.serialize()
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        if (k, bound) == (7, 42):
            assert verdict.outcome == Underdetermined(
                free_sites=(2, 4, 5, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41),
                witness_count=2,
                forced_prefix=1,
                first_free=2,
                note="eliminant without rational roots; non-rational branches not explored",
            )
        if k == 7:
            assert verdict.kind == "underdetermined"
            assert sum(step.rule == "split" for step in verdict.trace.steps) == 4
        else:
            assert verdict.kind == "forced"

    @given(st.fractions())
    @settings(max_examples=100, deadline=None)
    def test_replay_reads_every_value_the_trace_writes(self, value):
        # trace values are str(Fraction), negatives and "n/d" forms included
        assert parse_rational(str(value)) == value

    def test_deduction_soundness_including_derived_equations(self):
        # substituting the final assignments into every generated equation
        # and into the out-of-bound instance of every derive step on the
        # survivor's path must give zero
        from sqadd.engine import _explore

        survivors, trace = _explore(3, 60, EngineBudget())
        assert len(survivors) == 1
        branch = survivors[0]
        pf = branch.pf
        for eq in generate_equations(3, 60, PartialFunction.upto(60)):
            assert eq.poly.substitute(pf.known).is_zero(), eq.provenance
        derived = [
            step.inputs
            for step in trace.steps
            if step.rule == "derive" and branch.path[: len(step.branch)] == step.branch
        ]
        assert derived
        for inputs in derived:
            left = pf.known_value(inputs["n"])
            parts = [pf.known_value(a * a) for a in inputs["parts"]]
            assert left is not None and None not in parts, inputs
            assert left == sum(parts), inputs

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_uniqueness(1, 10)
        with pytest.raises(ValueError):
            run_uniqueness(3, 2)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("bound", [20, 30, 45])
    def test_forced_verdicts_are_identity(self, k, bound):
        # whatever the verdict, a Forced table must be the identity and a
        # model of the system; small bounds may honestly stay undetermined
        if bound < k:
            pytest.skip("bound below k")
        verdict = run_uniqueness(k, bound)
        if verdict.kind == "forced":
            table = verdict.outcome.table
            assert all(value == site for site, value in table.items())
            assert verify_assignment(table, k, bound).ok
        else:
            assert verdict.kind == "underdetermined"

    @pytest.mark.parametrize("k", [8, 9, 10])
    def test_larger_arities_force_at_small_bounds(self, k):
        verdict = run_uniqueness(k, 100)
        assert verdict.kind == "forced"

    def test_k7_saturates_honestly(self):
        # the bounded strategy cannot refute the f(3) = -3/4 branch here;
        # the verdict must be underdetermined, never a false Forced
        verdict = run_uniqueness(7, 100)
        assert verdict.kind == "underdetermined"
        assert verdict.outcome.witness_count == 2


class TestOutcomeRecords:
    def test_verdict_kind_comes_from_the_outcome(self):
        trace = DeductionTrace()
        assert Verdict(Forced({}), trace).kind == "forced"
        assert Verdict(Underdetermined((2,), 1, 1, 2), trace).kind == "underdetermined"
        assert Verdict(AllBranchesContradict(), trace).kind == "all_branches_contradict"

    def test_kind_is_not_a_field(self):
        out = Underdetermined((2,), 1, 1, 2)
        assert asdict(out) == {
            "free_sites": (2,),
            "witness_count": 1,
            "forced_prefix": 1,
            "first_free": 2,
            "note": "",
        }
        for record in (Forced, Underdetermined, AllBranchesContradict):
            assert "kind" not in {f.name for f in fields(record)}

    def test_multiplicativity_fields_in_order(self):
        record = provenance_fields(Multiplicativity(24, 3, 8))
        assert list(record.items()) == [
            ("kind", "multiplicativity"),
            ("n", 24),
            ("known_factor", 3),
            ("target_factor", 8),
        ]


class TestVerifyAssignment:
    def test_identity_ok(self):
        for k in (2, 3, 6):
            report = verify_assignment(identity_table(300), k, 300)
            assert report.ok, k

    def test_first_violation_of_f3_equals_1(self):
        table = identity_table(30)
        table[3] = Fraction(1)
        report = verify_assignment(table, 3, 30)
        assert not report.ok
        prov = report.first_violation.provenance
        assert (prov.n, prov.parts) == (3, (1, 1, 1))

    def test_incomplete_table(self):
        table = identity_table(50)
        del table[49]
        del table[47]
        with pytest.raises(IncompleteTableError) as err:
            verify_assignment(table, 3, 50)
        assert err.value.missing == [47, 49]

    @pytest.mark.parametrize(
        "f9, kinds",
        [(9, (str, int, Fraction)), (1, (str, int, Fraction)), (Fraction(1, 2), (str, Fraction))],
    )
    def test_same_report_for_str_int_and_fraction_values(self, f9, kinds):
        table = identity_table(40)
        table[9] = Fraction(f9)
        reports = [
            verify_assignment({s: kind(v) for s, v in table.items()}, 3, 40)
            for kind in kinds
        ]
        assert all(report == reports[0] for report in reports)
        assert reports[0].ok is (f9 == 9)


def assert_same_report(table, k, bound):
    """verify_assignment and its reference agree: report, residue terms."""
    report, ref = verify_assignment(table, k, bound), verify_reference(table, k, bound)
    assert (report.ok, report.checked, report.first_violation) == (ref.ok, ref.checked, ref.first_violation)
    if not report.ok:
        got, want = report.first_violation.poly.terms, ref.first_violation.poly.terms
        assert [(m, c, type(c)) for m, c in got.items()] == [(m, c, type(c)) for m, c in want.items()]
    return report


class TestVerifyMatchesReference:
    """verify_assignment against its body before it read its table through
    a PartialFunction (tests/reference_arith.py)."""

    @given(
        st.integers(1, 6),
        st.integers(1, 80),
        st.dictionaries(
            st.integers(2, 80),
            st.one_of(
                st.integers(-3, 90),
                st.fractions(min_value=-4, max_value=4, max_denominator=6),
            ),
            max_size=6,
        ),
        st.dictionaries(st.integers(1, 10**6), st.integers(-5, 5), max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_tables(self, k, bound, changes, extra):
        # the identity on the sites <= bound, some sites changed, and extra
        # keys: sites above bound and numbers that are not prime powers
        table = {**extra, **identity_table(bound)}
        for site, value in changes.items():
            if site in table and site <= bound:
                table[site] = value
        assert_same_report(table, k, bound)

    def test_a_violating_table(self):
        table = identity_table(60)
        table[49] = Fraction(7, 2)
        report = assert_same_report(table, 4, 60)
        assert not report.ok and report.first_violation.provenance.n == 49

    def test_extra_keys_that_are_not_sites(self):
        table = {**identity_table(60), 1: 5, 6: Fraction(1, 3), 12: -1, 1000: 0, 61: 2}
        report = assert_same_report(table, 3, 60)
        assert report.ok and report.checked == verify_reference(identity_table(60), 3, 60).checked

    def test_incomplete_table_names_the_same_sites(self):
        table = identity_table(50)
        del table[2], table[25]
        raised = []
        for check in (verify_assignment, verify_reference):
            with pytest.raises(IncompleteTableError) as err:
                check(table, 3, 50)
            raised.append(err.value.missing)
        assert raised == [[2, 25], [2, 25]]


class TestSearchNonidentity:
    def test_k3_finds_nothing(self):
        assert search_nonidentity(3, 100, 20) is None

    def test_k2_witness(self):
        table = search_nonidentity(2, 500, 20)
        assert table is not None
        assert any(value != site for site, value in table.items())
        assert verify_assignment(table, 2, 500).ok

    # --max-branches caps only the deduction's branches, and (5, 21) makes
    # no split; the witness search spends no limit of its own.
    @pytest.mark.parametrize("branches", [1, 2, 4, 5])
    def test_max_branches_caps_no_witness_candidates(self, branches):
        assert search_nonidentity(5, 21, 21, EngineBudget(max_branches=branches)) is None

    # For k = 2 the free sites are odd powers of primes congruent to 3 mod 4,
    # which no square and no sum of two squares holds to an odd power.
    def test_k2_free_sites_are_all_free_by_absence(self):
        survivors, _ = engine._explore(2, 400, EngineBudget())
        assert len(survivors) == 2
        for branch in survivors:
            free = engine._free_by_absence(branch, 400)
            assert len(free) == 43
            assert free == branch.pf.unassigned_sites(400)

    @pytest.mark.parametrize(("k", "bound"), [(5, 21), (3, 100), (7, 100)])
    def test_no_site_free_by_absence_for_k_at_least_3(self, k, bound):
        survivors, _ = engine._explore(k, bound, EngineBudget())
        assert survivors
        assert all(engine._free_by_absence(b, bound) == [] for b in survivors)

    @pytest.mark.parametrize("bound", range(3, 26))
    def test_k2_small_witness_sets_f3_to_one(self, bound):
        table = search_nonidentity(2, bound, bound)
        expected = identity_table(bound)
        expected[3] = Fraction(1)
        assert table == expected

    @pytest.mark.parametrize("bound", range(26, 41))
    def test_k2_witness_is_the_first_survivor(self, bound):
        survivors, _ = engine._explore(2, bound, EngineBudget())
        expected = identity_table(bound)
        expected.update(survivors[0].pf.assigned_table(limit=bound))
        assert expected != identity_table(bound)
        assert search_nonidentity(2, bound, bound) == expected

    @pytest.mark.parametrize(
        ("k", "bound", "site_bound"),
        [(2, n, s) for n in range(2, 61) for s in sorted({1, 3, n})]
        + [(k, n, n) for k in range(3, 7) for n in range(k, 31)],
    )
    def test_matches_the_reference_grid(self, k, bound, site_bound):
        assert search_nonidentity(k, bound, site_bound) == search_nonidentity_reference(
            k, bound, site_bound
        )

    def test_k2_small_respects_forced_two(self):
        table = search_nonidentity(2, 10, 5)
        assert table is not None
        assert table[2] == 2  # forced by 1^2 + 1^2
        assert any(value != site for site, value in table.items())
