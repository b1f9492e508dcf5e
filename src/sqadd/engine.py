"""Deduction engine for the k-additivity-on-squares functional equation.

Pipeline: generate the equation system up to a bound, propagate (constant
folding, single-symbol linear solving, targeted multiplicative derivation
past the bound), and when stuck, derive a univariate eliminant by
substitution closure and branch over its rational roots.  Contradictory
branches are pruned; the verdict reports whether the identity function is
forced, with a replayable deduction trace.
"""

from __future__ import annotations

import json
import re
from collections import Counter, deque
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from functools import cache
from typing import Callable, ClassVar, NoReturn, Optional, Union

from .arith import PartialFunction, factorize, identity_table
from .poly import Poly, Rational, Scalar, symbol_name
from .squares import enumerate_representations

# All representations of one n when their count is at most this, else the
# lexicographically first slice.  Keeps the equation count in check.
REPRESENTATION_CAP = 64

ELIMINANT_MAX_SUBSTITUTIONS = 6

# Coprime-multiple derivation: multipliers m tried per prime power, and how
# many blocking sites deep it recurses.
DERIVE_MULTIPLIER_BOUND = 48
DERIVE_DEPTH = 3

ACTIVE = "active"
CONTRADICTION = "contradiction"


# --------------------------------------------------------------------------
# Equations and provenance


@dataclass(frozen=True)
class Additivity:
    """f(n) minus the part sum of one representation of n."""

    n: int
    parts: tuple[int, ...]


@dataclass(frozen=True)
class Multiplicativity:
    """Coprime-split deduction f(n) = f(u) f(v) applied past the bound."""

    n: int
    known_factor: int
    target_factor: int


Provenance = Union[Additivity, Multiplicativity]


def provenance_fields(prov: Provenance) -> dict:
    if isinstance(prov, Additivity):
        return {"kind": "additivity", "n": prov.n, "parts": list(prov.parts)}
    return {"kind": "multiplicativity", **asdict(prov)}


@dataclass(frozen=True)
class Equation:
    """A polynomial required to equal zero, with its origin."""

    poly: Poly
    provenance: Provenance


# --------------------------------------------------------------------------
# Budgets, trace, branch state


@dataclass
class EngineBudget:
    max_steps: int = 1_000_000
    max_branches: int = 256


class BudgetExhausted(RuntimeError):
    """Raise the bound or the budget; never a mathematical claim.

    `what` names the stage that ran out, `spent` is the first count over
    the limit (so the limit is spent - 1), and `unit` and `flag` are the
    counter's: what it counts and the option that sets its limit.
    """

    def __init__(self, what: str, spent: int, unit: str, flag: str):
        over = f"over the limit of {spent - 1} set by {flag}"
        super().__init__(f"budget exhausted: {what} after {spent} {unit}, {over}")
        self.what = what
        self.spent = spent


@dataclass
class TraceStep:
    index: int
    branch: tuple[int, ...]
    rule: str
    inputs: dict
    output: dict

    def to_json(self) -> str:
        record = {
            "step": self.index,
            "branch": list(self.branch),
            "rule": self.rule,
            "inputs": self.inputs,
            "output": self.output,
        }
        return json.dumps(record, separators=(",", ":"))


@dataclass
class DeductionTrace:
    steps: list[TraceStep] = field(default_factory=list)

    def serialize(self) -> str:
        return "\n".join(step.to_json() for step in self.steps) + (
            "\n" if self.steps else ""
        )


# A rational value: plain ASCII "n" or "n/d", the form str(Fraction) writes.
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Read "n" or "n/d", the form str(Fraction) writes; ValueError otherwise."""
    if not isinstance(text, str):
        raise ValueError(
            f"rational must be a string such as '3' or '1/2', got {type(text).__name__}"
        )
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"rational {text!r} is not of the form n or n/d")
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class _Counter:
    """A limit, its unit and its flag; its tick alone raises BudgetExhausted."""

    __slots__ = ("steps", "limit", "unit", "flag")

    def __init__(self, limit: int, steps: int = 0, unit: str = "steps", flag: str = "--max-steps"):
        self.steps = steps
        self.limit = limit
        self.unit = unit
        self.flag = flag

    def tick(self, what: str = "propagation", weight: int = 1) -> None:
        """Spend ``weight``; it raises where ``weight`` single ticks would."""
        self.steps += weight
        if self.steps > self.limit:
            self.steps = self.limit + 1
            raise BudgetExhausted(what, self.steps, self.unit, self.flag)


class _Contradiction(Exception):
    """A branch became inconsistent; only ``propagate`` catches it."""


@dataclass
class BranchState:
    """One branch of the deduction search; single-writer, copy-on-fork.

    ``log`` is the run's trace: every branch forked from one root appends to
    the same list, so a step is numbered as it is written.
    """

    pf: PartialFunction
    pending: list[Optional[Equation]]
    k: int
    bound: int
    path: tuple[int, ...] = ()
    status: str = ACTIVE
    note: str = ""
    log: list[TraceStep] = field(default_factory=list)

    def record(self, rule: str, inputs: dict, output: dict) -> None:
        self.log.append(TraceStep(len(self.log), self.path, rule, inputs, output))

    def contradict(self, provenance: Provenance, residue: Scalar) -> NoReturn:
        """Mark the branch inconsistent, its equation from ``provenance``
        folded to ``residue`` != 0, and end its propagation: raise _Contradiction."""
        self.status = CONTRADICTION
        self.record("contradiction", provenance_fields(provenance), {"residue": str(residue)})
        raise _Contradiction

    def fork(self, root_index: int, site: int, value: Fraction) -> "BranchState":
        child = replace(
            self,
            pf=self.pf.copy(),
            pending=list(self.pending),
            path=self.path + (root_index,),
            status=ACTIVE,
            note="",
        )
        child.pf.assign(site, value)
        child.record(
            "branch",
            {"symbol": symbol_name(site), "root_index": root_index},
            {"site": site, "value": str(value)},
        )
        return child


# --------------------------------------------------------------------------
# Equation generation


def _check_arguments(k: int, bound: int) -> None:
    """Refuse k < 2 and a bound below k, before any state is built."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if bound < k:
        raise ValueError(f"bound must be >= k, got {bound}")


def generate_equations(k: int, bound: int, pf: PartialFunction) -> list[Equation]:
    """The k-additivity system for all n <= bound.

    Per representation r of n: evaluate(pf, n) minus the sum of the part
    values, an Equation with Additivity provenance.  Order is n ascending,
    representations lexicographic.  Two representations of the same n imply
    their part sums are equal; that cross content is not materialized here,
    it falls out of elimination when the shared left side cancels.
    """
    _check_arguments(k, bound)
    equations: list[Equation] = []
    squares: dict[int, Poly] = {}  # f(a^2) by part a; parts recur across n
    for n in range(1, bound + 1):
        reps = enumerate_representations(n, k, REPRESENTATION_CAP)
        if not reps:
            continue
        left = pf.evaluate(n)
        for parts in reps:
            for a in parts:
                if a not in squares:
                    squares[a] = pf.evaluate(a * a)
            poly = left.minus_sum(squares[a] for a in parts)
            equations.append(Equation(poly, Additivity(n, parts)))
    return equations


# --------------------------------------------------------------------------
# Propagation


def propagate(state: BranchState, counter: Optional[_Counter] = None) -> BranchState:
    """Run every propagation rule to fixpoint.

    (a) constant-fold pending equations under current assignments;
    (b) an equation c*s + d with constants c != 0, d assigns s := -d/c;
    (c) equations that fold down to a single symbol, linearly, are solved
        the same way;
    (d) coprime-multiple derivation reaches past the bound for sites with
        no in-bound equation (multiplicativity division);
    (e) an equation folding to a nonzero constant, in-bound or derived,
        ends the run: ``BranchState.contradict`` logs it, flips the status
        to Contradiction and raises, and this is the one place that catches
        it, so nothing is logged after it.  Each action is logged; 0 = 0 is
        dropped silently.

    The memo of failed derivation scans lives for the whole call, so a
    pass rerun on an unchanged state replays its scans.  Steps tick
    ``counter``, by default a fresh one at the ``EngineBudget()`` limit.
    """
    counter = counter or _Counter(EngineBudget().max_steps)
    pending = state.pending

    site_index: dict[int, set[int]] = {}
    for i, eq in enumerate(pending):
        if eq is None:
            continue
        for site in eq.poly.symbols():
            site_index.setdefault(site, set()).add(i)

    dirty: deque[int] = deque(i for i, eq in enumerate(pending) if eq is not None)
    in_dirty = set(dirty)
    failed: dict[int, tuple[int, int, Counter[int]]] = {}

    def apply_assignment(site: int, value: Fraction, rule: str, inputs: dict) -> None:
        """Record f(site) = value for an unknown site; requeue its equations."""
        state.pf.assign(site, value)
        state.record(rule, inputs, {"site": site, "value": str(value)})
        # Requeue order is the iteration order of a set of equation indices,
        # so renumbering `pending` (say, dropping its None slots) changes traces.
        for i in site_index.pop(site, set()):
            if i not in in_dirty and pending[i] is not None:
                dirty.append(i)
                in_dirty.add(i)

    try:
        while True:
            progress = False
            while dirty:
                i = dirty.popleft()
                in_dirty.discard(i)
                eq = pending[i]
                counter.tick()
                folded = eq.poly.substitute(state.pf.known)
                if folded is not eq.poly:
                    eq = Equation(folded, eq.provenance)
                    pending[i] = eq
                if folded.is_zero():
                    pending[i] = None
                    continue
                if folded.is_constant():
                    state.contradict(eq.provenance, folded.terms[()])
                solved = folded.linear_solve()
                if solved is not None:
                    pending[i] = None
                    site, value = solved
                    apply_assignment(site, value, "assign", provenance_fields(eq.provenance))
                    progress = True
            if not _derive_pass(state, apply_assignment, counter, failed) and not progress:
                break
    except _Contradiction:
        pass
    return state


# --------------------------------------------------------------------------
# Rule (d): coprime-multiple derivation past the bound


def _derive_pass(
    state: BranchState,
    apply_assignment: Callable[[int, Fraction, str, dict], None],
    counter: _Counter,
    failed: dict[int, tuple[int, int, Counter[int]]],
) -> bool:
    """Pin a stuck site through equations beyond the generation bound.

    The in-bound system has no equation at all for some sites (for example
    f(2*4^m) when 2*4^m has no representation and its small multiples are
    out of range).  For those, an additivity instance at a coprime multiple
    m * p^e with f(m) known divides through to the missing value, exactly
    the coprime-multiple argument the inductive proofs use.  Each multiple
    scanned ticks ``counter``, the run's step counter, which stays third so
    that a wrapper finds it there.  True once a site is pinned; an instance
    folding to a nonzero constant raises through ``state.contradict``.

    A scan that finds nothing finds nothing again until the assignment state
    changes, so it starts by replaying its ticks and blockers from
    ``failed``, which holds each site's last failed scan with its
    ``pf.revision``.  The caller keeps ``failed`` for the whole
    ``propagate`` call.
    """
    pf = state.pf

    def scan(site: int, blockers: Counter[int]) -> Optional[tuple[Fraction, dict]]:
        last = failed.get(site)
        if last is not None and last[0] == pf.revision:
            _, ticks, blocked = last
            counter.tick("derivation", ticks)
            blockers.update(blocked)
            return None
        revision, start, blocked = pf.revision, counter.steps, Counter()
        # Every instance is linear in x = f(site).  pf is fixed during one
        # scan: f(a^2) = A*x + B and the sites it is blocked on, by part a;
        # the left side f(m * p^e2) = A*x + B by m, from peek_multiples
        ((p, e),) = factorize(site)
        parts_seen: dict[int, tuple[Scalar, Scalar, tuple[int, ...]]] = {}
        for e2 in range(e, max(e - 2, 1) - 1, -1):
            base = p**e2
            lefts = pf.peek_multiples(base, site, state.bound // base + 1, DERIVE_MULTIPLIER_BOUND)
            for m, (left_a, left_b) in lefts.items():
                n2 = m * base
                counter.tick("derivation")
                for parts in enumerate_representations(n2, state.k, REPRESENTATION_CAP):
                    for a in parts:
                        seen = parts_seen.get(a)
                        if seen is None:
                            seen = parts_seen[a] = pf.peek(a * a, site)
                        if seen[2]:
                            for blocker in seen[2]:
                                blocked[blocker] += 1
                            break
                    else:  # no part blocked: the instance is coeff*x + const
                        coeff, const = left_a, left_b
                        for a in parts:
                            part_a, part_b, _ = parts_seen[a]
                            coeff -= part_a
                            const -= part_b
                        prov = Multiplicativity(n2, m, base)
                        if coeff:
                            inputs = provenance_fields(prov)
                            inputs["parts"] = list(parts)
                            return Fraction(-const) / coeff, inputs
                        if const:
                            # a valid instance folded to a nonzero constant
                            state.contradict(prov, const)
        failed[site] = (revision, counter.steps - start, blocked)
        blockers.update(blocked)
        return None

    def attempt(site: int, depth: int, visited: set[int]) -> bool:
        """Pin f(site), first pinning up to three of its blockers; True when known."""
        if pf.known(site) is not None:
            return True
        # Sites beyond the generation bound are untracked until targeted here.
        pf.ensure_site(site)
        blockers: Counter[int] = Counter()
        found = scan(site, blockers)
        if found is None and depth > 0:
            ranked = sorted(blockers.items(), key=lambda kv: (-kv[1], kv[0]))
            for blocked_site, _ in ranked[:3]:
                if blocked_site in visited:
                    continue
                visited.add(blocked_site)
                if attempt(blocked_site, depth - 1, visited):
                    found = scan(site, blockers)
                    if found is not None:
                        break
        if found is None:
            return False
        value, inputs = found
        apply_assignment(site, value, "derive", inputs)
        return True

    return any(
        attempt(site, DERIVE_DEPTH, {site})
        for site in pf.unassigned_sites(limit=state.bound)
    )


# --------------------------------------------------------------------------
# Elimination and rational roots


def _eliminate_work(state: BranchState) -> list[Poly]:
    """Pending polynomials plus same-n cross differences, appended last,
    each scaled to a primitive integer row.

    Two representations of one n share the left evaluation, so the
    difference of their equations drops it (resultant-style with respect to
    the shared monomial).  Appending the differences after all generated
    equations keeps discovery order anchored to generation order.
    """
    work: list[Poly] = []
    first_at_n: dict[int, Poly] = {}
    crosses: list[Poly] = []
    for eq in state.pending:
        if eq is None or eq.poly.is_zero():
            continue
        work.append(eq.poly.primitive())
        if isinstance(eq.provenance, Additivity):
            n = eq.provenance.n
            lead = first_at_n.get(n)
            if lead is None:
                first_at_n[n] = eq.poly
            else:
                diff = lead.minus_sum((eq.poly,))
                if not diff.is_zero():
                    crosses.append(diff.primitive())
    work.extend(crosses)
    return work


def eliminate(state: BranchState, counter: Optional[_Counter] = None) -> Optional[tuple[int, Poly]]:
    """Derive a univariate eliminant from the pending system, if any.

    Substitution closure over the pending equations and their same-n cross
    differences, as integer rows: walking symbols from the highest site
    down, a linear row in the symbol and at least one other (the fewest
    others, then the earliest row) substitutes it away everywhere, at most
    ELIMINANT_MAX_SUBSTITUTIONS per row.  Every consequence that collapses
    to one symbol is collected; the winner is the lowest-site symbol,
    breaking ties toward the earliest equation in generation order,
    primitive-normalized.  Scaling a row changes none of these choices, so
    integer rows choose as rational rows would.  Deterministic; None when
    the closure finds nothing within bounds.

    The index maps each symbol to exactly the live rows that hold it: a
    row leaves every list once it is a source, leaves a symbol's list when
    a substitution removes the symbol (a row that vanishes leaves them
    all), and joins the lists of the symbols it gains.  A row's symbol set,
    and whether it can be a source, are recorded as it enters, so no sweep
    reads its terms again.

    A later copy of a row is a spare of its first copy and never enters the
    index: copies receive the same substitutions, so a substitution ticks
    once per copy, and the first copy wins every tie.  When a row becomes a
    source its spares would be substituted by the row itself and vanish;
    at the cap each enters the index as an ordinary row instead, as in the
    unmerged closure.  Substitutions tick ``counter``, by default a fresh
    one at the ``EngineBudget()`` limit.
    """
    counter = counter or _Counter(EngineBudget().max_steps)
    work = _eliminate_work(state)
    syms_of: list[set[int]] = [set()] * len(work)  # the symbols of each row
    sizes = [0] * len(work)  # a row's symbol count if it can be a source, else 0
    occurs: dict[int, set[int]] = {}  # symbol -> the live rows holding it
    best: dict[int, tuple[int, Poly]] = {}

    def enter(idx: int, poly: Poly) -> None:
        """Make poly row idx, moving idx to the lists of its new symbols."""
        syms = poly.symbols()
        for sym in syms_of[idx] - syms:
            occurs[sym].discard(idx)
        for sym in syms - syms_of[idx]:
            occurs.setdefault(sym, set()).add(idx)
        work[idx] = poly
        syms_of[idx] = syms
        sizes[idx] = len(syms) if len(syms) > 1 and max(map(len, poly.terms)) == 1 else 0
        if len(syms) == 1:
            (sym,) = syms
            if sym not in best or idx < best[sym][0]:
                best[sym] = (idx, poly)

    spares: dict[int, list[int]] = {}  # first copy -> its later copies
    firsts: dict[int, int] = {}  # hash of the terms -> the first row with it
    for idx, poly in enumerate(work):
        # a hash: frozenset keys would keep every row's items alive at once
        first = firsts.setdefault(hash(frozenset(poly.terms.items())), idx)
        if first != idx and work[first].terms == poly.terms:
            spares.setdefault(first, []).append(idx)
        else:  # a first copy, or a row whose hash collides: a live row
            enter(idx, poly)
    del firsts

    sub_counts = [0] * len(work)
    substituted: set[int] = set()
    universe = sorted(occurs, reverse=True)

    changed = True
    while changed:
        changed = False
        for sym in universe:
            if sym in substituted:
                continue
            # c*sym + r with r linear, free of sym and not constant
            candidates = [(sizes[idx], idx) for idx in occurs[sym] if sizes[idx]]
            if not candidates:
                continue
            _, source = min(candidates)
            row = work[source]
            for other in syms_of[source]:
                occurs[other].discard(source)
            copies = spares.pop(source, ())
            if copies and sub_counts[source] < ELIMINANT_MAX_SUBSTITUTIONS:
                # each copy is substituted by the row itself and vanishes
                counter.tick("elimination", len(copies))
            else:  # copies at the cap are never substituted: ordinary rows
                for copy in copies:
                    sub_counts[copy] = sub_counts[source]
                    enter(copy, row)
            substituted.add(sym)
            changed = True
            for idx in sorted(occurs[sym]):
                if sub_counts[idx] >= ELIMINANT_MAX_SUBSTITUTIONS:
                    continue
                counter.tick("elimination", 1 + len(spares.get(idx, ())))
                sub_counts[idx] += 1
                enter(idx, work[idx].substitute_poly(sym, row))

    if not best:
        return None
    chosen = min(best)
    return chosen, best[chosen][1].primitive()


def _divisors(n: int) -> list[int]:
    """The positive divisors of a nonzero n, ascending."""
    divisors = [1]
    for p, e in factorize(abs(n)):
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    return sorted(divisors)


def rational_roots(poly: Poly) -> list[Fraction]:
    """All rational roots of a univariate polynomial, each verified exactly.

    Complete over the rationals by the rational root theorem: every
    candidate from the divisor grid is tested, multiplicity is ignored.
    """
    if poly.is_zero():
        raise ValueError("zero polynomial has no well-defined root set")
    if poly.is_constant():
        return []
    uni = poly.primitive().univariate_coeffs()
    if uni is None:
        raise ValueError(f"not univariate: {poly}")
    _, ints = uni

    roots: set[Fraction] = set()
    while ints[0] == 0:
        roots.add(Fraction(0))
        ints.pop(0)
    if len(ints) == 1:
        return sorted(roots)

    def value_at(x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(ints):
            acc = acc * x + c
        return acc

    for num in _divisors(ints[0]):
        for den2 in _divisors(ints[-1]):
            for cand in (Fraction(num, den2), Fraction(-num, den2)):
                if cand not in roots and value_at(cand) == 0:
                    roots.add(cand)
    return sorted(roots)


# --------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class Forced:
    """Exactly one branch survives and it is the identity up to the bound."""

    table: dict[int, Fraction]
    kind: ClassVar[str] = "forced"


@dataclass(frozen=True)
class Underdetermined:
    free_sites: tuple[int, ...]
    witness_count: int
    forced_prefix: int
    first_free: Optional[int]
    note: str = ""
    kind: ClassVar[str] = "underdetermined"


@dataclass(frozen=True)
class AllBranchesContradict:
    """Impossible for a faithful system (identity is a model): defect signal."""

    kind: ClassVar[str] = "all_branches_contradict"


Outcome = Union[Forced, Underdetermined, AllBranchesContradict]


@dataclass
class Verdict:
    outcome: Outcome
    trace: DeductionTrace

    @property
    def kind(self) -> str:
        return self.outcome.kind


def _explore(
    k: int,
    bound: int,
    budget: EngineBudget,
) -> tuple[list[BranchState], DeductionTrace]:
    """Branch-and-prune search; returns the surviving branches and the trace.

    Depth first: a split is the last step of its branch, and each child is
    forked and explored in full before the next, so the one shared log
    lists branches in pre-order.
    """
    _check_arguments(k, bound)
    pf = PartialFunction.upto(bound)
    root = BranchState(pf=pf, pending=generate_equations(k, bound, pf), k=k, bound=bound)
    counter = _Counter(budget.max_steps)
    branches = _Counter(budget.max_branches, 1, "branches", "--max-branches")  # the root
    survivors: list[BranchState] = []

    def explore(branch: BranchState) -> None:
        propagate(branch, counter=counter)
        if branch.status == CONTRADICTION:
            return
        found = eliminate(branch, counter=counter)
        if found is None:
            branch.record("saturated", {}, {"free": branch.pf.unassigned_sites(bound)})
            survivors.append(branch)
            return
        site, eliminant = found
        roots = rational_roots(eliminant)
        if not roots:
            branch.note = "eliminant without rational roots; non-rational branches not explored"
            branch.record(
                "saturated",
                {"eliminant": str(eliminant), "symbol": symbol_name(site)},
                {"note": branch.note},
            )
            survivors.append(branch)
            return
        branch.record(
            "split",
            {"eliminant": str(eliminant), "symbol": symbol_name(site), "site": site},
            {"roots": [str(r) for r in roots]},
        )
        branches.tick("branches", len(roots))
        for idx, r in enumerate(roots):
            explore(branch.fork(idx, site, r))

    explore(root)
    return survivors, DeductionTrace(root.log)


def _identity_prefix(branches: list[BranchState], bound: int) -> tuple[int, Optional[int]]:
    """Largest m with f(n) = n forced for all n <= m in every branch."""
    for n in range(1, bound + 1):
        for branch in branches:
            if branch.pf.known_value(n) != n:
                return n - 1, n
    return bound, None


def run_uniqueness(
    k: int,
    bound: int = 500,
    budget: Optional[EngineBudget] = None,
) -> Verdict:
    """Decide whether k-additivity on squares forces the identity up to bound.

    Forced requires exactly one surviving branch whose assignments evaluate
    to f(n) = n for every n <= bound; anything else is Underdetermined with
    the free sites, surviving-branch count (capped at 16), and the largest
    identity-forced prefix.  AllBranchesContradict signals a defect, and
    budget exhaustion raises rather than returning a verdict.
    """
    budget = budget or EngineBudget()
    survivors, trace = _explore(k, bound, budget)
    if not survivors:
        return Verdict(AllBranchesContradict(), trace)
    prefix, first_free = _identity_prefix(survivors, bound)
    if len(survivors) == 1 and prefix == bound:
        table = survivors[0].pf.assigned_table(limit=bound)
        return Verdict(Forced(table), trace)
    lead = survivors[0]
    return Verdict(
        Underdetermined(
            free_sites=tuple(lead.pf.unassigned_sites(limit=bound)),
            witness_count=min(len(survivors), 16),
            forced_prefix=prefix,
            first_free=first_free,
            note=lead.note,
        ),
        trace,
    )


# --------------------------------------------------------------------------
# Model checking and witness search


class IncompleteTableError(ValueError):
    def __init__(self, missing: list[int]):
        super().__init__(f"table missing sites: {missing}")
        self.missing = missing


@dataclass
class VerificationReport:
    ok: bool
    first_violation: Optional[Equation]
    checked: int


def verify_assignment(
    table: dict[int, Rational], k: int, bound: int
) -> VerificationReport:
    """Substitute an explicit multiplicative f into every generated equation.

    The table must cover all prime powers <= bound; the first violated
    equation (n ascending, representations lexicographic) is reported with
    its provenance.
    """
    pf = PartialFunction.upto(bound)
    required = pf.unassigned_sites()
    missing = [site for site in required if site not in table]
    if missing:
        raise IncompleteTableError(missing)
    for site in required:  # keys that are not sites <= bound stay unread
        pf.assign(site, table[site])
    f = cache(pf.known_value)

    checked = 0
    for n in range(1, bound + 1):
        for parts in enumerate_representations(n, k, REPRESENTATION_CAP):
            checked += 1
            residue = f(n) - sum(f(a * a) for a in parts)
            if residue:
                poly = Poly.const(residue)
                return VerificationReport(
                    False, Equation(poly, Additivity(n, parts)), checked
                )
    return VerificationReport(True, None, checked)


def _free_by_absence(branch: BranchState, limit: int) -> list[int]:
    """Unassigned sites <= limit that occur in no pending equation of branch."""
    present = set().union(*(eq.poly.symbols() for eq in branch.pending if eq is not None))
    return [site for site in branch.pf.unassigned_sites(limit) if site not in present]


def search_nonidentity(
    k: int,
    bound: int,
    site_bound: int,
    budget: Optional[EngineBudget] = None,
) -> Optional[dict[int, Fraction]]:
    """Hunt for a non-identity multiplicative model of the k-additive system.

    Each surviving branch, in order, offers its own table with the identity
    elsewhere.  If that is the identity or fails, the branch's lowest site
    free by absence at or below min(site_bound, bound) is set to 1.  Such a
    site occurs in no pending equation, and the branch's assignments settle
    every other generated equation, so any value there keeps them all.
    verify_assignment still checks each candidate.  Returns the first that
    passes, or None.
    """
    survivors, _ = _explore(k, bound, budget or EngineBudget())
    identity = identity_table(bound)
    for branch in survivors:
        base = dict(identity)
        base.update(branch.pf.assigned_table(limit=bound))
        if base != identity and verify_assignment(base, k, bound).ok:
            return base
        free = _free_by_absence(branch, min(site_bound, bound))
        if free:
            candidate = {**base, free[0]: Fraction(1)}
            if verify_assignment(candidate, k, bound).ok:
                return candidate
    return None
