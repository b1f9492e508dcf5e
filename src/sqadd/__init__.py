"""Verification and exploration of k-additivity on positive squares.

A multiplicative function f satisfying
f(a1^2 + ... + ak^2) = f(a1^2) + ... + f(ak^2) for all positive ai is
forced to be the identity when k >= 3, but not when k = 2.  This package
regenerates the equation systems behind that fact, solves them by
propagation and rational-root branching, and independently verifies the
classical representability facts the argument rests on.
"""

from .arith import (
    PartialFunction,
    SiteConflictError,
    factorize,
    identity_table,
    prime_powers_upto,
)
from .engine import (
    AllBranchesContradict,
    BudgetExhausted,
    DeductionTrace,
    EngineBudget,
    Equation,
    Forced,
    IncompleteTableError,
    Underdetermined,
    Verdict,
    eliminate,
    generate_equations,
    propagate,
    rational_roots,
    run_uniqueness,
    search_nonidentity,
    verify_assignment,
)
from .poly import Poly, Rational
from .squares import (
    dubouis_reference_set,
    enumerate_representations,
    exceptional_set,
    expressibility_sieve,
    hurwitz_exceptions,
    hurwitz_reference_set,
    is_expressible,
)

__all__ = [
    "AllBranchesContradict",
    "BudgetExhausted",
    "DeductionTrace",
    "EngineBudget",
    "Equation",
    "Forced",
    "IncompleteTableError",
    "PartialFunction",
    "Poly",
    "Rational",
    "SiteConflictError",
    "Underdetermined",
    "Verdict",
    "dubouis_reference_set",
    "eliminate",
    "enumerate_representations",
    "exceptional_set",
    "expressibility_sieve",
    "factorize",
    "generate_equations",
    "hurwitz_exceptions",
    "hurwitz_reference_set",
    "identity_table",
    "is_expressible",
    "prime_powers_upto",
    "propagate",
    "rational_roots",
    "run_uniqueness",
    "search_nonidentity",
    "verify_assignment",
]
