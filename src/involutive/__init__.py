"""Involutive structure on monomial ideals: Janet/Pommaret multiplicative
variables, complete and stably complete systems, star sets and Pommaret
bases, term-ordering-free marked-basis reduction, and the defining equations
of the marked scheme of a quasi-stable ideal.
"""

from .division import (
    JANET,
    POMMARET,
    DivisionAssignment,
    StarFactorization,
    is_complete,
    is_stably_complete,
    janet_complete,
    janet_multiplicative_vars,
    offspring_contains,
    pommaret_multiplicative_vars,
    star_decompose,
)
from .errors import (
    DegreeCapExceeded,
    DegreeMismatch,
    HeadNotInM,
    InvolutiveError,
    MismatchedVariableCount,
    MissingAssignment,
    NonHomogeneousInput,
    NotComplete,
    NotDivisible,
    NotInIdeal,
    NotInSet,
    NotQuasiStable,
    NotStablyComplete,
    TailInIdeal,
)
from .ideals import (
    ESCALIER,
    IDEAL_SLICE,
    MonomialIdeal,
    SigmaProfile,
    StabilityReport,
    StabilityWitness,
    classify,
    escalier_slice,
    hilbert_function,
    involutive_test,
    pommaret_basis,
    pommaret_termination_degree,
    regularity,
    sigma_profile,
    star_set,
)
from .marked import (
    CYCLE_DETECTED,
    REDUCED,
    STEP_LIMIT,
    CriterionCheck,
    MarkedBasisResult,
    MarkedPolynomial,
    MarkedSet,
    ReductionStep,
    ReductionTrace,
    build_Gs,
    is_marked_basis,
    make_marked_set,
    oracle_check,
    reduce,
)
from .scheme import (
    GenericMarkedSet,
    ParamPolynomial,
    ParamVar,
    SchemeEquations,
    evaluate_equations,
    generic_marked_set,
    prolongation_residues,
    scheme_equations,
    specialize,
)
from .terms import (
    Term,
    TermSet,
    lex_compare,
    one,
    terms_of_degree,
    variable,
)

__version__ = "0.1.0"
