"""Involutive structure on monomial ideals: Janet/Pommaret multiplicative
variables, complete and stably complete systems, star sets and Pommaret
bases, term-ordering-free marked-basis reduction, and the defining equations
of the marked scheme of a quasi-stable ideal.

``import involutive`` loads no submodule.  A layer's exported names are
bound here when the layer is imported, by whatever route, and a name read
before its layer is loaded imports the layer (PEP 562).
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

_EXPORTS = {
    "division": (
        "JANET",
        "POMMARET",
        "DivisionAssignment",
        "StarFactorization",
        "is_complete",
        "is_stably_complete",
        "janet_complete",
        "janet_multiplicative_vars",
        "offspring_contains",
        "pommaret_multiplicative_vars",
        "star_decompose",
    ),
    "errors": (
        "DegreeCapExceeded",
        "DegreeMismatch",
        "HeadNotInM",
        "InvolutiveError",
        "MismatchedVariableCount",
        "MissingAssignment",
        "NonHomogeneousInput",
        "NotComplete",
        "NotDivisible",
        "NotInIdeal",
        "NotInSet",
        "NotQuasiStable",
        "NotStablyComplete",
        "TailInIdeal",
        "WorkBudgetExceeded",
    ),
    "_options": ("ESCALIER", "IDEAL_SLICE"),
    "ideals": (
        "MonomialIdeal",
        "SigmaProfile",
        "StabilityReport",
        "StabilityWitness",
        "classify",
        "escalier_slice",
        "hilbert_function",
        "involutive_test",
        "pommaret_basis",
        "pommaret_termination_degree",
        "regularity",
        "sigma_profile",
        "star_set",
    ),
    "marked": (
        "CYCLE_DETECTED",
        "REDUCED",
        "STEP_LIMIT",
        "CriterionCheck",
        "MarkedBasisResult",
        "MarkedPolynomial",
        "MarkedSet",
        "ReductionStep",
        "ReductionTrace",
        "build_Gs",
        "is_marked_basis",
        "make_marked_set",
        "oracle_check",
        "reduce",
    ),
    "scheme": (
        "GenericMarkedSet",
        "ParamPolynomial",
        "ParamVar",
        "SchemeEquations",
        "evaluate_equations",
        "generic_marked_set",
        "prolongation_residues",
        "scheme_equations",
        "specialize",
    ),
    "terms": ("Term", "TermSet", "lex_compare", "one", "terms_of_degree", "variable"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


class _Package(ModuleType):
    """The package, which binds a layer's exported names along with the layer.

    The import system binds a submodule on its package once the submodule has
    run, so the names bound are the layer's own, before anything can patch
    them.  Nothing is bound on a read: a name first read while a layer's
    function is patched (as the benchmark's tracer does) would keep the patch
    after it is undone.
    """

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if isinstance(value, ModuleType):
            for export in _EXPORTS.get(name, ()):
                super().__setattr__(export, getattr(value, export))


sys.modules[__name__].__class__ = _Package


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
