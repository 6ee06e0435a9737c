"""Command-line front end: one command per analysis, JSON in and out.

Exit codes: 0 success, 1 negative mathematical verdict (with a witness in the
report), 2 malformed input or usage error (with a machine-readable error
object).

Each command imports the layers it calls when it runs, so a call loads only
what its command needs; the parser reads its choices and defaults from
:mod:`_options` alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import serialize
from ._options import DEFAULT_STEP_CAP, IDEAL_SLICE, SIGMA_MODES
from .errors import DegreeCapExceeded, InvolutiveError, NotQuasiStable, WorkBudgetExceeded
from .serialize import InputFormatError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    except (OSError, ValueError) as exc:  # ValueError: an over-long integer, or not UTF-8
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except RecursionError as exc:
        raise InputFormatError(f"{path} is nested too deeply") from exc


def _cmd_mult_vars(data, opts):
    from . import division

    M = serialize.parse_termset(data)
    janet = division.DivisionAssignment.janet(M)
    pommaret = division.DivisionAssignment.pommaret(M)
    report = {
        "vars": M.n,
        "janet": serialize.assignment_json(janet),
        "pommaret": serialize.assignment_json(pommaret),
    }
    return report, EXIT_OK


def _cmd_complete_check(data, opts):
    from . import division

    M = serialize.parse_termset(data)
    ok, witness = division.is_complete(M)
    report = {"complete": ok, "witness": serialize.witness_json(witness)}
    return report, EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_stably_complete_check(data, opts):
    from . import division

    M = serialize.parse_termset(data)
    ok, witness = division.is_stably_complete(M)
    report = {"stably_complete": ok, "witness": serialize.witness_json(witness)}
    return report, EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_complete(data, opts):
    from . import division

    M = serialize.parse_termset(data)
    cap = 32 if opts.degree_bound is None else opts.degree_bound
    completed = division.janet_complete(M, cap)
    report = serialize.termset_json(completed)
    report["added"] = [serialize.term_json(t) for t in completed if t not in M]
    return report, EXIT_OK


def _cmd_star_set(data, opts):
    from . import ideals

    J = serialize.parse_ideal(data)
    terms, exhaustive = ideals.star_set(J, opts.degree_bound)
    report = serialize.termset_json(terms)
    report["exhaustive"] = exhaustive
    return report, EXIT_OK


def _witness_field(w):
    if w is None:
        return None
    out = {"generator": serialize.term_json(w.generator), "variable": w.variable}
    if w.divisor_variable is not None:
        out["divisor_variable"] = w.divisor_variable
    return out


def _cmd_classify(data, opts):
    from . import ideals

    J = serialize.parse_ideal(data)
    report = ideals.classify(J)
    out = {
        "strongly_stable": report.strongly_stable,
        "stable": report.stable,
        "quasi_stable": report.quasi_stable,
        "witnesses": {
            "strongly_stable": _witness_field(report.strongly_stable_witness),
            "stable": _witness_field(report.stable_witness),
            "quasi_stable": _witness_field(report.quasi_stable_witness),
        },
    }
    return out, EXIT_OK


def _cmd_pommaret(data, opts):
    from . import ideals

    J = serialize.parse_ideal(data)
    try:
        basis = ideals.pommaret_basis(J)
    except NotQuasiStable as exc:
        report = {
            "error": "not-quasi-stable",
            "witness": serialize.witness_json(exc.witness),
        }
        return report, EXIT_NEGATIVE
    report = serialize.termset_json(basis)
    report["regularity"] = basis.max_degree()
    return report, EXIT_OK


def _cmd_hilbert(data, opts):
    from . import ideals

    M = serialize.parse_termset(data)
    value = ideals.hilbert_function(M, opts.degree_bound)
    return {"degree": opts.degree_bound, "value": value}, EXIT_OK


def _cmd_sigma(data, opts):
    from . import ideals

    J = serialize.parse_ideal(data)
    profile = ideals.sigma_profile(J, opts.degree_bound, opts.sigma_mode)
    report = {
        "degree": profile.degree,
        "mode": profile.mode,
        "counts": list(profile.counts),
    }
    return report, EXIT_OK


def _cmd_involutive_test(data, opts):
    from . import ideals

    J = serialize.parse_ideal(data)
    lhs, rhs = ideals.sigma_totals(J, opts.degree_bound, opts.sigma_mode)
    holds = lhs == rhs
    report = {
        "degree": opts.degree_bound,
        "mode": opts.sigma_mode,
        "holds": holds,
        "next_degree_total": lhs,
        "weighted_total": rhs,
    }
    return report, EXIT_OK if holds else EXIT_NEGATIVE


def _cmd_reduce(data, opts):
    from . import marked

    if not isinstance(data, dict) or "marked_set" not in data or "polynomial" not in data:
        raise InputFormatError('reduce input needs "marked_set" and "polynomial"')
    G = serialize.parse_marked_set(data["marked_set"])
    h = serialize.parse_poly(data["polynomial"], G.n)
    trace = marked.reduce(G, h, step_cap=opts.step_cap)
    report = serialize.trace_json(trace, opts.trace)
    code = EXIT_OK if trace.status == marked.REDUCED else EXIT_NEGATIVE
    return report, code


def _cmd_is_marked_basis(data, opts):
    from . import marked

    G = serialize.parse_marked_set(data)
    result = marked.is_marked_basis(G)
    report = serialize.basis_result_json(result, opts.trace)
    return report, EXIT_OK if result.is_basis else EXIT_NEGATIVE


def _cmd_oracle_check(data, opts):
    from . import marked

    G = serialize.parse_marked_set(data)
    max_degree = opts.degree_bound
    if max_degree is None:
        max_degree = G.basis.max_degree() + 1
    ok = marked.oracle_check(G, max_degree)
    report = {"ok": ok, "max_degree": max_degree}
    return report, EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_scheme_equations(data, opts):
    from . import scheme

    J = serialize.parse_ideal(data)
    result = scheme.scheme_equations(J)
    return serialize.scheme_json(result), EXIT_OK


def _cmd_specialize(data, opts):
    from . import scheme

    if not isinstance(data, dict) or "ideal" not in data or "assignment" not in data:
        raise InputFormatError('specialize input needs "ideal" and "assignment"')
    J = serialize.parse_ideal(data["ideal"])
    gm = scheme.generic_marked_set(J)
    values = serialize.parse_assignment(gm, data["assignment"])
    G = scheme.specialize(gm, values)
    report = serialize.marked_set_json(G)
    report["parameters"] = [pv.name for pv in gm.params]
    return report, EXIT_OK


_COMMANDS = {
    "mult-vars": _cmd_mult_vars,
    "complete-check": _cmd_complete_check,
    "stably-complete-check": _cmd_stably_complete_check,
    "complete": _cmd_complete,
    "star-set": _cmd_star_set,
    "classify": _cmd_classify,
    "pommaret": _cmd_pommaret,
    "hilbert": _cmd_hilbert,
    "sigma": _cmd_sigma,
    "involutive-test": _cmd_involutive_test,
    "reduce": _cmd_reduce,
    "is-marked-basis": _cmd_is_marked_basis,
    "oracle-check": _cmd_oracle_check,
    "scheme-equations": _cmd_scheme_equations,
    "specialize": _cmd_specialize,
}

_NEEDS_DEGREE = {"star-set", "hilbert", "sigma", "involutive-test"}
# These read --degree-bound when it is given and fall back to a default.
_DEFAULTS_DEGREE = {"complete", "oracle-check"}


class _UsageError(Exception):
    """A command line that argparse rejects."""


class _Parser(argparse.ArgumentParser):
    """A parser that raises on a bad command line instead of printing usage
    text and exiting, so the error reaches the report like any other."""

    def error(self, message: str):
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="involutive",
        description="Involutive structure, marked bases and marked-scheme equations "
        "for monomial ideals.",
    )
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--input", required=True, help="path to the JSON input file")
    parser.add_argument("--output", help="write the JSON report here instead of stdout")
    parser.add_argument("--step-cap", type=int, default=DEFAULT_STEP_CAP)
    parser.add_argument(
        "--degree-bound",
        type=int,
        default=None,
        help="degree bound / degree argument for commands that need one",
    )
    parser.add_argument(
        "--sigma-mode",
        choices=list(SIGMA_MODES),
        default=IDEAL_SLICE,
    )
    parser.add_argument("--trace", action="store_true", help="include reduction steps")
    return parser


def _emit(report: dict, code: int, output: Optional[str]) -> int:
    """Write the report to ``output``, or to stdout, and return the exit code.
    A write that fails prints a usage error to stdout instead."""
    text = serialize.dumps(report)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code
        except OSError as exc:
            problem = f"cannot write {output}: {exc.strerror or exc}"
            text, code = serialize.dumps(_error_report("usage", problem)), EXIT_USAGE
    sys.stdout.write(text)
    return code


def _usage_problem(opts) -> Optional[str]:
    """Why the parsed options cannot be run, or None."""
    if opts.step_cap < 1:
        return "step cap must be >= 1"
    bound = opts.degree_bound
    missing = bound is None and opts.command in _NEEDS_DEGREE
    negative = bound is not None and bound < 0
    if missing or (negative and opts.command in _NEEDS_DEGREE | _DEFAULTS_DEGREE):
        return f"{opts.command} needs --degree-bound >= 0"
    return None


def _error_report(kind: str, message: str, **extra) -> dict:
    """The machine-readable error object of an exit-2 report."""
    return {"error": {"type": kind, "message": message, **extra}}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        opts = _build_parser().parse_args(argv)
    except _UsageError as exc:
        return _emit(_error_report("usage", str(exc)), EXIT_USAGE, None)
    problem = _usage_problem(opts)
    if problem is not None:
        report, code = _error_report("usage", problem), EXIT_USAGE
    else:
        try:
            data = _load(opts.input)
            report, code = _COMMANDS[opts.command](data, opts)
        except (InvolutiveError, ValueError) as exc:
            extra = {}
            if isinstance(exc, DegreeCapExceeded):
                extra["partial"] = serialize.termset_json(exc.partial) if exc.partial else None
            elif isinstance(exc, WorkBudgetExceeded):
                extra.update(estimate=exc.estimate, budget=exc.budget)
            report, code = _error_report(type(exc).__name__, str(exc), **extra), EXIT_USAGE
    return _emit(report, code, opts.output)


if __name__ == "__main__":
    raise SystemExit(main())
