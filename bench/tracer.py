"""In-memory tracer for the per-layer run.

``Tracer.install`` replaces the public functions of every ``involutive``
module (a layer) with timing wrappers, in every namespace that binds them,
because the library imports names with ``from .x import y``.  Selected
methods are wrapped as well.  ``Tracer.restore`` puts every original back.

Each wrapped call is a frame on one stack.  A frame's self time is its
duration minus the time of the wrapped calls it made; it is credited to its
layer and to an attribution key.  A call keeps its own key
(``<layer>.<name>``) when it is named in ``OWN_KEYS`` or when its caller sits
in another layer; otherwise it inherits the key of its same-layer caller, so
``ideals.star_set`` includes the membership tests it makes.

Frequent calls (``LEAF_FUNCTIONS`` and ``LEAF_METHODS``) are counted and
timed but record no span, which keeps memory bounded.  Every other wrapped
call records a span ``(query, id, parent id, name, start, end)`` in memory,
up to ``SPAN_CAP`` spans; ``write_spans`` writes them out after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = ("terms", "division", "ideals", "marked", "_linalg", "scheme", "serialize", "cli")

LEAF_FUNCTIONS = {
    "terms": ("variable", "one", "lex_compare", "extremal_vars"),
    "division": (
        "janet_multiplicative_vars",
        "pommaret_multiplicative_vars",
        "offspring_contains",
        "star_decompose",
    ),
    "ideals": ("membership",),
}

LEAF_METHODS = {
    ("terms", "Term"): ("__init__", "divides", "__mul__", "__truediv__", "predecessor"),
    ("terms", "TermSet"): ("__init__",),
    ("ideals", "MonomialIdeal"): ("__init__", "contains"),
    ("marked", "MarkedPolynomial"): ("__init__", "times"),
    ("marked", "MarkedSet"): ("contains", "decompose"),
    ("scheme", "ParamPolynomial"): (
        "__init__",
        "__add__",
        "__sub__",
        "__rsub__",
        "__neg__",
        "__mul__",
        "evaluate",
    ),
}

SPAN_METHODS = {
    ("division", "DivisionAssignment"): ("janet", "pommaret"),
    ("marked", "MarkedSet"): ("__init__",),
}

# Generators: each resumption is timed as a leaf call and each item counted.
ENUMERATORS = {"terms": ("terms_of_degree",)}

OWN_KEYS = {
    "division.is_complete",
    "division.is_stably_complete",
    "division.star_decompose",
    "division.janet_complete",
    "ideals.classify",
    "ideals.star_set",
    "ideals.pommaret_basis",
    "ideals.hilbert_function",
    "ideals.sigma_profile",
    "ideals.involutive_test",
    "marked.reduce",
    "marked.is_marked_basis",
    "marked.oracle_check",
    "marked.build_Gs",
    "linalg.rref",
    "scheme.generic_marked_set",
    "scheme.prolongation_residues",
    "scheme.scheme_equations",
    "scheme.specialize",
    "scheme.evaluate_equations",
    "cli.main",
}

SPAN_CAP = 200_000


def layer_name(module_layer: str) -> str:
    return module_layer.lstrip("_")


# ------------------------------------------------------------------ hooks


def _reduce_key(tracer, args):
    # "tracked" reductions keep a set of visited states: the basis is not
    # stably complete.  The property is cached on the marked set, and reduce
    # would compute it first thing anyway.
    return "marked.reduce" if args[0].stable_completeness[0] else "marked.tracked_reduce"


def _reduce_leave(tracer, args, result, key):
    tracer.counts[key + "_calls"] += 1
    tracer.counts[key + "_steps"] += len(result.steps)
    tracer.counts["marked.status." + result.status] += 1


def _decompose_enter(tracer, args):
    if args[1] in args[0]._decompositions:
        tracer.counts["marked.decompose_hits"] += 1


def _rref_enter(tracer, args):
    rows = args[0]
    tracer.counts["linalg.rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _star_set_enter(tracer, args):
    return tracer.counts["terms.enumerated_terms"]


def _star_set_leave(tracer, args, result, start):
    tracer.counts["ideals.star_set_visited_terms"] += tracer.counts["terms.enumerated_terms"] - start
    tracer.counts["ideals.star_set_found_terms"] += len(result[0])


def _janet_complete_leave(tracer, args, result, token):
    tracer.counts["division.completion_added_terms"] += len(result) - len(args[0])


def _scheme_leave(tracer, args, result, token):
    tracer.counts["scheme.params"] += len(result.generic.params)
    tracer.counts["scheme.equations"] += len(result.equations)


HOOKS = {
    "marked.reduce": {"key": _reduce_key, "leave": _reduce_leave},
    "marked.MarkedSet.decompose": {"enter": _decompose_enter},
    "linalg.rref": {"enter": _rref_enter},
    "ideals.star_set": {"enter": _star_set_enter, "leave": _star_set_leave},
    "division.janet_complete": {"leave": _janet_complete_leave},
    "scheme.scheme_equations": {"leave": _scheme_leave},
}


class Tracer:
    """Counts, self times and spans of the wrapped library calls."""

    def __init__(self):
        self.calls = Counter()
        self.counts = Counter()
        self.layer_self = Counter()
        self.key_self = Counter()
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.query = None
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 0

    # ------------------------------------------------------------- wrappers

    def _wrap(self, fn, layer: str, name: str, *, span: bool):
        """Timing wrapper for one function; ``layer`` has no leading underscore."""
        tracer = self
        stack = self._stack
        calls = self.calls
        layer_self = self.layer_self
        key_self = self.key_self
        spans = self.spans
        perf = time.perf_counter
        qual = f"{layer}.{name}"
        own = qual in OWN_KEYS
        hooks = HOOKS.get(qual, {})
        key_fn = hooks.get("key")
        enter = hooks.get("enter")
        leave = hooks.get("leave")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[qual] += 1
            parent = stack[-1] if stack else None
            if key_fn is not None:
                key = key_fn(tracer, args)
            elif parent is not None and not own and parent[1] == layer:
                key = parent[0]
            else:
                key = qual
            token = enter(tracer, args) if enter is not None else None
            parent_id = parent[3] if parent is not None else None
            if span:
                sid = tracer._next_id
                tracer._next_id += 1
            else:
                sid = parent_id
            frame = [key, layer, 0.0, sid]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                mine = dur - frame[2]
                layer_self[layer] += mine
                key_self[key] += mine
                if stack:
                    stack[-1][2] += dur
                if span:
                    if len(spans) < SPAN_CAP:
                        spans.append((tracer.query, sid, parent_id, qual, t0, t1))
                    else:
                        tracer.dropped_spans += 1
            if leave is not None:
                leave(tracer, args, result, key if key_fn is not None else token)
            return result

        return traced

    def _wrap_enumerator(self, fn, layer: str, name: str):
        """Wrap a generator: each resumption is a leaf frame, each item a count."""
        stack = self._stack
        calls = self.calls
        counts = self.counts
        layer_self = self.layer_self
        key_self = self.key_self
        perf = time.perf_counter
        qual = f"{layer}.{name}"
        item_counter = f"{layer}.enumerated_terms"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[qual] += 1
            it = fn(*args, **kwargs)
            while True:
                parent = stack[-1] if stack else None
                key = parent[0] if parent is not None and parent[1] == layer else qual
                frame = [key, layer, 0.0, parent[3] if parent is not None else None]
                stack.append(frame)
                t0 = perf()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dur = perf() - t0
                    stack.pop()
                    mine = dur - frame[2]
                    layer_self[layer] += mine
                    key_self[key] += mine
                    if stack:
                        stack[-1][2] += dur
                counts[item_counter] += 1
                yield item

        return traced

    # ------------------------------------------------------- install/restore

    def _patch_everywhere(self, owners, original, replacement) -> None:
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("involutive")
        modules = {m: importlib.import_module(f"involutive.{m}") for m in LAYERS}
        namespaces = [package, *modules.values()]
        for mod_name, mod in modules.items():
            layer = layer_name(mod_name)
            leaves = LEAF_FUNCTIONS.get(mod_name, ())
            enumerators = ENUMERATORS.get(mod_name, ())
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if name in enumerators:
                    wrapped = self._wrap_enumerator(obj, layer, name)
                else:
                    wrapped = self._wrap(obj, layer, name, span=name not in leaves)
                self._patch_everywhere(namespaces, obj, wrapped)
        for table, span in ((LEAF_METHODS, False), (SPAN_METHODS, True)):
            for (mod_name, cls_name), methods in table.items():
                cls = getattr(modules[mod_name], cls_name)
                layer = layer_name(mod_name)
                for meth in methods:
                    original = cls.__dict__[meth]
                    qual_name = f"{cls_name}.{meth}"
                    if isinstance(original, classmethod):
                        wrapped = classmethod(self._wrap(original.__func__, layer, qual_name, span=span))
                    else:
                        wrapped = self._wrap(original, layer, qual_name, span=span)
                    self._patch_everywhere([cls], original, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- output

    def summary(self) -> dict:
        """Plain-data totals, mergeable across processes with ``merge``."""
        return {
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "layer_self": dict(self.layer_self),
            "key_self": dict(self.key_self),
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
        }

    def merge(self, summary: dict) -> None:
        self.calls.update(summary["calls"])
        self.counts.update(summary["counts"])
        self.layer_self.update(summary["layer_self"])
        self.key_self.update(summary["key_self"])
        room = max(0, SPAN_CAP - len(self.spans))
        self.spans.extend(tuple(s) for s in summary["spans"][:room])
        self.dropped_spans += summary["dropped_spans"] + max(0, len(summary["spans"]) - room)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for query, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([query, sid, parent, name, start, end]) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, extra: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced batch: totals of counts and self seconds.

    ``extra`` supplies what the tracer cannot see from inside the library:
    ``cli.import_s``, ``cli.process_overhead_s``, ``serialize.report_bytes``
    and ``trace.overhead_ratio``.  ``trace.spans`` counts spans recorded,
    including any dropped past the cap.
    """
    c, k, calls = t.counts, t.key_self, t.calls

    def keys_with(prefix):
        return sum(v for key, v in k.items() if key.startswith(prefix))

    decomposes = calls["marked.MarkedSet.decompose"]
    serialize_parse = keys_with("serialize.parse_")
    m = {
        "terms.divides_calls": (calls["terms.Term.divides"], "count"),
        "terms.term_new_calls": (calls["terms.Term.__init__"], "count"),
        "terms.enumerated_terms": (c["terms.enumerated_terms"], "count"),
        "terms.self_s": (t.layer_self["terms"], "s"),
        "division.janet_mult_vars_calls": (calls["division.janet_multiplicative_vars"], "count"),
        "division.assignment_builds": (
            calls["division.DivisionAssignment.janet"] + calls["division.DivisionAssignment.pommaret"],
            "count",
        ),
        "division.is_complete_calls": (calls["division.is_complete"], "count"),
        "division.is_complete_self_s": (k["division.is_complete"], "s"),
        "division.star_decompose_calls": (calls["division.star_decompose"], "count"),
        "division.star_decompose_self_s": (k["division.star_decompose"], "s"),
        "division.janet_complete_self_s": (k["division.janet_complete"], "s"),
        "division.completion_added_terms": (c["division.completion_added_terms"], "count"),
        "division.self_s": (t.layer_self["division"], "s"),
        "ideals.contains_calls": (calls["ideals.MonomialIdeal.contains"], "count"),
        "ideals.classify_self_s": (k["ideals.classify"], "s"),
        "ideals.star_set_self_s": (k["ideals.star_set"], "s"),
        "ideals.star_set_visited_terms": (c["ideals.star_set_visited_terms"], "count"),
        "ideals.star_set_yield": (
            _ratio(c["ideals.star_set_found_terms"], c["ideals.star_set_visited_terms"]),
            "ratio",
        ),
        "ideals.pommaret_basis_self_s": (k["ideals.pommaret_basis"], "s"),
        "ideals.hilbert_self_s": (k["ideals.hilbert_function"], "s"),
        "ideals.sigma_self_s": (k["ideals.sigma_profile"] + k["ideals.involutive_test"], "s"),
        "ideals.self_s": (t.layer_self["ideals"], "s"),
        "marked.reduce_calls": (c["marked.reduce_calls"], "count"),
        "marked.reduction_steps": (c["marked.reduce_steps"], "count"),
        "marked.reduce_self_s": (k["marked.reduce"], "s"),
        "marked.tracked_reduce_calls": (c["marked.tracked_reduce_calls"], "count"),
        "marked.tracked_reduction_steps": (c["marked.tracked_reduce_steps"], "count"),
        "marked.tracked_reduce_self_s": (k["marked.tracked_reduce"], "s"),
        "marked.cycle_detected": (c["marked.status.cycle-detected"], "count"),
        "marked.step_limit": (c["marked.status.step-limit"], "count"),
        "marked.decompose_calls": (decomposes, "count"),
        "marked.decompose_hit_ratio": (_ratio(c["marked.decompose_hits"], decomposes), "ratio"),
        "marked.contains_calls": (calls["marked.MarkedSet.contains"], "count"),
        "marked.is_marked_basis_self_s": (k["marked.is_marked_basis"], "s"),
        "marked.oracle_check_self_s": (k["marked.oracle_check"], "s"),
        "marked.build_Gs_self_s": (k["marked.build_Gs"], "s"),
        "marked.self_s": (t.layer_self["marked"], "s"),
        "linalg.rref_calls": (calls["linalg.rref"], "count"),
        "linalg.rref_cells": (c["linalg.rref_cells"], "count"),
        "linalg.rref_self_s": (k["linalg.rref"], "s"),
        "linalg.in_rowspace_calls": (calls["linalg.in_rowspace"], "count"),
        "linalg.self_s": (t.layer_self["linalg"], "s"),
        "scheme.generic_marked_set_self_s": (k["scheme.generic_marked_set"], "s"),
        "scheme.prolongation_residues_self_s": (k["scheme.prolongation_residues"], "s"),
        "scheme.param_mul_calls": (calls["scheme.ParamPolynomial.__mul__"], "count"),
        "scheme.params": (c["scheme.params"], "count"),
        "scheme.equations": (c["scheme.equations"], "count"),
        "scheme.specialize_self_s": (k["scheme.specialize"], "s"),
        "scheme.evaluate_self_s": (k["scheme.evaluate_equations"], "s"),
        "scheme.self_s": (t.layer_self["scheme"], "s"),
        "cli.import_s": (extra.get("cli.import_s", 0.0), "s"),
        "cli.main_self_s": (k["cli.main"], "s"),
        "cli.process_overhead_s": (extra.get("cli.process_overhead_s", 0.0), "s"),
        "cli.self_s": (t.layer_self["cli"], "s"),
        "serialize.parse_self_s": (serialize_parse, "s"),
        "serialize.emit_self_s": (t.layer_self["serialize"] - serialize_parse, "s"),
        "serialize.report_bytes": (extra.get("serialize.report_bytes", 0), "bytes"),
        "trace.overhead_ratio": (extra.get("trace.overhead_ratio", 0.0), "ratio"),
        "trace.spans": (len(t.spans) + t.dropped_spans, "count"),
    }
    return m
