"""The benchmark's tracer (``bench/tracer.py``) wraps library methods and
reads library attributes by name.  A refactor that drops one must fail here,
in the unit tests, and not only in the benchmark's own self-test.  The
library's own checks must not vanish under ``python -O`` either."""

import ast
import importlib
import importlib.util
from pathlib import Path

import involutive
from involutive import Term, TermSet, division, make_marked_set
from involutive.marked import MarkedSet

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_method_it_wraps():
    tracer = load_tracer()
    for table in (tracer.LEAF_METHODS, tracer.SPAN_METHODS):
        for (mod_name, cls_name), methods in table.items():
            cls = getattr(importlib.import_module(f"involutive.{mod_name}"), cls_name)
            for name in methods:
                assert name in cls.__dict__, f"{mod_name}.{cls_name}.{name}"


def test_tracer_finds_every_function_it_keys():
    # a renamed function would silently read 0 in its per-layer metric
    tracer = load_tracer()
    modules = {tracer.layer_name(name): name for name in tracer.LAYERS}
    for key in tracer.OWN_KEYS:
        layer, name = key.split(".")
        module = importlib.import_module(f"involutive.{modules[layer]}")
        assert callable(getattr(module, name, None)), key


def test_tracer_hooks_find_the_attributes_they_read():
    # the reduce hook reads stable_completeness, the decompose hook the memo
    assert "stable_completeness" in MarkedSet.__dict__
    G = make_marked_set(TermSet([Term([1, 0])]))
    assert G._decompositions == {}


def test_traced_package_names_are_restored(monkeypatch):
    # A name first read while the tracer is installed must not keep the
    # wrapper after restore: drop the package's binding so the read below is
    # its first.
    monkeypatch.delitem(vars(involutive), "janet_complete")
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        traced = involutive.janet_complete
    finally:
        tracer.restore()
    assert traced.__wrapped__ is division.janet_complete
    assert involutive.janet_complete is division.janet_complete


def test_library_checks_survive_optimisation():
    # python -O strips assert statements: a check must raise explicitly
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "involutive").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
