"""The benchmark's tracer (``bench/tracer.py``) wraps library methods and
reads library attributes by name.  A refactor that drops one must fail here,
in the unit tests, and not only in the benchmark's own self-test.  The
library's own checks must not vanish under ``python -O`` either, and its work
budget has one meter."""

import ast
import dataclasses
import importlib
import importlib.util
from functools import cached_property
from pathlib import Path

import involutive
from involutive import Term, TermSet, division, make_marked_set, reduce
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


def test_tracer_hooks_find_the_attributes_they_read(monkeypatch):
    # the reduce hook reads stable_completeness, the decompose hook the memo
    assert "stable_completeness" in MarkedSet.__dict__
    G = make_marked_set(TermSet([Term([1, 0])]))
    assert G._decompositions == {}
    # reduce looks its terms up through the wrapped method, and the memo is
    # keyed by what each call was given, or the decompose counters read 0
    called = []
    lookup = MarkedSet.decompose

    def recording(self, k):
        called.append(k)
        return lookup(self, k)

    monkeypatch.setattr(MarkedSet, "decompose", recording)
    reduce(G, {Term([2, 1]): 1, Term([0, 3]): 2})
    assert G._decompositions and set(G._decompositions) == set(called)


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


def library_paths():
    return sorted((ROOT / "src" / "involutive").rglob("*.py"))


def library_trees():
    for path in library_paths():
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def scoped_nodes():
    """(node, module, scope) for each node in the library but the classes and
    functions themselves; the scope is the dotted path of the enclosing
    classes and functions, "" at module level."""

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                yield from visit(child, module, scope + (child.name,))
                continue
            yield child, module, ".".join(scope)
            yield from visit(child, module, scope)

    for module, tree in library_trees():
        yield from visit(tree, module, ())


def scoped_names(references=False):
    """(name, module, scope) for each call in the library, by the called
    name, or with ``references`` for each name it reads, a ``Name`` or an
    ``Attribute``, with the scope of :func:`scoped_nodes`."""
    for node, module, scope in scoped_nodes():
        if references or isinstance(node, ast.Call):
            named = node if references else node.func
            name = getattr(named, "id", None) or getattr(named, "attr", None)
            if name:
                yield name, module, scope


def test_library_checks_survive_optimisation():
    # python -O strips assert statements: a check must raise explicitly
    found = [
        f"{name}:{node.lineno}"
        for name, tree in library_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_the_work_budget_has_one_meter():
    # errors._charge alone reads the budget and raises past it, so a test
    # patches one name and every loop that can run away is refused alike
    named, raised, meter = set(), [], None
    for name, tree in library_trees():
        for node in ast.walk(tree):
            if "_WORK_BUDGET" in (getattr(node, key, None) for key in ("id", "name", "attr")):
                named.add(name)
            called = getattr(node, "func", None)
            if getattr(called, "id", None) == "WorkBudgetExceeded":
                raised.append((name, node.lineno))
            if isinstance(node, ast.FunctionDef) and node.name == "_charge":
                meter = (name, range(node.lineno, node.end_lineno + 1))
    assert named == {"errors.py"}
    assert len(raised) == 1 and raised[0][0] == meter[0] and raised[0][1] in meter[1]


def test_each_divisibility_question_has_one_body():
    # term divisibility and the membership scan over the members' lex keys
    # live in terms, the Janet tree with its descents in division and the
    # fit-power index in ideals: other modules ask them and name none of them
    owners = {
        "divides": "terms.py",
        "_generates_key": "terms.py",
        "_Node": "division.py",
        "_janet_tree": "division.py",
        "_janet_insert": "division.py",
        "_keys_below": "division.py",
        "_janet_vars": "division.py",
        "_janet_head": "division.py",
        "_pommaret_head": "division.py",
        "_head": "division.py",
        "_fit_index": "ideals.py",
    }
    strays = [
        f"{name}:{node.lineno}"
        for name, tree in library_trees()
        for node in ast.walk(tree)
        for key in ("id", "name", "attr")
        if owners.get(getattr(node, key, None), name) != name
    ]
    assert strays == []


def test_division_owns_the_multiplicative_structure():
    # marked and scheme take multiplicative variables from division and never
    # read min(tau) themselves; the cone count and the walk of the
    # non-multiplicative pairs (tau, j) are each defined once, in division,
    # and the modules that count cones or walk prolongations call them
    trees = dict(library_trees())
    readers = [
        f"{name}:{node.lineno}"
        for name in ("marked.py", "scheme.py")
        for node in ast.walk(trees[name])
        if getattr(node, "attr", None) == "min_index"
    ]
    assert readers == []
    owners = {"_cone_terms": set(), "_nonmultiplicative": set()}
    callers = {"_cone_terms": set(), "_nonmultiplicative": set()}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in owners:
                owners[node.name].add(name)
            called = getattr(node, "func", None)
            called = getattr(called, "id", None) or getattr(called, "attr", None)
            if called in callers:
                callers[called].add(name)
    assert owners == {"_cone_terms": {"division.py"}, "_nonmultiplicative": {"division.py"}}
    assert callers == {
        "_cone_terms": {"ideals.py", "marked.py", "scheme.py"},
        "_nonmultiplicative": {"division.py", "marked.py"},
    }


def test_terms_alone_knows_the_exponent_orientation():
    # a term stores its lex key (x_n first): only terms reverses a tuple, on
    # input and for the x_1-first view, and the computing layers never read
    # that view; serialize and the names of scheme parameters print it
    reversals = [
        f"{name}:{node.lineno}"
        for name, tree in library_trees()
        if name != "terms.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Slice)
        and node.lower is None
        and node.upper is None
        and isinstance(node.step, ast.UnaryOp)
        and isinstance(node.step.op, ast.USub)
        and getattr(node.step.operand, "value", None) == 1
    ]
    assert reversals == []
    trees = dict(library_trees())
    readers = [
        f"{name}:{node.lineno}"
        for name in ("division.py", "ideals.py", "marked.py", "_linalg.py")
        for node in ast.walk(trees[name])
        if getattr(node, "attr", None) == "exponents"
    ]
    assert readers == []
    # terms also owns the one-slot edit of a lex key, k[:i] + (k[i] + by,) +
    # k[i + 1 :], in _bump, and the (degree, lex) sort key that every sort
    # of terms reads
    def sliced(node):
        return isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)

    splices, sort_keys = [], []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.left, ast.BinOp)
                and isinstance(node.left.right, ast.Tuple)
                and sliced(node.left.left)
                and sliced(node.right)
            ):
                splices.append(name)
            if isinstance(node, ast.Lambda) and getattr(node.body, "attr", None) == "sort_key":
                sort_keys.append(f"{name}:{node.lineno}")
            if getattr(getattr(node, "func", None), "id", None) == "attrgetter" and any(
                getattr(arg, "value", None) == "sort_key" for arg in node.args
            ):
                sort_keys.append(f"{name}:{node.lineno}")
    assert splices == ["terms.py"]
    assert [at for at in sort_keys if not at.startswith("terms.py:")] == []


def test_a_marked_set_has_one_constructor():
    # MarkedSet.__init__ alone makes marked polynomials, from the basis and
    # the tails; make_marked_set validates the tails before calling it, and
    # scheme's generic set and its specialisations call it directly.  Lex
    # keys become terms through Term._of_key, with no memo on the set
    calls = {
        (called, f"{module}:{scope}")
        for called, module, scope in scoped_names()
        if called in ("MarkedPolynomial", "MarkedSet")
    }
    memo = [
        f"{name}:{node.lineno}"
        for name, tree in library_trees()
        for node in ast.walk(tree)
        if getattr(node, "attr", None) in ("_term", "_terms")
    ]
    assert calls == {
        ("MarkedPolynomial", "marked.py:MarkedSet.__init__"),
        ("MarkedSet", "marked.py:make_marked_set"),
        ("MarkedSet", "scheme.py:GenericMarkedSet.marked_set"),
        ("MarkedSet", "scheme.py:specialize"),
    }
    assert memo == []
    assert "_term" not in MarkedSet.__dict__


def test_stable_completeness_is_decided_in_division():
    # outside division no function that asks for stable completeness builds
    # a DivisionAssignment to decide it
    builders = []
    for name, tree in library_trees():
        if name == "division.py":
            continue
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            names = {
                getattr(node, "id", None) or getattr(node, "attr", None)
                for node in ast.walk(function)
            }
            if names & {"is_stably_complete", "stable_completeness"} and names & {
                "DivisionAssignment",
                "janet",
                "pommaret",
            }:
                builders.append(f"{name}:{function.name}")
    assert builders == []


def test_completeness_has_one_scan_body():
    # the walk of the non-multiplicative pairs that probes each prolongation
    # for a covering head is defined once, in division, as a module-level
    # function given the cover lookup (``head``): the cached witness of an
    # assignment calls it, and no other function in division probes the
    # heads over that walk.  The completion probes its own worklist instead
    tree = dict(library_trees())["division.py"]
    descents = {"head", "_head", "_janet_head", "_pommaret_head"}
    scans = set()
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            named = {
                getattr(node, "id", None) or getattr(node, "attr", None)
                for node in ast.walk(function)
            }
            if "_nonmultiplicative" in named and named & descents:
                scans.add(function.name)
    assert scans == {"_first_uncovered"}
    callers = {
        scope
        for called, module, scope in scoped_names()
        if called == "_first_uncovered" and module == "division.py"
    }
    assert callers == {"DivisionAssignment._uncovered"}
    outside = [
        f"{module}:{scope}"
        for name, module, scope in scoped_names(references=True)
        if name == "_first_uncovered" and module != "division.py"
    ]
    assert outside == []


def test_the_completion_rounds_walk_no_pairs():
    # janet_complete seeds one worklist with the input's non-multiplicative
    # pairs, before its loop; no round walks the pairs or scans afresh: its
    # while loop and the worklist's methods past the seeding name neither the
    # walk, nor the fresh scan, nor a new worklist
    tree = dict(library_trees())["division.py"]
    defined = {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }

    def names(node):
        return {
            getattr(inner, "id", None) or getattr(inner, "attr", None)
            for inner in ast.walk(node)
        }

    walks = {"_nonmultiplicative", "_first_uncovered", "_Worklist"}
    loops = [node for node in ast.walk(defined["janet_complete"]) if isinstance(node, ast.While)]
    assert loops
    assert [sorted(names(loop) & walks) for loop in loops] == [[]] * len(loops)
    methods = [
        node
        for node in defined["_Worklist"].body
        if isinstance(node, ast.FunctionDef) and node.name != "__init__"
    ]
    assert methods
    assert [sorted(names(method) & walks) for method in methods] == [[]] * len(methods)
    makers = [scope for called, _, scope in scoped_names() if called == "_Worklist"]
    assert makers == ["janet_complete"]


def test_the_janet_tree_has_one_builder():
    # one function, the insertion of one key, makes the nodes of the Janet
    # tree below its root; _janet_tree makes the one root, which an empty
    # basis needs too, and inserts each member.  The tree is built by the
    # Janet assignment, which reads its variables off it, by the cover lookup
    # of any other assignment, and by the completion, whose worklist grows the
    # tree of its input by inserting each addition
    makers, callers = {}, {"_janet_tree": set(), "_janet_insert": set()}
    for called, module, scope in scoped_names():
        if module != "division.py":
            continue
        if called == "_Node":
            makers[scope] = makers.get(scope, 0) + 1
        if called in callers:
            callers[called].add(scope)
    assert makers == {"_janet_tree": 1, "_janet_insert": 1}
    assert callers == {
        "_janet_tree": {"DivisionAssignment.janet", "DivisionAssignment._head", "janet_complete"},
        "_janet_insert": {"_janet_tree", "_Worklist.add"},
    }


def test_the_completion_builds_one_tree():
    # janet_complete builds one Janet tree of its input before its loop and
    # grows that tree; inside the loop it builds no tree.  It keeps the
    # members and a worklist of the pairs to probe again itself, and names a
    # DivisionAssignment only to hand the grown tree to its result, through
    # the one wrapper of a tree that DivisionAssignment.janet also calls; it
    # writes no __dict__
    tree = dict(library_trees())["division.py"]
    complete = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "janet_complete"
    )

    def builds(node):
        called = getattr(node, "func", None)
        return (getattr(called, "id", None) or getattr(called, "attr", None)) in (
            "janet",
            "_janet_tree",
        )

    loops = [node for node in ast.walk(complete) if isinstance(node, (ast.For, ast.While))]
    assert loops
    assert [node.lineno for loop in loops for node in ast.walk(loop) if builds(node)] == []
    assert len([node for node in ast.walk(complete) if builds(node)]) == 1
    assert [node for node in ast.walk(complete) if getattr(node, "attr", None) == "__dict__"] == []
    named = [
        node for node in ast.walk(complete) if getattr(node, "id", None) == "DivisionAssignment"
    ]
    handed = [
        node.attr
        for node in ast.walk(complete)
        if getattr(getattr(node, "value", None), "id", None) == "DivisionAssignment"
    ]
    assert len(named) == 1 and handed == ["_on_tree"]
    wrappers = {scope for called, _, scope in scoped_names() if called == "_on_tree"}
    assert wrappers == {"DivisionAssignment.janet", "janet_complete"}


def test_only_the_completion_hands_over_an_assignment():
    # a TermSet's Janet assignment is set to None by its constructor and
    # written only by janet_complete, on the set it returns: no other code
    # turns the slot into a memo on the sets a caller builds, not even by a
    # setattr that names it as a string
    writers = [
        f"{module}:{scope}"
        for node, module, scope in scoped_nodes()
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for inner in ast.walk(target)
        if getattr(inner, "attr", None) == "_janet"
    ]
    assert sorted(writers) == ["division.py:janet_complete", "terms.py:TermSet.__init__"]
    init = next(
        node
        for node, module, scope in scoped_nodes()
        if scope == "TermSet.__init__"
        and isinstance(node, ast.Assign)
        and getattr(node.targets[0], "attr", None) == "_janet"
    )
    assert isinstance(init.value, ast.Constant) and init.value.value is None
    spelled = [
        f"{module}:{scope}"
        for node, module, scope in scoped_nodes()
        if getattr(node, "value", None) == "_janet"
    ]
    assert spelled == ["terms.py:TermSet"]  # its __slots__


def test_the_descents_have_one_caller():
    # the Janet and Pommaret descents are named by the assignment's one
    # lookup, and the Janet descent also by the wrapper of a tree into a
    # Janet assignment, which binds it to the tree it read the variables off
    # (a fresh one, or the tree a completion grew), and by the completion's
    # worklist, which probes its queued pairs on the tree it grows; so every
    # cover question, completeness and nesting included, goes
    # through one of them and no function walks the tree beside them.
    # References, not only calls, count: a descent passed on as a value is a
    # caller too
    callers = {}
    for name, module, scope in scoped_names(references=True):
        if name in ("_janet_head", "_pommaret_head"):
            callers.setdefault(name, set()).add(f"{module}:{scope}")
    assert callers == {
        "_janet_head": {
            "division.py:DivisionAssignment._on_tree",
            "division.py:DivisionAssignment._head",
            "division.py:_Worklist.first_uncovered",
        },
        "_pommaret_head": {"division.py:DivisionAssignment._head"},
    }


def test_the_flavour_is_decided_in_division():
    # which cones an assignment has is its flavour, and division alone reads
    # it or names one (imports count): each assignment binds its descent once,
    # in its cached cover lookup, and beside that only the nesting test and
    # stable completeness read the flavour, so no cover question compares it
    flavour_names = ("JANET", "POMMARET")
    outside = [
        f"{module}:{scope}"
        for node, module, scope in scoped_nodes()
        if module != "division.py"
        and (
            getattr(node, "attr", None) == "flavor"
            or getattr(node, "id", None) in flavour_names
            or getattr(node, "name", None) in flavour_names
        )
    ]
    assert outside == []
    readers = {
        scope
        for node, module, scope in scoped_nodes()
        if module == "division.py" and getattr(node, "attr", None) == "flavor"
    }
    assert readers == {
        "DivisionAssignment._head",
        "DivisionAssignment._nested",
        "is_stably_complete",
    }
    assert isinstance(vars(division.DivisionAssignment)["_head"], cached_property)


def test_the_exported_results_have_pinned_fields():
    # the benchmark digests every dataclass field of a result, so state kept
    # beside the fields, such as an assignment's cover lookup, must not
    # become one: each exported dataclass has exactly these fields
    fields = {
        name: tuple(field.name for field in dataclasses.fields(getattr(involutive, name)))
        for name in involutive.__all__
        if dataclasses.is_dataclass(getattr(involutive, name))
    }
    assert fields == {
        "DivisionAssignment": ("flavor", "basis", "mult"),
        "StarFactorization": ("head", "cofactor"),
        "StabilityReport": (
            "strongly_stable",
            "stable",
            "quasi_stable",
            "strongly_stable_witness",
            "stable_witness",
            "quasi_stable_witness",
        ),
        "StabilityWitness": ("generator", "variable", "divisor_variable"),
        "SigmaProfile": ("degree", "mode", "counts"),
        "ReductionStep": ("term", "head", "cofactor", "coefficient"),
        "ReductionTrace": ("steps", "result", "status"),
        "CriterionCheck": ("head", "variable", "trace"),
        "MarkedBasisResult": ("is_basis", "checks"),
        "GenericMarkedSet": ("ideal", "basis", "params", "tails"),
        "ParamVar": ("index", "term"),
        "SchemeEquations": ("generic", "equations"),
    }


def test_library_lines_fit_in_100_columns():
    long = [
        f"{path.name}:{number}"
        for path in library_paths()
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long == []
