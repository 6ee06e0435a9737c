"""Structural pins on the library's source.

The library keeps one owner for each decision: one body for each
divisibility question, one builder of the Janet tree, one reader of an
assignment's flavour, one constructor of a marked set, one meter of the work
budget.  ``OWNERS`` writes that architecture down as data: for each internal
name, the place of its one definition and every place that may name it,
with how many times; one walk of the library checks the table.  A refactor
that moves an owner edits rows and leaves the walker alone.  The checks that
are not about ownership, such as what a loop may name, stay as short code.

The benchmark's tracer (``bench/tracer.py``) wraps library methods and reads
library attributes by name, so a refactor that drops one fails here and not
only in the benchmark's own self-test.  The library's own checks must not
vanish under ``python -O``, and its lines fit in 100 columns."""

import ast
import dataclasses
import importlib
import importlib.util
from collections import Counter, defaultdict
from functools import cache, cached_property
from pathlib import Path

import pytest

import involutive
from involutive import Term, TermSet, division, errors, make_marked_set, reduce
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
    """(node, module, scope) for each node in the library; the scope is the
    dotted path of the enclosing classes and functions, "" at module level,
    so a class or function sits in the scope around it."""

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            yield child, module, ".".join(scope)
            inner = (child.name,) if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else ()
            yield from visit(child, module, scope + inner)

    for module, tree in library_trees():
        yield from visit(tree, module, ())


def spelled(node):
    """The name a node spells: a Name, an Attribute, an import, an exception
    bound by ``as`` or a string constant; None for any other node."""
    if isinstance(node, ast.Constant):
        return node.value if isinstance(node.value, str) else None
    return getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)


@cache
def references():
    """Where the library names what, by place: "module.py:scope", the module
    alone at module level.  ``uses[name]`` counts the places of each node
    that spells ``name``, ``uses["name()"]`` those of each call of it and
    ``uses["name="]`` those of each write; ``defined[name]`` lists the places
    of each def or class of it."""
    uses, defined = defaultdict(Counter), defaultdict(list)
    for node, module, scope in scoped_nodes():
        place = f"{module}:{scope}" if scope else module
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            defined[node.name].append(place)
            continue
        name = spelled(node)
        if name:
            uses[name][place] += 1
            if isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
                uses[name + "="][place] += 1
        if isinstance(node, ast.Call) and spelled(node.func):
            uses[spelled(node.func) + "()"][place] += 1
    return uses, defined


def names(node):
    """The names spelled anywhere inside a node."""
    return {spelled(inner) for inner in ast.walk(node)}


def test_library_checks_survive_optimisation():
    # python -O strips assert statements: a check must raise explicitly
    found = [
        f"{name}:{node.lineno}"
        for name, tree in library_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


DA = "division.py:DivisionAssignment"

# Who owns each internal.  A row maps a name to the place of its one def or
# class (None: no def or class of it anywhere, as for an attribute or an
# assigned name) and to every place that names it, each with its count, as
# :func:`references` finds them; "name()" rows count the calls alone and
# "name=" rows the writes alone.  Reads, writes, imports and strings all
# name, so a descent handed on as a value, an import of it or a setattr of a
# slot each count.
OWNERS = {
    # terms owns term divisibility, the membership scan over the members' lex
    # keys, and the slot (spelled once, in TermSet.__slots__) in which
    # janet_complete alone hands the Janet assignment of the tree it grew to
    # the set it returns: no set that a caller builds gets a memo
    "divides": ("terms.py:Term", {"terms.py:Term.__truediv__": 1}),
    "_generates_key": (
        "terms.py:TermSet",
        {"terms.py:TermSet.generates": 1, "terms.py:_escalier_keys": 1},
    ),
    "_janet": (
        None,
        {"terms.py:TermSet": 1, "terms.py:TermSet.__init__": 1, f"{DA}.janet": 2,
         "division.py:janet_complete": 1},
    ),
    "_janet=": (None, {"terms.py:TermSet.__init__": 1, "division.py:janet_complete": 1}),
    # division owns the Janet tree.  The insertion of one key makes the nodes
    # below the root; _janet_tree makes the one root, which an empty basis
    # needs too, and inserts each member.  The tree is built by the Janet
    # assignment, which reads its variables off it, by the cover lookup of any
    # other assignment, and once by the completion, whose worklist grows it
    "_Node": (
        "division.py",
        {"division.py:_janet_tree": 2, "division.py:_janet_insert": 2,
         "division.py:_janet_vars": 1, "division.py:_janet_head": 1,
         "division.py:_pommaret_head": 1, f"{DA}._on_tree": 1,
         "division.py:_Worklist.__init__": 1},
    ),
    "_Node()": ("division.py", {"division.py:_janet_tree": 1, "division.py:_janet_insert": 1}),
    "_janet_tree": (
        "division.py",
        {f"{DA}.janet": 1, f"{DA}._head": 1, "division.py:janet_complete": 1},
    ),
    "_janet_insert": (
        "division.py",
        {"division.py:_janet_tree": 1, "division.py:_Worklist.add": 1},
    ),
    "_keys_below": ("division.py", {"division.py:_Worklist.add": 1}),
    "_janet_vars": (
        "division.py",
        {f"{DA}._on_tree": 1, "division.py:_Worklist.__init__": 1, "division.py:_Worklist.add": 1},
    ),
    # The Janet and Pommaret descents are named by the assignment's one cover
    # lookup, and the Janet descent also by the wrapper of a tree into a Janet
    # assignment, which binds it to the tree it read the variables off, and by
    # the completion's worklist, which probes its queued pairs on the tree it
    # grows; so every cover question goes through one of them.  The wrapper
    # installs the bound lookup by the one __dict__ write; the Janet
    # assignment calls it, and janet_complete, to hand the grown tree over
    "_janet_head": (
        "division.py",
        {f"{DA}._on_tree": 1, f"{DA}._head": 1, "division.py:_Worklist.first_uncovered": 1},
    ),
    "_pommaret_head": ("division.py", {f"{DA}._head": 1}),
    "_head": (
        DA,
        {f"{DA}._on_tree": 1, f"{DA}._cover": 1, f"{DA}._uncovered": 1, f"{DA}._nested": 1},
    ),
    "__dict__": (None, {f"{DA}._on_tree": 1}),
    "_on_tree": (DA, {f"{DA}.janet": 1, "division.py:janet_complete": 1}),
    "janet()": (
        DA,
        {"cli.py:_cmd_mult_vars": 1, "division.py:_own_assignment": 1,
         "division.py:is_stably_complete": 1, "marked.py:MarkedSet.__init__": 1},
    ),
    # Which cones an assignment has is its flavour, and division alone reads
    # it or names one, imports included: each assignment binds its descent
    # once, in its cached cover lookup, and beside that only the nesting test
    # and stable completeness read the flavour
    "flavor": (
        None,
        {DA: 1, f"{DA}._head": 1, f"{DA}._nested": 1, "division.py:is_stably_complete": 1},
    ),
    "JANET": (
        None,
        {"division.py": 1, f"{DA}._on_tree": 1, f"{DA}._head": 1, f"{DA}._nested": 1,
         "division.py:is_stably_complete": 1},
    ),
    "POMMARET": (None, {"division.py": 1, f"{DA}.pommaret": 1}),
    # division owns the multiplicative structure: the cone count and the walk
    # of the non-multiplicative pairs (tau, j), which the modules that count
    # cones or walk prolongations import.  The one fresh completeness scan is
    # the cached witness of an assignment; the completion seeds one worklist
    "_cone_terms": (
        "division.py",
        {"ideals.py": 1, "ideals.py:hilbert_function": 1, "marked.py": 1,
         "marked.py:build_Gs": 1, "scheme.py": 1, "scheme.py:_generic_work": 1},
    ),
    "_nonmultiplicative": (
        "division.py",
        {"division.py:_first_uncovered": 1, "division.py:_Worklist.__init__": 1,
         "marked.py": 1, "marked.py:_prolongations": 1},
    ),
    "_first_uncovered": ("division.py", {f"{DA}._uncovered": 1}),
    "_Worklist": ("division.py", {"division.py:janet_complete": 1}),
    # division owns the stable completeness verdict, which the CLI and a
    # marked set ask for.  ideals does not name it: the star set of a
    # quasi-stable ideal is its Pommaret basis by the paper's theorem, which
    # the tests check, so pommaret_basis returns it without a re-proof
    "is_stably_complete": (
        "division.py",
        {"__init__.py": 1, "cli.py": 1, "marked.py": 1,
         "marked.py:MarkedSet.stable_completeness": 1},
    ),
    # ideals owns the fit-power index of a monomial ideal, a slot
    "_fit_index": (
        None,
        {"ideals.py:MonomialIdeal": 1, "ideals.py:MonomialIdeal.__init__": 1,
         "ideals.py:_fit_power": 1},
    ),
    # MarkedSet.__init__ alone makes marked polynomials, from the basis and
    # the tails; make_marked_set validates the tails before calling it, and
    # scheme's generic set and its specialisations call it directly
    "MarkedPolynomial()": ("marked.py", {"marked.py:MarkedSet.__init__": 1}),
    "MarkedSet()": (
        "marked.py",
        {"marked.py:make_marked_set": 1, "scheme.py:GenericMarkedSet.marked_set": 1,
         "scheme.py:specialize": 1},
    ),
    # The oracle scales each marked polynomial to a primitive integer row
    # once, through _linalg's one scaling, and hands the rows to the walk of
    # the star multiples that build_Gs calls on the keyed polynomials: the
    # elimination takes integer rows and never scales them itself
    "_integer_row": ("_linalg.py", {"marked.py:_oracle_failure": 1}),
    "lcm": (
        None,
        {"_linalg.py": 1, "_linalg.py:_integer_row": 1, "scheme.py": 1, "scheme.py:_evaluate": 1},
    ),
    "_star_multiples()": (
        "marked.py",
        {"marked.py:build_Gs": 1, "marked.py:_oracle_failure": 1},
    ),
    # errors._charge alone reads the work budget and raises past it
    "_WORK_BUDGET": (None, {"errors.py": 1, "errors.py:_charge": 3}),
    "WorkBudgetExceeded()": ("errors.py", {"errors.py:_charge": 1}),
}


def unowned(rows):
    """The rows of ``OWNERS`` named in ``rows`` that the library breaks, each
    with the defining places and the uses found instead."""
    uses, defined = references()
    wrong = {}
    for name in rows:
        where, places = OWNERS[name]
        found = defined.get(name.rstrip("()="), [])
        if found != ([where] if where else []) or dict(uses[name]) != places:
            wrong[name] = (found, dict(uses[name]))
    return wrong


def test_the_ownership_table_matches_the_library():
    # each name is defined where its row says, once, and named exactly where
    # and as often as its row says; a stale row fails like a stray use
    assert unowned(OWNERS) == {}


def test_the_oracle_scales_each_polynomial_once():
    # no second path to integer rows: the elimination clears the rows the
    # oracle scaled, and G^(s) is listed by one walk for both callers
    assert unowned(("_integer_row", "lcm", "_star_multiples()")) == {}


def test_each_divisibility_question_has_one_body():
    # term divisibility and the membership scan live in terms, the Janet tree
    # with its descents in division and the fit-power index in ideals
    rows = ("divides", "_generates_key", "_Node", "_janet_tree", "_janet_insert",
            "_keys_below", "_janet_vars", "_janet_head", "_pommaret_head", "_head",
            "_fit_index")
    assert unowned(rows) == {}


def test_the_janet_tree_has_one_builder():
    # _janet_tree and _janet_insert alone make tree nodes, and the tree is
    # built by the Janet assignment, the cover lookup and the completion
    assert unowned(("_Node()", "_janet_tree", "_janet_insert")) == {}


def test_the_descents_have_one_caller():
    # every cover question goes through the Janet or the Pommaret descent,
    # named only by the cover lookup, the tree wrapper and the worklist
    assert unowned(("_janet_head", "_pommaret_head")) == {}


# (module, class, method) of the methods that nothing in the library names:
# the benchmark's tracer wraps them (its LEAF_METHODS) and so keeps them
UNNAMED = {
    ("terms", "Term", "predecessor"),
    ("marked", "MarkedPolynomial", "times"),
    ("marked", "MarkedSet", "contains"),
    ("ideals", "MonomialIdeal", "contains"),
    ("scheme", "ParamPolynomial", "evaluate"),
}


def test_every_library_function_is_named():
    # a function or method that the library names nowhere outside its own
    # body is dead code, unless it is a dunder or exported by the package
    uses, _ = references()
    exported = {name for names in involutive._EXPORTS.values() for name in names}
    unnamed = set()
    for node, module, scope in scoped_nodes():
        if not isinstance(node, ast.FunctionDef) or node.name in exported:
            continue
        name = node.name
        body = f"{module}:{scope}.{name}" if scope else f"{module}:{name}"
        dunder = name.startswith("__") and name.endswith("__")
        if not dunder and all(at == body or at.startswith(body + ".") for at in uses[name]):
            unnamed.add((module.removesuffix(".py"), scope, name))
    assert unnamed == UNNAMED
    leaves = load_tracer().LEAF_METHODS
    assert all(name in leaves.get((module, cls), ()) for module, cls, name in UNNAMED)


def test_the_work_budget_has_one_meter(monkeypatch):
    # the table makes errors._charge the one reader of the budget, so a test
    # patches one name and every loop that can run away is refused alike; a
    # charge within the budget formats no message, so a hot loop builds none
    monkeypatch.setattr(errors, "_WORK_BUDGET", 3)
    errors._charge(3, "{}")  # formatting "{}" with no argument would raise
    with pytest.raises(errors.WorkBudgetExceeded) as refused:
        errors._charge(4, "{} units", 4)
    assert str(refused.value) == "4 units, past the budget of 3"


def test_division_owns_the_multiplicative_structure():
    # marked and scheme take multiplicative variables from division and never
    # read min(tau) themselves
    uses, _ = references()
    assert [at for at in uses["min_index"] if at.startswith(("marked.py", "scheme.py"))] == []


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
    uses, _ = references()
    computing = ("division.py", "ideals.py", "marked.py", "_linalg.py")
    assert [at for at in uses["exponents"] if at.startswith(computing)] == []
    # terms also owns the one-slot edit of a lex key, k[:i] + (k[i] + by,) +
    # k[i + 1 :], in _bump, and the (degree, lex) sort key that every sort
    # of terms reads
    def sliced(node):
        return isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)

    splices, sort_keys = [], []
    for name, tree in library_trees():
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
    # lex keys become terms through Term._of_key, with no memo on the set
    # (the constructor calls are rows of OWNERS)
    uses, _ = references()
    assert uses["_term"] == uses["_terms"] == Counter()
    assert "_term" not in MarkedSet.__dict__


def test_stable_completeness_is_decided_in_division():
    # outside division no function that asks for stable completeness builds
    # a DivisionAssignment to decide it
    builders = [
        f"{name}:{function.name}"
        for name, tree in library_trees()
        if name != "division.py"
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        and names(function) & {"is_stably_complete", "stable_completeness"}
        and names(function) & {"DivisionAssignment", "janet", "pommaret"}
    ]
    assert builders == []


def test_completeness_has_one_scan_body():
    # the walk of the non-multiplicative pairs that probes each prolongation
    # for a covering head is _first_uncovered alone, given the cover lookup
    # (``head``): no other scope in division names the walk and a lookup
    uses, _ = references()
    lookups = ("head", "_head", "_janet_head", "_pommaret_head")
    scans = {
        at
        for at in uses["_nonmultiplicative"]
        if at.startswith("division.py") and any(uses[name][at] for name in lookups)
    }
    assert scans == {"division.py:_first_uncovered"}


def division_definitions():
    tree = dict(library_trees())["division.py"]
    return {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }


def test_the_completion_rounds_walk_no_pairs():
    # janet_complete seeds one worklist with the input's non-multiplicative
    # pairs and builds one tree, before its loop; no round walks the pairs,
    # scans afresh or builds a tree: its loop and the worklist's methods
    # past the seeding name neither the walk, nor the fresh scan, nor a new
    # worklist, nor a tree or Janet assignment builder
    defined = division_definitions()
    loops = [
        node
        for node in ast.walk(defined["janet_complete"])
        if isinstance(node, (ast.For, ast.While))
    ]
    methods = [
        node
        for node in defined["_Worklist"].body
        if isinstance(node, ast.FunctionDef) and node.name != "__init__"
    ]
    assert loops and methods
    walks = {"_nonmultiplicative", "_first_uncovered", "_Worklist", "_janet_tree", "janet"}
    assert [sorted(names(node) & walks) for node in loops + methods] == [[]] * len(loops + methods)


def test_the_completion_builds_one_tree():
    # janet_complete keeps the members and a worklist of the pairs to probe
    # again itself, and names a DivisionAssignment once, to hand the grown
    # tree to its result through _on_tree (its one tree build, the __dict__
    # write and the _on_tree callers are rows of OWNERS)
    uses, _ = references()
    handed = [
        node.attr
        for node in ast.walk(division_definitions()["janet_complete"])
        if getattr(getattr(node, "value", None), "id", None) == "DivisionAssignment"
    ]
    assert uses["DivisionAssignment"]["division.py:janet_complete"] == 1 and handed == ["_on_tree"]


def test_only_the_completion_hands_over_an_assignment():
    # a TermSet's Janet assignment is set to None by its constructor, in a
    # declared slot (the writers of the slot are rows of OWNERS)
    init = next(
        node
        for node, module, scope in scoped_nodes()
        if scope == "TermSet.__init__"
        and isinstance(node, ast.Assign)
        and getattr(node.targets[0], "attr", None) == "_janet"
    )
    assert isinstance(init.value, ast.Constant) and init.value.value is None
    assert "_janet" in TermSet.__slots__


def test_the_flavour_is_decided_in_division():
    # the one cover lookup that binds an assignment's descent is cached (who
    # reads the flavour is a row of OWNERS)
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
