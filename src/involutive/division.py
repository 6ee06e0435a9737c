"""Janet and Pommaret multiplicative variables, completeness, star decomposition.

All functions are pure; witnesses are returned on negative verdicts so callers
can surface actionable diagnostics.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property, partial
from heapq import heappop, heappush
from operator import sub
from typing import Callable, Collection, Iterable, Iterator, Mapping, Optional

from .errors import (
    DegreeCapExceeded,
    MismatchedVariableCount,
    NotComplete,
    NotInIdeal,
    _charge,
)
from .terms import Term, TermSet, _bump, _monomials

JANET = "janet"
POMMARET = "pommaret"


class _Node:
    """A node of the Janet tree: its children by the exponent at the next slot
    of the lex key (at depth n - 1, the keys themselves), the largest of those
    exponents (-1 at the root of the empty tree) and the keys that stop here,
    prefix + (e,) + zeros with e the exponent of the key's min variable, in
    canonical order."""

    __slots__ = ("kids", "top", "ends")

    def __init__(self) -> None:
        self.kids: dict = {}
        self.top = -1
        self.ends: list[tuple[int, ...]] = []


def _janet_tree(M: TermSet) -> _Node:
    """The Janet tree of M (Gerdt and Blinkov, "Involutive bases of polynomial
    ideals", 1998): the prefix trie of its lex keys, x_n first, so the terms
    below a node at depth i agree in every exponent above x_{n-i}."""
    root = _Node()
    for t in M:
        _janet_insert(root, t.lex_key)
    return root


def _janet_insert(root: _Node, k: tuple[int, ...]) -> Optional[tuple[object, int]]:
    """Insert the lex key k of a term not in the tree into the Janet tree at
    root, and into the ends of the node where it stops, in canonical order
    whatever the order of insertion, and return the members whose Janet
    variables it changes: (child, j) when the members below child lose x_j,
    else None.

    k raises the largest exponent of a node only where its own exceeds it,
    and then the members below the old largest child lose the node's
    variable; no other member's variables change.  The nodes below that one
    on k's path are new, so this happens at most once.  At depth n - 1 the
    child is a member's key itself."""
    last, node, stop, lost = len(k) - 1, root, root, None
    for i, e in enumerate(k):
        if e > node.top:
            if node.top >= 0:
                lost = node.kids[node.top], len(k) - i  # slot i holds x_{n-i}
            node.top = e
        if e:
            stop = node  # at the slot of min(t); the root for the term 1
        if i == last:
            node.kids[e] = k
        else:
            node = node.kids.get(e) or node.kids.setdefault(e, _Node())
    # the keys that stop at one node differ in one slot: lex order is canonical
    insort(stop.ends, k)
    return lost


def _keys_below(child: object) -> Iterator[tuple[int, ...]]:
    """The lex keys of the members below a child of the Janet tree, which at
    depth n - 1 is a member's key itself."""
    stack = [child]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            yield node
        else:
            stack.extend(node.kids.values())


def _janet_vars(root: _Node, k: tuple[int, ...]) -> frozenset[int]:
    """The Janet multiplicative variables of the member with lex key k: x_j is
    multiplicative iff k's exponent at slot n - j is the largest below the
    node there, among the members that agree with k above x_j."""
    n, vars_, node = len(k), [], root
    for i, e in enumerate(k):
        if e == node.top:
            vars_.append(n - i)  # slot i holds x_{n-i}
        node = node.kids[e]
    return frozenset(vars_)


def _janet_head(node: _Node, k: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """The lex key of the member whose Janet cone holds the term with key k,
    None when none does, in one descent: a member with the largest child's
    exponent e at a slot, multiplicative there, needs e <= k's, and any other
    needs k's exactly.  Janet cones are disjoint, so that path is the only one.
    The root of the empty tree has no child at all, not even at its top."""
    for e in k:
        top = node.top
        node = node.kids.get(top if e >= top else e)
        if node is None:
            return None
    return node


def _pommaret_head(node: _Node, k: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """The lex key of the lex-greatest member whose Pommaret cone holds the
    term with key k, None when none does, in one descent along k's own path.

    The cone of a member h stopping at depth s holds exactly the keys that
    start with h[:s] and carry at least h[s] at slot s, so the heads of k are
    the ends along its path with h[i] <= k[i].  A deeper head is lex-greater,
    and at one depth so is a larger end, which comes later in canonical order.
    """
    head = None
    for i, e in enumerate(k):
        for h in node.ends:
            if h[i] <= e:
                head = h
        node = node.kids.get(e)
        if node is None:
            break
    return head


def pommaret_multiplicative_vars(tau: Term) -> frozenset[int]:
    """Variables x_j with x_j <= min(tau); all of them for the constant term."""
    return frozenset(range(1, (tau.min_index or tau.nvars) + 1))


def _cone_terms(cones: Iterable[tuple[Term, Collection[int]]], d: int) -> int:
    """The degree-d terms of the cones tau * k[x_j : j in vars_] of (tau, vars_)
    pairs, with multiplicity: the degree-(d - deg tau) terms in vars_ each."""
    return sum(_monomials(d - tau.degree, len(vars_)) for tau, vars_ in cones)


def _nonmultiplicative(
    cones: Iterable[tuple[Term, Collection[int]]], n: int
) -> Iterator[tuple[Term, int]]:
    """The pairs (tau, j) with x_j not multiplicative for tau, over the
    (tau, vars_) pairs of the cones, an assignment's ``mult.items()`` in
    basis order, and then j ascending: completeness and the criterion range
    over them."""
    js = range(1, n + 1)
    for tau, vars_ in cones:
        for j in js:
            if j not in vars_:
                yield tau, j


def _first_uncovered(
    cones: Iterable[tuple[Term, Collection[int]]], n: int, head: Callable
) -> Optional[tuple[Term, int]]:
    """The first (tau, j) over the (tau, vars_) pairs of the cones in
    canonical order with x_j * tau in no involutive cone, None when there is
    none: the one fresh completeness scan, given the cover lookup ``head``
    (the lex key of a term's covering head, None when no cone holds it).
    The completion keeps its own worklist of the pairs to probe again
    instead (:func:`janet_complete`)."""
    for tau, j in _nonmultiplicative(cones, n):
        if head(_bump(tau.lex_key, n - j)) is None:  # x_j sits at slot n - j
            return tau, j
    return None


@dataclass(frozen=True)
class StarFactorization:
    """gamma = head * cofactor with the cofactor made of multiplicative variables."""

    head: Term
    cofactor: Term


@dataclass(frozen=True, eq=False)
class DivisionAssignment:
    """One multiplicative-variable set per term of a fixed TermSet, in its order.

    ``mult`` is the one source of the cones: its items, the (term, variables)
    pairs in basis order, are what the completeness scan, stable
    completeness, the criterion's prolongations and the JSON report walk.

    The assignment answers every cover question about its own basis, on lex
    keys (``Term.lex_key``): which terms' involutive cones hold a term
    (``_cover``, and :meth:`cover` on terms), whether the cones cover the
    ideal (``_uncovered``, from the one completeness scan ``_first_uncovered``)
    and whether two of them nest (``_nested``).  Each asks the one cover
    lookup ``_head``, the flavour's descent bound to the basis's Janet tree:
    the tree the Janet variables were read off, else one built on the first
    cover question.  The lookup is kept off the dataclass fields, so results
    compare and print by their fields alone.  A set that
    :func:`janet_complete` returns carries its Janet assignment, read off the
    tree the completion grew, so every question about it shares one tree and
    one completeness scan.
    """

    flavor: str
    basis: TermSet
    mult: Mapping[Term, frozenset[int]]

    @classmethod
    def janet(cls, M: TermSet) -> "DivisionAssignment":
        """The Janet assignment of M: the one M carries when
        :func:`janet_complete` returned it, else a fresh one on a new tree."""
        if M._janet is not None:
            return M._janet
        return cls._on_tree(M, _janet_tree(M))

    @classmethod
    def _on_tree(cls, M: TermSet, tree: _Node) -> "DivisionAssignment":
        """The Janet assignment of M read off ``tree``, M's Janet tree, whose
        descent its cover lookup binds."""
        assignment = cls(JANET, M, {t: _janet_vars(tree, t.lex_key) for t in M})
        assignment.__dict__["_head"] = partial(_janet_head, tree)
        return assignment

    @classmethod
    def pommaret(cls, M: TermSet) -> "DivisionAssignment":
        return cls(POMMARET, M, {t: pommaret_multiplicative_vars(t) for t in M})

    @cached_property
    def _head(self) -> Callable[[tuple[int, ...]], Optional[tuple[int, ...]]]:
        """The cover lookup: the lex key of the lex-greatest basis term whose
        involutive cone holds the term with key k, None when none does, in
        one descent of the basis's Janet tree."""
        descent = _janet_head if self.flavor == JANET else _pommaret_head
        return partial(descent, _janet_tree(self.basis))

    def _cover(self, k: tuple[int, ...]) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The term with lex key k as the keys (head, cofactor) of its lex-greatest
        covering head, None when no involutive cone holds it: the one cover
        lookup, behind :meth:`cover` and ``MarkedSet.decompose``."""
        head = self._head(k)
        return None if head is None else (head, tuple(map(sub, k, head)))

    def cover(self, gamma: Term) -> Optional[StarFactorization]:
        """gamma as the lex-greatest covering head times its cofactor; None
        when no involutive cone holds gamma.  Over a complete basis that means
        gamma lies outside the ideal."""
        if gamma.nvars != self.basis.n:
            raise MismatchedVariableCount(f"{self.basis.n} variables vs {gamma.nvars}")
        fact = self._cover(gamma.lex_key)
        return None if fact is None else StarFactorization(*map(Term._of_key, fact))

    @cached_property
    def _uncovered(self) -> Optional[tuple[Term, int]]:
        """The completeness witness of the basis: the first (tau, j) in
        canonical order with x_j * tau in no involutive cone, None when the
        basis is complete."""
        return _first_uncovered(self.mult.items(), self.basis.n, self._head)

    @cached_property
    def _nested(self) -> Optional[tuple[Term, Term]]:
        """The first basis term in canonical order that lies in the cone of
        another, with the lex-greatest such other term; None when the cones
        are disjoint, as Janet cones always are.  A Pommaret cone holds
        tau != 1 and is not its own iff it holds tau / x_min(tau), since the
        cones along tau's path hold its predecessor but tau's own does not."""
        if self.flavor == JANET:
            return None
        n = self.basis.n
        for tau in self.basis:
            if tau.degree:
                outer = self._head(_bump(tau.lex_key, n - tau.min_index, -1))
                if outer is not None:
                    return tau, Term._of_key(outer)
        return None


def _own_assignment(M: TermSet, assignment: Optional[DivisionAssignment]) -> DivisionAssignment:
    """The assignment of M: the given one, which must belong to M, or Janet's."""
    if assignment is None:
        return DivisionAssignment.janet(M)
    if M is not assignment.basis and M != assignment.basis:
        raise ValueError("the assignment belongs to another set of terms")
    return assignment


def star_decompose(
    M: TermSet, gamma: Term, assignment: Optional[DivisionAssignment] = None
) -> StarFactorization:
    """Factorization gamma = tau * eta with gamma in the offspring of tau.

    The head is the lex-greatest element of M whose involutive cone contains
    gamma; for a Janet assignment the cones are disjoint, so it is the only
    one.  ``assignment`` must be M's own (Janet by default).  A gamma in no
    cone raises NotInIdeal when it lies outside the ideal, and otherwise
    NotComplete with the completeness witness of M.
    """
    assignment = _own_assignment(M, assignment)
    fact = assignment.cover(gamma)
    if fact is not None:
        return fact
    if not M.generates(gamma):
        raise NotInIdeal(f"{gamma} is not in the generated ideal")
    raise NotComplete(
        f"{gamma} has no star factorization; the set is not complete",
        witness=assignment._uncovered,
    )


def is_complete(
    M: TermSet, assignment: Optional[DivisionAssignment] = None
) -> tuple[bool, Optional[tuple[Term, int]]]:
    """Completeness test; on failure returns a witness (term, variable index).

    Only the products x_j * tau for non-multiplicative x_j need checking:
    coverage of the whole semigroup ideal follows from the offspring
    partition property.  ``assignment`` must be M's own (Janet by default).
    """
    witness = _own_assignment(M, assignment)._uncovered
    return witness is None, witness


def is_stably_complete(
    M: TermSet, assignment: Optional[DivisionAssignment] = None
) -> tuple[bool, Optional[tuple[Term, int]]]:
    """Complete, and Janet multiplicative variables agree with the Pommaret ones.

    Both concern M alone, and both are read off M's Janet assignment: the
    given ``assignment`` when it is Janet's, else a fresh one (another
    flavour gives way to it, and an assignment of another set raises
    ValueError).  The witness of a negative verdict is the first uncovered
    prolongation, else the first term in canonical order whose Janet and
    Pommaret variables differ, with the least variable where they do.
    """
    assignment = _own_assignment(M, assignment)
    if assignment.flavor != JANET:
        assignment = DivisionAssignment.janet(M)
    ok, witness = is_complete(M, assignment)
    if not ok:
        return False, witness
    for tau, vars_ in assignment.mult.items():
        mismatch = vars_ ^ pommaret_multiplicative_vars(tau)
        if mismatch:
            return False, (tau, min(mismatch))
    return True, None


class _Worklist:
    """The pairs that Janet completion probes again, over the Janet tree it
    grows (Gerdt and Blinkov, "Involutive bases of polynomial ideals", 1998):
    ``queue``, a heap of the non-multiplicative pairs (tau, j) not known to be
    covered, as (deg tau, lex key of tau, j), so in canonical order of tau,
    then j; and ``covers``, from the lex key of each head to the pairs it was
    found to cover.  Every non-multiplicative pair of the members is in one of
    the two, and every pair in ``covers`` lies in its head's cone.

    Adding a term can only raise the largest exponent in a Janet class, so
    multiplicative sets only shrink: only the members below the child that
    the addition displaces as the largest at one node lose a variable, and
    only the cones of those members change.  So :meth:`add` queues the
    addition's own pairs, the pair of each such member with the variable it
    lost, and the pairs those members covered, and every pair in ``covers``
    stays covered."""

    __slots__ = ("tree", "n", "queue", "covers")

    def __init__(self, tree: _Node, terms: list[Term], n: int) -> None:
        cones = ((t, _janet_vars(tree, t.lex_key)) for t in terms)
        # in canonical order already, so the list is a heap
        self.queue = [(t.degree, t.lex_key, j) for t, j in _nonmultiplicative(cones, n)]
        self.covers: dict[tuple[int, ...], list[tuple[int, tuple[int, ...], int]]] = {}
        self.tree, self.n = tree, n

    def first_uncovered(self) -> Optional[tuple[int, tuple[int, ...], int]]:
        """The first queued pair (deg tau, lex key of tau, j) with x_j * tau in
        no cone, which stays queued, None when there is none: the pairs before
        it leave the queue for their heads' entries in ``covers``.  It is the
        first uncovered pair of the members, as a fresh scan gives it."""
        queue, covers, tree, n = self.queue, self.covers, self.tree, self.n
        while queue:
            pair = queue[0]
            h = _janet_head(tree, _bump(pair[1], n - pair[2]))  # x_j sits at slot n - j
            if h is None:
                return pair
            heappop(queue)
            covers.setdefault(h, []).append(pair)
        return None

    def add(self, k: tuple[int, ...]) -> None:
        """Insert the lex key k of a term in no cone into the tree, and queue
        its own pairs and every pair whose cover it may have changed."""
        queue, tree = self.queue, self.tree
        lost = _janet_insert(tree, k)
        if lost is not None:
            below, x = lost
            for key in _keys_below(below):
                heappush(queue, (sum(key), key, x))
                for pair in self.covers.pop(key, ()):
                    heappush(queue, pair)
        d, vars_ = sum(k), _janet_vars(tree, k)
        for j in range(1, self.n + 1):
            if j not in vars_:
                heappush(queue, (d, k, j))


def janet_complete(M: TermSet, degree_cap: int) -> TermSet:
    """Enlarge M until it is complete, adding non-multiplicative products.

    Terms are processed in canonical (degree, lex) order and the first
    uncovered product x_j * tau is added, and its key inserted into the one
    Janet tree of the call.  Completion of a finite set always terminates;
    ``degree_cap`` is a safety valve and exceeding it raises
    DegreeCapExceeded carrying the partial set.  The cap does not bound the
    number of additions, so each round is charged |current| * n, the
    prolongation scan of a fresh completeness test, and past the work budget
    WorkBudgetExceeded is raised with the units charged so far.

    The rounds share one :class:`_Worklist`, seeded once with the input's
    non-multiplicative pairs: a round pops the pairs its heads cover until
    the first one that no cone holds, and probes again only the pairs queued
    since.  Each witness is the first uncovered pair of the current set, so
    the additions, their order, the partial set of DegreeCapExceeded and the
    work charged per round are those of a scan that restarts from nothing
    after each addition.  An addition lies in no cone, while each member
    lies in its own, so it is never a member.  The call keeps its members in
    a list and builds a TermSet only of what it returns or raises.

    The grown tree is the Janet tree of the result, which is returned with
    its Janet assignment read off that tree (``DivisionAssignment.janet``
    hands it out); the witness of that assignment is left to its own fresh
    scan, so a completeness test still checks the result independently.
    The partial set of DegreeCapExceeded carries no assignment.
    """
    if len(M) == 0:
        raise ValueError("cannot complete an empty set")
    n, terms, tree = M.n, list(M), _janet_tree(M)
    worklist = _Worklist(tree, terms, n)
    work = 0
    while True:
        work += len(terms) * n
        _charge(
            work,
            "the completion rebuilt its table over {} terms and variables after {} additions",
            work,
            len(terms) - len(M),
        )
        witness = worklist.first_uncovered()
        if witness is None:
            C = TermSet(terms, n)
            C._janet = DivisionAssignment._on_tree(C, tree)
            return C
        d, k, j = witness
        if d + 1 > degree_cap:
            raise DegreeCapExceeded(
                f"completion needs degree {d + 1} > cap {degree_cap}",
                partial=TermSet(terms, n),
            )
        k = _bump(k, n - j)
        terms.append(Term._of_key(k))
        worklist.add(k)
