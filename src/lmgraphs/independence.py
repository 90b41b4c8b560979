"""Finite conditional-independence models and the graphoid machinery.

A model is a set of statements <A, B | C> over a ground set. Statements with
an empty A or B side hold in every model and are never stored. Models are
kept small and explicit on purpose: every axiom check below is an exhaustive
quantification over the ground set, and closures are genuine least fixpoints,
so they can serve as ground truth for the separation engine. An axiom check
does its quantification as int operations on rows of C-sets, one row per
(A, B), visiting only the rows a failing instance must have non-empty (see
``check_axiom``).
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence

from .graph import GraphError, MixedGraph
from .separation import _reach, _search_form

FULL_MODEL_LIMIT = 6
SINGLETON_MODEL_LIMIT = 8
CLOSURE_LIMIT = 5
AXIOM_LIMIT = 12


class Axiom(Enum):
    SYMMETRY = "symmetry"
    DECOMPOSITION = "decomposition"
    WEAK_UNION = "weak_union"
    CONTRACTION = "contraction"
    INTERSECTION = "intersection"
    COMPOSITION = "composition"


SEMI_GRAPHOID = frozenset(
    {Axiom.SYMMETRY, Axiom.DECOMPOSITION, Axiom.WEAK_UNION, Axiom.CONTRACTION}
)
GRAPHOID = SEMI_GRAPHOID | {Axiom.INTERSECTION}
COMPOSITIONAL_SEMI_GRAPHOID = SEMI_GRAPHOID | {Axiom.COMPOSITION}
COMPOSITIONAL_GRAPHOID = GRAPHOID | {Axiom.COMPOSITION}

AXIOM_SETS = {
    "semigraphoid": SEMI_GRAPHOID,
    "graphoid": GRAPHOID,
    "compositional-semigraphoid": COMPOSITIONAL_SEMI_GRAPHOID,
    "compositional-graphoid": COMPOSITIONAL_GRAPHOID,
}


@dataclass(frozen=True)
class IndependenceStatement:
    a: frozenset[str]
    b: frozenset[str]
    c: frozenset[str]

    def __post_init__(self) -> None:
        if not self.a or not self.b:
            raise GraphError(
                "statements with an empty side hold implicitly and are not stored"
            )
        if self.a & self.b or self.a & self.c or self.b & self.c:
            raise GraphError("statement components must be pairwise disjoint")

    @staticmethod
    def of(a: Iterable[str], b: Iterable[str], c: Iterable[str] = ()) -> "IndependenceStatement":
        return IndependenceStatement(frozenset(a), frozenset(b), frozenset(c))

    def mirrored(self) -> "IndependenceStatement":
        return IndependenceStatement(self.b, self.a, self.c)

    def sort_key(self) -> tuple:
        return (
            tuple(sorted(self.a)),
            tuple(sorted(self.b)),
            tuple(sorted(self.c)),
        )

    def __str__(self) -> str:
        return format_statement(self)


def _render_set(nodes: Iterable[str]) -> str:
    return "{" + ",".join(sorted(nodes)) + "}"


def format_statement(statement: IndependenceStatement) -> str:
    """Render as e.g. ``{i,k} _||_ {j} | {l}``; an empty C shows as ``{}``."""
    return (
        f"{_render_set(statement.a)} _||_ {_render_set(statement.b)}"
        f" | {_render_set(statement.c)}"
    )


def _parse_node_set(text: str, *, allow_empty: bool) -> frozenset[str]:
    text = text.strip()
    if text.startswith("{"):
        if not text.endswith("}"):
            raise GraphError(f"unbalanced braces in node set {text!r}")
        labels = [t.strip() for t in text[1:-1].split(",") if t.strip()]
    elif text:
        if any(ch.isspace() or ch in "{}|," for ch in text):
            raise GraphError(f"malformed node set {text!r}")
        labels = [text]
    else:
        labels = []
    if not labels and not allow_empty:
        raise GraphError("independence statement sides must be non-empty")
    return frozenset(labels)


def parse_statement(text: str) -> IndependenceStatement:
    """Parse ``A _||_ B | C``; sides are ``{a,b}`` sets or bare labels."""
    if "_||_" not in text:
        raise GraphError(f"missing '_||_' in statement {text!r}")
    left, rest = text.split("_||_", 1)
    if "|" not in rest:
        raise GraphError(f"missing '| C' part in statement {text!r}")
    mid, right = rest.split("|", 1)
    return IndependenceStatement(
        _parse_node_set(left, allow_empty=False),
        _parse_node_set(mid, allow_empty=False),
        _parse_node_set(right, allow_empty=True),
    )


class IndependenceModel:
    """An explicit independence model over a finite ground set.

    ``symmetry_closed`` marks models built to contain both orientations of
    every statement; membership queries on such models normalize orientation.
    Raw models keep orientation significant so that the symmetry axiom itself
    stays falsifiable.
    """

    def __init__(
        self,
        ground_set: Iterable[str],
        statements: Iterable[IndependenceStatement] = (),
        symmetry_closed: bool = False,
    ):
        self.ground_set = frozenset(ground_set)
        stmts = frozenset(statements)
        for s in stmts:
            if not (s.a | s.b | s.c) <= self.ground_set:
                raise GraphError(f"statement {s} leaves the ground set")
        self.statements = stmts
        self.symmetry_closed = symmetry_closed

    def contains(
        self, a: Iterable[str], b: Iterable[str], c: Iterable[str] = ()
    ) -> bool:
        """Membership, counting implicit empty-side statements as present."""
        fa, fb, fc = frozenset(a), frozenset(b), frozenset(c)
        if not fa or not fb:
            return True
        if fa & fb or fa & fc or fb & fc:
            return False
        s = IndependenceStatement(fa, fb, fc)
        return s in self.statements or self.symmetry_closed and s.mirrored() in self.statements

    def __contains__(self, statement: IndependenceStatement) -> bool:
        return self.contains(statement.a, statement.b, statement.c)

    def __len__(self) -> int:
        return len(self.statements)

    def sorted_statements(self) -> list[IndependenceStatement]:
        """The statements by sort key, sorted once per model, as a new list."""
        return list(self._sorted)

    @functools.cached_property
    def _sorted(self) -> tuple[IndependenceStatement, ...]:
        return tuple(sorted(self.statements, key=IndependenceStatement.sort_key))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndependenceModel):
            return NotImplemented
        return (
            self.ground_set == other.ground_set
            and self.statements == other.statements
        )

    def __hash__(self) -> int:
        return hash((self.ground_set, self.statements))

    def __repr__(self) -> str:
        return (
            f"IndependenceModel({len(self.statements)} statements over "
            f"{sorted(self.ground_set)})"
        )

    @functools.cached_property
    def _rows(self) -> tuple[dict[int, int], dict[int, int]]:
        """The statements as rows (membership, raw), node k of the sorted
        ground set being bit k: the row at ``a | b << n`` has bit c set when
        <A, B | C> is stored, so a row is 2^n bits wide. A symmetry-closed
        model adds mirrors to its membership rows, as ``contains`` counts
        them; otherwise one dict is both."""
        n, mask = len(self.ground_set), _masker(sorted(self.ground_set))
        raw: dict[int, int] = {}
        for s in self.statements:
            key = mask(s.a) | mask(s.b) << n
            raw[key] = raw.get(key, 0) | 1 << mask(s.c)
        if not self.symmetry_closed:
            return raw, raw
        member, full = dict(raw), (1 << n) - 1
        for key, row in raw.items():
            mirror = key >> n | (key & full) << n
            member[mirror] = member.get(mirror, 0) | row
        return member, raw


# -- node sets as bit masks ----------------------------------------------------


def _masker(labels: Sequence[str]):
    """The function taking a set of labels to its mask, label k being bit k,
    memoised per set: ``enumerate_model`` shares one frozenset per mask."""
    bit = {label: 1 << k for k, label in enumerate(labels)}
    return functools.cache(lambda nodes: sum(bit[v] for v in nodes))


def _label_sets(labels: Sequence[str]) -> list[frozenset[str]]:
    """The label set of every mask over ``labels``, indexed by the mask."""
    sets = [frozenset()]
    for label in labels:
        sets += [s | {label} for s in sets]
    return sets


@functools.lru_cache(maxsize=8)
def _submask_rows(n: int) -> tuple[int, ...]:
    """Indexed by each mask m over n nodes, the row with bit c set for each c <= m."""
    rows = [1]
    for k in range(n):
        rows += [row | row << (1 << k) for row in rows]
    return tuple(rows)


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- models induced by separation -------------------------------------------


def _require_enumerable(graph: MixedGraph, singleton_only: bool, limit: Optional[int]) -> None:
    cap = limit if limit is not None else (
        SINGLETON_MODEL_LIMIT if singleton_only else FULL_MODEL_LIMIT
    )
    if len(graph.nodes) > cap:
        raise GraphError(
            f"model enumeration limit exceeded: {len(graph.nodes)} nodes > {cap}"
        )
    graph.require_loopless()


def _walk_successors(into: list[int], out: list[int], c: int) -> list[int]:
    """The bit-parallel walk's successor masks given C, one per state: state
    (v, arrived without an arrowhead) is bit v and (v, arrived with one) bit
    n + v; ``into[v]`` and ``out[v]`` are the states entered from v over an
    edge with, and without, an arrowhead at v. The gate is that of
    ``separation._reach``'s linear lane, by C alone (see there why)."""
    n = len(into)
    succ = [0] * (2 * n)
    for v in range(n):
        if c >> v & 1:
            succ[n + v] = into[v]
        else:
            succ[v], succ[n + v] = into[v] | out[v], out[v]
    return succ


def _reach_masks(graph: MixedGraph) -> Iterator[tuple[int, list[int]]]:
    """For each conditioning set C, a mask over ``graph.compiled.labels``, the
    row of reach masks R(x, C): the nodes outside C and x that some
    m-connecting path given C joins to x (0 for x in C). One search per
    (x, C), each on its own, so no model-level structure is assumed; the
    searches run on ``_search_form``, the form ``m_separated`` answers on.

    On an anterior form a walk state carries no history, so the search fits
    in one int over the states of ``_walk_successors``, gated by C alone as
    in ``_reach``'s linear lane. Each search pops the lowest bit of its
    frontier until no new state turns up. A graph with ribbons keeps its own
    form and ``_reach``'s visited-mask lane, one call per (x, C)."""
    form = _search_form(graph)
    n = len(form.labels)
    if not form.anterior:
        for c in range(1 << n):
            given = set(_bits(c))
            row = []
            for x in range(n):
                reach = 0
                if not c >> x & 1:
                    for w in _reach(form, (x,), given):
                        reach |= 1 << w
                row.append(reach & ~c & ~(1 << x))
            yield c, row
        return
    into, out = (
        [sum(1 << ((s >> 1) + n * (s & 1)) for s in states) for states in lists]
        for lists in form.successors
    )
    full = (1 << n) - 1
    for c in range(1 << n):
        succ = _walk_successors(into, out, c)
        row = []
        for x in range(n):
            if c >> x & 1:
                row.append(0)
                continue
            seen = frontier = into[x] | out[x]
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                fresh = succ[low.bit_length() - 1] & ~seen
                seen |= fresh
                frontier |= fresh
            row.append((seen | seen >> n) & full & ~c & ~(1 << x))
        yield c, row


def enumerate_model(
    graph: MixedGraph, singleton_only: bool = False, limit: Optional[int] = None
) -> IndependenceModel:
    """The independence model induced by m-separation on ``graph``.

    For each conditioning set C and node x outside it, one search gives
    R(x, C), the nodes m-connected to x given C (see ``_reach_masks``).
    <A, B | C> is stored exactly when B avoids R(x, C) for every x in A,
    which is the definition of separation, so symmetry and composition of
    the model are observed, never assumed. A ranges over the non-empty
    subsets of V - C, and B over the non-empty subsets of what A leaves
    free, both as bit masks.
    ``singleton_only`` restricts A and B to single nodes, which determines
    the full model via decomposition and composition. Graphs with loops are
    refused.
    """
    _require_enumerable(graph, singleton_only, limit)
    labels = graph.compiled.labels
    n = len(labels)
    sets = _label_sets(labels)
    full = (1 << n) - 1
    joined = [0] * (1 << n)  # union of R(x, C) over the x in A, by A
    statements = []
    for c, reach in _reach_masks(graph):
        rest, given = full & ~c, sets[c]
        if singleton_only:
            for x in _bits(rest):
                for y in _bits(rest & ~reach[x] & ~(1 << x)):
                    statements.append(IndependenceStatement(sets[1 << x], sets[1 << y], given))
            continue
        a = (-rest) & rest  # submasks of rest in increasing order
        while a:
            low = a & -a
            joined[a] = joined[a ^ low] | reach[low.bit_length() - 1]
            free = rest & ~a & ~joined[a]
            b = free
            while b:
                statements.append(IndependenceStatement(sets[a], sets[b], given))
                b = (b - 1) & free
            a = (a - rest) & rest
    return IndependenceModel(graph.nodes, statements)


def pairwise_model(graph: MixedGraph) -> IndependenceModel:
    """One statement per non-adjacent pair, conditioned on the union of the
    pair's anterior sets; mirrored orientations included."""
    graph.require_loopless()
    ant = {v: graph.anteriors(v) for v in graph.nodes}
    statements = []
    for x, y in itertools.combinations(graph.node_list(), 2):
        if graph.adjacent(x, y):
            continue
        c = (ant[x] | ant[y]) - {x, y}
        s = IndependenceStatement.of([x], [y], c)
        statements.extend([s, s.mirrored()])
    return IndependenceModel(graph.nodes, statements, symmetry_closed=True)


# -- axiom checking -----------------------------------------------------------


@dataclass(frozen=True)
class AxiomViolation:
    axiom: Axiom
    a: frozenset[str]
    b: frozenset[str]
    c: frozenset[str]
    d: frozenset[str]
    missing: IndependenceStatement

    def __str__(self) -> str:
        return (
            f"{self.axiom.value} fails at A={_render_set(self.a)}"
            f" B={_render_set(self.b)} C={_render_set(self.c)}"
            f" D={_render_set(self.d)}: needs {self.missing}"
        )


def _proper_splits(whole: frozenset[str]) -> Iterable[tuple[frozenset[str], frozenset[str]]]:
    items = sorted(whole)
    for r in range(1, len(items)):
        for combo in itertools.combinations(items, r):
            kept = frozenset(combo)
            yield kept, whole - kept


def check_axiom(model: IndependenceModel, axiom: Axiom) -> Optional[AxiomViolation]:
    """Exhaustively check one axiom; None means it holds, otherwise the first
    violating instantiation is returned. Ground sets over AXIOM_LIMIT nodes
    are refused: each row below is 2^n bits wide.

    M[a,b] is the model's membership row at (A, B) (see
    ``IndependenceModel._rows``). For disjoint C and D the mask of C u D is
    c + d, so bit c of ``M[a,b] >> d`` says whether <A, B | C u D> is a
    member. Per stored row R at (a, b) and proper submask k of b, with
    d = b ^ k, the C that fail are ``R & ~M[b,a]`` (symmetry),
    ``R & ~M[a,k]`` (decomposition) and ``R & ~(M[a,k] >> d)`` (weak union).
    Per pair of non-empty rows at (a, b) and (a, d) with b, d disjoint they
    are ``M[a,b] & M[a,d] & ~M[a,b|d]`` (composition),
    ``(M[a,b] >> d) & (M[a,d] >> b) & ~M[a,b|d]`` (intersection) and
    ``((M[a,b] >> d) & M[a,d]) ^ M[a,b|d]`` (contraction), each masked by
    the submasks of V - a - b - d; for the converse of contraction the
    proper splits of each non-empty row's B are added. A failing instance
    has both antecedents stored, so both rows are non-empty, or, for the
    converse, its consequent: these candidates, at most 5 ** n, see every
    instance, and each covers every C at once. The violation reported is
    the smallest failing statement by sort key with its first missing split
    in ``_proper_splits`` order, or the failing instance first in
    ``itertools.product`` order of the node slots A, B, C, D, none.
    """
    n = len(model.ground_set)
    if n > AXIOM_LIMIT:
        raise GraphError(f"axiom check limit exceeded: {n} nodes > {AXIOM_LIMIT}")
    full = (1 << n) - 1
    member, raw = model._rows

    if axiom in (Axiom.SYMMETRY, Axiom.DECOMPOSITION, Axiom.WEAK_UNION):
        failing = []  # (a, b, c) of each failing statement
        for key, row in raw.items():
            a, b = key & full, key >> n
            if axiom is Axiom.SYMMETRY:
                bad = row & ~member.get(b | a << n, 0)
            else:
                bad, k = 0, (b - 1) & b
                while k:
                    kept = member.get(a | k << n, 0)
                    bad |= row & ~(kept if axiom is Axiom.DECOMPOSITION else kept >> (b ^ k))
                    k = (k - 1) & b
            if bad:
                failing.extend((a, b, c) for c in _bits(bad))
        if not failing:
            return None
        first = min(failing, key=lambda t: [list(_bits(m)) for m in t])
        sets = _label_sets(sorted(model.ground_set))
        s = IndependenceStatement(*(sets[m] for m in first))
        if axiom is Axiom.SYMMETRY:
            return AxiomViolation(axiom, s.a, s.b, s.c, frozenset(), s.mirrored())
        return next(
            AxiomViolation(axiom, s.a, kept, s.c, dropped, IndependenceStatement(s.a, kept, c))
            for kept, dropped in _proper_splits(s.b)
            for c in [s.c if axiom is Axiom.DECOMPOSITION else s.c | dropped]
            if not model.contains(s.a, kept, c)
        )

    if axiom not in (Axiom.CONTRACTION, Axiom.INTERSECTION, Axiom.COMPOSITION):
        raise GraphError(f"unknown axiom {axiom!r}")
    by_a: dict[int, list[tuple[int, int]]] = {}
    for key, row in member.items():
        by_a.setdefault(key & full, []).append((key >> n, row))
    free = _submask_rows(n)
    found = []  # (a, b, d, the C that fail)
    for a, rows in by_a.items():
        for b, rb in rows:
            for d, rd in rows:
                if b & d:
                    continue
                joint = member.get(a | (b | d) << n, 0)
                if axiom is Axiom.COMPOSITION:
                    bad = rb & rd & ~joint
                elif axiom is Axiom.INTERSECTION:
                    bad = (rb >> d) & (rd >> b) & ~joint
                else:
                    bad = ((rb >> d) & rd) ^ joint
                bad &= free[full ^ a ^ b ^ d]
                if bad:
                    found.append((a, b, d, bad))
        if axiom is Axiom.CONTRACTION:
            for e, joint in rows:
                k = (e - 1) & e
                while k:
                    if a | k << n not in member or a | (e ^ k) << n not in member:
                        found.append((a, k, e ^ k, joint))
                    k = (k - 1) & e
    if not found:
        return None
    a, b, c, d = min(  # by each node's slot, node 0 first: 0-3 in A-D, 4 in none
        ((a, b, c, d) for a, b, d, bad in found for c in _bits(bad)),
        key=lambda q: [next((j for j, m in enumerate(q) if m >> v & 1), 4) for v in range(n)],
    )
    missing = (a, b | d, c)
    if axiom is Axiom.CONTRACTION and member.get(a | (b | d) << n, 0) >> c & 1:
        missing = (a, d, c) if member.get(a | b << n, 0) >> (c | d) & 1 else (a, b, c | d)
    sets = _label_sets(sorted(model.ground_set))
    return AxiomViolation(
        axiom, sets[a], sets[b], sets[c], sets[d], IndependenceStatement(*(sets[m] for m in missing))
    )


def check_axioms(
    model: IndependenceModel, axioms: Iterable[Axiom] = COMPOSITIONAL_GRAPHOID
) -> dict[Axiom, Optional[AxiomViolation]]:
    return {ax: check_axiom(model, ax) for ax in sorted(axioms, key=lambda a: a.value)}


# -- closure under axiom subsets ----------------------------------------------


def closure(
    model: IndependenceModel,
    axioms: Iterable[Axiom],
    limit: Optional[int] = None,
) -> IndependenceModel:
    """Least fixpoint of the model under the chosen inference rules, over all
    disjoint triples of the ground set.

    Refuses ground sets larger than ``limit`` nodes (default CLOSURE_LIMIT).
    Two-antecedent rules only ever pair statements sharing their first
    component, so candidates are bucketed by it.
    """
    cap = CLOSURE_LIMIT if limit is None else limit
    if len(model.ground_set) > cap:
        raise GraphError(
            f"closure limit exceeded: {len(model.ground_set)} nodes > {cap}"
        )
    rules = frozenset(axioms)
    have: set[tuple[frozenset, frozenset, frozenset]] = set()
    by_a: dict[frozenset, list[tuple[frozenset, frozenset, frozenset]]] = {}
    queue: deque[tuple[frozenset, frozenset, frozenset]] = deque()

    def add(a: frozenset, b: frozenset, c: frozenset) -> None:
        t = (a, b, c)
        if t not in have:
            have.add(t)
            by_a.setdefault(a, []).append(t)
            queue.append(t)

    for s in model.statements:
        add(s.a, s.b, s.c)

    while queue:
        a, b, c = queue.popleft()
        if Axiom.SYMMETRY in rules:
            add(b, a, c)
        if Axiom.DECOMPOSITION in rules:
            for kept, _ in _proper_splits(b):
                add(a, kept, c)
        if Axiom.WEAK_UNION in rules:
            for kept, dropped in _proper_splits(b):
                add(a, kept, c | dropped)
        if rules & {Axiom.CONTRACTION, Axiom.INTERSECTION, Axiom.COMPOSITION}:
            for pa, pb, pc in list(by_a.get(a, ())):
                if Axiom.CONTRACTION in rules:
                    # self as <A,B|C u D>, partner as <A,D|C>
                    if pb <= c and pc == c - pb:
                        add(a, b | pb, pc)
                    # partner as <A,B|C u D>, self as <A,D|C>
                    if b <= pc and c == pc - b:
                        add(a, pb | b, c)
                if Axiom.INTERSECTION in rules:
                    if pb <= c and b <= pc and c - pb == pc - b:
                        add(a, b | pb, c - pb)
                if Axiom.COMPOSITION in rules:
                    if pc == c and not (pb & b):
                        add(a, b | pb, c)

    closed = [IndependenceStatement(a, b, c) for (a, b, c) in have]
    return IndependenceModel(
        model.ground_set, closed, symmetry_closed=Axiom.SYMMETRY in rules
    )


# -- Markov properties --------------------------------------------------------


@dataclass(frozen=True)
class MarkovCheck:
    ok: bool
    violation: Optional[IndependenceStatement] = None

    def __bool__(self) -> bool:
        return self.ok


def _require_shared_ground(model: IndependenceModel, graph: MixedGraph) -> None:
    if model.ground_set != graph.nodes:
        raise GraphError("model and graph are over different node sets")


def satisfies_pairwise(model: IndependenceModel, graph: MixedGraph) -> MarkovCheck:
    """Does the model contain every non-adjacent pair's anterior-separator
    statement (in both orientations)?"""
    _require_shared_ground(model, graph)
    missing = next((s for s in pairwise_model(graph).sorted_statements() if s not in model), None)
    return MarkovCheck(missing is None, missing)


def satisfies_global(
    model: IndependenceModel, graph: MixedGraph, limit: Optional[int] = None
) -> MarkovCheck:
    """Does the model contain everything m-separation derives on the graph?"""
    _require_shared_ground(model, graph)
    induced = enumerate_model(graph, limit=limit).sorted_statements()
    missing = next((s for s in induced if s not in model), None)
    return MarkovCheck(missing is None, missing)


def conforms(model: IndependenceModel, graph: MixedGraph) -> bool:
    """True when no statement separates a pair that is adjacent in the graph."""
    _require_shared_ground(model, graph)
    for s in model.statements:
        for x in s.a:
            for y in s.b:
                if graph.adjacent(x, y):
                    return False
    return True


def markov_equivalent(
    g1: MixedGraph, g2: MixedGraph, limit: Optional[int] = None
) -> bool:
    """Equality of the induced singleton independence models.

    Two graphs over one node set induce the same singleton model exactly
    when every reach mask R(x, C) agrees, so the masks are compared
    conditioning set by conditioning set, stopping at the first that
    differs. ``limit`` caps the node count as for a singleton
    ``enumerate_model``; graphs with loops are refused.
    """
    if g1.nodes != g2.nodes:
        raise GraphError("graphs are over different node sets")
    _require_enumerable(g1, True, limit)
    _require_enumerable(g2, True, limit)
    return next(_differences(g1, g2), None) is None


def _differences(g1: MixedGraph, g2: MixedGraph) -> Iterator[tuple[tuple, bool]]:
    """For each conditioning set C on which the reach masks of two graphs
    over one node set differ, the smallest x, then y, by index, whose
    statement <x, y | C> holds in just one graph: its sort key (x, y, C) by
    index, and whether it holds in g1, which is when y is not in R1(x, C)."""
    for (c, r1), (_, r2) in zip(_reach_masks(g1), _reach_masks(g2)):
        if r1 != r2:
            x = next(x for x in range(len(r1)) if r1[x] != r2[x])
            y = next(_bits(r1[x] ^ r2[x]))
            yield (x, y, tuple(_bits(c))), not r1[x] >> y & 1


def _counterexample(g1: MixedGraph, g2: MixedGraph) -> tuple[IndependenceStatement, bool]:
    """The smallest singleton statement, by sort key, that holds in just one
    of two graphs that are not Markov equivalent, and whether that is g1."""
    (x, y, c), in_g1 = min(_differences(g1, g2))
    labels = g1.compiled.labels
    return IndependenceStatement.of([labels[x]], [labels[y]], [labels[k] for k in c]), in_g1


def marginal_model(model: IndependenceModel, margin: Iterable[str]) -> IndependenceModel:
    """Restrict to statements that avoid ``margin``, over the reduced ground
    set; preserves all six axioms when the input satisfies them."""
    m = frozenset(margin)
    if not m <= model.ground_set:
        raise GraphError("margin is not a subset of the ground set")
    kept = [s for s in model.statements if not ((s.a | s.b | s.c) & m)]
    return IndependenceModel(
        model.ground_set - m, kept, symmetry_closed=model.symmetry_closed
    )
