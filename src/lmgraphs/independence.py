"""Finite conditional-independence models and the graphoid machinery.

A model is a set of statements <A, B | C> over a ground set. Statements with
an empty A or B side hold in every model and are never stored. Models are
kept small and explicit on purpose: every axiom check below is an exhaustive
quantification over the ground set, and closures are genuine least fixpoints,
so they can serve as ground truth for the separation engine.
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
        self._mask = _masker(sorted(self.ground_set))

    def contains(
        self, a: Iterable[str], b: Iterable[str], c: Iterable[str] = ()
    ) -> bool:
        """Membership, counting implicit empty-side statements as present."""
        fa, fb, fc = frozenset(a), frozenset(b), frozenset(c)
        if not fa or not fb:
            return True
        if not fa | fb | fc <= self.ground_set:
            return False
        n, mask = len(self.ground_set), self._mask
        return (mask(fa) | mask(fb) << n | mask(fc) << 2 * n) in self._codes

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
    def _codes(self) -> frozenset[int]:
        """Each statement as the int ``a | b << n | c << 2n``, with node k of
        the sorted ground set as bit k; mirrored codes are added when the
        model is symmetry closed, so membership matches ``contains``."""
        n, mask = len(self.ground_set), self._mask
        codes = set()
        for s in self.statements:
            a, b, c = mask(s.a), mask(s.b), mask(s.c) << 2 * n
            codes.add(a | b << n | c)
            if self.symmetry_closed:
                codes.add(b | a << n | c)
        return frozenset(codes)


# -- node sets as bit masks ----------------------------------------------------


def _masker(labels: Sequence[str]):
    """The function taking a set of labels to its mask, label k being bit k."""
    bit = {label: 1 << k for k, label in enumerate(labels)}
    return lambda nodes: sum(bit[v] for v in nodes)


def _label_sets(labels: Sequence[str]) -> list[frozenset[str]]:
    """The label set of every mask over ``labels``, indexed by the mask."""
    sets = [frozenset()]
    for label in labels:
        sets += [s | {label} for s in sets]
    return sets


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


@functools.lru_cache(maxsize=8)
def _quad_space(n: int) -> tuple[tuple[int, ...], ...]:
    """All assignments of n nodes, node k as bit k, into disjoint A, B, C, D
    (rest unused) with A, B, D non-empty, in ``itertools.product`` order,
    each as the masks (a, b, c, d, c|d, c|b, b|d) the axioms consume."""
    quads = []
    for assignment in itertools.product(range(5), repeat=n):
        parts = [0] * 5
        for k, slot in enumerate(assignment):
            parts[slot] |= 1 << k
        a, b, c, d, _ = parts
        if a and b and d:
            quads.append((a, b, c, d, c | d, c | b, b | d))
    return tuple(quads)


def _proper_splits(whole: frozenset[str]) -> Iterable[tuple[frozenset[str], frozenset[str]]]:
    items = sorted(whole)
    for r in range(1, len(items)):
        for combo in itertools.combinations(items, r):
            kept = frozenset(combo)
            yield kept, whole - kept


def check_axiom(model: IndependenceModel, axiom: Axiom) -> Optional[AxiomViolation]:
    """Exhaustively check one axiom; None means it holds, otherwise the first
    violating instantiation is returned.

    Symmetry, decomposition and weak union run over the sorted statements.
    The other three quantify over every disjoint A, B, C, D of the ground
    set, as bit masks, and look each statement they need up among the
    model's statements encoded once as ints (see ``IndependenceModel``), so
    orientation counts exactly as in ``contains``.
    """
    labels = sorted(model.ground_set)
    n, n2 = len(labels), 2 * len(labels)
    codes = model._codes
    sets = _label_sets(labels)

    def statement(a: int, b: int, c: int) -> IndependenceStatement:
        return IndependenceStatement(sets[a], sets[b], sets[c])

    if axiom in (Axiom.SYMMETRY, Axiom.DECOMPOSITION, Axiom.WEAK_UNION):
        mask = model._mask
        for s in model.sorted_statements():
            a, b, c = mask(s.a), mask(s.b), mask(s.c)
            if axiom is Axiom.SYMMETRY:
                if (b | a << n | c << n2) not in codes:
                    return AxiomViolation(axiom, s.a, s.b, s.c, frozenset(), s.mirrored())
                continue
            for kept, dropped in _proper_splits(s.b):
                k, d = mask(kept), mask(dropped)
                given = c if axiom is Axiom.DECOMPOSITION else c | d
                if (a | k << n | given << n2) not in codes:
                    return AxiomViolation(axiom, s.a, kept, s.c, dropped, statement(a, k, given))
        return None

    quads = _quad_space(n)

    if axiom is Axiom.CONTRACTION:
        # Stated as an equivalence: both directions are checked.
        for a, b, c, d, cud, _, bud in quads:
            first = (a | b << n | cud << n2) in codes
            lhs = first and (a | d << n | c << n2) in codes
            rhs = (a | bud << n | c << n2) in codes
            if lhs and not rhs:
                return AxiomViolation(
                    axiom, sets[a], sets[b], sets[c], sets[d], statement(a, bud, c)
                )
            if rhs and not lhs:
                missing = statement(a, b, cud) if not first else statement(a, d, c)
                return AxiomViolation(axiom, sets[a], sets[b], sets[c], sets[d], missing)
        return None

    if axiom is Axiom.INTERSECTION:
        for a, b, c, d, cud, cub, bud in quads:
            if (
                (a | b << n | cud << n2) in codes
                and (a | d << n | cub << n2) in codes
                and (a | bud << n | c << n2) not in codes
            ):
                return AxiomViolation(
                    axiom, sets[a], sets[b], sets[c], sets[d], statement(a, bud, c)
                )
        return None

    if axiom is Axiom.COMPOSITION:
        for a, b, c, d, _, _, bud in quads:
            if (
                (a | b << n | c << n2) in codes
                and (a | d << n | c << n2) in codes
                and (a | bud << n | c << n2) not in codes
            ):
                return AxiomViolation(
                    axiom, sets[a], sets[b], sets[c], sets[d], statement(a, bud, c)
                )
        return None

    raise GraphError(f"unknown axiom {axiom!r}")


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
