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
from typing import Iterable, Optional

from .graph import GraphError, MixedGraph
from .separation import _m_reachable

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


def _render_set(nodes: frozenset[str]) -> str:
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
        self._triples = {(s.a, s.b, s.c) for s in stmts}

    def contains(
        self, a: Iterable[str], b: Iterable[str], c: Iterable[str] = ()
    ) -> bool:
        """Membership, counting implicit empty-side statements as present."""
        fa, fb, fc = frozenset(a), frozenset(b), frozenset(c)
        if not fa or not fb:
            return True
        if (fa, fb, fc) in self._triples:
            return True
        return self.symmetry_closed and (fb, fa, fc) in self._triples

    def __contains__(self, statement: IndependenceStatement) -> bool:
        return self.contains(statement.a, statement.b, statement.c)

    def __len__(self) -> int:
        return len(self.statements)

    def sorted_statements(self) -> list[IndependenceStatement]:
        return sorted(self.statements, key=IndependenceStatement.sort_key)

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


# -- models induced by separation -------------------------------------------


def _subsets(pool: list[str]) -> Iterable[frozenset[str]]:
    for r in range(len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            yield frozenset(combo)


def enumerate_model(
    graph: MixedGraph, singleton_only: bool = False, limit: Optional[int] = None
) -> IndependenceModel:
    """The independence model induced by m-separation on ``graph``.

    Every ordered statement gets its own engine query, so none of the
    model-level symmetry/composition structure is assumed, only observed.
    ``singleton_only`` restricts A and B to single nodes, which determines
    the full model via decomposition and composition.
    """
    cap = limit if limit is not None else (
        SINGLETON_MODEL_LIMIT if singleton_only else FULL_MODEL_LIMIT
    )
    if len(graph.nodes) > cap:
        raise GraphError(
            f"model enumeration limit exceeded: {len(graph.nodes)} nodes > {cap}"
        )
    nodes = graph.node_list()

    @functools.lru_cache(maxsize=None)
    def reach(x: str, c: frozenset[str]) -> frozenset[str]:
        return frozenset(_m_reachable(graph, x, c))

    def connected(x: str, y: str, c: frozenset[str]) -> bool:
        return y in reach(x, c)

    statements = []
    if singleton_only:
        for x, y in itertools.permutations(nodes, 2):
            rest = [n for n in nodes if n not in (x, y)]
            for c in _subsets(rest):
                if not connected(x, y, c):
                    statements.append(IndependenceStatement.of([x], [y], c))
    else:
        for assignment in itertools.product(range(4), repeat=len(nodes)):
            a = frozenset(n for n, slot in zip(nodes, assignment) if slot == 0)
            b = frozenset(n for n, slot in zip(nodes, assignment) if slot == 1)
            c = frozenset(n for n, slot in zip(nodes, assignment) if slot == 2)
            if not a or not b:
                continue
            if all(not connected(x, y, c) for x in sorted(a) for y in sorted(b)):
                statements.append(IndependenceStatement(a, b, c))
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


@functools.lru_cache(maxsize=32)
def _quad_space(nodes: tuple[str, ...]) -> tuple:
    """All assignments of the ground set into disjoint A, B, C, D (rest
    unused) with A, B, D non-empty, plus the unions the axioms consume."""
    quads = []
    for assignment in itertools.product(range(5), repeat=len(nodes)):
        a = frozenset(n for n, s in zip(nodes, assignment) if s == 0)
        b = frozenset(n for n, s in zip(nodes, assignment) if s == 1)
        c = frozenset(n for n, s in zip(nodes, assignment) if s == 2)
        d = frozenset(n for n, s in zip(nodes, assignment) if s == 3)
        if not a or not b or not d:
            continue
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
    violating instantiation is returned."""
    stmts = model.sorted_statements()

    if axiom is Axiom.SYMMETRY:
        for s in stmts:
            if not model.contains(s.b, s.a, s.c):
                return AxiomViolation(
                    axiom, s.a, s.b, s.c, frozenset(), s.mirrored()
                )
        return None

    if axiom in (Axiom.DECOMPOSITION, Axiom.WEAK_UNION):
        for s in stmts:
            for kept, dropped in _proper_splits(s.b):
                if axiom is Axiom.DECOMPOSITION:
                    needed = IndependenceStatement(s.a, kept, s.c)
                else:
                    needed = IndependenceStatement(s.a, kept, s.c | dropped)
                if needed not in model:
                    return AxiomViolation(axiom, s.a, kept, s.c, dropped, needed)
        return None

    quads = _quad_space(tuple(sorted(model.ground_set)))

    if axiom is Axiom.CONTRACTION:
        # Stated as an equivalence: both directions are checked.
        for a, b, c, d, cud, _, bud in quads:
            lhs = model.contains(a, b, cud) and model.contains(a, d, c)
            rhs = model.contains(a, bud, c)
            if lhs and not rhs:
                return AxiomViolation(
                    axiom, a, b, c, d, IndependenceStatement(a, bud, c)
                )
            if rhs and not lhs:
                missing = (
                    IndependenceStatement(a, b, cud)
                    if not model.contains(a, b, cud)
                    else IndependenceStatement(a, d, c)
                )
                return AxiomViolation(axiom, a, b, c, d, missing)
        return None

    if axiom is Axiom.INTERSECTION:
        for a, b, c, d, cud, cub, bud in quads:
            if (
                model.contains(a, b, cud)
                and model.contains(a, d, cub)
                and not model.contains(a, bud, c)
            ):
                return AxiomViolation(
                    axiom, a, b, c, d, IndependenceStatement(a, bud, c)
                )
        return None

    if axiom is Axiom.COMPOSITION:
        for a, b, c, d, _, _, bud in quads:
            if (
                model.contains(a, b, c)
                and model.contains(a, d, c)
                and not model.contains(a, bud, c)
            ):
                return AxiomViolation(
                    axiom, a, b, c, d, IndependenceStatement(a, bud, c)
                )
        return None

    raise GraphError(f"unknown axiom {axiom!r}")


def check_axioms(
    model: IndependenceModel, axioms: Iterable[Axiom] = COMPOSITIONAL_GRAPHOID
) -> dict[Axiom, Optional[AxiomViolation]]:
    return {ax: check_axiom(model, ax) for ax in sorted(axioms, key=lambda a: a.value)}


def is_compositional_graphoid(model: IndependenceModel) -> bool:
    return all(v is None for v in check_axioms(model).values())


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
    for expected in pairwise_model(graph).sorted_statements():
        if expected not in model:
            return MarkovCheck(False, expected)
    return MarkovCheck(True)


def satisfies_global(
    model: IndependenceModel, graph: MixedGraph, limit: Optional[int] = None
) -> MarkovCheck:
    """Does the model contain everything m-separation derives on the graph?"""
    _require_shared_ground(model, graph)
    induced = enumerate_model(graph, limit=limit)
    for s in induced.sorted_statements():
        if s not in model:
            return MarkovCheck(False, s)
    return MarkovCheck(True)


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
    """Equality of the induced singleton independence models."""
    if g1.nodes != g2.nodes:
        raise GraphError("graphs are over different node sets")
    m1 = enumerate_model(g1, singleton_only=True, limit=limit)
    m2 = enumerate_model(g2, singleton_only=True, limit=limit)
    return m1.statements == m2.statements


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
