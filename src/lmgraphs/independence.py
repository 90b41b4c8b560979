"""Finite conditional-independence models and the graphoid machinery.

A model is a set of statements <A, B | C> over a ground set. Statements with
an empty A or B side hold in every model and are never stored. Models are
kept small and explicit on purpose: every axiom check below is an exhaustive
quantification over the ground set, and closures are genuine least fixpoints,
so they can serve as ground truth for the separation engine. Axiom checks
and closures work on rows of C-sets, one int per (A, B) (see
``IndependenceModel._rows``), which are the own form of the models that
enumeration and closure return; an axiom check visits only the rows a
failing instance must have non-empty (see ``check_axiom``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence

from .graph import GraphError, MixedGraph, _bits
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

    @classmethod
    def _of_rows(cls, ground_set: Iterable[str], rows: dict[int, int], symmetry_closed: bool = False):
        """The model whose raw rows (see ``_rows``) are ``rows``, symmetric
        if ``symmetry_closed``; its statements are listed when first read."""
        model = cls.__new__(cls)
        model.ground_set, model.symmetry_closed = frozenset(ground_set), symmetry_closed
        model._rows = rows, rows
        return model

    @functools.cached_property
    def statements(self) -> frozenset[IndependenceStatement]:
        """The stored statements; a model built from rows lists them here."""
        n, sets = len(self.ground_set), _label_sets(sorted(self.ground_set))
        return frozenset(IndependenceStatement(sets[key & ((1 << n) - 1)], sets[key >> n], sets[c])
                         for key, row in self._rows[1].items() for c in _bits(row))

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
        <A, B | C> is stored, so a row is 2^n bits wide, and no row is 0. A
        symmetry-closed model adds mirrors to its membership rows, as
        ``contains`` counts them; otherwise one dict is both. Built from the
        statements on first use, except in the models that
        ``enumerate_model`` and ``closure`` make, which are their rows, and
        in ``pairwise_model``'s, which builds them from its masks."""
        n = len(self.ground_set)
        mask = {nodes: m for m, nodes in enumerate(_label_sets(sorted(self.ground_set)))}
        raw: dict[int, int] = {}
        for s in self.statements:
            key = mask[s.a] | mask[s.b] << n
            raw[key] = raw.get(key, 0) | 1 << mask[s.c]
        if not self.symmetry_closed:
            return raw, raw
        member, full = dict(raw), (1 << n) - 1
        for key, row in raw.items():
            mirror = key >> n | (key & full) << n
            member[mirror] = member.get(mirror, 0) | row
        return member, raw


# -- node sets as bit masks ----------------------------------------------------


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


@functools.lru_cache(maxsize=8)
def _avoiding(n: int) -> tuple[int, ...]:
    """Per node v, the conditioning sets over n nodes that avoid v, as a mask
    of 2^n bits: runs of 2^v set bits every 2^(v + 1). These n masks stand
    in for ``_submask_rows(n)``, whose 2^n rows are too large for big n."""
    every = (1 << (1 << n)) - 1
    return tuple(every // ((1 << (2 << v)) - 1) * ((1 << (1 << v)) - 1) for v in range(n))


@functools.lru_cache(maxsize=8)
def _gate_patterns(n: int) -> tuple[tuple[int, int], ...]:
    """Per node v, the gates ``(in_v, out_v)`` of ``_reach_table``'s walk:
    in each of n blocks of 2^n bits, bit C is set when C contains v, and
    when C avoids v."""
    size = 1 << n
    repeat = sum(1 << x * size for x in range(n))
    every = ((1 << size) - 1) * repeat
    return tuple((every ^ out * repeat, out * repeat) for out in _avoiding(n))


def _reach_table(graph: MixedGraph) -> list[list[int]]:
    """The reach table of the form ``_search_form`` picks: R[x][y] masks the
    conditioning sets C, x and y outside C, given which an m-connecting path
    joins x to y (x != y).

    On an anterior form a walk state (v, arrived with an arrowhead) carries
    no history, so one search covers every (x, C): each state holds n blocks
    of 2^n bits, bit C of block x set when the walk from x given C enters
    it. Sources leave over every edge; a state at v passes on what
    ``_gate_patterns`` lets through, by C alone as in ``separation._reach``
    (see there why): ``in_v`` after an arrowhead and ``out_v`` after a tail
    over the edges with an arrowhead at v, ``out_v`` over the others. Sweeps
    pass on only new bits; block x of the states at y is R[x][y]. A graph
    with ribbons fills the table by ``_reach``'s visited-mask lane, one call
    per (x, C)."""
    form = _search_form(graph)
    n = len(form.labels)
    size, full, avoid = 1 << n, (1 << n) - 1, _avoiding(n)
    if not form.anterior:
        table = [[0] * n for _ in range(n)]
        for c in range(size):
            given = set(_bits(c))
            for x in _bits(full ^ c):
                for y in _reach(form, (x,), given) - given - {x}:
                    table[x][y] |= 1 << c
        return table
    into, out = form.successors
    gates = _gate_patterns(n)
    seen = [0] * (2 * n)
    for x in range(n):
        for state in into[x] + out[x]:
            seen[state] |= avoid[x] << x * size
    new = list(seen)
    while any(new):
        for state, bits in enumerate(new):
            if bits:
                new[state], v = 0, state >> 1
                gate_in, gate_out = gates[v]
                for targets, passed in ((into[v], bits & (gate_in if state & 1 else gate_out)),
                                        (out[v], bits & gate_out)):
                    for target in targets:
                        fresh = passed & ~seen[target]
                        seen[target] |= fresh
                        new[target] |= fresh
    reached = [seen[2 * y] | seen[2 * y + 1] for y in range(n)]
    # block x holds only C that avoid x, as its seeds do
    return [[reached[y] >> x * size & avoid[y] if x != y else 0 for y in range(n)] for x in range(n)]


def _kept_table(graph: MixedGraph) -> tuple[tuple[int, ...], ...]:
    """``_reach_table(graph)`` as tuples, computed on first use and kept as
    ``_kept_reach_table`` on the form ``_search_form`` picks, which only
    this function sets or reads: n * n ints of 2^n bits, for as long as the
    form lives. Only queries that come back to the same graph object read a
    kept table; a graph parsed afresh builds its own. Callers pass
    ``_require_enumerable`` first, so no table is built or read above a node
    cap or on a graph with loops."""
    form = _search_form(graph)
    table = getattr(form, "_kept_reach_table", None)
    if table is None:
        table = form._kept_reach_table = tuple(map(tuple, _reach_table(graph)))
    return table


def enumerate_model(
    graph: MixedGraph, singleton_only: bool = False, limit: Optional[int] = None
) -> IndependenceModel:
    """The independence model induced by m-separation on ``graph``, as rows.

    The graph's kept reach table (see ``_kept_table`` and ``_reach_table``),
    one search per graph whatever asks for it, under the node cap that
    ``limit`` or the default sets for this call. Its complement
    at (x, y), masked to the C that avoid x and y, is the singleton row
    (see ``IndependenceModel._rows``) of <x, y | C>. <A, B | C> is stored
    exactly when every x in A and y in B are separated given C, which is
    the definition of separation, so symmetry and composition of the model
    are observed, never assumed: the row at (A, B) is the AND of the
    singleton rows over A x B, one AND per (A, B) from the row at
    (A, B less its lowest node). Statements are listed only when read.
    ``singleton_only`` keeps the singleton rows, which determine the full
    model via decomposition and composition. Graphs with loops are refused.
    """
    _require_enumerable(graph, singleton_only, limit)
    table = _kept_table(graph)
    n = len(table)
    full, avoid = (1 << n) - 1, _avoiding(n)
    pair = [[avoid[x] & avoid[y] & ~reach if x != y else 0 for y, reach in enumerate(row)]
            for x, row in enumerate(table)]
    if singleton_only:
        rows = {1 << x | 1 << y + n: r for x, by_y in enumerate(pair) for y, r in enumerate(by_y) if r}
        return IndependenceModel._of_rows(graph.nodes, rows)
    rows = {}
    # By A: the AND over x in A of the singleton rows at (x, y), by y, and
    # the y outside A where it is not 0, a subset of the same for A's subsets.
    cols, frees = [[-1] * n], [full]
    joint = [-1] * (1 << n)  # by B: the row at (A, B) for the A at hand
    for a in range(1, 1 << n):
        low = a & -a
        col, free, row = cols[a ^ low][:], 0, pair[low.bit_length() - 1]
        for y in _bits(frees[a ^ low] & ~low):
            col[y] &= row[y]
            if col[y]:
                free |= 1 << y
        cols.append(col)
        frees.append(free)
        b = free & -free  # the submasks of free in increasing order
        while b:
            low = b & -b
            joint[b] = joint[b ^ low] & col[low.bit_length() - 1]
            if joint[b]:
                rows[a | b << n] = joint[b]
            b = (b - free) & free
    return IndependenceModel._of_rows(graph.nodes, rows)


class _PairwiseModel(IndependenceModel):
    """A symmetry-closed model of one statement <x, y | C> per triple
    ``(x, y, C mask)`` over ``labels``, node k being bit k as in ``_rows``,
    and its mirror. Both orientations are listed as statements, and the
    rows built, only when first read; the readers of the rows check their
    node caps first, since a row is 2^n bits wide."""

    def __init__(self, labels: Sequence[str], pairs: list[tuple[int, int, int]]):
        self.ground_set, self.symmetry_closed = frozenset(labels), True
        self._labels, self._pairs = labels, pairs

    @functools.cached_property
    def statements(self) -> frozenset[IndependenceStatement]:
        labels, listed = self._labels, []
        for x, y, c in self._pairs:
            given = [label for label, bit in zip(labels, bin(c)[:1:-1]) if bit == "1"]  # bit k at k
            s = IndependenceStatement(frozenset((labels[x],)), frozenset((labels[y],)), frozenset(given))
            listed += (s, s.mirrored())
        return frozenset(listed)

    @functools.cached_property
    def _rows(self) -> tuple[dict[int, int], dict[int, int]]:
        n, rows = len(self._labels), {}
        for x, y, c in self._pairs:
            rows[1 << x | 1 << y + n] = rows[1 << y | 1 << x + n] = 1 << c
        return rows, rows


def pairwise_model(graph: MixedGraph) -> IndependenceModel:
    """One statement per non-adjacent pair, conditioned on the union of the
    pair's anterior sets; mirrored orientations included. Each pair is one
    ``(x, y, C mask)`` triple, C read from the anterior form's
    ``anterior_masks`` (ant(v) and v): the model lists its statements, and
    builds its rows, only when they are read. No node cap applies here."""
    graph.require_loopless()
    form = graph.compiled.anterior_form
    ant, near = form.anterior_masks, [{w for w, *_ in row} for row in form.adjacency]
    return _PairwiseModel(form.labels, [(x, y, (ant[x] | ant[y]) & ~(1 << x | 1 << y))
                                        for x, y in itertools.combinations(range(len(ant)), 2)
                                        if y not in near[x]])


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
    model: IndependenceModel, axioms: Iterable[Axiom], limit: Optional[int] = None
) -> IndependenceModel:
    """Least fixpoint of the model under the chosen inference rules, over all
    disjoint triples of the ground set.

    Refuses ground sets larger than ``limit`` nodes (default CLOSURE_LIMIT).
    A worklist over raw rows (see ``IndependenceModel._rows``) in
    ``check_axiom``'s shift and AND algebra. New bits r at (A, B) add r at
    (B, A) (symmetry); per proper submask k of b, d = b ^ k, r at (A, K)
    (decomposition) and ``r << d`` (weak union). Per row R at (A, D), D
    disjoint from B, they add at (A, B u D) ``r & R`` (composition) and,
    masked by the submasks of V - a - b - d, ``(r >> d) & R`` and
    ``(R >> b) & r`` (contraction, both roles) and ``(r >> d) & (R >> b)``
    (intersection). New bits meet whole partner rows, so each pair of
    statements meets once the later one is taken.
    """
    cap = CLOSURE_LIMIT if limit is None else limit
    n = len(model.ground_set)
    if n > cap:
        raise GraphError(f"closure limit exceeded: {n} nodes > {cap}")
    rules = frozenset(axioms)
    symmetry, decomposition, weak_union, contraction, intersection, composition = (
        axiom in rules for axiom in Axiom
    )
    full, free = (1 << n) - 1, _submask_rows(n)
    by_a: dict[int, dict[int, int]] = {}  # the rows, by A and then B
    new: dict[int, int] = {}  # the bits not yet passed on, by row key

    def add(a: int, b: int, bits: int) -> None:
        rows = by_a.setdefault(a, {})
        bits &= ~rows.get(b, 0)
        if bits:
            rows[b] = rows.get(b, 0) | bits
            new[a | b << n] = new.get(a | b << n, 0) | bits

    for key, row in model._rows[1].items():
        add(key & full, key >> n, row)
    while new:
        key, r = new.popitem()
        a, b = key & full, key >> n
        if symmetry:
            add(b, a, r)
        k = (b - 1) & b if decomposition or weak_union else 0
        while k:
            if decomposition:
                add(a, k, r)
            if weak_union:
                add(a, k, r << (b ^ k))
            k = (k - 1) & b
        if contraction or intersection or composition:
            for d, rd in list(by_a[a].items()):
                if b & d:
                    continue
                kept, bits = free[full ^ a ^ b ^ d], r & rd if composition else 0
                if contraction:
                    bits |= ((r >> d) & rd | (rd >> b) & r) & kept
                if intersection:
                    bits |= (r >> d) & (rd >> b) & kept
                add(a, b | d, bits)
    rows = {a | b << n: row for a, by_b in by_a.items() for b, row in by_b.items()}
    return IndependenceModel._of_rows(model.ground_set, rows, symmetry_closed=symmetry)


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
    """Does the model contain everything m-separation derives on the graph?
    The induced model comes from ``enumerate_model``, so from the graph's
    kept reach table, under that function's node cap or ``limit``."""
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


def markov_equivalent(g1: MixedGraph, g2: MixedGraph, limit: Optional[int] = None) -> bool:
    """Equality of the induced singleton independence models.

    Two graphs over one node set induce the same singleton model exactly
    when their reach tables (see ``_reach_table``) agree, so one search per
    graph decides, and none once a graph's table is kept (``_kept_table``).
    ``limit`` caps the node count as for a singleton ``enumerate_model``,
    checked on every call; graphs with loops are refused."""
    return _counterexample(g1, g2, limit) is None


def _counterexample(g1: MixedGraph, g2: MixedGraph, limit: Optional[int] = None) -> Optional[tuple]:
    """None when two graphs over one node set are Markov equivalent, else
    the smallest singleton statement, by sort key, that holds in just one of
    them, and whether that is g1. Read from each graph's kept reach table
    (see ``_kept_table``), once both pass the cap and the loop check: the
    first (x, y) by index whose masks differ, and there the smallest C by
    its sorted nodes; the statement holds in g1 when g1 does not join x, y."""
    if g1.nodes != g2.nodes:
        raise GraphError("graphs are over different node sets")
    _require_enumerable(g1, True, limit)
    _require_enumerable(g2, True, limit)
    t1, t2 = _kept_table(g1), _kept_table(g2)
    if t1 == t2:
        return None
    n, labels = len(t1), g1.compiled.labels
    x, y = next((x, y) for x in range(n) for y in range(n) if t1[x][y] != t2[x][y])
    c = min(_bits(t1[x][y] ^ t2[x][y]), key=lambda c: list(_bits(c)))
    statement = IndependenceStatement.of([labels[x]], [labels[y]], [labels[k] for k in _bits(c)])
    return statement, not t1[x][y] >> c & 1


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
