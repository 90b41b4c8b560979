"""Loopless mixed graphs: nodes joined by lines, arrows, and arcs.

Edges are stored in mark form: each endpoint carries either a tail or an
arrowhead. Lines are tail-tail, arrows tail-head, arcs head-head. Multiple
edges between the same pair are allowed, so every edge carries a key that
distinguishes parallel copies within one graph.

Graphs are immutable after construction and all operations here are pure
functions; values can be shared freely across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence


class GraphError(ValueError):
    """Raised for malformed graphs, unknown nodes, or violated preconditions."""


def _unknown_node(labels: Iterable[str], known: frozenset[str]) -> GraphError:
    """The error for labels not all in ``known``: it names the smallest."""
    return GraphError(f"unknown node {min(set(labels) - known)!r}")


def _require_cap(what: str, n: int, cap: int) -> None:
    """Refuse a negative node cap or ``n`` nodes over it: every cap raises these texts."""
    if cap < 0:
        raise GraphError(f"{what} limit must be at least 0, got {cap}")
    if n > cap:
        raise GraphError(f"{what} limit exceeded: {n} nodes > {cap}")


class Mark(Enum):
    TAIL = "tail"
    HEAD = "head"


class EdgeKind(Enum):
    LINE = "line"
    ARROW = "arrow"
    ARC = "arc"


#: Textual edge operators, shared by the parser, serializer, and path rendering.
#: Keyed by (mark at left endpoint, mark at right endpoint).
EDGE_OPS = {
    (Mark.TAIL, Mark.TAIL): "--",
    (Mark.TAIL, Mark.HEAD): "->",
    (Mark.HEAD, Mark.TAIL): "<-",
    (Mark.HEAD, Mark.HEAD): "<->",
}


@dataclass(frozen=True)
class Edge:
    """One edge of a mixed graph, in mark form.

    ``key`` distinguishes parallel edges; it is assigned by the owning graph
    and takes part in equality so that a path may not silently reuse one of
    two identical copies.
    """

    a: str
    b: str
    mark_a: Mark
    mark_b: Mark
    key: int = 0

    @property
    def kind(self) -> EdgeKind:
        if self.mark_a is Mark.TAIL and self.mark_b is Mark.TAIL:
            return EdgeKind.LINE
        if self.mark_a is Mark.HEAD and self.mark_b is Mark.HEAD:
            return EdgeKind.ARC
        return EdgeKind.ARROW

    @property
    def source(self) -> str:
        """Tail endpoint of an arrow."""
        if self.kind is not EdgeKind.ARROW:
            raise GraphError(f"edge {self} is not an arrow")
        return self.a if self.mark_a is Mark.TAIL else self.b

    @property
    def target(self) -> str:
        """Head endpoint of an arrow."""
        if self.kind is not EdgeKind.ARROW:
            raise GraphError(f"edge {self} is not an arrow")
        return self.b if self.mark_a is Mark.TAIL else self.a

    def is_loop(self) -> bool:
        return self.a == self.b

    def touches(self, node: str) -> bool:
        return node == self.a or node == self.b

    def other(self, node: str) -> str:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise GraphError(f"node {node!r} is not an endpoint of {self}")

    def mark_at(self, node: str) -> Mark:
        if node == self.a:
            return self.mark_a
        if node == self.b:
            return self.mark_b
        raise GraphError(f"node {node!r} is not an endpoint of {self}")

    def head_at(self, node: str) -> bool:
        """True when this edge has an arrowhead pointing to ``node``."""
        return self.mark_at(node) is Mark.HEAD

    def canonical(self) -> tuple[str, str, str, str]:
        """Endpoint-sorted structural form, ignoring the key."""
        if self.a <= self.b:
            return (self.a, self.b, self.mark_a.value, self.mark_b.value)
        return (self.b, self.a, self.mark_b.value, self.mark_a.value)

    def __str__(self) -> str:
        l, r, ml, mr = self.canonical()
        op = EDGE_OPS[(Mark(ml), Mark(mr))]
        return f"{l} {op} {r}"


_OP_MARKS = {text: marks for marks, text in EDGE_OPS.items()}


def _edge_from_spec(a: str, op: str, b: str, key: int) -> Edge:
    marks = _OP_MARKS.get(op)
    if marks is None:
        raise GraphError(f"unknown edge operator {op!r}")
    return Edge(a, b, *marks, key)


class CompiledGraph:
    """Integer form of a graph, the only adjacency it has, built once per graph.

    Nodes are numbered in label order. ``adjacency[v]`` holds one
    ``(w, head_at_v, head_at_w, edge)`` entry per edge at v, in the
    deterministic order (neighbour label, canonical form, key) that every
    search and every edge listing uses; a loop sits once in its node's row.
    Every other fact is read from these rows: ``parents[v]`` and
    ``children[v]`` list the tails of arrows into v and the heads of arrows
    out of v, ``lines[v]`` the other ends of the lines at v (v itself for a
    line loop), and the flags ``loopless`` and ``anterior`` (no arrowhead
    meets the end of a line) are set at once, in the same pass as
    ``steps``, the step table of the walk lanes and the only per-node edge
    table besides the rows. ``steps[v]`` holds the masks ``(head_head,
    head_tail, tail_head, tail_tail)`` of the nodes w that an edge at v
    enters, first over the edges with an arrowhead at v, then over those
    without; the ``_head`` mask holds the w the edge enters with an
    arrowhead at w, the ``_tail`` mask the others. Parallel edges with the
    same marks give one bit, a loop's marks are read before they merge, and
    an anterior form's table carries its rewritten marks. So ``steps[v][0]``
    masks the nodes joined to v by an arc, and ``steps[v][0] |
    steps[v][2]`` those an edge at v gives an arrowhead. ``components``,
    ``cyclic``, ``ancestor_masks``, ``anterior_masks`` (which confine the
    separation searches), ``inducing_candidates`` (the pairs the maximality
    scan tests), ``anterior_line_ends`` (the nodes that lose their
    arrowheads in the anterior graph) and ``anterior_form``, the compiled
    anterior graph, are built on first use.
    Every node set on the form is a mask, node w as bit w, and becomes
    labels only through ``_label_set``: ``ancestors`` walks up from one set,
    and ``ancestor_masks`` folds an(v) for every node at once.
    Everything is O(n + m), counting an n-bit mask as one.
    """

    def __init__(
        self, labels: list[str], index: dict[str, int],
        rows: tuple[tuple[tuple[int, bool, bool, Edge], ...], ...],
    ):
        self.labels, self.index, self.adjacency = labels, index, rows
        parents, children, lines = ([set() for _ in labels] for _ in range(3))
        steps = []
        self.loopless = self.anterior = True
        for v, row in enumerate(rows):
            headed, masks = False, [0, 0, 0, 0]
            for w, head_v, head_w, _ in row:
                masks[2 * (not head_v) + (not head_w)] |= 1 << w
                if w == v:
                    # A loop sits once in the row, so an arrowhead at either
                    # end meets v; it is no arrow between two nodes.
                    self.loopless = False
                    head_v = head_w = head_v or head_w
                if head_v:
                    headed = True
                    if not head_w:
                        parents[v].add(w)
                elif head_w:
                    children[v].add(w)
                else:
                    lines[v].add(w)
            if headed and lines[v]:
                self.anterior = False
            steps.append(tuple(masks))
        self.parents = tuple(tuple(p) for p in parents)
        self.children = tuple(tuple(c) for c in children)
        self.lines = tuple(tuple(w) for w in lines)
        self.steps = tuple(steps)

    @cached_property
    def inducing_candidates(self) -> tuple[int, ...]:
        """For each x, a mask of the y > x not adjacent to x that send an
        arrowhead into an arc component that x also sends one into. Every
        inner node of a primitive inducing path is a collider in an({x, y}),
        so its inner edges are arcs and each inner node has a child: the
        inner nodes lie in one arc component of the nodes with a child, where
        a node with no arc is its own component, and no other pair has a
        path with an inner node. All of it is read from the step table: one
        flood over the arc masks per component gives its members, whose
        ``steps[v][0] | steps[v][1]`` are its senders; x sends arrowheads
        into ``steps[x][0] | steps[x][2]`` and is adjacent to the OR of its
        four masks."""
        steps = self.steps
        inner = sum(1 << v for v, below in enumerate(self.children) if below)
        senders = [0] * len(steps)  # by node with a child: its component's senders
        unseen = inner
        while unseen:
            members = list(_bits(_arc_flood(steps, unseen & -unseen, inner)))
            sent = 0
            for v in members:
                unseen ^= 1 << v
                sent |= steps[v][0] | steps[v][1]
            for v in members:
                senders[v] = sent
        candidates = []
        for x, (head_head, head_tail, tail_head, tail_tail) in enumerate(steps):
            sent, into = 0, (head_head | tail_head) & inner
            while into:
                low = into & -into
                into ^= low
                sent |= senders[low.bit_length() - 1]
            adjacent = head_head | head_tail | tail_head | tail_tail
            candidates.append(sent >> (x + 1) << (x + 1) & ~adjacent)
        return tuple(candidates)

    @cached_property
    def anterior_line_ends(self) -> int:
        """The line ends of the anterior graph, kept as a mask: this graph's
        line ends and one walk up from them. The anterior form and
        ``anterior_graph()`` drop every arrowhead at them; needs a loopless
        graph. This is the closed form of the fixpoint of removing arrowheads
        at line ends. Removing the arrowhead at a line end v turns an arrow
        u -> v into a line, whose new end is the arrow's tail u, and an arc
        u <-> v into an arrow v -> u out of that end; an arc becomes a line
        only when both its ends already end lines. So the fixpoint's line
        ends are the first line ends closed under parents, and it removes
        exactly the arrowheads at those nodes."""
        ends = [v for v, others in enumerate(self.lines) if others]
        return _mask(ends) | self.ancestors(ends)

    @cached_property
    def anterior_form(self) -> "CompiledGraph":
        """The compiled anterior graph, derived from this form and kept; an
        anterior form is its own. It shares the labels and indices, and its
        rows are these rows in the same order, holding this graph's edges
        with no arrowhead at ``anterior_line_ends``; its other facts are
        read from those rows. No graph is built and nothing is re-sorted.
        """
        if self.anterior:
            return self
        cut = _digits(self.anterior_line_ends, len(self.labels))
        return CompiledGraph(self.labels, self.index, tuple(
            tuple((w, head_v and not cut[v], head_w and not cut[w], e) for w, head_v, head_w, e in row)
            for v, row in enumerate(self.adjacency)
        ))

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """The strongly connected components of the arrows, in topological
        order: no arrow leads to an earlier one."""
        return _components(self.children, self.parents)

    @cached_property
    def cyclic(self) -> int:
        """Nodes on a directed cycle, as a mask: the members of the components
        of two or more nodes."""
        return _mask(v for component in self.components if len(component) > 1 for v in component)

    @cached_property
    def ancestor_masks(self) -> tuple[int, ...]:
        """an(v) for every node as a mask, node w as bit w. Every node of a
        cycle has a parent on it, so v's own bit is set exactly when v is on
        a cycle, as in ``ancestors``."""
        return _fold(self.components, self.parents, False)

    @cached_property
    def anterior_masks(self) -> tuple[int, ...]:
        """v and the nodes that reach v along lines and arrows pointing toward
        v, for every node as a mask, on every form: the fold over the
        components of the arrows and both directions of each line. On the
        anterior form, where every reader reads it, that is v and ant(v)."""
        ups = tuple(p + w for p, w in zip(self.parents, self.lines))
        downs = tuple(c + w for c, w in zip(self.children, self.lines))
        return _fold(_components(downs, ups), ups, True)

    def anterior_scope(self, nodes: Iterable[int]) -> int:
        """ant(nodes) and the nodes themselves as a mask: the union of their
        ``anterior_masks``."""
        masks, scope = self.anterior_masks, 0
        for v in nodes:
            scope |= masks[v]
        return scope

    def ancestors(self, targets: Iterable[int]) -> int:
        """an(targets) as a mask, by one walk up ``parents`` that marks
        binary digits and reads them as one int at the end: a target is in
        it only on a directed cycle, as in ``ancestor_masks``, the fold that
        answers for every node at once."""
        parents, (zero, one) = self.parents, b"01"
        digits = bytearray(b"0" * len(parents))  # digit v is node v's bit
        stack = [p for t in targets for p in parents[t]]
        while stack:
            v = stack.pop()
            if digits[v] == zero:
                digits[v] = one
                stack.extend(parents[v])
        return int(digits[::-1] or b"0", 2)


def _components(children: Sequence[Sequence[int]], parents: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The strongly connected components of the relation that steps from v
    to ``children[v]``, ``parents`` being its converse, by Kosaraju's two
    passes, in topological order: no step leads to an earlier one."""
    finished: list[int] = []
    seen = [False] * len(children)
    for root in range(len(seen)):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(children[root]))]
        while stack:
            v, below = stack[-1]
            for w in below:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(children[w])))
                    break
            else:
                finished.append(v)
                stack.pop()
    components = []
    for root in reversed(finished):
        if not seen[root]:
            continue
        seen[root] = False
        component = [root]
        for v in component:  # grows while it is read
            for w in parents[v]:
                if seen[w]:
                    seen[w] = False
                    component.append(w)
        components.append(tuple(component))
    return tuple(components)


def _fold(components: Sequence[Sequence[int]], parents: Sequence[Sequence[int]], own: bool) -> tuple[int, ...]:
    """Per node, a mask of the nodes that reach it in one or more steps of
    ``parents``, and of its own component too when ``own``: one O(n + m)
    pass over ``components`` in topological order, members sharing a mask."""
    masks = [0] * len(parents)
    for component in components:
        mask = 0
        for v in component:
            mask |= own << v
            for p in parents[v]:
                mask |= masks[p] | 1 << p
        for v in component:
            masks[v] = mask
    return tuple(masks)


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(positions: Iterable[int]) -> int:
    """The mask with the bits at ``positions`` set; the inverse of ``_bits``."""
    mask = 0
    for v in positions:
        mask |= 1 << v
    return mask


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _digits(mask: int, n: int) -> bytes:
    """The n low bits of ``mask`` as bytes 0 and 1, bit v at index v: the
    one O(n) read of a mask, for a caller that tests many of its bits."""
    return f"{mask:0{n}b}"[::-1].encode().translate(_BIT_BYTES)


def _label_set(labels: Sequence[str], mask: int) -> frozenset[str]:
    """The labels at the set bits of ``mask``, bit k for ``labels[k]``: the
    one way a node mask becomes labels, by ``_digits``."""
    return frozenset(itertools.compress(labels, _digits(mask, len(labels))))


def _arc_flood(steps: Sequence[tuple[int, int, int, int]], start: int, within: int) -> int:
    """The nodes of the mask ``start`` and those joined to them by arc paths
    inside the mask ``within``, as a mask: one flood over the arc masks of
    the step table (``CompiledGraph.steps``)."""
    reached = frontier = start
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        fresh = steps[low.bit_length() - 1][0] & within & ~reached
        reached |= fresh
        frontier |= fresh
    return reached


class MixedGraph:
    """A labeled mixed multigraph over string node labels."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[Edge] = ()):
        seen: set[str] = set()
        for n in nodes:
            if not n:
                raise GraphError("empty node label")
            if n in seen:
                raise GraphError(f"duplicate node label {n!r}")
            seen.add(n)
        self._nodes = frozenset(seen)
        rekeyed = []
        for k, e in enumerate(edges):
            if e.a not in self._nodes or e.b not in self._nodes:
                raise GraphError(f"unknown endpoint label in edge {e}")
            rekeyed.append(e if e.key == k else Edge(e.a, e.b, e.mark_a, e.mark_b, k))
        self._edges = tuple(rekeyed)

    @property
    def nodes(self) -> frozenset[str]:
        return self._nodes

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    def node_list(self) -> list[str]:
        return sorted(self._nodes)

    def edges_at(self, node: str) -> tuple[Edge, ...]:
        """Edges at ``node`` in the order every search explores them: by
        neighbour label, then canonical form, then key."""
        return tuple(e for *_, e in self._row(node))

    @cached_property
    def compiled(self) -> CompiledGraph:
        """The integer form of this graph, built on first use."""
        labels = self.node_list()
        index = {n: k for k, n in enumerate(labels)}
        rows: list[list[tuple]] = [[] for _ in labels]
        for e in self._edges:
            a, b = index[e.a], index[e.b]
            head_a, head_b = e.mark_a is Mark.HEAD, e.mark_b is Mark.HEAD
            # The canonical form's order: marks at the lower label first, a
            # head before a tail, then the key.
            rank = (not head_a, not head_b, e.key) if a <= b else (not head_b, not head_a, e.key)
            rows[a].append((b, rank, head_a, head_b, e))
            if a != b:
                rows[b].append((a, rank, head_b, head_a, e))
        # (neighbour, rank) is unique within a row, so the tuples sort
        # without comparing their edges.
        return CompiledGraph(labels, index, tuple(
            tuple((w, head_v, head_w, e) for w, _, head_v, head_w, e in sorted(row))
            for row in rows
        ))

    def edges_between(self, u: str, v: str) -> tuple[Edge, ...]:
        w = self._position(v)
        return tuple(e for x, _, _, e in self._row(u) if x == w)

    def adjacent(self, u: str, v: str) -> bool:
        return u != v and bool(self.edges_between(u, v))

    def _require(self, *labels: str) -> Iterator[int]:
        """The labels' indices in the compiled form, in order and read on
        demand, once every label is a node. Every graph query checks its
        labels here; ``_unknown_node`` names the smallest unknown one."""
        if not self._nodes.issuperset(labels):
            raise _unknown_node(labels, self._nodes)
        return map(self.compiled.index.__getitem__, labels)

    def _position(self, node: str) -> int:
        """Index of a known node in the compiled form."""
        return next(self._require(node))

    def _row(self, node: str) -> tuple[tuple[int, bool, bool, Edge], ...]:
        """The compiled adjacency row of a known node."""
        return self.compiled.adjacency[self._position(node)]

    def is_loopless(self) -> bool:
        return self.compiled.loopless

    def require_loopless(self) -> None:
        if not self.compiled.loopless:
            loop = next(e for e in self._edges if e.is_loop())
            raise GraphError(f"graph contains a loop at {loop.a!r}")

    def with_edge(self, edge: Edge) -> "MixedGraph":
        return MixedGraph(self.node_list(), self._edges + (edge,))

    def simplify(self) -> "MixedGraph":
        """Collapse parallel edges of the same kind and direction to one copy.

        Separation queries are unchanged by this: the walk rules depend only
        on the marks an edge shows to each endpoint.
        """
        kept: list[Edge] = []
        seen: set[tuple] = set()
        for e in self._edges:
            c = e.canonical()
            if c not in seen:
                seen.add(c)
                kept.append(e)
        return MixedGraph(self.node_list(), kept)

    # -- neighborhood queries -------------------------------------------------

    def parents(self, node: str) -> set[str]:
        """Nodes j with an arrow j -> node."""
        return {self.compiled.labels[p] for p in self.compiled.parents[self._position(node)]}

    def children(self, node: str) -> set[str]:
        """Nodes j with an arrow node -> j."""
        return {self.compiled.labels[c] for c in self.compiled.children[self._position(node)]}

    def neighbors(self, node: str, kind: Optional[EdgeKind] = None) -> set[str]:
        """Adjacent nodes, optionally restricted to one edge kind."""
        labels = self.compiled.labels
        return {
            labels[w]
            for w, _, _, e in self._row(node)
            if labels[w] != node and (kind is None or e.kind is kind)
        }

    # -- ancestry -------------------------------------------------------------

    def ancestors(self, targets: Iterable[str]) -> frozenset[str]:
        """Union of an(i) over the targets: nodes with a direction-preserving
        all-arrow route into some target.

        A target is excluded from the result unless it lies on a directed
        cycle back to itself.
        """
        return _label_set(self.compiled.labels, self.compiled.ancestors(self._require(*targets)))

    def descendants(self, sources: Iterable[str]) -> set[str]:
        """Union of de(i) over the sources, excluding a source unless it lies
        on a directed cycle back to itself: the nodes w whose an(w), read
        from the kept ``ancestor_masks``, meets the sources."""
        below, compiled = _mask(self._require(*sources)), self.compiled
        return {compiled.labels[w] for w, an in enumerate(compiled.ancestor_masks) if an & below}

    def on_directed_cycle(self, node: str) -> bool:
        """True when some all-arrow cycle passes through ``node``."""
        return bool(self.compiled.cyclic >> self._position(node) & 1)

    # -- anterior machinery ---------------------------------------------------

    def line_endpoints(self) -> set[str]:
        labels = self.compiled.labels
        return {labels[v] for v, ends in enumerate(self.compiled.lines) if ends}

    def is_anterior(self) -> bool:
        """True when no arrowhead points at the endpoint of a line."""
        return self.compiled.anterior

    def anterior_graph(self) -> "MixedGraph":
        """Fixpoint of removing arrowheads that point at endpoints of lines:
        the graph with no arrowhead at a line end or an ancestor of one, as
        ``CompiledGraph.anterior_line_ends`` argues. It is built once per
        graph and kept; an anterior graph is its own result, so no graph
        keeps a reference to itself. Edge keys are preserved, so edges of
        the result correspond one-to-one to edges of the input."""
        self.require_loopless()
        return self if self.compiled.anterior else self._anterior

    @cached_property
    def _anterior(self) -> "MixedGraph":
        cut, index = _digits(self.compiled.anterior_line_ends, len(self._nodes)), self.compiled.index

        def mark(v: str, m: Mark) -> Mark:
            return Mark.TAIL if cut[index[v]] else m

        edges = [Edge(e.a, e.b, mark(e.a, e.mark_a), mark(e.b, e.mark_b), e.key) for e in self._edges]
        return MixedGraph(self.node_list(), edges)

    @cached_property
    def ribbonless(self) -> bool:
        """True when no ribbon is an induced subgraph: one ``find_ribbons``
        scan, kept per graph, so ``maximalize``'s result is not scanned
        again. Raises GraphError on a graph with loops."""
        from .structure import find_ribbons  # the scan is built on this module

        return not find_ribbons(self)

    def anteriors(self, node: str) -> frozenset[str]:
        """ant(node): nodes that reach ``node`` in the anterior graph along a
        path of lines followed by arrows. The node itself is never included.
        Read from the kept compiled anterior form's ``anterior_masks``.
        """
        start = self._position(node)
        self.require_loopless()
        form = self.compiled.anterior_form
        return _label_set(form.labels, form.anterior_masks[start] & ~(1 << start))

    # -- structural identity ----------------------------------------------

    def canonical_form(self) -> tuple:
        return (
            tuple(sorted(self._nodes)),
            tuple(sorted(e.canonical() for e in self._edges)),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MixedGraph):
            return NotImplemented
        return self.canonical_form() == other.canonical_form()

    def __hash__(self) -> int:
        return hash(self.canonical_form())

    def __repr__(self) -> str:
        return (
            f"MixedGraph({len(self._nodes)} nodes, "
            f"{len(self._edges)} edges: "
            + "; ".join(str(e) for e in self._edges)
            + ")"
        )


def build_graph(
    nodes: Iterable[str], edges: Iterable[tuple[str, str, str]] = ()
) -> MixedGraph:
    """Build a graph from node labels and (left, operator, right) edge specs.

    Operators are ``--`` (line), ``->`` / ``<-`` (arrow), ``<->`` (arc).
    Endpoints must appear in the node list; parallel edge specs create
    multi-edges.
    """
    built = [_edge_from_spec(a, op, b, k) for k, (a, op, b) in enumerate(edges)]
    return MixedGraph(nodes, built)


# -- paths ------------------------------------------------------------------


@dataclass(frozen=True)
class Path:
    """An alternating node/edge sequence with no repeated node or edge.

    Edge references keep parallel edges apart; a single node is allowed as the
    degenerate result of combining fully overlapping paths.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise GraphError("a path needs at least one node")
        if len(self.edges) != len(self.nodes) - 1:
            raise GraphError("node/edge counts do not alternate")
        if len(set(self.nodes)) != len(self.nodes):
            raise GraphError(f"repeated node in path {self.nodes}")
        if len(set(self.edges)) != len(self.edges):
            raise GraphError("repeated edge in path")
        for u, e, v in zip(self.nodes, self.edges, self.nodes[1:]):
            if not (e.touches(u) and e.touches(v)) or u == v:
                raise GraphError(f"edge {e} does not join {u!r} and {v!r}")

    @property
    def first(self) -> str:
        return self.nodes[0]

    @property
    def last(self) -> str:
        return self.nodes[-1]

    def is_degenerate(self) -> bool:
        return len(self.nodes) == 1

    def arrowhead_at(self, endpoint: str) -> bool:
        """Arrowhead pointing to one of the path's endpoints, on the path."""
        if self.is_degenerate():
            raise GraphError("degenerate path has no incident edges")
        if endpoint == self.nodes[0]:
            return self.edges[0].head_at(endpoint)
        if endpoint == self.nodes[-1]:
            return self.edges[-1].head_at(endpoint)
        raise GraphError(f"{endpoint!r} is not an endpoint of this path")

    def is_collider_at(self, index: int) -> bool:
        """Collider test for the inner node at ``index``: arrowheads from both
        flanking edges."""
        if not 0 < index < len(self.nodes) - 1:
            raise GraphError(f"index {index} is not an inner position")
        v = self.nodes[index]
        return self.edges[index - 1].head_at(v) and self.edges[index].head_at(v)

    def __str__(self) -> str:
        if self.is_degenerate():
            return self.nodes[0]
        parts = [self.nodes[0]]
        for e, v in zip(self.edges, self.nodes[1:]):
            u = e.other(v)
            op = EDGE_OPS[(e.mark_at(u), e.mark_at(v))]
            parts.append(op)
            parts.append(v)
        return " ".join(parts)


def make_path(graph: MixedGraph, nodes: Sequence[str], picks: Sequence[Optional[Edge]] = ()) -> Path:
    """Build a path in ``graph`` from a node sequence.

    When several parallel edges join a consecutive pair the choice must be
    disambiguated through ``picks`` (entries may be None where unambiguous).
    """
    node_tuple = tuple(nodes)
    edges: list[Edge] = []
    for i, (u, v) in enumerate(zip(node_tuple, node_tuple[1:])):
        pick = picks[i] if i < len(picks) else None
        if pick is not None:
            if not (pick.touches(u) and pick.touches(v)):
                raise GraphError(f"edge {pick} does not join {u!r} and {v!r}")
            edges.append(pick)
            continue
        options = graph.edges_between(u, v)
        if not options:
            raise GraphError(f"no edge between {u!r} and {v!r}")
        if len(options) > 1:
            raise GraphError(
                f"ambiguous edge between {u!r} and {v!r}; pass picks to choose"
            )
        edges.append(options[0])
    return Path(node_tuple, tuple(edges))


def path_in_graph(graph: MixedGraph, path: Path) -> bool:
    """True when every node and edge of ``path`` belongs to ``graph``."""
    if any(n not in graph.nodes for n in path.nodes):
        return False
    return all(e.key < len(graph.edges) and graph.edges[e.key] == e for e in path.edges)


def combine_paths(p1: Path, p2: Path) -> Path:
    """Combine a path ending at h with a path starting at h.

    The result follows p1 up to its first node that lies on p2, then follows
    p2 from there; with disjoint interiors this is plain concatenation. Fully
    overlapping inputs collapse to a degenerate single-node path, which
    callers must treat as "no usable connecting path".
    """
    if p1.last != p2.first:
        raise GraphError(
            f"cannot combine: {p1.last!r} does not match {p2.first!r}"
        )
    on_p2 = set(p2.nodes)
    cut = next(i for i, v in enumerate(p1.nodes) if v in on_p2)
    k = p1.nodes[cut]
    j = p2.nodes.index(k)
    return Path(
        p1.nodes[: cut + 1] + p2.nodes[j + 1 :],
        p1.edges[:cut] + p2.edges[j:],
    )


class TripathClass(Enum):
    COLLIDER = "collider"
    NON_COLLIDER = "non-collider"


def classify_tripath(graph: MixedGraph, tripath: Path) -> TripathClass:
    """Collider iff both flanking edges put an arrowhead on the inner node."""
    if len(tripath.nodes) != 3:
        raise GraphError("a tripath has exactly three nodes")
    if not path_in_graph(graph, tripath):
        raise GraphError("tripath is not a path of this graph")
    if tripath.is_collider_at(1):
        return TripathClass.COLLIDER
    return TripathClass.NON_COLLIDER


def endpoint_identical(first: Path | Edge, second: Path | Edge) -> bool:
    """True when two paths (or edges) between the same endpoints agree on
    having an arrowhead at each shared endpoint."""

    def as_path(obj: Path | Edge) -> Path:
        if isinstance(obj, Edge):
            return Path((obj.a, obj.b), (obj,))
        return obj

    p, q = as_path(first), as_path(second)
    ends_p = {p.first, p.last}
    ends_q = {q.first, q.last}
    if ends_p != ends_q or len(ends_p) != 2:
        raise GraphError(f"endpoint sets differ: {ends_p} vs {ends_q}")
    return all(p.arrowhead_at(x) == q.arrowhead_at(x) for x in ends_p)
