"""Ribbons, maximality, primitive inducing paths, and subclass tests.

A ribbon is a collider tripath <h, i, j> with no endpoint-identical shortcut
edge between h and j whose inner node i (or a descendant of it) either ends a
line (straight flavor) or sits on a direction-preserving cycle (cyclic
flavor). Graphs without ribbons as induced subgraphs keep the same separation
model as their anterior graph, which is what makes most of the machinery in
this module sound.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from enum import Enum
from operator import itemgetter
from typing import Callable, Iterator, Optional

from .graph import CompiledGraph, Edge, GraphError, Mark, MixedGraph, Path, _arc_flood, _fold, _label_set, _mask, _require_cap
from .separation import DEFAULT_ORACLE_LIMIT, _admissible_paths, _pair, m_separated


class RibbonFlavor(Enum):
    STRAIGHT = "straight"
    CYCLIC = "cyclic"


@dataclass(frozen=True)
class Ribbon:
    tripath: Path
    flavor: RibbonFlavor
    witness: str  # line endpoint among {i} + descendants, or the cycle node


def find_ribbons(graph: MixedGraph) -> list[Ribbon]:
    """All ribbons of the graph, one per distinct mark signature of a node
    triple; parallel copies of the same shape are not repeated.

    An inner node's witness is the node itself when it ends a line, else its
    first descendant by label that does; failing both, the same for
    directed-cycle nodes, read from one fold of each node and its
    descendants. The shortcut test reads one bit of the step table, which
    holds every edge between the tripath's endpoints by its marks.
    """
    graph.require_loopless()
    compiled = graph.compiled
    labels, rows = compiled.labels, compiled.adjacency
    colliders = {}
    for inner, row in enumerate(rows):
        incident = [(w, head_w, e) for w, head_v, head_w, e in row if head_v]
        if len(incident) > 1:
            colliders[inner] = incident
    if not colliders:
        return []
    ends, cyclic = _mask(v for v, others in enumerate(compiled.lines) if others), compiled.cyclic
    if not ends | cyclic:
        return []
    below, steps = _fold(compiled.components[::-1], compiled.children, True), compiled.steps
    found: dict[tuple, Ribbon] = {}
    for inner, incident in colliders.items():
        if hit := below[inner] & ends:
            flavor, marked = RibbonFlavor.STRAIGHT, ends
        elif hit := below[inner] & cyclic:
            flavor, marked = RibbonFlavor.CYCLIC, cyclic
        else:
            continue
        witness = inner if marked >> inner & 1 else (hit & -hit).bit_length() - 1
        # ``incident`` follows the row, sorted by neighbour, so h <= j.
        for (h, head_h, e1), (j, head_j, e2) in itertools.combinations(incident, 2):
            if h == j:
                continue
            signature = (h, inner, j, head_h, head_j)
            if signature in found or steps[h][2 * (not head_h) + (not head_j)] >> j & 1:
                continue
            tripath = Path((labels[h], labels[inner], labels[j]), (e1, e2))
            found[signature] = Ribbon(tripath, flavor, labels[witness])
    return [found[k] for k in sorted(found)]


def is_ribbonless(graph: MixedGraph) -> bool:
    return graph.ribbonless


def find_primitive_inducing_paths(
    graph: MixedGraph, x: str, y: str, limit: Optional[int] = None
) -> list[Path]:
    """Paths from x to y whose inner nodes are all colliders on the path and
    all ancestors of {x, y}. Any single x-y edge qualifies.

    The first ``limit`` paths (all of them when None) of the depth-first
    search that also finds m-connecting witnesses, in deterministic order,
    with inner nodes confined to ``_inducing_live``'s arc components: they
    hold every inner node of every such path, so none is lost.
    """
    compiled, source, target, _ = _pair(graph, x, y)
    if limit is not None and limit < 1:
        raise GraphError(f"limit must be at least 1, got {limit}")
    passes = _colliders_in(_inducing_live(compiled, source, target))
    return list(itertools.islice(_admissible_paths(compiled, source, target, passes), limit))


def _inducing_live(compiled: CompiledGraph, x: int, y: int) -> int:
    """The union of the arc components of an({x, y}) - {x, y} that both x
    and y send an arrowhead into, as a mask, by two floods over the arcs of
    the step table, an({x, y}) read from the kept ``ancestor_masks``. The
    inner nodes of a primitive inducing path are colliders in an({x, y}),
    so they lie in one such component; any two arrowheads that x and y send
    into one are joined by a simple arc path. So it is 0 exactly when no
    primitive inducing path from x to y has an inner node. A pair that sends
    into no common arc component of the nodes with a child always gives 0, so
    ``_violations`` calls this only on ``inducing_candidates``."""
    steps, an = compiled.steps, compiled.ancestor_masks
    live = (an[x] | an[y]) & ~(1 << x | 1 << y)
    for end in (x, y):
        arcs, _, arrows, _ = steps[end]
        start = (arcs | arrows) & live
        if not start:  # no arrowhead into live, no inner node: skip the flood
            return 0
        live = _arc_flood(steps, start, live)
    return live


def _colliders_in(live: int) -> Callable[[int, bool, bool], bool]:
    """``_admissible_paths``' test for colliders in the mask ``live``."""
    return lambda v, head_in, head_out: head_in and head_out and bool(live >> v & 1)


def _require_ribbonless(graph: MixedGraph, what: str) -> None:
    if not graph.ribbonless:
        raise GraphError(f"{what} requires a ribbonless graph")


def _violations(graph: MixedGraph) -> Iterator[tuple[str, str, Path]]:
    """Non-adjacent pairs x < y joined by a primitive inducing path, in label
    order, each with its first one, as found; the caller has checked that the
    graph is ribbonless. Only the pairs in ``inducing_candidates``, which
    send arrowheads into one arc component of the nodes with a child, can
    violate; each is tested by ``_inducing_live``, and only a violating pair
    is searched, inside its arc components, for a witness."""
    compiled = graph.compiled
    labels = compiled.labels
    for x, candidates in enumerate(compiled.inducing_candidates):
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            y = low.bit_length() - 1
            if not (live := _inducing_live(compiled, x, y)):
                continue
            path = next(_admissible_paths(compiled, x, y, _colliders_in(live)), None)
            if path is None:
                raise RuntimeError(f"no inducing path found in the arc components of {labels[x]}, {labels[y]}")
            yield labels[x], labels[y], path


def maximality_violations(graph: MixedGraph) -> list[tuple[str, str, Path]]:
    """Non-adjacent pairs joined by a primitive inducing path, with a witness.

    Only defined on ribbonless graphs, where such a path is exactly the
    obstruction to finding a separating set.
    """
    _require_ribbonless(graph, "maximality test")
    return list(_violations(graph))


def is_maximal(graph: MixedGraph) -> bool:
    _require_ribbonless(graph, "maximality test")
    return next(_violations(graph), None) is None


def oracle_is_maximal(graph: MixedGraph, limit: int = DEFAULT_ORACLE_LIMIT) -> bool:
    """Definition-level maximality: every non-adjacent pair has some subset of
    the remaining nodes that m-separates it. Exponential subset search."""
    graph.require_loopless()
    _require_cap("oracle", len(graph.nodes), limit)
    for x, y in itertools.combinations(graph.node_list(), 2):
        if graph.adjacent(x, y):
            continue
        rest = sorted(graph.nodes - {x, y})
        if not any(
            m_separated(graph, [x], [y], c)
            for r in range(len(rest) + 1)
            for c in itertools.combinations(rest, r)
        ):
            return False
    return True


def pairwise_separator(graph: MixedGraph, x: str, y: str) -> frozenset[str]:
    """The anterior-set separator (ant(x) | ant(y)) minus the pair itself,
    read from the anterior form's ``anterior_masks`` as in ``pairwise_model``.

    Guaranteed to m-separate x and y on a ribbonless graph when they are
    non-adjacent and no primitive inducing path joins them. All three
    preconditions are enforced, the last by ``_inducing_live``'s arc
    components, with no path search; on a graph with ribbons the set can
    fail to separate (fig4a's h and j), so such a graph is refused.
    """
    _require_ribbonless(graph, "pairwise separator")
    compiled, i, j, _ = _pair(graph, x, y)
    head_head, head_tail, tail_head, tail_tail = compiled.steps[i]
    if (head_head | head_tail | tail_head | tail_tail) >> j & 1:
        raise GraphError(f"{x!r} and {y!r} are adjacent")
    if _inducing_live(compiled, i, j):
        raise GraphError(
            f"a primitive inducing path joins {x!r} and {y!r}; no separator exists"
        )
    ant = compiled.anterior_form.anterior_masks
    return _label_set(compiled.labels, (ant[i] | ant[j]) & ~(1 << i | 1 << j))


def maximalize(graph: MixedGraph) -> MixedGraph:
    """Close a ribbonless graph under the edges its primitive inducing paths
    demand, yielding a maximal graph with the same separation model.

    Each step adds the edge endpoint-identical to the first witness of the
    first violating pair in label order, then reads the new graph's kept
    ``ribbonless`` flag and scans for the next first violation. Every step
    makes one pair adjacent, so it ends. An edge that creates a ribbon
    leaves the criterion's scope and is refused.
    """
    _require_ribbonless(graph, "maximalize")
    current = graph
    while (violation := next(_violations(current), None)) is not None:
        x, y, path = violation
        edge = Edge(x, y, *(Mark.HEAD if path.arrowhead_at(v) else Mark.TAIL for v in (x, y)))
        current = current.with_edge(edge)
        if not current.ribbonless:
            raise GraphError(
                f"maximalize: adding {edge} for the pair ({x},{y}) creates the ribbon "
                f"{find_ribbons(current)[0].tripath}, so the completion is not ribbonless"
            )
    return current


@dataclass(frozen=True)
class GraphClass:
    """Syntactic membership flags for the subclass hierarchy.

    ``maximal`` is None when the graph is outside the scope of the
    primitive-inducing-path criterion (loops or ribbons present).
    """

    loopless_mixed: bool
    undirected: bool
    bidirected: bool
    dag: bool
    acyclic_directed_mixed: bool
    ancestral: bool
    ribbonless: bool
    maximal: Optional[bool]

    def as_dict(self) -> dict[str, Optional[bool]]:
        return asdict(self)


def classify(graph: MixedGraph) -> GraphClass:
    """The flags from the compiled form: which edge kinds occur from one test
    per node on the kept line lists, parent lists and the arc masks of the
    step table, so O(n) once those are built; ``ancestral`` from the fold's
    ``ancestor_masks`` and the arc masks (no arc v <-> w with w in an(v)),
    and ``maximal`` from the arc-component violation scan."""
    if not graph.is_loopless():
        return GraphClass(False, False, False, False, False, False, False, None)

    compiled = graph.compiled
    has_line, has_arrow = any(compiled.lines), any(compiled.parents)
    has_arc, has_cycle = any(map(itemgetter(0), compiled.steps)), bool(compiled.cyclic)
    undirected = not has_arrow and not has_arc
    bidirected = not has_line and not has_arrow
    dag = not has_line and not has_arc and not has_cycle
    admg = not has_line and not has_cycle
    ancestral = not has_cycle and compiled.anterior and not any(
        an & step[0] for an, step in zip(compiled.ancestor_masks, compiled.steps)
    )
    ribbonless = is_ribbonless(graph)
    maximal = is_maximal(graph) if ribbonless else None
    return GraphClass(True, undirected, bidirected, dag, admg, ancestral, ribbonless, maximal)
