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
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .graph import Edge, EdgeKind, GraphError, Mark, MixedGraph, Path
from .separation import DEFAULT_ORACLE_LIMIT, _admissible_paths, _compiled_for, m_separated


class RibbonFlavor(Enum):
    STRAIGHT = "straight"
    CYCLIC = "cyclic"


@dataclass(frozen=True)
class Ribbon:
    tripath: Path
    flavor: RibbonFlavor
    witness: str  # line endpoint among {i} + descendants, or the cycle node


def _condition_two(
    graph: MixedGraph, inner: str, line_ends: set[str]
) -> Optional[tuple[RibbonFlavor, str]]:
    """Check the inner-node condition; straight beats cyclic when both hold."""
    candidates = [inner] + sorted(graph.descendants([inner]) - {inner})
    for v in candidates:
        if v in line_ends:
            return (RibbonFlavor.STRAIGHT, v)
    for v in candidates:
        if graph.on_directed_cycle(v):
            return (RibbonFlavor.CYCLIC, v)
    return None


def find_ribbons(graph: MixedGraph) -> list[Ribbon]:
    """All ribbons of the graph, one per distinct mark signature of a node
    triple; parallel copies of the same shape are not repeated.

    The shortcut test consults every edge between the tripath's endpoints, so
    the decision matches the induced subgraph on the three nodes.
    """
    graph.require_loopless()
    found: dict[tuple, Ribbon] = {}
    line_ends = graph.line_endpoints()
    for inner in graph.node_list():
        incident = [e for e in graph.edges_at(inner) if e.head_at(inner)]
        hit = _condition_two(graph, inner, line_ends) if len(incident) > 1 else None
        if hit is None:
            continue
        for e1, e2 in itertools.combinations(incident, 2):
            h, j = e1.other(inner), e2.other(inner)
            if h == j:
                continue
            if h > j:
                e1, e2, h, j = e2, e1, j, h
            tripath = Path((h, inner, j), (e1, e2))
            signature = (h, inner, j, e1.head_at(h), e2.head_at(j))
            if signature in found:
                continue
            shortcut = any(
                e.head_at(h) == e1.head_at(h) and e.head_at(j) == e2.head_at(j)
                for e in graph.edges_between(h, j)
            )
            if shortcut:
                continue
            found[signature] = Ribbon(tripath, *hit)
    return [found[k] for k in sorted(found)]


def is_ribbonless(graph: MixedGraph) -> bool:
    return not find_ribbons(graph)


def find_primitive_inducing_paths(
    graph: MixedGraph, x: str, y: str, limit: Optional[int] = None
) -> list[Path]:
    """Paths from x to y whose inner nodes are all colliders on the path and
    all ancestors of {x, y}. Any single x-y edge qualifies.

    The first ``limit`` paths (all of them when None) of the depth-first
    search that also finds m-connecting witnesses, pruning a partial path as
    soon as its newest inner node fails either condition. Results come in
    deterministic order.
    """
    compiled = _compiled_for(graph, (x, y))
    if x == y:
        raise GraphError("endpoints must differ")
    if limit is not None and limit < 1:
        raise GraphError(f"limit must be at least 1, got {limit}")
    source, target = compiled.index[x], compiled.index[y]
    allowed = compiled.ancestors([source, target])

    def passes(v: int, head_in: bool, head_out: bool) -> bool:
        return head_in and head_out and v in allowed

    return list(itertools.islice(_admissible_paths(compiled, source, target, passes), limit))


def maximality_violations(graph: MixedGraph) -> list[tuple[str, str, Path]]:
    """Non-adjacent pairs joined by a primitive inducing path, with a witness.

    Only defined on ribbonless graphs, where such a path is exactly the
    obstruction to finding a separating set.
    """
    if not is_ribbonless(graph):
        raise GraphError("maximality test requires a ribbonless graph")
    violations = []
    for x, y in itertools.combinations(graph.node_list(), 2):
        if graph.adjacent(x, y):
            continue
        paths = find_primitive_inducing_paths(graph, x, y, limit=1)
        if paths:
            violations.append((x, y, paths[0]))
    return violations


def is_maximal(graph: MixedGraph) -> bool:
    return not maximality_violations(graph)


def oracle_is_maximal(graph: MixedGraph, limit: int = DEFAULT_ORACLE_LIMIT) -> bool:
    """Definition-level maximality: every non-adjacent pair has some subset of
    the remaining nodes that m-separates it. Exponential subset search."""
    graph.require_loopless()
    if len(graph.nodes) > limit:
        raise GraphError(
            f"oracle limit exceeded: {len(graph.nodes)} nodes > {limit}"
        )
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


def pairwise_separator(graph: MixedGraph, x: str, y: str) -> set[str]:
    """The anterior-set separator (ant(x) | ant(y)) minus the pair itself.

    Guaranteed to m-separate x and y when they are non-adjacent and no
    primitive inducing path joins them; both preconditions are enforced.
    """
    graph.require_loopless()
    if graph.adjacent(x, y):
        raise GraphError(f"{x!r} and {y!r} are adjacent")
    if find_primitive_inducing_paths(graph, x, y, limit=1):
        raise GraphError(
            f"a primitive inducing path joins {x!r} and {y!r}; no separator exists"
        )
    return (graph.anteriors(x) | graph.anteriors(y)) - {x, y}


def _endpoint_identical_edge(path: Path, key: int = 0) -> Edge:
    x, y = path.first, path.last
    mark_x = Mark.HEAD if path.arrowhead_at(x) else Mark.TAIL
    mark_y = Mark.HEAD if path.arrowhead_at(y) else Mark.TAIL
    return Edge(x, y, mark_x, mark_y, key)


def maximalize(graph: MixedGraph) -> MixedGraph:
    """Close a ribbonless graph under the edges its primitive inducing paths
    demand, yielding a maximal graph with the same separation model.

    Violating pairs are processed in lexicographic order, adding the edge
    endpoint-identical to the first witness path, and the scan restarts after
    each addition. Terminates because every step makes one pair adjacent.
    """
    if not is_ribbonless(graph):
        raise GraphError("maximalize requires a ribbonless graph")
    current = graph
    while True:
        violations = maximality_violations(current)
        if not violations:
            return current
        _, _, path = violations[0]
        current = current.with_edge(_endpoint_identical_edge(path))


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
        return {
            "loopless_mixed": self.loopless_mixed,
            "undirected": self.undirected,
            "bidirected": self.bidirected,
            "dag": self.dag,
            "acyclic_directed_mixed": self.acyclic_directed_mixed,
            "ancestral": self.ancestral,
            "ribbonless": self.ribbonless,
            "maximal": self.maximal,
        }


def classify(graph: MixedGraph) -> GraphClass:
    if not graph.is_loopless():
        return GraphClass(False, False, False, False, False, False, False, None)

    kinds = {e.kind for e in graph.edges}
    has_cycle = bool(graph.compiled.cyclic)
    undirected = kinds <= {EdgeKind.LINE}
    bidirected = kinds <= {EdgeKind.ARC}
    dag = kinds <= {EdgeKind.ARROW} and not has_cycle
    admg = kinds <= {EdgeKind.ARROW, EdgeKind.ARC} and not has_cycle

    arc_ancestor = any(
        e.other(v) in graph.ancestors([v])
        for e in graph.edges
        if e.kind is EdgeKind.ARC
        for v in (e.a, e.b)
    )
    ancestral = not has_cycle and not arc_ancestor and graph.is_anterior()

    ribbonless = is_ribbonless(graph)
    maximal = is_maximal(graph) if ribbonless else None
    return GraphClass(
        loopless_mixed=True,
        undirected=undirected,
        bidirected=bidirected,
        dag=dag,
        acyclic_directed_mixed=admg,
        ancestral=ancestral,
        ribbonless=ribbonless,
        maximal=maximal,
    )
