"""m-separation queries over loopless mixed graphs.

A path is m-connecting given C when every collider on it lies in C or has a
directed route into C, and every non-collider avoids C. Two node sets are
m-separated by C when no m-connecting path joins them.

Two independent routes are provided: a breadth-first reachability engine over
(node, arrived-with-arrowhead) walk states, and a literal oracle that
enumerates all simple paths and applies the definition. The engine works on
walks while the definition speaks of paths; their equivalence is not assumed,
it is enforced by agreement tests on randomized corpora, and any divergence
is a bug.
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Iterable, Iterator, Optional, Sequence

from .graph import CompiledGraph, Edge, GraphError, MixedGraph, Path, _mask, _require_cap, combine_paths, path_in_graph

DEFAULT_ORACLE_LIMIT = 8


def _query_sets(
    graph: MixedGraph, a: Iterable[str], b: Iterable[str], c: Iterable[str]
) -> tuple[set[str], set[str], set[str]]:
    """A, B and C as sets, once none is a string, A and B are non-empty, the
    three are pairwise disjoint, the graph is loopless and every label is a
    node: the one check of every separation, witness and inducing-path query."""
    if isinstance(a, str) or isinstance(b, str) or isinstance(c, str):
        raise GraphError("A, B and C must be collections of node labels, not strings")
    a, b, c = set(a), set(b), set(c)
    if not a or not b:
        raise GraphError("separation queries need non-empty A and B")
    if not (a.isdisjoint(b) and a.isdisjoint(c) and b.isdisjoint(c)):
        if not a.isdisjoint(b):
            raise GraphError(f"A and B must be disjoint (a pair's endpoints must differ); both hold {min(a & b)!r}")
        raise GraphError(f"the conditioning set may not hold a node of A or B; it holds {min(c & (a | b))!r}")
    graph.require_loopless()
    if not (a <= graph.nodes and b <= graph.nodes and c <= graph.nodes):
        graph._require(*a, *b, *c)  # names the smallest unknown label
    return a, b, c


def _step(steps: Sequence[tuple[int, int, int, int]], fresh_head: int, fresh_tail: int, gate: int) -> tuple[int, int]:
    """One level of the walk lane: the nodes that states at ``fresh_head``
    (entered with an arrowhead) and at ``fresh_tail`` (over a tail) enter
    next, with an arrowhead and over a tail, by one bit loop over the step
    table per gate. A state at v outside C (``gate``) leaves over every edge,
    or only over those without an arrowhead at v when it came in with one;
    at v in C only a state that came in with an arrowhead leaves, over the
    edges with one. ``fresh_tail`` holds no node of C: ``_joined``, the one
    caller, keeps no state entered over a tail there, and its ends, which
    lie outside C, leave as tail states do.

    C alone opens a collider, so no an(C) is computed: a walk that meets a
    collider v in an(C) outside C takes the shortest directed path from v
    into C, whose inner nodes avoid C, passes the collider at its end in C
    and comes back the same way, arriving at v over a tail, so it leaves v
    over any edge, as the path would through an open collider. The
    bit-parallel walk behind ``independence.enumerate_model`` gates by C
    alone on the same argument and reads the same table."""
    next_head = next_tail = 0
    passing = fresh_head & gate  # a collider in C: on over the edges with an arrowhead
    while passing:
        v = passing.bit_length() - 1
        passing ^= 1 << v
        step_head, step_tail, _, _ = steps[v]
        next_head |= step_head
        next_tail |= step_tail
    passing = fresh_head & ~gate  # an arrowhead outside C: on over the edges without
    while passing:
        v = passing.bit_length() - 1
        passing ^= 1 << v
        _, _, step_head, step_tail = steps[v]
        next_head |= step_head
        next_tail |= step_tail
    passing = fresh_tail  # a tail, outside C: on over every edge
    while passing:
        v = passing.bit_length() - 1
        passing ^= 1 << v
        head_head, head_tail, tail_head, tail_tail = steps[v]
        next_head |= head_head | tail_head
        next_tail |= head_tail | tail_tail
    return next_head, next_tail


def _reach(
    compiled: CompiledGraph, sources: Sequence[int], colliders: int, through: int, stop: Collection[int] = (),
) -> int:
    """A mask of the indices joined to some source by a path whose inner
    colliders lie in the mask ``colliders`` and other inner nodes in the
    mask ``through``, index v as bit v, by the visited-mask lane; it returns
    once it reaches a node in ``stop``, with that node set. One pass from
    all sources is exact: a state's future does not depend on where its
    path began.

    A walk may bounce off a line below a collider and fake a connection, so
    the search follows simple paths, the state also carrying the visited
    nodes as a bit mask (exponential in the worst case). A path cannot come
    back along an edge, so given C the caller opens the colliders in C |
    an(C) and passes the rest through ~C. The lane reads no graph class:
    every separation reader searches the form ``_search_form`` picks and
    walks an anterior one in ``_joined`` or the reach table's bit-parallel
    walk, so only graphs with ribbons reach it.
    """
    halt = _mask(stop)
    adjacency = compiled.adjacency
    reached = 0
    visited: set[tuple[int, int, bool]] = set()
    queue = deque([(s, 1 << s, None) for s in sources])
    while queue:
        v, mask, head_in = queue.popleft()
        if head_in is None:  # a source: no inner-node condition
            pass_head = pass_tail = True
        else:
            pass_tail = through >> v & 1
            pass_head = colliders >> v & 1 if head_in else pass_tail
        for w, head_v, head_w, _ in adjacency[v]:
            if not (pass_head if head_v else pass_tail) or mask >> w & 1:
                continue
            reached |= 1 << w
            if halt >> w & 1:
                return reached
            state = (w, mask | 1 << w, head_w)
            if state not in visited:
                visited.add(state)
                queue.append(state)
    return reached


def _joined(form: CompiledGraph, sources: Sequence[int], targets: Sequence[int], c: set[int]) -> bool:
    """Whether an m-connecting path given C joins a source to a target.

    On an anterior form the walk lane runs from both ends and stops where
    they meet: the rule at an inner node reads only its two marks, so a walk
    read backwards is a walk. Both sides keep to ant(sources, targets, C),
    the form's ``anterior_scope``: a collider of an m-connecting path lies
    in C or an(C), from a non-collider the path keeps to lines and arrows
    toward their heads (no arrowhead meets a line) until a collider or an
    end, and the detour from a collider into C stays in an(C). Each side
    keeps unseen and fresh masks per mark, starts from its ends as states
    entered over a tail and drops a tail state at a node of C, which neither
    leaves nor meets; the side with fewer frontier nodes takes the next
    ``_step``. States (v, h1) and (v, h2) of the two sides meet exactly when
    both marks are arrowheads and v is in C, or not both are and v is not:
    a fresh arrowhead is tested against the other side's ``head & C | tail &
    (scope - C)``, a fresh tail against its ``(head | tail) & (scope - C)``,
    masks of its entered states rebuilt when the sides trade places. A walk
    between the ends splits at an inner node into two walks that meet, and a
    meet joins two walks; a side that runs out has reached all it can and
    met none of the other side's ends. With ribbons, ``_reach``'s
    visited-mask lane runs from the sources to the first target.
    """
    gate = _mask(c)
    if not form.anterior:
        return _reach(form, sources, gate | form.ancestors(c), ~gate, targets) & _mask(targets) != 0
    steps = form.steps
    scope = form.anterior_scope((*sources, *targets, *c))
    outside = scope & ~gate
    a, b = _mask(sources), _mask(targets)
    # a side: unseen head and tail, fresh head and tail, frontier node count
    unseen_head, unseen_tail, fresh_head, fresh_tail, size = scope, outside ^ a, 0, a, len(sources)
    far = (scope, outside ^ b, 0, b, len(targets))
    while True:
        far_head, far_tail, _, _, far_size = far
        join_head = gate & ~far_head | outside & ~far_tail
        join_tail = outside & ~(far_head & far_tail)
        while size <= far_size:
            fresh_head, fresh_tail = _step(steps, fresh_head, fresh_tail, gate)
            fresh_head, fresh_tail = fresh_head & unseen_head, fresh_tail & unseen_tail
            if fresh_head & join_head or fresh_tail & join_tail:
                return True
            fresh = fresh_head | fresh_tail
            if not fresh:
                return False
            unseen_head, unseen_tail = unseen_head ^ fresh_head, unseen_tail ^ fresh_tail
            size = fresh.bit_count()
        far, (unseen_head, unseen_tail, fresh_head, fresh_tail, size) = (unseen_head, unseen_tail, fresh_head, fresh_tail, size), far


def _search_form(graph: MixedGraph) -> CompiledGraph:
    """The compiled form that answers a separation query, by graph class. An
    anterior graph answers on its own form, in the linear walk lane. A
    ribbonless graph answers on the form of its anterior graph, in the same
    lane: the two graphs induce the same separation model. Only a graph with
    ribbons keeps its own form and the visited-mask lane. The forms share
    labels and indices, and each brings its own an(C). Every separation
    reader but the witness search, whose paths must lie in the graph itself,
    takes its form here, model enumeration and equivalence included."""
    compiled = graph.compiled
    return compiled.anterior_form if not compiled.anterior and graph.ribbonless else compiled


def m_connecting_path_exists(
    graph: MixedGraph, x: str, y: str, given: Iterable[str] = ()
) -> bool:
    """Reachability engine: is there an m-connecting path from x to y given C?
    ``m_separated`` on A = {x} and B = {y}, with its one check and search."""
    return not m_separated(graph, [x], [y], given)


def m_separated(graph: MixedGraph, a: Iterable[str], b: Iterable[str], c: Iterable[str] = ()) -> bool:
    """True when no node of A is m-connected to a node of B given C.

    One search from all of A and all of B, meeting in the middle
    (``_joined``): any connected pair i in A, j in B is found, and the
    reduction to such pairs is licensed by decomposition and composition of
    the induced model. On an anterior form, every ribbonless graph's, C
    alone gates the walk; only a graph with ribbons computes an(C).
    """
    a, b, c = _query_sets(graph, a, b, c)
    form = _search_form(graph)
    index = form.index
    return not _joined(form, [index[n] for n in a], [index[n] for n in b], {index[n] for n in c})


def is_m_connecting_path(
    graph: MixedGraph, path: Path, given: Iterable[str] = ()
) -> bool:
    """Literal per-node check of the m-connecting predicate for one path."""
    if not path_in_graph(graph, path):
        raise GraphError("path does not belong to this graph")
    if isinstance(given, str):
        raise GraphError("C must be a collection of node labels, not a string")
    c = frozenset(given)
    open_colliders = c | graph.ancestors(c)  # refuses an unknown C on any path
    if path.is_degenerate():
        return False
    for idx in range(1, len(path.nodes) - 1):
        v = path.nodes[idx]
        if path.is_collider_at(idx):
            if v not in open_colliders:
                return False
        elif v in c:
            return False
    return True


def _simple_paths(graph: MixedGraph, x: str, y: str) -> Iterable[Path]:
    """All simple paths from x to y, parallel edges kept distinct."""
    stack_nodes: list[str] = [x]
    stack_edges: list[Edge] = []
    visited: set[str] = {x}

    def walk() -> Iterable[Path]:
        here = stack_nodes[-1]
        for e in graph.edges_at(here):
            w = e.other(here)
            if w == y:
                yield Path(tuple(stack_nodes) + (y,), tuple(stack_edges) + (e,))
                continue
            if w in visited:
                continue
            stack_nodes.append(w)
            stack_edges.append(e)
            visited.add(w)
            yield from walk()
            visited.discard(w)
            stack_edges.pop()
            stack_nodes.pop()

    return walk()


def oracle_m_separated(
    graph: MixedGraph,
    a: Iterable[str],
    b: Iterable[str],
    c: Iterable[str] = (),
    limit: int = DEFAULT_ORACLE_LIMIT,
) -> bool:
    """Brute-force ground truth: enumerate every simple path between the two
    sets and test the m-connecting predicate on each.

    Exponential in graph size; refuses graphs larger than ``limit`` nodes.
    """
    _require_cap("oracle", len(graph.nodes), limit)
    a, b, c = _query_sets(graph, a, b, c)
    for i in sorted(a):
        for j in sorted(b):
            for path in _simple_paths(graph, i, j):
                if is_m_connecting_path(graph, path, c):
                    return False
    return True


def _admissible_paths(
    compiled: CompiledGraph, source: int, target: int, colliders: int, through: int
) -> Iterator[Path]:
    """Simple source-target paths in depth-first order, as they are found.

    Every inner collider must lie in the mask ``colliders`` and every other
    inner node in the mask ``through``, a collider being a node where both
    of the path's edges carry an arrowhead; a partial path is pruned as soon
    as its newest node fails. Edges are tried in adjacency-row order, so the
    order of the paths is fixed. The stack is explicit; the number of paths,
    and the time between two of them, is exponential in the worst case.
    """
    labels, adjacency = compiled.labels, compiled.adjacency
    # One frame per path node: (node, edge in, may leave over an edge with an
    # arrowhead at the node, may leave over one without, edges left).
    stack = [(source, None, True, True, iter(adjacency[source]))]
    on_path = {source}
    while stack:
        _, _, pass_head, pass_tail, options = stack[-1]
        for w, head_here, head_w, e in options:
            if not (pass_head if head_here else pass_tail):
                continue
            if w == target:
                nodes = tuple(labels[f[0]] for f in stack) + (labels[target],)
                yield Path(nodes, tuple(f[1] for f in stack[1:]) + (e,))
            elif w not in on_path:
                pass_tail_w = through >> w & 1
                pass_head_w = colliders >> w & 1 if head_w else pass_tail_w
                if pass_head_w or pass_tail_w:
                    on_path.add(w)
                    stack.append((w, e, pass_head_w, pass_tail_w, iter(adjacency[w])))
                    break
        else:
            on_path.discard(stack.pop()[0])


def find_m_connecting_path(
    graph: MixedGraph, x: str, y: str, given: Iterable[str] = ()
) -> Optional[Path]:
    """Return a concrete m-connecting witness path, or None; x, y and C pass
    ``m_separated``'s check as A = {x} and B = {y}.

    The first path of the depth-first search in ``_admissible_paths``, which
    prunes a partial path as soon as an inner collider leaves C | an(C) or
    another inner node enters C. Deterministic: edges are explored in
    ``MixedGraph.edges_at`` order, so the same witness is returned every
    run. The search runs on the graph itself, whatever its class, since a
    path of the anterior graph need not be a path here. On an anterior graph
    both masks are also cut to ant({x, y} | C), where no m-connecting path
    goes (see ``_joined``), so the witness is the same; on any other graph a
    path may leave that set (x -> v -- w <- y), and nothing is cut.
    Exponential in the worst case; ``m_connecting_path_exists`` answers the
    yes/no question in linear time on anterior graphs, and on ribbonless
    graphs once their ribbon scan and anterior form are built.
    """
    _, _, c = _query_sets(graph, [x], [y], given)
    source, target, *c_idx = graph._require(x, y, *c)
    compiled = graph.compiled
    gate = _mask(c_idx)
    scope = compiled.anterior_scope((source, target, *c_idx)) if compiled.anterior else -1
    return next(_admissible_paths(compiled, source, target, (gate | compiled.ancestors(c_idx)) & scope, ~gate & scope), None)


def combine_m_connecting(
    graph: MixedGraph, p1: Path, p2: Path, given: Iterable[str] = ()
) -> Optional[Path]:
    """Combine two m-connecting paths that meet at a common node h, when the
    junction is safe.

    Requires an anterior graph (no arrowhead meets a line). With i_n the node
    before h on p1 and j_m the node after h on p2, the combination is
    returned in exactly these situations:

    a1) <i_n, h, j_m> is a collider and h is in C or an ancestor of C;
    a2) i_n equals j_m, both paths put an arrowhead at h, and h is in C or an
        ancestor of C;
    b1) <i_n, h, j_m> is a non-collider and h is outside C;
    b2) i_n equals j_m and the paths' edges at h do not both carry arrowheads.

    Otherwise, and for combinations that collapse to a degenerate path, None
    is returned.
    """
    if not graph.is_anterior():
        raise GraphError("combination rules require an anterior graph")
    c = frozenset(given)
    if not (path_in_graph(graph, p1) and path_in_graph(graph, p2)):
        raise GraphError("paths do not belong to this graph")
    if p1.last != p2.first:
        raise GraphError("paths do not share an endpoint")
    if p1.is_degenerate() or p2.is_degenerate():
        raise GraphError("degenerate paths cannot be combined")
    if not is_m_connecting_path(graph, p1, c) or not is_m_connecting_path(graph, p2, c):
        raise GraphError("inputs must be m-connecting given C")

    h = p1.last
    i_n = p1.nodes[-2]
    j_m = p2.nodes[1]
    head_1 = p1.edges[-1].head_at(h)
    head_2 = p2.edges[0].head_at(h)
    open_colliders = c | graph.ancestors(c)

    if i_n == j_m:
        both_heads = head_1 and head_2
        allowed = (both_heads and h in open_colliders) or not both_heads
    else:
        if head_1 and head_2:
            allowed = h in open_colliders
        else:
            allowed = h not in c
    if not allowed:
        return None
    combined = combine_paths(p1, p2)
    if combined.is_degenerate():
        return None
    return combined
