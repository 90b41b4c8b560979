"""Answers computed apart from the lmgraphs engine.

Every workload answer is checked against one of these. They work on
``Spec``, the benchmark's own edge-list form of a graph, and rely on networkx
(d-separation, ancestry, strongly connected components) or on the literal
definitions, never on the lmgraphs reachability engine.

* DAG and ADMG queries: m-separation in an ADMG equals d-separation in its
  canonical DAG, where every arc a <-> b becomes a latent parent of a and b
  (Richardson 2003), so ``networkx.is_d_separator`` decides them.
* Collider-free graphs: no path has a collider, so separation is plain vertex
  separation in the skeleton.
* Bidirected graphs: every inner node of a path is a collider and an(C) is
  empty, so a and b connect given C exactly when a path joins them through C.
* Anything small: ``path_separated`` enumerates simple paths and applies the
  m-connecting definition node by node.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import networkx as nx

# (head at left endpoint, head at right endpoint) for each text operator.
OPS = {"--": (False, False), "->": (False, True), "<-": (True, False), "<->": (True, True)}


@dataclass(eq=False)
class Spec:
    """A graph as the benchmark wrote it: node labels and (a, op, b) edges.
    The derived views are computed once; a Spec is not changed after use."""

    nodes: list[str]
    edges: list[tuple[str, str, str]]

    def text(self) -> str:
        touched = {n for a, _, b in self.edges for n in (a, b)}
        lines = [f"node {n}" for n in self.nodes if n not in touched]
        lines.extend(f"{a} {op} {b}" for a, op, b in self.edges)
        return "\n".join(lines) + "\n"

    @functools.cached_property
    def marks(self) -> set[tuple[str, str, bool, bool]]:
        """Every edge as (u, v, head at u, head at v), in both orientations."""
        out = set()
        for a, op, b in self.edges:
            ha, hb = OPS[op]
            out.update({(a, b, ha, hb), (b, a, hb, ha)})
        return out

    @functools.cached_property
    def arrows(self) -> nx.DiGraph:
        d = nx.DiGraph()
        d.add_nodes_from(self.nodes)
        d.add_edges_from((a, b) for a, op, b in self.edges if op == "->")
        return d

    @functools.cached_property
    def skeleton(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(self.nodes)
        g.add_edges_from((a, b) for a, _, b in self.edges)
        return g

    @functools.cached_property
    def canonical_dag(self) -> nx.DiGraph:
        """Arrows kept, every arc replaced by a latent common parent."""
        d = self.arrows.copy()
        for k, (a, op, b) in enumerate(self.edges):
            if op == "<->":
                d.add_edges_from([(("latent", k), a), (("latent", k), b)])
            elif op == "--":
                raise ValueError("a graph with lines has no canonical DAG")
        return d

    def adjacent(self, x: str, y: str) -> bool:
        return self.skeleton.has_edge(x, y)


def ancestors(spec: Spec, nodes) -> set[str]:
    """Nodes with an all-arrow directed route into some node of ``nodes``."""
    d = spec.arrows
    return set().union(*(nx.ancestors(d, n) for n in nodes)) if nodes else set()


def d_separated(spec: Spec, a, b, c) -> bool:
    return nx.is_d_separator(spec.canonical_dag, set(a), set(b), set(c))


def skeleton_separated(spec: Spec, a, b, c) -> bool:
    g = spec.skeleton.subgraph(set(spec.nodes) - set(c))
    return not any(nx.has_path(g, x, y) for x in a for y in b)


def bidirected_separated(spec: Spec, a, b, c) -> bool:
    sk = spec.skeleton
    return not any(
        nx.has_path(sk.subgraph(set(c) | {x, y}), x, y) for x in a for y in b
    )


def path_separated(spec: Spec, a, b, c) -> bool:
    """The definition: no simple path between A and B is m-connecting."""
    c = set(c)
    open_colliders = c | ancestors(spec, c)
    adj: dict[str, set[tuple[str, bool, bool]]] = {n: set() for n in spec.nodes}
    for u, v, hu, hv in spec.marks:
        adj[u].add((v, hu, hv))
    targets = set(b)

    def connects(here: str, head_in: bool, visited: frozenset) -> bool:
        for nxt, head_here, head_next in adj[here]:
            if here not in a_set:
                collider = head_in and head_here
                if collider and here not in open_colliders:
                    continue
                if not collider and here in c:
                    continue
            if nxt in targets:
                return True
            if nxt in visited or nxt in a_set:
                continue
            if connects(nxt, head_next, visited | {nxt}):
                return True
        return False

    a_set = set(a)
    return not any(connects(x, False, frozenset({x})) for x in sorted(a_set))


# -- structure ---------------------------------------------------------------


def ribbons(spec: Spec) -> dict[tuple, tuple[str, set[str]]]:
    """Ribbons from the definition, keyed by (h, i, j, head at h, head at j)
    with h < j, each mapped to its flavor and the nodes that may witness it.

    A ribbon is a collider tripath h *-> i <-* j, h != j, with no edge
    between h and j showing the same marks at h and j, where i or one of its
    descendants ends a line (straight) or lies on a directed cycle (cyclic).
    """
    d = spec.arrows
    line_ends = {n for a, op, b in spec.edges if op == "--" for n in (a, b)}
    on_cycle = {n for comp in nx.strongly_connected_components(d) if len(comp) > 1 for n in comp}
    marks = spec.marks
    heads_in: dict[str, list[tuple[str, bool]]] = {n: [] for n in spec.nodes}
    for u, v, hu, hv in marks:
        if hv:
            heads_in[v].append((u, hu))
    found = {}
    for i, incoming in heads_in.items():
        cands = {i} | nx.descendants(d, i)
        if cands & line_ends:
            flavor = ("straight", cands & line_ends)
        elif cands & on_cycle:
            flavor = ("cyclic", cands & on_cycle)
        else:
            continue
        for (h, hh), (j, hj) in itertools.combinations(sorted(incoming), 2):
            if h != j and (h, j, hh, hj) not in marks:
                found[(h, i, j, hh, hj)] = flavor
    return found


def anterior_spec(spec: Spec) -> Spec:
    """The anterior graph: arrowheads at endpoints of lines turned into tails
    until none is left. Edge order and multiplicity are kept."""
    edges = [[a, b, *OPS[op]] for a, op, b in spec.edges]
    changed = True
    while changed:
        ends = {n for a, b, ha, hb in edges if not ha and not hb for n in (a, b)}
        changed = False
        for e in edges:
            for side in (2, 3):
                if e[side] and e[side - 2] in ends:
                    e[side] = False
                    changed = True
    return Spec(spec.nodes, [edge(*e) for e in edges])


def edge(a: str, b: str, head_a: bool, head_b: bool) -> tuple[str, str, str]:
    """The (a, op, b) text form of an edge given its marks; arrows point right."""
    if head_a and not head_b:
        return b, "->", a
    return a, {(False, False): "--", (False, True): "->", (True, True): "<->"}[(head_a, head_b)], b


def classify(spec: Spec) -> dict[str, object]:
    """Subclass flags, as defined in the library's documentation."""
    ops = {op for _, op, _ in spec.edges}
    acyclic = nx.is_directed_acyclic_graph(spec.arrows)
    line_ends = {n for a, op, b in spec.edges if op == "--" for n in (a, b)}
    anterior = not any(v in line_ends for _, v, _, hv in spec.marks if hv)
    arc_ancestor = any(
        b in nx.ancestors(spec.arrows, a) or a in nx.ancestors(spec.arrows, b)
        for a, op, b in spec.edges
        if op == "<->"
    )
    ribbonless = not ribbons(spec)
    return {
        "loopless_mixed": True,
        "undirected": ops <= {"--"},
        "bidirected": ops <= {"<->"},
        "dag": ops <= {"->"} and acyclic,
        "acyclic_directed_mixed": ops <= {"->", "<->"} and acyclic,
        "ancestral": acyclic and not arc_ancestor and anterior,
        "ribbonless": ribbonless,
        "maximal": maximal(spec) if ribbonless else None,
    }


def maximal(spec: Spec) -> bool:
    """Definition: every non-adjacent pair is m-separated by some subset of
    the other nodes. Exponential; for small graphs."""
    for x, y in itertools.combinations(sorted(spec.nodes), 2):
        if spec.adjacent(x, y):
            continue
        rest = sorted(set(spec.nodes) - {x, y})
        if not any(
            separated(spec, [x], [y], c)
            for r in range(len(rest) + 1)
            for c in itertools.combinations(rest, r)
        ):
            return False
    return True


def separated(spec: Spec, a, b, c) -> bool:
    """Pick the cheapest sound reference for this graph's edge kinds."""
    ops = {op for _, op, _ in spec.edges}
    if ops <= {"<->"}:
        return bidirected_separated(spec, a, b, c)
    if ops <= {"--"}:
        return skeleton_separated(spec, a, b, c)
    if "--" not in ops and nx.is_directed_acyclic_graph(spec.arrows):
        return d_separated(spec, a, b, c)
    return path_separated(spec, a, b, c)


def check_path(spec: Spec, hops: list[tuple[str, str, bool, bool]], a, b, c) -> str | None:
    """Edge-by-edge check that a witness path m-connects A and B given C.

    ``hops`` lists (u, v, head at u, head at v) along the path."""
    if not hops:
        return "empty witness"
    nodes = [hops[0][0]] + [v for _, v, _, _ in hops]
    if len(set(nodes)) != len(nodes):
        return f"witness repeats a node: {nodes}"
    if nodes[0] not in a or nodes[-1] not in b:
        return f"witness {nodes[0]}..{nodes[-1]} does not join A and B"
    for k, hop in enumerate(hops):
        if hop not in spec.marks:
            return f"witness edge {hop} is not in the graph"
        if k and hops[k - 1][1] != hop[0]:
            return "witness edges do not chain"
    c = set(c)
    open_colliders = c | ancestors(spec, c)
    for (_, v, _, head_in), (_, _, head_out, _) in zip(hops, hops[1:]):
        if head_in and head_out:
            if v not in open_colliders:
                return f"closed collider {v} on witness"
        elif v in c:
            return f"conditioned non-collider {v} on witness"
    return None


def parse_path(text: str) -> list[tuple[str, str, bool, bool]]:
    """Read ``x -> y <-> z`` into hops (u, v, head at u, head at v)."""
    tokens = text.split()
    hops = []
    for k in range(1, len(tokens), 2):
        hu, hv = OPS[tokens[k]]
        hops.append((tokens[k - 1], tokens[k + 1], hu, hv))
    return hops


# -- independence models ------------------------------------------------------


def model(spec: Spec) -> frozenset[tuple[frozenset, frozenset, frozenset]]:
    """Every statement (A, B, C) of the separation model, built from singleton
    answers: A and B are separated given C exactly when every pair is."""
    nodes = sorted(spec.nodes)
    sep = functools.lru_cache(maxsize=None)(
        lambda x, y, c: separated(spec, [x], [y], c)
    )
    out = set()
    for slots in itertools.product(range(4), repeat=len(nodes)):
        a = frozenset(n for n, s in zip(nodes, slots) if s == 0)
        b = frozenset(n for n, s in zip(nodes, slots) if s == 1)
        c = frozenset(n for n, s in zip(nodes, slots) if s == 2)
        if a and b and all(sep(min(x, y), max(x, y), c) for x in a for y in b):
            out.add((a, b, c))
    return frozenset(out)


def parse_statement(text: str) -> tuple[frozenset, frozenset, frozenset]:
    """Read ``{a,b} _||_ {c} | {d}``."""
    left, rest = text.split(" _||_ ")
    mid, right = rest.split(" | ")

    def nodes(part: str) -> frozenset:
        inner = part.strip()[1:-1]
        return frozenset(n for n in inner.split(",") if n)

    return nodes(left), nodes(mid), nodes(right)
