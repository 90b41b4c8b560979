"""The structure scans against naive, label-level references.

The references are the plainest readings of the definitions and stay apart
from the library's scans on purpose:

- a ribbon scan that lists every inner node's sorted descendants and tests
  each one for a line end, then for a directed cycle;
- primitive inducing paths from the depth-first search with no pruning but
  the definition's: inner nodes that are colliders in an({x, y});
- a violation list that asks that search for a first path once for every
  non-adjacent pair;
- a ``maximalize`` that reruns that whole list after every edge it adds;
- subclass flags from edge kinds and ``graph.ancestors``;
- an(S) and de(S) by label from a closure over ``graph.edges`` alone, which
  the kept ancestor masks, the walk and the public ancestry methods must
  match on own and anterior forms, and a walk that keeps its targets must
  not.

The library must give the same ribbons (edges, flavour and witness), the same
inducing paths, the same violations with the same paths, the same completions
and refusals and the same flags on seeded corpora of 3-8 nodes with
multi-edges and directed cycles; its arc-component test must say "some path
with an inner node" exactly when the search finds one, and two planted faults
in that test must show. The maximality scan's candidate pairs must hold every
pair that test does not clear, and a planted fault must show there too.
``classify``'s edge-kind flags must match the set of edge kinds read from
every adjacency entry. Counting tests pin the cost: the ribbon scan takes
no ancestor walk and at most one fold, over the children, and none on a
graph with no line end and no directed cycle; a violation scan takes no
walk and at most one fold over the parents per form, and on the arc-hung
chain it runs the arc-component test at most once per node.
"""

import itertools
import random

import pytest

from lmgraphs import (
    CorpusSpec,
    Edge,
    EdgeKind,
    GraphError,
    Mark,
    RibbonFlavor,
    build_graph,
    classify,
    find_primitive_inducing_paths,
    find_ribbons,
    generate_corpus,
    is_maximal,
    maximality_violations,
    maximalize,
)
from lmgraphs import graph as graph_module
from lmgraphs import structure as structure_module
from lmgraphs.graph import CompiledGraph
from lmgraphs.separation import _admissible_paths
from lmgraphs.structure import _inducing_live


def reference_ribbons(graph):
    """(tripath nodes, edge keys, flavour, witness) of every ribbon, in the
    library's order: one per node triple and mark signature."""
    graph.require_loopless()
    line_ends = graph.line_endpoints()
    found = {}
    for inner in graph.node_list():
        incident = [e for e in graph.edges_at(inner) if e.head_at(inner)]
        if len(incident) < 2:
            continue
        candidates = [inner] + sorted(graph.descendants([inner]) - {inner})
        hit = next(
            (
                (flavor, v)
                for flavor, test in (
                    (RibbonFlavor.STRAIGHT, line_ends.__contains__),
                    (RibbonFlavor.CYCLIC, graph.on_directed_cycle),
                )
                for v in candidates
                if test(v)
            ),
            None,
        )
        if hit is None:
            continue
        for e1, e2 in itertools.combinations(incident, 2):
            h, j = e1.other(inner), e2.other(inner)
            if h == j:
                continue
            if h > j:
                e1, e2, h, j = e2, e1, j, h
            signature = (h, inner, j, e1.head_at(h), e2.head_at(j))
            if signature in found:
                continue
            if any(
                e.head_at(h) == e1.head_at(h) and e.head_at(j) == e2.head_at(j)
                for e in graph.edges_between(h, j)
            ):
                continue
            found[signature] = ((h, inner, j), (e1.key, e2.key), *hit)
    return [found[k] for k in sorted(found)]


def reference_violations(graph):
    """(x, y, path) for every non-adjacent pair joined by a primitive
    inducing path, pair by pair; refuses a graph with ribbons."""
    if reference_ribbons(graph):
        raise GraphError("maximality test requires a ribbonless graph")
    violations = []
    for x, y in itertools.combinations(graph.node_list(), 2):
        if graph.adjacent(x, y):
            continue
        path = next(reference_inducing_paths(graph, x, y), None)
        if path is not None:
            violations.append((x, y, path))
    return violations


def reference_inducing_paths(graph, x, y):
    """The depth-first search for primitive inducing paths, pruned only by
    the definition: an inner node must be a collider in an({x, y})."""
    compiled = graph.compiled
    allowed = graph.ancestors([x, y])
    labels = compiled.labels

    def passes(v, head_in, head_out):
        return head_in and head_out and labels[v] in allowed

    return _admissible_paths(compiled, compiled.index[x], compiled.index[y], passes)


CLASS_FLAGS = (
    "loopless_mixed", "undirected", "bidirected", "dag", "acyclic_directed_mixed",
    "ancestral", "ribbonless", "maximal",
)


def reference_classify(graph):
    """The eight subclass flags from edge kinds and label-level ancestry."""
    if any(e.is_loop() for e in graph.edges):
        return dict.fromkeys(CLASS_FLAGS[:-1], False) | {"maximal": None}
    kinds = {e.kind for e in graph.edges}
    cycle = any(graph.on_directed_cycle(v) for v in graph.nodes)
    line_ends = graph.line_endpoints()
    anterior = not any(e.head_at(v) for e in graph.edges for v in (e.a, e.b) if v in line_ends)
    arc_below = any(
        e.a in graph.ancestors([e.b]) or e.b in graph.ancestors([e.a])
        for e in graph.edges if e.kind is EdgeKind.ARC
    )
    ribbonless = not reference_ribbons(graph)
    return {
        "loopless_mixed": True,
        "undirected": kinds <= {EdgeKind.LINE},
        "bidirected": kinds <= {EdgeKind.ARC},
        "dag": kinds <= {EdgeKind.ARROW} and not cycle,
        "acyclic_directed_mixed": kinds <= {EdgeKind.ARROW, EdgeKind.ARC} and not cycle,
        "ancestral": not cycle and anterior and not arc_below,
        "ribbonless": ribbonless,
        "maximal": not reference_violations(graph) if ribbonless else None,
    }


def endpoint_identical_edge(path):
    x, y = path.first, path.last
    marks = [Mark.HEAD if path.arrowhead_at(v) else Mark.TAIL for v in (x, y)]
    return Edge(x, y, *marks)


def reference_maximalize(graph):
    """(completion, None) when the restarted scans end on a maximal
    ribbonless graph, else (None, step): the step (x, y, edge) whose edge gave
    the graph a ribbon, or None when the input already had one."""
    current, step = graph, None
    while True:
        if reference_ribbons(current):
            return None, step
        violations = reference_violations(current)
        if not violations:
            return current, None
        x, y, path = violations[0]
        step = (x, y, endpoint_identical_edge(path))
        current = current.with_edge(step[2])


def ribbon_facts(ribbons):
    return [
        (r.tripath.nodes, tuple(e.key for e in r.tripath.edges), r.flavor, r.witness)
        for r in ribbons
    ]


@pytest.fixture(scope="module")
def corpus():
    """1,800 graphs of 3-8 nodes: a dense third, mostly with ribbons, then a
    sparse third and an arrow-heavy third, mostly ribbonless. Arrows point
    either way, so directed cycles occur; ``p_multi`` makes parallel edges.
    Then 1,500 arc-heavy ribbonless graphs of 4-6 nodes, a few of whose
    completions gain a ribbon."""
    specs = [
        CorpusSpec(count=600, nodes=(3, 8), p_multi=0.2, seed=8108),
        CorpusSpec(count=600, nodes=(3, 8), p_line=0.06, p_arrow=0.22, p_arc=0.14, p_multi=0.2, seed=8109),
        CorpusSpec(count=600, nodes=(3, 8), p_line=0.05, p_arrow=0.35, p_arc=0.12, p_multi=0.2, seed=8110),
        CorpusSpec(
            count=1500, nodes=(4, 6), p_line=0.15, p_arrow=0.35, p_arc=0.35, p_multi=0.1,
            constraint="ribbonless", seed=7,
        ),
    ]
    return [g for spec in specs for g in generate_corpus(spec)]


def test_corpus_covers_the_cases(corpus):
    ribbonless = [g for g in corpus if not reference_ribbons(g)]
    assert len(corpus) >= 1500
    assert sum(bool(g.compiled.cyclic) for g in corpus) > 200
    assert sum(len(set(e.canonical() for e in g.edges)) < len(g.edges) for g in corpus) > 1000
    assert len(ribbonless) > 500
    assert sum(bool(reference_violations(g)) for g in ribbonless) > 50


def arc_clique(k, drop=False, double=False):
    """v_i <-> v_j for every i < j and a pendant line v_i -- z_i at each
    node: every v_i is a collider that ends a line, and every two of its
    senders are joined by an arc, so there is no ribbon. ``drop`` removes
    v0 <-> v1, giving a ribbon v0 <-> v_i <-> v1 at every other clique node;
    ``double`` adds an arrow v0 -> v1 beside that arc, whose tail at v0 no
    arc v0 <-> v_j matches."""
    v, z = [f"v{i}" for i in range(k)], [f"z{i}" for i in range(k)]
    arcs = [(v[i], "<->", v[j]) for i, j in itertools.combinations(range(k), 2) if not (drop and j == 1)]
    return build_graph(v + z, arcs + [(v[0], "->", v[1])] * double + [(a, "--", b) for a, b in zip(v, z)])


def test_ribbons_match_reference(corpus):
    """The seeded corpus, plus dense colliders: eight senders each."""
    dense = [arc_clique(8), arc_clique(8, drop=True), arc_clique(8, double=True)]
    assert [len(reference_ribbons(g)) for g in dense] == [0, 6, 6]
    for g in corpus + dense:
        assert ribbon_facts(find_ribbons(g)) == reference_ribbons(g), g


def test_violations_match_reference(corpus):
    for g in corpus:
        try:
            expected = reference_violations(g)
        except GraphError:
            with pytest.raises(GraphError, match="ribbonless"):
                maximality_violations(g)
            with pytest.raises(GraphError, match="ribbonless"):
                is_maximal(g)
            continue
        assert maximality_violations(g) == expected, g
        assert is_maximal(g) == (not expected)


def rows_kind_flags(graph):
    """The four edge-kind flags from the set of arrowhead counts over every
    adjacency entry (0 on a line, 1 on an arrow, 2 on an arc): the reading
    that ``classify``'s per-node tests replace."""
    compiled = graph.compiled
    kinds = {head_v + head_w for row in compiled.adjacency for _, head_v, head_w, _ in row}
    cycle = bool(compiled.cyclic)
    return {
        "undirected": kinds <= {0},
        "bidirected": kinds <= {2},
        "dag": kinds <= {1} and not cycle,
        "acyclic_directed_mixed": 0 not in kinds and not cycle,
    }


KIND_CASES = [
    # edges, then (undirected, bidirected, dag, acyclic_directed_mixed)
    pytest.param([], (True, True, True, True), id="edgeless"),
    pytest.param([("a", "--", "b"), ("b", "--", "c")], (True, False, False, False), id="lines"),
    pytest.param([("a", "->", "b"), ("b", "->", "c"), ("a", "->", "c")], (False, False, True, True), id="arrows"),
    pytest.param([("a", "<->", "b"), ("b", "<->", "c")], (False, True, False, True), id="arcs"),
    pytest.param([("a", "--", "b"), ("a", "->", "b")], (False, False, False, False), id="parallel line and arrow"),
    pytest.param([("a", "->", "b"), ("b", "->", "c"), ("c", "->", "a")], (False, False, False, False), id="directed cycle"),
]


@pytest.mark.parametrize("edges, expected", KIND_CASES)
def test_classify_kind_flags_on_edge_cases(edges, expected):
    g = build_graph(["a", "b", "c"], edges)
    flags = classify(g).as_dict()
    reference = rows_kind_flags(g)
    assert {k: flags[k] for k in reference} == reference == dict(zip(reference, expected))
    assert flags == reference_classify(g)


def test_classify_kind_flags_match_rows(corpus):
    for g in corpus:
        flags, reference = classify(g).as_dict(), rows_kind_flags(g)
        assert {k: flags[k] for k in reference} == reference, g


def test_classify_matches_reference(corpus):
    looped = build_graph(["a", "b", "c"], [("a", "->", "a"), ("a", "<->", "b"), ("b", "--", "c")])
    graphs, counts = corpus + [looped], dict.fromkeys(CLASS_FLAGS, 0)
    for g in graphs:
        flags = classify(g).as_dict()
        assert flags == reference_classify(g), g
        for name, value in flags.items():
            counts[name] += bool(value)
    # every flag is both set and clear somewhere
    assert all(0 < counts[name] < len(graphs) for name in CLASS_FLAGS), counts


def reference_ancestry(graph, starts, up=True):
    """an(starts), or de(starts) when not ``up``, by label, from
    ``graph.edges`` alone: the far ends of the arrows that point into (or
    out of) the starts, then into (or out of) those, until nothing is new.
    A start is in it only when some arrow route leads back to it."""
    found, frontier = set(), set(starts)
    while frontier:
        frontier = {
            e.source if up else e.target
            for e in graph.edges
            if e.kind is EdgeKind.ARROW and (e.target if up else e.source) in frontier
        } - found
        found |= frontier
    return found


def ancestry_forms(graphs):
    """(graph, form) for each graph's own compiled form and, on a graph that
    is not anterior, for its anterior form with the anterior graph."""
    for g in graphs:
        yield g, g.compiled
        if not g.is_anterior():
            yield g.anterior_graph(), g.compiled.anterior_form


def label_set(form, mask):
    return {v for k, v in enumerate(form.labels) if mask >> k & 1}


def test_ancestor_masks_match_ancestors(corpus):
    pairs = list(ancestry_forms(corpus))
    assert sum(bool(form.cyclic) for _, form in pairs) > 200
    for g, form in pairs:
        for v, mask in enumerate(form.ancestor_masks):
            assert label_set(form, mask) == reference_ancestry(g, [form.labels[v]]), (g, v)


def ancestry_mismatches(graphs, walk=CompiledGraph.ancestors):
    """(graph, targets) wherever ``walk`` on a compiled form, or
    ``MixedGraph.ancestors`` or ``descendants``, disagrees with the reference
    on 0-3 targets: no node, each node, and seeded sets of two and three."""
    rng = random.Random(2026)
    for g, form in ancestry_forms(graphs):
        nodes = g.node_list()
        for targets in [[], *([v] for v in nodes), *(rng.sample(nodes, k) for k in (2, 2, 3, 3))]:
            expected = reference_ancestry(g, targets)
            if (label_set(form, walk(form, (form.index[t] for t in targets))) != expected
                    or g.ancestors(targets) != expected
                    or g.descendants(targets) != reference_ancestry(g, targets, up=False)):
                yield g, targets


@pytest.fixture(scope="module")
def ancestry_corpus(corpus):
    """The unconstrained 1,800 of ``corpus`` and 600 draws with more arrows
    and more parallel copies."""
    graphs = corpus[:1800] + generate_corpus(CorpusSpec(
        count=600, nodes=(3, 8), p_line=0.15, p_arrow=0.45, p_arc=0.15, p_multi=0.3, seed=8111,
    ))
    pairs = list(ancestry_forms(graphs))
    assert sum(form is not g.compiled for g, form in pairs) > 1000
    assert sum(bool(form.cyclic) for _, form in pairs) > 300
    assert sum(len({e.canonical() for e in g.edges}) < len(g.edges) for g in graphs) > 1000
    return graphs


def test_ancestry_matches_reference(ancestry_corpus):
    assert next(ancestry_mismatches(ancestry_corpus), None) is None


def walk_with_targets(form, targets):
    """A planted fault: the walk with every target put in its result, on a
    directed cycle or not."""
    targets = list(targets)
    return CompiledGraph.ancestors(form, targets) | sum(1 << t for t in targets)


def test_planted_walk_fault_is_caught(ancestry_corpus):
    assert next(ancestry_mismatches(ancestry_corpus, walk_with_targets), None) is not None


def live_mismatches(graphs, live=_inducing_live):
    """(graph, x, y) wherever ``live`` disagrees with the reference search on
    whether some primitive inducing path from x to y has an inner node."""
    for g in graphs:
        compiled = g.compiled
        labels = compiled.labels
        for x, y in itertools.permutations(range(len(labels)), 2):
            expected = any(len(p.nodes) > 2 for p in reference_inducing_paths(g, labels[x], labels[y]))
            if bool(live(compiled, x, y)) != expected:
                yield g, labels[x], labels[y]


def test_inducing_live_matches_reference(corpus):
    assert next(live_mismatches(corpus), None) is None


class Shim:
    """A compiled form with some of its masks replaced."""

    def __init__(self, compiled, **masks):
        self.ancestor_masks, self.steps = compiled.ancestor_masks, compiled.steps
        self.__dict__.update(masks)


def flood_outside_ancestors(compiled, x, y):
    full = (1 << len(compiled.labels)) - 1
    return _inducing_live(Shim(compiled, ancestor_masks=[full] * len(compiled.labels)), x, y)


def only_x_arrowheads(compiled, x, y):
    steps = list(compiled.steps)
    arcs, head_tail, _, tail_tail = steps[y]
    steps[y] = (arcs, head_tail, (1 << len(compiled.labels)) - 1, tail_tail)
    return _inducing_live(Shim(compiled, steps=steps), x, y)


@pytest.mark.parametrize("planted", [flood_outside_ancestors, only_x_arrowheads])
def test_planted_live_fault_is_caught(corpus, planted):
    assert next(live_mismatches(corpus, planted), None) is not None


def candidate_misses(graphs, candidates=lambda compiled: compiled.inducing_candidates):
    """(graph, x, y) for every non-adjacent x < y that the arc-component test
    does not clear but ``candidates`` leaves out."""
    for g in graphs:
        compiled = g.compiled
        masks = candidates(compiled)
        for x, y in itertools.combinations(range(len(compiled.labels)), 2):
            if any(w == y for w, *_ in compiled.adjacency[x]) or not _inducing_live(compiled, x, y):
                continue
            if not masks[x] >> y & 1:
                yield g, compiled.labels[x], compiled.labels[y]


def arrowheads_into_arc_nodes_only(compiled):
    """The library's candidates with the arrowheads into nodes without an
    arc moved to the tail-tail masks of the step table, as if only the nodes
    with an arc had a component: x's arrows into such a node w leave
    ``steps[x][2]``, and w's parents leave ``steps[w][1]``."""
    arcless = sum(1 << w for w, step in enumerate(compiled.steps) if not step[0])
    steps = []
    for w, (arcs, head_tail, tail_head, tail_tail) in enumerate(compiled.steps):
        if arcless >> w & 1:
            head_tail, tail_tail = 0, tail_tail | head_tail
        steps.append((arcs, head_tail, tail_head & ~arcless, tail_tail | tail_head & arcless))
    shim = Shim(compiled, steps=tuple(steps), children=compiled.children)
    return CompiledGraph.inducing_candidates.func(shim)


def test_candidates_hold_every_live_pair(corpus):
    assert next(candidate_misses(corpus), None) is None
    candidates = sum(bin(mask).count("1") for g in corpus for mask in g.compiled.inducing_candidates)
    apart = sum(
        not any(w == y for w, *_ in g.compiled.adjacency[x])
        for g in corpus for x, y in itertools.combinations(range(len(g.nodes)), 2)
    )
    # about 3,800 candidates of about 19,000 non-adjacent pairs
    assert 2000 < candidates < apart / 3


def test_planted_candidate_fault_is_caught(corpus):
    assert next(candidate_misses(corpus, arrowheads_into_arc_nodes_only), None) is not None


def test_inducing_path_listings_match_reference(corpus):
    listed = 0
    for g in corpus:
        for x, y in itertools.permutations(g.node_list(), 2):
            paths = find_primitive_inducing_paths(g, x, y)
            assert paths == list(reference_inducing_paths(g, x, y)), (g, x, y)
            listed += len(paths)
    assert listed > 10000


def test_maximalize_matches_reference(corpus):
    completed = refused = 0
    for g in corpus:
        expected, step = reference_maximalize(g)
        if expected is not None:
            assert maximalize(g).edges == expected.edges, g
            completed += 1
            continue
        with pytest.raises(GraphError) as refusal:
            maximalize(g)
        message = str(refusal.value)
        if step is None:
            assert message == "maximalize requires a ribbonless graph"
        else:
            x, y, edge = step
            assert f"({x},{y})" in message and str(edge) in message, message
            refused += 1
    assert completed > 2000 and refused >= 5


def arc_hung_chain(k, line=False):
    """a_i -> a_(i+1) and a_i <-> b_i for i < k: ribbonless, no lines and no
    directed cycles, and every a_i but the first has two arrowheads. With
    ``line``, a final line a_(k-1) -- z puts a line end below every a_i."""
    a = [f"a{i:04d}" for i in range(k)]
    b = [f"b{i:04d}" for i in range(k)]
    edges = [(u, "->", v) for u, v in zip(a, a[1:])] + [(u, "<->", v) for u, v in zip(a, b)]
    return build_graph(a + b + ["z"] * line, edges + [(a[-1], "--", "z")] * line)


@pytest.fixture
def closures(monkeypatch):
    """Every ancestry computation made while the fixture is active:
    ("walk", form) for each ``CompiledGraph.ancestors`` call and ("fold",
    relation) for each fold, with the relation it folds over. The fold is
    patched in every module that binds it."""
    calls = []
    walk, fold = CompiledGraph.ancestors, graph_module._fold

    def walking(form, targets):
        calls.append(("walk", form))
        return walk(form, targets)

    def folding(components, parents, own):
        calls.append(("fold", parents))
        return fold(components, parents, own)

    monkeypatch.setattr(CompiledGraph, "ancestors", walking)
    monkeypatch.setattr(graph_module, "_fold", folding)
    monkeypatch.setattr(structure_module, "_fold", folding)
    return calls


@pytest.fixture
def inducing_calls(monkeypatch):
    """The pair of every arc-component test taken while the fixture is
    active."""
    pairs = []
    real = structure_module._inducing_live

    def counting(compiled, x, y):
        pairs.append((x, y))
        return real(compiled, x, y)

    monkeypatch.setattr(structure_module, "_inducing_live", counting)
    return pairs


def test_violation_scan_tests_at_most_one_pair_per_node(inducing_calls):
    """Only pairs that send into one arc component are tested: on the chain
    that is a_(i-1) with b_i, not all 318,801 non-adjacent pairs."""
    g = arc_hung_chain(400)
    assert maximality_violations(g) == []
    assert 0 < len(inducing_calls) <= len(g.nodes)


def test_ribbon_scan_takes_no_descendant_closure_without_lines_or_cycles(closures):
    g = arc_hung_chain(400)
    assert find_ribbons(g) == []
    assert closures == []


def test_ribbon_witnesses_take_no_descendant_closure(closures):
    """Every a_i with two arrowheads heads a straight ribbon; the witnesses
    come from one fold over the children, not from each inner node's
    descendants."""
    g = arc_hung_chain(400, line=True)
    ribbons = find_ribbons(g)
    assert closures == [("fold", g.compiled.children)]
    assert len(ribbons) == 399 and {r.witness for r in ribbons} == {"a0399"}
    small = arc_hung_chain(30, line=True)
    assert ribbon_facts(find_ribbons(small)) == reference_ribbons(small)


def test_violation_scan_takes_no_ancestor_closure(closures, corpus):
    """Pairs are tested on the masks kept per form, which come from one pass
    over the components, not from a walk per node."""
    graphs = [arc_hung_chain(30)] + [g for g in corpus[600:] if not reference_ribbons(g)][:50]
    for g in graphs:
        maximality_violations(g)
        assert not any(kind == "walk" for kind, _ in closures), g


def test_violation_scan_takes_one_ancestor_set_per_node(closures, corpus):
    graphs = [arc_hung_chain(30)] + [g for g in corpus[600:] if not reference_ribbons(g)][:50]
    for g in graphs:
        closures.clear()
        maximality_violations(g)
        assert not any(kind == "walk" for kind, _ in closures), g
        assert sum(relation is g.compiled.parents for _, relation in closures) <= 1, g
