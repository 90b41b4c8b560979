"""Core graph structure: construction, ancestry, anterior machinery, paths."""

import random

import pytest
from hypothesis import given, settings

from lmgraphs import (
    Edge,
    EdgeKind,
    GraphError,
    Mark,
    MixedGraph,
    Path,
    TripathClass,
    build_graph,
    classify_tripath,
    combine_paths,
    endpoint_identical,
    m_separated,
    make_path,
)
from lmgraphs.graph import CompiledGraph
from conftest import figure
from strategies import lmgs


class TestBuildGraph:
    def test_two_node_arrow(self):
        g = build_graph(["i", "j"], [("i", "->", "j")])
        assert len(g.nodes) == 2 and len(g.edges) == 1
        assert g.edges[0].source == "i" and g.edges[0].target == "j"

    def test_loop_constructs_but_flags(self):
        g = build_graph(["i"], [("i", "->", "i")])
        assert not g.is_loopless()

    def test_fig6_keeps_double_edge(self, figures):
        g = build_graph(
            ["i", "k", "j"], [("i", "->", "k"), ("k", "<->", "j"), ("k", "->", "j")]
        )
        assert len(g.edges_between("k", "j")) == 2
        assert g == figures["fig6"]

    def test_edges_at_follows_neighbour_then_form_then_key(self):
        g = build_graph(
            ["a", "b", "c"],
            [("c", "->", "a"), ("a", "--", "b"), ("a", "<->", "b"), ("a", "--", "b")],
        )
        assert [e.key for e in g.edges_at("a")] == [2, 1, 3, 0]
        assert [e.key for e in g.edges_between("b", "a")] == [2, 1, 3]

    def test_repr_lists_the_edges(self, figures):
        assert repr(figures["fig6"]) == "MixedGraph(3 nodes, 3 edges: i -> k; j <-> k; j <- k)"
        assert repr(build_graph(["i"])) == "MixedGraph(1 nodes, 0 edges: )"

    def test_unknown_endpoint(self):
        with pytest.raises(GraphError, match="unknown endpoint"):
            build_graph(["i"], [("i", "->", "j")])

    def test_duplicate_node(self):
        with pytest.raises(GraphError, match="duplicate node"):
            build_graph(["i", "i"])

    def test_reversed_arrow_spec(self):
        g = build_graph(["i", "j"], [("j", "<-", "i")])
        assert g == build_graph(["i", "j"], [("i", "->", "j")])


class TestLooplessAndSimplify:
    def test_fig6_loopless(self, figures):
        assert figures["fig6"].is_loopless()

    def test_empty_graph_loopless(self):
        assert build_graph([]).is_loopless()

    def test_simplify_collapses_same_kind(self):
        g = build_graph(["i", "j"], [("i", "<->", "j"), ("i", "<->", "j")])
        assert g.simplify() == build_graph(["i", "j"], [("i", "<->", "j")])

    def test_simplify_keeps_different_kinds(self):
        g = build_graph(["i", "j"], [("i", "->", "j"), ("i", "<->", "j")])
        assert g.simplify() == g

    def test_simplify_idempotent(self, figures):
        for g in figures.values():
            assert g.simplify().simplify() == g.simplify()

    def test_simplify_preserves_arrow_direction(self):
        g = build_graph(["i", "j"], [("i", "->", "j"), ("j", "->", "i")])
        assert len(g.simplify().edges) == 2


class TestNeighborhoods:
    def test_fig3_parents(self, figures):
        assert figures["fig3"].parents("h") == {"i", "j"}
        assert figures["fig3"].children("h") == {"k"}

    def test_isolated_node(self):
        g = build_graph(["i", "j"], [])
        assert g.parents("i") == set()
        assert g.neighbors("i") == set()

    def test_arcs_have_no_parent_semantics(self):
        g = build_graph(["i", "j"], [("i", "<->", "j")])
        assert g.parents("j") == set()
        assert g.neighbors("j") == {"i"}

    def test_neighbors_filtered_by_kind(self):
        from lmgraphs import EdgeKind

        g = build_graph(
            ["a", "b", "c", "d"],
            [("a", "--", "b"), ("a", "<->", "c"), ("d", "->", "a")],
        )
        assert g.neighbors("a", EdgeKind.LINE) == {"b"}
        assert g.neighbors("a", EdgeKind.ARC) == {"c"}
        assert g.neighbors("a", EdgeKind.ARROW) == {"d"}
        assert g.neighbors("a") == {"b", "c", "d"}

    def test_unknown_node(self, figures):
        with pytest.raises(GraphError, match="unknown node"):
            figures["fig3"].parents("zz")


class TestAncestors:
    def test_fig3_h_is_ancestor_of_l(self, figures):
        assert "h" in figures["fig3"].ancestors(["l"])

    def test_chain(self):
        g = build_graph(["i", "j", "k"], [("i", "->", "j"), ("j", "->", "k")])
        assert g.ancestors(["k"]) == {"i", "j"}
        assert g.descendants(["i"]) == {"j", "k"}

    def test_two_cycle_includes_self(self):
        g = build_graph(["i", "j"], [("i", "->", "j"), ("j", "->", "i")])
        assert g.ancestors(["i"]) == {"i", "j"}
        assert g.on_directed_cycle("i")

    def test_no_cycle_excludes_self(self, figures):
        assert "l" not in figures["fig3"].ancestors(["l"])
        assert not figures["fig3"].on_directed_cycle("l")

    def test_lines_and_arcs_do_not_count(self):
        g = build_graph(["i", "j", "k"], [("i", "--", "j"), ("j", "<->", "k")])
        assert g.ancestors(["k"]) == set()

    def test_empty_graph(self):
        g = build_graph([])
        assert g.ancestors([]) == g.descendants([]) == set()
        assert g.compiled.ancestors([]) == 0


class TestAnteriorGraph:
    def test_fig2a_to_fig2b(self, figures):
        assert figures["fig2a"].anterior_graph() == figures["fig2b"]

    def test_no_lines_unchanged(self, figures):
        assert figures["fig3"].anterior_graph() == figures["fig3"]
        assert figures["fig9b"].anterior_graph() == figures["fig9b"]

    def test_ancestral_graph_with_lines_unchanged(self, figures):
        # no arrowhead meets a line here, so there is nothing to rewrite
        assert figures["fig9a"].anterior_graph() == figures["fig9a"]
        assert figures["fig9a"].is_anterior()

    def test_ancestral_graph_is_fixpoint(self, figures):
        # fig7 has lines, but no arrowhead meets a line endpoint after one
        # rewrite; its own anterior graph is then stable.
        g = figures["fig7"].anterior_graph()
        assert g.anterior_graph() == g

    def test_idempotent(self, figures):
        for g in figures.values():
            star = g.anterior_graph()
            assert star.anterior_graph() == star

    def test_order_independent(self, figures):
        for g in figures.values():
            expected = g.anterior_graph()
            for seed in range(10):
                assert random_order_anterior_graph(g, random.Random(seed)) == expected

    def test_rejects_loops(self):
        g = build_graph(["i", "j"], [("i", "->", "i"), ("i", "--", "j")])
        with pytest.raises(GraphError, match="loop"):
            g.anterior_graph()

    def test_order_independent_on_corpus(self, lmg_corpus):
        for k, g in enumerate(lmg_corpus):
            expected = g.anterior_graph()
            assert expected == naive_anterior_graph(g)
            assert random_order_anterior_graph(g, random.Random(k)) == expected

    def test_built_once_per_graph(self, figures):
        for g in figures.values():
            assert g.anterior_graph() is g.anterior_graph()

    def test_rewrite_runs_once_per_graph(self, monkeypatch):
        # A query reads the compiled anterior form, anterior_graph() builds
        # the anterior graph: both read one kept set of fig2a's nodes that
        # lose their arrowheads.
        calls = []
        kept = CompiledGraph.__dict__["anterior_line_ends"]
        monkeypatch.setattr(kept, "func", lambda self, compute=kept.func: calls.append(self) or compute(self))
        g = figure("fig2a")
        assert not g.is_anterior() and g.ribbonless
        m_separated(g, ["i"], ["k"], [])
        assert g.anterior_graph() == figure("fig2b")
        g.anteriors("i")
        assert calls == [g.compiled]

    def test_anterior_graph_is_its_own(self, figures, lmg_corpus):
        for g in [*figures.values(), *lmg_corpus]:
            star = g.anterior_graph()
            assert star.is_anterior()
            assert star.anterior_graph() is star

    def test_derived_form_matches_compiled_anterior_graph(self, figures, lmg_corpus):
        """The anterior form derived from a graph's rows has the flags and
        facts of the compiled anterior graph, and the graph's row order."""
        changed = 0
        for g in [*figures.values(), *lmg_corpus]:
            form, star = g.compiled.anterior_form, g.anterior_graph().compiled
            assert form.anterior and form.labels == star.labels and form.index == star.index
            changed += form is not g.compiled
            for v, row in enumerate(form.adjacency):
                assert [e.key for *_, e in row] == [e.key for *_, e in g.compiled.adjacency[v]]
                flags = sorted((w, head_v, head_w, e.key) for w, head_v, head_w, e in row)
                assert flags == sorted((w, head_v, head_w, e.key) for w, head_v, head_w, e in star.adjacency[v])
                for facts in ("parents", "children", "lines"):
                    assert sorted(getattr(form, facts)[v]) == sorted(getattr(star, facts)[v]), (g, facts)
        assert changed > 100

    def test_long_arrow_chain(self):
        n = 1600
        names = [f"a{k:04d}" for k in range(n)]
        edges = [(names[k], "->", names[k + 1]) for k in range(n - 1)]
        g = build_graph(names + ["z"], edges + [(names[-1], "--", "z")])
        star = g.anterior_graph()
        assert [e.key for e in star.edges] == [e.key for e in g.edges]
        assert all(e.mark_a is Mark.TAIL and e.mark_b is Mark.TAIL for e in star.edges)
        assert g.anteriors("z") == set(names)


class TestAnteriors:
    def test_fig2_anterior_sets(self, figures):
        assert figures["fig2a"].anteriors("i") == {"l", "h", "j", "p"}
        assert figures["fig2a"].anteriors("p") == {"l", "h", "j"}

    def test_isolated(self):
        g = build_graph(["i", "j"], [])
        assert g.anteriors("i") == set()

    def test_never_contains_self(self, figures):
        for g in figures.values():
            for v in g.nodes:
                assert v not in g.anteriors(v)

    @settings(max_examples=60, deadline=None)
    @given(lmgs())
    def test_ancestors_subset_of_anteriors(self, g):
        for v in g.nodes:
            assert g.ancestors([v]) - {v} <= g.anteriors(v)

    @settings(max_examples=60, deadline=None)
    @given(lmgs())
    def test_anterior_transitivity(self, g):
        ant = {v: g.anteriors(v) for v in g.nodes}
        for k in g.nodes:
            for j in ant[k]:
                for i in ant[j]:
                    assert i in ant[k] or i == k

    @settings(max_examples=60, deadline=None)
    @given(lmgs())
    def test_line_endpoint_lemma(self, g):
        # anterior-but-not-ancestor forces a line at the node or below it
        line_ends = g.line_endpoints()
        for j in g.nodes:
            an_j = g.ancestors([j])
            for i in g.anteriors(j) - an_j:
                reach = {i} | g.descendants([i])
                assert reach & line_ends


def naive_anterior_graph(g):
    """The anterior graph by its definition: drop every arrowhead at an end
    of a line, recomputing the line ends, until none is left."""
    edges = list(g.edges)
    while True:
        ends = {v for e in edges if e.kind is EdgeKind.LINE for v in (e.a, e.b)}
        rewritten = [
            Edge(e.a, e.b,
                 Mark.TAIL if e.a in ends else e.mark_a,
                 Mark.TAIL if e.b in ends else e.mark_b, e.key)
            for e in edges
        ]
        if rewritten == edges:
            return MixedGraph(g.node_list(), edges)
        edges = rewritten


def random_order_anterior_graph(g, rng):
    """The anterior graph by removing one arrowhead at an end of a line at a
    time, picked at random, recomputing the line ends, until none is left."""
    edges = list(g.edges)
    while True:
        ends = {v for e in edges if e.kind is EdgeKind.LINE for v in (e.a, e.b)}
        eligible = [
            (k, side)
            for k, e in enumerate(edges)
            for side, (v, mark) in enumerate(((e.a, e.mark_a), (e.b, e.mark_b)))
            if mark is Mark.HEAD and v in ends
        ]
        if not eligible:
            return MixedGraph(g.node_list(), edges)
        k, side = rng.choice(eligible)
        e = edges[k]
        marks = [e.mark_a, e.mark_b]
        marks[side] = Mark.TAIL
        edges[k] = Edge(e.a, e.b, *marks, e.key)


class TestCompiledFacts:
    """The compiled form's line lists, flags and cycle set against scans of
    the edges."""

    LOOPS = [
        build_graph(["i", "j"], [("i", "->", "i"), ("i", "--", "j")]),
        build_graph(["i", "j"], [("j", "--", "j"), ("i", "->", "j")]),
        build_graph(["i", "j"], [("i", "<->", "i"), ("i", "->", "j"), ("j", "->", "i")]),
    ]

    def test_line_ends_and_flags(self, lmg_corpus):
        for g in [*lmg_corpus, *self.LOOPS]:
            ends = {v for e in g.edges if e.kind is EdgeKind.LINE for v in (e.a, e.b)}
            assert g.line_endpoints() == ends
            assert g.is_anterior() == (not any(
                (e.mark_a is Mark.HEAD and e.a in ends) or (e.mark_b is Mark.HEAD and e.b in ends)
                for e in g.edges
            ))
            assert g.is_loopless() == (not any(e.is_loop() for e in g.edges))

    def test_on_directed_cycle_matches_ancestors(self, lmg_corpus):
        for g in [*lmg_corpus, *self.LOOPS]:
            for v in g.nodes:
                assert g.on_directed_cycle(v) == (v in g.ancestors([v]))

    def test_components_in_topological_order(self, lmg_corpus):
        for g in [*lmg_corpus, *self.LOOPS]:
            compiled = g.compiled
            position = {v: k for k, component in enumerate(compiled.components) for v in component}
            assert sorted(position) == list(range(len(g.nodes)))
            for v, children in enumerate(compiled.children):
                assert all(position[v] <= position[w] for w in children)
            for component in (c for c in compiled.components if len(c) > 1):
                first = [compiled.labels[component[0]]]
                cycle = g.descendants(first) & g.ancestors(first)
                assert {compiled.labels[v] for v in component} <= cycle

    def test_loop_message_names_the_loop(self):
        for g, at in zip(self.LOOPS, "iji"):
            with pytest.raises(GraphError, match=f"loop at '{at}'"):
                g.require_loopless()


class TestPaths:
    def test_combine_disjoint_interiors_concatenates(self, figures):
        g = figures["fig3"]
        p1 = make_path(g, ["i", "h"])
        p2 = make_path(g, ["h", "k", "p"])
        assert combine_paths(p1, p2).nodes == ("i", "h", "k", "p")

    def test_combine_cuts_at_first_shared_node(self):
        g = build_graph(
            ["i", "a", "h", "j"],
            [("i", "->", "a"), ("a", "->", "h"), ("h", "<->", "a"), ("a", "--", "j")],
        )
        p1 = make_path(g, ["i", "a", "h"], picks=[None, g.edges[1]])
        p2 = make_path(g, ["h", "a", "j"], picks=[g.edges[2], None])
        combined = combine_paths(p1, p2)
        assert combined.nodes == ("i", "a", "j")

    def test_combine_two_node_paths_exhaustively(self):
        # Hand oracle over every pair of 2-node paths sharing the junction:
        # either the far endpoints differ (plain concatenation) or they
        # coincide (degenerate single-node result).
        g = build_graph(
            ["x", "y", "z"], [("x", "->", "y"), ("y", "--", "z"), ("x", "<->", "y")]
        )
        e_xy, e_yz, e_xy2 = g.edges
        for first in (e_xy, e_xy2):
            p1 = make_path(g, ["x", "y"], picks=[first])
            concat = combine_paths(p1, make_path(g, ["y", "z"]))
            assert concat.nodes == ("x", "y", "z")
            for back in (e_xy, e_xy2):
                degenerate = combine_paths(p1, make_path(g, ["y", "x"], picks=[back]))
                assert degenerate.nodes == ("x",)
                assert degenerate.is_degenerate()

    def test_combine_endpoint_mismatch(self, figures):
        g = figures["fig3"]
        with pytest.raises(GraphError, match="combine"):
            combine_paths(make_path(g, ["i", "h"]), make_path(g, ["k", "p"]))

    def test_tripath_classification(self):
        g = build_graph(
            ["i", "t", "j"],
            [("i", "->", "t"), ("j", "->", "t"), ("i", "<->", "t"), ("t", "->", "j")],
        )
        collider = make_path(g, ["i", "t", "j"], picks=[g.edges[0], g.edges[1]])
        assert classify_tripath(g, collider) is TripathClass.COLLIDER
        arc_side = make_path(g, ["i", "t", "j"], picks=[g.edges[2], g.edges[1]])
        assert classify_tripath(g, arc_side) is TripathClass.COLLIDER
        through = make_path(g, ["i", "t", "j"], picks=[g.edges[0], g.edges[3]])
        assert classify_tripath(g, through) is TripathClass.NON_COLLIDER

    def test_classify_rejects_non_tripath(self, figures):
        g = figures["fig3"]
        with pytest.raises(GraphError, match="three nodes"):
            classify_tripath(g, make_path(g, ["i", "h"]))

    def test_path_rendering(self, figures):
        g = figures["fig3"]
        assert str(make_path(g, ["i", "h", "k"])) == "i -> h -> k"
        assert str(make_path(g, ["k", "h", "j"])) == "k <- h <- j"


# i -> h <-> j, two lines j -- k; and a graph whose arc i <-> h is no edge of it.
REFUSAL_GRAPH = build_graph(["i", "h", "j", "k"], [("i", "->", "h"), ("h", "<->", "j"), ("j", "--", "k"), ("j", "--", "k")])
FOREIGN_GRAPH = build_graph(["i", "h", "x"], [("i", "<->", "h"), ("h", "->", "x")])
ARROW, ARC, LINE, _ = REFUSAL_GRAPH.edges


@pytest.mark.parametrize("call, message", [
    (lambda: LINE.source, "is not an arrow"),
    (lambda: ARC.target, "is not an arrow"),
    (lambda: ARROW.other("j"), "'j' is not an endpoint of h <- i"),
    (lambda: ARROW.mark_at("j"), "'j' is not an endpoint of h <- i"),
    (lambda: build_graph(["i"], [("i", "=>", "i")]), "unknown edge operator '=>'"),
    (lambda: MixedGraph(["i", ""]), "empty node label"),
    (lambda: Path((), ()), "at least one node"),
    (lambda: Path(("i", "h"), ()), "do not alternate"),
    (lambda: Path(("i", "h", "i"), (ARROW, ARROW)), "repeated node"),
    (lambda: Path(("i", "h", "j"), (ARROW, ARROW)), "repeated edge"),
    (lambda: Path(("i", "j"), (ARROW,)), "does not join 'i' and 'j'"),
    (lambda: make_path(REFUSAL_GRAPH, ["i"]).arrowhead_at("i"), "no incident edges"),
    (lambda: make_path(REFUSAL_GRAPH, ["i", "h"]).arrowhead_at("j"), "'j' is not an endpoint of this path"),
    (lambda: make_path(REFUSAL_GRAPH, ["i", "h"]).is_collider_at(0), "index 0 is not an inner position"),
    (lambda: make_path(REFUSAL_GRAPH, ["i", "h"], picks=[LINE]), "does not join 'i' and 'h'"),
    (lambda: make_path(REFUSAL_GRAPH, ["i", "j"]), "no edge between 'i' and 'j'"),
    (lambda: make_path(REFUSAL_GRAPH, ["j", "k"]), "ambiguous edge between 'j' and 'k'"),
    (lambda: classify_tripath(REFUSAL_GRAPH, make_path(FOREIGN_GRAPH, ["i", "h", "x"])), "not a path of this graph"),
])
def test_graph_refusals(call, message):
    with pytest.raises(GraphError, match=message):
        call()


def test_degenerate_path_and_picked_parallel_edge():
    assert str(make_path(REFUSAL_GRAPH, ["k"])) == "k"
    picked = make_path(REFUSAL_GRAPH, ["k", "j"], picks=[REFUSAL_GRAPH.edges[3]])
    assert picked.edges == (REFUSAL_GRAPH.edges[3],) and str(picked) == "k -- j"


class TestEndpointIdentical:
    def test_arrow_vs_line_arc_path(self):
        g = build_graph(
            ["i", "j", "k"],
            [("i", "->", "j"), ("i", "--", "k"), ("k", "<->", "j")],
        )
        arrow = g.edges[0]
        other = make_path(g, ["i", "k", "j"])
        assert endpoint_identical(arrow, other)

    def test_longer_example(self):
        g = build_graph(
            ["i", "j", "k", "l"],
            [("i", "->", "j"), ("i", "->", "k"), ("l", "->", "k"), ("l", "<->", "j")],
        )
        long_path = make_path(g, ["i", "k", "l", "j"])
        assert endpoint_identical(long_path, g.edges[0])

    def test_opposite_arrows_differ(self):
        g = build_graph(["i", "j"], [("i", "->", "j"), ("j", "->", "i")])
        assert not endpoint_identical(g.edges[0], g.edges[1])

    def test_requires_shared_endpoints(self, figures):
        g = figures["fig3"]
        with pytest.raises(GraphError, match="endpoint sets differ"):
            endpoint_identical(make_path(g, ["i", "h"]), make_path(g, ["h", "k"]))
