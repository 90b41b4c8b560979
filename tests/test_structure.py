"""Ribbons, primitive inducing paths, maximality, and classification."""

import itertools
import re

import pytest

from lmgraphs import (
    GraphError,
    RibbonFlavor,
    build_graph,
    classify,
    endpoint_identical,
    find_primitive_inducing_paths,
    find_ribbons,
    is_maximal,
    is_ribbonless,
    make_path,
    markov_equivalent,
    maximality_violations,
    maximalize,
    oracle_is_maximal,
    oracle_m_separated,
    pairwise_separator,
)
from lmgraphs import structure
from lmgraphs.separation import _simple_paths


class TestRibbons:
    def test_fig4a_straight(self, figures):
        ribbons = find_ribbons(figures["fig4a"])
        assert len(ribbons) == 1
        r = ribbons[0]
        assert r.tripath.nodes == ("h", "i", "j")
        assert r.flavor is RibbonFlavor.STRAIGHT
        assert r.witness == "k"  # i -> k with the line k -- l at the bottom

    def test_fig4b_cyclic(self, figures):
        ribbons = find_ribbons(figures["fig4b"])
        assert len(ribbons) == 1
        r = ribbons[0]
        assert r.tripath.nodes == ("h", "i", "j")
        assert r.flavor is RibbonFlavor.CYCLIC
        assert r.witness == "i"

    def test_fig5a_has_ribbon(self, figures):
        assert not is_ribbonless(figures["fig5a"])
        (r,) = find_ribbons(figures["fig5a"])
        assert r.tripath.nodes == ("h", "i", "j") and r.flavor is RibbonFlavor.STRAIGHT

    def test_fig5b_line_blocks_ribbon(self, figures):
        assert find_ribbons(figures["fig5b"]) == []

    def test_fig6_ribbonless(self, figures):
        assert is_ribbonless(figures["fig6"])

    def test_undirected_graphs_trivially_ribbonless(self, figures):
        assert is_ribbonless(figures["fig9a"])
        g = build_graph(["a", "b", "c"], [("a", "--", "b"), ("b", "--", "c")])
        assert is_ribbonless(g)

    def test_rejects_loops(self):
        g = build_graph(["a"], [("a", "->", "a")])
        with pytest.raises(GraphError, match="loop"):
            find_ribbons(g)


class TestPrimitiveInducingPaths:
    def test_fig6_path_through_arc(self, figures):
        paths = find_primitive_inducing_paths(figures["fig6"], "i", "j")
        assert len(paths) == 1
        (p,) = paths
        assert p.nodes == ("i", "k", "j")
        assert str(p) == "i -> k <-> j"

    def test_any_edge_counts(self, figures):
        g = figures["fig7"]
        paths = find_primitive_inducing_paths(g, "l", "m")
        assert any(len(p.nodes) == 2 for p in paths)

    def test_fig7_i_m_has_none(self, figures):
        assert find_primitive_inducing_paths(figures["fig7"], "i", "m") == []

    def test_limit_short_circuits(self, figures):
        paths = find_primitive_inducing_paths(figures["fig6"], "i", "j", limit=1)
        assert len(paths) == 1

    def test_bad_arguments(self, figures):
        with pytest.raises(GraphError, match="differ"):
            find_primitive_inducing_paths(figures["fig6"], "i", "i")
        with pytest.raises(GraphError, match="unknown"):
            find_primitive_inducing_paths(figures["fig6"], "i", "zz")

    def test_limit_below_one_is_refused(self, figures):
        g = figures["fig7"]
        for limit in (0, -3):
            with pytest.raises(GraphError, match="limit"):
                find_primitive_inducing_paths(g, "l", "m", limit=limit)
        everything = find_primitive_inducing_paths(g, "l", "m", limit=None)
        assert everything == find_primitive_inducing_paths(g, "l", "m")
        assert find_primitive_inducing_paths(g, "l", "m", limit=len(everything) + 5) == everything

    def test_deep_chain_needs_no_recursion(self):
        # x <-> v0001 <-> ... <-> v1199 <-> y with v_k -> y: every inner node
        # is a collider in an({x, y}), so the whole chain is the first path.
        # A recursive search overflows the interpreter stack here.
        chain = ["x"] + [f"v{k:04d}" for k in range(1, 1200)] + ["y"]
        edges = [(u, "<->", v) for u, v in zip(chain, chain[1:])]
        edges += [(v, "->", "y") for v in chain[1:-1]]
        g = build_graph(chain, edges)
        (path,) = find_primitive_inducing_paths(g, "x", "y", limit=1)
        assert path.nodes == tuple(chain)
        assert len(path.nodes) == 1201

    def test_order_and_completeness_match_oracle(self, rg_corpus):
        """The pruned search lists exactly the oracle's simple paths whose
        inner nodes are colliders in an({x, y}), in the oracle's order."""
        checked = 0
        for g in rg_corpus:
            if len(g.nodes) > 7:
                continue
            for x, y in itertools.permutations(g.node_list(), 2):
                allowed = g.ancestors([x, y])
                expected = [
                    p
                    for p in _simple_paths(g, x, y)
                    if all(
                        p.is_collider_at(i) and p.nodes[i] in allowed
                        for i in range(1, len(p.nodes) - 1)
                    )
                ]
                assert find_primitive_inducing_paths(g, x, y) == expected, (g, x, y)
                checked += len(expected)
        assert checked > 1000


class TestMaximality:
    def test_fig6_not_maximal(self, figures):
        assert not is_maximal(figures["fig6"])
        ((x, y, path),) = maximality_violations(figures["fig6"])
        assert (x, y) == ("i", "j")
        assert path.nodes == ("i", "k", "j")

    def test_fig6_oracle_confirms_no_separator(self, figures):
        assert not oracle_is_maximal(figures["fig6"])

    def test_complete_graph_maximal(self):
        g = build_graph(
            ["a", "b", "c"],
            [("a", "->", "b"), ("b", "<->", "c"), ("a", "--", "c")],
        )
        assert is_maximal(g)

    def test_fig7_maximal(self, figures):
        assert is_maximal(figures["fig7"])
        assert oracle_is_maximal(figures["fig7"])

    def test_edgeless_two_nodes(self):
        g = build_graph(["a", "b"], [])
        assert oracle_is_maximal(g)
        assert is_maximal(g)

    def test_requires_ribbonless(self, figures):
        with pytest.raises(GraphError, match="ribbonless"):
            is_maximal(figures["fig4a"])

    def test_oracle_refuses_large_graphs(self):
        g = build_graph([f"n{k}" for k in range(9)], [])
        with pytest.raises(GraphError, match="oracle limit exceeded: 9 nodes > 8"):
            oracle_is_maximal(g)
        assert oracle_is_maximal(g, limit=9)

    def test_matches_oracle_on_corpus_sample(self, rg_corpus):
        for g in rg_corpus[:60]:
            assert is_maximal(g) == oracle_is_maximal(g)


class TestPairwiseSeparator:
    def test_fig7_examples(self, figures):
        g = figures["fig7"]
        assert pairwise_separator(g, "i", "m") == {"k", "l", "h"}
        assert pairwise_separator(g, "l", "p") == {"h", "m"}

    def test_isolated_pair(self):
        g = build_graph(["a", "b"], [])
        assert pairwise_separator(g, "a", "b") == set()

    def test_rejects_adjacent(self, figures):
        with pytest.raises(GraphError, match="adjacent"):
            pairwise_separator(figures["fig7"], "l", "m")

    def test_rejects_inducing_path(self, figures):
        with pytest.raises(GraphError, match="primitive inducing"):
            pairwise_separator(figures["fig6"], "i", "j")

    def test_rejects_ribbons(self, figures):
        # On fig4a the anterior sets of h and j give {i, k, l}, which does
        # not separate them: the guarantee holds only without ribbons.
        g = figures["fig4a"]
        assert not oracle_m_separated(g, ["h"], ["j"], ["i", "k", "l"])
        with pytest.raises(GraphError, match="pairwise separator requires a ribbonless graph"):
            pairwise_separator(g, "h", "j")

    def test_separates_on_ribbonless_corpus(self, rg_corpus):
        checked = 0
        for g in rg_corpus:
            for x, y in itertools.combinations(g.node_list(), 2):
                if g.adjacent(x, y):
                    continue
                try:
                    separator = pairwise_separator(g, x, y)
                except GraphError as refusal:
                    assert "primitive inducing" in str(refusal)
                    continue
                assert oracle_m_separated(g, [x], [y], separator), (g, x, y, separator)
                checked += 1
        assert checked > 500


class TestMaximalize:
    def test_fig6_adds_arrow(self, figures):
        g = figures["fig6"]
        completed = maximalize(g)
        added = set(completed.edges) - set(g.edges)
        assert len(completed.edges) == len(g.edges) + 1
        (new,) = {e.canonical() for e in completed.edges} - {
            e.canonical() for e in g.edges
        }
        assert new == ("i", "j", "tail", "head")  # the arrow i -> j
        assert is_maximal(completed)
        assert oracle_is_maximal(completed)
        assert markov_equivalent(g, completed)

    def test_already_maximal_unchanged(self, figures):
        assert maximalize(figures["fig7"]) == figures["fig7"]
        assert maximalize(figures["fig9a"]) == figures["fig9a"]

    def test_arc_signature(self):
        # inducing path i <-> k <-> j with k -> m -> j: both ends carry heads
        g = build_graph(
            ["i", "k", "j", "m"],
            [("i", "<->", "k"), ("k", "<->", "j"), ("k", "->", "m"), ("m", "->", "j")],
        )
        assert is_ribbonless(g)
        completed = maximalize(g)
        (new,) = {e.canonical() for e in completed.edges} - {
            e.canonical() for e in g.edges
        }
        assert new == ("i", "j", "head", "head")  # an arc
        assert is_maximal(completed)
        assert markov_equivalent(g, completed)

    def test_added_edge_is_endpoint_identical_to_witness(self, figures):
        g = figures["fig6"]
        ((_, _, witness),) = maximality_violations(g)
        completed = maximalize(g)
        (new,) = set(completed.edges) - set(g.edges)
        assert endpoint_identical(new, witness)

    def test_line_signature_forced_by_definition(self):
        # both ends tails: the endpoint-identical edge is a plain line
        g = build_graph(
            ["i", "k", "j"], [("i", "--", "k"), ("k", "--", "j"), ("i", "--", "j")]
        )
        path = make_path(g, ["i", "k", "j"])
        assert endpoint_identical(path, g.edges_between("i", "j")[0])

    def test_corpus_outputs_stay_equivalent(self, rg_corpus):
        for g in rg_corpus[:40]:
            completed = maximalize(g)
            assert is_ribbonless(completed)
            assert is_maximal(completed)
            assert markov_equivalent(g, completed)

    def test_rejects_ribbons(self, figures):
        with pytest.raises(GraphError, match="ribbonless"):
            maximalize(figures["fig5a"])

    def test_completion_keeps_its_ribbon_flag(self, figures, monkeypatch):
        """The graph returned was scanned for ribbons once on the way and
        keeps the answer, so ``classify`` does not scan it again."""
        scans = []
        real = structure.find_ribbons
        monkeypatch.setattr(structure, "find_ribbons", lambda g: scans.append(g) or real(g))
        completed = maximalize(figures["fig6"])
        assert sum(g is completed for g in scans) == 1
        scans.clear()
        flags = classify(completed)
        assert flags.ribbonless and flags.maximal
        assert scans == []

    def test_refuses_a_completion_that_gains_a_ribbon(self):
        # Ribbonless, but the first violation (b, e) is completed by the arc
        # b <-> e, endpoint-identical to b <-> a <-> e, and that arc makes
        # d <-> b <-> e a straight ribbon (b ends the line b -- c).
        g = build_graph(
            ["a", "b", "c", "d", "e"],
            [("a", "<->", "b"), ("c", "->", "a"), ("a", "<->", "d"), ("a", "->", "e"),
             ("a", "<->", "e"), ("b", "--", "c"), ("b", "->", "c"), ("b", "<->", "d")],
        )
        assert is_ribbonless(g)
        x, y, path = maximality_violations(g)[0]
        assert (x, y, str(path)) == ("b", "e", "b <-> a <-> e")
        message = "adding b <-> e for the pair (b,e) creates the ribbon d <-> b <-> e"
        with pytest.raises(GraphError, match=re.escape(message)):
            maximalize(g)


class TestClassify:
    def test_fig9_triptych(self, figures):
        a = classify(figures["fig9a"])
        assert a.undirected and a.ancestral and a.ribbonless and a.maximal
        assert not a.bidirected and not a.dag

        b = classify(figures["fig9b"])
        assert b.bidirected and b.ancestral and b.ribbonless and b.maximal
        assert b.acyclic_directed_mixed  # arcs only, no directed cycle
        assert not b.undirected and not b.dag

        c = classify(figures["fig9c"])
        assert c.dag and c.acyclic_directed_mixed and c.ancestral and c.ribbonless

    def test_fig6_flags(self, figures):
        flags = classify(figures["fig6"])
        assert flags.ribbonless and flags.maximal is False
        assert not flags.ancestral  # k is an ancestor of its arc-neighbour j

    def test_fig4b_cycle_flags(self, figures):
        flags = classify(figures["fig4b"])
        assert flags.loopless_mixed
        assert not flags.dag and not flags.acyclic_directed_mixed
        assert not flags.ribbonless and flags.maximal is None

    def test_loops_disable_everything(self):
        g = build_graph(["a", "b"], [("a", "->", "a"), ("a", "--", "b")])
        flags = classify(g)
        assert not flags.loopless_mixed and flags.maximal is None

    def test_empty_graph(self):
        flags = classify(build_graph(["a", "b"]))
        assert flags.undirected and flags.bidirected and flags.dag

    def test_hierarchy_implications(self, figures, lmg_corpus):
        for g in list(figures.values()) + lmg_corpus[:150]:
            f = classify(g)
            if not f.loopless_mixed:
                continue
            if f.dag:
                assert f.acyclic_directed_mixed and f.ancestral
            if f.undirected or f.bidirected:
                assert f.ancestral
            if f.ancestral or f.acyclic_directed_mixed:
                assert f.ribbonless
            if f.ribbonless:
                assert f.maximal is not None


class TestStructureLemmas:
    def test_collider_lost_in_anterior_graph_has_shortcut(self, rg_corpus):
        """A collider tripath of a ribbonless graph that turns non-collider in
        the anterior graph always has an endpoint-identical shortcut edge."""
        checked = 0
        for g in rg_corpus[:120]:
            star = g.anterior_graph()
            for v in g.node_list():
                heads = [e for e in g.edges_at(v) if e.head_at(v)]
                for e1, e2 in itertools.combinations(heads, 2):
                    h, k = e1.other(v), e2.other(v)
                    if h == k:
                        continue
                    s1, s2 = star.edges[e1.key], star.edges[e2.key]
                    if s1.head_at(v) and s2.head_at(v):
                        continue  # still a collider
                    checked += 1
                    assert any(
                        e.head_at(h) == e1.head_at(h) and e.head_at(k) == e2.head_at(k)
                        for e in g.edges_between(h, k)
                    )
        assert checked > 0

    def test_maximality_survives_anterior_rewrite(self, maximal_rg_corpus):
        for g in maximal_rg_corpus:
            star = g.anterior_graph()
            assert oracle_is_maximal(star)
            if is_ribbonless(star):
                assert is_maximal(star)

    def test_non_collider_inner_nodes_are_anterior(self, rg_corpus):
        """On a ribbonless graph, every non-collider inner node of a path is
        anterior to an endpoint or to some collider on the path."""
        checked = 0
        for g in rg_corpus[:80]:
            ant = {v: g.anteriors(v) for v in g.nodes}
            nodes = g.node_list()
            for x, y in itertools.combinations(nodes, 2):
                for path in itertools.islice(_simple_paths(g, x, y), 40):
                    inner = range(1, len(path.nodes) - 1)
                    colliders = [
                        path.nodes[i] for i in inner if path.is_collider_at(i)
                    ]
                    for i in inner:
                        k = path.nodes[i]
                        if path.is_collider_at(i):
                            continue
                        checked += 1
                        ok = (
                            k in ant[x]
                            or k in ant[y]
                            or any(k in ant[h] for h in colliders)
                        )
                        assert ok, f"{k} on {path} in {g}"
        assert checked > 100
