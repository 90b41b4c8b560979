"""Independence models: axioms, closures, Markov properties, equivalence."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmgraphs import (
    Axiom,
    COMPOSITIONAL_GRAPHOID,
    COMPOSITIONAL_SEMI_GRAPHOID,
    GRAPHOID,
    GraphError,
    IndependenceModel,
    IndependenceStatement,
    SEMI_GRAPHOID,
    build_graph,
    check_axiom,
    check_axioms,
    closure,
    conforms,
    enumerate_model,
    format_statement,
    marginal_model,
    markov_equivalent,
    pairwise_model,
    parse_statement,
    satisfies_global,
    satisfies_pairwise,
)

S = IndependenceStatement.of


@st.composite
def models(draw, nodes=("a", "b", "c", "d")):
    """Random raw models over a fixed small ground set."""
    stmts = []
    n_stmts = draw(st.integers(0, 8))
    for _ in range(n_stmts):
        assignment = draw(
            st.lists(st.integers(0, 3), min_size=len(nodes), max_size=len(nodes))
        )
        a = frozenset(n for n, s in zip(nodes, assignment) if s == 0)
        b = frozenset(n for n, s in zip(nodes, assignment) if s == 1)
        c = frozenset(n for n, s in zip(nodes, assignment) if s == 2)
        if a and b:
            stmts.append(IndependenceStatement(a, b, c))
    return IndependenceModel(nodes, stmts)


class TestStatements:
    def test_disjointness_enforced(self):
        with pytest.raises(GraphError, match="disjoint"):
            S(["i"], ["i"], [])
        with pytest.raises(GraphError, match="disjoint"):
            S(["i"], ["j"], ["i"])

    def test_empty_sides_never_stored(self):
        with pytest.raises(GraphError, match="empty side"):
            S([], ["j"], [])

    def test_format(self):
        assert format_statement(S(["k", "i"], ["j"], [])) == "{i,k} _||_ {j} | {}"
        assert format_statement(S(["i"], ["j"], ["l"])) == "{i} _||_ {j} | {l}"

    def test_parse_round_trip(self):
        for s in (S(["i", "k"], ["j"], []), S(["a"], ["b", "c"], ["d"])):
            assert parse_statement(format_statement(s)) == s

    def test_parse_bare_labels(self):
        assert parse_statement("i _||_ {k,l} | {}") == S(["i"], ["k", "l"], [])

    def test_parse_errors(self):
        with pytest.raises(GraphError, match="_\\|\\|_"):
            parse_statement("i independent of j")
        with pytest.raises(GraphError, match="\\| C"):
            parse_statement("i _||_ j")


class TestModelBasics:
    def test_implicit_empty_sides(self):
        m = IndependenceModel("ij", [])
        assert m.contains([], ["i"], [])
        assert m.contains(["i"], [], ["j"])
        assert not m.contains(["i"], ["j"], [])

    def test_raw_models_keep_orientation(self):
        m = IndependenceModel("ij", [S(["i"], ["j"], [])])
        assert m.contains(["i"], ["j"], [])
        assert not m.contains(["j"], ["i"], [])

    def test_symmetry_closed_models_normalize(self):
        m = IndependenceModel("ij", [S(["i"], ["j"], [])], symmetry_closed=True)
        assert m.contains(["j"], ["i"], [])

    def test_ground_set_enforced(self):
        with pytest.raises(GraphError, match="ground set"):
            IndependenceModel("ij", [S(["i"], ["z"], [])])


class TestEnumerateModel:
    def test_fig3_membership(self, figures):
        model = enumerate_model(figures["fig3"])
        assert S(["i"], ["j"], []) in model
        assert S(["i"], ["j"], ["l"]) not in model

    def test_edgeless_graph_has_every_triple(self):
        g = build_graph(["i", "j"], [])
        model = enumerate_model(g)
        assert model.statements == {S(["i"], ["j"], []), S(["j"], ["i"], [])}

    def test_singleton_restriction(self, figures):
        model = enumerate_model(figures["fig9a"], singleton_only=True)
        assert all(len(s.a) == 1 and len(s.b) == 1 for s in model.statements)

    def test_limit_enforced(self):
        g = build_graph([f"n{k}" for k in range(7)], [])
        with pytest.raises(GraphError, match="limit"):
            enumerate_model(g)
        assert enumerate_model(g, limit=7) is not None

    def test_loops_refused(self):
        g = build_graph(["a", "b", "c"], [("a", "->", "a"), ("a", "->", "b"), ("b", "<->", "c")])
        for singleton_only in (False, True):
            with pytest.raises(GraphError, match="loop"):
                enumerate_model(g, singleton_only=singleton_only)

    def test_conforms_with_its_graph(self, figures, lmg_corpus):
        for g in [figures["fig3"], figures["fig7"]] + lmg_corpus[:40]:
            if len(g.nodes) > 5:
                continue
            model = enumerate_model(g, limit=7)
            assert conforms(model, g)


class TestAxioms:
    def test_fig3_model_is_compositional_graphoid(self, figures):
        model = enumerate_model(figures["fig3"])
        assert all(v is None for v in check_axioms(model).values())

    def test_symmetry_counterexample(self):
        m = IndependenceModel("ij", [S(["i"], ["j"], [])])
        violation = check_axiom(m, Axiom.SYMMETRY)
        assert violation is not None
        assert violation.missing == S(["j"], ["i"], [])

    def test_decomposition_counterexample(self):
        m = IndependenceModel("ijk", [S(["i"], ["j", "k"], [])])
        violation = check_axiom(m, Axiom.DECOMPOSITION)
        assert violation is not None and violation.missing.b in (
            frozenset(["j"]),
            frozenset(["k"]),
        )

    def test_contraction_checked_as_equivalence(self):
        # The reverse direction fails when the two weakened statements are
        # absent while the combined one is present.
        m = IndependenceModel("ijk", [S(["i"], ["j", "k"], [])])
        violation = check_axiom(m, Axiom.CONTRACTION)
        assert violation is not None

    def test_intersection_and_composition_detect_gaps(self):
        m = IndependenceModel(
            "ijkl",
            [S(["i"], ["j"], ["k"]), S(["i"], ["k"], ["j"])],
        )
        v = check_axiom(m, Axiom.INTERSECTION)
        assert v is not None and v.missing == S(["i"], ["j", "k"], [])
        m2 = IndependenceModel(
            "ijkl",
            [S(["i"], ["j"], []), S(["i"], ["k"], [])],
        )
        v2 = check_axiom(m2, Axiom.COMPOSITION)
        assert v2 is not None and v2.missing == S(["i"], ["j", "k"], [])

    def test_corpus_models_pass_all_six(self, lmg_corpus):
        for g in lmg_corpus[:60]:
            model = enumerate_model(g, limit=5)
            for axiom, violation in check_axioms(model).items():
                assert violation is None, f"{axiom} on {g}: {violation}"


class TestClosure:
    def test_empty_model_closes_to_itself(self):
        m = IndependenceModel("abcd", [])
        assert closure(m, COMPOSITIONAL_GRAPHOID).statements == frozenset()

    def test_fig9a_needs_intersection(self, figures):
        pw = pairwise_model(figures["fig9a"])
        target = S(["i"], ["k", "l"], ["j"])
        assert target in closure(pw, GRAPHOID)
        assert target not in closure(pw, COMPOSITIONAL_SEMI_GRAPHOID)

    def test_fig9b_needs_composition(self, figures):
        pw = pairwise_model(figures["fig9b"])
        target = S(["i"], ["k", "l"], [])
        assert target not in closure(pw, GRAPHOID)
        assert target in closure(pw, COMPOSITIONAL_GRAPHOID)
        assert target in closure(pw, COMPOSITIONAL_SEMI_GRAPHOID)

    def test_fig9c_needs_intersection(self, figures):
        pw = pairwise_model(figures["fig9c"])
        target = S(["l"], ["i", "k"], ["j"])
        assert target in closure(pw, GRAPHOID)
        assert target not in closure(pw, COMPOSITIONAL_SEMI_GRAPHOID)

    def test_limit_enforced(self):
        m = IndependenceModel("abcdef", [])
        with pytest.raises(GraphError, match="closure limit"):
            closure(m, GRAPHOID)

    @settings(max_examples=50, deadline=None)
    @given(models())
    def test_extensive_and_idempotent(self, m):
        closed = closure(m, COMPOSITIONAL_GRAPHOID)
        assert m.statements <= closed.statements
        assert closure(closed, COMPOSITIONAL_GRAPHOID).statements == closed.statements

    @settings(max_examples=50, deadline=None)
    @given(models(), models())
    def test_monotone(self, m1, m2):
        merged = IndependenceModel("abcd", m1.statements | m2.statements)
        assert (
            closure(m1, SEMI_GRAPHOID).statements
            <= closure(merged, SEMI_GRAPHOID).statements
        )

    @settings(max_examples=30, deadline=None)
    @given(models())
    def test_closure_satisfies_its_axioms(self, m):
        closed = closure(m, COMPOSITIONAL_GRAPHOID)
        for axiom, violation in check_axioms(closed).items():
            assert violation is None, f"{axiom}: {violation}"


class TestPairwiseModel:
    def test_fig7_statements(self, figures):
        pw = pairwise_model(figures["fig7"])
        assert S(["i"], ["m"], ["k", "l", "h"]) in pw
        assert S(["l"], ["p"], ["h", "m"]) in pw

    def test_complete_graph_empty(self):
        g = build_graph(["a", "b"], [("a", "->", "b")])
        assert len(pairwise_model(g)) == 0

    def test_fig9c_exact(self, figures):
        pw = pairwise_model(figures["fig9c"])
        expected = set()
        for s in (
            S(["i"], ["k"], []),
            S(["i"], ["l"], ["j", "k"]),
            S(["k"], ["l"], ["i", "j"]),
        ):
            expected |= {s, s.mirrored()}
        assert pw.statements == expected


class TestMarkovProperties:
    def test_global_holds_for_induced_model(self, figures):
        g = figures["fig9a"]
        assert satisfies_global(enumerate_model(g), g)

    def test_fig6_model_fails_pairwise(self, figures):
        g = figures["fig6"]
        check = satisfies_pairwise(enumerate_model(g), g)
        assert not check
        assert check.violation.a | check.violation.b == {"i", "j"}

    def test_fig7_model_satisfies_pairwise(self, figures):
        g = figures["fig7"]
        model = enumerate_model(g, limit=7)
        assert satisfies_pairwise(model, g)

    def test_ground_set_mismatch(self, figures):
        model = enumerate_model(figures["fig9a"])
        with pytest.raises(GraphError, match="node sets"):
            satisfies_global(model, figures["fig7"])


class TestConforms:
    def test_paper_examples(self, figures):
        g = figures["fig9a"]  # the four-node undirected graph
        good = IndependenceModel(g.nodes, [S(["i"], ["l"], ["j"]), S(["i"], ["k"], [])])
        bad = IndependenceModel(g.nodes, [S(["i"], ["l"], ["j"]), S(["i"], ["j"], [])])
        assert conforms(good, g)
        assert not conforms(bad, g)

    def test_empty_model_conforms(self, figures):
        for g in figures.values():
            assert conforms(IndependenceModel(g.nodes, []), g)


class TestMarkovEquivalence:
    def test_graph_equals_itself(self, figures):
        assert markov_equivalent(figures["fig3"], figures["fig3"])

    def test_ribbonless_equivalent_to_anterior(self, rg_corpus):
        for g in rg_corpus[:50]:
            assert markov_equivalent(g, g.anterior_graph())

    def test_fig4a_not_equivalent_to_anterior(self, figures):
        g = figures["fig4a"]
        star = g.anterior_graph()
        assert not markov_equivalent(g, star)
        m_g = enumerate_model(g, singleton_only=True)
        m_star = enumerate_model(star, singleton_only=True)
        probe = S(["h"], ["j"], [])
        assert probe in m_g and probe not in m_star

    def test_node_set_mismatch(self, figures):
        with pytest.raises(GraphError, match="node sets"):
            markov_equivalent(figures["fig3"], figures["fig9a"])

    def test_loops_refused(self):
        g = build_graph(["a", "b", "c"], [("a", "->", "a"), ("a", "->", "b"), ("b", "<->", "c")])
        h = build_graph(["a", "b", "c"], [("a", "->", "b"), ("b", "<->", "c")])
        for pair in ((g, g), (g, h), (h, g)):
            with pytest.raises(GraphError, match="loop"):
                markov_equivalent(*pair)


class TestMarginalModel:
    def test_empty_margin_is_identity(self, figures):
        model = enumerate_model(figures["fig9a"])
        assert marginal_model(model, []) == model

    def test_statements_avoid_margin(self, figures):
        model = enumerate_model(figures["fig7"], limit=7)
        reduced = marginal_model(model, ["p"])
        assert reduced.ground_set == model.ground_set - {"p"}
        assert all("p" not in (s.a | s.b | s.c) for s in reduced.statements)

    def test_preserves_compositional_graphoid(self, figures):
        model = enumerate_model(figures["fig7"], limit=7)
        reduced = marginal_model(model, ["p"])
        for axiom, violation in check_axioms(reduced).items():
            assert violation is None, f"{axiom}: {violation}"

    def test_margin_must_be_subset(self, figures):
        model = enumerate_model(figures["fig9a"])
        with pytest.raises(GraphError, match="subset"):
            marginal_model(model, ["zz"])


class TestMainTheoremSamples:
    def test_closure_of_pairwise_covers_induced_model(self, maximal_rg_corpus):
        for g in maximal_rg_corpus[:25]:
            induced = enumerate_model(g, limit=5)
            closed = closure(pairwise_model(g), COMPOSITIONAL_GRAPHOID)
            for s in induced.statements:
                assert s in closed

    def test_closure_of_pairwise_equals_induced_model(self, maximal_rg_corpus):
        # J_m(G) is a compositional graphoid holding the pairwise statements,
        # and on maximal ribbonless G the main theorem puts all of J_m(G) in
        # their closure: the two models are one.
        assert len(maximal_rg_corpus) >= 100
        for g in maximal_rg_corpus:
            closed = closure(pairwise_model(g), COMPOSITIONAL_GRAPHOID)
            assert closed.statements == enumerate_model(g).statements, g

    def test_induced_model_contains_pairwise_on_maximal(self, maximal_rg_corpus):
        for g in maximal_rg_corpus[:25]:
            induced = enumerate_model(g, limit=6)
            for s in pairwise_model(g).statements:
                assert s in induced

    def test_axiom_set_constants(self):
        assert len(SEMI_GRAPHOID) == 4
        assert GRAPHOID == SEMI_GRAPHOID | {Axiom.INTERSECTION}
        assert COMPOSITIONAL_SEMI_GRAPHOID == SEMI_GRAPHOID | {Axiom.COMPOSITION}
        assert COMPOSITIONAL_GRAPHOID == GRAPHOID | {Axiom.COMPOSITION}
