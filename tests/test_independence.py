"""Independence models: axioms, closures, Markov properties, equivalence."""

import functools
import itertools
import random

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
    MixedGraph,
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
from lmgraphs import independence

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


def two_hundred_nodes():
    """A seeded graph of 200 nodes and 300 random lines, arrows and arcs."""
    rng = random.Random(200)
    nodes = [f"v{k:03d}" for k in range(200)]
    edges = set()
    while len(edges) < 300:
        x, y = rng.sample(nodes, 2)
        edges.add((x, rng.choice(["--", "->", "<->"]), y))
    return build_graph(nodes, sorted(edges))


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


@pytest.mark.parametrize("call, message", [
    (lambda: parse_statement("{a,b _||_ c | {}"), "unbalanced braces in node set '{a,b'"),
    (lambda: parse_statement("a b _||_ c | {}"), "malformed node set 'a b'"),
    (lambda: parse_statement("a _||_ c,d | {}"), "malformed node set 'c,d'"),
    (lambda: parse_statement("_||_ c | {}"), "sides must be non-empty"),
    (lambda: parse_statement("{} _||_ c | {}"), "sides must be non-empty"),
    (lambda: check_axiom(IndependenceModel("ab"), "transitivity"), "unknown axiom 'transitivity'"),
])
def test_independence_refusals(call, message):
    with pytest.raises(GraphError, match=message):
        call()


def test_parse_bare_label_sides():
    assert parse_statement("a _||_ b | c") == S(["a"], ["b"], ["c"])
    assert parse_statement("a _||_ b |") == S(["a"], ["b"], [])


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

    def test_symmetry_closed_models_store_the_mirrors(self):
        m = IndependenceModel("abc", [S(["a", "b"], ["c"], [])], symmetry_closed=True)
        assert m.statements == {S(["a", "b"], ["c"], []), S(["c"], ["a", "b"], [])}
        assert len(m) == 2 and m.symmetry_closed
        assert m != IndependenceModel("abc", [S(["a", "b"], ["c"], [])])
        assert m == IndependenceModel("abc", m.statements)

    def test_axiom_checks_read_the_mirrors(self):
        # <c, ab | {}> is stored as the mirror, so its decompositions and
        # weak unions are due.
        m = IndependenceModel("abc", [S(["a", "b"], ["c"], [])], symmetry_closed=True)
        assert check_axiom(m, Axiom.DECOMPOSITION).missing == S(["c"], ["a"], [])
        assert check_axiom(m, Axiom.WEAK_UNION).missing == S(["c"], ["a"], ["b"])
        assert check_axiom(m, Axiom.SYMMETRY) is None

    def test_repr_counts_the_statements(self):
        m = IndependenceModel("ij", [S(["i"], ["j"], [])], symmetry_closed=True)
        assert repr(m) == "IndependenceModel(2 statements over ['i', 'j'])"
        assert repr(IndependenceModel([], [])) == "IndependenceModel(0 statements over [])"

    def test_equal_models_hash_equal(self, figures):
        for g in (figures["fig6"], figures["fig7"], two_hundred_nodes()):
            pw = pairwise_model(g)
            plain = IndependenceModel(g.nodes, pw.statements)
            assert pw == plain and hash(pw) == hash(plain)
            assert len({pw, plain, IndependenceModel(g.nodes, plain.statements, symmetry_closed=True)}) == 1

    def test_ground_set_enforced(self):
        with pytest.raises(GraphError, match="ground set"):
            IndependenceModel("ij", [S(["i"], ["z"], [])])

    def test_contains_on_a_wide_ground_set(self):
        # Membership reads the statements: the rows of check_axiom are 2^n
        # bits wide, and a pairwise model has no node cap.
        labels = [f"v{k:02d}" for k in range(20)]
        g = build_graph(labels, [(u, "->", v) for u, v in zip(labels, labels[1:])])
        model = pairwise_model(g)
        assert satisfies_pairwise(model, g)
        assert model.contains(["v19"], ["v00"], labels[1:19])
        assert not model.contains(["v00"], ["v19"], labels[1:18])
        assert not model.contains(["v00"], ["v00", "v19"], labels[1:19])
        assert "_rows" not in vars(model)

    def test_axiom_check_limit(self):
        wide = IndependenceModel([f"n{k:02d}" for k in range(13)], [S(["n00"], ["n01"], [])])
        for axiom in (Axiom.SYMMETRY, Axiom.COMPOSITION):
            with pytest.raises(GraphError, match="axiom check limit exceeded: 13 nodes > 12"):
                check_axiom(wide, axiom)
        assert check_axiom(IndependenceModel(wide.ground_set - {"n12"}), Axiom.SYMMETRY) is None


class TestLabelRefusal:
    """A label outside the ground set is refused, never read as "not a
    member"; the smallest unknown label is named whatever order a set
    iterates in (CI runs this class under several hash seeds)."""

    def test_contains_refuses_an_unknown_label(self):
        m = IndependenceModel(["a", "b"], [S(["a"], ["b"], [])])
        for a, b, c in ((["a"], ["zz"], []), (["zz"], [], []), ([], ["b"], ["zz"]), (["a"], ["a"], ["zz"])):
            with pytest.raises(GraphError, match="^unknown node 'zz'$"):
                m.contains(a, b, c)
        with pytest.raises(GraphError, match="^unknown node 'zz'$"):
            S(["a"], ["zz"], []) in m

    def test_contains_names_the_smallest_unknown_label(self, figures):
        unknown = {"zz", "yy", "xx", "ww"}
        for model in (IndependenceModel(["a", "b"]), enumerate_model(figures["fig3"]),
                      pairwise_model(figures["fig3"])):
            first = min(model.ground_set)
            with pytest.raises(GraphError, match="^unknown node 'ww'$"):
                model.contains([first], unknown)
            with pytest.raises(GraphError, match="^unknown node 'ww'$"):
                model.contains([first], [], unknown)


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


def eager_pairwise(g):
    """The pairwise statements as they used to be built, one validated
    statement and its mirror per non-adjacent pair."""
    statements = set()
    for x, y in itertools.combinations(g.node_list(), 2):
        if not g.adjacent(x, y):
            s = S([x], [y], (g.anteriors(x) | g.anteriors(y)) - {x, y})
            statements |= {s, s.mirrored()}
    return frozenset(statements)


def pairwise_faults(graphs):
    """Each graph whose mask-built pairwise model differs from
    ``eager_pairwise``: in its rows (up to 6 nodes) or in its statements,
    which must also pass validation."""
    for g in graphs:
        pw, expected = pairwise_model(g), eager_pairwise(g)
        if len(g.nodes) <= 6 and pw._rows != IndependenceModel(g.nodes, expected, True)._rows:
            yield g
            continue
        try:
            if pw.statements != expected:
                yield g
        except GraphError:
            yield g


class TestMaskBuiltPairwiseModel:
    def test_statements_and_rows_match_eager_build(self, figures, lmg_corpus, maximal_rg_corpus, bidirected_corpus):
        graphs = [*figures.values(), *lmg_corpus, *maximal_rg_corpus, *bidirected_corpus]
        assert next(pairwise_faults(graphs), None) is None
        for g in graphs:
            pw = pairwise_model(g)
            assert len(pw) == len(eager_pairwise(g)) and pw.symmetry_closed
            assert pw == IndependenceModel(g.nodes, pw.statements, True)
            if len(g.nodes) <= 6:
                assert pw._rows == IndependenceModel(g.nodes, pw.statements, True)._rows
            assert pw.sorted_statements() == sorted(eager_pairwise(g), key=IndependenceStatement.sort_key)
            for s in eager_pairwise(g):
                assert s in pw and pw.contains(s.a, s.b, s.c)

    @pytest.mark.parametrize("fault", ["one orientation dropped", "x in its own C"])
    def test_planted_fault_is_caught(self, lmg_corpus, monkeypatch, fault):
        real = independence._PairwiseModel

        class Planted(real):
            if fault == "one orientation dropped":
                @functools.cached_property
                def statements(self):
                    return frozenset(s for s in real.statements.func(self) if min(s.a) < min(s.b))

                @functools.cached_property
                def _rows(self):
                    full = (1 << len(self._labels)) - 1
                    return {k: r for k, r in real._rows.func(self).items() if k & full < k >> len(self._labels)}
            else:
                def __init__(self, labels, pairs):
                    super().__init__(labels, [(x, y, c | 1 << x) for x, y, c in pairs])

        monkeypatch.setattr(independence, "_PairwiseModel", Planted)
        assert next(pairwise_faults(lmg_corpus), None) is not None
        # over 6 nodes only the statements are compared
        wide = [MixedGraph(g.node_list() + [f"z{k}" for k in range(5)], g.edges) for g in lmg_corpus[:20]]
        assert next(pairwise_faults(wide), None) is not None

    def test_no_statement_before_it_is_read(self, monkeypatch):
        g = two_hundred_nodes()
        nodes = g.node_list()
        x, y = next((x, y) for x, y in itertools.combinations(nodes, 2) if not g.adjacent(x, y))
        c = (g.anteriors(x) | g.anteriors(y)) - {x, y}
        extra = next(v for v in nodes if v not in c | {x, y})
        present, mirror = S([x], [y], c), S([y], [x], c)
        absent = [S([x], [y], c | {extra}), S([y], [x], c | {extra}), S([x, extra], [y], c)]
        built = []
        real = IndependenceStatement.__post_init__
        monkeypatch.setattr(IndependenceStatement, "__post_init__", lambda s: built.append(s) or real(s))
        pw = pairwise_model(g)
        assert built == []
        # membership is a lookup in the triples, in either orientation
        assert present in pw and mirror in pw and pw.contains([y], [x], c)
        assert not any(s in pw for s in absent)
        assert built == []
        assert len(pw.statements) == len(built) > 30000

    def test_satisfies_pairwise_lists_no_statement(self, monkeypatch):
        """A count guard: checking a model against the pairwise statements
        walks the triples, building only the statement it reports."""
        g = two_hundred_nodes()
        pw = pairwise_model(g)
        dropped = independence._PairwiseModel(pw._labels, pw._pairs[1:])
        x, y, c = pw._pairs[0]
        labels = pw._labels
        first = S([labels[x]], [labels[y]], [labels[k] for k in range(len(labels)) if c >> k & 1])
        built = []
        real = IndependenceStatement.__post_init__
        monkeypatch.setattr(IndependenceStatement, "__post_init__", lambda s: built.append(s) or real(s))
        assert satisfies_pairwise(pw, g)
        assert built == []
        assert satisfies_pairwise(dropped, g) == independence.MarkovCheck(False, first)
        assert built == [first]
        assert not {"statements", "_sorted", "_rows"} & (vars(pw).keys() | vars(dropped).keys())


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
