"""Separation engine vs oracle, witnesses, and the path-combination rules."""

import collections
import copy
import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings

import lmgraphs
from conftest import figure_path
from lmgraphs import (
    CorpusSpec,
    EdgeKind,
    GraphError,
    IndependenceModel,
    IndependenceStatement,
    MixedGraph,
    build_graph,
    check_axioms,
    combine_m_connecting,
    enumerate_model,
    find_m_connecting_path,
    generate_corpus,
    is_m_connecting_path,
    m_connecting_path_exists,
    m_separated,
    make_path,
    markov_equivalent,
    oracle_m_separated,
    pairwise_model,
    satisfies_global,
)
from lmgraphs import independence, separation, structure
from lmgraphs.graph import CompiledGraph, _mask
from lmgraphs.separation import _admissible_paths, _joined, _reach, _search_form, _simple_paths
from strategies import lmgs

try:
    import networkx as nx
except ImportError:  # the cross-check below is skipped without it
    nx = None


def members(mask):
    """The indices of the set bits of ``mask``, as ``_reach`` returns them."""
    return {v for v in range(mask.bit_length()) if mask >> v & 1}


def mask_lane_separated(g, a, b, c, opens_ancestors=True):
    """m_separated through ``_reach``'s visited-mask lane on g's own compiled
    form, whatever g is. With ``opens_ancestors`` false the lane searches a
    copy with no ancestors, so it opens the colliders in C alone, which is
    wrong for simple paths."""
    compiled = g.compiled
    if not opens_ancestors:
        compiled = copy.copy(compiled)
        compiled.ancestors = lambda targets: 0
    index = compiled.index
    targets = {index[n] for n in b}
    found = _reach(compiled, [index[n] for n in a], {index[n] for n in c}, targets)
    return members(found).isdisjoint(targets)


def mask_lane_model(g):
    """g's singleton model, each statement confirmed by ``mask_lane_separated``."""
    nodes = g.node_list()
    statements = []
    for x, y in itertools.permutations(nodes, 2):
        rest = [n for n in nodes if n not in (x, y)]
        for r in range(len(rest) + 1):
            for c in itertools.combinations(rest, r):
                if mask_lane_separated(g, [x], [y], c):
                    statements.append(IndependenceStatement.of([x], [y], c))
    return IndependenceModel(g.nodes, statements)


def line_grid(side):
    """A side x side grid of lines with arrows into three inner nodes:
    ribbonless and not anterior. The corners are separated given the far
    corner's two neighbours."""
    cell = lambda r, c: f"g{r}_{c}"  # noqa: E731
    edges = [(cell(r, c), "--", cell(r, c + 1)) for r in range(side) for c in range(side - 1)]
    edges += [(cell(r, c), "--", cell(r + 1, c)) for r in range(side - 1) for c in range(side)]
    targets = [cell(1, 1), cell(side - 2, 1), cell(1, side - 1)]
    edges += [(f"u{k}", "->", t) for k, t in enumerate(targets)]
    nodes = [cell(r, c) for r in range(side) for c in range(side)] + ["u0", "u1", "u2"]
    return build_graph(nodes, edges)


def all_singleton_queries(g):
    nodes = g.node_list()
    for x, y in itertools.combinations(nodes, 2):
        rest = [n for n in nodes if n not in (x, y)]
        for r in range(len(rest) + 1):
            for c in itertools.combinations(rest, r):
                yield x, y, frozenset(c)


UNKNOWN_LABEL_ENTRY_POINTS = (
    "m_separated", "m_connecting_path_exists", "find_m_connecting_path", "ancestors",
    "descendants", "is_m_connecting_path", "find_primitive_inducing_paths",
)

# Calls each entry point with unknown labels on the graph file argv[1] and
# prints the error each raises.
UNKNOWN_LABELS = """
import sys
import lmgraphs as lm

g = lm.load_graph(sys.argv[1])
unknown = {"zz", "yy", "xx", "ww"}
path = lm.make_path(g, ["i", "h", "j"])
calls = {
    "m_separated": lambda: lm.m_separated(g, ["i"], ["j"], unknown),
    "m_connecting_path_exists": lambda: lm.m_connecting_path_exists(g, "i", "j", unknown),
    "find_m_connecting_path": lambda: lm.find_m_connecting_path(g, "i", "j", unknown),
    "ancestors": lambda: g.ancestors(unknown),
    "descendants": lambda: g.descendants(unknown),
    "is_m_connecting_path": lambda: lm.is_m_connecting_path(g, path, unknown),
    "find_primitive_inducing_paths": lambda: lm.find_primitive_inducing_paths(g, "zz", "ww"),
}
for name, call in calls.items():
    try:
        call()
    except lm.GraphError as exc:
        print(f"{name}: {exc}")
    else:
        print(f"{name}: accepted")
"""


class TestEngineOnFigures:
    def test_fig3_connected_given_l(self, figures):
        g = figures["fig3"]
        assert "h" in g.ancestors(["l"])
        assert m_connecting_path_exists(g, "i", "j", ["l"])
        assert not m_separated(g, ["i"], ["j"], ["l"])

    def test_fig3_separated_marginally(self, figures):
        g = figures["fig3"]
        # independent route: exhaustive path enumeration agrees
        assert oracle_m_separated(g, ["i"], ["j"], [])
        assert m_separated(g, ["i"], ["j"], [])

    def test_two_isolated_nodes(self):
        g = build_graph(["x", "y", "z"], [])
        assert not m_connecting_path_exists(g, "x", "y", ["z"])
        assert m_separated(g, ["x"], ["y"], [])

    def test_fig7_set_query(self, figures):
        assert m_separated(figures["fig7"], ["i", "k"], ["j"], ["l"])

    def test_fig6_inseparable_pair(self, figures):
        g = figures["fig6"]
        for c in ([], ["k"]):
            assert not m_separated(g, ["i"], ["j"], c)
            assert not oracle_m_separated(g, ["i"], ["j"], c)

    def test_adjacent_pair_never_separated(self, figures):
        g = figures["fig7"]
        assert not m_separated(g, ["l"], ["m"], ["h", "j", "k"])

    def test_preconditions(self, figures):
        g = figures["fig3"]
        with pytest.raises(GraphError, match="conditioning"):
            m_connecting_path_exists(g, "i", "j", ["i"])
        with pytest.raises(GraphError, match="differ"):
            m_connecting_path_exists(g, "i", "i", [])
        with pytest.raises(GraphError, match="unknown node"):
            m_connecting_path_exists(g, "i", "zz", [])
        with pytest.raises(GraphError, match="disjoint"):
            m_separated(g, ["i"], ["i"], [])
        with pytest.raises(GraphError, match="non-empty"):
            m_separated(g, [], ["i"], [])

    def test_unknown_label_does_not_depend_on_the_hash_seed(self):
        # Every entry point names the smallest unknown label. A set of
        # labels iterates in an order that the hash seed picks, so each seed
        # runs in its own interpreter; under seeds 1, 2, 5 and 6 the set of
        # the four unknown labels iterates from ww, xx, yy and zz first.
        src = pathlib.Path(lmgraphs.__file__).resolve().parents[1]
        for seed in ("1", "2", "5", "6"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
            done = subprocess.run(
                [sys.executable, "-c", UNKNOWN_LABELS, figure_path("fig3")],
                env=env, capture_output=True, text=True, timeout=60, check=True,
            )
            assert done.stdout.splitlines() == [
                f"{name}: unknown node 'ww'" for name in UNKNOWN_LABEL_ENTRY_POINTS
            ], f"PYTHONHASHSEED={seed}"

    def test_oracle_refuses_large_graphs(self):
        labels = [f"n{k}" for k in range(9)]
        g = build_graph(labels, [])
        with pytest.raises(GraphError, match="oracle limit"):
            oracle_m_separated(g, ["n0"], ["n1"], [])


class TestLabelRefusal:
    """Run under several hash seeds in CI: the smallest unknown label is named."""

    def test_one_node_path_refuses_an_unknown_c(self, figures):
        g = figures["fig3"]
        for given, label in ((["zz"], "zz"), ({"zz", "yy", "xx", "ww"}, "ww")):
            for nodes in (["i"], ["i", "h", "j"]):
                with pytest.raises(GraphError, match=f"^unknown node '{label}'$"):
                    is_m_connecting_path(g, make_path(g, nodes), given)


class TestWitnesses:
    def test_fig3_witness_path(self, figures):
        w = find_m_connecting_path(figures["fig3"], "i", "j", ["l"])
        assert w is not None and w.nodes == ("i", "h", "j")
        assert is_m_connecting_path(figures["fig3"], w, ["l"])

    def test_separated_pair_has_no_witness(self, figures):
        assert find_m_connecting_path(figures["fig3"], "i", "j", []) is None

    def test_witness_is_the_first_oracle_path(self, rg_corpus):
        """The witness search returns the first simple path, in the oracle's
        enumeration order, that passes the literal m-connecting check."""
        found = 0
        for g in rg_corpus:
            if len(g.nodes) > 7:
                continue
            nodes = g.node_list()
            for x, y in itertools.permutations(nodes, 2):
                rest = [n for n in nodes if n not in (x, y)]
                for c in (rest[:0], rest[:1], rest[1::2]):
                    expected = next(
                        (p for p in _simple_paths(g, x, y) if is_m_connecting_path(g, p, c)),
                        None,
                    )
                    assert find_m_connecting_path(g, x, y, c) == expected, (g, x, y, c)
                    found += expected is not None
        assert found > 1000

    def test_witnesses_validate_on_random_graphs(self):
        corpus = generate_corpus(CorpusSpec(count=150, nodes=(2, 5), seed=321))
        checked = 0
        for g in corpus:
            for x, y, c in all_singleton_queries(g):
                path = find_m_connecting_path(g, x, y, c)
                exists = m_connecting_path_exists(g, x, y, c)
                assert (path is not None) == exists
                if path is not None:
                    assert path.first == x and path.last == y
                    assert is_m_connecting_path(g, path, c)
                    checked += 1
        assert checked > 500


class TestEngineOracleAgreement:
    def test_seeded_corpus(self):
        corpus = generate_corpus(
            CorpusSpec(count=200, nodes=(2, 5), p_multi=0.2, seed=99)
        )
        for g in corpus:
            for x, y, c in all_singleton_queries(g):
                assert m_separated(g, [x], [y], c) == oracle_m_separated(
                    g, [x], [y], c
                )

    @settings(max_examples=80, deadline=None)
    @given(lmgs(max_nodes=4))
    def test_hypothesis_graphs(self, g):
        for x, y, c in all_singleton_queries(g):
            assert m_separated(g, [x], [y], c) == oracle_m_separated(g, [x], [y], c)

    def test_anterior_graphs(self):
        # The engine takes a cheaper walk-based route on anterior graphs; pin
        # it against the path oracle separately.
        corpus = generate_corpus(
            CorpusSpec(count=120, nodes=(2, 5), p_multi=0.2, seed=1234)
        )
        for g in corpus:
            star = g.anterior_graph()
            assert star.is_anterior()
            for x, y, c in all_singleton_queries(star):
                assert m_separated(star, [x], [y], c) == oracle_m_separated(
                    star, [x], [y], c
                )

    def test_set_queries(self):
        # m_separated answers a set query with one search from all of A;
        # the oracle tries every pair. Non-anterior graphs included.
        corpus = generate_corpus(
            CorpusSpec(count=120, nodes=(4, 6), p_multi=0.2, seed=4321)
        )
        rng = random.Random(4321)
        outcomes = set()
        for g in corpus:
            nodes = g.node_list()
            for _ in range(8):
                pick = rng.sample(nodes, rng.randint(2, len(nodes)))
                na = rng.randint(1, len(pick) - 1)
                nb = rng.randint(1, len(pick) - na)
                a, b, c = pick[:na], pick[na : na + nb], pick[na + nb :]
                answer = m_separated(g, a, b, c)
                assert answer == oracle_m_separated(g, a, b, c), (g, a, b, c)
                outcomes.add((answer, g.is_anterior(), len(a) > 1 or len(b) > 1))
        assert len(outcomes) == 8

    def test_fig4a_walk_path_divergence_is_handled(self, figures):
        # Walks can bounce off the line below the collider and fake a
        # connection between h and j; the engine must not fall for it.
        g = figures["fig4a"]
        assert not g.is_anterior()
        assert not g.ribbonless and _search_form(g) is g.compiled  # the visited-mask lane
        assert m_separated(g, ["h"], ["j"], [])
        assert oracle_m_separated(g, ["h"], ["j"], [])


class TestSeparationInvariances:
    @settings(max_examples=60, deadline=None)
    @given(lmgs(max_nodes=4))
    def test_multi_edge_collapse(self, g):
        simplified = g.simplify()
        for x, y, c in all_singleton_queries(g):
            assert m_separated(g, [x], [y], c) == m_separated(simplified, [x], [y], c)

    @settings(max_examples=60, deadline=None)
    @given(lmgs(max_nodes=4))
    def test_symmetry(self, g):
        for x, y, c in all_singleton_queries(g):
            assert m_separated(g, [x], [y], c) == m_separated(g, [y], [x], c)

    def test_anterior_graph_equivalence_on_ribbonless(self, rg_corpus):
        # m_separated answers a ribbonless g on its anterior form, so g's
        # side runs the visited-mask lane on g itself.
        for g in rg_corpus[:80]:
            star = g.anterior_graph()
            for x, y, c in all_singleton_queries(g):
                assert mask_lane_separated(g, [x], [y], c) == m_separated(star, [x], [y], c)

    def test_fig4a_breaks_anterior_equivalence(self, figures):
        g = figures["fig4a"]
        star = g.anterior_graph()
        assert m_separated(g, ["h"], ["j"], [])
        assert not m_separated(star, ["h"], ["j"], [])


class TestRouting:
    """A ribbonless graph that is not anterior answers on its anterior form;
    only a graph with ribbons keeps the visited-mask lane."""

    @pytest.fixture(scope="class")
    def routed(self):
        corpus = generate_corpus(CorpusSpec(
            count=400, nodes=(3, 8), p_line=0.2, p_arrow=0.15, p_arc=0.1, p_multi=0.2,
            constraint="ribbonless", seed=9090,
        ))
        graphs = [g for g in corpus if not g.is_anterior()]
        assert len(graphs) > 200 and sum(len(g.nodes) > 6 for g in graphs) > 40
        assert sum(len({e.canonical() for e in g.edges}) < len(g.edges) for g in graphs) > 100
        return graphs

    def test_lane_choice(self, figures, routed, monkeypatch):
        entries = []
        joined = separation._joined
        monkeypatch.setattr(separation, "_joined", lambda form, *args: entries.append(form) or joined(form, *args))
        for g in routed:
            assert _search_form(g) is g.compiled.anterior_form
            assert _search_form(g).anterior
            x, y, *_ = g.node_list()
            m_separated(g, [x], [y])
            m_connecting_path_exists(g, x, y)
            assert entries == [g.compiled.anterior_form] * 2, g
            entries.clear()
        for g in figures.values():
            expected = g.compiled if g.is_anterior() or not g.ribbonless else g.compiled.anterior_form
            assert _search_form(g) is expected

    def test_routed_singletons_match_mask_lane_and_oracle(self, routed):
        queries = 0
        for g in routed:
            for x, y, c in all_singleton_queries(g):
                answer = m_separated(g, [x], [y], c)
                assert answer == mask_lane_separated(g, [x], [y], c), (g, x, y, c)
                assert answer == oracle_m_separated(g, [x], [y], c), (g, x, y, c)
                assert answer != m_connecting_path_exists(g, x, y, c)
                queries += 1
        assert queries > 50000

    def test_routed_set_queries(self, routed):
        rng = random.Random(9090)
        outcomes = set()
        for g in (g for g in routed if len(g.nodes) > 3):
            nodes = g.node_list()
            for _ in range(40):
                pick = rng.sample(nodes, rng.randint(2, len(nodes)))
                na = rng.randint(1, len(pick) - 1)
                nb = rng.randint(1, len(pick) - na)
                a, b, c = pick[:na], pick[na : na + nb], pick[na + nb :]
                answer = m_separated(g, a, b, c)
                assert answer == mask_lane_separated(g, a, b, c), (g, a, b, c)
                assert answer == oracle_m_separated(g, a, b, c), (g, a, b, c)
                outcomes.add((answer, len(a) + len(b) > 2))
        assert len(outcomes) == 4

    def test_routed_enumeration_matches_mask_lane(self, routed, monkeypatch):
        # enumerate_model and markov_equivalent search the forms that
        # _search_form hands _reach_table, all anterior here, so every row
        # comes from the bit-parallel walk; the visited-mask lane on g's own
        # form is the check.
        forms = []

        def recorded(graph):
            forms.append(_search_form(graph))
            return forms[-1]

        monkeypatch.setattr(independence, "_search_form", recorded)
        for g in routed:
            assert enumerate_model(g, singleton_only=True) == mask_lane_model(g), g
            star = g.anterior_graph()
            assert markov_equivalent(g, star)
            assert set(map(id, forms)) == {id(g.compiled.anterior_form), id(star.compiled)}, g
            assert all(form.anterior for form in forms), g
            forms.clear()

    def test_one_anterior_form_per_graph(self, monkeypatch):
        """Every reader of the anterior graph reads g's kept anterior form:
        two compiled forms, g's and its anterior form, and no new graph."""
        g = build_graph(
            ["i", "j", "k", "l", "m"],
            [("i", "->", "j"), ("j", "--", "k"), ("k", "<-", "l"), ("l", "<->", "m"), ("i", "->", "m")],
        )
        built = []

        def counted(init):
            def __init__(self, *args):
                built.append(type(self))
                init(self, *args)
            return __init__

        for cls in (CompiledGraph, MixedGraph):
            monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
        for v in g.nodes:
            g.anteriors(v)
        pairwise_model(g)
        m_separated(g, ["i"], ["k"], ["j"])
        enumerate_model(g)
        assert markov_equivalent(g, g)
        assert g.ribbonless and not g.is_anterior()
        assert built == [CompiledGraph, CompiledGraph]

    def test_large_grid_answers_on_its_anterior_form(self):
        # Checked before the query runs: the visited-mask lane would not
        # finish on this grid.
        g = line_grid(9)
        assert not g.is_anterior() and g.ribbonless
        assert _search_form(g) is g.compiled.anterior_form and _search_form(g).anterior
        assert m_separated(g, ["g0_0"], ["g8_8"], ["g7_8", "g8_7"])
        assert not m_separated(g, ["g0_0"], ["g8_8"], ["g7_8"])
        assert m_connecting_path_exists(g, "g0_0", "g8_8", ["g1_1"])

    def test_ribbon_scan_runs_once_per_graph(self, figures, monkeypatch):
        scans = []
        real = structure.find_ribbons
        monkeypatch.setattr(structure, "find_ribbons", lambda g: scans.append(g) or real(g))
        g = line_grid(4)
        for c in ([], ["g1_1"], ["g2_3", "g3_2"]):
            m_separated(g, ["g0_0"], ["g3_3"], c)
            m_connecting_path_exists(g, "g0_0", "g3_3", c)
        assert structure.is_ribbonless(g) and structure.classify(g).ribbonless
        structure.maximality_violations(g)
        assert scans == [g]
        anterior = figures["fig3"]
        m_separated(anterior, ["i"], ["j"], ["l"])
        m_connecting_path_exists(anterior, "i", "j", ["l"])
        assert scans == [g]


def reach_row_mismatches(graphs):
    """Each (graph, C, x) whose row of the reach table, the y with bit C set
    in R[x][y] from ``_reach_table``, differs from one call of ``_reach``'s
    visited-mask lane on the same form given C."""
    for g in graphs:
        form = _search_form(g)
        table = independence._reach_table(g)
        n = len(table)
        for c in range(1 << n):
            given = {v for v in range(n) if c >> v & 1}
            for x in range(n):
                expected = set() if x in given else members(_reach(form, (x,), given)) - given - {x}
                if {y for y in range(n) if table[x][y] >> c & 1} != expected:
                    yield g, c, x


def oracle_rows(g):
    """``_reach_table(g)`` as the path oracle gives it: bit C of R[x][y] is
    set when x and y, distinct and outside C, are not ``oracle_m_separated``
    given C."""
    labels = g.compiled.labels
    n = len(labels)
    table = [[0] * n for _ in range(n)]
    for c in range(1 << n):
        given = [labels[v] for v in range(n) if c >> v & 1]
        for x, y in itertools.permutations(range(n), 2):
            if not (c >> x | c >> y) & 1 and not oracle_m_separated(g, [labels[x]], [labels[y]], given):
                table[x][y] |= 1 << c
    return table


def rows_model(g, table):
    """The singleton model that holds <x, y | C> exactly when x and y,
    distinct and outside C, have bit C clear in R[x][y]."""
    labels = g.compiled.labels
    n = len(labels)
    statements = [
        IndependenceStatement.of([labels[x]], [labels[y]], [labels[v] for v in range(n) if c >> v & 1])
        for x, y in itertools.permutations(range(n), 2)
        for c in range(1 << n)
        if not (c >> x | c >> y | table[x][y] >> c) & 1
    ]
    return IndependenceModel(g.nodes, statements)


@pytest.fixture(scope="module")
def ribboned():
    """Seeded graphs with ribbons: their rows come from ``_reach``'s
    visited-mask lane, one call per (x, C), so the path oracle checks them."""
    graphs = [g for g in generate_corpus(CorpusSpec(count=150, nodes=(3, 6), p_multi=0.2, seed=4040))
              if not g.ribbonless]
    assert len(graphs) >= 60 and sum(len(g.nodes) == 6 for g in graphs) > 20
    assert sum(len({e.canonical() for e in g.edges}) < len(g.edges) for g in graphs) > 40
    return graphs


class TestReachRows:
    """The reach table behind enumerate_model and markov_equivalent: the
    bit-parallel walk over every (x, C) at once on anterior forms, each row
    held to one call per (x, C) of ``_reach``'s visited-mask lane, an
    independent search over simple paths, and that lane itself on graphs
    with ribbons, held to the path oracle."""

    @pytest.fixture(scope="class")
    def corpus(self):
        graphs = []
        for seed in range(3):
            for constraint in ("ribbonless", "none"):
                graphs += generate_corpus(CorpusSpec(
                    count=60, nodes=(3, 7), p_line=0.2, p_arrow=0.3, p_arc=0.2, p_multi=0.2,
                    constraint=constraint, seed=7000 + seed,
                ))
            # no lines: anterior graphs, many with directed cycles
            graphs += generate_corpus(CorpusSpec(
                count=50, nodes=(3, 7), p_line=0.0, p_arrow=0.6, p_arc=0.2, p_multi=0.2, seed=7100 + seed,
            ))
        forms = [_search_form(g) for g in graphs]
        assert sum(not g.ribbonless for g in graphs) > 60
        assert sum(form.anterior and form is not g.compiled for g, form in zip(graphs, forms)) > 60
        assert sum(bool(form.cyclic) for form in forms if form.anterior) > 40
        assert sum(len({e.canonical() for e in g.edges}) < len(g.edges) for g in graphs) > 100
        return graphs

    def test_rows_equal_one_reach_per_query(self, corpus):
        assert next(reach_row_mismatches(corpus), None) is None

    def test_ribbon_rows_match_oracle(self, ribboned):
        for g in ribboned:
            assert not _search_form(g).anterior
            rows = oracle_rows(g)
            assert independence._reach_table(g) == rows, g
            assert enumerate_model(g, singleton_only=True) == rows_model(g, rows), g
            assert markov_equivalent(g, g)

    # The walk lane gates colliders by C alone in ``_gate_patterns`` and
    # reads no an(C): a walk may run down from a collider in an(C) to C and
    # back. So "every collider open" is planted in both lanes, and "an(C)
    # ignored" only in the visited-mask lane, since only its paths, which
    # cannot come back, need an(C). The ribbon rows are ``_reach`` calls, so
    # the fault goes into the ancestors that lane reads, and the path oracle
    # catches it there.
    @pytest.mark.parametrize("fault, lanes", [
        ("every collider open", {True, False}),
        ("an(C) ignored", {False}),
    ])
    def test_planted_fault_is_caught(self, corpus, ribboned, monkeypatch, fault, lanes):
        real_reach, real_gates = independence._reach, independence._gate_patterns

        def planted_reach(form, sources, c, stop=()):
            faulty = copy.copy(form)
            everything = (1 << len(form.labels)) - 1
            faulty.ancestors = lambda targets: everything if fault == "every collider open" else 0
            return real_reach(faulty, sources, c, stop)

        def every_collider_open(n):
            # after an arrowhead, the edges with one pass every C
            return tuple((-1, gate_out) for _, gate_out in real_gates(n))

        monkeypatch.setattr(independence, "_reach", planted_reach)
        if fault == "every collider open":
            monkeypatch.setattr(independence, "_gate_patterns", every_collider_open)
        caught = set()  # by lane: whether the form is anterior
        if next(reach_row_mismatches(g for g in corpus if _search_form(g).anterior), None):
            caught.add(True)
        if any(independence._reach_table(g) != oracle_rows(g) for g in ribboned):
            caught.add(False)
        assert caught == lanes


    # The kept table: one per search form, read by every model query.

    def test_kept_table_equals_a_fresh_one(self, corpus, ribboned):
        for g in corpus + ribboned:
            kept = independence._kept_table(g)
            assert kept is _search_form(g)._kept_reach_table is independence._kept_table(g)
            assert kept == tuple(map(tuple, independence._reach_table(g))), g

    def test_one_table_per_form(self, monkeypatch):
        # Fresh graphs, one per lane: anterior, ribbonless but not anterior
        # (with its anterior graph as a second form), and with ribbons.
        anterior = build_graph(["a", "b", "c", "d"], [("a", "->", "b"), ("c", "<->", "b"), ("c", "->", "d")])
        ribbonless = build_graph(["i", "j", "k", "l", "m"], [
            ("i", "->", "j"), ("j", "--", "k"), ("k", "<-", "l"), ("l", "<->", "m"), ("i", "->", "m")])
        ribbon = build_graph(["h", "i", "j", "k", "m"], [
            ("h", "->", "i"), ("j", "->", "i"), ("i", "--", "k"), ("k", "->", "m")])
        star = ribbonless.anterior_graph()
        assert anterior.is_anterior() and not ribbonless.is_anterior() and ribbonless.ribbonless
        assert not ribbon.ribbonless
        built = []
        real = independence._reach_table
        monkeypatch.setattr(independence, "_reach_table", lambda g: built.append(_search_form(g)) or real(g))
        for g, partner in ((anterior, anterior), (ribbonless, star), (ribbon, ribbon)):
            for _ in range(2):
                enumerate_model(g)
                enumerate_model(g, singleton_only=True)
                check_axioms(enumerate_model(g))
                assert markov_equivalent(g, partner)
                assert satisfies_global(enumerate_model(g), g)
        forms = [_search_form(g) for g in (anterior, ribbonless, star, ribbon)]
        assert [id(form) for form in built] == [id(form) for form in forms]

    def test_kept_table_keeps_the_caps(self):
        g = build_graph([f"v{k}" for k in range(6)], [(f"v{k}", "<->", f"v{k + 1}") for k in range(5)])
        enumerate_model(g)
        assert _search_form(g)._kept_reach_table is not None
        for query in (lambda: enumerate_model(g, limit=5),
                      lambda: enumerate_model(g, singleton_only=True, limit=5),
                      lambda: markov_equivalent(g, g, limit=5),
                      lambda: satisfies_global(enumerate_model(g), g, limit=5)):
            with pytest.raises(GraphError, match="enumeration limit exceeded: 6 nodes > 5"):
                query()

    @pytest.fixture(scope="class")
    def equivalence_pairs(self):
        """Seeded pairs over one label set, each graph with its singleton
        model from the path oracle's rows: consecutive graphs of one size,
        a graph with a fresh copy of itself, and a ribbonless graph with its
        anterior graph."""
        graphs = generate_corpus(CorpusSpec(count=90, nodes=(3, 5), p_multi=0.2, seed=6060))
        pairs = []
        for n in range(3, 6):
            sized = [g for g in graphs if len(g.nodes) == n]
            pairs += zip(sized, sized[1:])
        pairs += [(g, MixedGraph(g.node_list(), g.edges)) for g in graphs[::3]]
        pairs += [(g, g.anterior_graph()) for g in graphs if g.ribbonless and not g.is_anterior()]
        oracle = {}
        for g in (g for pair in pairs for g in pair):
            if id(g) not in oracle:
                oracle[id(g)] = rows_model(g, oracle_rows(g))
        return [(g, h, oracle[id(g)] == oracle[id(h)]) for g, h in pairs]

    @staticmethod
    def equivalence_mismatches(pairs):
        return [(g, h) for g, h, same in pairs if markov_equivalent(g, h) != same]

    def test_equivalence_matches_oracle_models(self, equivalence_pairs):
        outcomes = collections.Counter(same for *_, same in equivalence_pairs)
        assert outcomes[True] > 30 and outcomes[False] > 30
        assert self.equivalence_mismatches(equivalence_pairs) == []

    def test_table_shared_by_labels_is_caught(self, equivalence_pairs, monkeypatch):
        by_labels = {}

        def shared(graph):
            key = tuple(graph.compiled.labels)
            if key not in by_labels:
                by_labels[key] = tuple(map(tuple, independence._reach_table(graph)))
            return by_labels[key]

        monkeypatch.setattr(independence, "_kept_table", shared)
        assert self.equivalence_mismatches(equivalence_pairs)

    def test_plain_table_keeps_nothing(self, corpus, ribboned, monkeypatch):
        # The planted-fault tests above call _reach_table on shared fixture
        # graphs with _reach and _gate_patterns monkeypatched; no table they
        # compute may be kept, or later readers would see the fault.
        graphs = corpus + ribboned + [build_graph(["a", "b", "c"], [("a", "->", "b"), ("b", "--", "c")])]
        before = [getattr(_search_form(g), "_kept_reach_table", None) for g in graphs]
        real_gates = independence._gate_patterns
        monkeypatch.setattr(independence, "_gate_patterns", lambda n: tuple((-1, out) for _, out in real_gates(n)))
        monkeypatch.setattr(independence, "_reach", lambda form, sources, c, stop=(): 0)
        for g in graphs:
            independence._reach_table(g)
        assert all(getattr(_search_form(g), "_kept_reach_table", None) is kept for g, kept in zip(graphs, before))
        assert before[-1] is None


class TestCGatedWalk:
    """On an anterior form the walk lane opens a collider by C alone: a walk
    through a collider in an(C) outside C runs the shortest directed path
    down into C and comes back the same way. No an(C) is computed there."""

    @pytest.fixture(scope="class")
    def corpus(self):
        graphs = []
        for seed in range(2):
            # no lines: anterior graphs, many with directed cycles; the
            # sparser 7-node ones have colliders above C
            graphs += generate_corpus(CorpusSpec(
                count=50, nodes=(3, 6), p_line=0.0, p_arrow=0.6, p_arc=0.2, p_multi=0.2, seed=2024 + seed,
            ))
            graphs += generate_corpus(CorpusSpec(
                count=10, nodes=(7, 7), p_line=0.0, p_arrow=0.3, p_arc=0.2, p_multi=0.2, seed=2034 + seed,
            ))
            graphs += [g for g in generate_corpus(CorpusSpec(
                count=60, nodes=(3, 6), p_line=0.25, p_arrow=0.3, p_arc=0.15, p_multi=0.2,
                constraint="ribbonless", seed=2124 + seed,
            )) if not g.is_anterior()]
        assert all(_search_form(g).anterior for g in graphs)
        assert sum(g.is_anterior() and bool(g.compiled.cyclic) for g in graphs) > 35
        assert sum(not g.is_anterior() for g in graphs) > 60
        assert sum(len({e.canonical() for e in g.edges}) < len(g.edges) for g in graphs) > 100
        return graphs

    def test_singletons_match_oracle_and_mask_lane(self, corpus):
        queries = bounced = 0
        for g in corpus:
            for x, y, c in all_singleton_queries(g):
                answer = m_separated(g, [x], [y], c)
                assert answer == oracle_m_separated(g, [x], [y], c), (g, x, y, c)
                assert answer == mask_lane_separated(g, [x], [y], c), (g, x, y, c)
                assert answer != m_connecting_path_exists(g, x, y, c), (g, x, y, c)
                # connected only through a collider in an(C) outside C
                bounced += answer != mask_lane_separated(g, [x], [y], c, opens_ancestors=False)
                queries += 1
        assert queries > 20000 and bounced > 100

    def test_set_queries_match_oracle_and_mask_lane(self, corpus):
        rng = random.Random(2024)
        outcomes = set()
        for g in (g for g in corpus if len(g.nodes) > 3):
            nodes = g.node_list()
            for _ in range(10):
                pick = rng.sample(nodes, rng.randint(2, len(nodes)))
                na = rng.randint(1, len(pick) - 1)
                nb = rng.randint(1, len(pick) - na)
                a, b, c = pick[:na], pick[na : na + nb], pick[na + nb :]
                answer = m_separated(g, a, b, c)
                assert answer == oracle_m_separated(g, a, b, c), (g, a, b, c)
                assert answer == mask_lane_separated(g, a, b, c), (g, a, b, c)
                outcomes.add((answer, g.is_anterior(), len(a) + len(b) > 2))
        assert len(outcomes) == 8

    def test_walk_bounces_off_c(self):
        edges = [("a", "->", "v"), ("b", "->", "v"), ("v", "->", "c")]
        g = build_graph(["a", "b", "c", "v"], edges)
        assert g.is_anterior()
        assert not m_separated(g, ["a"], ["b"], ["c"])
        assert m_connecting_path_exists(g, "a", "b", ["c"])
        assert not oracle_m_separated(g, ["a"], ["b"], ["c"])
        assert find_m_connecting_path(g, "a", "b", ["c"]).nodes == ("a", "v", "b")
        assert not mask_lane_separated(g, ["a"], ["b"], ["c"])
        # With a ribbon h -> i <- j, i -- k beside it, the same query takes
        # the visited-mask lane, which must open v through an(C).
        ribbon = [("h", "->", "i"), ("j", "->", "i"), ("i", "--", "k")]
        ribboned = build_graph(["a", "b", "c", "v", "h", "i", "j", "k"], edges + ribbon)
        assert not ribboned.ribbonless and not _search_form(ribboned).anterior
        assert not m_separated(ribboned, ["a"], ["b"], ["c"])
        assert m_connecting_path_exists(ribboned, "a", "b", ["c"])
        assert m_separated(ribboned, ["a"], ["b"], [])

    def test_ancestors_only_on_graphs_with_ribbons(self, figures, monkeypatch):
        anterior, ribbonless, ribboned = figures["fig3"], line_grid(4), figures["fig4a"]
        assert anterior.is_anterior() and ribbonless.ribbonless and not ribboned.ribbonless
        for g in (anterior, ribbonless, ribboned):
            _search_form(g)  # the ribbon scan and the anterior form, once per graph
        calls, entries, reaches = [], [], []
        real, joined, reach = CompiledGraph.ancestors, separation._joined, separation._reach
        monkeypatch.setattr(CompiledGraph, "ancestors", lambda self, targets: calls.append(self) or real(self, targets))
        monkeypatch.setattr(separation, "_joined", lambda form, *args: entries.append(form) or joined(form, *args))
        monkeypatch.setattr(separation, "_reach", lambda form, *args: reaches.append(form) or reach(form, *args))
        queries = [
            (anterior, "i", "j", ["l"]), (anterior, "i", "j", []),
            (ribbonless, "g0_0", "g3_3", ["g1_1"]), (ribbonless, "g0_0", "g3_3", ["g2_3", "g3_2"]),
        ]
        for g, x, y, c in queries:
            m_separated(g, [x], [y], c)
            m_connecting_path_exists(g, x, y, c)
        assert calls == [] and reaches == []
        assert entries == [_search_form(g) for g, *_ in queries for _ in range(2)]
        assert all(form.anterior for form in entries)
        entries.clear()
        nodes = ribboned.node_list()
        for x, y, c in [(nodes[0], nodes[1], nodes[2:3]), (nodes[0], nodes[-1], []), (nodes[1], nodes[2], nodes[3:])]:
            m_separated(ribboned, [x], [y], c)
            m_connecting_path_exists(ribboned, x, y, c)
        assert calls == reaches == entries == [ribboned.compiled] * 6

    @pytest.mark.parametrize("reader", [
        lambda g: enumerate_model(g),
        lambda g: markov_equivalent(g, g),
        lambda g: satisfies_global(IndependenceModel(g.nodes, []), g),
    ], ids=["enumerate_model", "markov_equivalent", "satisfies_global"])
    def test_models_reach_only_graphs_with_ribbons(self, reader, monkeypatch):
        # _reach reads no graph class, so an anterior form handed to it runs
        # the exponential visited-mask lane and still answers right. Each
        # graph is parsed afresh, so no reach table is kept yet. fig2a stands
        # for the ribbonless graphs that are not anterior: line_grid(4) has
        # 19 nodes, past every model cap.
        reaches = []
        reach = independence._reach
        monkeypatch.setattr(independence, "_reach", lambda form, *args: reaches.append(form) or reach(form, *args))
        for name in ("fig3", "fig2a", "fig4a"):
            g = lmgraphs.load_graph(figure_path(name))
            reader(g)
            assert set(map(id, reaches)) == ({id(g.compiled)} if name == "fig4a" else set()), name


def reference_reach(compiled, sources, c, stop=()):
    """The walk lane's per-state search, kept as the reference for the
    frontier walk in ``_joined``: a stack of states, 2w + 1 for w entered
    with an arrowhead and 2w for w entered over a tail, each node's
    successors read from its adjacency row, under the same gates and the
    same ``anterior_scope``; the set of reached indices, returned as soon
    as a node in ``stop`` is reached."""
    into = [[2 * w + head_w for w, head_v, head_w, _ in row if head_v] for row in compiled.adjacency]
    out = [[2 * w + head_w for w, head_v, head_w, _ in row if not head_v] for row in compiled.adjacency]
    scope = compiled.anterior_scope((*sources, *stop, *c)) if stop else -1
    reached, seen = set(), set()
    todo = [state for s in sources for state in into[s] + out[s]]
    while todo:
        state = todo.pop()
        v = state >> 1
        if state in seen or not scope >> v & 1:
            continue
        seen.add(state)
        reached.add(v)
        if v in stop:
            return reached
        if v in c:
            if state & 1:
                todo += into[v]
        else:
            todo += out[v]
            if not state & 1:
                todo += into[v]
    return reached


def frontier_mismatches(graphs, outcomes):
    """Each (graph, A, B, C) where the walk lane on the graph's search form
    disagrees with ``reference_reach``: ``_joined``, which walks from A and
    from B inside ant(A | B | C), answers otherwise than whether the
    reference reaches a node of B, confined to that set or not. Twelve
    seeded queries per graph, A of one to three nodes; ``outcomes`` counts
    them by the answer of ``_joined``."""
    rng = random.Random(9090)
    for g in graphs:
        form = _search_form(g)
        for _ in range(12):
            pick = rng.sample(range(len(form.labels)), len(form.labels))
            na = rng.randint(1, min(3, len(pick) - 1))
            nb = rng.randint(1, len(pick) - na)
            sources, targets = pick[:na], pick[na:na + nb]
            c = set(rng.sample(pick[na + nb:], rng.randint(0, len(pick) - na - nb)))
            everything = reference_reach(form, sources, c)
            joined = _joined(form, sources, targets, c)
            outcomes[joined] += 1
            if (joined == everything.isdisjoint(targets)
                    or joined == reference_reach(form, sources, c, targets).isdisjoint(targets)):
                yield g, sources, targets, c


def marks_at_w_ignored(steps):
    """A planted fault: the step table ``steps`` entering every node with an arrowhead."""
    return tuple((hh | ht, 0, th | tt, 0) for hh, ht, th, tt in steps)


class TestFrontierWalk:
    """The walk lane steps a level of node masks at a time over the form's
    step table (``_step``), from both ends in ``_joined``; the per-state
    search it replaced, ``reference_reach``, is the reference on seeded
    anterior forms. The visited-mask lane (``_reach``) is no reference
    here: it never re-enters a source, where the walk may."""

    @pytest.fixture(scope="class")
    def corpus(self):
        """Search forms up to 26 nodes, sparse enough for walks of many
        levels: the anterior graphs of unconstrained draws, graphs with no
        lines and many directed cycles, and ribbonless graphs that are not
        anterior, through their anterior forms; parallel edges throughout."""
        graphs = []
        for seed in range(2):
            graphs += [g.anterior_graph() for g in generate_corpus(CorpusSpec(
                count=80, nodes=(5, 26), p_line=0.04, p_arrow=0.1, p_arc=0.04, p_multi=0.2, seed=9090 + seed,
            ))]
            graphs += generate_corpus(CorpusSpec(
                count=60, nodes=(5, 26), p_line=0.0, p_arrow=0.15, p_arc=0.04, p_multi=0.2, seed=9190 + seed,
            ))
            graphs += [g for g in generate_corpus(CorpusSpec(
                count=80, nodes=(4, 12), p_line=0.1, p_arrow=0.2, p_arc=0.1, p_multi=0.2,
                constraint="ribbonless", seed=9290 + seed,
            )) if not g.is_anterior()]
        forms = [_search_form(g) for g in graphs]
        assert all(form.anterior for form in forms)
        assert sum(bool(form.cyclic) for form in forms) > 60
        assert sum(not g.is_anterior() for g in graphs) > 40
        assert sum(len(g.nodes) > 15 for g in graphs) > 100
        assert sum(len({e.canonical() for e in g.edges}) < len(g.edges) for g in graphs) > 150
        return graphs

    def test_frontier_walk_matches_reference(self, corpus):
        outcomes = collections.Counter()
        assert next(frontier_mismatches(corpus, outcomes), None) is None
        assert min(outcomes[True], outcomes[False]) > 400, outcomes

    def test_step_table_ignoring_marks_is_caught(self, corpus, monkeypatch):
        real = CompiledGraph.steps.func
        monkeypatch.setattr(CompiledGraph, "steps", property(lambda form: marks_at_w_ignored(real(form))))
        assert next(frontier_mismatches(corpus, collections.Counter()), None) is not None


class TestTwoSidedWalk:
    """``_joined`` walks from both ends of a query on an anterior form, the
    side with fewer frontier nodes first, and stops where the walks meet or
    as soon as one side runs out."""

    @pytest.fixture(scope="class")
    def corpus(self):
        """Anterior search forms of five to eight nodes, for queries whose B
        is one node and whose A is two or three."""
        graphs = []
        for seed in range(2):
            graphs += [g.anterior_graph() for g in generate_corpus(CorpusSpec(
                count=150, nodes=(5, 8), p_line=0.1, p_arrow=0.25, p_arc=0.1, p_multi=0.1, seed=7070 + seed,
            ))]
            graphs += [g for g in generate_corpus(CorpusSpec(
                count=100, nodes=(5, 8), p_line=0.2, p_arrow=0.25, p_arc=0.1, p_multi=0.1,
                constraint="ribbonless", seed=7170 + seed,
            )) if not g.is_anterior()]
        assert all(_search_form(g).anterior for g in graphs)
        assert sum(not g.is_anterior() for g in graphs) > 60
        return graphs

    def test_smaller_b_side_walks_first(self, corpus, monkeypatch):
        # B's side starts as (0, B), A's as (0, A): a run in which _step
        # never gets (0, A) never expanded A, so B met A, or B ran out.
        calls = []
        step = separation._step
        monkeypatch.setattr(separation, "_step", lambda steps, *fresh: calls.append(fresh[:2]) or step(steps, *fresh))
        rng = random.Random(7070)
        counts = collections.Counter()
        for g in corpus:
            form, nodes = _search_form(g), g.node_list()
            for _ in range(8):
                pick = rng.sample(nodes, len(nodes))
                na = rng.randint(2, 3)
                a, b = pick[:na], pick[na:na + 1]
                c = rng.sample(pick[na + 1:], rng.randint(0, len(nodes) - na - 1))
                sources, targets = [form.index[n] for n in a], [form.index[n] for n in b]
                calls.clear()
                answer = m_separated(g, a, b, c)
                assert answer == oracle_m_separated(g, a, b, c), (g, a, b, c)
                assert answer == reference_reach(form, sources, {form.index[n] for n in c}).isdisjoint(targets)
                assert calls[0] == (0, _mask(targets)), (g, a, b, c)
                counts[answer, (0, _mask(sources)) not in calls] += 1
        assert min(counts[True, True], counts[False, True]) > 100, counts

    def test_smaller_side_runs_out_at_once(self):
        """A count guard, not a clock: B's side has one frontier node to A's
        two, so it walks first, reaches m in C over a tail and runs out, where
        a walk from A alone runs down both 200-node chains."""
        chains = [[f"{p}{k:03d}" for k in range(200)] for p in "cd"]
        edges = [(u, "->", w) for chain in chains for u, w in zip(chain, chain[1:] + ["m"])]
        g = build_graph([*chains[0], *chains[1], "m", "x"], edges + [("m", "->", "x")])
        form = _search_form(g)
        reads = []

        class Counted(tuple):
            def __getitem__(self, v):
                reads.append(v)
                return tuple.__getitem__(self, v)

        form.__dict__["steps"] = Counted(form.steps)
        assert m_separated(g, ["c000", "d000"], ["x"], ["m"])
        assert len(reads) <= 8, len(reads)

    def test_arrowheads_meet_only_in_c(self):
        # Inside ant(A | B | C) a meet of two arrowheads at v outside C never
        # changes the answer: v has no line, so a directed path leads from v
        # into C, where the walks bounce, or to an end. The rule is checked
        # on the walks without their confinement: x's side walks first and
        # grows to three nodes, then y's side enters v with an arrowhead, as
        # x's side did, at a collider outside C.
        g = build_graph(["v", "w1", "w2", "x", "y"], [("x", "->", "v"), ("x", "->", "w1"), ("x", "->", "w2"), ("y", "->", "v")])
        form = copy.copy(_search_form(g))
        form.anterior_scope = lambda nodes: -1
        x, y, v = (form.index[n] for n in "xyv")
        assert not _joined(form, [x], [y], set())
        assert _joined(form, [x], [y], {v})
        assert m_separated(g, ["x"], ["y"]) and not m_separated(g, ["x"], ["y"], ["v"])

    def test_tails_meet_only_outside_c(self):
        # x's side walks first to p1 and p2 and y's side next; both enter v
        # in C over a tail, where no walk meets. Below, x's side enters v in
        # C with an arrowhead, where y's side never comes.
        g = build_graph(["p1", "p2", "v", "x", "y"], [("v", "->", "x"), ("p1", "->", "x"), ("p2", "->", "x"), ("v", "->", "y")])
        assert m_separated(g, ["x"], ["y"], ["v"])
        assert not m_connecting_path_exists(g, "x", "y", ["v"])
        assert not m_separated(g, ["x"], ["y"])
        g = build_graph(["v", "w", "x", "y"], [("x", "->", "v"), ("w", "->", "v")])
        assert m_separated(g, ["x"], ["y"], ["v"])
        assert not m_connecting_path_exists(g, "x", "y", ["v"])

    def test_b_side_entering_a_meets(self):
        # B's side walks first, as the smaller one, and enters a1.
        g = build_graph(["a1", "a2", "b"], [("a1", "->", "b")])
        assert not m_separated(g, ["a1", "a2"], ["b"])
        assert not m_separated(g, ["b"], ["a1", "a2"])


def diamond_chain(k):
    """x -> p -> z with k arrow diamonds hanging off p. Their labels sort
    before z, so a witness search that does not prune walks all 2**k
    dead-end paths through them before it tries p -> z."""
    edges = [("x", "->", "p"), ("p", "->", "z")]
    top = "p"
    for i in range(k):
        a, b, q = f"d{i:02d}a", f"d{i:02d}b", f"d{i:02d}q"
        edges += [(top, "->", a), (top, "->", b), (a, "->", q), (b, "->", q)]
        top = q
    return build_graph(sorted({n for a, _, b in edges for n in (a, b)}), edges)


def reaching(g, v):
    """v and the nodes that reach v in g: a backward search from v over the
    edges with a tail at the far end, lines and arrows pointing toward v."""
    found, stack = {v}, [v]
    while stack:
        w = stack.pop()
        for e in g.edges_at(w):
            u = e.other(w)
            if not e.head_at(u) and u not in found:
                found.add(u)
                stack.append(u)
    return found


def reference_anteriors(g, v):
    """ant(v) in g's anterior graph, v left out."""
    return reaching(g.anterior_graph(), v) - {v}


def unpruned_witness(g, x, y, c):
    """``find_m_connecting_path`` without its anterior pruning: the same
    depth-first search, every inner node held to the m-connecting
    predicate alone."""
    compiled = g.compiled
    index = compiled.index
    c_idx = {index[n] for n in c}
    open_colliders = sum(1 << v for v in c_idx) | compiled.ancestors(c_idx)

    def passes(v, head_in, head_out):
        return bool(open_colliders >> v & 1) if head_in and head_out else v not in c_idx

    return next(_admissible_paths(compiled, index[x], index[y], passes), None)


def confinement_queries(g, rng):
    """Every singleton query on a graph of up to six nodes, and twelve
    random set queries on any graph, as (A, B, C)."""
    nodes = g.node_list()
    if len(nodes) <= 6:
        yield from (([x], [y], c) for x, y, c in all_singleton_queries(g))
    for _ in range(12):
        pick = rng.sample(nodes, rng.randint(2, len(nodes)))
        na = rng.randint(1, len(pick) - 1)
        nb = rng.randint(1, len(pick) - na)
        yield pick[:na], pick[na:na + nb], pick[na + nb:]


def check_confinement(graphs):
    """The (graph, A, B, C) where ``_joined``, whose two walks keep to
    ant(A | B | C), answers otherwise than the visited-mask lane from A,
    which keeps to no such set, than ``reference_reach`` or than the path
    oracle; and a count of the queries by (answer, whether the confinement
    left some node out)."""
    rng = random.Random(8080)
    mismatches, counts = [], collections.Counter()
    for g in graphs:
        form = _search_form(g)
        index, everything = form.index, (1 << len(form.labels)) - 1
        for a, b, c in confinement_queries(g, rng):
            sources, targets, given = [index[n] for n in a], {index[n] for n in b}, {index[n] for n in c}
            answer = not _joined(form, sources, sorted(targets), given)
            if (answer != members(_reach(form, sources, given)).isdisjoint(targets)
                    or answer != reference_reach(form, sources, given).isdisjoint(targets)
                    or answer != oracle_m_separated(g, a, b, c)):
                mismatches.append((g, a, b, c))
            counts[answer, form.anterior_scope([*sources, *targets, *given]) != everything] += 1
    return mismatches, counts


def mask_mismatches(graphs):
    """Each (graph, node) whose ``anterior_masks`` entry, on the form the
    separation lanes search, is not the node and its anterior set."""
    for g in graphs:
        form = _search_form(g)
        for v, mask in enumerate(form.anterior_masks):
            label = form.labels[v]
            if {form.labels[w] for w in range(len(form.labels)) if mask >> w & 1} != {label} | reference_anteriors(g, label):
                yield g, label


def test_masks_on_every_form():
    """``anterior_masks`` on a graph's own compiled form and on its anterior
    form holds v and the nodes that reach v in that graph, parallel edges
    included."""
    graphs = [g for seed in (50, 51, 52)
              for g in generate_corpus(CorpusSpec(count=400, nodes=(3, 8), p_multi=0.2, seed=seed))]
    assert sum(not g.is_anterior() for g in graphs) > 500
    assert sum(len({e.canonical() for e in g.edges}) < len(g.edges) for g in graphs) > 500
    for g in graphs:
        for h, form in ((g, g.compiled), (g.anterior_graph(), g.compiled.anterior_form)):
            for v, mask in enumerate(form.anterior_masks):
                found = {form.labels[w] for w in range(len(form.labels)) if mask >> w & 1}
                assert found == reaching(h, form.labels[v]), (h, form.labels[v])


def masks_without_lines(compiled):
    """A planted fault: each node's ancestors and itself, line components left out."""
    return tuple(mask | 1 << v for v, mask in enumerate(compiled.ancestor_masks))


class TestAnteriorConfinement:
    """On an anterior form every node of an m-connecting path between A and
    B given C lies in ant(A | B | C). The two walks of ``_joined`` drop
    every state outside that set, and the witness search prunes every inner
    node outside ant({x, y} | C) on an anterior graph. Neither holds on a graph that is not anterior, so the visited-mask lane
    and the witness search there are never confined."""

    @pytest.fixture(scope="class")
    def corpus(self):
        """Graphs whose search form is anterior: anterior graphs with lines
        and arcs (the anterior graphs of unconstrained draws), with directed
        cycles (no lines), and ribbonless graphs that are not anterior,
        through their anterior forms."""
        graphs = []
        for seed in range(2):
            graphs += [g.anterior_graph() for g in generate_corpus(CorpusSpec(
                count=100, nodes=(3, 7), p_line=0.2, p_arrow=0.3, p_arc=0.2, p_multi=0.2, seed=8080 + seed,
            ))]
            graphs += generate_corpus(CorpusSpec(
                count=40, nodes=(3, 7), p_line=0.0, p_arrow=0.6, p_arc=0.2, p_multi=0.2, seed=8180 + seed,
            ))
            graphs += [g for g in generate_corpus(CorpusSpec(
                count=100, nodes=(3, 7), p_line=0.25, p_arrow=0.3, p_arc=0.15, p_multi=0.2,
                constraint="ribbonless", seed=8280 + seed,
            )) if not g.is_anterior()]
        forms = [_search_form(g) for g in graphs]
        assert all(form.anterior for form in forms)
        assert sum(any(form.lines) and any(form.parents) for form in forms) > 60
        assert sum(any(arcs for arcs, *_ in form.steps) for form in forms) > 60
        assert sum(bool(form.cyclic) for form in forms) > 30
        assert sum(not g.is_anterior() for g in graphs) > 60
        assert sum(len({e.canonical() for e in g.edges}) < len(g.edges) for g in graphs) > 100
        return graphs

    def test_confined_lane_matches_unconfined_lane_and_oracle(self, corpus):
        mismatches, counts = check_confinement(corpus)
        assert mismatches == []
        assert min(counts[answer, True] for answer in (True, False)) > 1500, counts

    def test_masks_are_anterior_sets(self, corpus):
        assert next(mask_mismatches(corpus), None) is None
        for g in corpus[::4]:
            for v in g.node_list():
                assert g.anteriors(v) == reference_anteriors(g, v), (g, v)

    def test_masks_without_line_components_are_caught(self, corpus, monkeypatch):
        monkeypatch.setattr(CompiledGraph, "anterior_masks", property(masks_without_lines))
        assert next(mask_mismatches(corpus), None) is not None
        assert check_confinement(corpus)[0]

    def test_witnesses_match_unpruned_search(self, corpus):
        rng = random.Random(8081)
        pruned = found = 0
        for g in corpus:
            nodes = g.node_list()
            for x, y in itertools.permutations(nodes, 2):
                rest = [n for n in nodes if n not in (x, y)]
                for c in (rest[:0], rest[:1], rng.sample(rest, rng.randint(0, len(rest)))):
                    expected = unpruned_witness(g, x, y, c)
                    assert find_m_connecting_path(g, x, y, c) == expected, (g, x, y, c)
                    found += expected is not None
                    if g.is_anterior():
                        scope = g.compiled.anterior_scope(g.compiled.index[n] for n in (x, y, *c))
                        pruned += scope != (1 << len(nodes)) - 1
        assert found > 2000 and pruned > 2000

    def test_witness_pruning_needs_an_anterior_graph(self, monkeypatch):
        # Neither v nor w lies in ant({x, y}), yet x -> v -- w <- y connects
        # x and y given nothing.
        g = build_graph(["v", "w", "x", "y"], [("x", "->", "v"), ("v", "--", "w"), ("w", "<-", "y")])
        assert not g.is_anterior()
        expected = unpruned_witness(g, "x", "y", [])
        assert expected.nodes == ("x", "v", "w", "y")
        assert find_m_connecting_path(g, "x", "y", []) == expected
        # Planted fault: prune whatever the graph's class.
        faulty = copy.copy(g.compiled)
        faulty.anterior = True
        monkeypatch.setitem(g.__dict__, "compiled", faulty)
        assert find_m_connecting_path(g, "x", "y", []) != expected

    def test_visited_mask_lane_is_not_confined(self):
        # README's augmented-graph counterexample: a -> b -- d <-> c
        # connects a and c given nothing, through b and d, which lie in
        # neither's anterior set on g's own rows.
        g = build_graph(["a", "b", "c", "d"], [("a", "->", "b"), ("a", "<->", "d"), ("b", "--", "d"), ("c", "<->", "d")])
        assert not g.ribbonless and _search_form(g) is g.compiled
        index = g.compiled.index
        a, c = index["a"], index["c"]
        assert not oracle_m_separated(g, ["a"], ["c"], [])
        assert c in members(_reach(g.compiled, [a], set(), {c}))
        # Planted fault: the visited-mask lane keeps to the anterior sets
        # its form's masks give, as the walk lane does.
        scope = g.compiled.anterior_masks[a] | g.compiled.anterior_masks[c]
        confined = copy.copy(g.compiled)
        confined.adjacency = tuple(
            tuple(entry for entry in row if scope >> entry[0] & 1) for row in g.compiled.adjacency
        )
        assert c not in members(_reach(confined, [a], set(), {c}))

    def test_diamond_chain_witness_is_pruned(self, monkeypatch):
        """A count guard, not a clock: unpruned, the search at k = 16 tries
        every one of the 2**16 dead-end paths through the diamonds."""
        g = diamond_chain(16)
        calls = []

        def counted(compiled, source, target, passes):
            return _admissible_paths(compiled, source, target, lambda *args: calls.append(args) or passes(*args))

        monkeypatch.setattr(separation, "_admissible_paths", counted)
        assert find_m_connecting_path(g, "x", "z", []).nodes == ("x", "p", "z")
        assert len(calls) <= len(g.nodes)


class TestCombineMConnecting:
    def test_non_collider_junction_concatenates(self):
        g = build_graph(["i", "h", "j"], [("i", "->", "h"), ("h", "->", "j")])
        p1, p2 = make_path(g, ["i", "h"]), make_path(g, ["h", "j"])
        combined = combine_m_connecting(g, p1, p2, [])
        assert combined is not None and combined.nodes == ("i", "h", "j")
        assert is_m_connecting_path(g, combined, [])

    def test_collider_junction_needs_conditioning(self):
        g = build_graph(["i", "h", "j"], [("i", "->", "h"), ("j", "->", "h")])
        p1, p2 = make_path(g, ["i", "h"]), make_path(g, ["h", "j"])
        assert combine_m_connecting(g, p1, p2, []) is None
        combined = combine_m_connecting(g, p1, p2, ["h"])
        assert combined is not None
        assert is_m_connecting_path(g, combined, ["h"])

    def test_rejects_non_anterior_graph(self):
        g = build_graph(["i", "h", "j"], [("i", "->", "h"), ("h", "--", "j")])
        p1, p2 = make_path(g, ["i", "h"]), make_path(g, ["h", "j"])
        with pytest.raises(GraphError, match="anterior"):
            combine_m_connecting(g, p1, p2, [])

    def test_rejects_non_connecting_input(self, figures):
        g = figures["fig3"]  # no lines: already anterior
        blocked = make_path(g, ["i", "h", "j"])
        tail = make_path(g, ["j"])  # degenerate
        with pytest.raises(GraphError):
            combine_m_connecting(g, blocked, tail, [])
        with pytest.raises(GraphError, match="m-connecting"):
            combine_m_connecting(g, blocked, make_path(g, ["j", "h"]), [])

    def test_randomized_combinations_validate(self):
        rng = random.Random(2024)
        corpus = [
            g.anterior_graph()
            for g in generate_corpus(CorpusSpec(count=60, nodes=(3, 5), seed=606))
        ]
        returned = 0
        for g in corpus:
            nodes = g.node_list()
            pool = [n for n in nodes]
            c = frozenset(n for n in pool if rng.random() < 0.3)
            # collect m-connecting paths grouped by their endpoints
            connecting = {}
            for x, y in itertools.permutations(nodes, 2):
                if x in c or y in c:
                    continue
                path = find_m_connecting_path(g, x, y, c)
                if path is not None:
                    connecting[(x, y)] = path
            for (x, h), p1 in connecting.items():
                for (h2, y), p2 in connecting.items():
                    if h2 != h or y == x:
                        continue
                    combined = combine_m_connecting(g, p1, p2, c)
                    if combined is not None:
                        returned += 1
                        assert combined.first == x and combined.last == y
                        assert is_m_connecting_path(g, combined, c)
        assert returned > 20


# x -- h -> j is anterior; the arc x <-> h is no edge of it.
PATH_GRAPH = build_graph(["x", "h", "j"], [("x", "--", "h"), ("h", "->", "j")])
FOREIGN_PATH = make_path(build_graph(["x", "h", "j"], [("x", "<->", "h")]), ["x", "h"])


@pytest.mark.parametrize("call, expected", [
    (lambda: is_m_connecting_path(PATH_GRAPH, FOREIGN_PATH), "path does not belong to this graph"),
    (lambda: is_m_connecting_path(PATH_GRAPH, make_path(PATH_GRAPH, ["x"])), False),
    (lambda: combine_m_connecting(PATH_GRAPH, FOREIGN_PATH, make_path(PATH_GRAPH, ["h", "j"])),
     "paths do not belong to this graph"),
    (lambda: combine_m_connecting(PATH_GRAPH, make_path(PATH_GRAPH, ["x", "h"]), make_path(PATH_GRAPH, ["j", "h"])),
     "paths do not share an endpoint"),
    # h -- x back over the same line collapses to the one node x
    (lambda: combine_m_connecting(PATH_GRAPH, make_path(PATH_GRAPH, ["x", "h"]), make_path(PATH_GRAPH, ["h", "x"])),
     None),
])
def test_path_checks_refuse_or_answer_no(call, expected):
    """A string is the refusal's message; anything else the answer."""
    if isinstance(expected, str):
        with pytest.raises(GraphError, match=expected):
            call()
    else:
        assert call() is expected


def augmented_separated(g, a, b, c):
    """The augmented-graph test of Richardson and Spirtes (2002), with anterior
    sets read in g itself: over S, A, B and C with their anteriors in g, join
    two nodes when a path of g[S] on which every inner node is a collider
    joins them, and ask whether C blocks every route from A to B there."""
    s, stack = set(a | b | c), list(a | b | c)
    while stack:
        v = stack.pop()
        for e in g.edges_at(v):
            u = e.other(v)
            if not e.head_at(u) and u not in s:  # u -- v or u -> v
                s.add(u)
                stack.append(u)
    sub = MixedGraph(s, [e for e in g.edges if e.a in s and e.b in s])
    joined = {
        (x, y) for x, y in itertools.permutations(sorted(s), 2)
        if any(all(p.is_collider_at(k) for k in range(1, len(p.nodes) - 1)) for p in _simple_paths(sub, x, y))
    }
    reached, stack = set(a), list(a)
    while stack:
        v = stack.pop()
        for x, y in joined:
            if x == v and y not in reached and y not in c:
                reached.add(y)
                stack.append(y)
    return reached.isdisjoint(b)


class TestAugmentedCriterion:
    """Why no polynomial augmented-graph lane: on this graph with a ribbon,
    reading anterior sets in the graph itself, the criterion answers both
    queries wrongly, where the engine and the path oracle agree."""

    def test_smallest_counterexample(self):
        g = build_graph(["a", "b", "c", "d"], [("a", "->", "b"), ("a", "<->", "d"), ("b", "--", "d"), ("c", "<->", "d")])
        assert not g.ribbonless
        # Given b, the collider d is an anterior of b but not an ancestor:
        # the criterion joins a and c through it.
        assert m_separated(g, ["a"], ["c"], ["b"]) and oracle_m_separated(g, ["a"], ["c"], ["b"])
        assert not augmented_separated(g, {"a"}, {"c"}, {"b"})
        # Given nothing, S is {a, c}, which drops the path a -> b -- d <-> c.
        assert not m_separated(g, ["a"], ["c"], []) and not oracle_m_separated(g, ["a"], ["c"], [])
        assert augmented_separated(g, {"a"}, {"c"}, set())
        assert find_m_connecting_path(g, "a", "c", []).nodes == ("a", "b", "d", "c")


class TestModelsViaOracle:
    def test_fig9b_singleton_model_matches_oracle(self, figures):
        g = figures["fig9b"]
        engine_model = enumerate_model(g, singleton_only=True)
        expected = set()
        for x, y, c in all_singleton_queries(g):
            if oracle_m_separated(g, [x], [y], c):
                for a, b in ((x, y), (y, x)):
                    expected.add((frozenset([a]), frozenset([b]), c))
        got = {(s.a, s.b, s.c) for s in engine_model.statements}
        assert got == expected


@pytest.mark.skipif(nx is None, reason="networkx is not installed")
class TestDSeparationCrossCheck:
    """m_separated against networkx d-separation on graphs far past the path
    oracle's reach. On a DAG m-separation is d-separation; on an ADMG it is
    d-separation in the canonical DAG, which gives every arc its own latent
    parent."""

    @staticmethod
    def sparse_admg(rng, n, arcs):
        order = [f"v{k:03d}" for k in range(n)]
        rng.shuffle(order)
        edges = []
        for i in range(1, n):
            for p in rng.sample(range(max(0, i - 25), i), min(i, rng.choice((0, 1, 2, 3)))):
                edges.append((order[p], "->", order[i]))
        pairs = set()
        while len(pairs) < arcs:
            i, j = sorted(rng.sample(range(n), 2))
            if j - i <= 20:
                pairs.add((order[i], order[j]))
        edges += [(x, "<->", y) for x, y in sorted(pairs)]
        return build_graph(sorted(order), edges)

    @staticmethod
    def canonical_dag(g):
        dag = nx.DiGraph()
        dag.add_nodes_from(g.nodes)
        for k, e in enumerate(g.edges):
            if e.kind is EdgeKind.ARROW:
                dag.add_edge(e.source, e.target)
            else:
                dag.add_edges_from([(f"latent{k}", e.a), (f"latent{k}", e.b)])
        return dag

    @pytest.mark.parametrize("n", [50, 100, 200, 400])
    @pytest.mark.parametrize("arcs", [0, 15])
    def test_agrees_with_networkx(self, n, arcs):
        rng = random.Random(n * 100 + arcs)
        g = self.sparse_admg(rng, n, arcs * n // 50)
        dag = self.canonical_dag(g)
        assert nx.is_directed_acyclic_graph(dag)
        nodes = g.node_list()
        outcomes = []
        for k in range(60):
            if k % 2:
                # A local Markov query: x given its parents, against some of
                # its non-descendants; separated when x has no arcs.
                x = rng.choice(nodes)
                parents = set(dag.predecessors(x))
                others = sorted(set(nodes) - {x} - parents - nx.descendants(dag, x))
                if not others:
                    continue
                a, b = [x], rng.sample(others, min(len(others), rng.randint(1, 3)))
                c = sorted(parents & g.nodes)
            else:
                pick = rng.sample(nodes, 6 + 12)
                a = pick[: rng.randint(1, 3)]
                b = pick[3 : 3 + rng.randint(1, 3)]
                c = pick[6 : 6 + rng.randint(0, 12)]
            want = nx.is_d_separator(dag, set(a), set(b), set(c))
            assert m_separated(g, a, b, c) == want, (a, b, c)
            outcomes.append(want)
        assert any(outcomes) and not all(outcomes)
