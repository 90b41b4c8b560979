"""Acceptance suite: the worked examples reproduced exactly, plus the
property-scale verification of every theorem at desk scale.

Run as `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion with its timing.
"""

import itertools
import time

from lmgraphs import (
    COMPOSITIONAL_GRAPHOID,
    COMPOSITIONAL_SEMI_GRAPHOID,
    GRAPHOID,
    IndependenceStatement,
    RibbonFlavor,
    check_axioms,
    closure,
    enumerate_model,
    find_m_connecting_path,
    find_ribbons,
    is_maximal,
    is_ribbonless,
    m_separated,
    markov_equivalent,
    maximality_violations,
    maximalize,
    oracle_is_maximal,
    oracle_m_separated,
    pairwise_model,
)
from test_separation import mask_lane_model

S = IndependenceStatement.of


def _passed(criterion: int, started: float, budget: float, note: str) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f}s > {budget}s"
    print(f"[criterion {criterion:02d}] PASS in {elapsed:.2f}s — {note}")


def all_singleton_queries(g):
    nodes = g.node_list()
    for x, y in itertools.permutations(nodes, 2):
        rest = [n for n in nodes if n not in (x, y)]
        for r in range(len(rest) + 1):
            for c in itertools.combinations(rest, r):
                yield x, y, frozenset(c)


def test_c01_fig3_separation(figures):
    t0 = time.monotonic()
    g = figures["fig3"]
    assert not m_separated(g, ["i"], ["j"], ["l"])
    witness = find_m_connecting_path(g, "i", "j", ["l"])
    assert witness is not None and witness.nodes == ("i", "h", "j")
    assert "h" in g.ancestors(["l"])
    assert m_separated(g, ["i"], ["j"], [])
    _passed(1, t0, 1.0, "fig3 msep booleans and witness through h")


def test_c02_fig2_anterior(figures):
    t0 = time.monotonic()
    g = figures["fig2a"]
    assert g.anteriors("i") == {"l", "h", "j", "p"}
    assert g.anteriors("p") == {"l", "h", "j"}
    assert g.anterior_graph() == figures["fig2b"]
    _passed(2, t0, 1.0, "fig2 anterior sets and anterior-graph fixture match")


def test_c03_ribbons(figures):
    t0 = time.monotonic()
    (straight,) = find_ribbons(figures["fig4a"])
    assert straight.tripath.nodes == ("h", "i", "j")
    assert straight.flavor is RibbonFlavor.STRAIGHT
    (cyclic,) = find_ribbons(figures["fig4b"])
    assert cyclic.tripath.nodes == ("h", "i", "j")
    assert cyclic.flavor is RibbonFlavor.CYCLIC
    assert not is_ribbonless(figures["fig5a"])
    assert is_ribbonless(figures["fig5b"])
    _passed(3, t0, 1.0, "fig4/fig5 ribbon inventory")


def test_c04_fig6_maximality(figures):
    t0 = time.monotonic()
    g = figures["fig6"]
    violations = maximality_violations(g)
    assert not is_maximal(g)
    assert [(x, y) for x, y, _ in violations] == [("i", "j")]
    assert violations[0][2].nodes == ("i", "k", "j")
    for c in ([], ["k"]):  # every subset of {k}
        assert not oracle_m_separated(g, ["i"], ["j"], c)
    completed = maximalize(g)
    added = {e.canonical() for e in completed.edges} - {
        e.canonical() for e in g.edges
    }
    assert added == {("i", "j", "tail", "head")}
    assert is_maximal(completed)
    assert markov_equivalent(g, completed)
    _passed(4, t0, 1.0, "fig6 violation, oracle confirmation, completion")


def test_c05_fig7_pairwise_and_global(figures):
    t0 = time.monotonic()
    g = figures["fig7"]
    pw = pairwise_model(g)
    for_pairs = {
        frozenset((next(iter(s.a)), next(iter(s.b)))): s.c
        for s in pw.statements
    }
    assert for_pairs[frozenset(("i", "m"))] == {"k", "l", "h"}
    assert for_pairs[frozenset(("l", "p"))] == {"h", "m"}
    assert m_separated(g, ["i", "k"], ["j"], ["l"])
    _passed(5, t0, 1.0, "fig7 pairwise statements and global query")


def test_c06_compositional_graphoid_axioms(figures, lmg_corpus):
    t0 = time.monotonic()
    assert len(lmg_corpus) >= 500
    violations = []
    for g in lmg_corpus:
        model = enumerate_model(g, limit=5)
        for axiom, violation in check_axioms(model).items():
            if violation is not None:
                violations.append((g, axiom, violation))
    assert violations == []
    _passed(6, t0, 120.0, f"all six axioms on {len(lmg_corpus)} random models")


def test_c07_anterior_markov_equivalence(figures, rg_corpus):
    t0 = time.monotonic()
    assert len(rg_corpus) >= 300
    # Enumeration answers a ribbonless g on its anterior form, so g's side
    # runs the visited-mask lane on g itself.
    for g in rg_corpus:
        star = g.anterior_graph()
        m_g = mask_lane_model(g)
        m_star = enumerate_model(star, singleton_only=True, limit=6)
        assert m_g.statements == m_star.statements, f"model changed for {g}"
    # the non-ribbonless counterexample really does differ, at (h, j | {})
    fig4a = figures["fig4a"]
    star = fig4a.anterior_graph()
    probe = S(["h"], ["j"], [])
    assert probe in enumerate_model(fig4a, singleton_only=True)
    assert probe not in enumerate_model(star, singleton_only=True)
    _passed(7, t0, 120.0, f"anterior equivalence on {len(rg_corpus)} ribbonless graphs")


def test_c08_maximality_criterion_cross_validation(rg_corpus):
    t0 = time.monotonic()
    assert len(rg_corpus) >= 300
    for g in rg_corpus:
        assert is_maximal(g) == oracle_is_maximal(g), f"disagreement on {g}"
    _passed(8, t0, 120.0, f"inducing-path test vs subset search on {len(rg_corpus)} graphs")


def test_c09_pairwise_closure_covers_global(maximal_rg_corpus):
    t0 = time.monotonic()
    assert len(maximal_rg_corpus) >= 100
    gaps = []
    for g in maximal_rg_corpus:
        induced = enumerate_model(g, limit=5)
        closed = closure(pairwise_model(g), COMPOSITIONAL_GRAPHOID)
        gaps.extend(s for s in induced.statements if s not in closed)
    assert gaps == []
    _passed(9, t0, 300.0, f"closure covers J_m on {len(maximal_rg_corpus)} maximal graphs")


def test_c10_necessity_triptych(figures):
    t0 = time.monotonic()
    pw_a = pairwise_model(figures["fig9a"])
    target_a = S(["i"], ["k", "l"], ["j"])
    assert target_a in closure(pw_a, GRAPHOID)
    assert target_a not in closure(pw_a, COMPOSITIONAL_SEMI_GRAPHOID)

    pw_b = pairwise_model(figures["fig9b"])
    target_b = S(["i"], ["k", "l"], [])
    assert target_b not in closure(pw_b, GRAPHOID)
    assert target_b in closure(pw_b, COMPOSITIONAL_GRAPHOID)

    pw_c = pairwise_model(figures["fig9c"])
    target_c = S(["l"], ["i", "k"], ["j"])
    assert target_c in closure(pw_c, GRAPHOID)
    assert target_c not in closure(pw_c, COMPOSITIONAL_SEMI_GRAPHOID)
    _passed(10, t0, 10.0, "intersection/composition necessity reproduced")


def test_c11_bidirected_needs_no_intersection(bidirected_corpus):
    t0 = time.monotonic()
    assert len(bidirected_corpus) >= 100
    gaps = []
    for g in bidirected_corpus:
        induced = enumerate_model(g, limit=5)
        closed = closure(pairwise_model(g), COMPOSITIONAL_SEMI_GRAPHOID)
        gaps.extend(s for s in induced.statements if s not in closed)
    assert gaps == []
    _passed(11, t0, 120.0, f"composition suffices on {len(bidirected_corpus)} bidirected graphs")


def test_c12_engine_oracle_agreement(lmg_corpus, rg_corpus):
    t0 = time.monotonic()
    disagreements = 0
    for g in lmg_corpus + rg_corpus:
        for x in g.node_list():
            rest = [n for n in g.node_list() if n != x]
            for r in range(len(rest) + 1):
                for c_tuple in itertools.combinations(rest, r):
                    c = frozenset(c_tuple)
                    for y in rest:
                        if y in c:
                            continue
                        engine = m_separated(g, [x], [y], c)
                        oracle = oracle_m_separated(g, [x], [y], c)
                        if engine != oracle:
                            disagreements += 1
                            print(f"DISAGREE {g} {x} {y} {sorted(c)}")
    assert disagreements == 0
    _passed(12, t0, 600.0, "engine matches the path oracle on every singleton query")
