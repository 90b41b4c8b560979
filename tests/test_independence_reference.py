"""The bitmask independence kernel against literal references.

Each reference below spells the definition out one statement at a time with
frozensets: a model is every assignment of the nodes to A, B, C (rest
unused) that one ``m_separated`` call confirms; an axiom check quantifies
over every assignment to A, B, C, D and asks ``IndependenceModel.contains``;
Markov equivalence compares two singleton statement sets, and its
counterexample is the smallest statement in just one of them; membership is
a lookup in the statement set; the pairwise model asks each node for its own
anterior set. The library must return exactly what they return, first
violations included.
"""

import itertools
import random

import pytest
from hypothesis import given, settings

from lmgraphs import (
    Axiom,
    CorpusSpec,
    IndependenceModel,
    IndependenceStatement,
    MixedGraph,
    check_axiom,
    enumerate_model,
    generate_corpus,
    m_separated,
    markov_equivalent,
    pairwise_model,
)
from lmgraphs.independence import AxiomViolation, _counterexample, _proper_splits
from test_independence import models

AXIOMS = sorted(Axiom, key=lambda a: a.value)


def reference_model(graph, singleton_only=False):
    nodes = graph.node_list()
    statements = []
    if singleton_only:
        for x, y in itertools.permutations(nodes, 2):
            rest = [n for n in nodes if n not in (x, y)]
            for r in range(len(rest) + 1):
                for c in itertools.combinations(rest, r):
                    if m_separated(graph, [x], [y], c):
                        statements.append(IndependenceStatement.of([x], [y], c))
    else:
        for assignment in itertools.product(range(4), repeat=len(nodes)):
            a, b, c = (
                frozenset(n for n, slot in zip(nodes, assignment) if slot == k)
                for k in range(3)
            )
            if a and b and m_separated(graph, a, b, c):
                statements.append(IndependenceStatement(a, b, c))
    return IndependenceModel(graph.nodes, statements)


def reference_check_axiom(model, axiom):
    stmts = model.sorted_statements()
    if axiom is Axiom.SYMMETRY:
        for s in stmts:
            if not model.contains(s.b, s.a, s.c):
                return AxiomViolation(axiom, s.a, s.b, s.c, frozenset(), s.mirrored())
        return None
    if axiom in (Axiom.DECOMPOSITION, Axiom.WEAK_UNION):
        for s in stmts:
            for kept, dropped in _proper_splits(s.b):
                c = s.c if axiom is Axiom.DECOMPOSITION else s.c | dropped
                needed = IndependenceStatement(s.a, kept, c)
                if needed not in model:
                    return AxiomViolation(axiom, s.a, kept, s.c, dropped, needed)
        return None
    nodes = sorted(model.ground_set)
    S = IndependenceStatement
    for assignment in itertools.product(range(5), repeat=len(nodes)):
        a, b, c, d = (
            frozenset(n for n, slot in zip(nodes, assignment) if slot == k)
            for k in range(4)
        )
        if not a or not b or not d:
            continue
        has = model.contains
        if axiom is Axiom.CONTRACTION:
            lhs = has(a, b, c | d) and has(a, d, c)
            rhs = has(a, b | d, c)
            if lhs and not rhs:
                return AxiomViolation(axiom, a, b, c, d, S(a, b | d, c))
            if rhs and not lhs:
                missing = S(a, b, c | d) if not has(a, b, c | d) else S(a, d, c)
                return AxiomViolation(axiom, a, b, c, d, missing)
        elif axiom is Axiom.INTERSECTION:
            if has(a, b, c | d) and has(a, d, c | b) and not has(a, b | d, c):
                return AxiomViolation(axiom, a, b, c, d, S(a, b | d, c))
        elif has(a, b, c) and has(a, d, c) and not has(a, b | d, c):
            return AxiomViolation(axiom, a, b, c, d, S(a, b | d, c))
    return None


def thinned(model, rng, symmetry_closed):
    """The model with about a fifth of its statements dropped."""
    kept = [s for s in model.sorted_statements() if rng.random() >= 0.2]
    return IndependenceModel(model.ground_set, kept, symmetry_closed=symmetry_closed)


@pytest.fixture(scope="module")
def corpus():
    """Graphs of 2-6 nodes with multi-edges, anterior and not."""
    graphs = generate_corpus(
        CorpusSpec(count=300, nodes=(2, 6), p_line=0.25, p_arrow=0.3, p_arc=0.25, p_multi=0.2, seed=6060)
    )
    assert sum(g.is_anterior() for g in graphs) not in (0, len(graphs))
    return graphs


def test_models_equal_reference(corpus):
    for g in corpus:
        assert enumerate_model(g) == reference_model(g), g
        assert enumerate_model(g, singleton_only=True) == reference_model(g, True), g


def test_axiom_checks_equal_reference(corpus):
    rng = random.Random(61)
    small = [g for g in corpus if len(g.nodes) <= 5][:100]
    for g in small:
        full = enumerate_model(g)
        for symmetry_closed in (False, True):
            for model in (
                IndependenceModel(g.nodes, full.statements, symmetry_closed=symmetry_closed),
                thinned(full, rng, symmetry_closed),
            ):
                for axiom in AXIOMS:
                    assert check_axiom(model, axiom) == reference_check_axiom(model, axiom), (g, axiom)


def test_axiom_checks_equal_reference_on_six_nodes(corpus):
    """Six-node models, full and thinned, both symmetry flags: rows of 64
    conditioning sets, beyond the five-node cap of the acceptance tests."""
    rng = random.Random(66)
    six = [g for g in corpus if len(g.nodes) == 6][:10]
    assert len(six) == 10
    for k, g in enumerate(six):
        full = enumerate_model(g)
        for model in (
            IndependenceModel(g.nodes, full.statements, symmetry_closed=k % 2 == 1),
            thinned(full, rng, symmetry_closed=k % 2 == 0),
        ):
            for axiom in AXIOMS:
                assert check_axiom(model, axiom) == reference_check_axiom(model, axiom), (g, axiom)


def failing_instances(model, axiom):
    """Every instance (A, B, C, D) at which the axiom fails, in the order
    ``reference_check_axiom`` visits them."""
    has = model.contains
    found = []
    if axiom in (Axiom.SYMMETRY, Axiom.DECOMPOSITION, Axiom.WEAK_UNION):
        for s in model.sorted_statements():
            if axiom is Axiom.SYMMETRY:
                if not has(s.b, s.a, s.c):
                    found.append((s.a, s.b, s.c, frozenset()))
                continue
            for kept, dropped in _proper_splits(s.b):
                if not has(s.a, kept, s.c if axiom is Axiom.DECOMPOSITION else s.c | dropped):
                    found.append((s.a, kept, s.c, dropped))
        return found
    nodes = sorted(model.ground_set)
    for assignment in itertools.product(range(5), repeat=len(nodes)):
        a, b, c, d = (
            frozenset(n for n, slot in zip(nodes, assignment) if slot == k)
            for k in range(4)
        )
        if not a or not b or not d:
            continue
        if axiom is Axiom.CONTRACTION:
            fails = (has(a, b, c | d) and has(a, d, c)) != has(a, b | d, c)
        elif axiom is Axiom.INTERSECTION:
            fails = has(a, b, c | d) and has(a, d, c | b) and not has(a, b | d, c)
        else:
            fails = has(a, b, c) and has(a, d, c) and not has(a, b | d, c)
        if fails:
            found.append((a, b, c, d))
    return found


@pytest.mark.parametrize("axiom", AXIOMS, ids=lambda a: a.value)
def test_first_violation_is_the_minimum_instance(axiom):
    """Raw models with several violations each, their statements given in
    reverse sort order: the violation reported is the first one in the
    reference's order, wherever its row sits in the model."""
    graphs = generate_corpus(
        CorpusSpec(count=40, nodes=(5, 5), p_line=0.25, p_arrow=0.3, p_arc=0.25, seed=6161)
    )
    rng = random.Random(63)
    checked = 0
    for g in graphs:
        full = enumerate_model(g).sorted_statements()
        kept = [s for s in full if rng.random() >= 0.3]
        model = IndependenceModel(g.nodes, reversed(kept))
        failing = failing_instances(model, axiom)
        if len(failing) < 2:
            continue
        violation = check_axiom(model, axiom)
        assert violation == reference_check_axiom(model, axiom), (g, axiom)
        assert (violation.a, violation.b, violation.c, violation.d) == failing[0]
        checked += 1
    assert checked >= 10


@settings(max_examples=60, deadline=None)
@given(models())
def test_axiom_checks_equal_reference_on_raw_models(m):
    for model in (m, IndependenceModel(m.ground_set, m.statements, symmetry_closed=True)):
        for axiom in AXIOMS:
            assert check_axiom(model, axiom) == reference_check_axiom(model, axiom)


def test_equivalence_equals_statement_sets(corpus):
    singleton: dict = {}

    def statements(h):
        if h not in singleton:
            singleton[h] = reference_model(h, True).statements
        return singleton[h]

    verdicts = []
    for k, g in enumerate(corpus):
        partners = [g.anterior_graph()]
        if g.edges:
            partners.append(MixedGraph(g.node_list(), g.edges[:-1]))
        partners += [h for h in corpus[k + 1 : k + 4] if h.nodes == g.nodes]
        for h in partners:
            verdict = markov_equivalent(g, h)
            assert verdict == (statements(g) == statements(h)), (g, h)
            verdicts.append(verdict)
            if not verdict:
                first = min(statements(g) ^ statements(h), key=IndependenceStatement.sort_key)
                assert _counterexample(g, h) == (first, first in statements(g)), (g, h)
    assert verdicts.count(False) > 190 and verdicts.count(True) > 0


@pytest.mark.parametrize("symmetry_closed", [False, True])
def test_contains_equals_statement_membership(corpus, symmetry_closed):
    """Random triples over the ground set and two foreign labels, sides
    overlapping or not, against a plain lookup in the statement set."""
    rng = random.Random(62 + symmetry_closed)
    checked = 0
    for g in [g for g in corpus if len(g.nodes) <= 5][:60]:
        full = enumerate_model(g)
        model = thinned(full, rng, symmetry_closed)
        stored = {(s.a, s.b, s.c) for s in model.statements}
        labels = g.node_list() + ["x9", "y9"]
        triples = [(s.a, s.b, s.c) for s in full.sorted_statements()[:40]]
        triples += [
            tuple(frozenset(rng.sample(labels, rng.randint(0, 2))) for _ in range(3))
            for _ in range(60)
        ]
        for a, b, c in triples:
            expected = (
                not a or not b or (a, b, c) in stored or (symmetry_closed and (b, a, c) in stored)
            )
            assert model.contains(a, b, c) == expected, (g, a, b, c)
            checked += 1
    assert checked > 4000


def test_pairwise_model_equals_per_node_anteriors(corpus):
    for g in corpus:
        expected = []
        for x, y in itertools.combinations(g.node_list(), 2):
            if not g.adjacent(x, y):
                s = IndependenceStatement.of([x], [y], (g.anteriors(x) | g.anteriors(y)) - {x, y})
                expected += [s, s.mirrored()]
        model = pairwise_model(g)
        assert model == IndependenceModel(g.nodes, expected) and model.symmetry_closed, g
