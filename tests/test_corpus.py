"""Corpus generator: determinism, constraints, and rejection accounting."""

import pytest

from lmgraphs import (
    CorpusSpec,
    GraphError,
    classify,
    generate_corpus,
    is_maximal,
    is_ribbonless,
    oracle_is_maximal,
)


def test_seed_determinism():
    spec = CorpusSpec(count=12, nodes=(4, 4), p_line=0.2, p_arrow=0.3, p_arc=0.2, seed=42)
    assert generate_corpus(spec) == generate_corpus(spec)


def test_different_seeds_differ():
    a = generate_corpus(CorpusSpec(count=12, nodes=(3, 5), seed=1))
    b = generate_corpus(CorpusSpec(count=12, nodes=(3, 5), seed=2))
    assert a != b


def test_graphs_are_loopless_and_in_range():
    for g in generate_corpus(CorpusSpec(count=30, nodes=(2, 6), seed=5)):
        assert g.is_loopless()
        assert 2 <= len(g.nodes) <= 6


def test_multi_edges_appear():
    corpus = generate_corpus(CorpusSpec(count=30, nodes=(4, 5), p_multi=0.5, seed=8))
    assert any(len(g.edges) > len({e.canonical() for e in g.edges}) for g in corpus)


def test_ribbonless_constraint_enforced():
    spec = CorpusSpec(count=25, nodes=(3, 6), constraint="ribbonless", seed=13)
    for g in generate_corpus(spec):
        assert is_ribbonless(g)


def test_maximal_ribbonless_constraint_enforced():
    spec = CorpusSpec(count=15, nodes=(3, 5), constraint="maximal-ribbonless", seed=14)
    for g in generate_corpus(spec):
        assert is_ribbonless(g)
        assert is_maximal(g)
        assert oracle_is_maximal(g)


def test_maximal_ribbonless_rejects_completions_that_gain_a_ribbon():
    # Some draws of these seeds are ribbonless, but their maximal completion
    # gains a ribbon; such a draw is rejected like any other.
    for nodes, seed in (((3, 5), 244), ((4, 6), 42)):
        spec = CorpusSpec(count=20, nodes=nodes, constraint="maximal-ribbonless", seed=seed)
        graphs = generate_corpus(spec)
        assert len(graphs) == 20
        for g in graphs:
            assert is_ribbonless(g) and is_maximal(g)


def test_bidirected_probabilities_give_bidirected_graphs():
    spec = CorpusSpec(count=20, nodes=(3, 5), p_line=0.0, p_arrow=0.0, p_arc=0.5, seed=15)
    for g in generate_corpus(spec):
        assert classify(g).bidirected


def test_invalid_specs_rejected():
    with pytest.raises(GraphError, match="probability"):
        CorpusSpec(count=1, nodes=(2, 3), p_line=1.5)
    with pytest.raises(GraphError, match="node range"):
        CorpusSpec(count=1, nodes=(5, 3))
    with pytest.raises(GraphError, match="constraint"):
        CorpusSpec(count=1, nodes=(2, 3), constraint="acyclic")
    with pytest.raises(GraphError, match="count must be non-negative"):
        CorpusSpec(count=-1, nodes=(2, 3))


def test_rejection_budget_reports_acceptance_rate():
    # dense graphs on a fixed seed: ribbons everywhere, tiny budget
    spec = CorpusSpec(
        count=5,
        nodes=(6, 6),
        p_line=0.9,
        p_arrow=0.9,
        p_arc=0.9,
        constraint="ribbonless",
        seed=3,
        max_attempts_per_graph=3,
    )
    with pytest.raises(GraphError, match="acceptance rate"):
        generate_corpus(spec)
