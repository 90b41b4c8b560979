"""Seeded random graph corpora for property tests and the gen subcommand.

A CorpusSpec pins node-count range, per-kind edge probabilities, a multi-edge
probability, an optional structural constraint, and the seed; the seed fully
determines the output. Constraints are enforced by rejection sampling, plus
the maximal completion for maximal-ribbonless: ``maximalize`` refuses a draw
with a ribbon, scans each graph it builds for ribbons and stops only when no
violation is left, so its output needs no second check.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Optional

from .graph import GraphError, MixedGraph, build_graph
from .structure import is_ribbonless, maximalize

CONSTRAINTS = ("none", "ribbonless", "maximal-ribbonless")

_LABELS = string.ascii_lowercase


@dataclass(frozen=True)
class CorpusSpec:
    count: int
    nodes: tuple[int, int]  # inclusive range
    p_line: float = 0.25
    p_arrow: float = 0.3
    p_arc: float = 0.2
    p_multi: float = 0.1
    constraint: str = "none"
    seed: int = 0
    max_attempts_per_graph: int = 1000

    def __post_init__(self) -> None:
        lo, hi = self.nodes
        if not 1 <= lo <= hi <= len(_LABELS):
            raise GraphError(f"bad node range {self.nodes}")
        for p in (self.p_line, self.p_arrow, self.p_arc, self.p_multi):
            if not 0.0 <= p <= 1.0:
                raise GraphError(f"probability {p} outside [0, 1]")
        if self.constraint not in CONSTRAINTS:
            raise GraphError(f"unknown constraint {self.constraint!r}")
        if self.count < 0:
            raise GraphError("count must be non-negative")


def random_lmg(rng: random.Random, spec: CorpusSpec) -> MixedGraph:
    """One unconstrained draw: independent per-kind coins for every pair,
    then a chance to duplicate each chosen edge."""
    n = rng.randint(*spec.nodes)
    labels = list(_LABELS[:n])
    edges: list[tuple[str, str, str]] = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = labels[i], labels[j]
            if rng.random() < spec.p_line:
                edges.append((a, "--", b))
            if rng.random() < spec.p_arrow:
                edges.append((a, "->", b) if rng.random() < 0.5 else (b, "->", a))
            if rng.random() < spec.p_arc:
                edges.append((a, "<->", b))
    for e in list(edges):
        if rng.random() < spec.p_multi:
            edges.append(e)
    return build_graph(labels, edges)


def _accepted(graph: MixedGraph, constraint: str) -> Optional[MixedGraph]:
    """The draw, or for maximal-ribbonless its completion, when it meets the
    constraint; None otherwise."""
    if constraint == "maximal-ribbonless":
        try:
            return maximalize(graph)
        except GraphError:  # the draw has a ribbon, or its completion gains one
            return None
    return graph if constraint == "none" or is_ribbonless(graph) else None


def generate_corpus(spec: CorpusSpec) -> list[MixedGraph]:
    rng = random.Random(spec.seed)
    graphs: list[MixedGraph] = []
    attempts = 0
    while len(graphs) < spec.count:
        produced = None
        for _ in range(spec.max_attempts_per_graph):
            attempts += 1
            produced = _accepted(random_lmg(rng, spec), spec.constraint)
            if produced is not None:
                break
        if produced is None:
            rate = len(graphs) / attempts if attempts else 0.0
            raise GraphError(
                f"rejection budget exhausted for constraint {spec.constraint!r} "
                f"(acceptance rate {rate:.3f} over {attempts} draws)"
            )
        graphs.append(produced)
    return graphs
