"""Per-layer spans, recorded from outside the library.

``install`` wraps public functions and ``MixedGraph`` methods of each lmgraphs
module. A span's self time is its duration minus the time of nested spans of
other layers; a nested span of the same layer is not subtracted, so
``structure.classify_s`` includes the ribbon scan classify runs, and
``separation.msep_anterior_s`` includes the per-pair searches. A layer's
``self_s`` counts each stretch of its own time once. Every figure is given
per round: a round runs the same calls every time, so counts are exact.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name); the span's layer is the module.
SPANS = [
    ("textformat", "parse_graph", "textformat.parse"),
    ("textformat", "serialize_graph", "textformat.serialize"),
    ("graph", "MixedGraph.__init__", "graph.build"),
    ("graph", "MixedGraph.ancestors", "graph.ancestors"),
    ("graph", "MixedGraph.is_anterior", "graph.is_anterior"),
    ("graph", "MixedGraph.anterior_graph", "graph.anterior_graph"),
    ("graph", "MixedGraph.anteriors", "graph.anteriors"),
    ("separation", "m_separated", None),  # named by lane, see Tracer.install
    ("separation", "m_connecting_path_exists", "separation.pair"),
    ("separation", "find_m_connecting_path", "separation.witness"),
    ("structure", "find_ribbons", "structure.ribbons"),
    ("structure", "classify", "structure.classify"),
    ("structure", "find_primitive_inducing_paths", "structure.inducing"),
    ("structure", "maximality_violations", "structure.violations"),
    ("structure", "maximalize", "structure.maximalize"),
    ("corpus", "generate_corpus", "corpus.generate"),
    ("corpus", "random_lmg", "corpus.draw"),
    ("independence", "enumerate_model", "independence.enumerate"),
    ("independence", "pairwise_model", "independence.pairwise"),
    ("independence", "check_axioms", "independence.axioms"),
    ("independence", "markov_equivalent", "independence.equiv"),
    ("independence", "closure", "independence.closure"),
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.parser"),
]

LAYERS = ("separation", "graph", "structure", "corpus", "independence", "textformat", "cli")


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.nested: Counter = Counter()  # (span, enclosing span) -> calls
        self.self_s: defaultdict = defaultdict(float)
        self.layer_s: defaultdict = defaultdict(float)
        self.results: Counter = Counter()
        self._stack: list[list] = []  # [layer, span, time of other-layer children]
        self._undo: list = []

    def wrap(self, layer: str, name, fn, observe=None):
        stack = self._stack

        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            frame = [layer, span, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - t0
                stack.pop()
                own = took - frame[2]
                self.calls[span] += 1
                self.self_s[span] += own
                if parent is None or parent[0] != layer:
                    self.layer_s[layer] += own
                if parent is not None:
                    self.nested[(span, parent[1])] += 1
                    parent[2] += frame[2] if parent[0] == layer else took
            if observe is not None:
                observe(span, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, lm) -> None:
        """Replace each traced function wherever lmgraphs binds it, so calls
        between modules are seen too."""
        graph_cls = lm.graph.MixedGraph
        is_anterior = graph_cls.is_anterior
        lane = lambda args: (  # noqa: E731
            "separation.msep_anterior" if is_anterior(args[0]) else "separation.msep_general"
        )
        observers = {
            "separation.witness": lambda s, r: self.results.update({s: r is not None}),
            "corpus.generate": lambda s, r: self.results.update({s: len(r)}),
            "independence.closure": lambda s, r: self.results.update({s: len(r)}),
        }
        namespaces = [lm] + [getattr(lm, layer) for layer in LAYERS]
        for module, attr, name in SPANS:
            if attr.startswith("MixedGraph."):
                method = attr.split(".", 1)[1]
                original = getattr(graph_cls, method)
                setattr(graph_cls, method, self.wrap(module, name, original))
                self._undo.append((graph_cls, method, original))
                continue
            original = getattr(getattr(lm, module), attr)
            traced = self.wrap(module, name or lane, original, observers.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, traced)
                        self._undo.append((ns, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, per round."""
        c, s = self.calls, self.self_s

        def ratio(num, den):
            return num / den if den else 0.0

        msep = c["separation.msep_anterior"] + c["separation.msep_general"]
        out = {
            "separation.msep_calls": (msep, "count"),
            "separation.msep_anterior_s": (s["separation.msep_anterior"], "s"),
            "separation.msep_general_s": (s["separation.msep_general"], "s"),
            "separation.pairs_per_msep": (ratio(c["separation.pair"], msep), "count"),
            "separation.witness_calls": (c["separation.witness"], "count"),
            "separation.witness_s": (s["separation.witness"], "s"),
            "separation.witness_found_ratio": (
                ratio(self.results["separation.witness"], c["separation.witness"]), "ratio"),
            "graph.ancestors_calls": (c["graph.ancestors"], "count"),
            "graph.ancestors_s": (s["graph.ancestors"], "s"),
            "graph.is_anterior_calls": (c["graph.is_anterior"], "count"),
            "graph.is_anterior_s": (s["graph.is_anterior"], "s"),
            "graph.build_s": (s["graph.build"], "s"),
            "graph.anterior_graph_s": (s["graph.anterior_graph"], "s"),
            "graph.anteriors_s": (s["graph.anteriors"], "s"),
            "structure.ribbons_s": (s["structure.ribbons"], "s"),
            "structure.classify_s": (s["structure.classify"], "s"),
            "structure.inducing_calls": (c["structure.inducing"], "count"),
            "structure.inducing_s": (s["structure.inducing"], "s"),
            "structure.maximalize_s": (s["structure.maximalize"], "s"),
            "structure.maximalize_scans": (
                ratio(self.nested[("structure.violations", "structure.maximalize")],
                      c["structure.maximalize"]), "count"),
            "corpus.generate_s": (s["corpus.generate"], "s"),
            "corpus.draws": (c["corpus.draw"], "count"),
            "corpus.accept_ratio": (ratio(self.results["corpus.generate"], c["corpus.draw"]), "ratio"),
            "independence.enumerate_s": (s["independence.enumerate"], "s"),
            "independence.pairwise_s": (s["independence.pairwise"], "s"),
            "independence.axioms_s": (s["independence.axioms"], "s"),
            "independence.equiv_s": (s["independence.equiv"], "s"),
            "independence.closure_s": (s["independence.closure"], "s"),
            "independence.closure_statements": (self.results["independence.closure"], "count"),
            "textformat.parse_calls": (c["textformat.parse"], "count"),
            "textformat.parse_s": (s["textformat.parse"], "s"),
            "textformat.serialize_s": (s["textformat.serialize"], "s"),
            "cli.calls": (c["cli.main"], "count"),
            "cli.parser_s": (s["cli.parser"], "s"),
        }
        out |= {f"{layer}.self_s": (self.layer_s[layer], "s") for layer in LAYERS}
        per_round = {}
        for key, (value, unit) in out.items():
            is_ratio = key.endswith(("_ratio", "_per_msep", "_scans"))
            per_round[key] = (value if is_ratio else value / rounds, unit)
        return per_round

    def dump(self, path, rounds: int) -> None:
        """Every span's calls and self time per round, and which spans
        enclosed which."""
        doc = {
            "rounds": rounds,
            "spans": {k: {"calls": self.calls[k] / rounds, "self_s": self.self_s[k] / rounds}
                      for k in sorted(self.calls)},
            "nested": {f"{k} < {p}": n / rounds for (k, p), n in sorted(self.nested.items())},
            "layers_self_s": {k: v / rounds for k, v in sorted(self.layer_s.items())},
        }
        path.write_text(json.dumps(doc, indent=2) + "\n")
