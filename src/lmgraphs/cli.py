"""Command-line front end.

Boolean queries exit 0 when the answer is yes and 1 when it is no, so the
tool composes in shell pipelines; usage and parse problems, refused limits
and internal faults exit 2. Reports
are deterministic in both text and JSON form; JSON reports follow the fixed
key order query, graph, result, witness, counterexample.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional

from .corpus import CONSTRAINTS, CorpusSpec, generate_corpus
from .graph import GraphError, MixedGraph
from .independence import (
    AXIOM_SETS,
    IndependenceModel,
    _counterexample,
    _render_set,
    check_axioms,
    closure,
    enumerate_model,
    format_statement,
    markov_equivalent,
    pairwise_model,
    parse_statement,
)
from .separation import find_m_connecting_path, m_connecting_path_exists, m_separated
from .structure import (
    classify,
    find_primitive_inducing_paths,
    find_ribbons,
    maximality_violations,
    maximalize,
)
from .textformat import load_graph, serialize_graph, to_dot

OK, NO, USAGE = 0, 1, 2


def _node_set(raw: Optional[str]) -> list[str]:
    if not raw:
        return []
    return list(dict.fromkeys(part.strip() for part in raw.split(",") if part.strip()))


class Report:
    """Accumulates the JSON report and the text lines in parallel."""

    def __init__(self, query: dict[str, Any], graph: Any, query_text: Optional[str] = None):
        self.payload: dict[str, Any] = {"query": query, "graph": graph}
        self.lines: list[str] = []
        q = query_text if query_text is not None else " ".join(
            str(v) for v in query.values()
        )
        self.lines.append(f"query: {q}")
        if isinstance(graph, list):
            self.lines.append("graph: " + " ".join(graph))
        else:
            self.lines.append(f"graph: {graph}")
        self.document: Optional[str] = None

    def result(self, value: Any, text: str) -> None:
        self.payload["result"] = value
        self.lines.append(f"result: {text}")

    def witness(self, value: Any, lines: list[str]) -> None:
        self.payload["witness"] = value
        self.lines.extend(lines)

    def counterexample(self, value: Any, lines: list[str]) -> None:
        self.payload["counterexample"] = value
        self.lines.extend(lines)

    def detail(self, line: str) -> None:
        self.lines.append(line)

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.payload, indent=2) + "\n"
        if self.document is not None:
            return self.document
        return "\n".join(self.lines) + "\n"


# -- handlers -----------------------------------------------------------------


def _cmd_validate(args) -> tuple[int, Report]:
    graph = load_graph(args.graph, allow_loops=args.allow_loops)
    rep = Report({"command": "validate"}, args.graph)
    loopless = graph.is_loopless()
    rep.result(
        {"loopless": loopless, "nodes": len(graph.nodes), "edges": len(graph.edges)},
        "loopless" if loopless else "has-loops",
    )
    rep.detail(f"nodes: {len(graph.nodes)}")
    rep.detail(f"edges: {len(graph.edges)}")
    return (OK if loopless else NO), rep


def _cmd_msep(args) -> tuple[int, Report]:
    graph = load_graph(args.graph)
    a, b, c = _node_set(args.a), _node_set(args.b), _node_set(args.c)
    rep = Report(
        {"command": "msep", "a": sorted(a), "b": sorted(b), "c": sorted(c)},
        args.graph,
        query_text=f"msep {_render_set(a)} _||_ {_render_set(b)} | {_render_set(c)}",
    )
    separated = m_separated(graph, a, b, c)
    rep.result(separated, "separated" if separated else "connected")
    if not separated:
        pairs = ((x, y) for x in sorted(a) for y in sorted(b))
        if len(a) * len(b) > 1:  # one pair is the connected one already
            pairs = (pair for pair in pairs if m_connecting_path_exists(graph, *pair, c))
        x, y = next(pairs)
        path = str(find_m_connecting_path(graph, x, y, c))
        rep.witness(path, [f"witness: {path}"])
    return (OK if separated else NO), rep


def _cmd_anterior(args) -> tuple[int, Report]:
    graph = load_graph(args.graph)
    text = serialize_graph(graph.anterior_graph())
    rep = Report({"command": "anterior"}, args.graph)
    rep.result(text, "anterior graph follows")
    rep.document = text
    return OK, rep


def _cmd_anteriors(args) -> tuple[int, Report]:
    graph = load_graph(args.graph)
    ant = sorted(graph.anteriors(args.node))
    rep = Report({"command": "anteriors", "node": args.node}, args.graph)
    rep.result(ant, _render_set(ant))
    return OK, rep


def _cmd_ribbons(args) -> tuple[int, Report]:
    graph = load_graph(args.graph)
    ribbons = find_ribbons(graph)
    rep = Report({"command": "ribbons"}, args.graph)
    rep.result(not ribbons, "ribbonless" if not ribbons else "has-ribbons")
    if ribbons:
        rep.counterexample(
            [
                {
                    "tripath": list(r.tripath.nodes),
                    "path": str(r.tripath),
                    "flavor": r.flavor.value,
                    "witness": r.witness,
                }
                for r in ribbons
            ],
            [
                f"ribbon: {r.tripath} [{r.flavor.value}, witness {r.witness}]"
                for r in ribbons
            ],
        )
    return (OK if not ribbons else NO), rep


def _cmd_classify(args) -> tuple[int, Report]:
    graph = load_graph(args.graph, allow_loops=args.allow_loops)
    flags = classify(graph).as_dict()
    rep = Report({"command": "classify"}, args.graph)
    rep.result(flags, "flags follow")
    for name, value in flags.items():
        shown = "n/a" if value is None else str(value).lower()
        rep.detail(f"{name}: {shown}")
    return OK, rep


def _cmd_maximal(args) -> tuple[int, Report]:
    graph = load_graph(args.graph)
    violations = maximality_violations(graph)
    rep = Report({"command": "maximal"}, args.graph)
    rep.result(not violations, "maximal" if not violations else "not-maximal")
    if violations:
        rep.counterexample(
            [
                {"pair": [x, y], "path": str(path)}
                for x, y, path in violations
            ],
            [f"violation: ({x},{y}) via {path}" for x, y, path in violations],
        )
    return (OK if not violations else NO), rep


def _cmd_maximalize(args) -> tuple[int, Report]:
    graph = load_graph(args.graph)
    text = serialize_graph(maximalize(graph))
    rep = Report({"command": "maximalize"}, args.graph)
    rep.result(text, "maximal graph follows")
    rep.document = text
    return OK, rep


def _cmd_inducing_paths(args) -> tuple[int, Report]:
    graph = load_graph(args.graph)
    limit = None if args.limit == 0 else args.limit
    paths = find_primitive_inducing_paths(graph, args.a, args.b, limit=limit)
    rep = Report({"command": "inducing-paths", "a": args.a, "b": args.b}, args.graph)
    rep.result(bool(paths), f"found {len(paths)}")
    if paths:
        rep.witness([str(p) for p in paths], [f"path: {p}" for p in paths])
    return (OK if paths else NO), rep


def _statement_report(query: dict[str, Any], graph: str, model: IndependenceModel) -> Report:
    """A report listing the model's statements, in sorted order."""
    rep = Report(query, graph)
    shown = [format_statement(s) for s in model.sorted_statements()]
    rep.result(shown, f"{len(model)} statements")
    rep.lines.extend(f"statement: {s}" for s in shown)
    return rep


def _cmd_model(args) -> tuple[int, Report]:
    graph = load_graph(args.graph)
    model = enumerate_model(graph, singleton_only=args.singleton, limit=args.limit)
    return OK, _statement_report({"command": "model", "singleton": args.singleton}, args.graph, model)


def _cmd_pairwise(args) -> tuple[int, Report]:
    model = pairwise_model(load_graph(args.graph))
    return OK, _statement_report({"command": "pairwise"}, args.graph, model)


def _base_model(graph: MixedGraph, args) -> IndependenceModel:
    """The model that ``--from`` names: pairwise statements or the full model."""
    if getattr(args, "from") == "pairwise":
        return pairwise_model(graph)
    return enumerate_model(graph, limit=args.limit)


def _cmd_closure(args) -> tuple[int, Report]:
    graph = load_graph(args.graph)
    closed = closure(_base_model(graph, args), AXIOM_SETS[args.set], limit=args.limit)
    query = {"command": "closure", "set": args.set, "from": getattr(args, "from")}
    return OK, _statement_report(query, args.graph, closed)


def _cmd_axioms(args) -> tuple[int, Report]:
    graph = load_graph(args.graph)
    source = getattr(args, "from")
    if args.check_contains:
        target = parse_statement(args.check_contains)
        unknown = sorted((target.a | target.b | target.c) - graph.nodes)
        if unknown:  # a model over the graph would read a foreign label as "no"
            raise GraphError(f"unknown node {unknown[0]!r}")
        closed = closure(_base_model(graph, args), AXIOM_SETS[args.set], limit=args.limit)
        contained = target in closed
        query = {"command": "closure-contains", "statement": format_statement(target),
                 "set": args.set, "from": source}
        rep = Report(query, args.graph)
        rep.result(contained, "derivable" if contained else "not-derivable")
        return (OK if contained else NO), rep

    results = check_axioms(_base_model(graph, args), AXIOM_SETS[args.set])
    rep = Report({"command": "axioms", "from": source}, args.graph)
    ok = all(v is None for v in results.values())
    rep.result(
        {ax.value: (None if v is None else str(v)) for ax, v in results.items()},
        args.set if ok else "violated",
    )
    for ax, v in results.items():
        rep.detail(f"{ax.value}: {'pass' if v is None else 'FAIL ' + str(v)}")
    return (OK if ok else NO), rep


def _cmd_equiv(args) -> tuple[int, Report]:
    g1, g2 = load_graph(args.graph1), load_graph(args.graph2)
    rep = Report({"command": "equiv"}, [args.graph1, args.graph2])
    equivalent = markov_equivalent(g1, g2, limit=args.limit)
    rep.result(equivalent, "equivalent" if equivalent else "not-equivalent")
    if not equivalent:
        diff, in_first = _counterexample(g1, g2)
        where = args.graph1 if in_first else args.graph2
        rep.counterexample(
            {"statement": format_statement(diff), "holds_only_in": where},
            [f"counterexample: {format_statement(diff)} holds only in {where}"],
        )
    return (OK if equivalent else NO), rep


def _cmd_gen(args) -> tuple[int, Report]:
    lo, _, hi = args.nodes.partition("-")
    node_range = (int(lo), int(hi) if hi else int(lo))
    spec = CorpusSpec(
        count=args.count,
        nodes=node_range,
        p_line=args.p_line,
        p_arrow=args.p_arrow,
        p_arc=args.p_arc,
        p_multi=args.p_multi,
        constraint=args.constraint,
        seed=args.seed,
    )
    graphs = generate_corpus(spec)
    texts = [serialize_graph(g) for g in graphs]
    rep = Report(
        {"command": "gen", "constraint": args.constraint, "seed": args.seed},
        "-",
    )
    rep.result(texts, f"{len(texts)} graphs")
    rep.document = "".join(
        f"# graph {k}\n{text}\n" for k, text in enumerate(texts)
    )
    return OK, rep


def _cmd_dot(args) -> tuple[int, Report]:
    graph = load_graph(args.graph)
    text = to_dot(graph)
    rep = Report({"command": "dot"}, args.graph)
    rep.result(text, "dot document follows")
    rep.document = text
    return OK, rep


# -- argument wiring ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmg",
        description="Mixed graphs with lines, arrows, and arcs: m-separation, "
        "anterior graphs, ribbons, maximality, and independence models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, graphs: tuple[str, ...] = ("graph",)):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for graph in graphs:
            p.add_argument(graph, help="graph file in the text format" if graph == "graph" else None)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("validate", _cmd_validate, "parse a graph file and check looplessness")
    p.add_argument("--allow-loops", action="store_true")

    p = add("msep", _cmd_msep, "is A m-separated from B given C?")
    p.add_argument("--a", required=True, help="comma-separated node set")
    p.add_argument("--b", required=True, help="comma-separated node set")
    p.add_argument("--c", default="", help="comma-separated conditioning set")

    add("anterior", _cmd_anterior, "print the anterior graph")

    p = add("anteriors", _cmd_anteriors, "print the anterior set of a node")
    p.add_argument("--node", required=True)

    add("ribbons", _cmd_ribbons, "list ribbons; exit 0 when ribbonless")

    p = add("classify", _cmd_classify, "subclass membership flags")
    p.add_argument("--allow-loops", action="store_true")

    add("maximal", _cmd_maximal, "is the ribbonless graph maximal?")
    add("maximalize", _cmd_maximalize, "print the Markov equivalent maximal graph")

    p = add("inducing-paths", _cmd_inducing_paths, "primitive inducing paths between two nodes")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--limit", type=int, default=0, help="stop after this many paths (0: all)")

    p = add("model", _cmd_model, "independence model induced by m-separation")
    p.add_argument("--singleton", action="store_true")
    p.add_argument("--limit", type=int, default=None, help="node-count cap override")

    add("pairwise", _cmd_pairwise, "pairwise Markov statements")

    p = add("closure", _cmd_closure, "closure of a model under an axiom set")
    p.add_argument("--set", choices=sorted(AXIOM_SETS), default="compositional-graphoid")
    p.add_argument("--from", choices=("pairwise", "model"), default="pairwise")
    p.add_argument("--limit", type=int, default=None)

    p = add("axioms", _cmd_axioms, "check an axiom set, or closure membership")
    p.add_argument("--set", choices=sorted(AXIOM_SETS), default="compositional-graphoid")
    p.add_argument("--from", choices=("pairwise", "model"), default="model")
    p.add_argument("--check-contains", default=None, metavar="STATEMENT")
    p.add_argument("--limit", type=int, default=None)

    p = add("equiv", _cmd_equiv, "are two graphs Markov equivalent?", ("graph1", "graph2"))
    p.add_argument("--limit", type=int, default=None)

    p = add("gen", _cmd_gen, "generate a seeded random corpus", ())
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--nodes", default="3-5", help="node count or inclusive range, e.g. 4 or 3-5")
    p.add_argument("--p-line", type=float, default=0.25)
    p.add_argument("--p-arrow", type=float, default=0.3)
    p.add_argument("--p-arc", type=float, default=0.2)
    p.add_argument("--p-multi", type=float, default=0.1)
    p.add_argument("--constraint", choices=CONSTRAINTS, default="none")
    p.add_argument("--seed", type=int, default=0)

    add("dot", _cmd_dot, "emit a DOT document")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, report = args.handler(args)
        text = report.render(args.format)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:  # an internal fault must not read as a "no" (exit 1)
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
