"""Plain-text graph format and DOT export.

One declaration per line: ``node x`` declares an isolated node, ``a -- b``,
``a -> b``, and ``a <-> b`` declare a line, arrow, and arc. Nodes are
declared implicitly by their first use in an edge, ``#`` starts a comment,
and repeating an edge line creates a parallel edge. A label is neither
``node`` nor an edge operator and holds no ``,``, ``{``, ``}`` or ``|``,
which write node sets and statements (``{a,b} _||_ {d} | {c}``).
Serialization is canonical (sorted), so output is byte-stable and parses
back to an equal graph; it refuses a label the parser would refuse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .graph import Edge, EdgeKind, GraphError, Mark, MixedGraph, _edge_from_spec

_EDGE_OPS = ("--", "->", "<->")
_LABEL = re.compile(r"[^\s#,{}|]+")


def _is_label(label: str) -> bool:
    """Whether ``label`` parses back: one token, no ``#`` or set syntax, no keyword or operator."""
    return label not in _EDGE_OPS and label != "node" and _LABEL.fullmatch(label) is not None


class ParseError(GraphError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass
class GraphDocument:
    """A parsed graph plus enough source positions for later diagnostics."""

    source: str
    graph: MixedGraph
    node_lines: dict[str, int] = field(default_factory=dict)


def _column(line: str, k: int) -> int:
    """1-based column of the k-th whitespace-separated token, for errors."""
    return [m.start() for m in re.finditer(r"\S+", line)][k] + 1


def parse_graph(text: str, allow_loops: bool = False) -> GraphDocument:
    nodes: list[str] = []
    node_lines: dict[str, int] = {}
    edge_specs: list[tuple[str, str, str]] = []

    def declare(label: str, line_no: int, line: str, k: int) -> None:
        if not _is_label(label):
            raise ParseError(
                f"{label!r} cannot be used as a node label", line_no, _column(line, k)
            )
        if label not in node_lines:
            nodes.append(label)
            node_lines[label] = line_no

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "node":
            if len(tokens) != 2:
                raise ParseError("expected: node <label>", line_no, 1)
            if tokens[1] in node_lines:
                raise ParseError(f"duplicate node {tokens[1]!r}", line_no, _column(line, 1))
            declare(tokens[1], line_no, line, 1)
            continue
        if len(tokens) != 3:
            raise ParseError(
                "expected: node <label>, or <label> -- | -> | <-> <label>",
                line_no,
                1,
            )
        left, op, right = tokens
        if op not in _EDGE_OPS:
            raise ParseError(f"unknown edge operator {op!r}", line_no, _column(line, 1))
        if left == right and not allow_loops:
            raise ParseError(
                f"loop edge at {left!r} (pass allow_loops to accept)", line_no, _column(line, 0)
            )
        declare(left, line_no, line, 0)
        declare(right, line_no, line, 2)
        edge_specs.append((left, op, right))

    edges = [_edge_from_spec(a, op, b, k) for k, (a, op, b) in enumerate(edge_specs)]
    return GraphDocument(text, MixedGraph(nodes, edges), node_lines)


def _edge_sort_key(e: Edge) -> tuple:
    lo, hi = sorted((e.a, e.b))
    kind_rank = {EdgeKind.LINE: 0, EdgeKind.ARROW: 1, EdgeKind.ARC: 2}[e.kind]
    src = e.source if e.kind is EdgeKind.ARROW else lo
    return (lo, hi, kind_rank, src)


def _edge_line(e: Edge) -> str:
    if e.kind is EdgeKind.ARROW:
        return f"{e.source} -> {e.target}"
    lo, hi = sorted((e.a, e.b))
    op = "--" if e.kind is EdgeKind.LINE else "<->"
    return f"{lo} {op} {hi}"


def serialize_graph(graph: MixedGraph) -> str:
    """The canonical text of ``graph``; refuses the smallest label that would not parse back."""
    bad = min((n for n in graph.nodes if not _is_label(n)), default=None)
    if bad is not None:
        raise GraphError(f"{bad!r} cannot be written as a node label")
    lines = [f"node {n}" for n in graph.node_list()]
    lines.extend(_edge_line(e) for e in sorted(graph.edges, key=_edge_sort_key))
    return "\n".join(lines) + "\n" if lines else ""


def to_dot(graph: MixedGraph) -> str:
    """DOT document rendering all three marks via arrowtail/arrowhead."""

    def quoted(label: str) -> str:
        return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph G {", "  edge [dir=both];"]
    for n in graph.node_list():
        lines.append(f"  {quoted(n)};")
    for e in sorted(graph.edges, key=_edge_sort_key):
        lo, hi = sorted((e.a, e.b))
        tail = "normal" if e.mark_at(lo) is Mark.HEAD else "none"
        head = "normal" if e.mark_at(hi) is Mark.HEAD else "none"
        lines.append(
            f"  {quoted(lo)} -> {quoted(hi)} [arrowtail={tail}, arrowhead={head}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_graph(path: str, allow_loops: bool = False) -> MixedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read(), allow_loops=allow_loops).graph
