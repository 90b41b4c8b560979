"""Text grammar, canonical serialization, and DOT export."""

import pytest
from hypothesis import given, settings

from lmgraphs import GraphError, ParseError, build_graph, parse_graph, serialize_graph, to_dot
from strategies import lmgs


def test_fig3_transcription(figures):
    text = "i -> h\nj -> h\nh -> k\nk -> p\np -> l\n"
    assert parse_graph(text).graph == figures["fig3"]


def test_fig6_double_edge(figures):
    doc = parse_graph("i -> k\nk <-> j\nk -> j\n")
    assert doc.graph == figures["fig6"]
    assert len(doc.graph.edges_between("k", "j")) == 2


def test_empty_input():
    g = parse_graph("").graph
    assert not g.nodes and not g.edges


def test_comments_and_blank_lines():
    text = "# a comment\n\ni -- j  # trailing comment\nnode z\n"
    g = parse_graph(text).graph
    assert g.nodes == {"i", "j", "z"}
    assert len(g.edges) == 1


def test_implicit_and_explicit_nodes():
    doc = parse_graph("node a\nb -> c\n")
    assert doc.graph.nodes == {"a", "b", "c"}
    assert doc.node_lines == {"a": 1, "b": 2, "c": 2}


def test_duplicate_node_declaration_rejected():
    with pytest.raises(ParseError, match="duplicate node"):
        parse_graph("node a\nnode a\n")


def test_loop_rejected_unless_allowed():
    with pytest.raises(ParseError, match="loop"):
        parse_graph("a -> a\n")
    g = parse_graph("a -> a\n", allow_loops=True).graph
    assert not g.is_loopless()


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("a -- b\na => b\n")
    err = None
    try:
        parse_graph("a -- b\na => b\n")
    except ParseError as exc:
        err = exc
    assert err.line == 2 and err.column == 3


def test_bad_right_label_reports_its_own_column():
    with pytest.raises(ParseError, match="cannot be used") as info:
        parse_graph("a -> b\nab  -> <->\n")
    assert (info.value.line, info.value.column) == (2, 8)


def test_repeated_token_reports_its_own_column():
    # The operator text also occurs inside the left label, and "node" is
    # both the keyword and the rejected label: each error points at the
    # offending token, not at the text's first occurrence on the line.
    with pytest.raises(ParseError, match="operator") as info:
        parse_graph("a=>b => c\n")
    assert info.value.column == 6
    with pytest.raises(ParseError, match="cannot be used") as info:
        parse_graph("  node node\n")
    assert info.value.column == 8


def test_reverse_arrow_is_not_grammar():
    with pytest.raises(ParseError, match="operator"):
        parse_graph("a <- b\n")


@pytest.mark.parametrize("text, line, column", [
    ("a,b -> c\nc -> d\n", 1, 1),
    ("c -> d\nc ->  {d}\n", 2, 7),
    ("node x|y\n", 1, 6),
    ("x <-> }\n", 1, 7),
    ("  node {}\n", 1, 8),
], ids=["comma", "braces", "bar", "closing brace", "empty braces"])
def test_set_syntax_in_labels_rejected(text, line, column):
    # Node sets and statements are written {a,b} _||_ {d} | {c}, so no CLI
    # flag or statement could name such a label.
    with pytest.raises(ParseError, match="cannot be used as a node label") as info:
        parse_graph(text)
    assert (info.value.line, info.value.column) == (line, column)
    assert "a,b" in build_graph(["a,b", "{c}"], [("a,b", "->", "{c}")]).nodes


@pytest.mark.parametrize("labels, named", [
    (["a b", "c"], "a b"),
    (["x#y", "z"], "x#y"),
    (["node", "n"], "node"),
    (["->", "--", "a"], "--"),
    (["b", "{c}", "a,b"], "a,b"),
], ids=["space", "comment", "keyword", "operators", "set syntax"])
def test_serialize_refuses_labels_that_do_not_parse_back(labels, named):
    # build_graph takes any non-empty label; the text format cannot write
    # these back, so serializing names the smallest instead of writing a
    # document that parse_graph refuses or reads as another graph.
    g = build_graph(labels, [(labels[0], "->", labels[1])])
    with pytest.raises(GraphError) as info:
        serialize_graph(g)
    assert str(info.value) == f"{named!r} cannot be written as a node label"


def test_odd_labels_that_parse_back_are_written():
    g = build_graph(["<-", "a.b", "x_1"], [("<-", "<->", "a.b"), ("x_1", "--", "<-")])
    assert parse_graph(serialize_graph(g)).graph == g


def test_token_count_errors():
    with pytest.raises(ParseError, match="expected"):
        parse_graph("a --\n")
    with pytest.raises(ParseError, match="expected"):
        parse_graph("node\n")


def test_serialize_is_canonical(figures):
    text = serialize_graph(figures["fig6"])
    assert text == "node i\nnode j\nnode k\ni -> k\nk -> j\nj <-> k\n"


def test_round_trip_on_figures(figures):
    for g in figures.values():
        assert parse_graph(serialize_graph(g)).graph == g


@settings(max_examples=100, deadline=None)
@given(lmgs(max_nodes=6))
def test_round_trip_on_random_graphs(g):
    assert parse_graph(serialize_graph(g)).graph == g


def test_serialize_parse_serialize_is_stable(figures):
    for g in figures.values():
        once = serialize_graph(g)
        assert serialize_graph(parse_graph(once).graph) == once


def test_dot_marks():
    g = build_graph(
        ["a", "b", "c"], [("a", "->", "b"), ("b", "<->", "c"), ("a", "--", "c")]
    )
    dot = to_dot(g)
    assert 'digraph G {' in dot
    assert '"a" -> "b" [arrowtail=none, arrowhead=normal];' in dot
    assert '"b" -> "c" [arrowtail=normal, arrowhead=normal];' in dot
    assert '"a" -> "c" [arrowtail=none, arrowhead=none];' in dot


def test_dot_quotes_labels():
    g = build_graph(['x"y'], [])
    assert '"x\\"y";' in to_dot(g)
