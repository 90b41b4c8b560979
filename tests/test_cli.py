"""Command-line behavior: exit codes, report shape, determinism."""

import json

import pytest

from conftest import figure_path
from lmgraphs import cli
from lmgraphs.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMsep:
    def test_fig3_connected_exits_one_with_witness(self, capsys):
        code, out, _ = run(
            capsys, "msep", figure_path("fig3"), "--a", "i", "--b", "j", "--c", "l"
        )
        assert code == 1
        assert "result: connected" in out
        assert "witness: i -> h <- j" in out

    def test_fig3_separated_exits_zero(self, capsys):
        code, out, _ = run(capsys, "msep", figure_path("fig3"), "--a", "i", "--b", "j")
        assert code == 0
        assert "result: separated" in out

    def test_fig7_set_query(self, capsys):
        code, out, _ = run(
            capsys, "msep", figure_path("fig7"), "--a", "i,k", "--b", "j", "--c", "l"
        )
        assert code == 0
        assert "query: msep {i,k} _||_ {j} | {l}" in out

    def test_json_report_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "msep",
            figure_path("fig3"),
            "--a",
            "i",
            "--b",
            "j",
            "--c",
            "l",
            "--format",
            "json",
        )
        assert code == 1
        report = json.loads(out)
        assert list(report) == ["query", "graph", "result", "witness"]
        assert report["result"] is False
        assert report["witness"] == "i -> h <- j"

    def test_bad_query_exits_two(self, capsys):
        code, _, err = run(
            capsys, "msep", figure_path("fig3"), "--a", "i", "--b", "i"
        )
        assert code == 2
        assert "error:" in err


    def test_witness_comes_from_first_connected_pair(self, capsys, tmp_path):
        graph = tmp_path / "two.lmg"
        graph.write_text("a -> x\nb -> c\n")
        code, out, _ = run(capsys, "msep", str(graph), "--a", "a,b", "--b", "c")
        assert code == 1
        assert "witness: b -> c" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_repeated_labels_count_once(self, capsys, fmt):
        query = ("msep", figure_path("fig3"), "--b", "j", "--format", fmt)
        once = run(capsys, *query, "--a", "i", "--c", "l")
        twice = run(capsys, *query, "--a", "i,i", "--c", "l,l")
        assert once[0] == 1 and twice == once
        assert "{i,i}" not in twice[1] and '"i", "i"' not in twice[1]

    def test_long_arrow_chain_gets_a_witness(self, capsys, tmp_path):
        # The witness search used to recurse once per node and overflow the
        # interpreter stack on this chain.
        labels = [f"c{k:04d}" for k in range(1501)]
        chain = tmp_path / "chain.lmg"
        chain.write_text("".join(f"{u} -> {v}\n" for u, v in zip(labels, labels[1:])))
        code, out, err = run(
            capsys, "msep", str(chain), "--a", labels[0], "--b", labels[-1],
            "--format", "json",
        )
        assert code == 1, err
        report = json.loads(out)
        assert report["result"] is False
        assert report["witness"] == " -> ".join(labels)


class TestExitCodes:
    def test_internal_error_exits_two_not_one(self, capsys, monkeypatch):
        import lmgraphs.cli as cli

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_msep", broken)
        code, out, err = run(capsys, "msep", figure_path("fig3"), "--a", "i", "--b", "j")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "RuntimeError: boom" in err

    def test_arc_test_without_a_witness_exits_two_not_one(self, capsys, monkeypatch, tmp_path):
        # A pair that the arc-component test calls violating but whose search
        # finds no path is a fault, not a "not maximal" and not a skip. The
        # pair (a, b) sends into one arc component, {d}, whose node has a
        # child, so it is tested; the planted mask leaves d out, so the
        # search finds nothing.
        import lmgraphs.structure as structure

        graph = tmp_path / "apart.lmg"
        graph.write_text("a -> d\nb -> d\nd -> e\nnode c\n")
        monkeypatch.setattr(structure, "_inducing_live", lambda compiled, x, y: 0b111)
        code, out, err = run(capsys, "maximal", str(graph))
        assert code == 2 and out == ""
        assert "internal: RuntimeError" in err

    def test_connected_pair_without_a_witness_exits_two_not_one(self, capsys, monkeypatch):
        # "connected" with no witness path is a fault: printing
        # "witness: None" would pass it off as an answer.
        import lmgraphs.cli as cli

        monkeypatch.setattr(cli, "find_m_connecting_path", lambda graph, x, y, given: None)
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "msep", figure_path("fig3"), "--a", "i", "--b", "k", "--format", fmt)
            assert code == 2 and out == ""
            assert err.startswith("error: internal: RuntimeError")

    def test_closure_limit_applies_unless_overridden(self, capsys, tmp_path):
        path = tmp_path / "bipath7.lmg"
        labels = "abcdefg"
        path.write_text("".join(f"{u} <-> {v}\n" for u, v in zip(labels, labels[1:])))
        code, out, err = run(capsys, "closure", str(path))
        assert code == 2 and out == ""
        assert "closure limit exceeded: 7 nodes > 5" in err
        code, out, _ = run(capsys, "closure", str(path), "--limit", "7")
        assert code == 0
        assert "statement: {a} _||_ {c} | {}" in out

    def test_axioms_on_a_wide_graph_exit_two(self, capsys, tmp_path):
        path = tmp_path / "chain13.lmg"
        labels = [f"n{k:02d}" for k in range(13)]
        path.write_text("".join(f"{u} -> {v}\n" for u, v in zip(labels, labels[1:])))
        code, out, err = run(capsys, "axioms", str(path), "--from", "pairwise")
        assert code == 2 and out == ""
        assert "axiom check limit exceeded: 13 nodes > 12" in err


class TestAnterior:
    def test_fig2a_document_matches_fig2b(self, capsys):
        code, out, _ = run(capsys, "anterior", figure_path("fig2a"))
        assert code == 0
        with open(figure_path("fig2b")) as fh:
            from lmgraphs import parse_graph

            assert parse_graph(out).graph == parse_graph(fh.read()).graph

    def test_anteriors_listing(self, capsys):
        code, out, _ = run(capsys, "anteriors", figure_path("fig2a"), "--node", "i")
        assert code == 0
        assert "result: {h,j,l,p}" in out


class TestStructureCommands:
    def test_ribbons_fig4a(self, capsys):
        code, out, _ = run(capsys, "ribbons", figure_path("fig4a"))
        assert code == 1
        assert "result: has-ribbons" in out
        assert "ribbon: h -> i <- j [straight, witness k]" in out

    def test_ribbons_fig5b(self, capsys):
        code, out, _ = run(capsys, "ribbons", figure_path("fig5b"))
        assert code == 0
        assert "result: ribbonless" in out

    def test_maximal_fig6(self, capsys):
        code, out, _ = run(capsys, "maximal", figure_path("fig6"))
        assert code == 1
        assert "result: not-maximal" in out
        assert "violation: (i,j) via i -> k <-> j" in out

    def test_maximal_fig7(self, capsys):
        code, out, _ = run(capsys, "maximal", figure_path("fig7"))
        assert code == 0

    def test_maximal_rejects_non_ribbonless(self, capsys):
        code, _, err = run(capsys, "maximal", figure_path("fig4a"))
        assert code == 2
        assert "ribbonless" in err

    def test_maximalize_fig6(self, capsys):
        code, out, _ = run(capsys, "maximalize", figure_path("fig6"))
        assert code == 0
        assert "i -> j" in out

    def test_inducing_paths_fig6(self, capsys):
        code, out, _ = run(
            capsys, "inducing-paths", figure_path("fig6"), "--a", "i", "--b", "j"
        )
        assert code == 0
        assert "path: i -> k <-> j" in out

    def test_inducing_paths_limit_zero_lists_all(self, capsys):
        code, out, _ = run(
            capsys, "inducing-paths", figure_path("fig7"), "--a", "l", "--b", "m",
            "--limit", "0",
        )
        assert code == 0
        assert "path: l -- m" in out

    def test_inducing_paths_negative_limit_exits_two(self, capsys):
        code, out, err = run(
            capsys, "inducing-paths", figure_path("fig6"), "--a", "i", "--b", "j",
            "--limit", "-3",
        )
        assert code == 2
        assert out == ""
        assert err == "error: limit must be at least 1, got -3\n"

    def test_inducing_paths_deep_chain(self, capsys, tmp_path):
        # The inducing-path search used to recurse once per node and overflow
        # the interpreter stack on this chain.
        chain = ["x"] + [f"v{k:04d}" for k in range(1, 1200)] + ["y"]
        text = "".join(f"{u} <-> {v}\n" for u, v in zip(chain, chain[1:]))
        text += "".join(f"{v} -> y\n" for v in chain[1:-1])
        path = tmp_path / "chain.lmg"
        path.write_text(text)
        code, out, err = run(
            capsys, "inducing-paths", str(path), "--a", "x", "--b", "y", "--limit", "1"
        )
        assert code == 0, err
        assert "found 1" in out
        assert f"path: {' <-> '.join(chain)}" in out

    def test_inducing_paths_fig7_none(self, capsys):
        code, out, _ = run(
            capsys, "inducing-paths", figure_path("fig7"), "--a", "i", "--b", "m"
        )
        assert code == 1
        assert "found 0" in out

    def test_classify_fig9b(self, capsys):
        code, out, _ = run(capsys, "classify", figure_path("fig9b"))
        assert code == 0
        assert "bidirected: true" in out
        assert "dag: false" in out


class TestModelCommands:
    def test_model_contains_fig3_statement(self, capsys):
        code, out, _ = run(capsys, "model", figure_path("fig3"), "--singleton")
        assert code == 0
        assert "statement: {i} _||_ {j} | {}" in out

    def test_pairwise_fig7(self, capsys):
        code, out, _ = run(capsys, "pairwise", figure_path("fig7"))
        assert code == 0
        assert "statement: {i} _||_ {m} | {h,k,l}" in out
        assert "statement: {l} _||_ {p} | {h,m}" in out

    def test_axioms_pass_on_fig3(self, capsys):
        code, out, _ = run(capsys, "axioms", figure_path("fig3"))
        assert code == 0
        assert "result: compositional-graphoid" in out
        assert "intersection: pass" in out

    @pytest.mark.parametrize(
        "figure, axiom_set, failing",
        [("fig9a", "semigraphoid", "intersection"), ("fig9b", "graphoid", "composition")],
    )
    def test_axioms_checks_only_the_chosen_set(self, capsys, figure, axiom_set, failing):
        # The pairwise model of fig9a fails only intersection, that of fig9b
        # only composition: each still satisfies a set without that axiom.
        code, out, _ = run(capsys, "axioms", figure_path(figure), "--set", axiom_set, "--from", "pairwise")
        assert code == 0
        assert f"result: {axiom_set}" in out
        assert f"\n{failing}:" not in out
        code, out, _ = run(capsys, "axioms", figure_path(figure), "--from", "pairwise")
        assert code == 1
        assert f"{failing}: FAIL {failing} fails at A={{i}}" in out

    def test_axioms_check_contains_fig9b(self, capsys):
        code, out, _ = run(
            capsys,
            "axioms",
            figure_path("fig9b"),
            "--set",
            "graphoid",
            "--from",
            "pairwise",
            "--check-contains",
            "i _||_ {k,l} | {}",
        )
        assert code == 1
        assert "result: not-derivable" in out

    def test_axioms_check_contains_with_composition(self, capsys):
        code, out, _ = run(
            capsys,
            "axioms",
            figure_path("fig9b"),
            "--set",
            "compositional-graphoid",
            "--from",
            "pairwise",
            "--check-contains",
            "i _||_ {k,l} | {}",
        )
        assert code == 0
        assert "result: derivable" in out

    def test_axioms_check_contains_unknown_label_exits_two(self, capsys):
        # A label outside the graph is in no model over it; it must not read
        # as "not derivable". The message is the one msep gives.
        fig9b = figure_path("fig9b")
        for statement, label in (("i _||_ {k,zz} | {}", "zz"), ("i _||_ {yy,zz} | {aa}", "aa")):
            code, out, err = run(
                capsys, "axioms", fig9b, "--set", "graphoid", "--from", "pairwise",
                "--check-contains", statement,
            )
            assert (code, out, err) == (2, "", f"error: unknown node '{label}'\n")
        code, _, err = run(capsys, "msep", fig9b, "--a", "i", "--b", "zz")
        assert (code, err) == (2, "error: unknown node 'zz'\n")

    @pytest.mark.parametrize("statement", ["{i _||_ j | {}", "i k _||_ j | {}", "_||_ j | {}"])
    def test_axioms_check_contains_malformed_statement_exits_two(self, capsys, statement):
        code, out, err = run(
            capsys, "axioms", figure_path("fig9b"), "--from", "pairwise", "--check-contains", statement,
        )
        assert (code, out) == (2, "") and err.startswith("error: ")

    def test_axioms_check_contains_checks_labels_before_the_closure(self, capsys, monkeypatch, tmp_path):
        # An unknown label is refused before the closure is built: above the
        # closure cap it is not reported as the cap, and under the cap no
        # closure is computed at all.
        six = tmp_path / "six.lmg"
        six.write_text("".join(f"{u} -- {v}\n" for u, v in zip("abcde", "bcdef")))
        argv = ("--set", "graphoid", "--from", "pairwise", "--check-contains")
        code, out, err = run(capsys, "axioms", str(six), *argv, "a _||_ zz | {}")
        assert (code, out, err) == (2, "", "error: unknown node 'zz'\n")

        def no_closure(*args, **kwargs):
            raise AssertionError("closure built for a statement with an unknown label")

        monkeypatch.setattr(cli, "closure", no_closure)
        code, out, err = run(capsys, "axioms", figure_path("fig9b"), *argv, "i _||_ zz | {}")
        assert (code, out, err) == (2, "", "error: unknown node 'zz'\n")

    def test_closure_lists_statements(self, capsys):
        code, out, _ = run(
            capsys, "closure", figure_path("fig9b"), "--set", "compositional-graphoid"
        )
        assert code == 0
        assert "statement: {i} _||_ {k,l} | {}" in out

    def test_equiv(self, capsys):
        code, out, _ = run(capsys, "equiv", figure_path("fig2a"), figure_path("fig2b"))
        assert code == 0
        assert "result: equivalent" in out

    def test_equiv_counterexample(self, capsys):
        code, out, _ = run(capsys, "equiv", figure_path("fig9a"), figure_path("fig9b"))
        assert code == 1
        assert "result: not-equivalent" in out
        assert "counterexample:" in out


class TestValidateAndDot:
    def test_validate(self, capsys):
        code, out, _ = run(capsys, "validate", figure_path("fig3"))
        assert code == 0
        assert "result: loopless" in out and "nodes: 6" in out

    def test_validate_loops(self, capsys, tmp_path):
        bad = tmp_path / "loop.lmg"
        bad.write_text("a -> a\n")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2  # rejected at parse time without --allow-loops
        code, out, _ = run(capsys, "validate", str(bad), "--allow-loops")
        assert code == 1
        assert "result: has-loops" in out

    def test_parse_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.lmg"
        bad.write_text("a => b\n")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "validate", "no-such-file.lmg")
        assert code == 2

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "dot", figure_path("fig9b"))
        assert code == 0
        assert "arrowtail=normal, arrowhead=normal" in out


class TestGen:
    def test_deterministic_output(self, capsys):
        args = (
            "gen",
            "--count",
            "4",
            "--nodes",
            "4",
            "--p-line",
            "0.2",
            "--p-arrow",
            "0.3",
            "--p-arc",
            "0.2",
            "--seed",
            "42",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        assert first.startswith("# graph 0\n")

    def test_constraint_postcondition(self, capsys):
        from lmgraphs import is_ribbonless, parse_graph

        code, out, _ = run(
            capsys,
            "gen",
            "--count",
            "3",
            "--nodes",
            "3-5",
            "--constraint",
            "ribbonless",
            "--seed",
            "7",
        )
        assert code == 0
        blocks = [b for b in out.split("# graph")[1:]]
        assert len(blocks) == 3
        for block in blocks:
            body = "\n".join(block.splitlines()[1:])
            assert is_ribbonless(parse_graph(body).graph)


    def test_maximal_ribbonless_survives_a_completion_with_a_ribbon(self, capsys):
        code, out, err = run(
            capsys, "gen", "--count", "20", "--nodes", "3-5",
            "--constraint", "maximal-ribbonless", "--seed", "244",
        )
        assert (code, err) == (0, "")
        assert out.count("# graph") == 20


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("msep", figure_path("fig3"), "--a", "i", "--b", "j", "--c", "l"),
            ("ribbons", figure_path("fig4a")),
            ("maximal", figure_path("fig6")),
            ("model", figure_path("fig9c")),
            ("closure", figure_path("fig9a")),
            ("classify", figure_path("fig7")),
            ("anterior", figure_path("fig2a")),
            ("dot", figure_path("fig6")),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        for fmt in ("text", "json"):
            _, first, _ = run(capsys, *argv, "--format", fmt)
            _, second, _ = run(capsys, *argv, "--format", fmt)
            assert first == second
