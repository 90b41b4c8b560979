"""Byte identity of the independence and structure commands on every fixture.

`lmg model`, `lmg model --singleton`, `lmg axioms` and `lmg closure` run on
each fixture, and `lmg equiv` on every ordered pair of fixtures. The
structure commands `lmg anterior`, `lmg anteriors --node v` for every node
v, `lmg ribbons`, `lmg classify`, `lmg maximal`, `lmg maximalize` and
`lmg pairwise` run on each fixture in text and JSON, and
`lmg inducing-paths` on every ordered pair of distinct nodes of each
fixture. `lmg gen` runs for each constraint on three seeds. Each run's
exit code, stderr and the SHA-256 of its stdout must equal the record in
``cli_golden.json``. The digests keep the record small: the model listings
alone run to hundreds of kilobytes.

Regenerate the record only from a commit whose output is trusted, from the
repository root:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.json
"""

import contextlib
import functools
import hashlib
import io
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORD = pathlib.Path(__file__).resolve().parent / "cli_golden.json"

FIXTURES = [
    "fig2a", "fig2b", "fig3", "fig4a", "fig4b", "fig5a",
    "fig5b", "fig6", "fig7", "fig9a", "fig9b", "fig9c",
]

STRUCTURE_COMMANDS = ["anterior", "ribbons", "classify", "maximal", "maximalize", "pairwise"]

CONSTRAINTS = ["none", "ribbonless", "maximal-ribbonless"]


def cases() -> list[list[str]]:
    """Argument vectors, with fixture paths relative to the repository root."""
    argvs = []
    for name in FIXTURES:
        path = f"fixtures/{name}.lmg"
        argvs += [
            ["model", path, "--limit", "7"],
            ["model", path, "--singleton"],
            ["axioms", path, "--limit", "7"],
            ["closure", path, "--limit", "7"],
        ]
    for first in FIXTURES:
        for second in FIXTURES:
            argvs.append(["equiv", f"fixtures/{first}.lmg", f"fixtures/{second}.lmg"])
    for name in FIXTURES:
        path = f"fixtures/{name}.lmg"
        structure = [[command, path] for command in STRUCTURE_COMMANDS]
        structure += [["anteriors", path, "--node", v] for v in _nodes(path)]
        for argv in structure:
            argvs += [argv, argv + ["--format", "json"]]
    for name in FIXTURES:
        path = f"fixtures/{name}.lmg"
        nodes = _nodes(path)
        argvs += [
            ["inducing-paths", path, "--a", x, "--b", y] for x in nodes for y in nodes if x != y
        ]
    for constraint in CONSTRAINTS:
        for seed in range(3):
            argvs.append(
                ["gen", "--count", "20", "--nodes", "3-6", "--constraint", constraint,
                 "--seed", str(seed)]
            )
    return argvs


def _nodes(path: str) -> list[str]:
    from lmgraphs import load_graph

    return load_graph(str(ROOT / path)).node_list()


def run(argv: list[str]) -> dict:
    from lmgraphs.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {
        "argv": argv,
        "exit": code,
        "stderr": err.getvalue(),
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stdout_lines": out.getvalue().count("\n"),
    }


@functools.lru_cache(maxsize=None)
def _record() -> dict[str, dict]:
    return {" ".join(r["argv"]): r for r in json.loads(RECORD.read_text())}


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_output_matches_record(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run(argv) == _record()[" ".join(argv)]


def test_record_covers_every_case():
    assert sorted(_record()) == sorted(" ".join(a) for a in cases())


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    json.dump([run(a) for a in cases()], sys.stdout, indent=1)
    sys.stdout.write("\n")
