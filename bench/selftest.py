"""Self-test of the benchmark's checkers: a planted wrong answer must fail.

    python3 bench/selftest.py

For every kind of answer the workloads produce, it takes the first real
answer of that kind, requires its checker to pass it, then plants one wrong
answer of the same kind and requires the checker to reject it. Exits 1 when
a checker misses a planted error or rejects a right answer.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
import workloads


def _cli(result, edit):
    """The same ``lmg`` call result with its JSON report edited."""
    code, text = result
    doc = json.loads(text)
    edit(doc)
    return code, json.dumps(doc)


def _flip_msep(result):
    return 1 - result[0], _cli(result, lambda d: d.update(result=not d["result"]))[1]


def _cut_witness(result):
    doc = json.loads(result[1])
    if "witness" not in doc or len(doc["witness"].split()) < 5:
        return None
    return _cli(result, lambda d: d.update(witness=" ".join(d["witness"].split()[:-2])))


def _turn_first_arrow(result):
    doc = json.loads(result[1])
    tokens = doc.get("witness", "").split()
    if len(tokens) < 3 or tokens[1] not in ("->", "<-"):
        return None
    tokens[1] = "<-" if tokens[1] == "->" else "->"
    return _cli(result, lambda d: d.update(witness=" ".join(tokens)))


def _drop_statement(lm, model):
    return lm.IndependenceModel(model.ground_set, sorted(model.statements, key=lambda s: s.sort_key())[1:])


# kind -> wrong answers derived from a right one; None when one does not apply.
PLANTS = {
    "msep": [lambda lm, r: not r],
    "cli-msep": [lambda lm, r: _flip_msep(r), lambda lm, r: _cut_witness(r),
                 lambda lm, r: _turn_first_arrow(r)],
    "witness": [lambda lm, r: lm.Path(r.nodes[:-1], r.edges[:-1])],
    "ribbons": [lambda lm, r: r[1:]],
    "classify": [lambda lm, r: dataclasses.replace(r, dag=not r.dag)],
    "anterior": [lambda lm, r: lm.MixedGraph(r.node_list(), r.edges[1:])],
    "violations": [lambda lm, r: r[1:] if r else None],
    "maximalize": [lambda lm, r: lm.MixedGraph(r.node_list(), r.edges[:-1])],
    "corpus": [lambda lm, r: [lm.build_graph("abcd", [("a", "->", "b"), ("c", "->", "b"), ("b", "--", "d")])] + r[1:]],
    "model": [_drop_statement],
    "closure": [_drop_statement],
    "axioms": [lambda lm, r: {**r, next(iter(r)): "planted violation"}],
    "equiv": [lambda lm, r: not r],
    "cli-model": [lambda lm, r: _cli(r, lambda d: d["result"].pop())],
    "cli-closure": [lambda lm, r: _cli(r, lambda d: d["result"].pop(0))],
    "cli-axioms": [lambda lm, r: _cli(r, lambda d: d["result"].update(symmetry="planted violation"))],
    "cli-ribbons": [lambda lm, r: _cli(r, lambda d: d["counterexample"].pop(0))],
    "cli-classify": [lambda lm, r: _cli(r, lambda d: d["result"].update(dag=not d["result"]["dag"]))],
    "cli-maximalize": [lambda lm, r: _cli(r, lambda d: d.update(result="\n".join(d["result"].splitlines()[:-1])))],
}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    problems, caught = [], 0
    for name in workloads.WORKLOADS:
        plan = workloads.build(name, 1)
        in_dir = run.HERE / "_inputs" / f"selftest-{name}"
        in_dir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for file, spec in plan.files.items():
            paths[file] = in_dir / file
            paths[file].write_text(spec.text())
        _, lm, graphs = run.setup(paths)
        ops = plan.make_ops(lm, graphs, {k: str(v) for k, v in paths.items()})
        pending = {op.kind: list(PLANTS[op.kind]) for op in ops}
        for op in ops:
            if not pending[op.kind]:
                continue
            result = run.attempt(op)
            if isinstance(result, run.Failure):
                continue
            if op.check(result) is not None:
                problems.append(f"{name}/{op.kind}: right answer rejected: {op.check(result)}")
                pending[op.kind] = []
                continue
            for plant in list(pending[op.kind]):
                wrong = plant(lm, result)
                if wrong is None:
                    continue
                pending[op.kind].remove(plant)
                verdict = op.check(wrong)
                if verdict is None:
                    problems.append(f"{name}/{op.kind}: planted wrong answer passed")
                else:
                    caught += 1
                    print(f"{name:17s} {op.kind:15s} caught: {verdict[:90]}")
        problems += [f"{name}/{kind}: no answer to plant into" for kind, left in pending.items() if left]
    for p in problems:
        print(f"PROBLEM {p}")
    print(f"{caught} planted errors caught, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
