"""Planted-fault register: source mutants that the tier-1 tests must kill.

Each entry names a file, an exact old text, the new text that replaces it
and the test node ids that must fail. For each entry the script copies the
repository's ``src/``, ``tests/``, ``fixtures/`` and ``pyproject.toml`` to a
temporary directory, applies that one mutant there and runs only its tests
on the copy. A mutant is killed when every test it names fails; name only
tests that draw no random examples, so that a kill does not depend on luck.

Before it plants anything, the script runs every test the register names
once on an unmutated copy and stops, exiting non-zero, if one of them fails
there: a test that fails without its mutant shows no kill. It then exits
non-zero when a mutant survives, when one of its tests still passes, or
when an old text does not occur exactly once in its file, so the register
has to move with the code. Retire a mutant only when the code it plants a
fault in is deleted.

Run from anywhere, with pytest installed:

    python tools/mutants.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "fixtures", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


_ANTERIOR_ENDS = "        return _mask(ends) | self.ancestors(ends)\n"

MUTANTS = (
    # The anterior rewrite's closed form: line ends and all their ancestors.
    Mutant(
        "anterior ends: line ends only",
        "src/lmgraphs/graph.py",
        _ANTERIOR_ENDS,
        "        return _mask(ends)\n",
        ("tests/test_graph.py::TestAnteriorGraph::test_fig2a_to_fig2b",),
    ),
    Mutant(
        "anterior ends: descendants for ancestors",
        "src/lmgraphs/graph.py",
        _ANTERIOR_ENDS,
        "        return _mask(ends) | _mask(w for w, an in enumerate(self.ancestor_masks) if an & _mask(ends))\n",
        ("tests/test_graph.py::TestAnteriorGraph::test_fig2a_to_fig2b",),
    ),
    Mutant(
        "anterior ends: one parent step",
        "src/lmgraphs/graph.py",
        _ANTERIOR_ENDS,
        "        return _mask(ends) | _mask(p for v in ends for p in self.parents[v])\n",
        ("tests/test_separation.py::TestAnteriorConfinement::test_masks_are_anterior_sets",
         "tests/test_separation.py::TestAnteriorConfinement::test_witnesses_match_unpruned_search"),
    ),
    Mutant(
        "anterior ends: two parent steps",
        "src/lmgraphs/graph.py",
        _ANTERIOR_ENDS,
        "        return _mask(ends) | _mask(q for v in ends for p in self.parents[v]"
        " for q in (p, *self.parents[p]))\n",
        ("tests/test_graph.py::TestAnteriorGraph::test_long_arrow_chain",),
    ),
    # Faults in the fast routes that earlier changes added.
    Mutant(
        "closure: contraction's (rd >> b) & r dropped",
        "src/lmgraphs/independence.py",
        "bits |= ((r >> d) & rd | (rd >> b) & r) & kept",
        "bits |= ((r >> d) & rd) & kept",
        ("tests/test_independence_reference.py::test_closure_equals_reference_on_raw_models[semigraphoid]",
         "tests/test_independence_reference.py::test_closure_equals_reference_on_theorem_corpora[semigraphoid]"),
    ),
    Mutant(
        "anterior_masks: lines left out of the relation",
        "src/lmgraphs/graph.py",
        "        ups = tuple(p + w for p, w in zip(self.parents, self.lines))\n"
        "        downs = tuple(c + w for c, w in zip(self.children, self.lines))\n",
        "        ups, downs = self.parents, self.children\n",
        ("tests/test_separation.py::TestAnteriorConfinement::test_masks_are_anterior_sets",
         "tests/test_graph.py::TestAnteriors::test_fig2_anterior_sets",
         "tests/test_separation.py::test_masks_on_every_form"),
    ),
    Mutant(
        "ancestor_masks: own bit set",
        "src/lmgraphs/graph.py",
        "        return _fold(self.components, self.parents, False)\n",
        "        return _fold(self.components, self.parents, True)\n",
        ("tests/test_structure_reference.py::test_ancestor_masks_match_ancestors",),
    ),
    Mutant(
        "_reach: anterior scope in the visited-mask lane",
        "src/lmgraphs/separation.py",
        "            if not (pass_head if head_v else pass_tail) or mask >> w & 1:\n",
        "            if not (pass_head if head_v else pass_tail) or mask >> w & 1 or (\n"
        "                    stop and not compiled.anterior_scope((*sources, *stop, *c)) >> w & 1):\n",
        ("tests/test_separation.py::TestAnteriorConfinement::test_visited_mask_lane_is_not_confined",),
    ),
    Mutant(
        "inducing_candidates: only nodes with an arc numbered",
        "src/lmgraphs/graph.py",
        "        inner = sum(1 << v for v, below in enumerate(self.children) if below)\n",
        "        inner = sum(1 << v for v, below in enumerate(self.children) if below and steps[v][0])\n",
        ("tests/test_structure_reference.py::test_candidates_hold_every_live_pair",),
    ),
    Mutant(
        "inducing_candidates: senders read from the wrong step column",
        "src/lmgraphs/graph.py",
        "                sent |= steps[v][0] | steps[v][1]\n",
        "                sent |= steps[v][0] | steps[v][2]\n",
        ("tests/test_structure_reference.py::test_candidates_hold_every_live_pair",),
    ),
    Mutant(
        "pairwise_model: C keeps x",
        "src/lmgraphs/independence.py",
        "(ant[x] | ant[y]) & ~(1 << x | 1 << y)",
        "(ant[x] | ant[y]) & ~(1 << y)",
        ("tests/test_independence.py::TestPairwiseModel::test_fig7_statements",
         "tests/test_independence_reference.py::test_pairwise_model_equals_per_node_anteriors"),
    ),
    Mutant(
        "pairwise membership: C ignored",
        "src/lmgraphs/independence.py",
        "        return mask is not None and _label_set(self._labels, mask) == c\n",
        "        return mask is not None\n",
        ("tests/test_independence.py::TestMaskBuiltPairwiseModel::test_no_statement_before_it_is_read",
         "tests/test_independence_reference.py::test_contains_equals_statement_membership[True]"),
    ),
    Mutant(
        "pairwise membership: orientation ignored",
        "src/lmgraphs/independence.py",
        "        x, y = sorted(index[v] for v in (*a, *b))\n",
        "        x, y = [index[v] for v in (*a, *b)]\n",
        ("tests/test_independence.py::TestMaskBuiltPairwiseModel::test_no_statement_before_it_is_read",
         "tests/test_independence.py::TestMaskBuiltPairwiseModel::test_statements_and_rows_match_eager_build",
         "tests/test_independence_reference.py::test_contains_equals_statement_membership[True]"),
    ),
    Mutant(
        "satisfies_pairwise: one orientation walked",
        "src/lmgraphs/independence.py",
        "        given[x, y] = given[y, x] = c\n",
        "        given[x, y] = c\n",
        ("tests/test_independence_reference.py::test_satisfies_pairwise_equals_the_listing",),
    ),
    Mutant(
        "satisfies_pairwise: triples walked out of sort-key order",
        "src/lmgraphs/independence.py",
        "    for (x, y), mask in sorted(given.items()):\n",
        "    for (x, y), mask in given.items():\n",
        ("tests/test_independence_reference.py::test_satisfies_pairwise_equals_the_listing",),
    ),
    Mutant(
        "_require_cap: a graph at the cap refused",
        "src/lmgraphs/graph.py",
        "    if n > cap:\n",
        "    if n >= cap:\n",
        ("tests/test_independence.py::TestModelBasics::test_axiom_check_limit",
         "tests/test_independence.py::TestEnumerateModel::test_limit_enforced",
         "tests/test_cli.py::TestExitCodes::test_closure_limit_applies_unless_overridden",
         "tests/test_structure.py::TestMaximality::test_oracle_refuses_large_graphs"),
    ),
    # _step passes every tail state it is handed over every edge: _joined
    # decides that none lies at a node of C, by dropping them from each
    # side's unseen tails, so the fault goes there, on A's side.
    Mutant(
        "_joined: tail states kept at a node of C",
        "src/lmgraphs/separation.py",
        "= scope, outside ^ a, 0, a,",
        "= scope, scope ^ a, 0, a,",
        ("tests/test_separation.py::TestFrontierWalk::test_frontier_walk_matches_reference",
         "tests/test_separation.py::TestCGatedWalk::test_singletons_match_oracle_and_mask_lane",
         "tests/test_acceptance.py::test_c12_engine_oracle_agreement"),
    ),
    Mutant(
        "_step: C bounces over tails",
        "src/lmgraphs/separation.py",
        "        step_head, step_tail, _, _ = steps[v]\n",
        "        _, _, step_head, step_tail = steps[v]\n",
        ("tests/test_separation.py::TestCGatedWalk::test_walk_bounces_off_c",),
    ),
    Mutant(
        "_step: an arrowhead outside C leaves over the edges with one",
        "src/lmgraphs/separation.py",
        "        _, _, step_head, step_tail = steps[v]\n",
        "        step_head, step_tail, _, _ = steps[v]\n",
        ("tests/test_separation.py::TestFrontierWalk::test_frontier_walk_matches_reference",
         "tests/test_separation.py::TestCGatedWalk::test_singletons_match_oracle_and_mask_lane"),
    ),
    # The two-sided walk: where the walks from A and from B meet.
    Mutant(
        "_joined: a head-head meet accepted outside C",
        "src/lmgraphs/separation.py",
        "        join_head = gate & ~far_head | outside & ~far_tail\n",
        "        join_head = scope & ~far_head | outside & ~far_tail\n",
        ("tests/test_separation.py::TestTwoSidedWalk::test_arrowheads_meet_only_in_c",),
    ),
    Mutant(
        "_joined: an arrowhead meets a tail at a node of C",
        "src/lmgraphs/separation.py",
        "        join_head = gate & ~far_head | outside & ~far_tail\n",
        "        join_head = gate & ~far_head | scope & ~far_tail\n",
        ("tests/test_separation.py::TestTwoSidedWalk::test_tails_meet_only_outside_c",),
    ),
    Mutant(
        "_joined: B's side entering a node of A not checked",
        "src/lmgraphs/separation.py",
        "fresh_head, fresh_tail, size = scope, outside ^ a, 0, a, len(sources)\n",
        "fresh_head, fresh_tail, size = scope, outside, 0, a, len(sources)\n",
        ("tests/test_separation.py::TestTwoSidedWalk::test_b_side_entering_a_meets",
         "tests/test_separation.py::TestTwoSidedWalk::test_smaller_b_side_walks_first"),
    ),
    Mutant(
        "steps: the mark at w ignored",
        "src/lmgraphs/graph.py",
        "                masks[2 * (not head_v) + (not head_w)] |= 1 << w\n",
        "                masks[2 * (not head_v)] |= 1 << w\n",
        ("tests/test_separation.py::TestFrontierWalk::test_frontier_walk_matches_reference",
         "tests/test_separation.py::TestEngineOnFigures::test_fig3_connected_given_l",
         "tests/test_independence.py::TestEnumerateModel::test_fig3_membership"),
    ),
    Mutant(
        "_gate_patterns: gates swapped",
        "src/lmgraphs/independence.py",
        "return tuple((every ^ out * repeat, out * repeat) for out in _avoiding(n))",
        "return tuple((out * repeat, every ^ out * repeat) for out in _avoiding(n))",
        ("tests/test_independence.py::TestEnumerateModel::test_fig3_membership",),
    ),
    Mutant(
        "_proper_splits: reverse size order",
        "src/lmgraphs/independence.py",
        "    for r in range(1, len(items)):\n",
        "    for r in reversed(range(1, len(items))):\n",
        ("tests/test_independence_reference.py::test_first_missing_split_keeps_the_smallest_part[decomposition]",
         "tests/test_independence_reference.py::test_first_missing_split_keeps_the_smallest_part[weak_union]"),
    ),
    Mutant(
        "check_axiom: intersection's (rd >> b) unshifted",
        "src/lmgraphs/independence.py",
        "bad = (rb >> d) & (rd >> b) & ~joint",
        "bad = (rb >> d) & rd & ~joint",
        ("tests/test_independence.py::TestAxioms::test_intersection_and_composition_detect_gaps",),
    ),
    Mutant(
        "_inducing_live: only x's ancestors",
        "src/lmgraphs/structure.py",
        "    live = (an[x] | an[y]) & ~(1 << x | 1 << y)\n",
        "    live = an[x] & ~(1 << x | 1 << y)\n",
        ("tests/test_structure.py::TestMaximality::test_fig6_not_maximal",),
    ),
    Mutant(
        "_inducing_live: heads from the arc masks only",
        "src/lmgraphs/structure.py",
        "        start = (arcs | arrows) & live\n",
        "        start = arcs & live\n",
        ("tests/test_structure.py::TestMaximality::test_fig6_not_maximal",
         "tests/test_structure_reference.py::test_inducing_live_matches_reference"),
    ),
    # The ribbon scan: one fold for the witnesses, one bit per shortcut.
    Mutant(
        "find_ribbons: shortcut ignores the mark at j",
        "src/lmgraphs/structure.py",
        "steps[h][2 * (not head_h) + (not head_j)] >> j & 1",
        "steps[h][2 * (not head_h)] >> j & 1",
        ("tests/test_structure_reference.py::test_ribbons_match_reference",
         "tests/test_acceptance.py::test_c03_ribbons"),
    ),
    Mutant(
        "find_ribbons: a marked collider is not its own witness",
        "src/lmgraphs/structure.py",
        "        witness = inner if marked >> inner & 1 else (hit & -hit).bit_length() - 1\n",
        "        witness = (hit & -hit).bit_length() - 1\n",
        ("tests/test_structure_reference.py::test_ribbons_match_reference",),
    ),
    Mutant(
        "find_ribbons: cycle nodes count as line ends",
        "src/lmgraphs/structure.py",
        "        if hit := below[inner] & ends:\n",
        "        if hit := below[inner] & (ends | cyclic):\n",
        ("tests/test_structure_reference.py::test_ribbons_match_reference",),
    ),
    # The one label codec: every node mask becomes labels through _digits.
    Mutant(
        "_digits: bits read highest first",
        "src/lmgraphs/graph.py",
        '    return f"{mask:0{n}b}"[::-1].encode().translate(_BIT_BYTES)\n',
        '    return f"{mask:0{n}b}".encode().translate(_BIT_BYTES)\n',
        ("tests/test_graph.py::TestAncestors::test_chain",
         "tests/test_graph.py::TestAnteriors::test_fig2_anterior_sets",
         "tests/test_graph.py::TestAnteriorGraph::test_fig2a_to_fig2b",
         "tests/test_independence.py::TestPairwiseModel::test_fig7_statements"),
    ),
    # The ancestry routes: one walk for one set, one fold for every node.
    Mutant(
        "CompiledGraph.ancestors: targets in the result",
        "src/lmgraphs/graph.py",
        "        stack = [p for t in targets for p in parents[t]]\n",
        "        stack = list(targets)\n",
        ("tests/test_graph.py::TestAncestors::test_chain",
         "tests/test_structure_reference.py::test_ancestry_matches_reference"),
    ),
    Mutant(
        "MixedGraph.descendants: mask bits read the wrong way",
        "src/lmgraphs/graph.py",
        "        return {compiled.labels[w] for w, an in enumerate(compiled.ancestor_masks) if an & below}\n",
        "        return {compiled.labels[w] for w in range(len(compiled.labels))"
        " if any(compiled.ancestor_masks[s] >> w & 1 for s in _bits(below))}\n",
        ("tests/test_graph.py::TestAncestors::test_chain",
         "tests/test_structure_reference.py::test_ancestry_matches_reference"),
    ),
    Mutant(
        "_require: the largest unknown label named",
        "src/lmgraphs/graph.py",
        'return GraphError(f"unknown node {min(set(labels) - known)!r}")',
        'return GraphError(f"unknown node {max(set(labels) - known)!r}")',
        ("tests/test_independence.py::TestLabelRefusal::test_contains_names_the_smallest_unknown_label",
         "tests/test_separation.py::TestLabelRefusal::test_one_node_path_refuses_an_unknown_c"),
    ),
)


def _failed(output: str) -> set[str]:
    """Node ids pytest's short summary reports as failed or in error."""
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE))


def run_copy(tests: tuple[str, ...], mutant: Mutant | None = None) -> tuple[str, str | None]:
    """Run ``tests`` on a fresh copy of the repository, with ``mutant``
    applied when one is given: (pytest's output, None), or ("", why the
    tests could not run)."""
    with tempfile.TemporaryDirectory(prefix="lmgraphs-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            else:
                shutil.copy2(source, copy / name)
        if mutant is not None:
            target = copy / mutant.path
            text = target.read_text(encoding="utf-8")
            count = text.count(mutant.old)
            if count != 1:
                return "", f"old text occurs {count} times in {mutant.path}"
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    if result.returncode not in (0, 1):
        return "", f"pytest exited {result.returncode}:\n{result.stdout}{result.stderr}"
    return result.stdout, None


def baseline() -> str | None:
    """None when every test the register names passes on an unmutated copy,
    else which do not: a test that fails without its mutant shows no kill."""
    output, problem = run_copy(tuple(sorted({t for m in MUTANTS for t in m.tests})))
    if problem:
        return problem
    failed = sorted(_failed(output))
    return "failed without a mutant: " + ", ".join(failed) if failed else None


def run(mutant: Mutant) -> str | None:
    """None when the mutant is killed, else why not."""
    output, problem = run_copy(mutant.tests, mutant)
    if problem:
        return problem
    failed = _failed(output)
    alive = [t for t in mutant.tests if not any(f == t or f.startswith(t + "[") for f in failed)]
    if alive:
        return "survived: " + ", ".join(alive) + " passed"
    return None


def main() -> int:
    start = time.perf_counter()
    problem = baseline()
    print(f"{'passed' if problem is None else 'FAIL':6}  baseline: the named tests on an unmutated copy"
          + (f": {problem}" if problem else ""))
    if problem:
        return 1
    bad = 0
    for mutant in MUTANTS:
        problem = run(mutant) if mutant.tests else "names no test"
        bad += problem is not None
        print(f"{'killed' if problem is None else 'FAIL':6}  {mutant.name}" + (f": {problem}" if problem else ""))
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
