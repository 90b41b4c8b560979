"""Run one benchmark workload against the lmgraphs sources of this checkout.

    python3 bench/run.py --workload anterior-queries --seed 1 --seconds 20 --trace 0

One process, one caller, no threads: a closed loop that runs the workload's
round of library calls and in-process ``lmg`` calls again and again until
``--seconds`` have passed, finishing the round it is in. After the loop every
answer is checked against a computation made apart from the engine (see
``reference.py``). The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run is traced
(``tracing.py``) and the metrics are the per-layer ones.

Inputs are written under ``bench/_inputs`` and the traced run's spans under
``bench/_out``. The program must come from ``src/`` beside this directory;
without it the run exits 2 before printing a result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 15

import workloads  # noqa: E402


def import_lmgraphs():
    """A fresh import of the package and its command-line module."""
    for name in [m for m in sys.modules if m == "lmgraphs" or m.startswith("lmgraphs.")]:
        del sys.modules[name]
    lm = importlib.import_module("lmgraphs")
    importlib.import_module("lmgraphs.cli")
    return lm


def setup(files: dict[str, Path]):
    """Import lmgraphs and parse every input file; returns the seconds taken."""
    t0 = time.perf_counter()
    lm = import_lmgraphs()
    graphs = {name: lm.load_graph(str(path)) for name, path in files.items()}
    return time.perf_counter() - t0, lm, graphs


class Failure:
    """An operation that raised; equal to any other failure of the same type."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__
        self.text = f"{self.kind}: {exc}"[:200]

    def __eq__(self, other) -> bool:
        return isinstance(other, Failure) and other.kind == self.kind


def attempt(op):
    try:
        return op.call()
    except Exception as exc:  # a failing operation is counted, not fatal
        return Failure(exc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lmgraphs" / "__init__.py").is_file():
        print(f"error: no lmgraphs sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    plan = workloads.build(args.workload, args.seed)
    in_dir = HERE / "_inputs" / f"{args.workload}-{args.seed}"
    in_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, spec in plan.files.items():
        paths[name] = in_dir / name
        paths[name].write_text(spec.text())

    setup(paths)  # untimed: lets the first run in a checkout compile bytecode
    took, lm, graphs = setup(paths)
    setup_times = [took]
    own = {name: m for name, m in sys.modules.items() if name == "lmgraphs" or name.startswith("lmgraphs.")}

    def setup_again() -> None:
        """One more timed set-up; the operations keep the modules and graphs
        of the first, which go back into ``sys.modules``."""
        setup_times.append(setup(paths)[0])
        for name in [m for m in sys.modules if m == "lmgraphs" or m.startswith("lmgraphs.")]:
            del sys.modules[name]
        sys.modules.update(own)

    if not Path(lm.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: lmgraphs imported from {lm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    ops = plan.make_ops(lm, graphs, {k: str(v) for k, v in paths.items()})
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(lm)

    # The first round's answers are the ones checked; every later round must
    # repeat them.
    samples, first = [[] for _ in ops], []
    attempted = failed = rounds = 0
    drift = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while rounds == 0 or time.perf_counter() < deadline:
        for k, op in enumerate(ops):
            t0 = time.perf_counter()
            result = attempt(op)
            samples[k].append(time.perf_counter() - t0)
            attempted += 1
            failed += isinstance(result, Failure)
            if rounds == 0:
                first.append(result)
            elif result != first[k]:
                drift.append(k)
        rounds += 1
        # Set-ups are spread over the run, between rounds, so that their
        # median sees the same spells of the machine as the operations do.
        while (len(setup_times) < SETUP_REPEATS
               and time.perf_counter() >= start + len(setup_times) * args.seconds / SETUP_REPEATS):
            setup_again()
    while len(setup_times) < SETUP_REPEATS:
        setup_again()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Each operation's time is its fastest round, which also leaves out the
    # first round's filling of lazy caches. Other tenants of a shared machine
    # only ever add time, and they add a lot: the medians of a fixed loop over
    # two-second windows ranged 18-33 ms where its minima ranged 17-20 ms.
    # A failed operation has no latency.
    typical = [min(s) for s in samples]
    ops_per_s = sum(not isinstance(r, Failure) for r in first) / sum(typical)
    if tracer is not None:
        tracer.uninstall()
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-{args.seed}.json", rounds)
        metrics = tracer.metrics(rounds)
    else:
        latency_ms = [math.inf if isinstance(r, Failure) else t * 1e3 for t, r in zip(typical, first)]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (statistics.median(latency_ms), "ms"),
            "op_p90_ms": (statistics.quantiles(latency_ms, n=10, method="inclusive")[8], "ms"),
            "cli_p50_ms": (statistics.median(t for t, op in zip(latency_ms, ops) if op.cli), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    errors = [f"op {k} ({ops[k].kind}): answer changed between rounds" for k in sorted(set(drift))]
    for k, (op, result) in enumerate(zip(ops, first)):
        if isinstance(result, Failure):
            print(f"failed: op {k} ({op.kind}): {result.text}", file=sys.stderr)
            continue
        try:
            err = op.check(result)
        except Exception:
            err = "checker raised:\n" + traceback.format_exc()
        if err:
            errors.append(f"op {k} ({op.kind}): {err}")
    for err in errors:
        print(f"wrong: {err}", file=sys.stderr)

    print(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} operations, "
          f"{sum(map(sum, samples)):.2f} s busy, {time.perf_counter() - deadline + args.seconds:.2f} s with checks, "
          f"ops_per_s {ops_per_s:.2f}{' traced' if tracer else ''}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
