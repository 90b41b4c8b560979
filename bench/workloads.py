"""Seeded inputs and the fixed operation list of each workload.

A workload is built from ``--seed`` alone: ``build(name, seed)`` returns the
graph files to write and a function that turns the parsed graphs into the
round of operations. Every round runs the same operations, and each one
carries the check that compares its answer with ``reference``. Operation
counts do not depend on the seed, so the share of failed operations is the
same in every run.

The structure of each graph and query is drawn from a fixed generator; the
seed draws how it is presented: a permutation of the node labels, the order
of the edges in the file, which way round lines and arcs are written, and
the symmetry of each grid. Seed-drawn structure moved a round's cost by
10-25% between seeds, far more than a regression bound can absorb. Label
order steers the library's sorted iteration, depth-first orders and early
exits, so seeds do exercise different work. In anterior-queries that moved
single queries 3x, so there the seed renames nodes but keeps their order
(``order_keeping``).

Library functions are looked up on the module at call time (``lm.m_separated``
rather than a bound name), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import networkx as nx

import reference as ref
from reference import Spec



@dataclass
class Op:
    """One timed call. ``kind`` names its checker and its planted error."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    cli: bool = False


@dataclass
class Plan:
    files: dict[str, Spec]
    make_ops: Callable[[Any, dict[str, Any], dict[str, str]], list[Op]]


def build(name: str, seed: int) -> Plan:
    shape = random.Random(f"{name}:shape")
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](shape, rng)


def relabel(rng: random.Random, spec: Spec, mapping: Optional[dict] = None) -> tuple[Spec, dict]:
    """The same graph under a seeded permutation of its labels, its edges
    listed in a seeded order, lines and arcs written either way round."""
    if mapping is None:
        mapping = dict(zip(spec.nodes, rng.sample(spec.nodes, len(spec.nodes))))
    edges = []
    for a, op, b in spec.edges:
        a, b = mapping[a], mapping[b]
        if op != "->" and rng.random() < 0.5:
            a, b = b, a
        edges.append((a, op, b))
    rng.shuffle(edges)
    return Spec(sorted(mapping.values()), edges), mapping


def order_keeping(rng: random.Random, spec: Spec) -> dict[str, str]:
    """Seeded five-digit labels that sort in the same order as the old ones.
    The engine tries pairs and edges in label order, so this renaming leaves
    every search as it was; a permutation moved single queries by 3x and
    the round's p90 by 20% from seed to seed."""
    prefix = spec.nodes[0].rstrip("0123456789")
    codes = sorted(rng.sample(range(10 ** 5), len(spec.nodes)))
    return {n: f"{prefix}{c:05d}" for n, c in zip(sorted(spec.nodes), codes)}


def relabel_all(rng: random.Random, specs: dict[str, Spec], queries: list, mappings=None):
    """Relabel every graph, and each (file, (A, B, C)) query with its graph."""
    files, maps = {}, {}
    for name, spec in specs.items():
        files[name], maps[name] = relabel(rng, spec, (mappings or {}).get(name))
    moved = [(name, tuple(sorted(maps[name][n] for n in part) for part in q)) for name, q in queries]
    return files, moved


# -- graph families -------------------------------------------------------------


def _labels(rng: random.Random, n: int, prefix: str) -> list[str]:
    """Zero-padded labels in shuffled order, so label order is not
    topological order."""
    width = len(str(n - 1))
    labels = [f"{prefix}{k:0{width}d}" for k in range(n)]
    rng.shuffle(labels)
    return labels


def sparse_dag(rng: random.Random, n: int, prefix: str, arcs: int = 0) -> Spec:
    """Each node draws 0-3 parents, mostly from the 30 nodes before it in a
    hidden order; ``arcs`` extra arcs join random near pairs (an ADMG)."""
    v = _labels(rng, n, prefix)
    edges = []
    for i in range(1, n):
        k = min(i, rng.choice((0, 1, 1, 2, 2, 3)))
        pool = range(max(0, i - 30), i) if rng.random() < 0.8 else range(i)
        for p in rng.sample(pool, min(k, len(pool))):
            edges.append((v[p], "->", v[i]))
    seen = {(a, b) for a, _, b in edges} | {(b, a) for a, _, b in edges}
    while arcs:
        i = rng.randrange(n)
        j = min(n - 1, i + rng.randint(1, 20))
        if i != j and (v[i], v[j]) not in seen:
            seen.update({(v[i], v[j]), (v[j], v[i])})
            edges.append((v[i], "<->", v[j]))
            arcs -= 1
    return Spec(sorted(v), edges)


def diamond_chain(k: int) -> Spec:
    """x -> p -> z with k arrow diamonds hanging off p. Chain labels sort
    before z, so a depth-first witness search walks all 2**k dead-end paths
    through the diamonds before it tries p -> z."""
    edges = [("x", "->", "p"), ("p", "->", "z")]
    top = "p"
    for i in range(k):
        a, b, q = f"d{i:02d}a", f"d{i:02d}b", f"d{i:02d}q"
        edges += [(top, "->", a), (top, "->", b), (a, "->", q), (b, "->", q)]
        top = q
    nodes = sorted({n for a, _, b in edges for n in (a, b)})
    return Spec(nodes, edges)


def arrow_chain(n: int) -> Spec:
    v = [f"c{k:04d}" for k in range(n)]
    return Spec(v, [(v[k], "->", v[k + 1]) for k in range(n - 1)])


def grid(side: int) -> Spec:
    """A side x side grid of lines g<row><col> plus arrows u -> g from leaves
    into three grid nodes: ribbonless (no node has two arrowheads) and not
    anterior (arrowheads meet lines). No path has a collider."""
    cell = lambda r, c: f"g{r}{c}"  # noqa: E731
    edges = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                edges.append((cell(r, c), "--", cell(r, c + 1)))
            if r + 1 < side:
                edges.append((cell(r, c), "--", cell(r + 1, c)))
    targets = [cell(1, 1), cell(side - 2, 1), cell(1, side - 1)]
    edges += [(f"u{k}", "->", t) for k, t in enumerate(targets)]
    nodes = [cell(r, c) for r in range(side) for c in range(side)]
    return Spec(sorted(nodes + [f"u{k}" for k in range(len(targets))]), edges)


def square_symmetry(rng: random.Random, spec: Spec, side: int) -> dict[str, str]:
    """One of the eight symmetries of the grid, as a relabelling: it maps
    the grid onto itself, so every query costs the same under every seed."""
    flip, swap = rng.randrange(4), rng.random() < 0.5
    mapping = {n: n for n in spec.nodes}
    for r in range(side):
        for c in range(side):
            rr = side - 1 - r if flip & 1 else r
            cc = side - 1 - c if flip & 2 else c
            mapping[f"g{r}{c}"] = f"g{cc}{rr}" if swap else f"g{rr}{cc}"
    return mapping


def random_mixed(rng: random.Random, n: int, edges_per_node: float, prefix: str,
                 weights=(1, 2, 1), cycles: int = 0) -> Spec:
    """Random pairs joined by a line, arrow or arc in the given proportions,
    plus ``cycles`` directed cycles of 3 to 5 nodes."""
    v = _labels(rng, n, prefix)
    edges = []
    for _ in range(int(n * edges_per_node)):
        a, b = rng.sample(v, 2)
        op = rng.choices(("--", "->", "<->"), weights)[0]
        edges.append((a, op, b))
    for _ in range(cycles):
        ring = rng.sample(v, rng.randint(3, 5))
        edges += [(ring[k], "->", ring[(k + 1) % len(ring)]) for k in range(len(ring))]
    return Spec(sorted(v), edges)


# -- adapters from library objects to reference form ----------------------------


def spec_of(graph) -> Spec:
    edges = [ref.edge(e.a, e.b, e.head_at(e.a), e.head_at(e.b)) for e in graph.edges]
    return Spec(sorted(graph.nodes), edges)


def parse_spec(text: str) -> Spec:
    nodes, edges = [], []
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if len(tokens) == 2:
            nodes.append(tokens[1])
        elif len(tokens) == 3:
            edges.append(tuple(tokens))
            nodes.extend(t for t in (tokens[0], tokens[2]) if t not in nodes)
    return Spec(sorted(set(nodes)), edges)


def path_hops(path) -> list[tuple[str, str, bool, bool]]:
    return [
        (u, v, e.head_at(u), e.head_at(v))
        for u, e, v in zip(path.nodes, path.edges, path.nodes[1:])
    ]


def run_cli(lm, argv: list[str]) -> tuple[int, str]:
    """``lmg`` in process: exit code and captured standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = lm.cli.main(argv)
    return code, out.getvalue()


def _json(result: tuple[int, str]) -> dict:
    return json.loads(result[1])


# -- checks -------------------------------------------------------------------


def expect(got, want, what: str) -> Optional[str]:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def check_witness(spec: Spec, a, b, c, hops) -> Optional[str]:
    if ref.separated(spec, a, b, c):
        return "witness returned for a separated query"
    return ref.check_path(spec, hops, set(a), set(b), c)


def check_cli_msep(spec: Spec, a, b, c, sep: bool, result) -> Optional[str]:
    code, _ = result
    doc = _json(result)
    err = expect(code, 0 if sep else 1, "exit code") or expect(doc["result"], sep, "msep")
    if err or sep:
        return err
    if "witness" not in doc:
        return "connected answer without a witness"
    return ref.check_path(spec, ref.parse_path(doc["witness"]), set(a), set(b), c)


def check_ribbons(spec: Spec, sigs: dict[tuple, tuple[str, str]]) -> Optional[str]:
    want = ref.ribbons(spec)
    if set(sigs) != set(want):
        return f"ribbon signatures differ: {sorted(set(sigs) ^ set(want))[:3]}"
    for key, (flavor, witness) in sigs.items():
        if flavor != want[key][0] or witness not in want[key][1]:
            return f"ribbon {key}: {flavor} via {witness} disagrees with the definition"
    return None


def ribbon_sigs(ribbons) -> dict[tuple, tuple[str, str]]:
    out = {}
    for r in ribbons:
        (h, i, j), (e1, e2) = r.tripath.nodes, r.tripath.edges
        out[(h, i, j, e1.head_at(h), e2.head_at(j))] = (r.flavor.value, r.witness)
    return out


def cli_ribbon_sigs(doc: dict) -> dict[tuple, tuple[str, str]]:
    out = {}
    for r in doc.get("counterexample", []):
        (h, i, hh, _), (_, j, _, hj) = ref.parse_path(r["path"])
        out[(h, i, j, hh, hj)] = (r["flavor"], r["witness"])
    return out


def check_violations(spec: Spec, found: list[tuple[str, str, list]]) -> Optional[str]:
    """For an ADMG, a non-adjacent pair has a separator iff
    (an(x) | an(y)) - {x, y} d-separates it, and iff no primitive inducing
    path joins it."""
    want = set()
    for x, y in _pairs(spec):
        if not spec.adjacent(x, y) and not d_sep_ant(spec, x, y):
            want.add((x, y))
    got = {(x, y) for x, y, _ in found}
    if got != want:
        return f"violating pairs differ: {sorted(got ^ want)[:3]}"
    for x, y, hops in found:
        allowed = ref.ancestors(spec, [x, y])
        nodes = [hops[0][0]] + [v for _, v, _, _ in hops]
        if nodes[0] != x or nodes[-1] != y or len(set(nodes)) != len(nodes):
            return f"inducing path {nodes} does not join {x} and {y}"
        for hop in hops:
            if hop not in spec.marks:
                return f"inducing path edge {hop} is not in the graph"
        for (_, v, _, head_in), (_, _, head_out, _) in zip(hops, hops[1:]):
            if not (head_in and head_out and v in allowed):
                return f"inner node {v} of an inducing path is not a collider in an({x},{y})"
    return None


def _pairs(spec: Spec):
    return itertools.combinations(sorted(spec.nodes), 2)


def d_sep_ant(spec: Spec, x: str, y: str) -> bool:
    return ref.d_separated(spec, [x], [y], (ref.ancestors(spec, [x, y])) - {x, y})


def check_maximalize(before: Spec, after: Spec, samples) -> Optional[str]:
    if {op for _, op, _ in after.edges} - {"->", "<->"}:
        return "maximalize turned an ADMG into a graph with lines"
    if not before.marks <= after.marks:
        return "maximalize dropped an input edge"
    for x, y in _pairs(after):
        if not after.adjacent(x, y) and not d_sep_ant(after, x, y):
            return f"output not maximal: ({x},{y}) has no anterior separator"
    for a, b, c in samples:
        if ref.d_separated(before, a, b, c) != ref.d_separated(after, a, b, c):
            return f"maximalize changed the answer to {a} _||_ {b} | {c}"
    return None


def check_corpus(specs: list[Spec], count: int, maximal: bool) -> Optional[str]:
    if len(specs) != count:
        return f"{len(specs)} graphs, want {count}"
    for s in specs:
        if ref.ribbons(s):
            return "corpus graph has a ribbon"
        if maximal and not ref.maximal(s):
            return "corpus graph is not maximal"
    return None


def statements(model) -> frozenset:
    return frozenset((s.a, s.b, s.c) for s in model.statements)


# -- anterior-queries ---------------------------------------------------------


def _local_markov_query(rng: random.Random, spec: Spec):
    """A separated query from the local Markov property of the canonical DAG:
    a node x without arcs is separated from its non-descendants given its
    parents and any further non-descendants."""
    d = spec.arrows
    arc_ends = {n for a, op, b in spec.edges if op == "<->" for n in (a, b)}
    while True:
        x = rng.choice(spec.nodes)
        if x in arc_ends:
            continue
        parents = set(d.predecessors(x))
        others = sorted(set(spec.nodes) - {x} - parents - nx.descendants(d, x))
        nb, ne = rng.randint(1, 3), rng.randint(0, 8)
        if len(others) < nb + ne:
            continue
        pick = rng.sample(others, nb + ne)
        a, b, c = [x], pick[:nb], sorted(parents | set(pick[nb:]))
        return (a, b, c) if rng.random() < 0.5 else (b, a, c)


def _random_query(rng: random.Random, spec: Spec, max_c: int):
    pick = rng.sample(spec.nodes, 6 + max_c)
    na, nb = rng.randint(1, 3), rng.randint(1, 3)
    return pick[:na], pick[3:3 + nb], pick[6:6 + rng.randint(0, max_c)]


def anterior_queries(shape: random.Random, rng: random.Random) -> Plan:
    """400-node DAGs and ADMGs with set queries, 60-node ones behind
    ``lmg msep``, the diamond chain and the 1,501-node chain. The seed
    renames the nodes of the first two families without changing their
    order, since the cost of a set query and of a witness search turns on
    label order. The last two are not relabelled: the diamond chain's labels are what make the witness
    search walk it, and the chain fails the same way under any labels."""
    big = {
        f"dag{k}.lmg": sparse_dag(shape, 400, "v") for k in range(2)
    } | {
        f"admg{k}.lmg": sparse_dag(shape, 400, "v", arcs=100) for k in range(2)
    }
    mid = {f"mid{k}.lmg": sparse_dag(shape, 60, "m", arcs=10 * (k % 2)) for k in range(4)}
    queries = []
    for name, spec in big.items():
        for _ in range(12):
            queries.append((name, _local_markov_query(shape, spec)))
            queries.append((name, _random_query(shape, spec, 12)))
    cli_queries = []
    for name, spec in mid.items():
        for _ in range(2):
            cli_queries.append((name, _local_markov_query(shape, spec)))
            a, b, c = _random_query(shape, spec, 3)
            cli_queries.append((name, ([a[0]], [b[0]], c)))
    keep = {name: order_keeping(rng, spec) for name, spec in (big | mid).items()}
    files, moved = relabel_all(rng, big | mid, queries + cli_queries, keep)
    queries, cli_queries = moved[:len(queries)], moved[len(queries):]
    files |= {"diamonds.lmg": diamond_chain(9), "chain1501.lmg": arrow_chain(1501)}

    def make_ops(lm, graphs, paths) -> list[Op]:
        ops = []
        for name, (a, b, c) in queries:
            spec, g = files[name], graphs[name]
            ops.append(Op(
                "msep",
                lambda g=g, a=a, b=b, c=c: lm.m_separated(g, a, b, c),
                lambda r, s=spec, a=a, b=b, c=c: expect(r, ref.d_separated(s, a, b, c), "m_separated"),
            ))
        for name, (a, b, c) in cli_queries:
            spec = files[name]
            argv = ["msep", paths[name], "--a", ",".join(a), "--b", ",".join(b),
                    "--c", ",".join(c), "--format", "json"]
            ops.append(Op(
                "cli-msep",
                lambda argv=argv: run_cli(lm, argv),
                lambda r, s=spec, a=a, b=b, c=c: check_cli_msep(s, a, b, c, ref.d_separated(s, a, b, c), r),
                cli=True,
            ))
        g = graphs["diamonds.lmg"]
        ops.append(Op(
            "witness",
            lambda: lm.find_m_connecting_path(g, "x", "z", []),
            lambda r: "no witness" if r is None else check_witness(files["diamonds.lmg"], ["x"], ["z"], [], path_hops(r)),
        ))
        chain = files["chain1501.lmg"]
        argv = ["msep", paths["chain1501.lmg"], "--a", chain.nodes[0], "--b", chain.nodes[-1], "--format", "json"]
        ops.append(Op(
            "cli-msep",
            lambda: run_cli(lm, argv),
            lambda r: check_cli_msep(chain, chain.nodes[:1], chain.nodes[-1:], [], False, r),
            cli=True,
        ))
        return ops

    return Plan(files, make_ops)


# -- general-lane ---------------------------------------------------------------


def _grid_queries(rng: random.Random, spec: Spec, side: int):
    """Singleton queries on a grid: corner to far corner given the far
    corner's neighbours (separated, and the general lane's worst case: every
    simple path from x is explored), the same given x's neighbours (separated
    at once), and random pairs given 0 to 3 random nodes, which mostly
    connect."""
    far = side - 1
    out = [
        (["g00"], [f"g{far}{far}"], [f"g{far - 1}{far}", f"g{far}{far - 1}"]),
        (["g00"], [f"g{far}{far}"], ["g01", "g10"]),
    ]
    for _ in range(14):
        x, y = rng.sample(spec.nodes, 2)
        rest = sorted(set(spec.nodes) - {x, y})
        out.append(([x], [y], rng.sample(rest, rng.randint(0, 3))))
    return out


def _ribbon_graph(rng: random.Random, n: int) -> Spec:
    while True:
        spec = random_mixed(rng, n, 1.3, "r")
        if ref.ribbons(spec) and len(spec.skeleton.edges) == len(spec.edges):
            return spec


def general_lane(shape: random.Random, rng: random.Random) -> Plan:
    """Line grids with arrows in, and small graphs with ribbons; singleton
    queries through the library and, on the 4 x 4 grids, through ``lmg``."""
    sides = {f"grid{side}_{k}.lmg": side for side, count in ((4, 3), (5, 2)) for k in range(count)}
    ribboned = {f"ribbon{k}.lmg": _ribbon_graph(shape, 8) for k in range(6)}
    queries, cli_queries = [], []
    for name, side in sides.items():
        qs = _grid_queries(shape, grid(side), side)
        queries += [(name, q) for q in qs]
        if side == 4:
            cli_queries += [(name, q) for q in qs[:1] + qs[2:7]]
    for name, spec in ribboned.items():
        for _ in range(12):
            x, y = shape.sample(spec.nodes, 2)
            rest = sorted(set(spec.nodes) - {x, y})
            queries.append((name, ([x], [y], shape.sample(rest, shape.randint(0, 3)))))
    specs = {name: grid(side) for name, side in sides.items()} | ribboned
    symmetries = {name: square_symmetry(rng, specs[name], side) for name, side in sides.items()}
    files, moved = relabel_all(rng, specs, queries + cli_queries, symmetries)
    queries, cli_queries = moved[:len(queries)], moved[len(queries):]
    grids = set(sides)

    def make_ops(lm, graphs, paths) -> list[Op]:
        ops = []
        for name, (a, b, c) in queries:
            g = graphs[name]
            if name in grids:
                check = lambda r, s=files[name], a=a, b=b, c=c: expect(r, ref.skeleton_separated(s, a, b, c), "m_separated")  # noqa: E731
            else:
                check = lambda r, g=g, a=a, b=b, c=c: expect(  # noqa: E731
                    r, lm.oracle_m_separated(g, a, b, c, limit=len(g.nodes)), "m_separated vs path oracle")
            ops.append(Op("msep", lambda g=g, a=a, b=b, c=c: lm.m_separated(g, a, b, c), check))
        for name, (a, b, c) in cli_queries:
            argv = ["msep", paths[name], "--a", a[0], "--b", b[0], "--c", ",".join(c), "--format", "json"]
            ops.append(Op(
                "cli-msep",
                lambda argv=argv: run_cli(lm, argv),
                lambda r, s=files[name], a=a, b=b, c=c: check_cli_msep(s, a, b, c, ref.skeleton_separated(s, a, b, c), r),
                cli=True,
            ))
        return ops

    return Plan(files, make_ops)


# -- structure-scan -------------------------------------------------------------


def _with_ribbon(spec: Spec, prefix: str) -> Spec:
    """Add a straight ribbon p0 -> p1 <- p2, p1 -- p3 on fresh nodes named
    by ``prefix``, so the graph is never ribbonless and classify never runs
    the maximality test."""
    extra = [f"{prefix}{k}" for k in range(4)]
    edges = [(extra[0], "->", extra[1]), (extra[2], "->", extra[1]), (extra[1], "--", extra[3])]
    return Spec(sorted(spec.nodes + extra), spec.edges + edges)


def structure_scan(shape: random.Random, rng: random.Random) -> Plan:
    """Random mixed graphs of 40 to 160 nodes for the ribbon scan, classify
    and the anterior rewrite; 10-node ADMGs for maximality; and two seeded
    corpora. ``samples`` are queries whose answers maximalize must keep."""
    mixed = {
        f"mixed{n}_{k}.lmg": _with_ribbon(random_mixed(shape, n, 1.2, "n", cycles=n // 40), "rb")
        for n in (40, 80, 120, 160) for k in range(3)
    }
    admgs = {f"admg{k:02d}.lmg": sparse_dag(shape, 10, "a", arcs=3) for k in range(24)}
    samples = [(name, _random_query(shape, spec, 3)) for name, spec in admgs.items() for _ in range(12)]
    files, moved = relabel_all(rng, mixed | admgs, samples)
    mixed, admgs = {k: files[k] for k in mixed}, {k: files[k] for k in admgs}
    samples = {name: [q for n, q in moved if n == name] for name in admgs}
    corpus_seeds = [rng.randrange(2**31) for _ in range(6)]

    def make_ops(lm, graphs, paths) -> list[Op]:
        ops = []
        for name, spec in mixed.items():
            g = graphs[name]
            ops.append(Op("ribbons", lambda g=g: lm.find_ribbons(g),
                          lambda r, s=spec: check_ribbons(s, ribbon_sigs(r))))
            ops.append(Op("classify", lambda g=g: lm.classify(g),
                          lambda r, s=spec: expect(r.as_dict(), ref.classify(s), "classify")))
            ops.append(Op("anterior", lambda g=g: g.anterior_graph(),
                          lambda r, s=spec: expect((spec_of(r).marks, len(r.edges)),
                                                   (ref.anterior_spec(s).marks, len(s.edges)), "anterior graph")))
        for name, spec in admgs.items():
            g = graphs[name]
            ops.append(Op("violations", lambda g=g: lm.maximality_violations(g),
                          lambda r, s=spec: check_violations(s, [(x, y, path_hops(p)) for x, y, p in r])))
            ops.append(Op("maximalize", lambda g=g: lm.maximalize(g),
                          lambda r, s=spec, n=name: check_maximalize(s, spec_of(r), samples[n])))
        for seed, (constraint, count, nodes) in zip(
            corpus_seeds, 3 * (("ribbonless", 6, (4, 6)), ("maximal-ribbonless", 3, (4, 5)))
        ):
            spec_args = dict(count=count, nodes=nodes, constraint=constraint, seed=seed)
            ops.append(Op(
                "corpus",
                lambda a=spec_args: lm.generate_corpus(lm.CorpusSpec(**a)),
                lambda r, a=spec_args: check_corpus([spec_of(g) for g in r], a["count"],
                                                     a["constraint"] == "maximal-ribbonless"),
            ))
        # One ribbon scan, one classify and a maximalize per ADMG, so the
        # median lmg call sits inside one class of calls rather than between.
        for name in ("mixed40_0.lmg",):
            spec = mixed[name]
            ops.append(Op("cli-ribbons", lambda p=paths[name]: run_cli(lm, ["ribbons", p, "--format", "json"]),
                          lambda r, s=spec: expect(r[0], 1, "exit code") or check_ribbons(s, cli_ribbon_sigs(_json(r))),
                          cli=True))
            ops.append(Op("cli-classify", lambda p=paths[name]: run_cli(lm, ["classify", p, "--format", "json"]),
                          lambda r, s=spec: expect(_json(r)["result"], ref.classify(s), "classify"), cli=True))
        for name in sorted(admgs):
            spec = admgs[name]
            ops.append(Op("cli-maximalize", lambda p=paths[name]: run_cli(lm, ["maximalize", p, "--format", "json"]),
                          lambda r, s=spec, n=name: check_maximalize(s, parse_spec(_json(r)["result"]), samples[n]),
                          cli=True))
        return ops

    return Plan(files, make_ops)


# -- model-desk ---------------------------------------------------------------


def _small(rng: random.Random, n: int, ops: tuple[str, ...], m: int) -> Spec:
    """n nodes a, b, ...; m random pairs joined by an edge of a random kind
    from ``ops``, arrows pointing along a random order."""
    v = [chr(ord("a") + k) for k in range(n)]
    order = rng.sample(v, n)
    pairs = rng.sample([(i, j) for i in range(n) for j in range(i + 1, n)], m)
    return Spec(v, [(order[i], rng.choice(ops), order[j]) for i, j in sorted(pairs)])


def _maximal_ribbonless(rng: random.Random, n: int, m: int) -> Spec:
    while True:
        spec = _small(rng, n, ("--", "->", "->", "<->"), m)
        if not ref.ribbons(spec) and ref.maximal(spec):
            return spec


def model_desk(shape: random.Random, rng: random.Random) -> Plan:
    """Maximal ribbonless graphs of 4 and 5 nodes: bidirected, DAG,
    undirected and mixed. Each is paired with its anterior graph (Markov
    equivalent, since the graph is ribbonless) or with itself less one edge,
    under the same relabelling."""
    graphs = {}
    for n, copies in ((5, 2), (4, 3)):
        for k in range(copies):
            graphs[f"bidirected{n}_{k}.lmg"] = _small(shape, n, ("<->",), n)
            graphs[f"dag{n}_{k}.lmg"] = _small(shape, n, ("->",), n + 1)
            graphs[f"undirected{n}_{k}.lmg"] = _small(shape, n, ("--",), n + 1)
            for j in range(2):
                graphs[f"mixed{n}_{k}{j}.lmg"] = _maximal_ribbonless(shape, n, n + 1)
    shapes, partner = dict(graphs), {}
    for k, (name, spec) in enumerate(sorted(graphs.items())):
        if k % 2:
            partner[name] = "drop_" + name
            shapes[partner[name]] = Spec(spec.nodes, spec.edges[:-1])
        else:
            partner[name] = "ant_" + name
            shapes[partner[name]] = ref.anterior_spec(spec)
    files = {}
    for name, spec in graphs.items():
        files[name], mapping = relabel(rng, spec)
        files[partner[name]], _ = relabel(rng, shapes[partner[name]], mapping)
    graphs = {k: files[k] for k in graphs}

    @functools.lru_cache(maxsize=None)
    def want(name: str) -> frozenset:
        return ref.model(files[name])

    def make_ops(lm, parsed, paths) -> list[Op]:
        ops = []
        cg = lm.COMPOSITIONAL_GRAPHOID
        for name in graphs:
            g = parsed[name]
            ops.append(Op("model", lambda g=g: lm.enumerate_model(g),
                          lambda r, n=name: expect(statements(r), want(n), "model")))
            ops.append(Op("closure", lambda g=g: lm.closure(lm.pairwise_model(g), cg, limit=len(g.nodes)),
                          lambda r, n=name: expect(statements(r), want(n), "closure of the pairwise model")))
            ops.append(Op("axioms", lambda g=g: lm.check_axioms(lm.enumerate_model(g)),
                          lambda r: expect({k.value: v for k, v in r.items() if v is not None}, {}, "axiom violations")))
            ops.append(Op("equiv", lambda g=g, h=parsed[partner[name]]: lm.markov_equivalent(g, h),
                          lambda r, n=name: expect(r, want(n) == want(partner[n]), "markov_equivalent")))
        for name in [k for k in sorted(graphs) if "5_0" in k]:
            ops.append(Op("cli-model", lambda p=paths[name]: run_cli(lm, ["model", p, "--format", "json"]),
                          lambda r, n=name: expect(cli_statements(r), want(n), "lmg model"), cli=True))
            ops.append(Op("cli-closure", lambda p=paths[name]: run_cli(lm, ["closure", p, "--format", "json"]),
                          lambda r, n=name: expect(cli_statements(r), want(n), "lmg closure"), cli=True))
            ops.append(Op("cli-axioms", lambda p=paths[name]: run_cli(lm, ["axioms", p, "--format", "json"]),
                          lambda r: expect((r[0], {k: v for k, v in _json(r)["result"].items() if v}),
                                           (0, {}), "lmg axioms"), cli=True))
        return ops

    return Plan(files, make_ops)


def cli_statements(result) -> frozenset:
    return frozenset(ref.parse_statement(s) for s in _json(result)["result"])


WORKLOADS = {
    "anterior-queries": anterior_queries,
    "general-lane": general_lane,
    "structure-scan": structure_scan,
    "model-desk": model_desk,
}
