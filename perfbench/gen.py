"""Seeded workload inputs: graph documents on disk plus a fixed op sequence.

This module is the benchmark's own generator.  It does not import
`dsep`, so no change to the program can change what the benchmark
feeds it: the same workload and seed always write byte-identical files.

Each graph is kept in memory in a referee-side form (`Graph`: names and
adjacency lists by generator id) and written to disk as a document the
program parses (`Graph.path`).  Ops name nodes by their document
names, so the program's own id assignment never leaks into the inputs.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("ci-oracle", "large-graph", "audit-small")

# ci-oracle: a few sparse graphs with local structure.  Sizes are fixed
# so that the seed changes the structure and the queries, not the scale;
# an odd count of sizes puts each kind's median latency inside one size
# class, and two graphs of each size halve the weight of one graph's
# structure in it.
CI_SIZES = (1000, 1500, 2000, 2500, 3000) * 2
CI_WINDOW = 12                # parents come from the previous CI_WINDOW nodes
CI_MAIN_OPS = 3000            # distinct statements and queries in one cycle
CI_AUDIT_EVERY = 100          # one local audit per this many main ops
CI_MARKOV_SHARE = 0.55        # statements conditioned on a parent set
CI_SEPSET_EVERY = 17          # one dsep_set_fast query per this many ops
CI_REQUISITE_EVERY = 63       # one requisite query per this many ops

# large-graph: one random sparse dag with a random recursive-tree
# backbone, so it is connected and whole-graph sweeps are the norm.
LARGE_NODES = 50_000
LARGE_EDGES = 100_000
LARGE_MAIN_OPS = 32
LARGE_AUDIT_EVERY = 2
LARGE_KINDS = ("check", "sepset", "requisite", "check", "sepset", "check",
               "sepset", "requisite", "check", "sepset", "check", "sepset",
               "requisite", "check", "sepset", "check", "sepset", "check",
               "requisite", "sepset", "check", "sepset", "requisite", "check",
               "sepset", "check", "sepset", "check", "requisite", "sepset",
               "check", "sepset")

# audit-small: tiny dense graphs; at most 6 nodes, so every audit
# enumerates all conditioning subsets and its counts are known exactly.
AUDIT_GRAPHS = 300
AUDIT_SIZES = (3, 4, 4, 5, 5, 5, 6)    # graph k has AUDIT_SIZES[k % 7] nodes
AUDIT_EDGE_SHARE = 0.45                 # of the node pairs, rounded

LOCAL_AUDIT_NODES = 4         # local audits on ci-oracle and large-graph
LOCAL_AUDIT_EDGES = 3         # induced edges of each local audit graph
LOCAL_AUDITS = 60


@dataclass
class Graph:
    """A generated dag: names and adjacency by generator id, plus its document."""

    names: list[str]
    parents: list[list[int]]
    children: list[list[int]]
    path: str = ""
    json_format: bool = False
    edge_count: int = 0
    _index: dict[str, int] | None = field(default=None, repr=False)

    @property
    def node_count(self) -> int:
        return len(self.names)

    def ids(self, names) -> list[int]:
        if self._index is None:
            self._index = {nm: i for i, nm in enumerate(self.names)}
        return [self._index[nm] for nm in names]


@dataclass
class Inputs:
    """Everything one run needs: graphs on disk and the op cycle."""

    workload: str
    seed: int
    graphs: list[Graph]
    ops: list[dict]
    byte_count: int = 0


def _dag(n: int, edges: list[tuple[int, int]], names: list[str]) -> Graph:
    parents: list[list[int]] = [[] for _ in range(n)]
    children: list[list[int]] = [[] for _ in range(n)]
    for t, h in edges:
        parents[h].append(t)
        children[t].append(h)
    return Graph(names, parents, children, edge_count=len(edges))


def _shuffled_names(rng: random.Random, n: int, prefix: str) -> list[str]:
    """Names that do not reveal the topological order of the ids."""
    labels = list(range(n))
    rng.shuffle(labels)
    return [f"{prefix}{k}" for k in labels]


def _local_dag(rng: random.Random, n: int, prefix: str) -> Graph:
    """In-degree at most 3, parents drawn from a window of earlier nodes."""
    edges = []
    for v in range(1, n):
        lo = max(0, v - CI_WINDOW)
        k = min(v - lo, rng.choice((1, 1, 2, 2, 2, 3, 3)))
        edges.extend((p, v) for p in rng.sample(range(lo, v), k))
    return _dag(n, edges, _shuffled_names(rng, n, prefix))


def _large_dag(rng: random.Random) -> Graph:
    n = LARGE_NODES
    present = {(rng.randrange(v), v) for v in range(1, n)}
    while len(present) < LARGE_EDGES:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            present.add((min(a, b), max(a, b)))
    edges = sorted(present)
    rng.shuffle(edges)
    return _dag(n, edges, _shuffled_names(rng, n, "v"))


def _dense_dag(rng: random.Random, n: int, prefix: str) -> Graph:
    order = list(range(n))
    rng.shuffle(order)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = rng.sample(pairs, int(AUDIT_EDGE_SHARE * len(pairs) + 0.5))
    edges = [(order[i], order[j]) for i, j in sorted(picked)]
    return _dag(n, edges, [f"{prefix}{v}" for v in range(n)])


def _induced(g: Graph, nodes: list[int], prefix: str) -> Graph:
    where = {v: i for i, v in enumerate(nodes)}
    edges = [(where[p], where[v]) for v in nodes for p in g.parents[v]
             if p in where]
    return _dag(len(nodes), edges, [f"{prefix}{i}" for i in range(len(nodes))])


def _neighbours(g: Graph, v: int) -> list[int]:
    return g.parents[v] + g.children[v]


def _ball(g: Graph, v: int, size: int) -> list[int]:
    """The first `size` nodes of a breadth-first walk from v, arrows ignored."""
    seen = [v]
    frontier = 0
    while frontier < len(seen) and len(seen) < size:
        for w in _neighbours(g, seen[frontier]):
            if w not in seen and len(seen) < size:
                seen.append(w)
        frontier += 1
    return seen


# -- writing documents ---------------------------------------------------

def _text_doc(g: Graph) -> str:
    lines = [f"node {nm}" for v, nm in enumerate(g.names)
             if not g.parents[v] and not g.children[v]]
    lines.extend(f"{g.names[t]} -> {g.names[h]}"
                 for h in range(g.node_count) for t in g.parents[h])
    return "\n".join(lines) + "\n"


def _large_text_doc(g: Graph, edges_in_file_order: list[tuple[int, int]]) -> str:
    return "".join(f"{g.names[t]} -> {g.names[h]}\n"
                   for t, h in edges_in_file_order)


def _json_doc(rng: random.Random, g: Graph) -> str:
    nodes = list(g.names)
    rng.shuffle(nodes)
    edges = [[g.names[t], g.names[h]]
             for h in range(g.node_count) for t in g.parents[h]]
    rng.shuffle(edges)
    return json.dumps({"nodes": nodes, "edges": edges},
                      separators=(",", ":")) + "\n"


def _write(out_dir: str, name: str, text: str) -> tuple[str, int]:
    path = os.path.join(out_dir, name)
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return path, len(data)


# -- op samplers -----------------------------------------------------------

def _op(kind: str, g: int, graph: Graph, x, z=(), y=()) -> dict:
    names = graph.names
    return {"kind": kind, "graph": g,
            "x": [names[v] for v in x], "z": [names[v] for v in z],
            "y": [names[v] for v in y]}


def _ci_statement(rng: random.Random, g: Graph,
                  j: int) -> tuple[int, int, list[int]]:
    """A PC-style test on a pair two or three steps apart.

    Generator ids are a topological order, so conditioning on the
    parents of the later node of a non-adjacent pair always separates
    it (the local Markov property); a random local conditioning set
    mostly does not.  The statement's number `j` fixes the mix of the
    two (CI_MARKOV_SHARE of each 20), whether the pair is three steps
    apart (odd j) and the size of a local set (j mod 4), so every seed
    runs the same mix.
    """
    while True:
        x = rng.randrange(g.node_count)
        ring = set(_neighbours(g, x))
        hop2 = {w for u in ring for w in _neighbours(g, u)} - ring - {x}
        if j % 2:
            far = {w for u in hop2 for w in _neighbours(g, u)} - hop2 - ring - {x}
            hop2 = far or hop2
        if hop2:
            break
    y = rng.choice(sorted(hop2))
    if (j * 9) % 20 < CI_MARKOV_SHARE * 20:
        return x, y, list(g.parents[max(x, y)])
    pool = sorted((ring | set(_neighbours(g, y))) - {x, y})
    return x, y, rng.sample(pool, min(len(pool), j % 4))


def _ci_ops(rng: random.Random, graphs: list[Graph],
            local: list[int]) -> list[dict]:
    ops = []
    for i in range(CI_MAIN_OPS):
        # Op i runs on graph i % 10.  Kinds sit at fixed positions whose
        # periods are coprime to 10, so every seed spreads each kind
        # evenly over the graph sizes.
        gi = i % len(graphs)
        g = graphs[gi]
        x, y, z = _ci_statement(rng, g, i // len(graphs))
        if i % CI_REQUISITE_EVERY == 17:
            ops.append(_op("requisite", gi, g, [x], z))
        elif i % CI_SEPSET_EVERY == 5:
            ops.append(_op("sepset", gi, g, [x], z))
        else:
            ops.append(_op("check", gi, g, [x], z, [y]))
        if i % CI_AUDIT_EVERY == CI_AUDIT_EVERY - 1:
            k = (i // CI_AUDIT_EVERY) % len(local)
            ops.append({"kind": "audit", "graph": local[k]})
    return ops


def _large_ops(rng: random.Random, g: Graph, local: list[int]) -> list[dict]:
    """Kinds at fixed positions (LARGE_KINDS repeats), so every seed runs
    the same mix; so are the source count and the conditioning set size
    (0-20).  A statement's target is a random childless node whose
    parents are all conditioned on, so it holds and the sweep cannot stop
    early: every statement costs a whole-graph sweep, on every seed."""
    n = g.node_count
    sinks = [v for v in range(n) if not g.children[v]]
    ops = []
    for i in range(LARGE_MAIN_OPS):
        kind = LARGE_KINDS[i % len(LARGE_KINDS)]
        picked = rng.sample(range(n), 23)
        x = picked[:1 + i % 3]
        z = picked[3:3 + (i * 8) % 21]
        if kind == "check":
            y = rng.choice(sinks)
            blocked = {y, *g.parents[y]}
            x = ([v for v in x if v not in blocked]
                 or [v for v in picked[3:] if v not in blocked][:1])
            z = sorted(set(z) - {y} - set(x) | set(g.parents[y]))
            ops.append(_op(kind, 0, g, x, z, [y]))
        else:
            ops.append(_op(kind, 0, g, x, z))
        if i % LARGE_AUDIT_EVERY == LARGE_AUDIT_EVERY - 1:
            k = (i // LARGE_AUDIT_EVERY) % len(local)
            ops.append({"kind": "audit", "graph": local[k]})
    return ops


def _tiny_ops(rng: random.Random, gi: int, g: Graph) -> list[dict]:
    """An audit of one tiny graph, then one query of each direct kind on it."""
    ops = [{"kind": "audit", "graph": gi}]
    nodes = list(range(g.node_count))
    for kind in ("check", "sepset", "requisite"):
        rng.shuffle(nodes)
        y = nodes[1:2] if kind == "check" else []
        z = nodes[2:2 + rng.randint(0, g.node_count - 2)]
        ops.append(_op(kind, gi, g, nodes[:1], z, y))
    return ops


# -- entry point -------------------------------------------------------------

def generate(workload: str, seed: int, out_dir: str) -> Inputs:
    """Write the workload's documents into out_dir and return the inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(out_dir, exist_ok=True)
    graphs: list[Graph] = []
    byte_count = 0

    def add(g: Graph, name: str, text: str, json_format: bool = False) -> int:
        nonlocal byte_count
        g.path, size = _write(out_dir, name, text)
        g.json_format = json_format
        byte_count += size
        graphs.append(g)
        return len(graphs) - 1

    def add_local_audits(source: list[Graph]) -> list[int]:
        out = []
        for k in range(LOCAL_AUDITS):
            big = source[k % len(source)]
            while True:
                nodes = _ball(big, rng.randrange(big.node_count),
                              LOCAL_AUDIT_NODES)
                local = _induced(big, nodes, f"l{k}_")
                if local.edge_count == LOCAL_AUDIT_EDGES:
                    break
            out.append(add(local, f"local{k:02d}.txt", _text_doc(local)))
        return out

    if workload == "ci-oracle":
        for k, size in enumerate(CI_SIZES):
            g = _local_dag(rng, size, f"g{k}x")
            add(g, f"graph{k}.json", _json_doc(rng, g), json_format=True)
        big = list(graphs)
        local = add_local_audits(big)
        ops = _ci_ops(rng, big, local)
    elif workload == "large-graph":
        g = _large_dag(rng)
        order = [(t, h) for h in range(g.node_count) for t in g.parents[h]]
        rng.shuffle(order)
        add(g, "large.txt", _large_text_doc(g, order))
        local = add_local_audits([g])
        ops = _large_ops(rng, g, local)
    else:
        ops = []
        for k in range(AUDIT_GRAPHS):
            size = AUDIT_SIZES[k % len(AUDIT_SIZES)]
            g = _dense_dag(rng, size, f"t{k}_")
            gi = add(g, f"tiny{k:03d}.txt", _text_doc(g))
            ops.extend(_tiny_ops(rng, gi, g))

    doc = {"workload": workload, "seed": seed,
           "graphs": [{"path": os.path.basename(g.path),
                       "json": g.json_format} for g in graphs],
           "ops": ops}
    _write(out_dir, "ops.json", json.dumps(doc, separators=(",", ":")) + "\n")
    return Inputs(workload, seed, graphs, ops, byte_count)
