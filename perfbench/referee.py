"""Answer checks that share no code with `dsep`.

Two referees judge the program's answers, both outside the timed loop:

* `expected` computes the exact answer of an op with the "Reachable"
  procedure of Koller & Friedman (2009, Alg. 3.1) over the generator's
  own adjacency lists.  For requisite tables it builds the
  dummy-augmented graph itself.  One pass per op, so it can check every
  op even on the 10^5-edge graph.
* `networkx_agrees` re-checks an answer with networkx (`nx_separated`):
  soundness with one call on the whole separated set, completeness on
  a seeded sample of reached nodes.  At 10^5 edges one call costs
  several times the op it checks, so the caller chooses how many ops
  it sees.

Audits are judged by their own report: every engine must agree and the
query and statement counts must match the exhaustive battery for the
graph's size.
"""

from __future__ import annotations

import random
from collections import deque

import networkx as nx

from gen import Graph

NX_DSEP_MAX_NODES = 64


def dconnected(parents, children, x, z, stop=()) -> set[int]:
    """Every node outside x and z with an active trail to x given z.

    With `stop`, returns {v} as soon as some v in `stop` is reached, so
    the result meets `stop` exactly when the full set would.
    """
    n = len(parents)
    observed = bytearray(n)
    for v in z:
        observed[v] = 1
    opened = bytearray(observed)    # z and its ancestors open colliders
    todo = list(z)
    while todo:
        for p in parents[todo.pop()]:
            if not opened[p]:
                opened[p] = 1
                todo.append(p)
    stop = set(stop)
    # State 2v: v entered from a child; 2v+1: v entered from a parent.
    # Breadth-first, so a stop node near x is found early.
    seen = bytearray(2 * n)
    todo = deque()
    for v in x:
        seen[2 * v] = 1
        todo.append(2 * v)
    while todo:
        state = todo.popleft()
        v = state >> 1
        if v in stop:
            return {v}
        nxt = []
        if not (state & 1):             # entered from a child
            if not observed[v]:
                nxt = [2 * p for p in parents[v]] + [2 * c + 1 for c in children[v]]
        else:                           # entered from a parent
            if not observed[v]:
                nxt = [2 * c + 1 for c in children[v]]
            if opened[v]:
                nxt += [2 * p for p in parents[v]]
        for s2 in nxt:
            if not seen[s2]:
                seen[s2] = 1
                todo.append(s2)
    for v in x:
        seen[2 * v] = seen[2 * v + 1] = 0
    return {v for v in range(n)
            if (seen[2 * v] or seen[2 * v + 1]) and not observed[v]}


def augmented(g: Graph) -> tuple[list[list[int]], list[list[int]]]:
    """g plus a parentless dummy n+v attached to every node v."""
    n = g.node_count
    parents = [ps + [n + v] for v, ps in enumerate(g.parents)] + [[] for _ in range(n)]
    children = [list(cs) for cs in g.children] + [[v] for v in range(n)]
    return parents, children


def audit_counts(n: int) -> tuple[int, int]:
    """(queries, statements) of the exhaustive singleton battery on n nodes."""
    return n * 2 ** (n - 1), n * (n - 1) * 2 ** (n - 2) if n > 1 else 0


class Referee:
    """Exact expected answers, computed once per distinct op."""

    def __init__(self, graphs: list[Graph]) -> None:
        self.graphs = graphs
        self._augmented: dict[int, tuple] = {}

    def expected(self, op: dict):
        g = self.graphs[op["graph"]]
        if op["kind"] == "audit":
            return audit_counts(g.node_count)
        x, z = g.ids(op["x"]), g.ids(op["z"])
        if op["kind"] == "check":
            y = set(g.ids(op["y"]))
            return not dconnected(g.parents, g.children, x, z, stop=y) & y
        if op["kind"] == "sepset":
            linked = dconnected(g.parents, g.children, x, z)
            return set(range(g.node_count)) - linked - set(x) - set(z)
        if op["graph"] not in self._augmented:
            self._augmented[op["graph"]] = augmented(g)
        n = g.node_count
        linked = dconnected(*self._augmented[op["graph"]], x, z)
        tables = {w - n for w in linked if w >= n}
        return tables, {w for w in linked if w < n}

    def judge(self, op: dict, answer) -> bool:
        """Does the program's answer (by names) equal the exact answer?"""
        want = self.expected(op)
        g = self.graphs[op["graph"]]
        if op["kind"] == "audit":
            return answer == {"ok": True, "queries": want[0],
                              "statements": want[1]}
        if op["kind"] == "check":
            return answer is want
        if op["kind"] == "sepset":
            return set(g.ids(answer)) == want
        tables, variables = answer
        return (set(g.ids(tables)), set(g.ids(variables))) == want


def _nx_graph(parents) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(parents)))
    graph.add_edges_from((p, v) for v, ps in enumerate(parents) for p in ps)
    return graph


def nx_separated(graph: nx.DiGraph, x: set, y: set, z: set) -> bool:
    """Is y d-separated from x given z, decided with networkx alone?

    Small graphs go through `nx.is_d_separator`.  On larger ones it
    re-expands nodes it has already visited and can run for minutes on
    a 1000-node graph with many parallel paths, so there the answer
    comes from the moral-ancestral criterion (Lauritzen et al., 1990):
    moralize the subgraph induced by the ancestors of x, y and z,
    delete z, and look for an undirected path from x to y.
    """
    if graph.number_of_nodes() <= NX_DSEP_MAX_NODES:
        return nx.is_d_separator(graph, x, y, z)
    keep = x | y | z
    todo = list(keep)
    while todo:
        for p in graph.predecessors(todo.pop()):
            if p not in keep:
                keep.add(p)
                todo.append(p)
    moral = nx.moral_graph(graph.subgraph(keep))
    moral.remove_nodes_from(z)
    return not any(part & x and part & y
                   for part in nx.connected_components(moral))


def _nx_set_agrees(graph, x, z, separated: set[int], linked: list[int],
                   rng: random.Random, samples: int) -> bool:
    """`separated` must be d-separated; a sample of `linked` must not be."""
    if separated and not nx_separated(graph, set(x), separated, set(z)):
        return False
    return not any(nx_separated(graph, set(x), {w}, set(z))
                   for w in rng.sample(linked, min(samples, len(linked))))


def networkx_agrees(graphs: list[Graph], op: dict, answer,
                    rng: random.Random, cache: dict, samples: int = 2) -> bool:
    """Check one non-audit answer with networkx; `cache` keeps its graphs."""
    gi = op["graph"]
    g = graphs[gi]
    if gi not in cache:
        cache[gi] = _nx_graph(g.parents)
    graph = cache[gi]
    x, z = g.ids(op["x"]), g.ids(op["z"])
    excluded = set(x) | set(z)
    if op["kind"] == "check":
        return nx_separated(graph, set(x), set(g.ids(op["y"])),
                            set(z)) is answer
    n = g.node_count
    if op["kind"] == "sepset":
        separated = set(g.ids(answer))
        linked = sorted(set(range(n)) - separated - excluded)
        return _nx_set_agrees(graph, x, z, separated, linked, rng, samples)
    tables, variables = (set(g.ids(part)) for part in answer)
    unrelated = set(range(n)) - variables - excluded
    if not _nx_set_agrees(graph, x, z, unrelated, sorted(variables),
                          rng, samples):
        return False
    if ("aug", gi) not in cache:
        cache[("aug", gi)] = _nx_graph(augmented(g)[0])
    dummies = {n + v for v in range(n)}
    untouched = {n + v for v in range(n) if v not in tables}
    return _nx_set_agrees(cache[("aug", gi)], x, z, untouched,
                          sorted(dummies - untouched), rng, samples)
