"""Moral-graph baseline for verifying separation statements.

Independent of the sweep engines: take the ancestral subgraph of the
statement's nodes, drop edge directions, marry co-parents, then check
undirected connectivity while avoiding the conditioning set.  Being
O(node_count^2) in the worst case it serves as a cross-check, not as
the production path.
"""

from __future__ import annotations

from collections import deque
from typing import Collection

from .dag import Dag, ancestral_set, checked_nodes, descendant_table
from .engine import IndependenceStatement
from .errors import InvalidArgument

MARRIAGE_RULES = ("restricted", "full")


class MoralGraph:
    """Undirected view of an ancestral subgraph with married co-parents."""

    __slots__ = ("nodes", "_adjacency")

    def __init__(self, nodes: frozenset[int],
                 adjacency: dict[int, Collection[int]]) -> None:
        self.nodes = frozenset(nodes)
        self._adjacency = adjacency

    def neighbors(self, v: int) -> Collection[int]:
        return self._adjacency.get(v, ())

    def __repr__(self) -> str:
        return f"MoralGraph(nodes={len(self.nodes)})"


def moralize(dag: Dag, statement: IndependenceStatement,
             marriage: str = "restricted") -> MoralGraph:
    """Ancestral subgraph of the statement's nodes, undirected, co-parents married.

    The restricted rule (default) marries two parents only when their
    common child is in the conditioning set or has a descendant there;
    the "full" rule marries all co-parents.  Both rules give identical
    separation verdicts, which the tests enforce.
    """
    if marriage not in MARRIAGE_RULES:
        raise InvalidArgument(
            f"marriage rule must be one of {MARRIAGE_RULES}")
    sources = checked_nodes(dag, statement.sources)
    cond = checked_nodes(dag, statement.conditioning)
    targets = checked_nodes(dag, statement.targets)
    anc = ancestral_set(dag, sources | cond | targets)

    # The ancestral set is closed under parents, so an edge is inside the
    # subgraph exactly when its head is.  Each neighbor is a key of an
    # insertion-ordered dict: listed once, where it was first linked, even
    # when two parents share several children or are already adjacent.
    adjacency: dict[int, dict[int, None]] = {v: {} for v in anc}
    for tail, head in dag.edges:
        if head in anc:
            adjacency[tail][head] = None
            adjacency[head][tail] = None

    if marriage == "restricted":
        flags = descendant_table(dag, cond)
    for v in anc:
        ps = dag.parents[v]
        if len(ps) < 2:
            continue
        if marriage == "restricted" and not flags[v]:
            continue
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                adjacency[ps[i]][ps[j]] = None
                adjacency[ps[j]][ps[i]] = None

    return MoralGraph(frozenset(anc), adjacency)


def _bfs_separated(graph: MoralGraph,
                   statement: IndependenceStatement) -> tuple[bool, int]:
    """(verdict, links scanned): BFS from the sources avoiding conditioning."""
    cond = statement.conditioning
    targets = statement.targets
    visited = set(statement.sources)
    queue = deque(visited)
    scanned = 0
    while queue:
        u = queue.popleft()
        for nb in graph.neighbors(u):
            scanned += 1
            if nb in visited:
                continue
            if nb in targets:
                return False, scanned
            if nb in cond:
                continue
            visited.add(nb)
            queue.append(nb)
    return True, scanned


def moral_check(dag: Dag, statement: IndependenceStatement,
                marriage: str = "restricted") -> bool:
    """True iff every moral-graph path from sources to targets crosses the conditioning set."""
    graph = moralize(dag, statement, marriage)
    separated, _ = _bfs_separated(graph, statement)
    return separated
