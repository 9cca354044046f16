"""Moral-graph baseline for verifying separation statements.

Independent of the sweep engines: take the ancestral subgraph of the
statement's nodes, drop edge directions, marry co-parents, then check
undirected connectivity while avoiding the conditioning set.  Being
O(node_count^2) in the worst case it serves as a cross-check, not as
the production path.

Both marriage rules come from one construction per statement: the
ancestral set, its undirected edges, the co-parent pairs whose child is
in An(Z), which the restricted rule marries, and the other pairs, which
the full rule marries as well.  The audit reads both verdicts off it
with one BFS before and one after adding the other pairs.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Iterable

from .dag import Dag, checked_nodes, mark_ancestors
from .engine import IndependenceStatement
from .errors import InvalidArgument

MARRIAGE_RULES = ("restricted", "full")


def _join(adjacency: dict[int, dict[int, None]],
          pairs: Iterable[tuple[int, int]]) -> None:
    """Link each pair both ways; a neighbor is listed once, where first linked."""
    for a, b in pairs:
        adjacency[a][b] = None
        adjacency[b][a] = None


def _restricted_graph(dag: Dag, statement: IndependenceStatement
                      ) -> tuple[dict[int, dict[int, None]],
                                 list[tuple[int, int]]]:
    """The restricted rule's moral graph, and the co-parent pairs that the
    full rule marries besides: one construction serves both rules."""
    cond = checked_nodes(dag, statement.conditioning)
    ends = checked_nodes(dag, statement.sources | statement.targets)
    marks = bytearray(dag.node_count)
    conditioned = mark_ancestors(dag, cond, marks)          # An(Z)
    anc = frozenset(conditioned + mark_ancestors(dag, ends, marks))
    conditioned = frozenset(conditioned)

    # The ancestral set is closed under parents, so its edges are its
    # members' parent links.  Each neighbor is a key of an insertion-ordered
    # dict, listed once even when two parents share several children.
    links: list[tuple[int, int]] = []
    others: list[tuple[int, int]] = []
    for v in anc:
        ps = dag.parents[v]
        links += ((p, v) for p in ps)
        (links if v in conditioned else others).extend(combinations(ps, 2))
    adjacency: dict[int, dict[int, None]] = {v: {} for v in anc}
    _join(adjacency, links)
    return adjacency, others


def moralize(dag: Dag, statement: IndependenceStatement,
             marriage: str = "restricted") -> dict[int, dict[int, None]]:
    """Ancestral subgraph of the statement's nodes, undirected, co-parents married.

    The graph is an adjacency dict over the ancestral set: each node maps
    to a dict whose keys are its neighbours, each listed once, in the
    order first linked.

    The restricted rule (default) marries two parents only when their
    common child is in the conditioning set or has a descendant there;
    the "full" rule marries all co-parents.  Both rules give identical
    separation verdicts, which the tests enforce.
    """
    if marriage not in MARRIAGE_RULES:
        raise InvalidArgument(
            f"marriage rule must be one of {MARRIAGE_RULES}")
    graph, others = _restricted_graph(dag, statement)
    if marriage == "full":
        _join(graph, others)
    return graph


def _bfs_separated(graph: dict[int, dict[int, None]],
                   statement: IndependenceStatement) -> tuple[bool, int]:
    """(verdict, links scanned): BFS from the sources avoiding conditioning."""
    cond = statement.conditioning
    targets = statement.targets
    visited = set(statement.sources)
    queue = deque(visited)
    scanned = 0
    while queue:
        u = queue.popleft()
        for nb in graph[u]:
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


def _moral_verdicts(dag: Dag,
                    statement: IndependenceStatement) -> tuple[bool, bool]:
    """`moral_check`'s (restricted, full) verdicts off one construction: a
    BFS on the restricted graph, then one after the other marriages."""
    graph, others = _restricted_graph(dag, statement)
    restricted, _ = _bfs_separated(graph, statement)
    _join(graph, others)
    full, _ = _bfs_separated(graph, statement)
    return restricted, full
