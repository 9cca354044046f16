"""Breadth-first reachability where chosen pairs of consecutive links are illegal.

The sweep works on any object exposing `node_count`, `link_heads`
(head node per link id) and `out_links` (link ids leaving each node),
as the doubled graph from `dag` does.  Cycles and parallel links are
fine: each link is labeled at most once, which also bounds the work.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .dag import checked_nodes
from .errors import EmptyStartSet, InvalidArgument

# Decides whether the second link may directly follow the first on a path.
LegalPairRelation = Callable[[int, int], bool]


@dataclass(frozen=True)
class ReachabilityResult:
    """Outcome of a constrained sweep.

    `link_levels[lid]` is the breadth-first level at which link `lid`
    was labeled (first hops out of the start set get level 1), or None
    if it never was.  Every reached node outside the start set is the
    head of at least one labeled link.
    """

    reached: frozenset[int]
    link_levels: tuple[int | None, ...]


def find_reachable(graph, legal: LegalPairRelation,
                   sources: Iterable[int],
                   stop_at: Iterable[int] | None = None) -> ReachabilityResult:
    """Label every node reachable from `sources` along legal link paths.

    A path is legal when each consecutive link pair passes `legal`;
    links leaving a start node need no predecessor and are always taken.
    FIFO processing makes the link labels breadth-first levels.  When
    `stop_at` is given the sweep returns as soon as one of those nodes
    is reached (the partial result still satisfies the level contract).
    A `legal` that cannot be called with two link ids raises
    `InvalidArgument`; an error raised inside it propagates.
    """
    if not callable(legal):
        raise InvalidArgument(f"legal must be callable, got {legal!r}")
    starts = checked_nodes(graph, sources)
    if not starts:
        raise EmptyStartSet("reachability needs at least one start node")
    stop = checked_nodes(graph, stop_at) if stop_at is not None else frozenset()

    heads = graph.link_heads
    out_links = graph.out_links
    levels: list[int | None] = [None] * len(heads)
    reached = set(starts)
    queue: deque[int] = deque()

    def result() -> ReachabilityResult:
        return ReachabilityResult(frozenset(reached), tuple(levels))

    if stop & starts:
        return result()

    for j in sorted(starts):
        for lid in out_links[j]:
            if levels[lid] is None:
                levels[lid] = 1
                w = heads[lid]
                reached.add(w)
                queue.append(lid)
                if w in stop:
                    return result()

    try:
        while queue:
            lid = queue.popleft()
            next_level = levels[lid] + 1
            v = heads[lid]
            for cand in out_links[v]:
                if levels[cand] is None and legal(lid, cand):
                    levels[cand] = next_level
                    w = heads[cand]
                    reached.add(w)
                    queue.append(cand)
                    if w in stop:
                        return result()
    except TypeError as exc:
        if exc.__traceback__.tb_next is not None:   # raised in legal's body
            raise
        raise InvalidArgument(
            f"legal must take two link ids: {exc}") from None

    return result()
