"""DAG representation plus the ancestor/descendant machinery built on it.

Nodes are dense integers 0..node_count-1.  External string names, when
present, live in a bidirectional table on the Dag itself; everything
algorithmic works on the integer ids.
"""

from __future__ import annotations

import gc
from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, Iterable, MutableSequence, NamedTuple, Sequence

from .errors import (CycleDetected, DuplicateEdge, ForeignNode, InvalidArgument,
                     InvalidQuery, SelfLoop, UnknownEndpoint)

if TYPE_CHECKING:
    import numpy as np

NodeSet = frozenset[int]


class _GcPaused:
    """Cyclic gc off inside, back on at exit if it was on.  A graph build
    makes no reference cycles, so a pass during it finds no garbage."""

    __slots__ = ("was_on",)

    def __enter__(self) -> None:
        self.was_on = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc: object) -> None:
        if self.was_on:
            gc.enable()


class _NameIndex(NamedTuple):
    """A loader's name -> id dict, ids in insertion order, which `Dag`
    keeps as its table when it comes as `names`."""

    ids: dict[str, int]


class Dag:
    """Immutable directed acyclic graph over dense integer node ids.

    `parents` and `children` are exact transposes of the edge sequence,
    and acyclicity is checked eagerly at construction, so downstream
    algorithms never re-validate.  `_ranks` holds each node's block of a
    topological order, as n bytes (see `_topological_ranks`), or None
    below 128 nodes.  `_last_sweep` holds the last whole-graph sweep
    with its node sets, read and written only by `engine.fast_sweep`,
    and `_all_nodes` the set of every id, built by the first dense answer
    read off a Dag that holds its arrays (see `engine.flagged_nodes`).
    """

    __slots__ = ("node_count", "edges", "parents", "children", "names",
                 "_name_to_id", "_doubled", "_arrays", "_ranks", "_last_sweep",
                 "_all_nodes")

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]],
                 names: Sequence[str] | None = None) -> None:
        with _GcPaused():
            if type(node_count) is not int or node_count < 0:
                raise InvalidArgument(
                    f"node_count must be a nonnegative int, got {node_count!r}")
            self.node_count = node_count
            self._doubled = self._arrays = self._last_sweep = None
            self._all_nodes = None

            if names is None:
                self.names = None
                self._name_to_id = None
            else:
                index = names.ids if type(names) is _NameIndex else None
                try:
                    self.names = tuple(names if index is None else index)
                    self._name_to_id = index or dict(zip(self.names, range(node_count)))
                except TypeError as exc:    # no iterable, or unhashable names
                    raise InvalidArgument(f"bad node names: {exc}") from None
                if len(self.names) != node_count:
                    raise InvalidArgument(
                        f"got {len(self.names)} names for {node_count} nodes")
                if len(self._name_to_id) != node_count:
                    raise InvalidArgument("node names must be unique")

            parents: list[list[int]] = [[] for _ in range(node_count)]
            children: list[list[int]] = [[] for _ in range(node_count)]
            try:
                pairs = list(map(tuple, edges))
                for tail, head in pairs:
                    if not (type(tail) is int is type(head) and
                            0 <= tail < node_count and 0 <= head < node_count):
                        raise UnknownEndpoint(
                            f"edge ({tail!r}, {head!r}) needs int endpoints "
                            f"in 0..{node_count - 1}")
                    if tail == head:
                        raise SelfLoop(
                            f"self-loop on node {self.node_name(tail)}")
                    children[tail].append(head)
                    parents[head].append(tail)
            except (TypeError, ValueError):     # not an iterable of pairs
                raise UnknownEndpoint(
                    "edges must be (tail, head) pairs") from None
            # One bulk set build is cheaper than a membership test per edge.
            if len(set(pairs)) != len(pairs):
                tail, head = next(e for e, k in Counter(pairs).items() if k > 1)
                raise DuplicateEdge(
                    f"duplicate edge {self.node_name(tail)} -> "
                    f"{self.node_name(head)}")

            self.edges: tuple[tuple[int, int], ...] = tuple(pairs)
            self.parents: tuple[tuple[int, ...], ...] = tuple(map(tuple, parents))
            self.children: tuple[tuple[int, ...], ...] = tuple(map(tuple, children))
            self._check_acyclic()

    # -- name handling -------------------------------------------------

    def node_name(self, node: int) -> str:
        if type(node) is not int or not 0 <= node < self.node_count:
            raise ForeignNode(
                f"node {node!r} is not in the graph "
                f"(node_count={self.node_count})")
        return self.names[node] if self.names is not None else str(node)

    def node_id(self, name: str) -> int:
        if self._name_to_id is None:
            raise ForeignNode(f"graph has no node names, cannot resolve {name!r}")
        try:
            return self._name_to_id[name]
        except KeyError:
            raise ForeignNode(f"unknown node name {name!r}") from None

    def has_edge(self, tail: int, head: int) -> bool:
        return (type(tail) is int is type(head)
                and 0 <= tail < self.node_count and head in self.children[tail])

    def __repr__(self) -> str:
        return f"Dag(nodes={self.node_count}, edges={len(self.edges)})"

    # -- validation ----------------------------------------------------

    def _check_acyclic(self) -> None:
        indegree = [len(p) for p in self.parents]
        ready = [v for v in range(self.node_count) if indegree[v] == 0]
        for v in ready:     # the list grows while it is walked: a FIFO queue
            for c in self.children[v]:
                indegree[c] -= 1
                if indegree[c] == 0:
                    ready.append(c)
        if len(ready) != self.node_count:
            cycle = self._find_cycle(indegree)
            names = [self.node_name(v) for v in cycle]
            raise CycleDetected(
                "graph contains a cycle: " + " -> ".join(names + [names[0]]),
                cycle=tuple(names))
        self._ranks = _topological_ranks(ready)

    def _find_cycle(self, indegree: list[int]) -> list[int]:
        # Every node still carrying in-degree has a parent that does too,
        # so walking parent pointers inside that set must close a loop.
        v = min(v for v in range(self.node_count) if indegree[v] > 0)
        position: dict[int, int] = {}
        path: list[int] = []
        while v not in position:
            position[v] = len(path)
            path.append(v)
            v = next(p for p in self.parents[v] if indegree[p] > 0)
        loop = path[position[v]:]
        loop.reverse()  # parent pointers run against the edges
        return loop


# Graphs of _RANKED_NODES nodes or more get ranks.  A topological rank is a
# block of max(_RANK_BLOCK, ceil(n / 256)) nodes of a topological order, so
# there are at most 256 blocks: one byte each.  The finer the blocks, the
# narrower the band a confined sweep resolves (see `engine._sweep`).
_RANKED_NODES = 128
_RANK_BLOCK = 16


def _topological_ranks(order: list[int]) -> bytes | None:
    """Each node's block of the topological `order`, so rank[tail] <=
    rank[head] on every edge; None below `_RANKED_NODES` nodes."""
    n = len(order)
    if n < _RANKED_NODES:
        return None
    ranks = bytearray(n)
    block = max(_RANK_BLOCK, -(-n // 256))
    for r, start in enumerate(range(0, n, block)):
        for v in order[start:start + block]:
            ranks[v] = r
    return bytes(ranks)


def build_dag(node_names: Sequence[str],
              edges: Iterable[tuple[str, str]]) -> Dag:
    """Assemble a Dag from external node names and name-pair edges."""
    try:
        names = list(node_names)
        index = dict(zip(names, range(len(names))))
    except TypeError as exc:    # no iterable, or unhashable names
        raise InvalidArgument(f"bad node names: {exc}") from None
    try:
        pairs = [(index[tail], index[head]) for tail, head in edges]
    except KeyError as exc:
        raise UnknownEndpoint(f"unknown edge endpoint {exc.args[0]!r}") from None
    except (TypeError, ValueError):     # not an iterable of pairs
        raise UnknownEndpoint("edges must be (tail, head) pairs") from None
    # A repeated name leaves `index` short, and `Dag` rejects `names` then.
    keep = len(index) == len(names)
    return Dag(len(names), pairs, names=_NameIndex(index) if keep else names)


def checked_nodes(dag: Dag, nodes: Iterable[int]) -> NodeSet:
    """Freeze `nodes` into a set after checking each is a plain int id of
    `dag`, or of any graph with a `node_count`."""
    try:
        members = frozenset(nodes)
    except TypeError as exc:    # not an iterable, or unhashable members
        raise InvalidQuery(f"node sets must be sets of ids: {exc}") from None
    n = dag.node_count
    for v in members:
        if type(v) is not int or not (0 <= v < n):
            raise ForeignNode(f"node {v!r} is not in the graph (node_count={n})")
    return members


def mark_ancestors(dag: Dag, members: Iterable[int],
                   marks: MutableSequence[int], bit: int = 1,
                   tag: int = False) -> list[int]:
    """Set `bit` in `marks` on valid ids `members` and all their ancestors,
    and `tag` on the members alone.

    One reverse breadth-first walk that stops at nodes already holding
    any bit of `bit`; returns the nodes it marked.  `marks` is a bytearray
    or, with `bit=True` and no `tag`, a list of bools (cheaper on small
    graphs; the default `tag` is False, not 0, as True | 0 is the int 1).
    """
    parents = dag.parents
    found = []
    for v in members:
        m = marks[v]
        if not m & bit:
            marks[v] = m | bit | tag
            found.append(v)
        elif tag:
            marks[v] = m | tag
    for v in found:     # the list grows while it is walked: a FIFO queue
        for p in parents[v]:
            if not marks[p] & bit:
                marks[p] |= bit
                found.append(p)
    return found


def descendant_table(dag: Dag, conditioning: Iterable[int]) -> tuple[bool, ...]:
    """Per-node flags: is v in `conditioning`, or has it a descendant there?"""
    flags = [False] * dag.node_count
    mark_ancestors(dag, checked_nodes(dag, conditioning), flags, True)
    return tuple(flags)


def ancestral_set(dag: Dag, members: Iterable[int]) -> NodeSet:
    """All nodes with a directed path into `members`, plus `members` itself."""
    wanted = checked_nodes(dag, members)
    return frozenset(mark_ancestors(dag, wanted, [False] * dag.node_count, True))


class DoubledGraph:
    """Directed graph holding each base edge in both orientations.

    Base edge k appears as link 2*k (original direction) and link 2*k+1
    (reversed), so a link's low bit says which way the base arrow points
    and its tail is `base.edges[lid >> 1][lid & 1]`; `out_links[v]` lists
    every link leaving v.  Trail traversal over the base dag becomes
    plain directed traversal here.

    Get it through `doubled_graph`, which builds it on a Dag's first
    faithful sweep and keeps it, about 2E link ids, while the Dag lives.
    """

    __slots__ = ("node_count", "link_heads", "out_links")

    def __init__(self, base: Dag) -> None:
        self.node_count = base.node_count
        heads: list[int] = []
        out: list[list[int]] = [[] for _ in range(base.node_count)]
        for t, h in base.edges:
            out[t].append(len(heads))
            out[h].append(len(heads) + 1)
            heads += (h, t)
        self.link_heads = tuple(heads)
        self.out_links = tuple(map(tuple, out))


def doubled_graph(dag: Dag) -> DoubledGraph:
    """Both-orientations view of `dag` with exactly 2*|edges| links, built
    on the first call and the same object on every call after it."""
    twin = dag._doubled
    if twin is None:
        twin = dag._doubled = DoubledGraph(dag)
    return twin


def _csr(rows: Sequence[Sequence[int]], total: int) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np
    ptr = np.zeros(len(rows) + 1, np.intp)
    np.cumsum(np.fromiter(map(len, rows), np.intp, len(rows)), out=ptr[1:])
    return ptr, np.fromiter(chain.from_iterable(rows), np.intp, total)


def adjacency_arrays(dag: Dag) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """intp CSR copies of `children` and `parents`, as (ptr, idx) pairs in
    that order: row v is idx[ptr[v]:ptr[v + 1]], in tuple order.  intp is
    numpy's index type, so no gather or scatter of the sweep casts them.
    Built on the first call, which `fast_sweep` makes on a Dag's first wide
    frontier, and kept, 8 * (2 * edges + 2 * nodes + 2) bytes on a 64-bit
    build, while the Dag lives: 2.4 MB for `random_sparse_dag` at 10**5
    edges and 24 MB at 10**6 (tracemalloc).  Its first dense answer then
    keeps `Dag._all_nodes` too, 3.7 and 33 MB.  numpy is imported then,
    not with the package."""
    arrays = dag._arrays
    if arrays is None:
        m = len(dag.edges)
        arrays = dag._arrays = (_csr(dag.children, m), _csr(dag.parents, m))
    return arrays
