"""d-separation queries on a dag.

Two interchangeable engines compute the full separated set:

* `dsep_set` composes the descendant table, the doubled graph, and the
  constrained breadth-first sweep from `reachability`, then complements
  the reached set.  Scanning a node's adjacency once per labeled
  incoming link keeps it simple but worst-case quadratic-ish.  The
  doubled graph, about 2E link ids, is built on a Dag's first faithful
  call and kept while the Dag lives; the fast engine never builds it.
* `dsep_set_fast` runs directly on the dag with (node, arrival
  orientation) states and expands each of a node's two adjacency lists
  at most once, which bounds the link work by a small constant times
  the edge count.  One per-state loop walks one FIFO queue, and on a
  graph of 2048 nodes or more hands a whole-graph sweep's wide queues to
  numpy, level by level (as in Beamer et al., SC 2012).  `fast_sweep`
  keeps a Dag's last whole-graph sweep, and the separated set, the
  requisite tables and the relevant observations are all read through
  it, so the answers of one query take one sweep.

Both must agree everywhere; the test suite enforces that against an
exhaustive trail oracle.

A statement X _||_ Y | Z needs less: every node of an active trail is an
ancestor of an endpoint or of an open collider, which is in An(Z), so the
verdict depends only on An(X | Y | Z) (Lauritzen et al., 1990; Shachter's
Bayes-Ball, UAI 1998, prunes the same way).  `is_dseparated` confines the
fast sweep to that set, and marks An(Y | Z) only down to the lowest block
of a topological order that the sweep needs.  A statement costs the edges
its sweep touches plus the rank band it resolves, not all of An(X | Y | Z).

The statement is also Y _||_ X | Z (symmetry; Pearl & Paz, 1987), and the
sweep from one side can cost orders of magnitude less than the sweep from
the other.  So `is_dseparated` sweeps from X and from Y in turn, each
under a budget that starts at 64 and grows 4x a round, and reads the
verdict off the first side that finishes.  A side's charge is the links
it examines plus the parent links its lazy marking walks.  Each side is a
generator (`_sweep`): one that passes its budget pauses with its state in
its frame, and the next round sends it the larger budget, so a check
charges at most about 5 times its cheaper side.  The faithful
engine stays one-sided: it is the paper's procedure, kept as a referee.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING, Generator, Iterable

from .dag import (Dag, NodeSet, adjacency_arrays, checked_nodes,
                  descendant_table, doubled_graph, mark_ancestors)
from .errors import (EmptyStartSet, EndpointInConditioningSet, InvalidQuery,
                     MalformedTrail)
from .reachability import ReachabilityResult, find_reachable

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SeparationQuery:
    """Ask which nodes are separated from `sources` given `conditioning`."""

    sources: NodeSet
    conditioning: NodeSet = frozenset()

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "sources", frozenset(self.sources))
            object.__setattr__(self, "conditioning", frozenset(self.conditioning))
        except TypeError as exc:    # not an iterable, or unhashable members
            raise InvalidQuery(f"node sets must be sets of ids: {exc}") from None
        if not self.sources:
            raise EmptyStartSet("a separation query needs at least one source")
        if self.sources & self.conditioning:
            raise InvalidQuery("sources and conditioning set must be disjoint")


@dataclass(frozen=True)
class IndependenceStatement:
    """One verifiable claim: targets are separated from sources given conditioning."""

    sources: NodeSet
    conditioning: NodeSet
    targets: NodeSet

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "sources", frozenset(self.sources))
            object.__setattr__(self, "conditioning", frozenset(self.conditioning))
            object.__setattr__(self, "targets", frozenset(self.targets))
        except TypeError as exc:
            raise InvalidQuery(f"node sets must be sets of ids: {exc}") from None
        if not self.sources:
            raise EmptyStartSet("a statement needs at least one source")
        if not self.targets:
            raise InvalidQuery("a statement needs at least one target")
        if (self.sources & self.conditioning or
                self.sources & self.targets or
                self.targets & self.conditioning):
            raise InvalidQuery("statement node sets must be pairwise disjoint")


@dataclass(frozen=True)
class Trail:
    """A path between two nodes that visits no node twice, directions ignored.

    `edges[i]` is the base-dag edge joining nodes[i] and nodes[i+1],
    stored in its original orientation; which way the trail traverses it
    follows from the node sequence.
    """

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        try:
            nodes, edges = tuple(self.nodes), tuple((t, h) for t, h in self.edges)
        except (TypeError, ValueError):     # no sequences, or an edge no pair
            raise MalformedTrail("trail edges must be (tail, head) pairs") from None
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)

    def head_to_head(self, position: int) -> bool:
        """Do both neighboring trail edges point into nodes[position]?"""
        v = self.nodes[position]
        return self.edges[position - 1][1] == v and self.edges[position][1] == v

    def __len__(self) -> int:
        return len(self.edges)


def _check_trail(dag: Dag, trail: Trail) -> None:
    nodes, edges = trail.nodes, trail.edges
    if len(nodes) < 2 or len(edges) != len(nodes) - 1:
        raise MalformedTrail(
            f"trail needs k+1 nodes for k>=1 edges, got {len(nodes)} nodes "
            f"and {len(edges)} edges")
    if len(checked_nodes(dag, nodes)) != len(nodes):
        raise MalformedTrail("trail repeats a node")
    for i, (tail, head) in enumerate(edges):
        if not dag.has_edge(tail, head):
            raise MalformedTrail(f"({tail}, {head}) is not an edge of the graph")
        if {tail, head} != {nodes[i], nodes[i + 1]}:
            raise MalformedTrail(
                f"edge ({tail}, {head}) does not join trail nodes "
                f"{nodes[i]} and {nodes[i + 1]}")


def is_active_trail(dag: Dag, trail: Trail,
                    conditioning: Iterable[int]) -> bool:
    """Does the trail carry dependence under the given conditioning set?

    Active means every head-to-head (collider) node on the trail is in
    the conditioning set or has a descendant there, and every other
    interior node stays out of it.
    """
    cond = checked_nodes(dag, conditioning)
    _check_trail(dag, trail)
    if trail.nodes[0] in cond or trail.nodes[-1] in cond:
        raise EndpointInConditioningSet(
            "trail endpoints may not be conditioned on")
    return _trail_active(trail, descendant_table(dag, cond), cond)


def _trail_active(trail: Trail, flags: tuple[bool, ...],
                  cond: NodeSet) -> bool:
    """`is_active_trail` on a checked trail, given `cond`'s descendant flags."""
    nodes = trail.nodes
    for p in range(1, len(nodes) - 1):
        if trail.head_to_head(p):
            if not flags[nodes[p]]:
                return False
        elif nodes[p] in cond:
            return False
    return True


def _legality(dag: Dag, flags: tuple[bool, ...],
              conditioning: NodeSet):
    """Consecutive-link rule for the doubled graph, as a closure.

    For links u->v, v->w it permits the pair iff u != w and either the
    base arrows collide at v (head-to-head) while v is or has a
    descendant in the conditioning set, or they do not collide and v is
    unconditioned.  Link ids follow the doubled-graph convention: base
    edge k appears as links 2k (original) and 2k+1 (reversed).  `flags`
    is `descendant_table(dag, conditioning)`; the head of `first` must be
    the tail of `second`, as it is for every pair `find_reachable` asks.
    """
    edges = dag.edges

    def legal(first: int, second: int) -> bool:
        r1 = first & 1
        r2 = second & 1
        e1 = edges[first >> 1]
        e2 = edges[second >> 1]
        if e1[r1] == e2[1 - r2]:          # u == w: immediate edge backtrack
            return False
        v = e1[1 - r1]                    # head of the first link
        if r1 == 0 and r2 == 1:           # both base arrows point into v
            return flags[v]
        return v not in conditioning

    return legal


def _faithful_sweep(dag: Dag, query: SeparationQuery,
                    stop_at: Iterable[int] | None = None) -> ReachabilityResult:
    """Descendant table, doubled graph, then the rule-constrained sweep.
    `query` may be anything with `sources` and `conditioning` node sets."""
    sources = checked_nodes(dag, query.sources)
    legal = _legality(dag, descendant_table(dag, query.conditioning),
                      query.conditioning)
    return find_reachable(doubled_graph(dag), legal, sources, stop_at=stop_at)


def dsep_set(dag: Dag, query: SeparationQuery) -> NodeSet:
    """Every node separated from the query sources given its conditioning set.

    The complement of what the faithful composition reaches.
    """
    swept = _faithful_sweep(dag, query)
    return (frozenset(range(dag.node_count)) - swept.reached
            - query.sources - query.conditioning)


_SEPARATED = bytes(not b & (4 | 8 | 16) for b in range(256))
_REACHED = bytes(bool(b & (8 | 16)) for b in range(256))
_REACHED_UNCONDITIONED = bytes(b & (8 | 16) != 0 and not b & 4
                               for b in range(256))
_PARENTS_WALKED = bytes(b >> 6 & 1 for b in range(256))
_KEPT = object()    # the `stop_at` that reads the kept whole-graph sweep


@dataclass(slots=True, eq=False)
class FastSweep:
    """The marks the linear-time sweep left plus its link-operation counts.

    `marks[v]` holds the sweep's bits for v (see `fast_sweep`);
    `reached` and `parents_expanded` are read off them on demand, each in
    O(node_count).  `links_examined` counts the adjacency lists the sweep
    began, `links_resolved` the parent links lazy marking walked; their
    sum is the charge a budget caps (see `_sweep`).
    """

    marks: bytearray
    links_examined: int
    links_resolved: int

    @property
    def reached(self) -> frozenset[int]:
        """The sources and every node the sweep arrived at."""
        flags = self.marks.translate(_REACHED)
        return frozenset(compress(range(len(flags)), flags))

    @property
    def parents_expanded(self) -> bytearray:
        """1 where the sweep walked v's parent list, the requisite-table
        mark (see `requisite`); partial after an early stop."""
        return self.marks.translate(_PARENTS_WALKED)


def fast_sweep(dag: Dag, query: SeparationQuery,
               stop_at: Iterable[int] | None = None) -> FastSweep:
    """Linear-time active-trail reachability over the dag itself.

    `query` may be anything with `sources` and `conditioning` node sets,
    such as an `IndependenceStatement`.

    State is (node, arrival orientation).  Arriving along an arrow that
    points into v, the sweep walks v's children when v is unconditioned
    and v's parents when v is or has a descendant in the conditioning
    set (the collider opening).  Arriving along an arrow pointing out of
    v, it walks both lists when v is unconditioned.  Sources start in
    that second state, since a trail's first hop may go either way.
    Each adjacency list is expanded at most once.  `links_examined` sums
    the lengths of all lists the sweep began: at most twice the edge count.

    With `stop_at`, even empty, the sweep stops at the first link that
    reaches a member, and child links into nodes outside A = An(stop_at |
    conditioning) are counted but not followed.  A trail entering such a
    node along an arrow can only go on downwards, so it reaches no stop
    node and opens no parent list.  `reached` then lies in An(sources |
    A), and `links_examined` is at most twice the number of edges
    incident to that set.  A source in `stop_at` ends the sweep before
    its first link: `reached` is then the sources, and no list is walked.

    With `stop_at` and `Dag._ranks` (graphs of 128 nodes or more), A is
    marked lazily.  The sweep marks the conditioning set and `stop_at`,
    and parks them.  Before it walks the children of an out-state v, if
    there are any, it resolves every rank at or above v's (see
    `_sweep`), and `links_resolved` counts the parent links that walks.
    A child of a resolved node ranks no lower, so into-states need no
    test.  Bits 1 and 2 are then set only on the resolved ranks.  The
    other bits, `reached` and `links_examined` are those of marking A
    first.

    Without `stop_at`, the sweep is the whole-graph one, and the Dag
    keeps the last with its node sets in `dag._last_sweep`, replaced
    whole; nothing else reads or writes it.  The same sets again get a
    copy of its marks, or with `stop_at=_KEPT`, which `dsep_set_fast` and
    the requisite read-offs pass, the kept sweep itself: they only
    translate its marks.  On a graph of `_WIDE_NODES` nodes or more its
    wide queues go to numpy, which marks and counts as the loop does, and
    `links_resolved` is 0.

    The sweep's whole state is one bytearray of n marks.  Bits of
    `marks[v]`: 1 in An(conditioning), an open collider when entered
    along an arrow; 2 in A, so child links may enter (every node without
    a stop set); 4 conditioned; 8 / 16 the state (v, arrived into v) / (v,
    arrived out of v) queued; 32 children walked; 64 parents walked; 128
    in `stop_at`.  A node is reached iff it has bit 8 or 16; the sources
    get both first.
    """
    sources = checked_nodes(dag, query.sources)
    cond = checked_nodes(dag, query.conditioning)
    if stop_at is not None and stop_at is not _KEPT:
        return next(_sweep(dag, sources, cond, checked_nodes(dag, stop_at)))
    last = dag._last_sweep
    if last is None or last[0] != sources or last[1] != cond:
        side = _sweep(dag, sources, cond, None)
        last = dag._last_sweep = sources, cond, next(side)
        next(side, None)    # a generator left suspended costs more to drop
    kept = last[2]
    return kept if stop_at is _KEPT else FastSweep(
        kept.marks.copy(), kept.links_examined, 0)


def _sweep(dag: Dag, sources: NodeSet, cond: NodeSet, stop: NodeSet | None,
           budget: int = sys.maxsize
           ) -> Generator[FastSweep | None, int, None]:
    """`fast_sweep` on checked node sets, as a generator that yields its
    `FastSweep` last.  `is_dseparated` runs one on each side of a check
    under a budget on its charge, the links examined plus the parent links
    lazy marking walks.  Before the sweep walks a list that would take the
    charge past `budget`, that list counted, it yields None and takes the
    next budget from `send`; lazy marking pauses after the parent list
    that does.  The queue, the place there and lazy marking's state stay
    in the generator's frame, so however often it pauses, the sweep ends
    with the marks and counts of one unpaused run.

    Lazy marking (`stop` given, and `Dag._ranks`) keeps a `bound`: every
    rank at or above it is resolved, bits 1 and 2 set as `mark_ancestors`
    would.  `top`, the first bound, is one above the highest rank marked
    at the start.  An out-state v below the bound, whose children the
    sweep would walk, lowers it to v's rank or further: the resolved span,
    `top` minus the bound, at least doubles, and once it would pass half
    of `top` the bound is 0 and the rest is resolved at once, without
    rank tests.  Resolving walks the parents of each `parked` node ranked
    at or above the new bound, and of each node that walk marks there,
    and parks the marked nodes ranked below it.  Each parent list is
    walked once, and `resolved` counts its links.

    With `stop` None it sweeps the whole graph.  On a graph of
    `_WIDE_NODES` nodes or more it then yields nothing but its `FastSweep`
    and ignores `budget`: every 4 * `_LEVEL_MIN` links it stops to look at
    its own queue.  Once `_LEVEL_MIN` states wait, or the list it stopped
    before has `_LEVEL_MIN` links or more (a hub's), `_expand_wide` takes
    the waiting states, the one it stopped at first, and the levels after
    them with numpy, and the loop goes on in place with the level that
    narrowed, spliced into the queue behind that state.
    """
    parents, children, rank = dag.parents, dag.children, dag._ranks
    n = dag.node_count
    parked, top, poll = None, 0, 0  # ranks at or above `bound` are resolved
    # The bits are written as literals: a global lookup per link costs more.
    if stop is None:    # the whole graph
        stop, mark = (), bytearray(b"\x02") * n
        if cond:
            mark_ancestors(dag, cond, mark, 1, 4)
        if n >= _WIDE_NODES:
            poll = budget = 4 * _LEVEL_MIN
    elif rank is None:
        mark = bytearray(n)
        if cond:
            mark_ancestors(dag, cond, mark, 1 | 2, 4)
        if stop:
            mark_ancestors(dag, stop, mark, 2, 128)
    else:
        mark = bytearray(n)
        for v in cond:
            mark[v] = 1 | 2 | 4
        for v in stop:
            mark[v] |= 2 | 128
        parked = [*cond, *(stop - cond)]    # marked, parents not walked
        if parked:
            top = max(map(rank.__getitem__, parked)) + 1
    queue = []      # v: arrived at v along an arrow into v; ~v: out of v
    for j in sorted(sources):
        mark[j] |= 8 | 16
        queue.append(~j)
    if stop and not stop.isdisjoint(sources):
        queue = []
    bound, at, ops, resolved = top, 0, 0, 0
    room = budget       # what `ops` may reach: the budget less `resolved`
    for state in queue:     # the list grows while it is walked: a FIFO queue
        if state >= 0:
            v = state
            m = mark[v]
            expand_in = m & 1
        else:
            v = ~state
            m = mark[v]
            expand_in = not m & 4
            if (bound and expand_in and rank[v] < bound
                    and children[v]):   # kids unresolved: lazy marking
                low = min(rank[v], 2 * bound - top)
                if 2 * low < top:   # the rest at once, without rank tests
                    low, walk = 0, parked[:]
                    parked.clear()
                else:
                    walk = [u for u in parked if rank[u] >= low]
                    parked[:] = [u for u in parked if rank[u] < low]
                # An(conditioning) first, as in the eager marks; bit 1
                # implies bit 2.
                for bit, bits in ((1, 1 | 2), (2, 2)):
                    band = [u for u in walk if mark[u] & 3 == bits]
                    for u in band:      # the list grows while it is walked
                        ps = parents[u]
                        for p in ps:
                            mp = mark[p]
                            if not mp & bit:
                                mark[p] = mp | bits
                                if not low or rank[p] >= low:
                                    band.append(p)
                                elif not mp & 2:    # else it is parked already
                                    parked.append(p)
                        resolved += len(ps)
                        room -= len(ps)
                        while ops > room:
                            room = (yield) - resolved
                bound = low
                m = mark[v]
        if not m & (4 | 32):
            kids = children[v]
            ops += len(kids)
            if ops > room:
                if poll:    # numpy takes the lists whose bits are clear
                    at = queue.index(state, at)
                    room = ops + poll
                    if max(len(queue) - at, len(kids)) >= _LEVEL_MIN:
                        ops += _expand_wide(dag, mark, queue, at) - len(kids)
                        room = ops + poll
                        continue
                while ops > room:
                    room = (yield) - resolved
            m |= 32
            mark[v] = m
            for c in kids:      # arrives at c along an arrow into c
                mc = mark[c]
                if mc & (2 | 8) == 2:
                    mark[c] = mc | 8
                    queue.append(c)
                    if mc > 127:    # bit 128, a stop node (> beats &)
                        yield FastSweep(mark, ops, resolved)
                        return
        if expand_in and not m & 64:
            ps = parents[v]
            ops += len(ps)
            if ops > room:
                if poll:
                    at = queue.index(state, at)
                    room = ops + poll
                    if max(len(queue) - at, len(ps)) >= _LEVEL_MIN:
                        ops += _expand_wide(dag, mark, queue, at) - len(ps)
                        room = ops + poll
                        continue
                while ops > room:
                    room = (yield) - resolved
            mark[v] = m | 64
            for p in ps:        # arrives at p along an arrow out of p
                mp = mark[p]
                if not mp & 16:
                    mark[p] = mp | 16
                    queue.append(~p)
                    if mp > 127:
                        yield FastSweep(mark, ops, resolved)
                        return
    yield FastSweep(mark, ops, resolved)


# Once this many states wait in a whole-graph sweep's queue, numpy expands
# them.  On perfbench large-graph (5e4 nodes, 1e5 edges), 256 rather than
# 4096 cut its whole-graph queries from 12.6 to 5.6 ms (medians); its
# checks, which walk the adjacency tuples numpy skipped, read 2% slower.
_LEVEL_MIN = 256
# Only graphs of this many nodes go wide.  Below it a frontier of a few
# hundred states costs numpy about what it costs the loop, and numpy's
# import (100-150 ms and 14 MB) is never paid back.
_WIDE_NODES = 2048


def _expand_wide(dag: Dag, mark: bytearray, queue: list[int], at: int) -> int:
    """Expand the states waiting in a whole-graph sweep's `queue` from `at`
    on with numpy, and each breadth-first level after them until one has
    fewer than `_LEVEL_MIN` states; that level replaces the states after
    `at`, and the links walked are returned.

    `mark` holds the sweep's marks, which numpy views in place.  The bit
    tests are the per-state loop's, so the state at `at` hands over just
    the lists whose bits are still clear.  A node can hold both states in
    one level, so the walks of its into-state are marked before its
    out-state is tested.  numpy is imported here, on a sweep's first wide
    frontier, not with the package.
    """
    import numpy as np
    (kid_ptr, kid_idx), (par_ptr, par_idx) = adjacency_arrays(dag)
    mk = np.frombuffer(mark, np.uint8)
    stamp = np.empty(len(mark), np.intp)   # stale contents never read
    states = np.array(queue[at:])
    into, out = states[states >= 0], ~states[states < 0]
    ops = 0
    while True:
        m = mk[into]
        kid_walk, par_walk = into[m & (4 | 32) == 0], into[m & (1 | 64) == 1]
        mk[kid_walk] |= 32
        mk[par_walk] |= 64
        m = mk[out]
        kid_out, par_out = out[m & (4 | 32) == 0], out[m & (4 | 64) == 0]
        mk[kid_out] |= 32
        mk[par_out] |= 64
        kids = _rows(kid_ptr, kid_idx, np.concatenate((kid_walk, kid_out)))
        pars = _rows(par_ptr, par_idx, np.concatenate((par_walk, par_out)))
        ops += len(kids) + len(pars)
        into = _first_arrivals(mk, stamp, kids, 8)
        out = _first_arrivals(mk, stamp, pars, 16)
        if len(into) + len(out) < _LEVEL_MIN:
            queue[at + 1:] = (~out).tolist() + into.tolist()
            return ops


def _rows(ptr: np.ndarray, idx: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The CSR rows of `nodes`, concatenated."""
    import numpy as np
    starts = ptr[nodes]
    lens = ptr[1:][nodes] - starts
    ends = np.cumsum(lens)
    offsets = np.repeat(starts - ends + lens, lens)
    offsets += np.arange(len(offsets))
    return idx[offsets]


def _first_arrivals(mk: np.ndarray, stamp: np.ndarray, nodes: np.ndarray,
                    bit: int) -> np.ndarray:
    """The distinct `nodes` without `bit`, which then get it.  Each candidate
    writes its position into `stamp`; one writer per node reads its own back."""
    import numpy as np
    new = nodes[mk[nodes] & bit == 0]
    position = np.arange(len(new), dtype=np.intp)
    stamp[new] = position
    new = new[stamp[new] == position]
    mk[new] |= bit
    return new


def flagged_nodes(dag: Dag, flags: bytes | bytearray) -> frozenset[int]:
    """The ids v with `flags[v]` nonzero.  Once `dag` holds its arrays,
    numpy is loaded, and `flatnonzero` reads a sparse set off 50,000 flags
    10x faster than `compress`.  A set of more than half the flags is
    `dag._all_nodes`, built on the first such read, minus the ids
    flagged 0: the difference copies its hash table and shares its ints,
    0.45 ms against 1.6 ms for 50,000 members listed and hashed anew."""
    if dag._arrays is None:
        return frozenset(compress(range(dag.node_count), flags))
    import numpy as np
    f = np.frombuffer(flags, np.uint8)
    if 2 * np.count_nonzero(f) <= len(f):
        return frozenset(np.flatnonzero(f).tolist())
    everything = dag._all_nodes
    if everything is None:
        everything = dag._all_nodes = frozenset(range(dag.node_count))
    return everything.difference(np.flatnonzero(f == 0).tolist())


def dsep_set_fast(dag: Dag, query: SeparationQuery) -> NodeSet:
    """Same value as `dsep_set` in O(node_count + edge_count): the nodes the
    whole-graph `fast_sweep`, which the Dag keeps, neither queued nor found
    conditioned (no mark bit 4, 8 or 16)."""
    marks = fast_sweep(dag, query, _KEPT).marks
    return flagged_nodes(dag, marks.translate(_SEPARATED))


_FIRST_BUDGET = 64     # the charge a side may make in a check's first round


def is_dseparated(dag: Dag, statement: IndependenceStatement, *,
                  method: str = "fast") -> bool:
    """Verify one independence statement X _||_ Y | Z.

    `method` picks the engine, "fast" (default) or "faithful".  Either
    stops a sweep once it reaches the other side; the fast one follows
    child links only into An(stop set | Z) (see `fast_sweep`).

    A sweep's cost depends on its side: for x _||_ y | pa(y), the sweep
    from x climbs An(x) and the one from y stops at pa(y).  So the fast
    method sweeps from X, then from Y, each until its charge (links
    examined plus links resolved) would pass a budget of 64 that grows 4x
    a round, and reads the first side that finishes.  Each side is a
    `_sweep` generator, and the Y side's starts once X pauses: a side that
    passes its budget pauses, and the next round sends it the larger one,
    so no work is done twice.  A check's charge is thus at most 5 times
    its cheaper side's, or that side's plus 64 if that is more, plus one
    adjacency list.  The faithful method, a referee, sweeps from X alone.
    """
    if method == "fast":
        x = checked_nodes(dag, statement.sources)
        z = checked_nodes(dag, statement.conditioning)
        targets = checked_nodes(dag, statement.targets)
        budget = _FIRST_BUDGET
        from_x = _sweep(dag, x, z, targets, budget)
        side, stop, swept = from_x, targets, next(from_x)
        if swept is None:   # then the Y side, under the same budget
            from_y = _sweep(dag, targets, z, x, budget)
            side, stop, swept = from_y, x, next(from_y)
        while swept is None:    # then each side again, under 4x the budget
            budget *= 4
            side, stop, swept = from_x, targets, from_x.send(budget)
            if swept is None:
                side, stop, swept = from_y, x, from_y.send(budget)
        next(side, None)    # a generator left suspended costs more to drop
        marks = swept.marks
        for v in stop:
            if marks[v] & (8 | 16):
                return False
        return True
    if method == "faithful":
        targets = checked_nodes(dag, statement.targets)
        return not (_faithful_sweep(dag, statement, stop_at=targets).reached
                    & targets)
    raise InvalidQuery(f"unknown method {method!r}")
