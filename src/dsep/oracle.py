"""Ground-truth machinery: exhaustive trails and exact discrete distributions.

Everything here is deliberately independent of the sweep engines so it
can referee them: separation verdicts come from enumerating simple
trails one by one, and probabilistic claims are checked on exact joint
tables built as the product of per-node conditional tables.  Hard size
guards keep the exhaustive paths honest.

The trails from a source to a target do not depend on the conditioning
set, so `_separated_sets` answers a list of sets at once: it draws each
target's trails lazily, once, judges each only against the sets whose
verdict is still open, and stops when none is.  Trails are never stored,
since one pair of a 12-node graph can have millions.  `dsep_bruteforce`
is its one-set case and draws exactly the trails it drew alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .dag import Dag, NodeSet, checked_nodes, descendant_table
from .engine import SeparationQuery, Trail, _trail_active
from .errors import ForeignNode, InvalidArgument, OracleScaleExceeded

if TYPE_CHECKING:   # the numeric functions import numpy when first called
    import numpy as np

TRAIL_NODE_LIMIT = 12          # largest graph the trail enumerator accepts
JOINT_SIZE_LIMIT = 1 << 20     # largest joint table (number of entries)
CPT_SUM_TOL = 1e-12
JOINT_MASS_TOL = 1e-9
MAX_TRIPLES = 64               # triples a numeric check samples, at most
DEPENDENCE_TOL = 1e-6          # deviation that counts as dependence


def _check_trail_scale(dag: Dag, work: str) -> None:
    if dag.node_count > TRAIL_NODE_LIMIT:
        raise OracleScaleExceeded(f"{work} is capped at {TRAIL_NODE_LIMIT} "
                                  f"nodes, graph has {dag.node_count}")


def _iter_simple_trails(dag: Dag, start: int, goal: int) -> Iterator[Trail]:
    """Depth-first enumeration of node-simple trails between two nodes."""
    nodes = [start]
    edges: list[tuple[int, int]] = []
    on_path = {start}

    def extend(v: int) -> Iterator[Trail]:
        # Children first, then parents, both in stored order: deterministic.
        for c in dag.children[v]:
            if c not in on_path:
                yield from step(c, (v, c))
        for p in dag.parents[v]:
            if p not in on_path:
                yield from step(p, (p, v))

    def step(nxt: int, edge: tuple[int, int]) -> Iterator[Trail]:
        nodes.append(nxt)
        edges.append(edge)
        if nxt == goal:
            yield Trail(tuple(nodes), tuple(edges))
        else:
            on_path.add(nxt)
            yield from extend(nxt)
            on_path.discard(nxt)
        nodes.pop()
        edges.pop()

    yield from extend(start)


def enumerate_simple_trails(dag: Dag, start: int, goal: int) -> list[Trail]:
    """All node-simple trails between two distinct nodes, directions ignored.

    Refuses graphs above TRAIL_NODE_LIMIT nodes: the count can grow
    factorially and silence would be worse than an error.
    """
    _check_trail_scale(dag, "trail enumeration")
    checked_nodes(dag, (start, goal))
    if start == goal:
        raise InvalidArgument("trail endpoints must differ")
    return list(_iter_simple_trails(dag, start, goal))


def _still_blocked(dag: Dag, sources: Iterable[int], target: int,
                   open_: list[tuple[int, tuple[bool, ...], NodeSet]]
                   ) -> list[tuple[int, tuple[bool, ...], NodeSet]]:
    """The entries of `open_`, (key, descendant flags, conditioning set),
    under which no simple trail joins a source to `target`.  Trails are
    drawn lazily, judged against the entries still open, and no longer
    drawn once none is: one entry draws them up to its first active one."""
    if open_:
        for trail in chain.from_iterable(_iter_simple_trails(dag, j, target)
                                         for j in sorted(sources)):
            open_ = [e for e in open_ if not _trail_active(trail, e[1], e[2])]
            if not open_:
                break
    return open_


def _separated_sets(dag: Dag, sources: NodeSet,
                    conditionings: Sequence[NodeSet]) -> list[NodeSet]:
    """`dsep_bruteforce`'s answer for each conditioning set (checked ids);
    each target's trails are enumerated at most once for all the sets."""
    judges = [(i, descendant_table(dag, cond), cond)
              for i, cond in enumerate(conditionings)]
    separated: list[list[int]] = [[] for _ in judges]
    for alpha in range(dag.node_count):
        if alpha not in sources:
            for i, _, _ in _still_blocked(dag, sources, alpha, [
                    e for e in judges if alpha not in e[2]]):
                separated[i].append(alpha)
    return [frozenset(s) for s in separated]


def dsep_bruteforce(dag: Dag, query: SeparationQuery) -> NodeSet:
    """Separated set computed trail by trail; the referee for both engines.

    The one-set case of `_separated_sets`, through which the audit asks
    for all of a source's conditioning sets at once.
    """
    _check_trail_scale(dag, "brute-force separation")
    sources = checked_nodes(dag, query.sources)
    cond = checked_nodes(dag, query.conditioning)
    return _separated_sets(dag, sources, [cond])[0]


@dataclass(frozen=True)
class DiscreteNetwork:
    """Per-node conditional probability tables over a dag.

    Node v's table has one axis per parent (in `dag.parents[v]` order)
    followed by v's own axis; slices along the last axis are probability
    vectors.
    """

    dag: Dag
    arities: tuple[int, ...]
    cpts: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        import numpy as np
        object.__setattr__(self, "arities", tuple(self.arities))
        object.__setattr__(self, "cpts", tuple(self.cpts))
        n = self.dag.node_count
        if len(self.arities) != n or len(self.cpts) != n:
            raise InvalidArgument("need one arity and one table per node")
        if any(a < 2 for a in self.arities):
            raise InvalidArgument("arity must be at least 2 for every node")
        for v in range(n):
            expected = tuple(self.arities[p] for p in self.dag.parents[v])
            expected += (self.arities[v],)
            cpt = self.cpts[v]
            if cpt.shape != expected:
                raise InvalidArgument(
                    f"table for node {v} has shape {cpt.shape}, "
                    f"expected {expected}")
            if np.any(cpt < 0.0) or np.any(cpt > 1.0):
                raise InvalidArgument(f"table for node {v} leaves [0, 1]")
            sums = cpt.sum(axis=-1)
            if np.max(np.abs(sums - 1.0)) > CPT_SUM_TOL:
                raise InvalidArgument(
                    f"table for node {v} has rows not summing to 1")


def _check_joint_size(arities: Sequence[int]) -> None:
    size = math.prod(arities)
    if size > JOINT_SIZE_LIMIT:
        raise OracleScaleExceeded(f"joint table would have {size} entries, "
                                  f"limit is {JOINT_SIZE_LIMIT}")


def random_network(dag: Dag, arity: int, seed: int) -> DiscreteNetwork:
    """Seeded network with uniform arity and strictly positive tables.

    Rows are drawn uniformly from [0.1, 1.0] and normalized, keeping
    every configuration possible and no row degenerate.
    """
    import numpy as np
    if type(arity) is not int or arity < 2:
        raise InvalidArgument(f"arity must be an int of at least 2, got {arity!r}")
    arities = (arity,) * dag.node_count
    _check_joint_size(arities)
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:  # no int, or a negative one
        raise InvalidArgument(f"bad seed: {exc}") from None
    cpts = []
    for v in range(dag.node_count):
        shape = tuple(arities[p] for p in dag.parents[v]) + (arity,)
        raw = rng.uniform(0.1, 1.0, size=shape)
        cpts.append(raw / raw.sum(axis=-1, keepdims=True))
    return DiscreteNetwork(dag, arities, tuple(cpts))


@dataclass(frozen=True)
class JointTable:
    """Exact joint distribution, one axis per node."""

    probs: np.ndarray
    arities: tuple[int, ...]

    def __post_init__(self) -> None:
        import numpy as np
        object.__setattr__(self, "arities", tuple(self.arities))
        if self.probs.shape != self.arities:
            raise InvalidArgument(
                f"table shape {self.probs.shape} does not match arities "
                f"{self.arities}")
        if np.any(self.probs < 0.0):
            raise InvalidArgument("joint table has negative entries")
        if abs(float(self.probs.sum()) - 1.0) > JOINT_MASS_TOL:
            raise InvalidArgument("joint table mass is not 1")

    def probability(self, assignment: Sequence[int]) -> float:
        return float(self.probs[tuple(assignment)])


def joint(network: DiscreteNetwork) -> JointTable:
    """Multiply every conditional table out into the full joint."""
    import numpy as np
    arities = network.arities
    _check_joint_size(arities)
    n = network.dag.node_count
    probs = np.ones(arities, dtype=np.float64)
    for v in range(n):
        axes = list(network.dag.parents[v]) + [v]
        cpt = network.cpts[v]
        # Rearrange the table's axes into ascending global-node order,
        # then broadcast it over the full joint shape.
        order = sorted(range(len(axes)), key=axes.__getitem__)
        arranged = np.transpose(cpt, order)
        shape = [1] * n
        for ax in axes:
            shape[ax] = arities[ax]
        probs = probs * arranged.reshape(shape)
    return JointTable(probs=probs, arities=arities)


def _grouped_marginal(table: JointTable, groups: Sequence[Sequence[int]]):
    """Collapse the joint onto the given variable groups, one axis per group."""
    import numpy as np
    flat = [v for group in groups for v in group]
    rest = [v for v in range(len(table.arities)) if v not in set(flat)]
    arr = np.transpose(table.probs, flat + rest)
    sizes = [math.prod(table.arities[v] for v in group) for group in groups]
    arr = arr.reshape(sizes + [-1])
    return arr.sum(axis=-1)


def max_ci_violation(table: JointTable, first: Iterable[int],
                     second: Iterable[int],
                     conditioning: Iterable[int] = ()) -> float:
    """Largest |P(a,b|c) - P(a|c) P(b|c)| over assignments with P(c) > 0."""
    import numpy as np
    try:
        groups = tuple(sorted(set(group))
                       for group in (first, second, conditioning))
    except TypeError as exc:    # not an iterable, or unhashable members
        raise InvalidArgument(f"variable groups must be sets of ids: {exc}"
                              ) from None
    seen: set[int] = set()
    for group in groups:
        for v in group:
            if type(v) is not int or not (0 <= v < len(table.arities)):
                raise ForeignNode(f"variable {v!r} is not in the joint table")
            if v in seen:
                raise InvalidArgument("variable groups must be disjoint")
            seen.add(v)
    m = _grouped_marginal(table, groups)          # [a, b, c]
    p_c = m.sum(axis=(0, 1))
    p_ac = m.sum(axis=1)
    p_bc = m.sum(axis=0)
    mask = p_c > 0.0
    if not mask.any():
        return 0.0
    pc = p_c[mask]
    joint_given_c = m[:, :, mask] / pc
    product = (p_ac[:, mask] / pc)[:, None, :] * (p_bc[:, mask] / pc)[None, :, :]
    return float(np.max(np.abs(joint_given_c - product)))


def ci_holds(table: JointTable, first: Iterable[int], second: Iterable[int],
             conditioning: Iterable[int] = (), tol: float = 1e-9) -> bool:
    """Exact conditional-independence test at tolerance `tol`.

    Assignments with zero conditioning mass are skipped: they constrain
    nothing.
    """
    _check_tol(tol)
    return max_ci_violation(table, first, second, conditioning) <= tol


@dataclass(frozen=True)
class TripleOutcome:
    """Numeric evidence for one (source, conditioning, target) claim."""

    source: int
    target: int
    conditioning: frozenset[int]
    separated: bool
    max_violation: float      # largest CI deviation over the trial networks
    networks_violating: int   # trials with a deviation above the dependence tol


@dataclass(frozen=True)
class Theorem2Report:
    """Aggregated outcomes of `check_theorem2`.

    Separated triples must show no deviation beyond `soundness_tol`
    (those that do appear in `soundness_violations`).  Connected triples
    are expected to show a deviation beyond `DEPENDENCE_TOL` in at least
    one network; the quiet ones appear in `dependence_misses`.
    """

    outcomes: tuple[TripleOutcome, ...]
    trials: int
    soundness_tol: float

    @property
    def separated_count(self) -> int:
        return sum(1 for o in self.outcomes if o.separated)

    @property
    def connected_count(self) -> int:
        return sum(1 for o in self.outcomes if not o.separated)

    @property
    def soundness_violations(self) -> tuple[TripleOutcome, ...]:
        return tuple(o for o in self.outcomes
                     if o.separated and o.max_violation > self.soundness_tol)

    @property
    def dependence_misses(self) -> tuple[TripleOutcome, ...]:
        return tuple(o for o in self.outcomes
                     if not o.separated and o.networks_violating == 0)


def sample_triples(dag: Dag, seed: int) -> list[tuple[int, frozenset[int], int]]:
    """Deterministic (source, conditioning, target) triples for numeric checks.

    Exhaustive when the total count fits `MAX_TRIPLES`, sampled otherwise.
    """
    n = dag.node_count
    total = n * (n - 1) * (1 << max(0, n - 2))
    triples: list[tuple[int, frozenset[int], int]] = []
    if total <= MAX_TRIPLES:
        for j in range(n):
            for k in range(n):
                if k == j:
                    continue
                others = [v for v in range(n) if v != j and v != k]
                for mask in range(1 << len(others)):
                    cond = frozenset(others[i] for i in range(len(others))
                                     if mask >> i & 1)
                    triples.append((j, cond, k))
        return triples
    rng = random.Random(f"{seed}:triples")
    chosen: set[tuple[int, frozenset[int], int]] = set()
    attempts = 0
    while len(chosen) < MAX_TRIPLES and attempts < MAX_TRIPLES * 50:
        attempts += 1
        j, k = rng.sample(range(n), 2)
        cond = frozenset(v for v in range(n)
                         if v != j and v != k and rng.random() < 0.35)
        chosen.add((j, cond, k))
    return sorted(chosen, key=lambda t: (t[0], t[2], sorted(t[1])))


def _check_tol(tol: float) -> None:
    """Reject a tolerance that is no nonnegative number (NaN included)."""
    if not isinstance(tol, (int, float)) or not tol >= 0:
        raise InvalidArgument(f"tolerance must be nonnegative, got {tol!r}")


def _check_numeric_settings(trials: int, tol: float) -> None:
    """Reject a trial count that is no int of at least one, or a bad tolerance."""
    if type(trials) is not int or trials < 1:
        raise InvalidArgument(f"need at least one trial network, got {trials!r}")
    _check_tol(tol)


def check_theorem2(dag: Dag, trials: int, seed: int, *,
                   soundness_tol: float = 1e-9) -> Theorem2Report:
    """Numeric spot-check that separation verdicts match exact independence.

    For each sampled triple the verdict comes from the trail oracle; the
    numeric side builds `trials` seeded binary networks once and measures
    the largest CI deviation per network.
    """
    _check_trail_scale(dag, "numeric checking")
    _check_numeric_settings(trials, soundness_tol)
    seed_rng = random.Random(f"{seed}:networks")
    net_seeds = [seed_rng.randrange(2 ** 32) for _ in range(trials)]
    tables = [joint(random_network(dag, 2, s)) for s in net_seeds]

    outcomes = []
    for source, cond, target in sample_triples(dag, seed):
        separated = bool(_still_blocked(
            dag, (source,), target, [(0, descendant_table(dag, cond), cond)]))
        worst = 0.0
        violating = 0
        for table in tables:
            dev = max_ci_violation(table, (source,), (target,), cond)
            worst = max(worst, dev)
            if dev > DEPENDENCE_TOL:
                violating += 1
        outcomes.append(TripleOutcome(
            source=source, target=target, conditioning=cond,
            separated=separated, max_violation=worst,
            networks_violating=violating))
    return Theorem2Report(outcomes=tuple(outcomes), trials=trials,
                          soundness_tol=soundness_tol)
