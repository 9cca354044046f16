"""Timing and operation-count tables for the separation engines.

Each instance is a graph family member with a fixed query; every
algorithm row carries a deterministic operation count next to the wall
time, so linear scaling can be checked machine-independently.  A fast
or faithful row times the sweep alone: the adjacency arrays and the
doubled graph, which a Dag builds once and keeps, are built before the
clock starts, and the fast row runs the engine's sweep afresh on every
repeat, never the whole-graph sweep a Dag keeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .dag import Dag, _GcPaused, adjacency_arrays, doubled_graph
from .engine import (
    IndependenceStatement,
    SeparationQuery,
    _faithful_sweep,
    _sweep,
)
from .errors import InvalidArgument
from .generators import chain_dag, random_sparse_dag, star_dag
from .moral import _bfs_separated, moralize

FAMILIES = ("chain", "star", "random")
DEFAULT_SEED = 1234


@dataclass(frozen=True)
class BenchRow:
    family: str
    node_count: int
    edge_count: int
    algorithm: str
    seconds: float
    result_size: int
    ops: int


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]

    def table(self) -> str:
        header = (f"{'family':<8} {'nodes':>9} {'edges':>9} "
                  f"{'algorithm':<10} {'seconds':>10} {'result':>9} "
                  f"{'ops':>10}")
        lines = [header]
        for r in self.rows:
            lines.append(
                f"{r.family:<8} {r.node_count:>9} {r.edge_count:>9} "
                f"{r.algorithm:<10} {r.seconds:>10.4f} {r.result_size:>9} "
                f"{r.ops:>10}")
        return "\n".join(lines)


def build_instance(family: str, edge_count: int, seed: int
                   ) -> tuple[Dag, SeparationQuery, IndependenceStatement]:
    """One benchmark instance: a graph, a set query, and a statement.

    The chain conditions on its midpoint so the sweep exercises both
    adjacency lists; star and random run unconditioned.
    """
    if type(edge_count) is not int:
        raise InvalidArgument(f"edge_count must be an int, got {edge_count!r}")
    if family in ("chain", "star") and edge_count < 2:  # 3 distinct nodes
        raise InvalidArgument(
            f"{family} needs edge_count at least 2, got {edge_count}")
    if family == "chain":
        dag = chain_dag(edge_count)
        cond = frozenset((dag.node_count // 2,))
    elif family == "star":
        dag = star_dag(edge_count)
        cond = frozenset()
    elif family == "random":
        dag = random_sparse_dag(edge_count, seed)
        cond = frozenset()
    else:
        raise InvalidArgument(f"unknown family {family!r}, expected one of "
                              f"{FAMILIES}")
    source = 1 if family == "star" else 0
    target = dag.node_count - 1
    query = SeparationQuery(frozenset((source,)), cond)
    statement = IndependenceStatement(frozenset((source,)), cond,
                                      frozenset((target,)))
    return dag, query, statement


def _best_of(repeats: int, fn):
    best = None
    value = None
    with _GcPaused():
        for _ in range(repeats):
            t0 = time.perf_counter()
            value = fn()
            elapsed = time.perf_counter() - t0
            if best is None or elapsed < best:
                best = elapsed
    return best, value


def _run_fast(dag: Dag, query: SeparationQuery, repeats: int):
    adjacency_arrays(dag)   # built once per Dag: keep it out of every repeat
    seconds, swept = _best_of(repeats, lambda: next(
        _sweep(dag, query.sources, query.conditioning, None)))
    size = dag.node_count - len(swept.reached | query.conditioning)
    return seconds, size, swept.links_examined


def _run_faithful(dag: Dag, query: SeparationQuery, repeats: int):
    doubled_graph(dag)      # built once per Dag: keep it out of every repeat
    seconds, swept = _best_of(repeats, lambda: _faithful_sweep(dag, query))
    size = dag.node_count - len(swept.reached | query.sources
                                | query.conditioning)
    labeled = sum(1 for lv in swept.link_levels if lv is not None)
    return seconds, size, labeled


def _run_moral(dag: Dag, statement: IndependenceStatement, repeats: int):
    def run():
        graph = moralize(dag, statement)
        return _bfs_separated(graph, statement)

    seconds, (separated, scanned) = _best_of(repeats, run)
    return seconds, int(separated), scanned


def run_bench(family: str, edge_counts: Sequence[int],
              seed: int = DEFAULT_SEED) -> BenchReport:
    """Time fast, faithful, and moral algorithms over one family."""
    try:
        edge_counts = list(edge_counts)
    except TypeError:
        raise InvalidArgument(f"edge_counts must be an iterable of ints, "
                              f"got {edge_counts!r}") from None
    rows = []
    for edge_count in edge_counts:
        dag, query, statement = build_instance(family, edge_count, seed)
        repeats = 3 if edge_count <= 100_000 else 1
        for algorithm, runner in (("fast", _run_fast),
                                  ("faithful", _run_faithful)):
            seconds, size, ops = runner(dag, query, repeats)
            rows.append(BenchRow(family, dag.node_count, len(dag.edges),
                                 algorithm, seconds, size, ops))
        seconds, size, ops = _run_moral(dag, statement, repeats)
        rows.append(BenchRow(family, dag.node_count, len(dag.edges),
                             "moral", seconds, size, ops))
    return BenchReport(tuple(rows))
