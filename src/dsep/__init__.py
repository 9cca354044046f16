"""Linear-time d-separation queries on directed acyclic graphs.

The package answers three kinds of questions about a directed acyclic
graph: which nodes are separated from a source set given observations
(`dsep_set`, `dsep_set_fast`), whether one specific independence
statement holds (`is_dseparated`), and which conditional tables or
observations actually matter for a query (`requisite_parameters`,
`relevant_variables`).  Everything is cross-checkable: a brute-force
trail oracle, an exact discrete-distribution oracle, and a moral-graph
baseline ship alongside the engines, with `verify` utilities that pit
them against each other.
"""

from __future__ import annotations

from .bench import BenchReport, BenchRow, run_bench
from .dag import (
    Dag,
    DoubledGraph,
    ancestral_set,
    build_dag,
    descendant_table,
    doubled_graph,
)
from .engine import (
    IndependenceStatement,
    SeparationQuery,
    Trail,
    dsep_set,
    dsep_set_fast,
    fast_sweep,
    is_active_trail,
    is_dseparated,
)
from .errors import (
    CycleDetected,
    DsepError,
    DuplicateEdge,
    EmptyStartSet,
    EndpointInConditioningSet,
    ForeignNode,
    GraphSyntaxError,
    InvalidArgument,
    InvalidQuery,
    MalformedTrail,
    OracleScaleExceeded,
    SelfLoop,
    UnknownEndpoint,
)
from .generators import chain_dag, corpus_dag, random_dag, random_sparse_dag, star_dag
from .graphio import load_graph_file, parse_graph, parse_graph_json, serialize_graph
from .moral import moral_check, moralize
from .oracle import (
    DiscreteNetwork,
    JointTable,
    Theorem2Report,
    check_theorem2,
    ci_holds,
    dsep_bruteforce,
    enumerate_simple_trails,
    joint,
    max_ci_violation,
    random_network,
)
from .reachability import ReachabilityResult, find_reachable
from .requisite import (
    AugmentedDag,
    augment_dummies,
    relevant_variables,
    requisite_parameters,
)
from .verify import AgreementReport, audit_dag, audit_random_corpus, singleton_queries

__version__ = "0.1.0"

__all__ = [
    "AgreementReport",
    "AugmentedDag",
    "BenchReport",
    "BenchRow",
    "CycleDetected",
    "Dag",
    "DiscreteNetwork",
    "DoubledGraph",
    "DsepError",
    "DuplicateEdge",
    "EmptyStartSet",
    "EndpointInConditioningSet",
    "ForeignNode",
    "GraphSyntaxError",
    "IndependenceStatement",
    "InvalidArgument",
    "InvalidQuery",
    "JointTable",
    "MalformedTrail",
    "OracleScaleExceeded",
    "ReachabilityResult",
    "SelfLoop",
    "SeparationQuery",
    "Theorem2Report",
    "Trail",
    "UnknownEndpoint",
    "ancestral_set",
    "audit_dag",
    "audit_random_corpus",
    "augment_dummies",
    "build_dag",
    "chain_dag",
    "check_theorem2",
    "ci_holds",
    "corpus_dag",
    "descendant_table",
    "doubled_graph",
    "dsep_bruteforce",
    "dsep_set",
    "dsep_set_fast",
    "enumerate_simple_trails",
    "fast_sweep",
    "find_reachable",
    "is_active_trail",
    "is_dseparated",
    "joint",
    "load_graph_file",
    "max_ci_violation",
    "moral_check",
    "moralize",
    "parse_graph",
    "parse_graph_json",
    "random_dag",
    "random_network",
    "random_sparse_dag",
    "relevant_variables",
    "requisite_parameters",
    "run_bench",
    "serialize_graph",
    "singleton_queries",
    "star_dag",
    "__version__",
]
