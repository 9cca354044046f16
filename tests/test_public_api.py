"""The package's public surface: adding or dropping a name is a visible diff."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import dsep

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

PUBLIC = (
    "AgreementReport", "AugmentedDag", "BenchReport", "BenchRow",
    "CycleDetected", "Dag", "DiscreteNetwork", "DoubledGraph", "DsepError",
    "DuplicateEdge", "EmptyStartSet", "EndpointInConditioningSet",
    "ForeignNode", "GraphSyntaxError", "IndependenceStatement", "InvalidQuery",
    "JointTable", "MalformedTrail", "MoralGraph", "OracleScaleExceeded",
    "ReachabilityResult", "SelfLoop", "SeparationQuery", "Theorem2Report",
    "Trail", "UnknownEndpoint", "__version__", "ancestral_set", "audit_dag",
    "audit_random_corpus", "augment_dummies", "build_dag", "chain_dag",
    "check_theorem2", "ci_holds", "corpus_dag", "descendant_table",
    "doubled_graph", "dsep_bruteforce", "dsep_set", "dsep_set_fast",
    "enumerate_simple_trails", "fast_sweep", "find_reachable",
    "is_active_trail", "is_dseparated", "joint", "load_graph_file",
    "max_ci_violation", "moral_check", "moralize", "parse_graph",
    "parse_graph_json", "random_dag", "random_network", "random_sparse_dag",
    "relevant_variables", "requisite_parameters", "run_bench",
    "serialize_graph", "singleton_queries", "star_dag",
)


def test_public_names_are_pinned():
    assert PUBLIC == tuple(sorted(PUBLIC))
    assert len(dsep.__all__) == len(set(dsep.__all__))
    assert tuple(sorted(dsep.__all__)) == PUBLIC


def test_every_public_name_resolves():
    for name in dsep.__all__:
        assert hasattr(dsep, name), name


def test_every_traced_name_resolves():
    """perfbench's tracer looks up each (module, attribute) it wraps, so a
    name dropped from dsep breaks every traced benchmark run."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    for module, attr, _ in spans.WRAPPED:
        owner = importlib.import_module(f"dsep.{module}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"dsep.{module}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"dsep.{module}.{attr}"
