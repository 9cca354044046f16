"""The package's public surface: adding or dropping a name is a visible diff."""

from __future__ import annotations

import importlib.util
import inspect
import random
from pathlib import Path

import pytest

import dsep

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

PUBLIC = (
    "AgreementReport", "AugmentedDag", "BenchReport", "BenchRow",
    "CycleDetected", "Dag", "DiscreteNetwork", "DoubledGraph", "DsepError",
    "DuplicateEdge", "EmptyStartSet", "EndpointInConditioningSet",
    "ForeignNode", "GraphSyntaxError", "IndependenceStatement", "InvalidArgument",
    "InvalidQuery",
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


_ERROR = ("message", "line", "column")

# Each public callable's parameter names, in order: adding, dropping or
# renaming an option is a visible diff here.
SIGNATURES = {
    "AgreementReport": (
        "graphs", "queries", "oracle_queries", "statements",
        "early_stop_checks", "marriage_checks", "disagreements",
        "early_stop_disagreements", "marriage_disagreements",
    ),
    "AugmentedDag": ("base", "graph", "dummy_of"),
    "BenchReport": ("rows",),
    "BenchRow": (
        "family", "node_count", "edge_count", "algorithm", "seconds",
        "result_size", "ops",
    ),
    "CycleDetected": ("message", "cycle", "line", "column"),
    "Dag": ("node_count", "edges", "names"),
    "DiscreteNetwork": ("dag", "arities", "cpts"),
    "DoubledGraph": ("base",),
    "DsepError": _ERROR,
    "DuplicateEdge": _ERROR,
    "EmptyStartSet": _ERROR,
    "EndpointInConditioningSet": _ERROR,
    "ForeignNode": _ERROR,
    "GraphSyntaxError": _ERROR,
    "IndependenceStatement": ("sources", "conditioning", "targets"),
    "InvalidArgument": _ERROR,
    "InvalidQuery": _ERROR,
    "JointTable": ("probs", "arities"),
    "MalformedTrail": _ERROR,
    "MoralGraph": ("nodes", "adjacency"),
    "OracleScaleExceeded": _ERROR,
    "ReachabilityResult": ("reached", "link_levels"),
    "SelfLoop": _ERROR,
    "SeparationQuery": ("sources", "conditioning"),
    "Theorem2Report": ("outcomes", "trials", "soundness_tol"),
    "Trail": ("nodes", "edges"),
    "UnknownEndpoint": _ERROR,
    "ancestral_set": ("dag", "members"),
    "audit_dag": ("dag",),
    "audit_random_corpus": ("max_nodes", "seed", "min_queries"),
    "augment_dummies": ("dag",),
    "build_dag": ("node_names", "edges"),
    "chain_dag": ("edge_count",),
    "check_theorem2": ("dag", "trials", "seed", "soundness_tol"),
    "ci_holds": ("table", "first", "second", "conditioning", "tol"),
    "corpus_dag": ("rng", "node_count"),
    "descendant_table": ("dag", "conditioning"),
    "doubled_graph": ("dag",),
    "dsep_bruteforce": ("dag", "query"),
    "dsep_set": ("dag", "query"),
    "dsep_set_fast": ("dag", "query"),
    "enumerate_simple_trails": ("dag", "start", "goal"),
    "fast_sweep": ("dag", "query", "stop_at"),
    "find_reachable": ("graph", "legal", "sources", "stop_at"),
    "is_active_trail": ("dag", "trail", "conditioning"),
    "is_dseparated": ("dag", "statement", "method"),
    "joint": ("network",),
    "load_graph_file": ("path", "json_format"),
    "max_ci_violation": ("table", "first", "second", "conditioning"),
    "moral_check": ("dag", "statement", "marriage"),
    "moralize": ("dag", "statement", "marriage"),
    "parse_graph": ("text",),
    "parse_graph_json": ("text",),
    "random_dag": ("rng", "node_count", "edge_prob"),
    "random_network": ("dag", "arity", "seed"),
    "random_sparse_dag": ("edge_count", "seed"),
    "relevant_variables": ("dag", "query"),
    "requisite_parameters": ("dag", "query"),
    "run_bench": ("family", "edge_counts", "seed"),
    "serialize_graph": ("dag",),
    "singleton_queries": ("dag",),
    "star_dag": ("leaf_count", "hub_to_leaves"),
}


def test_public_names_are_pinned():
    assert PUBLIC == tuple(sorted(PUBLIC))
    assert len(dsep.__all__) == len(set(dsep.__all__))
    assert tuple(sorted(dsep.__all__)) == PUBLIC


def test_public_signatures_are_pinned():
    signatures = {name: tuple(inspect.signature(obj).parameters)
                  for name in dsep.__all__
                  if callable(obj := getattr(dsep, name))}
    assert signatures == SIGNATURES


@pytest.mark.parametrize("call", [
    lambda: dsep.build_dag([[1]], []),
    lambda: dsep.build_dag(5, []),
    lambda: dsep.Dag(2, [], names=[[1], [2]]),
    lambda: dsep.chain_dag("a"),
    lambda: dsep.star_dag("a"),
    lambda: dsep.random_sparse_dag("a", 1),
    lambda: dsep.random_dag(random.Random(1), "x"),
    lambda: dsep.corpus_dag(random.Random(1), "x"),
    lambda: dsep.random_dag(random.Random(1), 3, edge_prob="x"),
    lambda: dsep.random_sparse_dag(20, [1]),
    lambda: dsep.ci_holds(dsep.joint(dsep.random_network(dsep.chain_dag(1),
                                                         2, 1)),
                          {0}, {1}, tol="x"),
    lambda: dsep.random_network(dsep.chain_dag(1), "2", 1),
    lambda: dsep.random_network(dsep.chain_dag(1), 2.5, 1),
    lambda: dsep.check_theorem2(dsep.chain_dag(2), "3", 1),
    lambda: dsep.check_theorem2(dsep.chain_dag(2), 3, 1, soundness_tol="x"),
    lambda: dsep.run_bench("chain", ["a"]),
    lambda: dsep.run_bench("random", [20], seed=[1]),
], ids=["build_dag-names", "build_dag-no-names", "Dag-names", "chain_dag",
        "star_dag", "random_sparse_dag", "random_dag", "corpus_dag",
        "random_dag-edge_prob", "random_sparse_dag-seed", "ci_holds-tol",
        "random_network-arity-str", "random_network-arity-float",
        "check_theorem2-trials", "check_theorem2-soundness_tol",
        "run_bench-edge_counts", "run_bench-seed"])
def test_arguments_of_the_wrong_type_raise_a_dsep_value_error(call):
    with pytest.raises(dsep.DsepError) as raised:
        call()
    assert isinstance(raised.value, ValueError)


@pytest.mark.parametrize("call", [
    lambda: dsep.Dag(2, [], names=["a"]),
    lambda: dsep.Dag(2, [], names=["a", "a"]),
    lambda: dsep.moralize(dsep.chain_dag(2),
                          dsep.IndependenceStatement({0}, (), {2}), "x"),
    lambda: dsep.run_bench("x", [10]),
    lambda: dsep.audit_random_corpus(1, 0),
    lambda: dsep.audit_random_corpus("x", 1),
    lambda: dsep.audit_random_corpus(3.5, 1, min_queries=5),
    lambda: dsep.audit_random_corpus(3, 1, min_queries="x"),
    lambda: dsep.audit_random_corpus(3, [1]),
    lambda: dsep.audit_random_corpus(3, 1, min_queries=-1),
], ids=["Dag-name-count", "Dag-repeated-name", "moralize-marriage",
        "run_bench-family", "audit_random_corpus-max_nodes",
        "audit_random_corpus-max_nodes-str",
        "audit_random_corpus-max_nodes-float",
        "audit_random_corpus-min_queries-str", "audit_random_corpus-seed",
        "audit_random_corpus-min_queries-negative"])
def test_arguments_out_of_range_raise_a_dsep_value_error(call):
    with pytest.raises(dsep.DsepError) as raised:
        call()
    assert isinstance(raised.value, ValueError)


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
