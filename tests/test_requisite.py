"""Requisite conditional tables and relevant observations for a query."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from dsep import (
    Dag,
    ForeignNode,
    SeparationQuery,
    augment_dummies,
    build_dag,
    dsep_bruteforce,
    dsep_set_fast,
    fast_sweep,
    random_dag,
    random_sparse_dag,
    relevant_variables,
    requisite_parameters,
)

from .conftest import dags_with_query


def requisite_by_augmentation(dag: Dag, query: SeparationQuery):
    """Referee: dummies left d-connected on the explicitly augmented dag."""
    aug = augment_dummies(dag)
    separated = dsep_set_fast(aug.graph, query)
    return frozenset(v for v in range(dag.node_count)
                     if aug.dummy_of[v] not in separated)


def random_query(rng: random.Random, dag: Dag, max_conditioning: int):
    nodes = rng.sample(range(dag.node_count),
                       min(dag.node_count, 3 + max_conditioning))
    sources = nodes[:rng.randint(1, min(3, len(nodes)))]
    rest = nodes[len(sources):]
    conditioning = rest[:rng.randint(0, min(max_conditioning, len(rest)))]
    return SeparationQuery(frozenset(sources), frozenset(conditioning))


class TestAugmentation:
    def test_one_dummy_parent_per_node(self, diamond4):
        aug = augment_dummies(diamond4)
        n = diamond4.node_count
        assert aug.graph.node_count == 2 * n
        for v in range(n):
            assert aug.dummy_of[v] == n + v
            assert aug.graph.has_edge(n + v, v)
            assert aug.is_dummy(n + v)
            assert not aug.is_dummy(v)

    def test_dummy_names_are_primed(self, diamond4):
        aug = augment_dummies(diamond4)
        assert aug.graph.node_name(aug.dummy_of[diamond4.node_id("3")]) == "3'"

    def test_base_edges_survive(self, diamond4):
        aug = augment_dummies(diamond4)
        for tail, head in diamond4.edges:
            assert aug.graph.has_edge(tail, head)

    @pytest.mark.parametrize("node", [8, 10**9, -1, "x", [0], True])
    def test_is_dummy_rejects_what_is_no_id_of_the_augmented_graph(
            self, diamond4, node):
        with pytest.raises(ForeignNode):
            augment_dummies(diamond4).is_dummy(node)

    def test_unnamed_graphs_get_no_names(self):
        from dsep import Dag
        aug = augment_dummies(Dag(2, [(0, 1)]))
        assert aug.graph.node_name(2) == "2"


class TestRequisiteParameters:
    def test_diamond4_worked_example(self, diamond4, ids, named):
        query = SeparationQuery(ids(diamond4, "3"))
        assert named(diamond4, requisite_parameters(diamond4, query)) == ["1", "3"]
        assert named(diamond4, relevant_variables(diamond4, query)) == ["1", "4"]

    def test_chain_observed_parent_screens_upstream_tables(self, named):
        dag = build_dag(["a", "b", "c"], [("a", "b"), ("b", "c")])
        query = SeparationQuery({dag.node_id("c")}, {dag.node_id("b")})
        assert named(dag, requisite_parameters(dag, query)) == ["c"]
        assert named(dag, relevant_variables(dag, query)) == []

    def test_chain_without_observations_needs_everything(self, named):
        dag = build_dag(["a", "b", "c"], [("a", "b"), ("b", "c")])
        query = SeparationQuery({dag.node_id("c")})
        assert named(dag, requisite_parameters(dag, query)) == ["a", "b", "c"]
        assert named(dag, relevant_variables(dag, query)) == ["a", "b"]

    def test_own_table_is_always_requisite(self, web7, ids):
        for name in ("n1", "n4", "n7"):
            query = SeparationQuery(ids(web7, name))
            assert web7.node_id(name) in requisite_parameters(web7, query)

    @settings(max_examples=120, deadline=None)
    @given(case=dags_with_query(max_nodes=5))
    def test_matches_bruteforce_on_augmented_graph(self, case):
        dag, sources, conditioning = case
        query = SeparationQuery(sources, conditioning)
        aug = augment_dummies(dag)
        separated = dsep_bruteforce(
            aug.graph, SeparationQuery(sources, conditioning))
        expected = frozenset(
            v for v in range(dag.node_count)
            if aug.dummy_of[v] not in separated)
        assert requisite_parameters(dag, query) == expected

    @settings(max_examples=120, deadline=None)
    @given(case=dags_with_query(max_nodes=6))
    def test_relevant_variables_complement_separation(self, case):
        dag, sources, conditioning = case
        query = SeparationQuery(sources, conditioning)
        relevant = relevant_variables(dag, query)
        assert not relevant & sources
        assert not relevant & conditioning
        separated = dsep_bruteforce(dag, query)
        assert relevant == (frozenset(range(dag.node_count))
                            - separated - sources - conditioning)


class TestOneSweepAgainstAugmentedGraph:
    """The one-sweep rule against the augmented-graph definition, at scale."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_dags(self, seed):
        rng = random.Random(seed)
        node_count = rng.randint(20, 300)
        dag = random_dag(rng, node_count,
                         edge_prob=rng.uniform(1.0, 6.0) / node_count)
        if seed % 2:
            dag = Dag(node_count, dag.edges,
                      names=[f"x{v}" for v in range(node_count)])
        for max_conditioning in (0, 3, 30):
            query = random_query(rng, dag, max_conditioning)
            got = requisite_parameters(dag, query)
            assert got >= query.sources
            assert got == requisite_by_augmentation(dag, query)
            # The confined sweep walks exactly the unconfined parent lists.
            assert (fast_sweep(dag, query, stop_at=()).parents_expanded
                    == fast_sweep(dag, query).parents_expanded)

    @pytest.mark.parametrize("seed", range(20))
    def test_relevant_variables_are_the_reached_set_difference(self, seed):
        rng = random.Random(seed)
        dag = (random_sparse_dag(rng.randint(10, 20_000), seed) if seed % 2
               else random_dag(rng, rng.randint(2, 300), edge_prob=0.02))
        for max_conditioning in (0, 3, 30):
            query = random_query(rng, dag, max_conditioning)
            assert relevant_variables(dag, query) == (
                fast_sweep(dag, query).reached - query.sources
                - query.conditioning)

    @pytest.mark.parametrize("observed_leaf", [False, True])
    def test_descendant_fan_outside_the_ancestral_set(self, observed_leaf):
        # Source 0 above a 400-node fan; 1 -> 1001 <- 0 is a collider that
        # is open only when its leaf 1002 is observed.
        edges = [(0, 2 + i) for i in range(40)]
        edges += [(2 + i, 42 + 10 * i + j) for i in range(40) for j in range(10)]
        edges += [(0, 1001), (1, 1001), (1001, 1002), (1000, 1)]
        dag = Dag(1003, edges)
        query = SeparationQuery({0}, {1002} if observed_leaf else ())
        got = requisite_parameters(dag, query)
        assert got == requisite_by_augmentation(dag, query)
        assert (1 in got) == observed_leaf

    @pytest.mark.parametrize("conditioning_size", [0, 1, 20, 400])
    def test_sparse_dag_with_ten_thousand_edges(self, conditioning_size):
        dag = random_sparse_dag(10_000, seed=7)
        rng = random.Random(conditioning_size)
        query = random_query(rng, dag, conditioning_size)
        got = requisite_parameters(dag, query)
        assert got >= query.sources
        assert got == requisite_by_augmentation(dag, query)
