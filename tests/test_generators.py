"""Deterministic graph families used by the verifier and the bench."""

from __future__ import annotations

import random

import pytest

from dsep import chain_dag, corpus_dag, random_dag, random_sparse_dag, star_dag


class TestFixedFamilies:
    def test_chain_shape(self):
        dag = chain_dag(4)
        assert dag.node_count == 5
        assert dag.edges == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_star_hub_to_leaves(self):
        dag = star_dag(3)
        assert dag.node_count == 4
        assert dag.edges == ((0, 1), (0, 2), (0, 3))

    def test_star_leaves_to_hub(self):
        dag = star_dag(3, hub_to_leaves=False)
        assert dag.edges == ((1, 0), (2, 0), (3, 0))

    def test_zero_size_collapses_to_single_node(self):
        assert chain_dag(0).node_count == 1
        assert star_dag(0).node_count == 1

    @pytest.mark.parametrize("bad", [-1, -2])
    def test_negative_sizes_rejected(self, bad):
        with pytest.raises(ValueError):
            chain_dag(bad)
        with pytest.raises(ValueError):
            star_dag(bad)


class TestRandomFamilies:
    def test_random_dag_is_deterministic_per_seed(self):
        a = random_dag(random.Random(5), 12)
        b = random_dag(random.Random(5), 12)
        assert a.edges == b.edges

    def test_random_dag_edge_probability_extremes(self):
        none = random_dag(random.Random(1), 8, edge_prob=0.0)
        assert none.edges == ()
        nmax = 8 * 7 // 2
        full = random_dag(random.Random(1), 8, edge_prob=1.0)
        assert len(full.edges) == nmax

    def test_corpus_dag_covers_requested_sizes(self):
        rng = random.Random(77)
        for n in (1, 3, 6):
            dag = corpus_dag(rng, n)
            assert dag.node_count == n

    def test_corpus_dag_is_reproducible_from_rng_state(self):
        a = corpus_dag(random.Random(9), 6)
        b = corpus_dag(random.Random(9), 6)
        assert a.edges == b.edges


class TestSparseFamily:
    def test_edge_budget_is_exact(self):
        dag = random_sparse_dag(500, seed=3)
        assert len(dag.edges) == 500
        assert dag.node_count == 250

    def test_backbone_chain_is_present(self):
        dag = random_sparse_dag(60, seed=8)
        for v in range(dag.node_count - 1):
            assert dag.has_edge(v, v + 1)

    def test_deterministic_per_seed(self):
        assert random_sparse_dag(80, 4).edges == random_sparse_dag(80, 4).edges
        assert random_sparse_dag(80, 4).edges != random_sparse_dag(80, 5).edges

    def test_edges_point_forward(self):
        dag = random_sparse_dag(200, seed=11)
        assert all(tail < head for tail, head in dag.edges)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            random_sparse_dag(9, seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_count_its_nodes_cannot_hold_rejected(self, seed):
        # 11 edges get 5 nodes, which hold only 10 forward pairs.
        with pytest.raises(ValueError, match="5 nodes cannot hold 11"):
            random_sparse_dag(11, seed)

    def test_every_small_count_that_fits_is_exact(self):
        for edge_count in (10, *range(12, 64)):
            dag = random_sparse_dag(edge_count, seed=edge_count)
            assert len(dag.edges) == edge_count
