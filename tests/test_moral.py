"""Moral-graph baseline: ancestral restriction, marriages, verdicts."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsep import (
    Dag,
    IndependenceStatement,
    is_dseparated,
    moral_check,
    moralize,
)
from dsep.moral import MARRIAGE_RULES, _moral_verdicts

from .conftest import dags_with_query


def _edges(graph):
    """Normalized (low, high) pairs read off the adjacency dict."""
    return {(min(v, w), max(v, w)) for v in graph for w in graph[v]}


def _edge_names(dag, graph):
    return sorted((dag.node_name(a), dag.node_name(b))
                  for a, b in _edges(graph))


class TestMoralize:
    def test_web7_restricted_needs_no_marriage(self, web7, ids):
        statement = IndependenceStatement(
            ids(web7, "n4"), ids(web7, "n2"), ids(web7, "n3"))
        graph = moralize(web7, statement)
        assert _edge_names(web7, graph) == [
            ("n1", "n4"), ("n2", "n3"), ("n2", "n4")]

    def test_web7_full_marries_coparents_anyway(self, web7, ids):
        statement = IndependenceStatement(
            ids(web7, "n4"), ids(web7, "n2"), ids(web7, "n3"))
        graph = moralize(web7, statement, marriage="full")
        assert _edge_names(web7, graph) == [
            ("n1", "n2"), ("n1", "n4"), ("n2", "n3"), ("n2", "n4")]

    def test_diamond4_conditioned_collider_marries_parents(self, diamond4, ids):
        statement = IndependenceStatement(
            ids(diamond4, "3"), ids(diamond4, "4"), ids(diamond4, "2"))
        graph = moralize(diamond4, statement)
        assert _edge_names(diamond4, graph) == [
            ("1", "2"), ("1", "3"), ("1", "4"), ("2", "4")]

    def test_nodes_outside_ancestral_set_are_dropped(self, web7, ids):
        statement = IndependenceStatement(
            ids(web7, "n4"), ids(web7, "n2"), ids(web7, "n3"))
        graph = moralize(web7, statement)
        kept = {web7.node_name(v) for v in graph}
        assert kept == {"n1", "n2", "n3", "n4"}

    def test_unknown_marriage_rule_rejected(self, web7, ids):
        statement = IndependenceStatement(
            ids(web7, "n4"), ids(web7, "n2"), ids(web7, "n3"))
        with pytest.raises(ValueError):
            moralize(web7, statement, marriage="arranged")

    def test_restricted_edges_are_a_subset_of_full(self, web7, ids):
        statement = IndependenceStatement(
            ids(web7, "n1"), frozenset(), ids(web7, "n7"))
        restricted = _edges(moralize(web7, statement))
        full = _edges(moralize(web7, statement, marriage="full"))
        assert restricted <= full


class TestMoralAdjacency:
    def test_neighbors_are_symmetric(self, diamond4, ids):
        statement = IndependenceStatement(
            ids(diamond4, "3"), ids(diamond4, "4"), ids(diamond4, "2"))
        graph = moralize(diamond4, statement)
        for v in graph:
            for w in graph[v]:
                assert v in graph[w]

    def test_each_neighbor_listed_once(self):
        # 0 and 1 share two children and are already adjacent
        dag = Dag(4, [(0, 2), (1, 2), (0, 1), (0, 3), (1, 3)])
        statement = IndependenceStatement({3}, set(), {2})
        for marriage in MARRIAGE_RULES:
            graph = moralize(dag, statement, marriage)
            for v in graph:
                listed = list(graph[v])
                assert len(listed) == len(set(listed))
            assert sorted(graph[0]) == [1, 2, 3]


class TestMoralCheck:
    def test_web7_verdicts(self, web7, ids):
        holds = IndependenceStatement(
            ids(web7, "n4"), ids(web7, "n2"), ids(web7, "n3"))
        fails = IndependenceStatement(
            ids(web7, "n4"), ids(web7, "n2", "n6"), ids(web7, "n3"))
        assert moral_check(web7, holds)
        assert not moral_check(web7, fails)

    def test_diamond4_conditioning_on_collider_connects(self, diamond4, ids):
        statement = IndependenceStatement(
            ids(diamond4, "3"), ids(diamond4, "4"), ids(diamond4, "2"))
        assert not moral_check(diamond4, statement)
        unconditioned = IndependenceStatement(
            ids(diamond4, "3"), frozenset(), ids(diamond4, "2"))
        assert moral_check(diamond4, unconditioned)

    @settings(max_examples=200, deadline=None)
    @given(case=dags_with_query(), data=st.data())
    def test_agrees_with_trail_engine(self, case, data):
        dag, sources, conditioning = case
        rest = [v for v in range(dag.node_count)
                if v not in sources and v not in conditioning]
        if not rest:
            return
        targets = data.draw(st.sets(st.sampled_from(rest), min_size=1,
                                    max_size=2))
        statement = IndependenceStatement(sources, conditioning, targets)
        expected = is_dseparated(dag, statement)
        for rule in MARRIAGE_RULES:
            assert moral_check(dag, statement, marriage=rule) == expected

    @settings(max_examples=200, deadline=None)
    @given(case=dags_with_query(), data=st.data())
    def test_both_verdicts_from_one_construction(self, case, data):
        dag, sources, conditioning = case
        rest = [v for v in range(dag.node_count)
                if v not in sources and v not in conditioning]
        if not rest:
            return
        targets = data.draw(st.sets(st.sampled_from(rest), min_size=1,
                                    max_size=2))
        statement = IndependenceStatement(sources, conditioning, targets)
        assert _moral_verdicts(dag, statement) == (
            moral_check(dag, statement, "restricted"),
            moral_check(dag, statement, "full"))
