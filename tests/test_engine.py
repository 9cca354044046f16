"""Separation queries: trails, the link rule, and both engines."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
from itertools import compress, permutations
from pathlib import Path
from typing import Generator, NamedTuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dsep
from dsep import (
    Dag,
    EmptyStartSet,
    EndpointInConditioningSet,
    ForeignNode,
    IndependenceStatement,
    InvalidQuery,
    MalformedTrail,
    SeparationQuery,
    Trail,
    ancestral_set,
    chain_dag,
    descendant_table,
    dsep_set,
    dsep_set_fast,
    fast_sweep,
    is_active_trail,
    is_dseparated,
    moral_check,
    parse_graph,
    random_dag,
    random_sparse_dag,
    relevant_variables,
    requisite_parameters,
    serialize_graph,
    star_dag,
)
from dsep.dag import adjacency_arrays, mark_ancestors
from dsep.engine import (_PARENTS_WALKED, _REACHED, _REACHED_UNCONDITIONED,
                         _SEPARATED, FastSweep, _legality, _sweep,
                         flagged_nodes)

from .conftest import dags_with_query


@st.composite
def statements_on_larger_dags(draw: st.DrawFn, max_nodes: int = 200):
    """A seeded random dag of up to `max_nodes` nodes plus a valid statement."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    node_count = draw(st.integers(min_value=2, max_value=max_nodes))
    degree = draw(st.floats(min_value=0.5, max_value=4.0))
    dag = random_dag(rng, node_count, edge_prob=min(1.0, degree / node_count))
    nodes = rng.sample(range(node_count), node_count)
    n_src = draw(st.integers(1, min(3, node_count - 1)))
    n_tgt = draw(st.integers(1, min(3, node_count - n_src)))
    n_cond = draw(st.integers(0, min(12, node_count - n_src - n_tgt)))
    statement = IndependenceStatement(
        nodes[:n_src], nodes[n_src + n_tgt:n_src + n_tgt + n_cond],
        nodes[n_src:n_src + n_tgt])
    return dag, statement


@pytest.fixture(scope="module")
def nx():
    """networkx as an independent referee; its tests skip without it."""
    return pytest.importorskip("networkx", minversion="3.3")


def _incident_edges(dag: Dag, members) -> int:
    anc = ancestral_set(dag, members)
    return sum(1 for tail, head in dag.edges if tail in anc or head in anc)


class TestQueryValidation:
    def test_sources_required(self):
        with pytest.raises(EmptyStartSet):
            SeparationQuery(frozenset())

    @pytest.mark.parametrize("make", [
        lambda: SeparationQuery([0], [0]),
        lambda: IndependenceStatement([0], [], []),
        lambda: SeparationQuery(5),
        lambda: SeparationQuery([[1]]),
        lambda: IndependenceStatement([0], [1], 2),
    ], ids=["overlap", "no-target", "not-iterable", "unhashable",
            "target-not-iterable"])
    def test_malformed_queries_raise_invalid_query(self, make):
        with pytest.raises(InvalidQuery):
            make()

    def test_sources_and_conditioning_disjoint(self):
        with pytest.raises(ValueError):
            SeparationQuery({1}, {1, 2})

    def test_sets_are_coerced_to_frozensets(self):
        query = SeparationQuery({1, 2}, [3])
        assert query.sources == frozenset({1, 2})
        assert query.conditioning == frozenset({3})

    def test_statement_needs_targets(self):
        with pytest.raises(ValueError):
            IndependenceStatement({0}, {1}, set())

    def test_statement_sets_pairwise_disjoint(self):
        with pytest.raises(ValueError):
            IndependenceStatement({0}, {1}, {0})
        with pytest.raises(ValueError):
            IndependenceStatement({0}, {1}, {1})

    def test_statement_query_drops_targets(self):
        # A statement serves as its own query: the targets play no part.
        dag = chain_dag(4)
        swept = fast_sweep(dag, IndependenceStatement({0}, {1}, {2}))
        assert swept.marks == fast_sweep(dag, SeparationQuery({0}, {1})).marks


def _trail(dag: Dag, *names: str, via) -> Trail:
    nodes = tuple(dag.node_id(n) for n in names)
    return Trail(nodes, tuple(via))


class TestActiveTrail:
    def test_chain_blocked_by_middle_observation(self, diamond4, ids):
        one, three, four = (diamond4.node_id(n) for n in ("1", "3", "4"))
        trail = Trail((three, one, four), ((one, three), (one, four)))
        assert is_active_trail(diamond4, trail, frozenset())
        assert not is_active_trail(diamond4, trail, ids(diamond4, "1"))

    def test_collider_needs_conditioned_descendant(self, web7, ids):
        n3, n4, n5 = (web7.node_id(n) for n in ("n3", "n4", "n5"))
        trail = Trail((n4, n5, n3), ((n4, n5), (n3, n5)))
        assert not is_active_trail(web7, trail, frozenset())
        assert not is_active_trail(web7, trail, ids(web7, "n2"))
        # observing the collider itself, or anything downstream, opens it
        assert is_active_trail(web7, trail, ids(web7, "n5"))
        assert is_active_trail(web7, trail, ids(web7, "n6"))

    def test_mixed_trail_blocked_by_either_rule(self, web7, ids):
        n2, n3, n4, n5 = (web7.node_id(n) for n in ("n2", "n3", "n4", "n5"))
        # n4 <- n2 -> n3 -> n5: a fork then a chain link
        trail = Trail((n4, n2, n3, n5),
                      ((n2, n4), (n2, n3), (n3, n5)))
        assert is_active_trail(web7, trail, frozenset())
        assert not is_active_trail(web7, trail, ids(web7, "n2"))
        assert not is_active_trail(web7, trail, ids(web7, "n3"))

    def test_endpoint_in_conditioning_rejected(self, diamond4, ids):
        one, three = diamond4.node_id("1"), diamond4.node_id("3")
        trail = Trail((one, three), ((one, three),))
        with pytest.raises(EndpointInConditioningSet):
            is_active_trail(diamond4, trail, ids(diamond4, "3"))

    @pytest.mark.parametrize("nodes,edges,error", [
        ((0,), (), MalformedTrail),                     # too short
        ((0, 1), ((0, 1), (0, 1)), MalformedTrail),     # edge/node mismatch
        ((0, 2), ((0, 2),), MalformedTrail),            # not an edge
        ((0, 1, 0), ((0, 1), (0, 1)), MalformedTrail),  # repeated node, edge
        ((1, 2), ((0, 1),), MalformedTrail),            # edge joins others
        ((0, 9), ((0, 9),), ForeignNode),               # unknown node
        ((0, 1.0, 2), ((0, 1), (1, 2)), ForeignNode),   # float id
        ((0, True, 2), ((0, 1), (1, 2)), ForeignNode),  # bool id
        ((0.0, 1, 2), ((0, 1), (1, 2)), ForeignNode),   # float endpoint
        ((0, 1, 2), ((0, 1), (0, 1)), MalformedTrail),  # repeated edge
        ((0, 1), ((0, 1, 2),), MalformedTrail),         # edge not a pair
        ((0, 1), (5,), MalformedTrail),                 # edge not a sequence
    ])
    def test_malformed_trails_rejected(self, nodes, edges, error):
        dag = Dag(3, [(0, 1), (1, 2)])
        with pytest.raises(error):
            is_active_trail(dag, Trail(nodes, edges), frozenset())

    def test_trail_back_to_its_start_rejected(self):
        dag = Dag(3, [(1, 0), (0, 2), (1, 2)])
        trail = Trail((1, 0, 2, 1), ((1, 0), (0, 2), (1, 2)))
        with pytest.raises(MalformedTrail, match="trail repeats a node"):
            is_active_trail(dag, trail, [])

    def test_head_to_head_positions(self, web7):
        n3, n4, n5 = (web7.node_id(n) for n in ("n3", "n4", "n5"))
        trail = Trail((n4, n5, n3), ((n4, n5), (n3, n5)))
        assert trail.head_to_head(1)
        chain = Trail((n4, n5, web7.node_id("n6")),
                      ((n4, n5), (n5, web7.node_id("n6"))))
        assert not chain.head_to_head(1)
        assert len(chain) == 2


# Doubled-graph link ids for the WEB7 fixture, by edge position:
# edge k appears as link 2k (kept orientation) and 2k+1 (reversed).
WEB7_EDGE_INDEX = {
    ("n1", "n4"): 0, ("n2", "n3"): 1, ("n2", "n4"): 2, ("n3", "n5"): 3,
    ("n4", "n5"): 4, ("n5", "n6"): 5, ("n5", "n7"): 6,
}


def _link(tail: str, head: str) -> int:
    if (tail, head) in WEB7_EDGE_INDEX:
        return 2 * WEB7_EDGE_INDEX[(tail, head)]
    return 2 * WEB7_EDGE_INDEX[(head, tail)] + 1


def _legal(dag: Dag, cond: frozenset[int], first: int, second: int) -> bool:
    """The faithful engine's link rule for one pair of consecutive links."""
    return _legality(dag, descendant_table(dag, cond), cond)(first, second)


class TestLegalPair:
    def test_collider_pair_opens_with_conditioned_descendant(self, web7, ids):
        first = _link("n4", "n5")
        second = _link("n5", "n3")  # reversed edge n3 -> n5
        assert _legal(web7, ids(web7, "n2", "n6"), first, second)
        assert not _legal(web7, ids(web7, "n2"), first, second)

    def test_table_for_another_conditioning_set_rejected(self):
        """Collider openness is read from the descendant table, so a table
        built for another conditioning set gives that set's answer."""
        dag = Dag(3, [(0, 2), (1, 2)])
        observed = frozenset({2})
        # Link 0 runs 0 -> 2 and link 3 runs 2 -> 1 against edge (1, 2):
        # a collider at 2, open because 2 is observed.
        assert _legality(dag, descendant_table(dag, observed), observed)(0, 3)
        assert not _legality(dag, descendant_table(dag, frozenset()),
                             observed)(0, 3)

    def test_pass_through_pair_blocked_by_observation(self, web7, ids):
        first = _link("n4", "n5")
        second = _link("n5", "n6")
        assert _legal(web7, frozenset(), first, second)
        assert not _legal(web7, ids(web7, "n5"), first, second)

    def test_immediate_backtrack_always_illegal(self, web7, ids):
        first = _link("n4", "n5")
        second = _link("n5", "n4")
        cond = ids(web7, "n6")  # collider at n5 would be open
        assert not _legal(web7, cond, first, second)

    def test_matches_independent_reimplementation(self, web7, ids):
        """Cross-check the link rule against a from-scratch restatement on
        every pair of links that meet, the only pairs the sweep asks about."""

        def plain_legal(conditioning, first, second):
            tail1, head1 = web7.edges[first >> 1]
            if first & 1:
                tail1, head1 = head1, tail1
            tail2, head2 = web7.edges[second >> 1]
            if second & 1:
                tail2, head2 = head2, tail2
            if head1 != tail2 or tail1 == head2:
                return None if head1 != tail2 else False
            collider = (not first & 1) and (second & 1)
            if collider:
                hits = set(conditioning)
                grown = True
                while grown:  # ancestors of the conditioning set, reflexive
                    grown = False
                    for tail, head in web7.edges:
                        if head in hits and tail not in hits:
                            hits.add(tail)
                            grown = True
                return head1 in hits
            return head1 not in conditioning

        conditionings = [frozenset(), ids(web7, "n2"), ids(web7, "n6"),
                         ids(web7, "n2", "n6"), ids(web7, "n5"),
                         ids(web7, "n3", "n4")]
        link_count = 2 * len(web7.edges)
        checked = 0
        for cond in conditionings:
            legal = _legality(web7, descendant_table(web7, cond), cond)
            for first in range(link_count):
                for second in range(link_count):
                    expected = plain_legal(cond, first, second)
                    if expected is not None:
                        checked += 1
                        assert legal(first, second) == expected, (
                            cond, first, second)
        assert checked > 0


class TestSeparationSets:
    @pytest.mark.parametrize("sources,conditioning,expected", [
        (("n4",), ("n2",), {"n3"}),
        (("n4",), ("n2", "n6"), set()),
        (("n1",), ("n6",), set()),
        (("n1",), (), {"n2", "n3"}),
        (("n6",), ("n5",), {"n1", "n2", "n3", "n4", "n7"}),
    ])
    def test_web7_golden_queries(self, web7, ids, named, sources,
                                 conditioning, expected):
        query = SeparationQuery(ids(web7, *sources), ids(web7, *conditioning))
        assert set(named(web7, dsep_set(web7, query))) == expected
        assert set(named(web7, dsep_set_fast(web7, query))) == expected

    @pytest.mark.parametrize("sources,conditioning,expected", [
        (("2",), (), {"1", "3"}),
        (("3",), (), {"2"}),
        (("3",), ("4",), set()),
        (("1",), ("3", "4"), set()),
    ])
    def test_diamond4_golden_queries(self, diamond4, ids, named, sources,
                                 conditioning, expected):
        query = SeparationQuery(ids(diamond4, *sources), ids(diamond4, *conditioning))
        assert set(named(diamond4, dsep_set(diamond4, query))) == expected
        assert set(named(diamond4, dsep_set_fast(diamond4, query))) == expected

    def test_star_all_leaves_separated_by_hub(self):
        dag = star_dag(1000)
        query = SeparationQuery({1}, {0})
        rest = set(range(2, 1001))
        assert dsep_set_fast(dag, query) == frozenset(rest)
        assert dsep_set(dag, query) == frozenset(rest)

    def test_engines_agree_at_ten_thousand_edges(self):
        dag = random_sparse_dag(10_000, 11)
        x = 2_000
        blanket = {*dag.parents[x], *dag.children[x]}
        blanket.update(p for c in dag.children[x] for p in dag.parents[c])
        blanket.discard(x)
        rng = random.Random(11)
        queries = [SeparationQuery({x}, blanket),
                   SeparationQuery({x, 4_000}, rng.sample(range(4_001, 5_000), 8))]
        results = [dsep_set_fast(dag, q) for q in queries]
        assert results == [dsep_set(dag, q) for q in queries]
        # The Markov blanket separates x from every other node.
        assert results[0] == frozenset(range(dag.node_count)) - blanket - {x}

    def test_result_never_contains_query_nodes(self, web7, ids):
        query = SeparationQuery(ids(web7, "n4"), ids(web7, "n2"))
        result = dsep_set(web7, query)
        assert not result & query.sources
        assert not result & query.conditioning

    @settings(max_examples=200, deadline=None)
    @given(case=dags_with_query())
    def test_fast_engine_matches_faithful_engine(self, case):
        dag, sources, conditioning = case
        query = SeparationQuery(sources, conditioning)
        assert dsep_set_fast(dag, query) == dsep_set(dag, query)

    @settings(max_examples=150, deadline=None)
    @given(case=dags_with_query())
    def test_separation_is_symmetric_for_singletons(self, case):
        dag, sources, conditioning = case
        beta = next(iter(sources))
        forward = dsep_set_fast(dag, SeparationQuery({beta}, conditioning))
        for alpha in forward:
            back = dsep_set_fast(dag, SeparationQuery({alpha}, conditioning))
            assert beta in back

    @settings(max_examples=150, deadline=None)
    @given(case=dags_with_query())
    def test_fast_sweep_reached_complements_result(self, case):
        dag, sources, conditioning = case
        query = SeparationQuery(sources, conditioning)
        sweep = fast_sweep(dag, query)
        everything = set(range(dag.node_count))
        assert sources <= sweep.reached
        assert dsep_set_fast(dag, query) == (
            frozenset(everything) - sweep.reached - conditioning)

    @settings(max_examples=100, deadline=None)
    @given(case=dags_with_query())
    def test_fast_sweep_stopped_at_its_sources_reaches_only_them(self, case):
        dag, sources, conditioning = case
        swept = fast_sweep(dag, SeparationQuery(sources, conditioning),
                           stop_at=sources)
        assert swept.reached == sources
        assert swept.links_examined == 0
        assert not any(swept.parents_expanded)

    def test_fast_sweep_keeps_only_marks_and_link_count(self):
        assert FastSweep.__slots__ == ("marks", "links_examined",
                                       "links_resolved")
        swept = fast_sweep(chain_dag(3), SeparationQuery({1}))
        assert isinstance(swept.marks, bytearray)
        assert len(swept.marks) == 4

    def test_fast_sweep_expands_sources_first_in_id_order(self):
        dag = chain_dag(4)  # 0 -> 1 -> 2 -> 3 -> 4
        swept = fast_sweep(dag, SeparationQuery({2, 0}), stop_at={1})
        # Source 0's child list comes first, and its one link hits the stop.
        assert swept.links_examined == 1
        assert swept.reached == {0, 1, 2}


class TestIsDseparated:
    def test_web7_statements(self, web7, ids):
        holds = IndependenceStatement(
            ids(web7, "n4"), ids(web7, "n2"), ids(web7, "n3"))
        fails = IndependenceStatement(
            ids(web7, "n4"), ids(web7, "n2", "n6"), ids(web7, "n3"))
        for method in ("fast", "faithful"):
            assert is_dseparated(web7, holds, method=method)
            assert not is_dseparated(web7, fails, method=method)

    def test_statement_holds_iff_targets_in_separation_set(self, web7, ids):
        query = SeparationQuery(ids(web7, "n1"), frozenset())
        separated = dsep_set_fast(web7, query)
        for target in range(web7.node_count):
            if target in query.sources:
                continue
            statement = IndependenceStatement(
                query.sources, query.conditioning, {target})
            assert is_dseparated(web7, statement) == (target in separated)

    def test_unknown_method_rejected(self, web7, ids):
        statement = IndependenceStatement(
            ids(web7, "n4"), ids(web7, "n2"), ids(web7, "n3"))
        with pytest.raises(ValueError):
            is_dseparated(web7, statement, method="psychic")

    def test_unknown_method_is_an_invalid_query(self, web7):
        statement = IndependenceStatement({0}, (), {1})
        with pytest.raises(InvalidQuery, match="unknown method 'x'"):
            is_dseparated(web7, statement, method="x")

    @settings(max_examples=200, deadline=None)
    @given(case=dags_with_query(), data=st.data())
    def test_early_stop_never_changes_the_verdict(self, case, data):
        dag, sources, conditioning = case
        rest = [v for v in range(dag.node_count)
                if v not in sources and v not in conditioning]
        if not rest:
            return
        targets = data.draw(st.sets(st.sampled_from(rest), min_size=1,
                                    max_size=2))
        statement = IndependenceStatement(sources, conditioning, targets)
        verdicts = {
            is_dseparated(dag, statement, method=method)
            for method in ("fast", "faithful")}
        query = SeparationQuery(sources, conditioning)
        verdicts |= {targets <= dsep_set_fast(dag, query),
                     targets <= dsep_set(dag, query)}
        assert len(verdicts) == 1

    @settings(max_examples=150, deadline=None)
    @given(case=statements_on_larger_dags())
    def test_confined_sweep_matches_referees_past_oracle_cap(self, nx, case):
        dag, statement = case
        graph = nx.DiGraph()
        graph.add_nodes_from(range(dag.node_count))
        graph.add_edges_from(dag.edges)
        expected = nx.is_d_separator(graph, set(statement.sources),
                                     set(statement.targets),
                                     set(statement.conditioning))
        assert is_dseparated(dag, statement) == expected
        assert is_dseparated(dag, statement, method="faithful") == expected
        query = SeparationQuery(statement.sources, statement.conditioning)
        swept = fast_sweep(dag, query, stop_at=statement.targets)
        assert swept.links_examined <= 2 * _incident_edges(
            dag, statement.sources | statement.targets | statement.conditioning)

    def test_networkx_agrees_at_ten_to_the_five_edges(self, nx):
        # Loaded through the text format, so the loader is exercised at
        # scale as well.
        built = random_sparse_dag(100_000, seed=5)
        dag = parse_graph(serialize_graph(built))
        assert dag.edges == built.edges
        graph = nx.DiGraph()
        graph.add_nodes_from(range(dag.node_count))
        graph.add_edges_from(dag.edges)
        rng = random.Random(3)
        verdicts = []
        for i in range(6):
            x, y, *rest = rng.sample(range(dag.node_count), 6)
            # Odd cases condition on the target's parents, which separates.
            z = set(dag.parents[y]) - {x} if i % 2 else set(rest[:i % 5])
            statement = IndependenceStatement({x}, z, {y})
            expected = nx.is_d_separator(graph, {x}, {y}, z)
            assert is_dseparated(dag, statement) == expected
            verdicts.append(expected)
        assert True in verdicts and False in verdicts

    def test_confined_sweep_skips_the_descendant_fan(self):
        # 0 -> 2..41, each of those -> ten grandchildren, and the collider
        # 0 -> 1002 <- 1 left unconditioned: no trail from 0 reaches 1.
        edges = [(0, 2 + i) for i in range(40)]
        edges += [(2 + i, 42 + 10 * i + j) for i in range(40) for j in range(10)]
        edges += [(0, 1002), (1, 1002)]
        dag = Dag(1003, edges)
        statement = IndependenceStatement({0}, (), {1})
        query = SeparationQuery(statement.sources, statement.conditioning)
        swept = fast_sweep(dag, query, stop_at={1})
        assert 1 not in swept.reached
        assert swept.links_examined <= 2 * _incident_edges(dag, {0, 1})
        assert fast_sweep(dag, query).links_examined > 400
        assert is_dseparated(dag, statement)

    def test_foreign_stop_node_rejected(self, web7):
        with pytest.raises(ForeignNode):
            fast_sweep(web7, SeparationQuery({0}), stop_at={99})


class TestNonIntegerIds:
    """Ids that compare or hash like ints are still foreign nodes."""

    # Valid ids stay clear of 0 and 1, which the bad ids compare equal to.
    DAG = Dag(5, [(0, 2), (2, 4), (3, 4), (1, 3)])
    BAD = [0.0, "0", True, None]

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("role", ["sources", "conditioning", "targets"])
    @pytest.mark.parametrize("method", ["fast", "faithful"])
    def test_is_dseparated(self, bad, role, method):
        sets = {"sources": {2}, "conditioning": {4}, "targets": {3}}
        sets[role] = {bad}
        with pytest.raises(ForeignNode):
            is_dseparated(self.DAG, IndependenceStatement(**sets),
                          method=method)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("role", ["sources", "conditioning"])
    @pytest.mark.parametrize("engine", [dsep_set_fast, requisite_parameters])
    def test_set_queries(self, bad, role, engine):
        query = (SeparationQuery({bad}, {4}) if role == "sources"
                 else SeparationQuery({2}, {bad}))
        with pytest.raises(ForeignNode):
            engine(self.DAG, query)


def _sweep_with_level_min(dag: Dag, query: SeparationQuery,
                          level_min: int | None) -> FastSweep:
    """An unconfined `fast_sweep`, swept afresh, that hands its queue to
    numpy once `level_min` states wait (it looks every 4 * `level_min`
    links): 1 puts nearly every level on arrays, and a huge `level_min`
    keeps the whole sweep in the per-state loop.  The node gate goes to 0,
    so graphs of any size can go wide.  `level_min` None is the default
    settings: graphs below `_WIDE_NODES` nodes then take the loop alone."""
    dag._last_sweep = None      # no kept sweep answers for this one
    if level_min is None:
        return fast_sweep(dag, query)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("dsep.engine._LEVEL_MIN", level_min)
        patch.setattr("dsep.engine._WIDE_NODES", 0)
        return fast_sweep(dag, query)


def _per_state_sweep(dag: Dag, query: SeparationQuery) -> tuple[bytearray, int]:
    """Referee of the whole-graph sweep: one per-state loop over every
    node that never pauses or goes wide, with every bit set as
    `fast_sweep` documents it; returns the marks and the links examined."""
    mark = bytearray(b"\x02") * dag.node_count
    mark_ancestors(dag, query.conditioning, mark, 1, 4)
    queue = []      # v: arrived along an arrow into v; ~v: out of v
    for j in sorted(query.sources):
        mark[j] |= 8 | 16
        queue.append(~j)
    links = 0
    for state in queue:     # the list grows while it is walked
        v = state if state >= 0 else ~state
        m = mark[v]
        expand_in = m & 1 if state >= 0 else not m & 4
        if not m & (4 | 32):
            links += len(dag.children[v])
            m |= 32
            for c in dag.children[v]:
                if not mark[c] & 8:
                    mark[c] |= 8
                    queue.append(c)
        if expand_in and not m & 64:
            links += len(dag.parents[v])
            m |= 64
            for p in dag.parents[v]:
                if not mark[p] & 16:
                    mark[p] |= 16
                    queue.append(~p)
        mark[v] |= m
    return mark, links


@st.composite
def queries_on_larger_dags(draw: st.DrawFn, max_nodes: int = 400):
    """A seeded random dag of up to `max_nodes` nodes plus a valid query."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    node_count = draw(st.integers(min_value=2, max_value=max_nodes))
    degree = draw(st.floats(min_value=0.5, max_value=6.0))
    dag = random_dag(rng, node_count, edge_prob=min(1.0, degree / node_count))
    nodes = rng.sample(range(node_count), node_count)
    n_src = draw(st.integers(1, min(3, node_count - 1)))
    n_cond = draw(st.integers(0, min(20, node_count - n_src)))
    return dag, SeparationQuery(nodes[:n_src], nodes[n_src:n_src + n_cond])


def _windowed_dag(node_count: int, window: int, seed: int) -> Dag:
    """Up to 3 parents per node, drawn from the `window` nodes before it."""
    rng = random.Random(seed)
    edges = []
    for v in range(1, node_count):
        lo = max(0, v - window)
        k = min(v - lo, rng.choice((1, 2, 2, 3)))
        edges.extend((p, v) for p in rng.sample(range(lo, v), k))
    return Dag(node_count, edges)


def _random_pairs_dag(node_count: int, edge_count: int, seed: int) -> Dag:
    """A random parent below each node, then random pairs up to
    `edge_count` edges, each pointing to the larger id."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, node_count)}
    while len(edges) < edge_count:
        a, b = rng.randrange(node_count), rng.randrange(node_count)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Dag(node_count, sorted(edges))


class TestArrayLevels:
    """Whole-graph sweeps expand wide queues with numpy (`_expand_wide`)."""

    @staticmethod
    def _assert_paths_agree(dag: Dag, query: SeparationQuery) -> None:
        marks, links = _per_state_sweep(dag, query)
        # All in the loop, nearly every level on arrays, only wide ones,
        # and the default settings.
        for level_min in (10**9, 1, 8, None):
            swept = _sweep_with_level_min(dag, query, level_min)
            assert swept.marks == marks
            assert swept.links_examined == links
            assert swept.links_resolved == 0

    @settings(max_examples=200, deadline=None)
    @given(case=dags_with_query())
    def test_every_level_on_arrays_matches_none(self, case):
        dag, sources, conditioning = case
        self._assert_paths_agree(dag, SeparationQuery(sources, conditioning))

    @settings(max_examples=60, deadline=None)
    @given(case=queries_on_larger_dags())
    def test_every_level_on_arrays_matches_none_on_larger_dags(self, case):
        self._assert_paths_agree(*case)

    @pytest.mark.parametrize("make,queries", [
        (lambda: star_dag(5000), [({1}, ()), ({1, 2}, (3,))]),
        (lambda: star_dag(5000, hub_to_leaves=False), [({1}, (0,))]),
        (lambda: _random_pairs_dag(20_000, 60_000, 1),
         [({0}, ()), ({10_000}, (7, 900))]),
    ])
    def test_wide_graphs_match_the_faithful_engine(self, make, queries):
        dag = make()
        for sources, conditioning in queries:
            query = SeparationQuery(sources, conditioning)
            separated = dsep_set_fast(dag, query)
            assert separated == dsep_set(dag, query)
            assert relevant_variables(dag, query) == (
                frozenset(range(dag.node_count)) - separated
                - query.sources - query.conditioning)
        assert dag._arrays is not None     # the arrays took a wide level

    def test_confined_sweeps_never_build_the_arrays(self):
        dag = _random_pairs_dag(20_000, 60_000, 1)
        statement = IndependenceStatement({0}, {7, 900}, {dag.node_count - 1})
        query = SeparationQuery(statement.sources, statement.conditioning)
        is_dseparated(dag, statement)
        fast_sweep(dag, query, stop_at=())
        assert dag._arrays is None
        dsep_set_fast(dag, query)
        assert dag._arrays is not None

    def test_confined_sweeps_never_go_wide(self, monkeypatch):
        def wide(*args):
            raise AssertionError("a confined sweep reached _expand_wide")

        monkeypatch.setattr("dsep.engine._LEVEL_MIN", 1)
        monkeypatch.setattr("dsep.engine._expand_wide", wide)
        dag = _random_pairs_dag(5_000, 15_000, 2)
        query = SeparationQuery(range(0, 5_000, 97), {7, 900})
        for stop in ((), {4_999}, {4_000, 4_500}):
            swept = fast_sweep(dag, query, stop_at=stop)
            assert swept.links_examined > len(query.sources)
        assert is_dseparated(dag, IndependenceStatement(
            query.sources, query.conditioning, {4_999})) is False
        assert dag._arrays is None

    @pytest.mark.parametrize("make", [
        lambda: chain_dag(10_000),
        lambda: _windowed_dag(3_000, 12, 5),
    ])
    def test_narrow_graphs_never_build_the_arrays(self, make):
        dag = make()
        rng = random.Random(17)
        for k in range(12):
            picked = rng.sample(range(dag.node_count), 1 + 2 * k)
            query = SeparationQuery(picked[:1], picked[1:])
            dsep_set_fast(dag, query)
            relevant_variables(dag, query)
        assert dag._arrays is None


def _shuffled(dag: Dag, seed: int) -> Dag:
    """`dag` with its node ids permuted, so ids are no topological order."""
    perm = list(range(dag.node_count))
    random.Random(seed).shuffle(perm)
    return Dag(dag.node_count, [(perm[t], perm[h]) for t, h in dag.edges])


class TestWideSweepsAtDefaultSettings:
    """At the default thresholds, whole-graph sweeps of large dags go wide
    and read their answer sets off the marks with numpy; answers, marks
    and counts stay those of the per-state loop alone, and of the
    referee loop."""

    @staticmethod
    def _queries(n: int, seed: int, count: int):
        """`count` queries of 1-3 sources, |Z| spread over 0..20."""
        rng = random.Random(seed)
        for k in range(count):
            picked = rng.sample(range(n), 23)
            cut = rng.randint(1, 3)
            size = round(20 * k / (count - 1))
            yield SeparationQuery(picked[:cut], picked[cut:cut + size])

    @pytest.mark.parametrize("edge_count,seed,count", [
        (10_000, 31, 32),
        (100_000, 32, 10),     # about 0.5 s a query
    ])
    def test_answers_marks_and_counts_match_the_loop(self, edge_count, seed,
                                                     count):
        """`loop_only` never builds arrays, so it also reads its answer
        sets off the marks with `compress`."""
        edges = _shuffled(random_sparse_dag(edge_count, seed), seed).edges
        n = edge_count // 2
        dag, loop_only = Dag(n, edges), Dag(n, edges)
        for query in self._queries(n, seed, count):
            wide = fast_sweep(dag, query)
            loop = _sweep_with_level_min(loop_only, query, 10**9)
            assert wide.marks == loop.marks
            assert wide.links_examined == loop.links_examined
            assert (loop.marks, loop.links_examined) == _per_state_sweep(
                loop_only, query)
            separated = frozenset(
                compress(range(n), loop.marks.translate(_SEPARATED)))
            relevant = frozenset(compress(range(n), loop.marks.translate(
                _REACHED_UNCONDITIONED))) - query.sources
            assert dsep_set_fast(dag, query) == separated
            assert relevant_variables(dag, query) == relevant
            assert requisite_parameters(dag, query) == requisite_parameters(
                loop_only, query)
            if edge_count <= 10_000:
                assert separated == dsep_set(loop_only, query)
        assert dag._arrays is not None      # the default sweeps went wide
        assert loop_only._arrays is None


@pytest.mark.parametrize("n", [1, 2047, 2049])
def test_flagged_nodes_equals_compress(n):
    rng = random.Random(n)
    cases = [bytes(n), b"\x01" * n, bytes(n - 1) + b"\x05",
             bytes(rng.random() < 0.01 for _ in range(n)),
             bytes(rng.random() < 0.9 for _ in range(n)),
             bytes(rng.randrange(256) for _ in range(n))]
    bare, wide = Dag(n, []), Dag(n, [])
    adjacency_arrays(wide)
    everything = None
    for flags in cases:
        expected = frozenset(compress(range(n), flags))
        for dag in (bare, wide):
            for given in (flags, bytearray(flags)):
                members = flagged_nodes(dag, given)
                assert members == expected
                assert all(type(v) is int for v in members)
        # Only a read of more than half the flags builds the full set,
        # and only once.
        if 2 * len(expected) > n:
            everything = everything or wide._all_nodes
            assert everything == frozenset(range(n))
        assert wide._all_nodes is everything
    assert everything is not None
    assert bare._arrays is None and bare._all_nodes is None
    empty = Dag(0, [])
    adjacency_arrays(empty)
    assert flagged_nodes(empty, b"") == frozenset()


def _eager_sweep(dag: Dag, query: SeparationQuery, stop_at) -> FastSweep:
    """`fast_sweep` marking all of An(stop_at | conditioning) first."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dag, "_ranks", None)
        return fast_sweep(dag, query, stop_at=stop_at)


@st.composite
def confined_sweeps(draw: st.DrawFn,
                    shapes=("small", "windowed", "pairs", "chain")):
    """A dag, a valid query and a stop set: empty, one or three targets,
    or holding a source.  Dags are small, or have 128-3,000 nodes:
    windowed (parents from the 12 nodes before), random pairs (two edges
    a node), both with shuffled ids, or chains."""
    shape = draw(st.sampled_from(shapes))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    if shape == "small":
        dag, sources, conditioning = draw(dags_with_query())
    else:
        n = draw(st.integers(min_value=128, max_value=3_000))
        dag = (chain_dag(n - 1) if shape == "chain" else _shuffled(
            _windowed_dag(n, 12, seed) if shape == "windowed"
            else _random_pairs_dag(n, 2 * n, seed), seed))
        picked = rng.sample(range(n), 24)
        sources = frozenset(picked[:draw(st.integers(1, 3))])
        conditioning = frozenset(picked[3:3 + draw(st.integers(0, 20))])
    rest = sorted(set(range(dag.node_count)) - sources - conditioning)
    kind = draw(st.sampled_from(["empty", "one", "three", "source"]))
    size = {"empty": 0, "one": 1}.get(kind, 3)
    stop = set(rng.sample(rest, min(size, len(rest))))
    if kind == "source":
        stop.add(min(sources))
    return dag, SeparationQuery(sources, conditioning), stop


class TestLastSweep:
    """A Dag keeps its last whole-graph sweep (`Dag._last_sweep`); what it
    answers never depends on that."""

    READ_OFFS = (requisite_parameters, relevant_variables, dsep_set_fast)

    @staticmethod
    def _make(n: int = 3_000) -> Dag:
        """From `_WIDE_NODES` nodes on, whole-graph sweeps of these graphs
        go wide."""
        return _shuffled(_random_pairs_dag(n, 2 * n, 5), 5)

    @staticmethod
    def _queries(dag: Dag) -> tuple[SeparationQuery, SeparationQuery]:
        picked = random.Random(9).sample(range(dag.node_count), 12)
        return (SeparationQuery(picked[:2], picked[2:8]),
                SeparationQuery(picked[8:9], picked[9:]))

    @pytest.mark.parametrize("n", [300, 3_000])
    def test_answers_match_a_fresh_dag_in_every_order(self, n):
        dag = self._make(n)
        a, b = self._queries(dag)
        fresh = {(q, f): f(self._make(n), q)
                 for q in (a, b) for f in self.READ_OFFS}
        swept = {q: fast_sweep(self._make(n), q) for q in (a, b)}
        for order in permutations(self.READ_OFFS):
            for q in (a, b, a):
                for read_off in order:
                    assert read_off(dag, q) == fresh[q, read_off]
                again = fast_sweep(dag, q)
                assert again.marks == swept[q].marks
                assert again.links_examined == swept[q].links_examined

    @pytest.mark.parametrize("n", [300, 3_000])
    def test_two_dags_share_nothing(self, n):
        one, two = self._make(n), self._make(n)
        query = self._queries(one)[0]
        assert relevant_variables(one, query) == relevant_variables(
            two, query)
        kept = one._last_sweep, two._last_sweep
        assert kept[0][2].marks == kept[1][2].marks
        assert kept[0][2] is not kept[1][2]
        assert kept[0][2].marks is not kept[1][2].marks
        swept = fast_sweep(one, query)
        assert swept.marks is not kept[0][2].marks
        assert one._last_sweep is kept[0] and two._last_sweep is kept[1]

    @staticmethod
    def _read(read_off, dag: Dag, query: SeparationQuery):
        got = read_off(dag, query)
        return ((bytes(got.marks), got.links_examined, got.links_resolved)
                if read_off is fast_sweep else got)

    @pytest.mark.parametrize("first", (fast_sweep, *READ_OFFS),
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("make,arrays,wide", [
        (lambda: TestLastSweep._make(300), False, False),
        (lambda: _windowed_dag(3_000, 12, 5), False, False),    # narrow
        (lambda: TestLastSweep._make(3_000), False, True),      # goes wide
        (lambda: TestLastSweep._make(3_000), True, True),
    ], ids=["small", "narrow", "wide", "wide-with-arrays"])
    def test_a_requisite_query_sweeps_once(self, monkeypatch, make, arrays,
                                           wide, first):
        """Whichever whole-graph read comes first keeps the sweep, building
        the Dag's arrays where it goes wide, and the other reads of the
        same query answer from it without sweeping again."""
        dag = make()
        query, other = self._queries(dag)
        reads = (fast_sweep, *self.READ_OFFS)
        fresh = {f: self._read(f, make(), query) for f in reads}
        if arrays:
            dsep_set_fast(dag, other)
            assert dag._arrays is not None
        assert self._read(first, dag, query) == fresh[first]
        assert (dag._arrays is not None) == wide
        assert dag._last_sweep[:2] == (query.sources, query.conditioning)

        def sweep(*args):
            raise AssertionError("the kept sweep was swept again")

        monkeypatch.setattr("dsep.engine._sweep", sweep)
        for read_off in reads:
            if read_off is not first:
                assert self._read(read_off, dag, query) == fresh[read_off]

    @pytest.mark.parametrize("n", [300, 3_000])
    def test_mutating_a_result_changes_no_later_answer(self, n):
        dag = self._make(n)
        query = self._queries(dag)[1]
        relevant = relevant_variables(self._make(n), query)
        requisite_parameters(dag, query)    # keeps the whole-graph sweep
        swept = fast_sweep(dag, query)
        links = swept.links_examined
        swept.marks[:] = b"\xff" * dag.node_count
        swept.links_examined = 0
        assert relevant_variables(dag, query) == relevant
        assert fast_sweep(dag, query).links_examined == links

    def test_threads_sharing_a_dag_get_their_own_answers(self):
        dag = self._make(300)
        queries = self._queries(dag)
        expected = {(q, f): f(self._make(300), q)
                    for q in queries for f in self.READ_OFFS}
        wrong, finished = [], []

        def work(q):
            for _ in range(60):
                for read_off in self.READ_OFFS:
                    if read_off(dag, q) != expected[q, read_off]:
                        wrong.append((q, read_off))
            finished.append(q)

        threads = [threading.Thread(target=work, args=(queries[k % 2],))
                   for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(finished) == 4 and wrong == []

    @settings(max_examples=60, deadline=None)
    @given(case=confined_sweeps())
    def test_requisite_tables_are_the_confined_sweeps_parent_lists(self,
                                                                   case):
        """Dags are small, or have 128-3,000 nodes: both sides of the
        128-node rank gate and of `_WIDE_NODES`."""
        dag, query, _ = case
        walked = fast_sweep(dag, query, stop_at=()).parents_expanded
        assert requisite_parameters(dag, query) == frozenset(
            compress(range(dag.node_count), walked))


class TestLazyAncestralMarks:
    """A confined sweep marks An(stop_at | conditioning) only on the
    topological ranks it needs (lazy marking, in `engine._sweep`)."""

    @settings(max_examples=200, deadline=None)
    @given(case=confined_sweeps())
    def test_lazy_marks_match_eager_marks(self, case):
        dag, query, stop = case
        lazy = fast_sweep(dag, query, stop_at=stop)
        eager = _eager_sweep(dag, query, stop)
        assert lazy.reached == eager.reached
        assert lazy.links_examined == eager.links_examined
        assert lazy.parents_expanded == eager.parents_expanded
        assert bytes(m & ~3 for m in lazy.marks) == bytes(
            m & ~3 for m in eager.marks)
        assert not any(a & 3 & ~b for a, b in zip(lazy.marks, eager.marks))
        assert {v for v, m in enumerate(lazy.marks) if m & 128} == stop

    def test_readings_ignore_the_stop_bit(self):
        """Bit 128 marks the stop nodes; no answer read off the marks
        (reached, parents walked, separated, relevant) may see it."""
        for table in (_SEPARATED, _REACHED, _PARENTS_WALKED,
                      _REACHED_UNCONDITIONED):
            assert all(table[b] == table[b & 127] for b in range(256))

    @pytest.mark.parametrize("make", [
        lambda: _shuffled(_windowed_dag(3_000, 12, 3), 3),
        lambda: _shuffled(random_sparse_dag(60_000, 4), 4),
        lambda: chain_dag(127),
    ])
    def test_ranks_follow_the_edges_in_at_most_256_blocks(self, make):
        dag = make()
        rank = dag._ranks
        assert len(rank) == dag.node_count
        assert all(rank[t] <= rank[h] for t, h in dag.edges)
        blocks = sorted(set(rank))
        assert blocks == list(range(len(blocks))) and len(blocks) <= 256
        size = max(16, -(-dag.node_count // 256))
        assert all(rank.count(b) == size for b in blocks[:-1])  # the last is short

    @pytest.mark.parametrize("n", [0, 1, 2, 127])
    def test_no_ranks_below_128_nodes(self, n):
        assert Dag(n, [(v - 1, v) for v in range(1, n)])._ranks is None

    def test_markov_statement_resolves_a_small_band(self):
        dag = _windowed_dag(3_000, 12, 8)
        y = 2_500
        x = next(v for v in range(y - 3, 0, -1) if v not in dag.parents[y])
        pa = frozenset(dag.parents[y])
        statement = IndependenceStatement({y}, pa, {x})
        assert is_dseparated(dag, statement)
        query = SeparationQuery(statement.sources, statement.conditioning)
        lazy = fast_sweep(dag, query, stop_at={x}).marks
        eager = _eager_sweep(dag, query, {x}).marks
        band = ancestral_set(dag, pa | {x})
        assert sum(eager[v] & 2 != 0 for v in band) == len(band)
        assert sum(lazy[v] & 2 != 0 for v in band) < 0.1 * len(band)


def _reaches(swept: FastSweep, stop) -> bool:
    return any(swept.marks[v] & (8 | 16) for v in stop)


@st.composite
def set_statements(draw: st.DrawFn, min_nodes: int, max_nodes: int):
    """A dag of `min_nodes` to `max_nodes` nodes, windowed (parents from the
    12 nodes before) or random pairs (two edges a node), ids shuffled, and
    a statement with set-valued X, Y and Z: random sets, or a Markov
    statement X _||_ y | pa(y), the shape whose two sides cost the most
    unequally."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    dag = _shuffled(
        _windowed_dag(n, 12, seed) if draw(st.booleans())
        else _random_pairs_dag(n, min(2 * n, n * (n - 1) // 2), seed), seed)
    n_x = draw(st.integers(1, min(3, n - 1)))
    if draw(st.booleans()):     # Markov
        y = rng.randrange(n)
        z = frozenset(dag.parents[y])
        rest = sorted(set(range(n)) - z - {y})
        if not rest:
            return dag, IndependenceStatement(z, (), {y})
        return dag, IndependenceStatement(
            rng.sample(rest, min(n_x, len(rest))), z, {y})
    picked = rng.sample(range(n), n)
    n_y = draw(st.integers(1, min(3, n - n_x)))
    n_z = draw(st.integers(0, min(20, n - n_x - n_y)))
    return dag, IndependenceStatement(
        picked[:n_x], picked[n_x + n_y:n_x + n_y + n_z],
        picked[n_x:n_x + n_y])


def _charge(swept: FastSweep | Generator) -> int:
    """Links examined plus links resolved, what a budget caps.  A `_sweep`
    generator, paused or at its `FastSweep`, holds them in its frame."""
    if type(swept) is FastSweep:
        return swept.links_examined + swept.links_resolved
    local = swept.gi_frame.f_locals
    return local["ops"] + local["resolved"]


def _started(dag: Dag, query: SeparationQuery, stop,
             budget: int) -> tuple[Generator, FastSweep | None]:
    """A confined `_sweep` under `budget`, and what it yielded first."""
    side = _sweep(dag, query.sources, query.conditioning, stop, budget)
    return side, next(side)


class _Run(NamedTuple):
    stop: frozenset     # the side's stop set: Y for the X side
    budget: int
    charge: int         # after the run
    paused: bool
    resolves: int       # 1 if lazy marking lowered the bound in the run


def _record_runs(monkeypatch) -> list[_Run]:
    """Record each run of a side that a check makes: its first `next`, or
    a `send` of the next budget, up to what it yields.  Every resolution
    lowers the sweep's `bound`, so a run resolved when its frame's bound
    fell below the bound before it (`top` before the first run)."""
    runs = []
    sweep = dsep.engine._sweep

    def recorded(dag, sources, conditioning, stop_at, budget):
        side = sweep(dag, sources, conditioning, stop_at, budget)
        swept = next(side)
        before = side.gi_frame.f_locals["top"]
        while True:
            bound = side.gi_frame.f_locals["bound"]
            runs.append(_Run(frozenset(stop_at), budget, _charge(side),
                             swept is None, int(bound < before)))
            if swept is not None:
                break
            before = bound
            budget = yield
            swept = side.send(budget)
        yield swept
        next(side, None)

    monkeypatch.setattr("dsep.engine._sweep", recorded)
    return runs


class TestTwoSidedChecks:
    """`is_dseparated` sweeps from X and from Y under a growing budget;
    d-separation's symmetry (Pearl & Paz, 1987) is the referee."""

    @staticmethod
    def _assert_symmetric(dag: Dag, statement: IndependenceStatement) -> None:
        x, z, y = statement.sources, statement.conditioning, statement.targets
        from_x = fast_sweep(dag, SeparationQuery(x, z), stop_at=y)
        from_y = fast_sweep(dag, SeparationQuery(y, z), stop_at=x)
        verdict = is_dseparated(dag, statement)
        assert _reaches(from_x, y) == _reaches(from_y, x) == (not verdict)
        assert moral_check(dag, statement) == verdict

    @settings(max_examples=150, deadline=None)
    @given(case=set_statements(3, 127))
    def test_both_sides_agree_on_eagerly_marked_dags(self, case):
        assert case[0]._ranks is None
        self._assert_symmetric(*case)

    @settings(max_examples=60, deadline=None)
    @given(case=set_statements(128, 5_000))
    def test_both_sides_agree_on_lazily_marked_dags(self, case):
        assert case[0]._ranks is not None
        self._assert_symmetric(*case)

    @pytest.mark.parametrize("fan,runs", [
        (64, [({1}, 64, 64, False)]),
        (65, [({1}, 64, 65, True), ({0}, 64, 0, False)]),
    ])
    def test_a_side_finishing_at_its_budget_is_read(self, monkeypatch, fan,
                                                    runs):
        # 0 -> 2..fan+1, and 1 on its own: from 0 the sweep counts the
        # fan's links and follows none; from 1 it has no link to count.
        dag = Dag(fan + 2, [(0, 2 + i) for i in range(fan)])
        recorded = _record_runs(monkeypatch)
        assert is_dseparated(dag, IndependenceStatement({0}, (), {1}))
        assert [run[:4] for run in recorded] == runs

    @staticmethod
    def _markov_statement(dag: Dag, y: int) -> IndependenceStatement:
        x = next(v for v in range(y - 3, 0, -1) if v not in dag.parents[y])
        return IndependenceStatement({x}, dag.parents[y], {y})

    def test_markov_statement_resumes_each_side(self, monkeypatch):
        dag = _windowed_dag(3_000, 12, 8)
        statement = self._markov_statement(dag, 2_500)
        x, z, y = statement.sources, statement.conditioning, statement.targets
        from_x = fast_sweep(dag, statement, stop_at=y)
        from_y = fast_sweep(dag, SeparationQuery(y, z), stop_at=x)
        recorded = _record_runs(monkeypatch)
        assert is_dseparated(dag, statement)
        runs = list(recorded)
        assert len(runs) > 1 and len(runs) % 2 == 0     # answered from y
        assert [run.stop for run in runs] == [y, x] * (len(runs) // 2)
        assert [run.budget for run in runs] == [
            64 * 4 ** (k // 2) for k in range(len(runs))]
        assert all(run.paused and run.charge > run.budget
                   for run in runs[:-1])
        assert not runs[-1].paused and runs[-1].charge <= runs[-1].budget
        # Each run resumes its side: the Y side ends with the charge of one
        # unbudgeted sweep, and the X side's with that of one fresh sweep
        # under its last budget.
        assert runs[-1].charge == _charge(from_y)
        last_x, paused = _started(dag, statement, y, runs[-2].budget)
        assert paused is None and runs[-2].charge == _charge(last_x)
        examined = runs[-2].charge + runs[-1].charge
        assert examined < 0.1 * from_x.links_examined

    def test_a_check_charges_at_most_five_times_its_cheaper_side(self):
        dag = _windowed_dag(3_000, 12, 8)
        longest = max(map(len, dag.children + dag.parents))
        for y in (300, 1_500, 2_500, 2_999):
            statement = self._markov_statement(dag, y)
            x, z = statement.sources, statement.conditioning
            sides = [_charge(fast_sweep(dag, statement, stop_at={y})),
                     _charge(fast_sweep(dag, SeparationQuery({y}, z),
                                        stop_at=x))]
            with pytest.MonkeyPatch.context() as patch:
                runs = _record_runs(patch)
                assert is_dseparated(dag, statement)
            charge = runs[-1].charge + (runs[-2].charge if len(runs) > 1
                                        else 0)
            cheaper = min(sides)
            assert charge <= max(5 * cheaper, cheaper + 64) + longest

    def test_a_sink_target_with_conditioned_parents_resolves_nothing(
            self, monkeypatch):
        dag = _windowed_dag(3_000, 12, 8)
        y = 2_999
        assert not dag.children[y] and dag._ranks is not None
        statement = self._markov_statement(dag, y)
        runs = _record_runs(monkeypatch)
        assert is_dseparated(dag, statement)
        y_runs = [run for run in runs if run.stop == statement.sources]
        assert y_runs and not y_runs[-1].paused
        assert sum(run.resolves for run in y_runs) == 0
        assert sum(run.resolves for run in runs) > 0    # the X side's

    def test_the_faithful_method_sweeps_from_x_alone(self, monkeypatch):
        starts = []
        reachable = dsep.engine.find_reachable

        def recorded(graph, legal, sources, stop_at=None):
            starts.append(frozenset(sources))
            return reachable(graph, legal, sources, stop_at=stop_at)

        monkeypatch.setattr("dsep.engine.find_reachable", recorded)
        dag = _windowed_dag(400, 12, 2)
        statement = IndependenceStatement({3}, dag.parents[390], {390})
        assert is_dseparated(dag, statement, method="faithful")
        assert starts == [{3}]


@st.composite
def split_statements(draw: st.DrawFn, min_nodes: int, max_nodes: int):
    """A `set_statements` dag and statement X _||_ Y | Z, with a node from
    outside the statement added to a singleton Y, and Y split into two
    non-empty parts: (dag, X, Y1, Y2, Z)."""
    dag, statement = draw(set_statements(min_nodes, max_nodes))
    x, y, z = statement.sources, statement.targets, statement.conditioning
    if len(y) == 1:
        rest = sorted(set(range(dag.node_count)) - x - y - z)
        assume(rest)
        y = y | {draw(st.sampled_from(rest))}
    ys = draw(st.permutations(sorted(y)))
    k = draw(st.integers(1, len(ys) - 1))
    return dag, x, frozenset(ys[:k]), frozenset(ys[k:]), z


class TestGraphoidAxioms:
    """d-separation is a graphoid (Pearl & Paz, 1987): the fast check obeys
    decomposition, weak union, contraction and intersection, and also
    composition; the moral baseline agrees with every statement used."""

    @staticmethod
    def _assert_axioms(dag: Dag, x, y1, y2, z) -> None:
        def sep(y, given):
            statement = IndependenceStatement(x, given, y)
            verdict = is_dseparated(dag, statement)
            assert moral_check(dag, statement) == verdict
            return verdict

        y = y1 | y2
        whole, first, second = sep(y, z), sep(y1, z), sep(y2, z)
        first_given_second = sep(y1, z | y2)
        second_given_first = sep(y2, z | y1)
        if whole:       # decomposition and weak union, both ways round
            assert first and second
            assert first_given_second and second_given_first
        # contraction, both ways round, composition and intersection
        assert whole == (first and second_given_first)
        assert whole == (second and first_given_second)
        assert whole == (first and second)
        assert whole == (first_given_second and second_given_first)

    @settings(max_examples=100, deadline=None)
    @given(case=split_statements(3, 127))
    def test_axioms_on_eagerly_marked_dags(self, case):
        self._assert_axioms(*case)

    @settings(max_examples=30, deadline=None)
    @given(case=split_statements(128, 2_000))
    def test_axioms_on_lazily_marked_dags(self, case):
        self._assert_axioms(*case)


class TestFactsPastTheTrailOracleCap:
    """Two facts of d-separation, checked without an oracle on seeded
    `random_dag`s of 13-400 nodes, past the trail oracle's 12-node cap: the
    local Markov property v _||_ nd(v) - pa(v) | pa(v), and that adjacent
    nodes are never separated, under any Z.  Both engines and the moral
    baseline must give the fact's verdict."""

    @staticmethod
    def _verdicts(dag: Dag, statement: IndependenceStatement) -> set[bool]:
        return {is_dseparated(dag, statement),
                is_dseparated(dag, statement, method="faithful"),
                moral_check(dag, statement),
                moral_check(dag, statement, marriage="full")}

    @pytest.mark.parametrize("seed", range(40))
    def test_local_markov_and_adjacency(self, seed):
        rng = random.Random(seed)
        n = rng.randint(13, 400)
        dag = random_dag(rng, n, edge_prob=rng.uniform(1, 4) / n)
        reverse = Dag(n, [(h, t) for t, h in dag.edges])   # An() is De()
        for v in rng.sample(range(n), 12):
            pa = frozenset(dag.parents[v])
            others = set(range(n)) - ancestral_set(reverse, {v}) - pa
            if others:
                statement = IndependenceStatement({v}, pa, others)
                assert self._verdicts(dag, statement) == {True}, v
        for t, h in rng.sample(dag.edges, min(12, len(dag.edges))):
            rest = sorted(set(range(n)) - {t, h})
            for z in ((), rng.sample(rest, rng.randint(1, 8)), rest):
                statement = IndependenceStatement({t}, z, {h})
                assert self._verdicts(dag, statement) == {False}, (t, h, z)


class TestSweepBudget:
    """`engine._sweep(..., budget=b)`, the sweep `is_dseparated` runs on
    each side of a check, yields first the sweep `fast_sweep` makes when
    that charges at most b, links examined plus links resolved, stopping
    sweeps included, and otherwise None, paused with a charge above b."""

    @staticmethod
    def _assert_contract(full: FastSweep, side: Generator,
                         swept: FastSweep | None, budget: int) -> None:
        assert (swept is not None) == (_charge(side) <= budget)
        if swept is not None:
            assert type(swept) is FastSweep
            assert swept.links_examined == full.links_examined
            assert swept.links_resolved == full.links_resolved
            assert swept.marks == full.marks
        else:
            assert budget < _charge(full)

    @settings(max_examples=150, deadline=None)
    @given(case=confined_sweeps(), data=st.data())
    def test_confined_sweeps_keep_the_contract(self, case, data):
        dag, query, stop = case
        full = fast_sweep(dag, query, stop_at=stop)
        assert type(full) is FastSweep      # it has no budget, so never pauses
        charge = _charge(full)
        drawn = data.draw(st.integers(0, charge + 3))
        longest = max(map(len, dag.children + dag.parents), default=0)
        for budget in {0, drawn, charge, 3 * len(dag.edges)}:
            side, swept = _started(dag, query, stop, budget)
            self._assert_contract(full, side, swept, budget)
            # it stopped at the one list that passed the budget
            assert _charge(side) <= budget + longest
        side, at = _started(dag, query, stop, charge)
        assert _charge(side) == charge and at.marks == full.marks
        if charge:
            short, _ = _started(dag, query, stop, charge - 1)
            assert _charge(short) > charge - 1

    @pytest.mark.parametrize("n", [4, 200])     # eager and lazy marking
    @pytest.mark.parametrize("budget", [0, 1, None])    # None: `fast_sweep`
    def test_a_source_in_stop_at_ends_before_its_first_link(self, n, budget):
        dag, query, stop = chain_dag(n), SeparationQuery({2}), {2, 4}
        swept = (fast_sweep(dag, query, stop_at=stop) if budget is None
                 else _started(dag, query, stop, budget)[1])
        assert swept.links_examined == swept.links_resolved == 0
        assert swept.reached == {2}


class TestResumedSweeps:
    """A sweep paused at every budget up to its charge, and sent the next
    budget each time, ends as the sweep that never paused
    (`engine._sweep`)."""

    @staticmethod
    def _assert_ends_unpaused(full: FastSweep, swept: FastSweep | None,
                              stop) -> None:
        assert type(swept) is FastSweep
        assert swept.marks == full.marks
        assert swept.links_examined == full.links_examined
        assert swept.links_resolved == full.links_resolved
        assert _reaches(swept, stop) == _reaches(full, stop)

    def _assert_resumes(self, dag: Dag, query: SeparationQuery, stop) -> None:
        full = fast_sweep(dag, query, stop_at=stop)
        charge = _charge(full)
        longest = max(map(len, dag.children + dag.parents), default=0)
        side, swept = _started(dag, query, stop, 0)
        for budget in range(charge):
            assert swept is None
            assert budget < _charge(side) <= budget + longest
            swept = side.send(budget + 1)
        self._assert_ends_unpaused(full, swept, stop)

    @settings(max_examples=100, deadline=None)
    @given(case=confined_sweeps(shapes=("small",)))
    def test_on_eagerly_marked_dags(self, case):
        assert case[0]._ranks is None
        self._assert_resumes(*case)

    @settings(max_examples=40, deadline=None)
    @given(case=confined_sweeps(shapes=("windowed", "pairs", "chain")))
    def test_on_lazily_marked_dags(self, case):
        assert case[0]._ranks is not None
        self._assert_resumes(*case)

    def test_a_pause_in_the_middle_of_a_band_resumes_there(self):
        """Lazy marking pauses after the parent list that passes the
        budget, with more of its band to walk, and goes on from there.  A
        finished band loop leaves `u` at its band's last member."""
        dag = _windowed_dag(3_000, 12, 8)
        y = 2_500
        x = next(v for v in range(y - 3, 0, -1) if v not in dag.parents[y])
        query, stop = SeparationQuery({x}, dag.parents[y]), {y}
        full = fast_sweep(dag, query, stop_at=stop)
        for budget in range(_charge(full)):
            side, swept = _started(dag, query, stop, budget)
            band, u = map(side.gi_frame.f_locals.get, ("band", "u"))
            if u in (band or ()) and band.index(u) < len(band) - 1:
                break
        else:
            raise AssertionError("no pause in the middle of a band")
        assert swept is None and budget < _charge(side)
        self._assert_ends_unpaused(full, side.send(3 * len(dag.edges)), stop)


def test_checks_and_narrow_sweeps_leave_numpy_unloaded():
    """numpy is imported on a whole-graph sweep's first wide frontier, not
    by `import dsep`, a check, a sweep that never goes wide, or a sweep of
    1,500 waiting states on a graph below `_WIDE_NODES` nodes."""
    code = "\n".join([
        "import sys, dsep",
        "dag = dsep.random_sparse_dag(6_000, seed=3)",
        "assert dag.node_count == 3_000 and dag._ranks is not None",
        "dsep.is_dseparated(dag, dsep.IndependenceStatement({0}, {5}, {2999}))",
        "dsep.dsep_set_fast(dag, dsep.SeparationQuery({0}, {5, 7}))",
        "dsep.dsep_set_fast(dsep.star_dag(1_500), dsep.SeparationQuery({1}))",
        "print('numpy' in sys.modules)",
        "dsep.dsep_set_fast(dsep.star_dag(5_000), dsep.SeparationQuery({1}))",
        "print('numpy' in sys.modules)",
    ])
    src = str(Path(dsep.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False", "True"]
