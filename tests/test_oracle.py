"""Brute-force trail oracle and the exact-distribution oracle."""

from __future__ import annotations

from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsep.oracle

from dsep import (
    Dag,
    DiscreteNetwork,
    ForeignNode,
    OracleScaleExceeded,
    SeparationQuery,
    build_dag,
    check_theorem2,
    ci_holds,
    doubled_graph,
    dsep_bruteforce,
    dsep_set,
    dsep_set_fast,
    enumerate_simple_trails,
    joint,
    max_ci_violation,
    random_network,
    singleton_queries,
)
from dsep.oracle import _separated_sets, sample_triples

from .conftest import dags_with_query, small_dags


class TestTrailEnumeration:
    def test_web7_two_trails_between_n4_and_n3(self, web7):
        trails = enumerate_simple_trails(
            web7, web7.node_id("n4"), web7.node_id("n3"))
        routes = {tuple(web7.node_name(v) for v in t.nodes) for t in trails}
        assert routes == {("n4", "n5", "n3"), ("n4", "n2", "n3")}

    def test_diamond4_single_trail_between_3_and_2(self, diamond4):
        trails = enumerate_simple_trails(
            diamond4, diamond4.node_id("3"), diamond4.node_id("2"))
        assert [tuple(diamond4.node_name(v) for v in t.nodes)
                for t in trails] == [("3", "1", "4", "2")]

    def test_enumeration_is_deterministic(self, web7):
        a = enumerate_simple_trails(web7, 0, web7.node_id("n7"))
        b = enumerate_simple_trails(web7, 0, web7.node_id("n7"))
        assert a == b

    def test_no_node_repeats_on_any_trail(self, web7):
        for target in range(1, web7.node_count):
            for trail in enumerate_simple_trails(web7, 0, target):
                assert len(set(trail.nodes)) == len(trail.nodes)

    def test_guard_rails(self, web7):
        with pytest.raises(ValueError):
            enumerate_simple_trails(web7, 2, 2)
        with pytest.raises(ForeignNode):
            enumerate_simple_trails(web7, 0, 99)
        with pytest.raises(ForeignNode):
            enumerate_simple_trails(web7, 0, 1.0)
        big = Dag(13, [(i, i + 1) for i in range(12)])
        with pytest.raises(OracleScaleExceeded):
            enumerate_simple_trails(big, 0, 12)


@pytest.mark.parametrize("work, call", [
    ("trail enumeration", lambda dag: enumerate_simple_trails(dag, 0, 12)),
    ("brute-force separation",
     lambda dag: dsep_bruteforce(dag, SeparationQuery({0}))),
    ("numeric checking", lambda dag: check_theorem2(dag, trials=1, seed=1)),
])
def test_trail_scale_guards_name_the_refused_work(work, call):
    with pytest.raises(OracleScaleExceeded) as info:
        call(Dag(13, [(i, i + 1) for i in range(12)]))
    assert str(info.value) == f"{work} is capped at 12 nodes, graph has 13"


class TestBruteforceAgreement:
    def test_web7_matches_engines(self, web7, ids):
        for sources, conditioning in [
            (("n4",), ("n2",)),
            (("n4",), ("n2", "n6")),
            (("n1",), ("n6",)),
            (("n1", "n2"), ("n5",)),
        ]:
            query = SeparationQuery(ids(web7, *sources),
                                    ids(web7, *conditioning))
            assert dsep_bruteforce(web7, query) == dsep_set(web7, query)
            assert dsep_bruteforce(web7, query) == dsep_set_fast(web7, query)

    @settings(max_examples=150, deadline=None)
    @given(case=dags_with_query())
    def test_random_dags_match_engines(self, case):
        dag, sources, conditioning = case
        query = SeparationQuery(sources, conditioning)
        expected = dsep_bruteforce(dag, query)
        assert dsep_set(dag, query) == expected
        assert dsep_set_fast(dag, query) == expected

    @settings(max_examples=100, deadline=None)
    @given(case=dags_with_query(max_nodes=6))
    def test_legal_walk_search_equals_simple_trail_search(self, case):
        """Allowing node repeats (walks) must not connect anything new.

        A link-state search written from scratch in this test — walks
        may revisit nodes, each doubled-graph link is expanded once, and
        consecutive links obey the collider rule — has to agree with the
        simple-trail enumeration on which nodes carry dependence.
        """
        dag, sources, cond = case
        flagged = set(cond)
        frontier = deque(cond)
        while frontier:  # reflexive ancestors of the conditioning set
            v = frontier.popleft()
            for p in dag.parents[v]:
                if p not in flagged:
                    flagged.add(p)
                    frontier.append(p)

        twin = doubled_graph(dag)

        def legal(first: int, second: int) -> bool:
            if dag.edges[first >> 1][first & 1] == twin.link_heads[second]:
                return False
            v = twin.link_heads[first]
            if not first & 1 and second & 1:    # both arrows point into v
                return v in flagged
            return v not in cond

        reached = set(sources)
        seen: set[int] = set()
        queue: deque[int] = deque()
        for s in sorted(sources):
            for lid in twin.out_links[s]:
                seen.add(lid)
                reached.add(twin.link_heads[lid])
                queue.append(lid)
        while queue:
            lid = queue.popleft()
            for nxt in twin.out_links[twin.link_heads[lid]]:
                if nxt not in seen and legal(lid, nxt):
                    seen.add(nxt)
                    reached.add(twin.link_heads[nxt])
                    queue.append(nxt)

        candidates = set(range(dag.node_count)) - sources - cond
        assert dsep_bruteforce(dag, SeparationQuery(sources, cond)) == (
            frozenset(candidates - reached))


@pytest.fixture
def drawn(monkeypatch) -> Counter:
    """Count the trails the oracle draws, per (start, goal)."""
    real = dsep.oracle._iter_simple_trails
    counts: Counter = Counter()

    def counting(dag, start, goal):
        for trail in real(dag, start, goal):
            counts[start, goal] += 1
            yield trail

    monkeypatch.setattr(dsep.oracle, "_iter_simple_trails", counting)
    return counts


class TestBatchedOracle:
    """`_separated_sets`: all of a source's conditioning sets in one call."""

    @settings(max_examples=150, deadline=None)
    @given(dag=small_dags(), data=st.data())
    def test_equals_the_oracle_query_by_query(self, dag, data):
        nodes = range(dag.node_count)
        sources = data.draw(st.frozensets(st.sampled_from(nodes),
                                          min_size=1, max_size=2))
        rest = [v for v in nodes if v not in sources]
        conditioning = (st.frozensets(st.sampled_from(rest)) if rest
                        else st.just(frozenset()))
        conditionings = data.draw(st.lists(conditioning, min_size=1,
                                           max_size=8))
        assert _separated_sets(dag, sources, conditionings) == [
            dsep_bruteforce(dag, SeparationQuery(sources, cond))
            for cond in conditionings]

    def test_empty_and_repeated_sets(self, web7, ids):
        sources = ids(web7, "n4")
        conditionings = [frozenset(), ids(web7, "n5"), frozenset(),
                         ids(web7, "n2", "n6"), ids(web7, "n5")]
        assert _separated_sets(web7, sources, conditionings) == [
            dsep_bruteforce(web7, SeparationQuery(sources, cond))
            for cond in conditionings]

    @pytest.mark.parametrize("graph,trails", [("web7", 1943),
                                              ("diamond4", 48)])
    def test_one_set_draws_the_trails_it_always_drew(self, request, drawn,
                                                     graph, trails):
        """Pinned: what the per-query oracle drew over every singleton
        query, stopping at each target's first active trail."""
        dag = request.getfixturevalue(graph)
        for query in singleton_queries(dag):
            dsep_bruteforce(dag, query)
        assert sum(drawn.values()) == trails

    @pytest.mark.parametrize("graph,trails,enumerated", [
        ("web7", 72, 76), ("diamond4", 12, 12)])
    def test_a_sources_sets_share_one_enumeration(self, request, drawn,
                                                  graph, trails, enumerated):
        dag = request.getfixturevalue(graph)
        queries = list(singleton_queries(dag))
        for j in range(dag.node_count):
            _separated_sets(dag, frozenset((j,)), [
                q.conditioning for q in queries if q.sources == {j}])
        batched = Counter(drawn)
        drawn.clear()
        for j in range(dag.node_count):
            for k in range(dag.node_count):
                if k != j:
                    enumerate_simple_trails(dag, j, k)
        assert all(batched[key] <= drawn[key] for key in batched)
        assert (sum(batched.values()), sum(drawn.values())) == (
            trails, enumerated)


def _collider_network() -> DiscreteNetwork:
    """a -> c <- b with c a noisy parity of its parents."""
    dag = build_dag(["a", "b", "c"], [("a", "c"), ("b", "c")])
    half = np.array([0.5, 0.5])
    parity = np.empty((2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            parity[x, y] = [0.1, 0.9] if x ^ y else [0.9, 0.1]
    return DiscreteNetwork(dag, (2, 2, 2), (half, half, parity))


class TestDiscreteNetwork:
    def test_shape_validation(self):
        dag = Dag(2, [(0, 1)])
        good = (np.array([0.4, 0.6]), np.array([[0.5, 0.5], [0.2, 0.8]]))
        DiscreteNetwork(dag, (2, 2), good)
        with pytest.raises(ValueError):
            DiscreteNetwork(dag, (2, 2), (good[0], np.array([0.5, 0.5])))

    def test_rows_must_sum_to_one(self):
        dag = Dag(1, [])
        with pytest.raises(ValueError):
            DiscreteNetwork(dag, (2,), (np.array([0.4, 0.7]),))

    def test_probabilities_must_stay_in_unit_interval(self):
        dag = Dag(1, [])
        with pytest.raises(ValueError):
            DiscreteNetwork(dag, (2,), (np.array([-0.1, 1.1]),))

    def test_arity_floor(self):
        dag = Dag(1, [])
        with pytest.raises(ValueError):
            DiscreteNetwork(dag, (1,), (np.array([1.0]),))

    def test_random_network_is_seeded_and_positive(self, web7):
        a = random_network(web7, 2, seed=99)
        b = random_network(web7, 2, seed=99)
        c = random_network(web7, 2, seed=100)
        for v in range(web7.node_count):
            assert np.array_equal(a.cpts[v], b.cpts[v])
            assert np.all(a.cpts[v] > 0.0)
        assert any(not np.array_equal(a.cpts[v], c.cpts[v])
                   for v in range(web7.node_count))

    def test_random_network_scale_guard(self):
        wide = Dag(25, [])
        with pytest.raises(OracleScaleExceeded):
            random_network(wide, 2, seed=1)


class TestJointTable:
    def test_two_node_joint_by_hand(self):
        dag = Dag(2, [(0, 1)])
        prior = np.array([0.3, 0.7])
        cond = np.array([[0.9, 0.1], [0.4, 0.6]])
        table = joint(DiscreteNetwork(dag, (2, 2), (prior, cond)))
        assert table.probability((0, 0)) == pytest.approx(0.27)
        assert table.probability((0, 1)) == pytest.approx(0.03)
        assert table.probability((1, 0)) == pytest.approx(0.28)
        assert table.probability((1, 1)) == pytest.approx(0.42)

    def test_joint_of_uniform_network_is_uniform(self, diamond4):
        uniform = []
        for v in range(diamond4.node_count):
            shape = (2,) * len(diamond4.parents[v]) + (2,)
            uniform.append(np.full(shape, 0.5))
        table = joint(DiscreteNetwork(diamond4, (2,) * 4, tuple(uniform)))
        assert np.allclose(table.probs, 1.0 / 16.0)

    def test_joint_respects_parent_axis_order(self):
        # node 2's parents are stored as (0, 1); make the table asymmetric
        # in them and check both orientations land where they should.
        dag = Dag(3, [(0, 2), (1, 2)])
        pa = np.array([1.0, 0.0])
        pb = np.array([0.0, 1.0])
        cpt = np.empty((2, 2, 2))
        cpt[0, 0] = [1.0, 0.0]
        cpt[0, 1] = [0.0, 1.0]   # the (a=0, b=1) row is the live one
        cpt[1, 0] = [0.5, 0.5]
        cpt[1, 1] = [0.5, 0.5]
        table = joint(DiscreteNetwork(dag, (2, 2, 2), (pa, pb, cpt)))
        assert table.probability((0, 1, 1)) == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(dag=small_dags(max_nodes=6))
    def test_joint_mass_is_one(self, dag):
        table = joint(random_network(dag, 2, seed=5))
        assert float(table.probs.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_mass_validation(self):
        with pytest.raises(ValueError):
            from dsep import JointTable
            JointTable(np.array([0.5, 0.4]), (2,))


class TestCiChecks:
    def test_product_distribution_has_zero_violation(self):
        dag = Dag(2, [])
        prior = np.array([0.3, 0.7])
        other = np.array([0.6, 0.4])
        table = joint(DiscreteNetwork(dag, (2, 2), (prior, other)))
        assert max_ci_violation(table, (0,), (1,)) == pytest.approx(0.0)
        assert ci_holds(table, (0,), (1,))

    def test_collider_opens_under_conditioning(self):
        table = joint(_collider_network())
        assert max_ci_violation(table, (0,), (1,)) == pytest.approx(0.0)
        opened = max_ci_violation(table, (0,), (1,), (2,))
        assert opened > 1e-6
        assert not ci_holds(table, (0,), (1,), (2,))

    def test_zero_probability_contexts_are_ignored(self):
        # c never takes value 1, so nothing may be concluded from it
        dag = Dag(3, [(2, 0), (2, 1)])
        pc = np.array([1.0, 0.0])
        pa = np.array([[0.5, 0.5], [1.0, 0.0]])
        pb = np.array([[0.5, 0.5], [0.0, 1.0]])
        table = joint(DiscreteNetwork(dag, (2, 2, 2), (pa, pb, pc)))
        assert ci_holds(table, (0,), (1,), (2,))

    def test_group_overlap_rejected(self):
        table = joint(_collider_network())
        with pytest.raises(ValueError):
            max_ci_violation(table, (0,), (0,))
        with pytest.raises(ForeignNode):
            max_ci_violation(table, (0,), (9,))

    def test_non_int_variable_ids_rejected(self):
        table = joint(_collider_network())
        for bad in (True, 1.0):
            with pytest.raises(ForeignNode):
                max_ci_violation(table, (0,), (bad,))
            with pytest.raises(ForeignNode):
                ci_holds(table, (0,), (2,), (bad,))

    def test_negative_tolerance_rejected(self):
        table = joint(_collider_network())
        with pytest.raises(ValueError):
            ci_holds(table, (0,), (1,), tol=-1.0)


class TestTheorem2Harness:
    def test_triples_are_deterministic_and_disjoint(self, web7):
        first = sample_triples(web7, seed=3)
        second = sample_triples(web7, seed=3)
        assert first == second
        for j, cond, k in first:
            assert j != k
            assert j not in cond and k not in cond

    def test_small_graph_enumerates_exhaustively(self):
        dag = Dag(3, [(0, 1), (1, 2)])
        triples = sample_triples(dag, seed=0)
        # 3 * 2 ordered pairs, times 2 subsets of the leftover node
        assert len(triples) == 12

    def test_diamond4_verdicts_match_exact_independence(self, diamond4):
        report = check_theorem2(diamond4, trials=5, seed=1)
        assert report.separated_count > 0
        assert report.connected_count > 0
        assert report.soundness_violations == ()
        assert report.dependence_misses == ()

    def test_scale_and_trial_guards(self, diamond4):
        with pytest.raises(ValueError):
            check_theorem2(diamond4, trials=0, seed=1)
        big = Dag(13, [(i, i + 1) for i in range(12)])
        with pytest.raises(OracleScaleExceeded):
            check_theorem2(big, trials=1, seed=1)

    def test_negative_tolerances_rejected(self, diamond4):
        with pytest.raises(ValueError, match="nonnegative"):
            check_theorem2(diamond4, trials=1, seed=1, soundness_tol=-1.0)

    def test_oracle_agrees_with_engine_verdicts(self, web7):
        report = check_theorem2(web7, trials=1, seed=7)
        for outcome in report.outcomes:
            query = SeparationQuery({outcome.source}, outcome.conditioning)
            engine_separated = outcome.target in dsep_set_fast(web7, query)
            assert engine_separated == outcome.separated
