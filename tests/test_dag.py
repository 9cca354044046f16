"""Graph construction, validation, and the two derived closures."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsep import (
    CycleDetected,
    Dag,
    DoubledGraph,
    DuplicateEdge,
    ForeignNode,
    InvalidQuery,
    SelfLoop,
    Trail,
    UnknownEndpoint,
    ancestral_set,
    build_dag,
    descendant_table,
    doubled_graph,
    find_reachable,
    is_active_trail,
)
from dsep.dag import adjacency_arrays, checked_nodes, mark_ancestors

from .conftest import small_dags


class TestDagConstruction:
    def test_parents_and_children_are_transposes(self, web7, ids):
        n5 = web7.node_id("n5")
        assert set(web7.parents[n5]) == ids(web7, "n3", "n4")
        assert set(web7.children[n5]) == ids(web7, "n6", "n7")
        for tail, head in web7.edges:
            assert head in web7.children[tail]
            assert tail in web7.parents[head]

    def test_single_node_no_edges(self):
        dag = Dag(1, [])
        assert dag.node_count == 1
        assert dag.edges == ()
        assert dag.parents == ((),)

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(UnknownEndpoint):
            Dag(3, [(0, 3)])
        with pytest.raises(UnknownEndpoint):
            Dag(3, [(-1, 2)])

    @pytest.mark.parametrize("edge", [(True, 2), (0, True), (0.0, 1),
                                      (0, 1.0), ("0", 1), (None, 1)])
    def test_non_int_endpoint_rejected(self, edge):
        with pytest.raises(UnknownEndpoint):
            Dag(3, [edge])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            Dag(2, [(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdge):
            Dag(3, [(0, 1), (1, 2), (0, 1)])
        with pytest.raises(DuplicateEdge, match="1 -> 2"):
            Dag(3, [(0, 1), (1, 2), (0, 2), (1, 2)])

    def test_two_cycle_rejected_with_witness(self):
        with pytest.raises(CycleDetected) as info:
            Dag(2, [(0, 1), (1, 0)])
        cycle = info.value.cycle
        assert sorted(cycle) == ["0", "1"]

    def test_longer_cycle_witness_follows_edges(self):
        with pytest.raises(CycleDetected) as info:
            Dag(5, [(0, 1), (1, 2), (2, 3), (3, 1), (0, 4)])
        cycle = [int(v) for v in info.value.cycle]
        assert len(cycle) >= 2
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert (a, b) in {(0, 1), (1, 2), (2, 3), (3, 1), (0, 4)}

    def test_has_edge(self, diamond4, ids):
        (one,) = ids(diamond4, "1")
        (three,) = ids(diamond4, "3")
        assert diamond4.has_edge(one, three)
        assert not diamond4.has_edge(three, one)

    def test_has_edge_matches_the_edge_list(self, web7):
        edges = set(web7.edges)
        for tail in range(web7.node_count):
            for head in range(web7.node_count):
                assert web7.has_edge(tail, head) == ((tail, head) in edges)
        for tail, head in web7.edges:
            assert web7.has_edge(tail, head)
            assert not web7.has_edge(head, tail)

    @pytest.mark.parametrize("tail, head", [
        (-1, 3), (0, -4), (7, 3), (0, 7), (99, 99),
        (False, 3), (0, 3.0), (0.0, 3), (True, 2), (1, 2.0), ("0", 3),
        (0, "3"), (None, 3), (0, None), ((0,), 3)])
    def test_has_edge_is_false_for_foreign_ids(self, web7, tail, head):
        # (0, 3) and (1, 2) are edges of web7; these only look like them.
        assert {(0, 3), (1, 2)} <= set(web7.edges)
        assert not web7.has_edge(tail, head)

    def test_node_name_falls_back_to_id_string(self):
        dag = Dag(2, [(0, 1)])
        assert dag.node_name(1) == "1"

    @pytest.mark.parametrize("node", [-1, True, 3])
    def test_node_name_rejects_foreign_ids(self, node):
        with pytest.raises(ForeignNode):
            build_dag(["a", "b", "c"], [("a", "b")]).node_name(node)

    def test_unnamed_node_name_rejects_foreign_ids(self):
        with pytest.raises(ForeignNode):
            Dag(2, [(0, 1)]).node_name(7)

    @pytest.mark.parametrize("edges", [[(0, 1, 2)], [(0,)], [5], 5])
    def test_edge_that_is_no_pair_rejected(self, edges):
        with pytest.raises(UnknownEndpoint, match="pairs"):
            Dag(3, edges)

    @pytest.mark.parametrize("name", ["nope", ["n1"], None],
                             ids=["unknown", "unhashable", "None"])
    def test_node_id_unknown_name(self, web7, name):
        with pytest.raises(ForeignNode):
            web7.node_id(name)

    def test_build_dag_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            build_dag(["a", "a"], [])

    def test_name_checks_keep_their_messages(self):
        with pytest.raises(ValueError, match="^node names must be unique$"):
            build_dag(["a", "b", "a"], [("a", "b")])
        with pytest.raises(ValueError, match="^node names must be unique$"):
            Dag(2, [], names=["a", "a"])
        with pytest.raises(ValueError, match="^got 1 names for 2 nodes$"):
            Dag(2, [], names=["a"])

    def test_node_count_bool_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Dag(True, [])

    def test_node_count_float_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Dag(3.0, [])

    def test_node_count_str_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Dag("3", [])

    def test_names_take_ids_by_position(self):
        # A mapping passed as `names` lends its keys, never its values.
        dag = Dag(2, [(0, 1)], names={"a": 7, "b": 9})
        assert dag.names == ("a", "b")
        assert (dag.node_id("a"), dag.node_id("b")) == (0, 1)
        built = build_dag(["b", "a", "c"], [("a", "c")])
        assert [built.node_id(nm) for nm in ("b", "a", "c")] == [0, 1, 2]
        assert built.edges == ((1, 2),)

    def test_build_dag_rejects_unknown_edge_name(self):
        with pytest.raises(UnknownEndpoint):
            build_dag(["a", "b"], [("a", "c")])

    @pytest.mark.parametrize("edges", [[("a", "b", "c")], [("a",)], [5],
                                       [(["a"], "b")]])
    def test_build_dag_rejects_edges_that_are_no_pairs(self, edges):
        with pytest.raises(UnknownEndpoint, match="pairs"):
            build_dag(["a", "b"], edges)

    def test_checked_nodes_range(self, web7):
        assert checked_nodes(web7, [0, 1]) == frozenset({0, 1})
        with pytest.raises(ForeignNode):
            checked_nodes(web7, [99])

    @pytest.mark.parametrize("call", [
        lambda dag, nodes: ancestral_set(dag, nodes),
        lambda dag, nodes: descendant_table(dag, nodes),
        lambda dag, nodes: is_active_trail(
            dag, Trail((0, 1), ((0, 1),)), nodes),
        lambda dag, nodes: find_reachable(
            doubled_graph(dag), lambda first, second: True, nodes),
    ])
    @pytest.mark.parametrize("nodes", [5, [[1], [2]]])
    def test_node_sets_that_are_no_sets_of_ids_rejected(self, web7, call,
                                                         nodes):
        with pytest.raises(InvalidQuery, match="sets of ids"):
            call(web7, nodes)


def _nodes_reaching(dag: Dag, targets: frozenset[int]) -> set[int]:
    """Reflexive 'can reach a member of targets' by forward path search."""
    hit = set(targets)
    frontier = deque(targets)
    while frontier:
        v = frontier.popleft()
        for p in dag.parents[v]:
            if p not in hit:
                hit.add(p)
                frontier.append(p)
    return hit


class TestDescendantTable:
    def test_web7_flags_given_n6(self, web7, ids):
        table = descendant_table(web7, ids(web7, "n6"))
        flagged = {web7.node_name(v) for v in range(7) if table[v]}
        assert flagged == {"n1", "n2", "n3", "n4", "n5", "n6"}
        assert type(table) is tuple and {type(f) for f in table} == {bool}

    def test_empty_conditioning_flags_nothing(self, web7):
        table = descendant_table(web7, frozenset())
        assert not any(table)

    @settings(max_examples=120, deadline=None)
    @given(dag=small_dags(), data=st.data())
    def test_flag_means_some_descendant_is_conditioned(self, dag, data):
        nodes = list(range(dag.node_count))
        conditioning = frozenset(
            data.draw(st.sets(st.sampled_from(nodes), max_size=3)))
        table = descendant_table(dag, conditioning)
        expected = _nodes_reaching(dag, conditioning)
        assert {v for v in nodes if table[v]} == expected

    @settings(max_examples=80, deadline=None)
    @given(dag=small_dags(), data=st.data())
    def test_flags_match_ancestral_set_of_conditioning(self, dag, data):
        nodes = list(range(dag.node_count))
        conditioning = frozenset(
            data.draw(st.sets(st.sampled_from(nodes), max_size=3)))
        table = descendant_table(dag, conditioning)
        assert {v for v in nodes if table[v]} == set(
            ancestral_set(dag, conditioning))


class TestMarkAncestors:
    def test_tag_goes_on_the_members_alone(self):
        dag = Dag(4, [(0, 1), (1, 2), (1, 3)])
        marks = bytearray(4)
        marks[3] = 2    # a member already holding the bit keeps its walk undone
        found = mark_ancestors(dag, {2, 3}, marks, 2, 128)
        assert found == [2, 1, 0]
        assert list(marks) == [2, 2, 2 | 128, 2 | 128]


class TestAncestralSet:
    def test_web7_of_sink(self, web7, ids, named):
        assert named(web7, ancestral_set(web7, ids(web7, "n6"))) == [
            "n1", "n2", "n3", "n4", "n5", "n6"]

    def test_is_reflexive_and_closed_under_parents(self, web7, ids):
        members = ids(web7, "n5")
        closure = ancestral_set(web7, members)
        assert members <= closure
        for v in closure:
            assert set(web7.parents[v]) <= closure

    def test_empty_set(self, web7):
        assert ancestral_set(web7, frozenset()) == frozenset()


class TestDoubledGraph:
    def test_each_edge_yields_forward_and_reversed_link(self, diamond4):
        twin = doubled_graph(diamond4)
        assert len(twin.link_heads) == 2 * len(diamond4.edges)
        for k, (tail, head) in enumerate(diamond4.edges):
            assert twin.link_heads[2 * k] == head
            assert twin.link_heads[2 * k + 1] == tail
            assert 2 * k in twin.out_links[tail]
            assert 2 * k + 1 in twin.out_links[head]

    def test_out_links_groups_links_by_tail(self, web7):
        twin = doubled_graph(web7)
        for v in range(twin.node_count):
            for lid in twin.out_links[v]:
                assert web7.edges[lid >> 1][lid & 1] == v
        listed = sorted(lid for v in range(twin.node_count)
                        for lid in twin.out_links[v])
        assert listed == list(range(len(twin.link_heads)))

    def test_built_once_per_dag(self, web7):
        twin = doubled_graph(web7)
        assert doubled_graph(web7) is twin
        fresh = DoubledGraph(web7)
        assert twin.link_heads == fresh.link_heads
        assert twin.out_links == fresh.out_links


class TestAdjacencyArrays:
    def test_rows_match_the_tuples(self, web7):
        (kid_ptr, kid_idx), (par_ptr, par_idx) = adjacency_arrays(web7)
        for v in range(web7.node_count):
            assert tuple(kid_idx[kid_ptr[v]:kid_ptr[v + 1]]) == web7.children[v]
            assert tuple(par_idx[par_ptr[v]:par_ptr[v + 1]]) == web7.parents[v]
        assert kid_idx.dtype == par_ptr.dtype == np.intp

    def test_built_once_per_dag(self, web7):
        assert adjacency_arrays(web7) is adjacency_arrays(web7)

    def test_edgeless_and_empty_dags(self):
        (ptr, idx), _ = adjacency_arrays(Dag(3, []))
        assert ptr.tolist() == [0, 0, 0, 0] and len(idx) == 0
        (ptr, idx), _ = adjacency_arrays(Dag(0, []))
        assert ptr.tolist() == [0] and len(idx) == 0
