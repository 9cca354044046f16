"""Breadth-first search with a constraint on consecutive link pairs."""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsep import EmptyStartSet, ForeignNode, InvalidArgument, find_reachable


def _always(first: int, second: int) -> bool:
    return True


def _links(node_count: int, pairs) -> SimpleNamespace:
    """Just what `find_reachable` reads: link k runs pairs[k][0] -> pairs[k][1]."""
    out = [[] for _ in range(node_count)]
    for lid, (tail, _) in enumerate(pairs):
        out[tail].append(lid)
    return SimpleNamespace(node_count=node_count,
                           link_heads=tuple(head for _, head in pairs),
                           out_links=tuple(map(tuple, out)))


def _plain_bfs_nodes(graph, sources: set[int]) -> set[int]:
    seen = set(sources)
    frontier = deque(sources)
    while frontier:
        v = frontier.popleft()
        for lid in graph.out_links[v]:
            w = graph.link_heads[lid]
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


@st.composite
def link_graphs(draw: st.DrawFn):
    """Arbitrary directed link graphs; cycles and parallel links allowed."""
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=20))
    return _links(n, pairs)


class TestFindReachable:
    def test_unconstrained_chain(self):
        graph = _links(4, [(0, 1), (1, 2), (2, 3)])
        result = find_reachable(graph, _always, {0})
        assert result.reached == frozenset({0, 1, 2, 3})
        assert result.link_levels == (1, 2, 3)

    def test_first_hops_are_level_one_even_if_pair_would_be_illegal(self):
        graph = _links(3, [(0, 1), (1, 2)])
        result = find_reachable(graph, lambda a, b: False, {0})
        assert result.link_levels[0] == 1
        assert result.link_levels[1] is None
        assert result.reached == frozenset({0, 1})

    def test_forbidden_consecutive_pair_blocks_a_path(self):
        # 0 -(a)-> 1 -(b)-> 2, with the pair (a, b) outlawed; node 2 stays
        # unreached unless the second route in is allowed.
        graph = _links(3, [(0, 1), (1, 2), (0, 2)])

        def legal(first: int, second: int) -> bool:
            return not (first == 0 and second == 1)

        result = find_reachable(graph, legal, {0})
        assert result.reached == frozenset({0, 1, 2})
        assert result.link_levels[1] is None
        assert result.link_levels[2] == 1

        narrow = _links(3, [(0, 1), (1, 2)])
        blocked = find_reachable(narrow, legal, {0})
        assert blocked.reached == frozenset({0, 1})

    def test_each_link_is_labeled_at_most_once(self):
        # Two routes converge on link 2; its level must be the first one.
        graph = _links(4, [(0, 2), (1, 2), (2, 3)])
        result = find_reachable(graph, _always, {0, 1})
        assert result.link_levels == (1, 1, 2)

    def test_terminates_on_cycles(self):
        graph = _links(3, [(0, 1), (1, 2), (2, 0), (2, 1)])
        result = find_reachable(graph, _always, {0})
        assert result.reached == frozenset({0, 1, 2})
        assert all(level is not None for level in result.link_levels)

    def test_stop_at_short_circuits(self):
        graph = _links(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        result = find_reachable(graph, _always, {0}, stop_at={2})
        assert 2 in result.reached
        # the far end of the chain is never explored once the stop hits
        assert 4 not in result.reached

    def test_stop_at_member_of_sources(self):
        graph = _links(2, [(0, 1)])
        result = find_reachable(graph, _always, {0}, stop_at={0})
        assert 0 in result.reached

    def test_empty_sources_rejected(self):
        graph = _links(2, [(0, 1)])
        with pytest.raises(EmptyStartSet):
            find_reachable(graph, _always, set())

    def test_foreign_source_rejected(self):
        graph = _links(2, [(0, 1)])
        with pytest.raises(ForeignNode):
            find_reachable(graph, _always, {5})

    @pytest.mark.parametrize("start", [True, 0.5, "a"])
    def test_non_int_start_rejected(self, start):
        graph = _links(2, [(0, 1)])
        with pytest.raises(ForeignNode):
            find_reachable(graph, _always, {start})

    def test_a_type_error_inside_legal_propagates(self):
        def legal(first: int, second: int) -> bool:
            raise TypeError("raised by legal itself")

        graph = _links(3, [(0, 1), (1, 2)])
        with pytest.raises(TypeError, match="raised by legal itself") as raised:
            find_reachable(graph, legal, {0})
        assert not isinstance(raised.value, InvalidArgument)

    def test_foreign_stop_rejected(self):
        graph = _links(2, [(0, 1)])
        with pytest.raises(ForeignNode):
            find_reachable(graph, _always, {0}, stop_at={99})

    def test_allows_self_links_and_duplicates(self):
        graph = _links(2, [(0, 0), (0, 1), (0, 1)])
        result = find_reachable(graph, _always, {0})
        assert result.reached == frozenset({0, 1})
        assert result.link_levels == (1, 1, 1)

    def test_levels_count_links_not_nodes(self):
        graph = _links(3, [(0, 1), (0, 2), (1, 2), (2, 0)])
        result = find_reachable(graph, _always, {0})
        assert result.link_levels[0] == 1
        assert result.link_levels[1] == 1
        # the 2->0 link is a second hop reached from either level-1 link
        assert result.link_levels[3] == 2

    @settings(max_examples=150, deadline=None)
    @given(graph=link_graphs(), data=st.data())
    def test_unconstrained_search_equals_plain_bfs(self, graph, data):
        sources = data.draw(st.sets(
            st.integers(0, graph.node_count - 1), min_size=1, max_size=3))
        result = find_reachable(graph, _always, sources)
        assert result.reached == _plain_bfs_nodes(graph, set(sources))

    @settings(max_examples=100, deadline=None)
    @given(graph=link_graphs(), data=st.data())
    def test_labeled_links_form_consistent_levels(self, graph, data):
        """Every labeled link leaves a source or extends a shallower link."""
        sources = data.draw(st.sets(
            st.integers(0, graph.node_count - 1), min_size=1, max_size=3))
        result = find_reachable(graph, _always, sources)
        tails = {lid: v for v in range(graph.node_count)
                 for lid in graph.out_links[v]}
        for lid, level in enumerate(result.link_levels):
            if level is None:
                continue
            tail = tails[lid]
            if level == 1:
                assert tail in sources
            else:
                feeders = [k for k in range(len(graph.link_heads))
                           if graph.link_heads[k] == tail
                           and result.link_levels[k] == level - 1]
                assert feeders, f"link {lid} at level {level} has no feeder"
