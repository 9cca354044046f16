"""Shared fixtures: the two worked-example graphs and dag strategies."""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from dsep import Dag, build_dag

DATA_DIR = Path(__file__).parent / "data"

# CI runs with HYPOTHESIS_PROFILE=ci: the same examples on every run, and a
# failure prints the blob that replays it (@reproduce_failure).
settings.register_profile("ci", derandomize=True, deadline=None,
                          print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")

WEB7_NAMES = ["n1", "n2", "n3", "n4", "n5", "n6", "n7"]
WEB7_EDGES = [
    ("n1", "n4"),
    ("n2", "n3"),
    ("n2", "n4"),
    ("n3", "n5"),
    ("n4", "n5"),
    ("n5", "n6"),
    ("n5", "n7"),
]

DIAMOND4_NAMES = ["1", "2", "3", "4"]
DIAMOND4_EDGES = [("1", "3"), ("1", "4"), ("2", "4")]


@pytest.fixture(scope="session")
def web7() -> Dag:
    return build_dag(WEB7_NAMES, WEB7_EDGES)


@pytest.fixture(scope="session")
def diamond4() -> Dag:
    return build_dag(DIAMOND4_NAMES, DIAMOND4_EDGES)


@pytest.fixture(scope="session")
def ids():
    """Look up a set of node ids by name: ids(dag, "a", "b")."""

    def look(dag: Dag, *names: str) -> frozenset[int]:
        return frozenset(dag.node_id(name) for name in names)

    return look


@pytest.fixture(scope="session")
def named():
    """Render a node-id set as sorted names, for readable assertions."""

    def render(dag: Dag, nodes) -> list[str]:
        return sorted(dag.node_name(v) for v in nodes)

    return render


@st.composite
def small_dags(draw: st.DrawFn, max_nodes: int = 7) -> Dag:
    """A random dag over a shuffled node order (hypothesis strategy)."""
    node_count = draw(st.integers(min_value=1, max_value=max_nodes))
    order = draw(st.permutations(range(node_count)))
    edges: list[tuple[int, int]] = []
    for i in range(node_count):
        for j in range(i + 1, node_count):
            if draw(st.booleans()):
                edges.append((order[i], order[j]))
    return Dag(node_count, edges)


@st.composite
def dags_with_query(draw: st.DrawFn, max_nodes: int = 7):
    """A dag plus a valid (sources, conditioning) pair over its nodes."""
    dag = draw(small_dags(max_nodes=max_nodes))
    nodes = list(range(dag.node_count))
    sources = draw(st.sets(st.sampled_from(nodes), min_size=1, max_size=2))
    rest = [v for v in nodes if v not in sources]
    conditioning = draw(
        st.sets(st.sampled_from(rest), max_size=3) if rest
        else st.just(set()))
    return dag, frozenset(sources), frozenset(conditioning)


def seeded_rng(seed: int) -> random.Random:
    return random.Random(seed)
