"""Deterministic graph families for tests, verification sweeps, and benchmarks."""

from __future__ import annotations

import random

from .dag import Dag


def chain_dag(edge_count: int) -> Dag:
    """0 -> 1 -> ... -> edge_count."""
    if edge_count < 0:
        raise ValueError("edge_count must be nonnegative")
    return Dag(edge_count + 1, [(i, i + 1) for i in range(edge_count)])


def star_dag(leaf_count: int, hub_to_leaves: bool = True) -> Dag:
    """Hub node 0 joined to `leaf_count` leaves, arrows leaving the hub by default."""
    if leaf_count < 0:
        raise ValueError("leaf_count must be nonnegative")
    if hub_to_leaves:
        edges = [(0, i) for i in range(1, leaf_count + 1)]
    else:
        edges = [(i, 0) for i in range(1, leaf_count + 1)]
    return Dag(leaf_count + 1, edges)


def random_dag(rng: random.Random, node_count: int,
               edge_prob: float = 0.35) -> Dag:
    """Erdos-Renyi style dag under a hidden random topological order."""
    order = list(range(node_count))
    rng.shuffle(order)
    edges = []
    for i in range(node_count):
        for j in range(i + 1, node_count):
            if rng.random() < edge_prob:
                edges.append((order[i], order[j]))
    return Dag(node_count, edges)


def corpus_dag(rng: random.Random, node_count: int) -> Dag:
    """Mixed test-corpus shapes: chains, forks, colliders, and random dags.

    Node ids are permuted so nothing downstream can lean on ids being
    topologically sorted.
    """
    if node_count < 1:
        raise ValueError("need at least one node")
    shape = rng.choice(("random", "random", "chain", "fork", "collider"))
    order = list(range(node_count))
    rng.shuffle(order)
    edges: list[tuple[int, int]] = []
    if shape == "chain":
        edges = [(order[i], order[i + 1]) for i in range(node_count - 1)]
    elif shape == "fork":
        edges = [(order[0], order[i]) for i in range(1, node_count)]
    elif shape == "collider":
        edges = [(order[i], order[-1]) for i in range(node_count - 1)]
    else:
        return random_dag(rng, node_count, edge_prob=rng.uniform(0.2, 0.6))
    # A sprinkle of extra forward edges keeps the shaped families from
    # being entirely degenerate.
    present = set(edges)
    for i in range(node_count):
        for j in range(i + 1, node_count):
            pair = (order[i], order[j])
            if pair not in present and rng.random() < 0.15:
                present.add(pair)
                edges.append(pair)
    return Dag(node_count, edges)


def random_sparse_dag(edge_count: int, seed: int) -> Dag:
    """Sparse random dag with a connecting backbone and |edges| = edge_count.

    Half the nodes of the edge budget: a chain 0 -> 1 -> ... guarantees
    weak connectivity, the remaining budget goes to random forward
    edges.  Deterministic for a fixed seed.
    """
    if edge_count < 10:
        raise ValueError("edge_count must be at least 10")
    node_count = edge_count // 2
    if node_count * (node_count - 1) // 2 < edge_count:    # only 11 fails
        raise ValueError(f"{node_count} nodes cannot hold {edge_count} "
                         f"forward edges")
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(node_count - 1)]
    present = set(edges)
    while len(edges) < edge_count:
        i = rng.randrange(node_count - 1)
        j = rng.randrange(i + 1, node_count)
        pair = (i, j)
        if pair not in present:
            present.add(pair)
            edges.append(pair)
    return Dag(node_count, edges)
