"""Tests of the benchmark itself: seeded inputs, referee, exact counts.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import networkx as nx
import pytest

import gen
import referee
import run
from reference import Reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _files(directory: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    a = gen.generate(workload, 7, str(tmp_path / "a"))
    b = gen.generate(workload, 7, str(tmp_path / "b"))
    assert _files(str(tmp_path / "a")) == _files(str(tmp_path / "b"))
    assert a.byte_count == b.byte_count
    assert ([g.edge_count for g in a.graphs]
            == [g.edge_count for g in b.graphs])
    c = gen.generate(workload, 8, str(tmp_path / "c"))
    assert _files(str(tmp_path / "a")) != _files(str(tmp_path / "c"))


def test_ci_oracle_verdict_mix_is_near_sixty_percent_separated(tmp_path):
    inputs = gen.generate("ci-oracle", 3, str(tmp_path))
    ref = referee.Referee(inputs.graphs)
    checks = [op for op in inputs.ops if op["kind"] == "check"][:600]
    share = sum(ref.expected(op) for op in checks) / len(checks)
    assert 0.5 < share < 0.7


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_reference_sweep_does_fixed_work(workload):
    a, b = Reference(workload), Reference(workload)
    assert a.sweep() == b.sweep() > 0
    assert a.children == b.children


def test_scaling_divides_by_the_reference_around_each_sample():
    # Refs 1, 3 and 5 ms; a sample after one ref lies between the first
    # two (mean 2 ms), a sample after two between the last two (4 ms).
    refs = [0.001, 0.003, 0.005]
    out = run.scaled([0.010, 0.010], [1, 2], refs, 0.002)
    assert out == pytest.approx([0.010, 0.005])


def _random_dag(rng: random.Random, n: int) -> gen.Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.35]
    return gen._dag(n, edges, [f"n{v}" for v in range(n)])


def test_referee_matches_networkx_on_small_graphs():
    rng = random.Random(5)
    for _ in range(60):
        g = _random_dag(rng, rng.randint(2, 9))
        graph = referee._nx_graph(g.parents)
        nodes = list(range(g.node_count))
        rng.shuffle(nodes)
        x, rest = nodes[0], nodes[1:]
        z = set(rest[:rng.randint(0, len(rest) - 1)])
        linked = referee.dconnected(g.parents, g.children, [x], z)
        for y in set(rest) - z:
            assert (y not in linked) == nx.is_d_separator(graph, {x}, {y}, z)
            stopped = referee.dconnected(g.parents, g.children, [x], z,
                                         stop={y})
            assert bool(stopped & {y}) == (y in linked)


def test_networkx_fallback_agrees_with_is_d_separator():
    rng = random.Random(6)
    for _ in range(40):
        g = _random_dag(rng, 9)
        graph = referee._nx_graph(g.parents)
        x, y, *rest = rng.sample(range(9), 9)
        z = set(rest[:rng.randint(0, 4)])
        big_enough = referee.NX_DSEP_MAX_NODES
        referee.NX_DSEP_MAX_NODES = 0
        try:
            moral = referee.nx_separated(graph, {x}, {y}, z)
        finally:
            referee.NX_DSEP_MAX_NODES = big_enough
        assert moral == nx.is_d_separator(graph, {x}, {y}, z)


def test_referee_requisite_tables_on_a_collider():
    # a -> c <- b, c -> d: observing d opens c, so b's table matters.
    g = gen._dag(4, [(0, 2), (1, 2), (2, 3)], ["a", "b", "c", "d"])
    ref = referee.Referee([g])
    op = {"kind": "requisite", "graph": 0, "x": ["a"], "z": ["d"], "y": []}
    tables, variables = ref.expected(op)
    assert tables == {0, 1, 2, 3}
    assert variables == {1, 2}
    op["z"] = []
    assert ref.expected(op) == ({0}, {2, 3})


def _trace_run(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "4", "--seconds", "1", "--trace", "1"],
        check=True, capture_output=True, text=True, timeout=170).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    info = next(line for line in lines if line.startswith("input_bytes"))
    return result, info


@pytest.mark.parametrize("workload", ["ci-oracle", "audit-small"])
def test_exact_counts_repeat_for_one_seed(workload):
    first, info_a = _trace_run(workload)
    second, info_b = _trace_run(workload)
    assert first["correct"] and second["correct"]
    for name in ("engine.links_examined", "reachability.links_labeled",
                 "verify.statements", "dag.descendant_table.calls"):
        assert first["metrics"][name] == second["metrics"][name], name
        assert first["metrics"][name]["value"] > 0, name
    # input bytes, input edges and the traced op count
    assert info_a.split(", spans")[0] == info_b.split(", spans")[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ci-oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
