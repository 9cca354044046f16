"""Benchmark plumbing: instances, counters, and result cross-checks."""

from __future__ import annotations

import pytest

from dsep import dsep_set_fast, moral_check, run_bench
from dsep.bench import build_instance


class TestBuildInstance:
    def test_chain_conditions_on_its_midpoint(self):
        dag, query, statement = build_instance("chain", 100, seed=1)
        assert query.sources == frozenset({0})
        assert query.conditioning == frozenset({dag.node_count // 2})
        assert statement.targets == frozenset({dag.node_count - 1})

    def test_star_queries_from_a_leaf(self):
        dag, query, _ = build_instance("star", 50, seed=1)
        assert query.sources == frozenset({1})
        assert query.conditioning == frozenset()

    def test_random_instance_is_seed_stable(self):
        a, _, _ = build_instance("random", 40, seed=9)
        b, _, _ = build_instance("random", 40, seed=9)
        assert a.edges == b.edges

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            build_instance("clique", 10, seed=0)

    @pytest.mark.parametrize("family", ["chain", "star"])
    def test_too_few_edges_name_the_minimum(self, family):
        for edge_count in (0, 1):
            with pytest.raises(ValueError, match=f"{family} needs edge_count "
                                                 f"at least 2, got {edge_count}"):
                run_bench(family, [edge_count])
        (fast, *_) = run_bench(family, [2]).rows
        assert fast.edge_count == 2


class TestRunBench:
    def test_rows_cover_all_algorithms_per_size(self):
        report = run_bench("chain", [64, 128])
        algos = [(r.edge_count, r.algorithm) for r in report.rows]
        assert algos == [
            (64, "fast"), (64, "faithful"), (64, "moral"),
            (128, "fast"), (128, "faithful"), (128, "moral")]
        assert all(r.seconds >= 0.0 for r in report.rows)

    def test_chain_fast_ops_equal_edge_count(self):
        # the conditioned midpoint makes the sweep touch each adjacency
        # list exactly once in each direction: ops lands on |E| itself
        report = run_bench("chain", [64, 1024])
        for row in report.rows:
            if row.algorithm == "fast":
                assert row.ops == row.edge_count

    def test_random_fast_ops_equal_edge_count(self):
        report = run_bench("random", [512])
        (fast,) = [r for r in report.rows if r.algorithm == "fast"]
        assert fast.ops == fast.edge_count

    def test_result_sizes_match_direct_queries(self):
        for family in ("chain", "star", "random"):
            dag, query, statement = build_instance(family, 128, seed=7)
            report = run_bench(family, [128], seed=7)
            by_algo = {r.algorithm: r for r in report.rows}
            expected = len(dsep_set_fast(dag, query))
            assert by_algo["fast"].result_size == expected
            assert by_algo["faithful"].result_size == expected
            assert by_algo["moral"].result_size == int(
                moral_check(dag, statement))

    def test_table_renders_one_line_per_row(self):
        report = run_bench("star", [32])
        text = report.table()
        lines = text.splitlines()
        assert len(lines) == 1 + len(report.rows)
        assert lines[0].split()[:3] == ["family", "nodes", "edges"]
