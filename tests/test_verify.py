"""Cross-engine agreement audits."""

from __future__ import annotations

import pytest

import dsep.verify
from dsep import (
    SeparationQuery,
    audit_dag,
    audit_random_corpus,
    build_dag,
    chain_dag,
    dsep_set,
    dsep_set_fast,
    singleton_queries,
)


def _line(dag, query, note: str) -> str:
    src = ",".join(sorted(dag.node_name(v) for v in query.sources))
    cond = ",".join(sorted(dag.node_name(v) for v in query.conditioning))
    return f"{dag!r} sources={{{src}}} conditioning={{{cond}}}: {note}"


class TestSingletonQueries:
    def test_small_graph_enumerates_all_subsets(self, diamond4):
        queries = list(singleton_queries(diamond4))
        # 4 choices of source, 2^3 conditioning subsets each
        assert len(queries) == 32
        assert len(set(queries)) == 32

    def test_sampling_kicks_in_on_larger_graphs(self):
        dag = build_dag([f"v{i}" for i in range(9)],
                        [(f"v{i}", f"v{i + 1}") for i in range(8)])
        queries = list(singleton_queries(dag))
        by_source = {}
        for q in queries:
            (src,) = q.sources
            by_source.setdefault(src, set()).add(q.conditioning)
        assert set(by_source) == set(range(9))
        assert all(len(conds) <= 16 for conds in by_source.values())


class TestAuditDag:
    def test_fixture_graphs_agree_everywhere(self, web7, diamond4):
        for dag in (web7, diamond4):
            report = audit_dag(dag)
            assert report.ok
            assert report.graphs == 1
            assert report.queries > 0
            assert report.oracle_queries == report.queries
            assert report.statements > 0
            assert report.early_stop_checks == 2 * report.statements
            assert report.marriage_checks == report.statements

    def test_oracle_is_skipped_past_its_node_limit(self):
        report = audit_dag(chain_dag(12))     # 13 nodes, the cap is 12
        assert report.ok
        assert report.queries > 0
        assert report.oracle_queries == 0

    @pytest.mark.parametrize("engine,note", [
        ("dsep_set_fast", "faithful={right} fast={wrong}"),
        ("dsep_bruteforce", "trail oracle={wrong} sweep={right}"),
    ])
    def test_a_wrong_separated_set_is_reported(self, diamond4, monkeypatch,
                                               engine, note):
        """An engine that also returns the conditioning set disagrees on
        every conditioned query, and nowhere else."""
        def wrong(dag, query):
            return dsep_set(dag, query) | query.conditioning

        if engine == "dsep_set_fast":
            monkeypatch.setattr(dsep.verify, engine, wrong)
        else:   # the audit asks the oracle for a source's sets at once
            monkeypatch.setattr(
                dsep.verify, "_separated_sets",
                lambda dag, sources, conditionings: [
                    wrong(dag, SeparationQuery(sources, cond))
                    for cond in conditionings])
        report = audit_dag(diamond4)
        expected = []
        for query in singleton_queries(diamond4):
            right = dsep_set(diamond4, query)
            if query.conditioning:
                expected.append(_line(diamond4, query, note.format(
                    right=sorted(right),
                    wrong=sorted(right | query.conditioning))))
        assert len(expected) == 4 * 7
        assert report.disagreements == expected
        assert not report.early_stop_disagreements
        assert not report.marriage_disagreements

    def test_a_wrong_marriage_rule_is_reported(self, diamond4, monkeypatch):
        """The restricted rule flipped for one target disagrees with the
        full rule and with the sweeps, once per statement on that target."""
        target = diamond4.node_id("4")
        real = dsep.verify._moral_verdicts

        def faulty(dag, statement):
            restricted, full = real(dag, statement)
            if statement.targets == {target}:
                return not restricted, full
            return restricted, full

        monkeypatch.setattr(dsep.verify, "_moral_verdicts", faulty)
        report = audit_dag(diamond4)
        marriage, moral = [], []
        for query in singleton_queries(diamond4):
            if target in query.sources | query.conditioning:
                continue
            separated = target in dsep_set(diamond4, query)
            marriage.append(_line(
                diamond4, query, f"target 4 restricted={not separated} "
                                 f"full={separated}"))
            moral.append(_line(
                diamond4, query, f"target 4 moral={not separated} "
                                 f"expected={separated}"))
        assert len(marriage) == 3 * 4
        assert report.marriage_disagreements == marriage
        assert report.disagreements == moral
        assert not report.early_stop_disagreements

    def test_reports_merge_additively(self, web7, diamond4):
        a = audit_dag(web7)
        b = audit_dag(diamond4)
        queries, statements = a.queries, a.statements
        a.merge(b)
        assert a.graphs == 2
        assert a.queries == queries + b.queries
        assert a.statements == statements + b.statements
        assert a.ok

    def test_confined_sweep_fault_is_caught(self, diamond4, monkeypatch):
        """A fault in the early-stop sweeps alone, for one target, shows up
        as one early-stop disagreement per engine and statement."""
        target = diamond4.node_id("4")
        real = dsep.verify.is_dseparated

        def faulty(dag, statement, *, method="fast"):
            verdict = real(dag, statement, method=method)
            if statement.targets == {target}:
                return not verdict
            return verdict

        monkeypatch.setattr(dsep.verify, "is_dseparated", faulty)
        report = audit_dag(diamond4)

        expected = []
        for query in singleton_queries(diamond4):
            if target in query.sources | query.conditioning:
                continue
            full = target in dsep_set_fast(diamond4, query)
            for method in ("fast", "faithful"):
                expected.append(_line(
                    diamond4, query,
                    f"target 4 method={method} early={not full} full={full}"))
        # 3 other sources, 4 conditioning subsets of the 2 remaining nodes
        assert len(expected) == 2 * 3 * 4
        assert report.early_stop_disagreements == expected
        assert report.early_stop_checks == 2 * report.statements
        assert not report.marriage_disagreements


class TestRandomCorpusAudit:
    def test_small_corpus_is_clean(self):
        # a 5-node graph contributes at most 5 * 2^4 = 80 queries, so the
        # 100-query quota needs at least two graphs
        report = audit_random_corpus(max_nodes=5, seed=17, min_queries=100)
        assert report.ok
        assert report.queries >= 100
        assert report.graphs >= 2

    def test_same_seed_same_tallies(self):
        a = audit_random_corpus(max_nodes=4, seed=23, min_queries=40)
        b = audit_random_corpus(max_nodes=4, seed=23, min_queries=40)
        assert (a.graphs, a.queries, a.statements) == (
            b.graphs, b.queries, b.statements)

    def test_corpus_counts_are_pinned(self):
        report = audit_random_corpus(max_nodes=5, seed=7)
        assert (report.graphs, report.queries, report.oracle_queries,
                report.statements, report.early_stop_checks,
                report.marriage_checks) == (35, 1068, 1068, 1822, 3644, 1822)
        assert report.ok
