"""End-to-end command-line behavior, including exact output bytes."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dsep
from dsep.cli import main

from .conftest import DATA_DIR

WEB7 = str(DATA_DIR / "web7.txt")
WEB7_JSON = str(DATA_DIR / "web7.json")
DIAMOND4 = str(DATA_DIR / "diamond4.txt")


class TestDsepCommand:
    def test_web7_single_separated_node(self, capsys):
        assert main(["dsep", WEB7, "--j", "n4", "--l", "n2"]) == 0
        assert capsys.readouterr().out == "n3\n"

    def test_web7_empty_result_prints_blank_line(self, capsys):
        assert main(["dsep", WEB7, "--j", "n4", "--l", "n2,n6"]) == 0
        assert capsys.readouterr().out == "\n"

    def test_diamond4_output_is_name_ordered(self, capsys):
        assert main(["dsep", DIAMOND4, "--j", "2"]) == 0
        assert capsys.readouterr().out == "1 3\n"

    def test_faithful_engine_gives_identical_output(self, capsys):
        main(["dsep", DIAMOND4, "--j", "2", "--fast"])
        fast = capsys.readouterr().out
        main(["dsep", DIAMOND4, "--j", "2", "--faithful"])
        assert capsys.readouterr().out == fast

    def test_engine_flags_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["dsep", DIAMOND4, "--j", "2", "--fast", "--faithful"])

    def test_unknown_node_name_is_an_input_error(self, capsys):
        assert main(["dsep", WEB7, "--j", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "bogus" in err

    def test_missing_file_is_an_input_error(self, capsys):
        assert main(["dsep", "no/such/file.txt", "--j", "a"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_overlapping_sets_are_an_input_error(self, capsys):
        assert main(["dsep", WEB7, "--j", "n4", "--l", "n4"]) == 2
        assert "disjoint" in capsys.readouterr().err


class TestCheckCommand:
    def test_holding_statement_exits_zero(self, capsys):
        code = main(["check", WEB7, "--j", "n4", "--l", "n2", "--k", "n3"])
        assert code == 0
        assert capsys.readouterr().out == "HOLDS\n"

    @pytest.mark.parametrize("l", ["n2", "n2,n6"])
    def test_json_document_gives_the_text_documents_verdict(self, capsys, l):
        args = ["--j", "n4", "--l", l, "--k", "n3"]
        code = main(["check", WEB7_JSON, "--json", *args])
        out = capsys.readouterr().out
        assert (code, out) == (main(["check", WEB7, *args]),
                               capsys.readouterr().out)

    def test_failing_statement_exits_one(self, capsys):
        code = main(["check", WEB7, "--j", "n4", "--l", "n2,n6",
                     "--k", "n3"])
        assert code == 1
        assert capsys.readouterr().out == "FAILS\n"

    def test_multinode_sets_parse(self, capsys):
        code = main(["check", WEB7, "--j", "n1,n2", "--l", "n5",
                     "--k", "n6,n7"])
        assert code in (0, 1)
        assert capsys.readouterr().out in ("HOLDS\n", "FAILS\n")


class TestRequisiteCommand:
    def test_diamond4_worked_example_bytes(self, capsys):
        assert main(["requisite", DIAMOND4, "--j", "3"]) == 0
        assert capsys.readouterr().out == (
            "parameters: 1' 3'\nvariables: 1 4\n")

    def test_empty_variable_list_prints_bare_label(self, capsys, tmp_path):
        chain = tmp_path / "chain.txt"
        chain.write_text("a -> b\nb -> c\n")
        assert main(["requisite", str(chain), "--j", "c", "--l", "b"]) == 0
        assert capsys.readouterr().out == "parameters: c'\nvariables:\n"


class TestVerifyCommand:
    def test_fixture_graph_is_clean(self, capsys):
        assert main(["verify", DIAMOND4]) == 0
        out = capsys.readouterr().out
        assert "agreement: OK" in out
        assert "queries checked: 32" in out

    def test_numeric_mode_reports_confirmations(self, capsys):
        code = main(["verify", DIAMOND4, "--numeric", "--trials", "2",
                     "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "soundness violations: 0" in out

    def test_skipped_referees_are_reported(self, capsys, tmp_path):
        graph = tmp_path / "chain13.txt"
        graph.write_text("".join(f"v{i} -> v{i + 1}\n" for i in range(12)))
        assert main(["verify", str(graph), "--numeric"]) == 0
        out = capsys.readouterr().out
        assert "trail-oracle cross-checks: 0\n" in out
        assert "trail oracle: skipped (graph exceeds 12 nodes)\n" in out
        assert out.endswith(
            "agreement: OK\n"
            "numeric check: skipped (numeric checking is capped at 12 "
            "nodes, graph has 13)\n")

    def test_disagreements_exit_one(self, capsys, monkeypatch):
        monkeypatch.setattr("dsep.verify.dsep_set_fast", lambda dag, query: (
            dsep.dsep_set(dag, query) | query.conditioning))
        assert main(["verify", DIAMOND4, "--numeric"]) == 1
        lines = capsys.readouterr().out.splitlines()
        # 4 sources, 7 non-empty conditioning sets each; the first 20 are
        # listed, and the numeric check does not run
        at = lines.index("agreement: 28 DISAGREEMENTS")
        listed = lines[at + 1:]
        assert len(listed) == 20
        assert all(line.startswith("  Dag(nodes=4, edges=3) sources={")
                   for line in listed)

    def test_soundness_violation_exits_one(self, capsys, monkeypatch):
        real = dsep.cli.check_theorem2

        def unsound(dag, trials, seed, *, soundness_tol):
            report = real(dag, trials, seed, soundness_tol=soundness_tol)
            first = next(o for o in report.outcomes if o.separated)
            return dataclasses.replace(report, outcomes=tuple(
                dataclasses.replace(o, max_violation=1.0) if o is first
                else o for o in report.outcomes))

        monkeypatch.setattr("dsep.cli.check_theorem2", unsound)
        assert main(["verify", DIAMOND4, "--numeric", "--trials", "2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "agreement: OK" in lines
        assert lines[-1] == "soundness violations: 1"
        confirmed = next(line for line in lines
                         if line.startswith("separated triples confirmed: "))
        done, total = map(int, confirmed.rsplit(" ", 1)[1].split("/"))
        assert done == total - 1 > 0

    def test_random_mode_runs_until_quota(self, capsys):
        assert main(["verify", "--random", "4", "11"]) == 0
        out = capsys.readouterr().out
        assert "agreement: OK" in out

    def test_graph_or_random_required(self, capsys):
        assert main(["verify"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_numeric_rejected_with_random(self, capsys):
        assert main(["verify", "--random", "4", "11", "--numeric"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_tolerance_is_a_usage_error(self, capsys):
        assert main(["verify", DIAMOND4, "--numeric", "--tol", "-1"]) == 2
        out, err = capsys.readouterr()
        assert "tolerance must be nonnegative" in err
        assert out == ""

    def test_zero_trials_is_a_usage_error(self, capsys):
        assert main(["verify", DIAMOND4, "--numeric", "--trials", "0"]) == 2
        out, err = capsys.readouterr()
        assert "at least one trial network" in err
        assert out == ""


class TestBenchCommand:
    def test_table_output(self, capsys):
        assert main(["bench", "--family", "star", "--sizes", "32,64"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split()[0] == "family"
        assert len(out.splitlines()) == 7

    def test_sizes_must_be_integers(self, capsys):
        assert main(["bench", "--sizes", "ten"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_sizes_rejected(self, capsys):
        assert main(["bench", "--sizes", ","]) == 2
        assert "error:" in capsys.readouterr().err

    def test_too_small_size_names_the_minimum(self, capsys):
        assert main(["bench", "--family", "chain", "--sizes", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: chain needs edge_count at least 2, got 1\n")

    def test_random_size_its_nodes_cannot_hold_fails_at_once(self):
        src = str(Path(dsep.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "dsep.cli", "bench", "--family", "random",
             "--sizes", "11"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stderr == "error: 5 nodes cannot hold 11 forward edges\n"
        assert done.stdout == ""


class TestJsonInput:
    def test_json_flag_switches_parser(self, capsys, tmp_path):
        doc = tmp_path / "g.json"
        doc.write_text('{"edges": [["a", "b"], ["c", "b"]]}')
        assert main(["dsep", str(doc), "--j", "a", "--json"]) == 0
        assert capsys.readouterr().out == "c\n"

    def test_text_parser_rejects_json_document(self, capsys, tmp_path):
        doc = tmp_path / "g.json"
        doc.write_text('{"edges": [["a", "b"]]}')
        assert main(["dsep", str(doc), "--j", "a"]) == 2
        assert "error:" in capsys.readouterr().err
