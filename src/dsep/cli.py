"""Command-line interface.

Exit codes: 0 for success (and for HOLDS), 1 for a failed check or a
detected disagreement, 2 for malformed input of any kind.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .bench import DEFAULT_SEED, FAMILIES, run_bench
from .dag import Dag
from .engine import (
    IndependenceStatement,
    SeparationQuery,
    dsep_set,
    dsep_set_fast,
    is_dseparated,
)
from .errors import DsepError, OracleScaleExceeded
from .graphio import load_graph_file
from .oracle import TRAIL_NODE_LIMIT, _check_numeric_settings, check_theorem2
from .requisite import relevant_variables, requisite_parameters
from .verify import audit_dag, audit_random_corpus


def _split_names(raw: str) -> list[str]:
    return [part for part in (p.strip() for p in raw.split(",")) if part]


def _resolve(dag: Dag, raw: str) -> frozenset[int]:
    return frozenset(dag.node_id(name) for name in _split_names(raw))


def _format_nodes(dag: Dag, nodes: frozenset[int], suffix: str = "") -> str:
    return " ".join(dag.node_name(v) + suffix for v in sorted(nodes))


def _add_query_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("graph", help="path to a graph document")
    parser.add_argument("--json", action="store_true",
                        help="read the graph as JSON instead of text")
    parser.add_argument("--j", required=True,
                        help="source node names, comma separated")
    parser.add_argument("--l", default="",
                        help="conditioning node names, comma separated")


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--fast", dest="method", action="store_const",
                       const="fast", help="linear-time engine (default)")
    group.add_argument("--faithful", dest="method", action="store_const",
                       const="faithful",
                       help="doubled-graph breadth-first engine")
    parser.set_defaults(method="fast")


def _cmd_dsep(args: argparse.Namespace) -> int:
    dag = load_graph_file(args.graph, json_format=args.json)
    query = SeparationQuery(_resolve(dag, args.j), _resolve(dag, args.l))
    engine = dsep_set_fast if args.method == "fast" else dsep_set
    print(_format_nodes(dag, engine(dag, query)))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    dag = load_graph_file(args.graph, json_format=args.json)
    statement = IndependenceStatement(
        _resolve(dag, args.j), _resolve(dag, args.l), _resolve(dag, args.k))
    holds = is_dseparated(dag, statement, method=args.method)
    print("HOLDS" if holds else "FAILS")
    return 0 if holds else 1


def _cmd_requisite(args: argparse.Namespace) -> int:
    dag = load_graph_file(args.graph, json_format=args.json)
    query = SeparationQuery(_resolve(dag, args.j), _resolve(dag, args.l))
    parameters = requisite_parameters(dag, query)
    variables = relevant_variables(dag, query)
    print(("parameters: " + _format_nodes(dag, parameters, "'")).rstrip())
    print(("variables: " + _format_nodes(dag, variables)).rstrip())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.numeric:        # a usage error, before any report line
        _check_numeric_settings(args.trials, args.tol)
    if args.random is not None:
        if args.numeric:
            raise DsepError("--numeric needs a graph file, not --random")
        max_nodes, seed = args.random
        report = audit_random_corpus(max_nodes, seed, min_queries=1000)
        numeric_dag = None
    else:
        if args.graph is None:
            raise DsepError("verify needs a graph file or --random N SEED")
        numeric_dag = load_graph_file(args.graph, json_format=args.json)
        report = audit_dag(numeric_dag)

    print(f"graphs checked: {report.graphs}")
    print(f"queries checked: {report.queries}")
    print(f"trail-oracle cross-checks: {report.oracle_queries}")
    print(f"statements checked: {report.statements}")
    print(f"early-stop comparisons: {report.early_stop_checks}")
    print(f"marriage-rule comparisons: {report.marriage_checks}")
    if report.queries > report.oracle_queries and args.random is None:
        print(f"trail oracle: skipped (graph exceeds {TRAIL_NODE_LIMIT} "
              f"nodes)")
    failures = (report.disagreements + report.early_stop_disagreements
                + report.marriage_disagreements)
    if failures:
        print(f"agreement: {len(failures)} DISAGREEMENTS")
        for item in failures[:20]:
            print(f"  {item}")
        return 1
    print("agreement: OK")

    if args.numeric and numeric_dag is not None:
        try:
            numeric = check_theorem2(numeric_dag, args.trials, args.seed,
                                     soundness_tol=args.tol)
        except OracleScaleExceeded as exc:
            print(f"numeric check: skipped ({exc})")
            return 0
        confirmed = numeric.separated_count - len(numeric.soundness_violations)
        found = numeric.connected_count - len(numeric.dependence_misses)
        print(f"numeric networks per verdict: {numeric.trials}")
        print(f"separated triples confirmed: "
              f"{confirmed}/{numeric.separated_count}")
        print(f"connected triples with dependence: "
              f"{found}/{numeric.connected_count}")
        print(f"soundness violations: {len(numeric.soundness_violations)}")
        if numeric.soundness_violations:
            return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes = [int(s) for s in _split_names(args.sizes)]
    if not sizes:
        raise DsepError("--sizes needs at least one edge count")
    report = run_bench(args.family, sizes, seed=args.seed)
    print(report.table())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsep",
        description="d-separation queries on directed acyclic graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dsep", help="print every node separated from --j "
                                    "given --l")
    _add_query_args(p)
    _add_engine_args(p)
    p.set_defaults(func=_cmd_dsep)

    p = sub.add_parser("check", help="verify one separation statement")
    _add_query_args(p)
    p.add_argument("--k", required=True,
                   help="target node names, comma separated")
    _add_engine_args(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("requisite",
                       help="requisite tables and relevant observations "
                            "for a query")
    _add_query_args(p)
    p.set_defaults(func=_cmd_requisite)

    p = sub.add_parser("verify",
                       help="cross-check all engines against each other")
    p.add_argument("graph", nargs="?", default=None,
                   help="path to a graph document")
    p.add_argument("--json", action="store_true",
                   help="read the graph as JSON instead of text")
    p.add_argument("--random", nargs=2, type=int, metavar=("NODES", "SEED"),
                   default=None,
                   help="audit random graphs of up to NODES nodes instead "
                        "of a file")
    p.add_argument("--numeric", action="store_true",
                   help="also compare verdicts against exact joint tables")
    p.add_argument("--trials", type=int, default=5,
                   help="networks per verdict for --numeric (default 5)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"seed for --numeric sampling (default "
                        f"{DEFAULT_SEED})")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="soundness tolerance for --numeric (default 1e-9)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="time the engines on graph families")
    p.add_argument("--family", choices=FAMILIES, default="chain")
    p.add_argument("--sizes", default="10000,100000",
                   help="edge counts, comma separated")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DsepError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
