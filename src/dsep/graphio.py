"""Reading and writing graph documents.

The text format is one statement per line:

    # comment to end of line
    node NAME
    TAIL -> HEAD

Names are nonempty strings over [A-Za-z0-9_]; the prime character is
reserved for displaying dummy parameters and rejected on input.  Edge
lines register unseen names in order of first appearance, so explicit
`node` lines are only needed for isolated nodes or to pin the id order.
A JSON document with the same content -- {"nodes": [...], "edges":
[[tail, head], ...]} -- is accepted as an alternative.
"""

from __future__ import annotations

import json
import re

from .dag import Dag, build_dag
from .errors import CycleDetected, DuplicateEdge, GraphSyntaxError, SelfLoop

_NODE_LINE = re.compile(r"^\s*node\s+(\S+)\s*$")
_EDGE_LINE = re.compile(r"^\s*(\S+)\s*->\s*(\S+)\s*$")
_NAME = re.compile(r"[A-Za-z0-9_]+\Z")


def _check_name(name: str, line: int | None, column: int | None) -> None:
    if "'" in name:
        raise GraphSyntaxError(
            f"node name {name!r} uses the prime character, which is "
            "reserved for dummy parameters", line=line, column=column)
    if not _NAME.match(name):
        raise GraphSyntaxError(
            f"invalid node name {name!r} (allowed: letters, digits, '_')",
            line=line, column=column)


def parse_graph(text: str) -> Dag:
    """Parse the text format into a Dag; errors carry line and column."""
    names: list[str] = []
    declared: set[str] = set()
    known: set[str] = set()
    edges: list[tuple[str, str]] = []
    edge_lines: dict[tuple[str, str], int] = {}

    def register(name: str) -> None:
        if name not in known:
            known.add(name)
            names.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = _NODE_LINE.match(line)
        if m:
            name = m.group(1)
            _check_name(name, lineno, m.start(1) + 1)
            if name in declared:
                raise GraphSyntaxError(
                    f"node {name!r} declared twice",
                    line=lineno, column=m.start(1) + 1)
            declared.add(name)
            register(name)
            continue
        m = _EDGE_LINE.match(line)
        if m:
            tail, head = m.group(1), m.group(2)
            _check_name(tail, lineno, m.start(1) + 1)
            _check_name(head, lineno, m.start(2) + 1)
            if tail == head:
                raise SelfLoop(f"self-loop on node {tail!r}",
                               line=lineno, column=m.start(1) + 1)
            if (tail, head) in edge_lines:
                raise DuplicateEdge(
                    f"duplicate edge {tail} -> {head} (first at line "
                    f"{edge_lines[(tail, head)]})",
                    line=lineno, column=m.start(1) + 1)
            edge_lines[(tail, head)] = lineno
            register(tail)
            register(head)
            edges.append((tail, head))
            continue
        stripped = line.strip()
        column = line.index(stripped[0]) + 1
        raise GraphSyntaxError(
            f"expected 'node NAME' or 'TAIL -> HEAD', got {stripped!r}",
            line=lineno, column=column)

    try:
        return build_dag(names, edges)
    except CycleDetected as exc:
        witness_line = None
        for i in range(len(exc.cycle)):
            pair = (exc.cycle[i], exc.cycle[(i + 1) % len(exc.cycle)])
            if pair in edge_lines:
                witness_line = edge_lines[pair]
                break
        raise CycleDetected(str(exc), cycle=exc.cycle,
                            line=witness_line) from None


def parse_graph_json(text: str) -> Dag:
    """Parse the JSON variant; when "nodes" is absent, edges declare names."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphSyntaxError(f"invalid JSON: {exc.msg}",
                               line=exc.lineno, column=exc.colno) from None
    if not isinstance(doc, dict):
        raise GraphSyntaxError("top-level JSON value must be an object")
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise GraphSyntaxError('"edges" must be a list of [tail, head] pairs')
    edges: list[tuple[str, str]] = []
    for item in raw_edges:
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not all(isinstance(e, str) for e in item)):
            raise GraphSyntaxError(
                f'each edge must be a [tail, head] pair of strings, got '
                f'{item!r}')
        edges.append((item[0], item[1]))
    if "nodes" in doc:
        raw_nodes = doc["nodes"]
        if (not isinstance(raw_nodes, list)
                or not all(isinstance(n, str) for n in raw_nodes)):
            raise GraphSyntaxError('"nodes" must be a list of strings')
        names = list(raw_nodes)
    else:
        names = list(dict.fromkeys(name for edge in edges for name in edge))
    for name in names:
        _check_name(name, None, None)
    return build_dag(names, edges)


def serialize_graph(dag: Dag) -> str:
    """Emit the text format; parsing it back reproduces ids, names, and edges."""
    lines = [f"node {dag.node_name(v)}" for v in range(dag.node_count)]
    lines.extend(f"{dag.node_name(t)} -> {dag.node_name(h)}"
                 for t, h in dag.edges)
    return "\n".join(lines) + ("\n" if lines else "")


def load_graph_file(path: str, json_format: bool = False) -> Dag:
    """Read a graph document from disk in either format."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_graph_json(text) if json_format else parse_graph(text)
