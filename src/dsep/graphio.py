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
import os
import re
from collections import Counter
from itertools import chain
from typing import NoReturn

from .dag import Dag, _GcPaused, _NameIndex, build_dag
from .errors import (CycleDetected, DsepError, DuplicateEdge, GraphSyntaxError,
                     InvalidArgument, SelfLoop)

_NODE_LINE = re.compile(r"^\s*node\s+(\S+)\s*$")
_EDGE_LINE = re.compile(r"^\s*(\S+)\s*->\s*(\S+)\s*$")
_NAME = re.compile(r"[A-Za-z0-9_]+\Z")
# Every sound line: node (group 1), edge (groups 2, 3), blank or comment
# (no group).  The lookahead: `node ->b` is a node line named '->b'.
_LINE = re.compile(r"\s*(?:node\s+([A-Za-z0-9_]+)|(?!node\s+->\S)"
                   r"([A-Za-z0-9_]+)\s*->\s*([A-Za-z0-9_]+))?\s*(?:#.*)?")


def _check_name(name: str, line: int | None, column: int | None) -> None:
    if type(name) is not str:
        raise GraphSyntaxError(f"node name {name!r} is not a string",
                               line=line, column=column)
    if "'" in name:
        raise GraphSyntaxError(
            f"node name {name!r} uses the prime character, which is "
            "reserved for dummy parameters", line=line, column=column)
    if not _NAME.match(name):
        raise GraphSyntaxError(
            f"invalid node name {name!r} (allowed: letters, digits, '_')",
            line=line, column=column)


def parse_graph(text: str) -> Dag:
    """Parse the text format into a Dag; errors carry line and column.

    One pass: one pattern per line, each name's id assigned at first
    sight.  A failed document is read again to word its first error.
    """
    if not isinstance(text, str):
        raise InvalidArgument(f"graph text must be a str, got {text!r:.60}")
    with _GcPaused():
        lines = text.splitlines()
        ids: dict[str, int] = {}
        assign = ids.setdefault
        pairs: list[tuple[int, int]] = []
        declared: set[str] = set()
        for m in map(_LINE.fullmatch, lines):
            if m is None:
                _raise_first_error(lines, None)
            node, tail, head = m.groups()
            if tail is not None:
                pairs.append((assign(tail, len(ids)), assign(head, len(ids))))
            elif node is not None:
                if node in declared:
                    _raise_first_error(lines, None)
                declared.add(node)
                assign(node, len(ids))
        try:
            return Dag(len(ids), pairs, names=_NameIndex(ids))
        except (CycleDetected, SelfLoop, DuplicateEdge) as exc:
            error = exc
        _raise_first_error(lines, error)


def _raise_first_error(lines: list[str], error: DsepError | None) -> NoReturn:
    """Raise the located error of the first bad line, else of the cycle
    `Dag` raised as `error`: a document with sound lines fails only so."""
    declared: set[str] = set()
    edge_lines: dict[tuple[str, str], int] = {}
    for lineno, line in enumerate(lines, start=1):
        m = _LINE.fullmatch(line)
        if m is None:   # word the error with the per-shape patterns
            line = line.split("#", 1)[0]
            shape = _NODE_LINE.match(line) or _EDGE_LINE.match(line)
            if shape:   # the shape fits, so one of its names is bad
                for group in range(1, shape.lastindex + 1):
                    _check_name(shape.group(group), lineno, shape.start(group) + 1)
            stripped = line.strip()
            raise GraphSyntaxError(
                f"expected 'node NAME' or 'TAIL -> HEAD', got {stripped!r}",
                line=lineno, column=line.index(stripped[0]) + 1)
        node, tail, head = m.groups()
        if node is not None:
            if node in declared:
                raise GraphSyntaxError(f"node {node!r} declared twice",
                                       line=lineno, column=m.start(1) + 1)
            declared.add(node)
        elif tail is not None:
            column = m.start(2) + 1
            if tail == head:
                raise SelfLoop(f"self-loop on node {tail!r}",
                               line=lineno, column=column)
            first = edge_lines.setdefault((tail, head), lineno)
            if first != lineno:
                raise DuplicateEdge(f"duplicate edge {tail} -> {head} (first "
                                    f"at line {first})", line=lineno, column=column)
    cycle = error.cycle
    steps = zip(cycle, cycle[1:] + cycle[:1])
    witness = next((edge_lines[s] for s in steps if s in edge_lines), None)
    raise CycleDetected(str(error), cycle=cycle, line=witness)


def parse_graph_json(text: str) -> Dag:
    """Parse the JSON variant, str or bytes; without "nodes", edges declare
    names.  The lists map straight to ids, each check a C-level pass or part
    of the mapping; a document failing one is reread to word its first error."""
    if not isinstance(text, (str, bytes, bytearray)):
        raise InvalidArgument(
            f"JSON graph text must be a str or bytes, got {text!r:.60}")
    with _GcPaused():
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphSyntaxError(f"invalid JSON: {exc.msg}",
                                   line=exc.lineno, column=exc.colno) from None
        except UnicodeDecodeError as exc:   # bytes that are no UTF-8
            raise GraphSyntaxError(f"invalid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise GraphSyntaxError("top-level JSON value must be an object")
        edges = doc.get("edges", [])
        try:    # an unhashable name, an unknown endpoint, an item no pair
            names = (doc["nodes"] if "nodes" in doc
                     else list(dict.fromkeys(chain.from_iterable(edges))))
            ids = dict(zip(names, range(len(names))))
            sound = (type(edges) is type(names) is list and len(ids) == len(names)
                     and set(map(type, edges)) <= {list}   # no dict, no "ab"
                     and set(map(type, names)) <= {str}
                     and all(map(_NAME.match, names)))
            pairs = [(ids[tail], ids[head]) for tail, head in edges] if sound else None
        except (TypeError, KeyError, ValueError):
            pairs = None
        if pairs is not None:
            return Dag(len(ids), pairs, names=_NameIndex(ids))
        # Reread item by item, in the order that picks which fault wins.
        if not isinstance(edges, list):
            raise GraphSyntaxError('"edges" must be a list of [tail, head] pairs')
        for item in edges:
            if type(item) is not list or len(item) != 2 or set(map(type, item)) - {str}:
                raise GraphSyntaxError(
                    f"each edge must be a [tail, head] pair of strings, got {item!r}")
        names = doc.get("nodes", list(dict.fromkeys(chain.from_iterable(edges))))
        if type(names) is not list or set(map(type, names)) - {str}:
            raise GraphSyntaxError('"nodes" must be a list of strings')
        for name in names:
            _check_name(name, None, None)
        try:
            return build_dag(names, edges)
        except ValueError:  # the one ValueError left: Dag's repeated-name check
            repeated = next(n for n, k in Counter(names).items() if k > 1)
            raise GraphSyntaxError(
                f'"nodes" lists {repeated!r} more than once') from None


def serialize_graph(dag: Dag) -> str:
    """Emit the text format; parsing it back reproduces ids, names, and edges.

    A name the format cannot hold raises GraphSyntaxError here, not at
    the later parse.
    """
    names = [dag.node_name(v) for v in range(dag.node_count)]
    for name in names:
        _check_name(name, None, None)
    lines = [f"node {name}" for name in names]
    lines.extend(f"{names[t]} -> {names[h]}" for t, h in dag.edges)
    return "\n".join(lines) + ("\n" if lines else "")


def load_graph_file(path: str, json_format: bool = False) -> Dag:
    """Read a graph document from disk in either format.  `path` is a file
    name (str, bytes or path-like), never an open file descriptor."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise InvalidArgument(f"path must be a file name, got {path!r:.60}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphSyntaxError(f"{os.fsdecode(path)}: {exc}") from None
    return parse_graph_json(text) if json_format else parse_graph(text)
