"""In-memory spans around calls into dsep's public functions.

`Tracer.attach` replaces each listed public function, wherever a dsep
module holds a reference to it, with a wrapper that records one span:
name, start, end, parent span and op id.  Calls between layers (say
`fast_sweep` calling `descendant_table`) therefore nest, and a layer's
self time is its span time minus the time of the spans it caused.
`detach` puts the original functions back, so untraced calls pay
nothing.  Nothing is written until `write` is called at the end of a
run.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name).  The span name's first component is
# the layer.  `Dag.__init__` stands for every Dag construction.
WRAPPED = (
    ("graphio", "load_graph_file", "graphio.load_graph_file"),
    ("graphio", "parse_graph", "graphio.parse_graph"),
    ("graphio", "parse_graph_json", "graphio.parse_graph_json"),
    ("dag", "build_dag", "dag.build_dag"),
    ("dag", "Dag.__init__", "dag.Dag"),
    ("dag", "descendant_table", "dag.descendant_table"),
    ("dag", "doubled_graph", "dag.doubled_graph"),
    ("dag", "ancestral_set", "dag.ancestral_set"),
    ("engine", "fast_sweep", "engine.fast_sweep"),
    ("engine", "dsep_set", "engine.dsep_set"),
    ("engine", "dsep_set_fast", "engine.dsep_set_fast"),
    ("engine", "is_dseparated", "engine.is_dseparated"),
    ("reachability", "find_reachable", "reachability.find_reachable"),
    ("requisite", "augment_dummies", "requisite.augment_dummies"),
    ("requisite", "requisite_parameters", "requisite.requisite_parameters"),
    ("requisite", "relevant_variables", "requisite.relevant_variables"),
    ("moral", "moralize", "moral.moralize"),
    ("moral", "moral_check", "moral.moral_check"),
    ("oracle", "dsep_bruteforce", "oracle.dsep_bruteforce"),
    ("verify", "audit_dag", "verify.audit_dag"),
)
ROOT = "bench.op"


def _count(counts: Counter, name: str, args, kwargs, result) -> None:
    """Exact work counts read off the results the program returns."""
    if name == "engine.fast_sweep":
        stopped = kwargs.get("stop_at", args[2] if len(args) > 2 else None)
        counts["engine.links_examined"] += result.links_examined
        if stopped is not None:
            counts["engine.links_examined.stop"] += result.links_examined
    elif name == "reachability.find_reachable":
        levels = result.link_levels
        counts["reachability.links_labeled"] += len(levels) - levels.count(None)
    elif name == "verify.audit_dag":
        counts["verify.statements"] += result.statements


class Tracer:
    """Span store plus per-name totals, filled while attached."""

    def __init__(self) -> None:
        self.op_id = -1
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._kids = array("q")       # time covered by child spans
        self._stack = [-1]
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object, object]] = []

    def _open(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        span = len(self.start)
        self.name.append(ix)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.start.append(0)
        self.end.append(0)
        self._kids.append(0)
        self._stack.append(span)
        return span

    def _close(self, span: int, name: str, t0: int, t1: int) -> None:
        self._stack.pop()
        self.start[span] = t0
        self.end[span] = t1
        took = t1 - t0
        parent = self._stack[-1]
        if parent >= 0:
            self._kids[parent] += took
        self.self_ns[name] += took - self._kids[span]
        self.total_ns[name] += took
        self.calls[name] += 1

    def wrap(self, name: str, fn):
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = self._open(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, name, t0, clock())
            _count(self.counts, name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_op(self, op_id: int) -> tuple[int, int]:
        self.op_id = op_id
        return self._open(ROOT), time.perf_counter_ns()

    def end_op(self, token: tuple[int, int]) -> None:
        span, t0 = token
        self._close(span, ROOT, t0, time.perf_counter_ns())

    def prepare(self, package) -> None:
        """Find every reference to a WRAPPED function in `package`'s modules."""
        prefix = package.__name__
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == prefix or
                                         key.startswith(prefix + "."))]
        for module, attr, name in WRAPPED:
            home = sys.modules[f"{prefix}.{module}"]
            if attr == "Dag.__init__":
                original = home.Dag.__init__
                self._patches.append((home.Dag, "__init__", original,
                                      self.wrap(name, original)))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original, wrapper))

    def attach(self) -> None:
        """Route calls through the wrappers: spans are recorded."""
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def detach(self) -> None:
        """Put the original functions back: nothing is recorded."""
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer, the root span's share under 'bench'."""
        out: Counter = Counter()
        for name, ns in self.self_ns.items():
            out[name.split(".", 1)[0]] += ns / 1e9
        return dict(out)

    def write(self, path: str) -> int:
        """Write every span as one tab-separated line; returns the count."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tparent\top\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{names[self.name[i]]}\t{self.parent[i]}\t"
                         f"{self.op[i]}\t{self.start[i]}\t{self.end[i]}\n")
        return len(self.start)
