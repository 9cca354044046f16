"""The measured process: load the documents, run the op loop, report.

Started by run.py as its own process, so its peak RSS holds the
program's memory and not the generator's or the referee's.  It imports
`dsep` from the checkout's src/ directory and calls only its public
API.  It prints nothing on stdout; everything goes to result.json in
the work directory (and, when tracing, spans.tsv.gz).

Loop: closed, one client, one process, no extra threads, gc left on.
The run is a series of rounds.  Each round loads the documents afresh
(one set-up sample) and runs every op of the sequence once on the new
Dags, so every op is timed once per round, at times spread over the
run.  An op's latency is the wall time of its public calls, including
building the query object; the answer is encoded for the referee after
the clock stops.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import tracemalloc

from reference import Reference

MIN_ROUNDS = 3
# Traced ops per second of --seconds, sized so that the untraced and
# traced passes together take about --seconds on a 2-core x86 box.
TRACE_OPS_PER_S = {"ci-oracle": 300, "large-graph": 2, "audit-small": 10}
CLI_REPS = 3
LAYERS = ("bench", "dag", "engine", "reachability", "requisite",
          "moral", "oracle", "verify")


def load_all(api, docs) -> list:
    return [api.load_graph_file(path, json_format=js) for path, js in docs]


def resolve(dags, ops) -> list[tuple]:
    """Op specs by name -> (kind, dag, sources, conditioning, targets) by id."""
    out = []
    for op in ops:
        dag = dags[op["graph"]]
        ids = [frozenset(dag.node_id(nm) for nm in op.get(key, ()))
               for key in ("x", "z", "y")]
        out.append((op["kind"], dag, *ids))
    return out


def run_op(api, kind, dag, x, z, y):
    if kind == "check":
        return api.is_dseparated(dag, api.IndependenceStatement(x, z, y))
    if kind == "sepset":
        return api.dsep_set_fast(dag, api.SeparationQuery(x, z))
    if kind == "requisite":
        query = api.SeparationQuery(x, z)
        return (api.requisite_parameters(dag, query),
                api.relevant_variables(dag, query))
    return api.audit_dag(dag)


def _encode_set(dag, nodes) -> dict:
    """Names of a node set, or of its complement when that is smaller."""
    names = dag.names
    if 2 * len(nodes) <= dag.node_count:
        return {"in": sorted(names[v] for v in nodes)}
    return {"out": sorted(names[v] for v in range(dag.node_count)
                          if v not in nodes)}


def encode(kind, dag, out):
    if kind == "check":
        return bool(out)
    if kind == "sepset":
        return _encode_set(dag, out)
    if kind == "requisite":
        return [_encode_set(dag, part) for part in out]
    return {"ok": out.ok, "queries": out.queries,
            "statements": out.statements}


class Loop:
    """Runs ops in sequence order and keeps latencies and answers."""

    def __init__(self, api, resolved, tracer=None) -> None:
        self.api = api
        self.resolved = resolved
        self.tracer = tracer
        self.samples = [[] for _ in resolved]  # latencies of each op, in order
        self.weights = [1] * len(resolved)    # ops counted: an audit's queries
        self.marks = [[] for _ in resolved]   # reference sweeps before each sample
        self.refs: list[float] = []           # reference sweep times, in order
        self.setup_marks: list[int] = []      # reference sweeps before each load
        self.ops = 0
        self.op_time = 0.0
        self.answers: dict[int, object] = {}
        self.executions: dict[int, int] = {}
        self.failures: list[dict] = []
        self.links_stop = 0         # early-stop sweeps of check ops
        self.links_full = 0         # the same sweeps without a stop set

    def step(self, i: int) -> None:
        ix = i % len(self.resolved)
        kind, dag, x, z, y = self.resolved[ix]
        tracer = self.tracer
        if tracer is not None:
            before = tracer.counts["engine.links_examined.stop"]
            tracer.attach()
            token = tracer.begin_op(ix)
        error = None
        t0 = time.perf_counter()
        try:
            out = run_op(self.api, kind, dag, x, z, y)
        except Exception as exc:    # a failed op is counted, the loop goes on
            error = exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op(token)
            tracer.detach()
            if kind == "check" and error is None:
                # The same sweep without early stop, untraced, off the clock.
                self.links_stop += tracer.counts["engine.links_examined.stop"] - before
                full = self.api.fast_sweep(dag, self.api.SeparationQuery(x, z))
                self.links_full += full.links_examined
        self.samples[ix].append(t1 - t0)
        self.marks[ix].append(len(self.refs))
        self.op_time += t1 - t0
        self.executions[ix] = self.executions.get(ix, 0) + 1
        if error is not None:
            self.ops += 1
            self.failures.append({"op": ix, "kind": kind,
                                  "error": f"{type(error).__name__}: {error}"})
            return
        if kind == "audit":
            self.weights[ix] = out.queries
        self.ops += self.weights[ix]
        answer = encode(kind, dag, out)
        first = self.answers.setdefault(ix, answer)
        if first != answer:
            self.failures.append({"op": ix, "kind": kind,
                                  "error": "answer differs from the op's "
                                           "first execution"})

    def run_rounds(self, docs, ops, seconds: float,
                   reference: Reference) -> list[float]:
        """Rounds while another would end within `seconds`; MIN_ROUNDS at least.

        A round loads every document afresh, timed, then runs each op
        of the sequence once on the new Dags.  Returns the load times.
        """
        setup = []
        self.refs.append(reference.time())
        t_ref = time.perf_counter()
        t_end = t_ref + seconds
        while True:
            t_round = time.perf_counter()
            self.resolved = dags = None
            gc.collect()
            t0 = time.perf_counter()
            dags = load_all(self.api, docs)
            setup.append(time.perf_counter() - t0)
            self.setup_marks.append(len(self.refs))
            self.resolved = resolve(dags, ops)
            for ix in range(len(ops)):
                self.step(ix)
                if time.perf_counter() - t_ref >= reference.every_s:
                    self.refs.append(reference.time())
                    t_ref = time.perf_counter()
            self.refs.append(reference.time())
            t_ref = now = time.perf_counter()
            if len(setup) >= MIN_ROUNDS and now + (now - t_round) > t_end:
                return setup


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cli_check(api, docs, dags, op) -> dict:
    """Time `main(["check", ...])` in-process against load + is_dseparated."""
    from dsep.cli import main
    path, js = docs[op["graph"]]
    argv = ["check", path, "--j", ",".join(op["x"]), "--k", ",".join(op["y"]),
            "--l", ",".join(op["z"])] + (["--json"] if js else [])
    _, _, x, z, y = resolve(dags, [op])[0]
    via_cli, direct = [], []
    for _ in range(CLI_REPS):
        gc.collect()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
        via_cli.append(time.perf_counter() - t0)
        gc.collect()
        t0 = time.perf_counter()
        loaded = api.load_graph_file(path, json_format=js)
        api.is_dseparated(loaded, api.IndependenceStatement(x, z, y))
        direct.append(time.perf_counter() - t0)
        del loaded
    main_s = statistics.median(via_cli)
    return {"cli.main_s": main_s,
            "cli.overhead_s": main_s - statistics.median(direct)}


def trace_count(ops, workload: str, seconds: float) -> int:
    """Ops in the traced pass: fixed by workload and --seconds, every kind in."""
    firsts = {}
    for i, op in enumerate(ops):
        firsts.setdefault(op["kind"], i)
    return max(math.ceil(TRACE_OPS_PER_S[workload] * seconds),
               max(firsts.values()) + 1)


def per_layer(api, docs, ops, workload, seconds, out_dir):
    """The traced run: set-up spans, retained memory, traced op pass, CLI.

    Returns (metrics, info, loops).  The op pass runs each op both
    untraced and traced, in alternating order, so the tracing overhead
    is a paired comparison.
    """
    from spans import Tracer

    setup = Tracer()
    setup.prepare(api)
    setup.attach()
    token = setup.begin_op(-1)
    dags = load_all(api, docs)
    setup.end_op(token)
    setup.detach()
    resolved = resolve(dags, ops)
    parse_ns = sum(setup.total_ns[n] for n in
                   ("graphio.parse_graph", "graphio.parse_graph_json"))
    build_ns = sum(ns for name, ns in setup.self_ns.items()   # Dag construction
                   if name.startswith("dag."))
    size = sum(os.path.getsize(path) for path, _ in docs)

    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    kept = load_all(api, docs)
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()
    del kept

    tracer = Tracer()
    tracer.prepare(api)
    plain = Loop(api, resolved)
    traced = Loop(api, resolved, tracer)
    for i in range(trace_count(ops, workload, seconds)):
        first, second = (plain, traced) if i % 2 else (traced, plain)
        first.step(i)
        second.step(i)

    def s(name):
        return tracer.total_ns[name] / 1e9

    def self_s(name):
        return tracer.self_ns[name] / 1e9

    links = tracer.counts["engine.links_examined"]
    layers = tracer.layer_self_s()
    metrics = {
        "graphio.parse_s": parse_ns / 1e9,
        "graphio.self_s": (parse_ns - build_ns) / 1e9,
        "graphio.mb_per_s": size / 1e6 / (parse_ns / 1e9),
        "dag.build_s": build_ns / 1e9,
        "dag.retained_mb": retained / 1e6,
        "dag.descendant_table_s": s("dag.descendant_table"),
        "dag.descendant_table.calls": tracer.calls["dag.descendant_table"],
        "dag.doubled_graph_s": s("dag.doubled_graph"),
        "engine.fast_sweep_s": s("engine.fast_sweep"),
        "engine.links_examined": links,
        "engine.links_per_s": links / self_s("engine.fast_sweep"),
        "engine.early_stop_saving": 1 - traced.links_stop / traced.links_full,
        "engine.is_dseparated.self_s": self_s("engine.is_dseparated"),
        "engine.dsep_set_s": s("engine.dsep_set"),
        "reachability.find_reachable_s": s("reachability.find_reachable"),
        "reachability.links_labeled": tracer.counts["reachability.links_labeled"],
        "requisite.requisite_parameters_s": s("requisite.requisite_parameters"),
        "requisite.augment_s": s("requisite.augment_dummies"),
        "requisite.relevant_variables_s": s("requisite.relevant_variables"),
        "moral.moralize_s": s("moral.moralize"),
        "moral.moral_check_s": s("moral.moral_check"),
        "oracle.dsep_bruteforce_s": s("oracle.dsep_bruteforce"),
        "verify.audit_dag_s": s("verify.audit_dag"),
        "verify.statements": tracer.counts["verify.statements"],
        **{f"self.{layer}_s": layers.get(layer, 0.0) for layer in LAYERS},
        "trace.ops_per_s_untraced": plain.ops / plain.op_time,
        "trace.ops_per_s_traced": traced.ops / traced.op_time,
        "trace.overhead": traced.op_time / plain.op_time - 1,
        "trace.self_coverage": sum(layers.values()) / plain.op_time,
    }
    first_check = next(op for op in ops if op["kind"] == "check")
    metrics.update(cli_check(api, docs, dags, first_check))
    info = {"input_bytes": size, "input_edges": sum(len(d.edges) for d in dags),
            "traced_ops": traced.ops,
            "spans": tracer.write(os.path.join(out_dir, "spans.tsv.gz"))}
    return metrics, info, [plain, traced]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import dsep as api
    if not os.path.abspath(api.__file__).startswith(os.path.abspath(args.src)):
        raise SystemExit(f"dsep imported from {api.__file__}, not {args.src}")

    with open(os.path.join(args.dir, "ops.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    docs = [(os.path.join(args.dir, g["path"]), g["json"])
            for g in spec["graphs"]]

    result: dict = {}
    if args.trace:
        metrics, info, loops = per_layer(api, docs, spec["ops"], args.workload,
                                         args.seconds, args.dir)
        result["per_layer"] = metrics
        result["info"] = info
        result["ops"] = sum(lp.ops for lp in loops)
    else:
        loop = Loop(api, [None] * len(spec["ops"]))
        reference = Reference(args.workload)
        result["setup_s"] = loop.run_rounds(docs, spec["ops"], args.seconds,
                                            reference)
        result["reference_nominal_s"] = reference.nominal_s
        result["peak_rss_mb"] = peak_rss_mb()
        result["samples"] = loop.samples
        result["weights"] = loop.weights
        result["marks"] = loop.marks
        result["refs"] = loop.refs
        result["setup_marks"] = loop.setup_marks
        result["ops"] = loop.ops
        loops = [loop]

    answers: dict[int, object] = {}
    executions: dict[int, int] = {}
    failures: list[dict] = []
    for lp in loops:
        for ix, ans in lp.answers.items():
            if answers.setdefault(ix, ans) != ans:
                failures.append({"op": ix, "kind": spec["ops"][ix]["kind"],
                                 "error": "traced and untraced answers differ"})
        for ix, n in lp.executions.items():
            executions[ix] = executions.get(ix, 0) + n
        failures.extend(lp.failures)
    result["answers"] = {str(k): v for k, v in answers.items()}
    result["executions"] = {str(k): v for k, v in executions.items()}
    result["failures"] = failures
    with open(os.path.join(args.dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
