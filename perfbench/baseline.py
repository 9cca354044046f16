"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads ci-oracle,...]
                                  [--seconds 30] [--write]

For every workload and end-to-end metric it prints the median over the
seeds and the spread: the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median.  With
--write the summary of each workload run replaces that workload's entry
in perfbench/baseline.json.  Runs are made one
after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import gen  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(gen.WORKLOADS))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
               encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                check=True, capture_output=True, text=True).stdout
            runs.append(json.loads(out.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']}",
                  file=sys.stderr)
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            rows[name] = {"median": statistics.median(values),
                          "unit": runs[0]["metrics"][name]["unit"],
                          "spread": spread(values),
                          "bound": bounds.get(name)}
            print(f"{workload:12s} {name:18s} median {rows[name]['median']:12.6g}"
                  f" {rows[name]['unit']:4s} spread {rows[name]['spread']:7.3f}"
                  f" bound {rows[name]['bound']}")
        summary[workload] = {
            "seeds": seed_list(args.seeds),
            "all_correct": all(r["correct"] for r in runs),
            "metrics": rows}
    if args.write:
        path = os.path.join(HERE, "baseline.json")
        kept = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                kept = json.load(fh)["workloads"]
        kept.update(summary)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"seconds": args.seconds, "workloads": kept}, fh,
                      indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
