"""Steadiness report: run the benchmark on several seeds and compare the
run-to-run spread of each metric with its bound in BENCHMARK.json.

    python3 perfbench/steady.py --workloads trajectory,montecarlo --seeds 1-10
    python3 perfbench/steady.py --trace 1 --seeds 1-3

Runs are sequential, one process at a time.  For each workload and metric
it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (third minus
first quartile, over the median) and the metric's bound; a spread at or
above a third of the bound is flagged.  The whole table, with every run's
last line, is written to perfbench/out/steady-trace<t>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    table = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(last)
            print(f"{workload} seed {seed}: correct={last['correct']} failed={last['failed']}/{last['attempted']}",
                  file=sys.stderr)
        rows = {}
        for metric in runs[0]["metrics"]:
            values = [run["metrics"][metric]["value"] for run in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                            "bound": bounds.get(metric), "unit": runs[0]["metrics"][metric]["unit"]}
        table[workload] = {"runs": runs, "metrics": rows,
                           "all_correct": all(run["correct"] for run in runs)}
        for metric, row in rows.items():
            bound = row["bound"]
            flag = "  <-- spread >= bound/3" if bound is not None and row["spread"] >= bound / 3 else ""
            print(f"{workload:14s} {metric:44s} median {row['median']:12.6g} q1 {row['q1']:12.6g} "
                  f"q3 {row['q3']:12.6g} spread {row['spread']:7.4f} bound {bound}{flag}")
    out = HERE / "out" / f"steady-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
