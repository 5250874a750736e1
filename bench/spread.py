#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

Run from the repository root:

    python3 bench/spread.py --workload test-full --seeds 1-10 --seconds 55 [--trace 1]

For every metric it prints the median over the runs, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, which is how run-to-run spread is judged against the
bounds in ``BENCHMARK.json``. Runs are sequential, one process at a time.
The per-run results and the summary go to ``bench/results/SPREAD_*.json``;
``bench/baseline/`` keeps one such set per workload and trace mode.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(statistics.median(values)) if statistics.median(values) else None,
            "values": values,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="run")
    args = parser.parse_args()

    bounds = {}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in bench["end_to_end"]:
        bounds[metric["name"]] = metric["bound"]

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        *_, detail, last = proc.stdout.strip().splitlines()
        result = json.loads(last)
        result["seed"] = seed
        result["meta"] = json.loads(detail)["meta"]
        runs.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}",
              file=sys.stderr, flush=True)

    summary = summarize(runs)
    for name, s in summary.items():
        bound = bounds.get(name)
        flag = ""
        if bound is not None and s["spread"] is not None:
            flag = "ok" if s["spread"] < bound / 3 else ("within bound" if s["spread"] < bound else "TOO WIDE")
        print(f"{name:32s} {s['median']:14.4f} {s['unit']:10s} spread {s['spread'] or 0:7.3f}"
              f"  bound {bound if bound is not None else '-':>5}  {flag}")
    out = BENCH_DIR / "results" / f"SPREAD_{args.workload}_trace{args.trace}_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                               "trace": args.trace, "runs": runs, "summary": summary},
                              indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
