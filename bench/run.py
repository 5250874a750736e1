#!/usr/bin/env python3
"""gridmind benchmark: every path end to end, every layer in a traced pass.

Run from the repository root:

    python3 bench/run.py --workload test-full --seed 0 --seconds 55 --trace 0

Workloads are listed in ``session.WORKLOADS`` and in ``BENCHMARK.json``.
One run imports gridmind from this checkout's ``src/``, sets up, then runs
closed-loop rounds (see ``session.py``) until ``--seconds`` have passed,
checking every round's output. ``--trace 0`` reports the end-to-end
metrics with tracing off. ``--trace 1`` runs each step of a round both
untraced and traced, one right after the other, and reports per-layer self
times, the bridge's timings, the tracing overhead and the share of
untraced time no span explains.

The stdio bridge's timings are per-layer figures, not end-to-end ones:
from run to run they spread by 0.17 to 0.5 of their median, more than
any bound the benchmark could hold. Its step still runs in every round,
as part of a user's session and of the correctness gate. It also steadies
the other figures on a 2-core shared host. Interleaved runs with it spread
0.01 to 0.04, and runs without it 0.11 to 0.27: there, uninterrupted CPU
load meets a host speed that varies more.

Set-up, reported as ``setup_s``, is the median of five repetitions of:
importing ``gridmind.cli`` in a fresh interpreter, then one warm-up round
of 10 records and one stdio episode in this process.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
The line before it is the full report: run metadata, sample counts and the
base of every ratio. The report is also written to
``bench/results/BENCH_<workload>_seed<seed>_trace<t>.json``, and the traced
pass writes its first round's spans next to it.

Exit status: 0 when every check passed, 1 when the correctness gate failed,
2 when gridmind cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, merge_self_times, span_cost_ns

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = ROOT / ".bench_work"

SCHEMA = "gridmind-bench/1"
WARMUPS = 5
WARMUP_RECORDS = 10


def import_gridmind():
    """Import the benchmark's session module, and with it gridmind from
    ``src/``; fails unless gridmind comes from this checkout."""
    if not (SRC / "gridmind" / "__init__.py").is_file():
        raise ImportError(f"no gridmind package under {SRC}")
    sys.path.insert(0, str(SRC))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    session = importlib.import_module("session")
    gridmind = sys.modules["gridmind"]
    if Path(gridmind.__file__).resolve().parent != SRC / "gridmind":
        raise ImportError(f"gridmind was imported from {gridmind.__file__}, not {SRC}")
    return session


def child_import_s() -> float:
    """Seconds a fresh interpreter takes to import gridmind's command line
    module from ``src/``, as measured inside that interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import gridmind.cli; print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(seed: int) -> dict:
    import numpy

    return {
        "schema": SCHEMA,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def rates(rounds, count: str, seconds: str) -> list[float]:
    return [getattr(r, count) / getattr(r, seconds) for r in rounds]


def end_to_end(rounds, setup_s: float) -> tuple[dict, dict]:
    """(metrics, bases) of an untraced run.

    Rates are computed per round. A shared host can switch between a fast
    and a slow state every few seconds, with a share of time in each that
    differs from run to run; a run-wide median follows that share. So a run
    reports what nine rounds in ten sustain: the 10th percentile of the
    per-round rates and the 90th percentile of the per-round median episode
    latencies. The episode tail pools every sample of the run.
    """
    per_round = {
        "generate_rps": rates(rounds, "records", "generate_s"),
        "verify_rps": rates(rounds, "records", "verify_s"),
        "stats_rps": rates(rounds, "records", "stats_s"),
        "eval_eps": rates(rounds, "dfs_episodes", "dfs_s"),
        "eval_steps_per_s": rates(rounds, "dfs_steps", "dfs_s"),
        "optimal_eps": rates(rounds, "records", "optimal_s"),
        "episode_p50_ms": [1000 * statistics.median(r.episode_s) for r in rounds],
    }
    units = {"generate_rps": "records/s", "verify_rps": "records/s", "stats_rps": "records/s",
             "eval_eps": "episodes/s", "eval_steps_per_s": "steps/s", "optimal_eps": "episodes/s"}
    episodes = [s for r in rounds for s in r.episode_s]
    values = {"setup_s": (setup_s, "s")}
    for name, unit in units.items():
        values[name] = (percentile(per_round[name], 10), unit)
    values.update({
        "episode_p50_ms": (percentile(per_round["episode_p50_ms"], 90), "ms"),
        "episode_p99_ms": (1000 * percentile(episodes, 99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    })
    bases = {
        "rounds": len(rounds),
        "round_seeds": [rounds[0].seed, rounds[-1].seed],
        "records_per_round": rounds[0].records,
        "records": sum(r.records for r in rounds),
        "dfs_episodes": sum(r.dfs_episodes for r in rounds),
        "dfs_steps": sum(r.dfs_steps for r in rounds),
        "episode_latency_samples": len(episodes),
        "stdio_episodes": sum(r.stdio_episodes for r in rounds),
        "per_round": per_round,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, bases


def per_layer(rounds, span_cost_ns: float) -> tuple[dict, dict]:
    """(metrics, bases) from traced rounds.

    ``*_us``/``*_ms`` are mean self time per call of the span of that name,
    except ``stats.aggregate_us``: the self time of all aggregation spans
    per record aggregated (generate and stats each aggregate every record
    once), and ``harness.step_us``: the episode span's self time per step.
    ``trace.overhead_pct`` compares each traced step with its untraced run
    right before or after it.
    """
    traces = [r.trace for r in rounds]
    self_ns: dict = {}
    for t in traces:
        merge_self_times(self_ns, t.self_ns)

    def calls(name: str) -> int:
        return self_ns.get(name, (0,))[0]

    def self_s(name: str) -> float:
        return self_ns.get(name, (0, 0))[1] / 1e9

    def per_call(name: str, scale: float = 1e3) -> float:
        n, s, _ = self_ns.get(name, (0, 0, 0))
        return s / n / scale if n else 0.0

    records = sum(r.records for r in rounds)
    dfs_steps = sum(r.dfs_steps for r in rounds)
    dfs_episodes = sum(r.dfs_episodes for r in rounds)
    stdio_turns = calls("bridge.first_turn") + calls("bridge.turn")
    generate_optimal_paths = sum(
        t.phase_self_ns["generate"].get("grid.optimal_path", (0,))[0] for t in traces)
    turns = [s for r in rounds for s in r.turn_s]
    plain_s = sum(t.plain_s for t in traces)
    traced_s = sum(t.traced_s for t in traces)
    explained_s = sum(t.span_ns - t.spans * span_cost_ns for t in traces) / 1e9
    values = {
        "generate.indexed_us": (per_call("generate.indexed"), "us"),
        "generate.free_cells": (sum(t.free_cells for t in traces) / records, "count"),
        "grid.optimal_path_us": (per_call("grid.optimal_path"), "us"),
        "grid.optimal_path_per_record": (generate_optimal_paths / records, "count"),
        "grid.count_simple_paths_us": (per_call("grid.count_simple_paths"), "us"),
        "grid.transition_us": (per_call("grid.transition"), "us"),
        "stats.complexity_us": (per_call("stats.complexity"), "us"),
        "stats.aggregate_us": (1e6 * self_s("stats.aggregate") / (2 * records), "us"),
        "stats.heatmap_ms": (per_call("stats.heatmap", 1e6), "ms"),
        "cogmap.trace_us": (per_call("cogmap.trace"), "us"),
        "cogmap.thought_us": (per_call("cogmap.thought"), "us"),
        "cogmap.thought_chars": (sum(t.thought_chars for t in traces) / records, "count"),
        "cogmap.parse_plan_us": (per_call("cogmap.parse_plan"), "us"),
        "prompts.instruction_us": (per_call("prompts.instruction"), "us"),
        "prompts.observation_us": (per_call("prompts.observation"), "us"),
        "prompts.parse_observation_us": (per_call("prompts.parse_observation"), "us"),
        "dataset.build_record_us": (per_call("dataset.build_record"), "us"),
        "dataset.encode_us": (per_call("dataset.encode"), "us"),
        "dataset.decode_us": (per_call("dataset.decode"), "us"),
        "dataset.bytes_per_record": (sum(t.shard_bytes for t in traces) / records, "B"),
        "harness.step_us": (1e6 * self_s("harness.episode") / dfs_steps, "us"),
        "harness.agent_us": (per_call("harness.agent"), "us"),
        "harness.steps_per_episode": (dfs_steps / dfs_episodes, "count"),
        "bridge.turn_us": (per_call("bridge.turn"), "us"),
        "bridge.first_turn_ms": (per_call("bridge.first_turn", 1e6), "ms"),
        "bridge.request_bytes_per_turn": (
            sum(t.stdio_request_bytes for t in traces) / stdio_turns, "B"),
        "bridge.episodes_per_s": (
            sum(r.stdio_episodes for r in rounds) / sum(r.stdio_s for r in rounds), "episodes/s"),
        "bridge.turn_p50_ms": (1000 * percentile(turns, 50), "ms"),
        "bridge.turn_p99_ms": (1000 * percentile(turns, 99), "ms"),
        "trace.overhead_pct": (100 * (traced_s / plain_s - 1), "%"),
        "trace.unexplained_pct": (100 * (plain_s - explained_s) / plain_s, "%"),
        "trace.span_cost_us": (span_cost_ns / 1e3, "us"),
    }
    layers: dict = {}
    for name, (n, s, _) in self_ns.items():
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0) + s
    bases = {
        "rounds": len(rounds),
        "round_seeds": [rounds[0].seed, rounds[-1].seed],
        "records": records,
        "records_aggregated": 2 * records,
        "dfs_episodes": dfs_episodes,
        "dfs_steps": dfs_steps,
        "stdio_turns": stdio_turns,
        "stdio_episodes": sum(r.stdio_episodes for r in rounds),
        "turn_latency_samples": len(turns),
        "stdio_requests_read": sum(t.stdio_requests for t in traces),
        "spans": sum(t.spans for t in traces),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "span_cost_share_pct": 100 * sum(t.spans for t in traces) * span_cost_ns / 1e9 / plain_s,
        "span_calls": {name: v[0] for name, v in sorted(self_ns.items())},
        "layer_self_ms_per_record": {k: v / 1e6 / records for k, v in sorted(layers.items())},
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, bases


def run(session, workload_name: str, seed: int, seconds: float, trace: bool,
        records: int | None = None, stdio_episodes: int | None = None,
        warmups: int = WARMUPS) -> dict:
    """One benchmark run; returns the full report."""
    workload = session.WORKLOADS[workload_name]
    records = records or workload.records
    stdio_episodes = stdio_episodes or workload.stdio_episodes
    report = {"workload": workload_name, "trace": int(trace), "seconds": seconds,
              "meta": metadata(seed)}
    work = WORK_DIR / f"{workload_name}-{seed}-{int(trace)}-{os.getpid()}"
    pins = session.load_pins()
    pin = pins.get(workload_name)
    check_pins = (seed == pins["seed"] and pin is not None and pin["records"] == records
                  and pin["stdio_episodes"] == stdio_episodes)
    failures: list[str] = []
    attempted = failed = 0
    setups: list[float] = []
    imports: list[float] = []
    rounds: list = []
    cost_ns = 0.0
    try:
        for k in range(warmups):
            session.reset(work)
            imports.append(child_import_s())
            t0 = time.perf_counter()
            warm = session.run_round(workload, session.round_seed(seed, session.WARMUP_ROUND + k),
                                     WARMUP_RECORDS, 1, work)
            setups.append(imports[-1] + time.perf_counter() - t0)
            attempted += warm.attempted
            failed += warm.failed
            failures += warm.failures

        tracer = Tracer() if trace else None
        cost_ns = span_cost_ns() if trace else 0.0
        start = time.perf_counter()
        while not failures and (not rounds or time.perf_counter() - start < seconds):
            session.reset(work)
            r = len(rounds)
            rseed = session.round_seed(seed, r)
            result = session.run_round(workload, rseed, records, stdio_episodes, work,
                                       tracer, keep_spans=r == 0, traced_first=r % 2 == 1)
            if check_pins and r == 0:
                result.failures += session.pin_failures(pin, result.files,
                                                        session.counts_of(result))
                report["pinned_checked"] = True
            attempted += result.attempted
            failed += result.failed
            failures += result.failures
            # checked; a run keeps only each round's figures, so that its
            # peak memory does not grow with the number of rounds
            result.reports, result.stats, result.files, result.heatmaps = {}, None, [], []
            rounds.append(result)
            if trace and r == 0:
                write_spans(workload_name, seed, result.trace.first_spans)
                result.trace.first_spans = []
        report["measured_s"] = time.perf_counter() - start
    except Exception as exc:  # a gridmind call raised: one failed operation, run ends
        traceback.print_exc()
        failures.append(f"raised {exc!r}")
        failed += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, bases = {}, {}
    if rounds and not failures:
        if trace:
            metrics, bases = per_layer(rounds, cost_ns)
        else:
            metrics, bases = end_to_end(rounds, statistics.median(setups))
    bases["setup_runs_s"] = setups
    bases["setup_import_s"] = imports
    report["bases"] = bases
    report["failures"] = failures
    report["result"] = {"correct": not failures and failed == 0, "attempted": attempted,
                        "failed": failed, "metrics": metrics}
    return report


def write_spans(workload: str, seed: int, spans: list) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"SPANS_{workload}_seed{seed}.jsonl"
    with open(path, "w") as fh:
        for phase, name, start, end, parent, trace_id in spans:
            fh.write(json.dumps({"phase": phase, "name": name, "start_ns": start, "end_ns": end,
                                 "parent": parent, "id": trace_id}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        session = import_gridmind()
    except ImportError as exc:
        print(f"bench: cannot import gridmind from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.workload not in session.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(session.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    report = run(session, args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    for failure in report["failures"]:
        print(f"bench: FAILED: {failure}", file=sys.stderr)
    print(json.dumps({k: v for k, v in report.items() if k != "result"}))
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
