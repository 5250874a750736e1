"""Closed-loop benchmark rounds through gridmind's four paths.

A round is what one user does with one fresh dataset, one step after the
other (a closed loop with one client):

1. ``generate_dataset``: the round's records in 4 shards plus the sidecar.
2. ``verify_dataset`` on those files.
3. ``stats_from_files`` plus ``export_heatmap`` for complexity and plan_chars.
4. ``evaluate_batch`` with the scripted ``dfs`` agent, ``reachable`` mode,
   200-step budget, on every record's spec.
5. ``evaluate_batch`` with each record's own target as a recorded reply
   (``plans_agent_factory``), ``optimal`` mode.
6. ``evaluate_batch`` through ``bridge_agent_factory("stdio:...")`` with
   ``workers=1`` on the first few specs; the agent is ``dfs_agent.py``.
7. ``evaluate_batch`` with the ``oracle`` agent, ``reachable`` mode. This is
   a correctness check and is not timed.

Round ``r`` under seed ``s`` draws its records from root seed
``s * 10000 + r``, so no round repeats another's inputs and a cache keyed
on boards cannot make later rounds cheaper than a user's single run.

Every round passes the correctness gate: a clean verify, stats equal to the
sidecar, all recorded optimal replies and all oracle episodes succeed, no
episode aborts, and the scripted and stdio DFS agents end only in success
or max_step. For seed 0, round 0 must also reproduce the SHA-256 of every
file and the eval counts pinned in ``pins.json``, so a speedup that changes
a byte fails. The pins change only with a deliberate change of output.

A traced round runs each timed step twice, right after one another: once
as above and once under ``tracer.instrumented()``, which routes the calls
gridmind's own functions make into its other layers through spans. Which
of the two runs first alternates from round to round, so the tracing
overhead compares work done close together in time. The traced run's
output must equal the untraced output byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import shlex
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from gridmind.bridge import bridge_agent_factory
from gridmind.cogmap import CotVariant
from gridmind.dataset import generate_dataset, load_records, load_specs, stats_from_files, verify_dataset
from gridmind.harness import (
    OPTIMAL,
    REACHABLE,
    Agent,
    evaluate_batch,
    plans_agent_factory,
    scripted_agent_factory,
)
from gridmind.stats import export_heatmap

from tracer import Tracer, instrumented, merge_self_times, self_times

BENCH_DIR = Path(__file__).resolve().parent
AGENT_SCRIPT = BENCH_DIR / "dfs_agent.py"
PINS_FILE = BENCH_DIR / "pins.json"

SHARDS = 4
HEATMAPS = ("complexity", "plan_chars")
DFS_OUTCOMES = {"success", "max_step"}
ROUND_SEED_STRIDE = 10_000
WARMUP_ROUND = 9_000


@dataclass(frozen=True)
class Workload:
    name: str
    split: str
    variant: str
    records: int  # per round
    stdio_episodes: int  # per round


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("test-full", "test", "bwd-full-marked-bt", 100, 10),
        Workload("train-plain", "train", "fwd-none", 200, 10),
    )
}


def round_seed(seed: int, round_no: int) -> int:
    return seed * ROUND_SEED_STRIDE + round_no


def stdio_endpoint(seed: int, request_log: Path | None = None) -> str:
    """The stdio agent's endpoint; with ``request_log`` the agent appends
    the number and bytes of the requests it read to that file."""
    command = [sys.executable, "-S", str(AGENT_SCRIPT), str(seed)]
    if request_log is not None:
        command.append(str(request_log))
    return "stdio:" + " ".join(shlex.quote(part) for part in command)


def sha256_files(files: list[Path]) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def load_pins() -> dict:
    return json.loads(PINS_FILE.read_text())


def pin_failures(pin: dict, files: list[Path], counts: dict[str, dict]) -> list[str]:
    """Differences between a round's files and eval counts and their pins."""
    failures = []
    got = sha256_files(files)
    if got != pin["sha256"]:
        changed = sorted(k for k in got.keys() | pin["sha256"].keys()
                         if got.get(k) != pin["sha256"].get(k))
        failures.append(f"dataset bytes differ from the pinned SHA-256: {changed}")
    for batch, expected in pin["counts"].items():
        if counts.get(batch) != expected:
            failures.append(f"{batch} counts {counts.get(batch)} != pinned {expected}")
    return failures


class _TimedAgent(Agent):
    """Times one episode from agent creation to close() or, with ``turns``,
    every respond() round trip but the first, which starts the agent."""

    def __init__(self, factory, spec, index, episode_seed, sink: "RoundResult", turns: bool):
        self._start = time.perf_counter()
        self._inner = factory(spec, index, episode_seed)
        self._sink = sink
        self._turns = turns
        self._first = True

    def respond(self, transcript):
        if not self._turns:
            return self._inner.respond(transcript)
        t0 = time.perf_counter()
        reply = self._inner.respond(transcript)
        if not self._first:
            self._sink.turn_s.append(time.perf_counter() - t0)
        self._first = False
        return reply

    def close(self, outcome):
        try:
            self._inner.close(outcome)
        finally:
            if not self._turns:
                self._sink.episode_s.append(time.perf_counter() - self._start)


@dataclass(frozen=True)
class SpanNames:
    episode: str
    first_turn: str
    turn: str


DFS_SPANS = SpanNames("harness.episode", "harness.agent", "harness.agent")
OPTIMAL_SPANS = SpanNames("harness.optimal", "harness.optimal_agent", "harness.optimal_agent")
STDIO_SPANS = SpanNames("bridge.episode", "bridge.first_turn", "bridge.turn")


class _TracedAgent(Agent):
    """Spans one episode from agent creation to close(), and each respond()."""

    def __init__(self, tracer: Tracer, names: SpanNames, factory, spec, index, episode_seed):
        tracer.trace_id = (names.episode, index)
        self._tracer = tracer
        self._names = names
        self._episode = tracer.begin(names.episode)
        self._inner = factory(spec, index, episode_seed)
        self._first = True

    def respond(self, transcript):
        name = self._names.first_turn if self._first else self._names.turn
        self._first = False
        with self._tracer.span(name):
            return self._inner.respond(transcript)

    def close(self, outcome):
        try:
            self._inner.close(outcome)
        finally:
            self._tracer.end(self._episode)


@dataclass
class TraceTotals:
    """What the traced runs of one round recorded."""

    traced_s: float = 0.0  # wall time of the traced runs
    plain_s: float = 0.0  # wall time of the untraced runs of the same steps
    spans: int = 0
    span_ns: int = 0  # total self time of all spans
    self_ns: dict = field(default_factory=dict)  # name -> [count, self ns, total ns]
    phase_self_ns: dict = field(default_factory=dict)  # step -> name -> [...]
    free_cells: int = 0
    thought_chars: int = 0
    shard_bytes: int = 0
    stdio_requests: int = 0  # as read by the agent from its stdin
    stdio_request_bytes: int = 0
    first_spans: list = field(default_factory=list)


@dataclass
class RoundResult:
    seed: int = 0
    records: int = 0
    generate_s: float = 0.0
    verify_s: float = 0.0
    stats_s: float = 0.0
    dfs_s: float = 0.0
    optimal_s: float = 0.0
    stdio_s: float = 0.0
    dfs_episodes: int = 0
    dfs_steps: int = 0
    stdio_episodes: int = 0
    episode_s: list[float] = field(default_factory=list)
    turn_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    files: list[Path] = field(default_factory=list)
    heatmaps: list[Path] = field(default_factory=list)
    stats: dict | None = None
    reports: dict = field(default_factory=dict)
    trace: TraceTotals | None = None


class _Steps:
    """Runs and times a round's steps; with a tracer, each one twice."""

    def __init__(self, res: RoundResult, tracer: Tracer | None, keep_spans: bool,
                 traced_first: bool):
        self.res = res
        self.tracer = tracer
        self.keep_spans = keep_spans
        self.order = (False,) if tracer is None else (True, False) if traced_first else (False, True)

    def run(self, name: str, fn, fingerprint):
        """``fn(traced)`` untraced, timed, and traced when there is a tracer.

        Returns the untraced result and its seconds. The traced result's
        ``fingerprint`` must equal the untraced one's.
        """
        results, seconds = {}, {}
        for traced in self.order:
            if traced:
                with instrumented(self.tracer):
                    t0 = time.perf_counter()
                    results[traced] = fn(True)
                    seconds[traced] = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                results[traced] = fn(False)
                seconds[traced] = time.perf_counter() - t0
        if self.tracer is not None:
            self._record(name, seconds)
            if fingerprint(results[True]) != fingerprint(results[False]):
                self.res.failures.append(f"traced {name} output differs from the untraced output")
        return results[False], seconds[False]

    def _record(self, name: str, seconds: dict) -> None:
        totals = self.res.trace
        spans = self.tracer.take()
        agg = self_times(spans)
        totals.phase_self_ns[name] = agg
        merge_self_times(totals.self_ns, agg)
        totals.traced_s += seconds[True]
        totals.plain_s += seconds[False]
        totals.spans += len(spans)
        totals.span_ns += sum(v[1] for v in agg.values())
        if self.keep_spans:
            totals.first_spans += [[name] + s for s in spans]


def _batch_failures(name: str, report, allowed: set[str]) -> list[str]:
    bad = {k: v for k, v in report.counts.items() if v and k not in allowed}
    out = []
    if report.aborted:
        out.append(f"{name}: {report.aborted} of {len(report.episodes)} episodes aborted")
    if bad:
        out.append(f"{name}: unexpected outcomes {bad}")
    return out


def _file_bytes(files: list[Path]) -> list[bytes]:
    return [p.read_bytes() for p in files]


def _episodes(report) -> dict:
    return report.to_json_dict()


def run_round(workload: Workload, seed: int, records: int, stdio_episodes: int, work: Path,
              tracer: Tracer | None = None, keep_spans: bool = False,
              traced_first: bool = False) -> RoundResult:
    """One round under root seed ``seed``; files go under ``work``.

    With a ``tracer`` every timed step also runs traced, before its untraced
    run when ``traced_first`` and after it otherwise; ``keep_spans`` keeps
    the spans of this round in ``result.trace.first_spans``.
    """
    data, traced_dir = work / "data", work / "traced"
    request_log = work / "stdio-requests.log"
    variant = CotVariant.from_name(workload.variant)
    res = RoundResult(seed=seed, records=records, trace=TraceTotals() if tracer else None)
    steps = _Steps(res, tracer, keep_spans, traced_first)

    def generate(traced):
        out = traced_dir / "data" if traced else data
        return generate_dataset(out, workload.split, variant, records, seed, shards=SHARDS)

    def stats_and_heatmaps(traced):
        stats = stats_from_files(data)
        heatmap = tracer.wrap(export_heatmap, "stats.heatmap") if traced else export_heatmap
        out = traced_dir / "heat" if traced else work / "heat"
        return stats, [p for metric in HEATMAPS for p in heatmap(stats, metric, out)]

    res.files, res.generate_s = steps.run("generate", generate, _file_bytes)
    verify, res.verify_s = steps.run(
        "verify", lambda traced: verify_dataset(data),
        lambda report: (report.records, [str(v) for v in report.violations]))
    (stats, res.heatmaps), res.stats_s = steps.run(
        "stats", stats_and_heatmaps, lambda out: (out[0].to_json_dict(), _file_bytes(out[1])))

    specs = load_specs(data)
    loaded = load_records(data)
    replies = [r.conversation[-1].text for r in loaded]
    stdio_specs = specs[:stdio_episodes]

    def episodes(factory, specs_, mode, spans: SpanNames, timed: bool | None = None,
                 traced_factory=None):
        """``fn(traced)`` for ``steps.run``; ``timed`` is _TimedAgent's ``turns``."""
        def run(traced):
            if traced:
                inner = traced_factory or factory
                make = lambda spec, i, s: _TracedAgent(tracer, spans, inner, spec, i, s)  # noqa: E731
            elif timed is not None:
                make = lambda spec, i, s: _TimedAgent(factory, spec, i, s, res, timed)  # noqa: E731
            else:
                make = factory
            return evaluate_batch(specs_, make, mode, seed=seed, workers=1)

        return run

    dfs, res.dfs_s = steps.run("dfs", episodes(
        scripted_agent_factory("dfs", REACHABLE), specs, REACHABLE, DFS_SPANS, timed=False),
        _episodes)
    optimal, res.optimal_s = steps.run("optimal", episodes(
        plans_agent_factory(replies, OPTIMAL), specs, OPTIMAL, OPTIMAL_SPANS), _episodes)
    stdio, res.stdio_s = steps.run("stdio", episodes(
        bridge_agent_factory(stdio_endpoint(seed)), stdio_specs, REACHABLE, STDIO_SPANS,
        timed=True, traced_factory=bridge_agent_factory(stdio_endpoint(seed, request_log))),
        _episodes)
    oracle = evaluate_batch(specs, scripted_agent_factory("oracle", REACHABLE), REACHABLE, seed=seed)

    res.reports = {"dfs": dfs, "optimal": optimal, "stdio": stdio, "oracle": oracle}
    res.dfs_episodes = len(dfs.episodes)
    res.dfs_steps = sum(e.steps for e in dfs.episodes)
    res.stdio_episodes = len(stdio.episodes)
    res.stats = stats.to_json_dict()

    # the gate: each record is one operation per path, each episode one more
    res.attempted = 3 * records + sum(len(r.episodes) for r in res.reports.values())
    bad_lines = {(v.file, v.line) for v in verify.violations}
    res.failed = len(bad_lines) + sum(r.aborted for r in res.reports.values())
    if verify.violations:
        res.failures.append(f"verify: {len(verify.violations)} violations, first: {verify.violations[0]}")
    if verify.records != records:
        res.failures.append(f"verify saw {verify.records} records, expected {records}")
    sidecar = json.loads(res.files[-1].read_text())
    if res.stats != sidecar:
        res.failures.append("stats_from_files disagrees with the generate sidecar")
    if any(p.stat().st_size == 0 for p in res.heatmaps):
        res.failures.append("an exported heatmap is empty")
    res.failures += _batch_failures("dfs", dfs, DFS_OUTCOMES)
    res.failures += _batch_failures("stdio", stdio, DFS_OUTCOMES)
    res.failures += _batch_failures("optimal", optimal, {"success"})
    res.failures += _batch_failures("oracle", oracle, {"success"})
    if len(specs) != records or len(stdio.episodes) != len(stdio_specs):
        res.failures.append("eval did not run one episode per spec")

    if tracer is not None:
        totals = res.trace
        totals.free_cells = sum(len(s.free_cells()) for s in specs)
        totals.thought_chars = sum(r.lengths["thought_chars"] for r in loaded)
        totals.shard_bytes = sum(p.stat().st_size for p in res.files[:-1])
        lines = request_log.read_text().split() if request_log.exists() else []
        if len(lines) != 2 * len(stdio_specs):
            res.failures.append("the stdio agent did not log its requests for every episode")
        totals.stdio_requests = sum(int(n) for n in lines[0::2])
        totals.stdio_request_bytes = sum(int(n) for n in lines[1::2])
    return res


def counts_of(res: RoundResult) -> dict[str, dict]:
    return {name: report.counts for name, report in res.reports.items()}


def reset(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
