"""In-memory spans for the traced benchmark pass.

A span is ``[name, start_ns, end_ns, parent, trace_id]``. Names are
``<layer>.<operation>``, where the layer is a gridmind module. Spans of one
record or episode share a trace id. A span's self time is its duration
minus the durations of its direct children; spans nest strictly because the
pass is single-threaded.

Spans come from ``instrumented()``, which swaps traced wrappers in for the
names gridmind's functions look up at call time (``gridmind.dataset``'s
``build_record``, ``gridmind.harness``'s ``transition`` and so on) and
restores them afterwards, and from the benchmark's own agent wrappers
around each episode and turn. No file under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import statistics
import time
import types
from contextlib import contextmanager

# (module, name, span name): calls that gridmind's functions make into
# other layers, by the name they look up at call time. ``Class.method``
# wraps a method; ``json.loads`` gives that module alone a ``json`` whose
# ``loads`` is traced. A missing name is skipped, so a refactor that stops
# using one shows as fewer spans, not as a crash. Several names may share a
# span name: their self times add up.
CROSS_LAYER_CALLS = (
    ("gridmind.dataset", "build_record", "dataset.build_record"),
    ("gridmind.dataset", "_check_record", "dataset.check_record"),
    ("gridmind.dataset", "DatasetRecord.to_json_line", "dataset.encode"),
    ("gridmind.dataset", "json.loads", "dataset.decode"),
    ("gridmind.dataset", "generate_indexed", "generate.indexed"),
    ("gridmind.dataset", "render_parts", "cogmap.render"),
    ("gridmind.dataset", "render_instruction", "prompts.instruction"),
    ("gridmind.dataset", "complexity", "stats.complexity"),
    ("gridmind.dataset", "count_simple_paths", "grid.count_simple_paths"),
    ("gridmind.dataset", "dataset_stats", "stats.aggregate"),
    ("gridmind.stats", "StatsReport.add", "stats.aggregate"),
    ("gridmind.stats", "StatsReport.merge", "stats.aggregate"),
    ("gridmind.generate", "optimal_path", "grid.optimal_path"),
    ("gridmind.generate", "complexity", "stats.complexity"),
    ("gridmind.stats", "optimal_path", "grid.optimal_path"),
    ("gridmind.cogmap", "optimal_path", "grid.optimal_path"),
    ("gridmind.cogmap", "build_search_trace", "cogmap.trace"),
    ("gridmind.cogmap", "serialize_thought", "cogmap.thought"),
    ("gridmind.cogmap", "serialize_plan", "cogmap.plan"),
    ("gridmind.harness", "optimal_path", "grid.optimal_path"),
    ("gridmind.harness", "transition", "grid.transition"),
    ("gridmind.harness", "render_instruction", "prompts.instruction"),
    ("gridmind.harness", "render_observation", "prompts.observation"),
    ("gridmind.harness", "parse_observation", "prompts.parse_observation"),
    ("gridmind.harness", "parse_plan", "cogmap.parse_plan"),
)

# A span of one of these names starts a new trace id: the record being
# built, or the line being decoded and then checked or aggregated.
TRACE_ROOTS = {"dataset.build_record", "dataset.decode"}


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer.begin(self.name)

    def __exit__(self, *exc):
        self.tracer.end(self.index)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.trace_id: object = None
        self._open: list[int] = []
        self._roots = 0

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, 0, 0, parent, self.trace_id])
        self._open.append(index)
        self.spans[index][1] = time.perf_counter_ns()
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def wrap(self, fn, name: str):
        root = name in TRACE_ROOTS

        def traced(*args, **kwargs):
            if root:
                self.trace_id = (name, self._roots)
                self._roots += 1
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def take(self) -> list[list]:
        """Hand over the recorded spans and start an empty list."""
        if self._open:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans


class _ModuleProxy:
    """A module with some attributes replaced, for one importer alone."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextmanager
def instrumented(tracer: Tracer):
    """Route the calls in CROSS_LAYER_CALLS through spans."""
    saved = []
    try:
        for module_name, name, span_name in CROSS_LAYER_CALLS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            traced = tracer.wrap(fn, span_name)
            if isinstance(owner, types.ModuleType) and owner is not module:
                saved.append((module, owner_name, owner))
                setattr(module, owner_name, _ModuleProxy(owner, **{attr: traced}))
            else:
                saved.append((owner, attr, fn))
                setattr(owner, attr, traced)
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def self_times(spans: list[list]) -> dict[str, list[int]]:
    """Per span name: [count, self ns, total ns]."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, list[int]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        agg = out.setdefault(name, [0, 0, 0])
        agg[0] += 1
        agg[1] += end - start - child_ns[i]
        agg[2] += end - start
    return out


def merge_self_times(into: dict[str, list[int]], more: dict[str, list[int]]) -> None:
    for name, values in more.items():
        agg = into.setdefault(name, [0, 0, 0])
        for k in range(3):
            agg[k] += values[k]


def span_cost_ns(batches: int = 5, per_batch: int = 20000) -> float:
    """Median cost of one empty span, begin to end, as the pass records it."""
    costs = []
    for _ in range(batches):
        tracer = Tracer()
        t0 = time.perf_counter_ns()
        for _ in range(per_batch):
            with tracer.span("calibrate.empty"):
                pass
        costs.append((time.perf_counter_ns() - t0) / per_batch)
    return statistics.median(costs)
