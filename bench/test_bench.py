"""Self-tests for the benchmark, at tiny counts.

Run from the repository root: ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

session = run.import_gridmind()
from gridmind.dataset import verify_dataset  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def reports() -> dict:
    """One tiny run per workload and trace mode: 8 records, 1 stdio episode."""
    return {
        (name, trace): run.run(session, name, 3, 0.01, trace, records=8, stdio_episodes=1,
                               warmups=1)
        for name in session.WORKLOADS
        for trace in (False, True)
    }


def test_result_schema(reports):
    for (name, trace), report in reports.items():
        result = report["result"]
        assert list(result) == ["correct", "attempted", "failed", "metrics"]
        assert result["correct"] is True, report["failures"]
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert result["failed"] == 0
        for metric, entry in result["metrics"].items():
            assert NAME_RE.match(metric), metric
            assert set(entry) == {"value", "unit"}, metric
            assert UNIT_RE.match(entry["unit"]), (metric, entry["unit"])
            assert isinstance(entry["value"], float) and math.isfinite(entry["value"]), metric
        meta = report["meta"]
        for key in ("git_revision", "python", "numpy", "nproc", "loadavg_start", "seed"):
            assert key in meta
        assert report["bases"]["rounds"] >= 1
        json.dumps(report)


def test_benchmark_json_lists_what_the_command_emits(reports):
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(session.WORKLOADS)
    declared = {
        False: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        True: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for (name, trace), report in reports.items():
        emitted = {k: v["unit"] for k, v in report["result"]["metrics"].items()}
        assert emitted == declared[trace], (name, trace)


def test_benchmark_json_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                              "per_layer"}
    assert BENCHMARK["paths"] == ["bench"]
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("higher", "lower") and 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for m in BENCHMARK["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_tampered_shard_fails_the_gate(tmp_path):
    pins = session.load_pins()
    workload = session.WORKLOADS["train-plain"]
    pin = pins[workload.name]
    res = session.run_round(workload, session.round_seed(pins["seed"], 0), pin["records"],
                            pin["stdio_episodes"], tmp_path)
    assert res.failures == []
    assert session.pin_failures(pin, res.files, session.counts_of(res)) == []

    shard = res.files[0]
    data = bytearray(shard.read_bytes())
    data[len(data) // 2] ^= 1
    shard.write_bytes(bytes(data))
    failures = session.pin_failures(pin, res.files, session.counts_of(res))
    assert len(failures) == 1 and shard.name in failures[0]
    assert not verify_dataset(tmp_path / "data").ok


def test_pinned_counts_are_checked(tmp_path):
    pins = session.load_pins()
    pin = pins["train-plain"]
    counts = {name: dict(c) for name, c in pin["counts"].items()}
    counts["dfs"]["success"] -= 1
    counts["dfs"]["max_step"] += 1
    files = [tmp_path / name for name in pin["sha256"]]
    for path in files:
        path.write_text("")
    failures = session.pin_failures(pin, files, counts)
    assert any(f.startswith("dfs counts") for f in failures)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "test-full", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    outer = tr.begin("a.outer")
    inner = tr.begin("b.inner")
    tr.end(inner)
    tr.end(outer)
    spans = tr.take()
    spans[0][1:3] = [0, 100]
    spans[1][1:3] = [10, 40]
    assert self_times(spans) == {"a.outer": [1, 70, 100], "b.inner": [1, 30, 30]}
    assert spans[1][3] == 0


def test_instrumented_traces_the_programs_own_calls(tmp_path):
    import gridmind.dataset as dataset
    import gridmind.stats as stats
    from tracer import instrumented

    originals = (dataset.build_record, dataset.json, stats.StatsReport.merge)
    tr = Tracer()
    variant = session.CotVariant.from_name("bwd-full-marked-bt")
    with instrumented(tr):
        session.generate_dataset(tmp_path, "test", variant, 3, 5, shards=2)
        assert session.verify_dataset(tmp_path).ok
    calls = {name: agg[0] for name, agg in self_times(tr.take()).items()}
    assert calls["dataset.build_record"] == 3 and calls["dataset.encode"] == 3
    assert calls["dataset.decode"] == 3 and calls["dataset.check_record"] == 3
    assert calls["cogmap.trace"] == 6 and calls["grid.count_simple_paths"] == 3
    assert (dataset.build_record, dataset.json, stats.StatsReport.merge) == originals
