from __future__ import annotations

import csv
import json
import math

import pytest

from gridmind import GridSpec, StatsReport, complexity, export_heatmap
from gridmind.dataset import build_record, sidecar_text
from gridmind.cogmap import CotVariant
from gridmind.generate import TEST_PARAMS, TRAIN_PARAMS, generate_indexed
from gridmind.stats import METRICS, MetricAgg, record_metrics

from conftest import translate
from oracles import independent_complexity


def test_reference_environment_is_five_forks(ref_env):
    assert complexity(ref_env) == pytest.approx(5 * math.log(2), abs=1e-12)


def test_corridor_complexity_counts_backward_moves():
    # a single forced step offers no choice at all
    two_cells = GridSpec(
        min_x=0, min_y=0, size_x=2, size_y=2, start=(0, 0), goal=(1, 0),
        walls=frozenset({(0, 1), (1, 1)}),
    )
    assert complexity(two_cells) == 0.0
    # interior corridor cells can always step back the way they came
    corridor = GridSpec(
        min_x=0, min_y=0, size_x=4, size_y=2, start=(0, 0), goal=(3, 0),
        walls=frozenset({(0, 1), (1, 1), (2, 1), (3, 1)}),
    )
    assert complexity(corridor) == pytest.approx(2 * math.log(2), abs=1e-12)


def test_complexity_matches_oracle_on_random_envs():
    for index in range(200):
        spec = generate_indexed(TEST_PARAMS, index)
        assert complexity(spec) == pytest.approx(independent_complexity(spec), abs=1e-9)


def test_complexity_is_translation_invariant():
    for index in range(30):
        spec = generate_indexed(TRAIN_PARAMS, index)
        shift_x = 19 - spec.max_x
        shift_y = 19 - spec.max_y
        moved = translate(spec, spec.min_x + shift_x, spec.min_y + shift_y)
        assert complexity(moved) == pytest.approx(complexity(spec), abs=1e-12)


def test_extra_branch_raises_complexity():
    corridor = GridSpec(
        min_x=0, min_y=0, size_x=4, size_y=2, start=(0, 0), goal=(3, 0),
        walls=frozenset({(0, 1), (1, 1), (2, 1), (3, 1)}),
    )
    forked = GridSpec(
        min_x=0, min_y=0, size_x=4, size_y=2, start=(0, 0), goal=(3, 0),
        walls=frozenset({(0, 1), (2, 1), (3, 1)}),
    )
    assert complexity(forked) > complexity(corridor)


def test_metric_agg_basics():
    agg = MetricAgg()
    assert agg.mean is None
    for v in (2.0, 4.0, 9.0):
        agg.add(v)
    assert agg.count == 3
    assert agg.mean == pytest.approx(5.0)
    assert agg.vmin == 2.0 and agg.vmax == 9.0
    assert agg.to_dict() == {"count": 3, "mean": 5.0, "min": 2.0, "max": 9.0, "total": 15.0}


def test_merge_is_associative_and_order_free():
    values = [(3, 4, 1.5), (3, 4, 2.5), (5, 6, 10.0), (5, 6, 0.5), (3, 4, 7.0)]

    def make(chunk):
        report = StatsReport()
        for x, y, v in chunk:
            report.add(x, y, {"complexity": v})
        return report

    combined_a = make(values[:2]).merge(make(values[2:]))
    combined_b = make(values[:4]).merge(make(values[4:]))
    whole = make(values)
    assert combined_a.to_json_dict() == whole.to_json_dict()
    assert combined_b.to_json_dict() == whole.to_json_dict()


def test_report_json_round_trip():
    report = StatsReport()
    for index in range(10):
        spec = generate_indexed(TRAIN_PARAMS, index)
        record = build_record(TRAIN_PARAMS, "train", CotVariant.from_name("fwd-full-bt"), index)
        report.add(*record_metrics(record))
        assert record.spec == spec
    d = report.to_json_dict()
    assert json.loads(sidecar_text(report)) == d
    for stats in (report, StatsReport()):
        assert sidecar_text(stats) == json.dumps(stats.to_json_dict(), indent=2) + "\n"
    assert d["count"] == 10
    assert set(d["overall"]) == set(METRICS)


def test_record_metrics_accepts_dicts_and_objects():
    record = build_record(TRAIN_PARAMS, "train", CotVariant.from_name("bwd-none"), 3)
    from_obj = record_metrics(record)
    from_dict = record_metrics(record.to_json_dict())
    assert from_obj == from_dict
    assert from_obj[0] == record.spec.size_x
    # a silent variant's whole reply is the plan
    assert from_obj[2]["thought_chars"] == 0
    assert from_obj[2]["plan_chars"] == len(record.conversation[-1].text)
    with pytest.raises(ValueError):
        record_metrics({"nope": 1})


def test_overall_rejects_unknown_metric():
    report = StatsReport()
    with pytest.raises(ValueError):
        report.overall("speed")


def test_dataset_stats_and_heatmap_export(tmp_path):
    records = [
        build_record(TRAIN_PARAMS, "train", CotVariant.from_name("fwd-none"), i)
        for i in range(30)
    ]
    report = StatsReport()
    for record in records:
        report.add(*record_metrics(record))
    assert report.count == 30

    files = export_heatmap(report, "complexity", tmp_path)
    assert [p.name for p in files] == ["complexity.csv", "complexity.svg"]

    with open(files[0], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [""] + [str(s) for s in range(2, 21)]
    assert len(rows) == 20
    body = [cell for row in rows[1:] for cell in row[1:]]
    filled = [cell for cell in body if cell]
    assert filled and all(len(cell.split(".")[1]) == 4 for cell in filled)

    svg = files[1].read_text()
    assert svg.startswith("<svg ")
    assert 'stroke="red"' in svg
    assert "complexity (mean)" in svg
    assert svg.count("<rect") == len(report.cells) + 3  # cells + bg + outline + bar

    with pytest.raises(ValueError):
        export_heatmap(report, "velocity", tmp_path)


def test_heatmap_values_match_report(tmp_path):
    report = StatsReport()
    report.add(4, 7, {m: 1.0 for m in METRICS})
    report.add(4, 7, {m: 2.0 for m in METRICS})
    report.add(12, 3, {m: 8.0 for m in METRICS})
    csv_path, _ = export_heatmap(report, "complexity", tmp_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    col_of = {int(v): i for i, v in enumerate(header[1:], start=1)}
    row_of = {int(r[0]): r for r in rows[1:]}
    assert row_of[7][col_of[4]] == "1.5000"
    assert row_of[3][col_of[12]] == "8.0000"
    assert row_of[3][col_of[4]] == ""
