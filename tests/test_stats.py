from __future__ import annotations

import csv
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import gridmind.grid as grid
from gridmind.dataset import build_record, record_metrics
from gridmind.cogmap import CotVariant
from gridmind.generate import TEST_PARAMS, TRAIN_PARAMS, generate_indexed
from gridmind.grid import GridSpec, complexity
from gridmind.stats import METRICS, StatsReport, export_heatmap, sidecar_text

from conftest import translate
from oracles import ReferenceStats, independent_complexity


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
    report = StatsReport()
    assert report.to_json_dict()["overall"]["complexity"]["mean"] is None
    for v in (2.0, 4.0, 9.0):
        report.add(3, 4, (v,) * len(METRICS))
    cell = report.to_json_dict()["cells"]["3x4"]
    assert set(cell) == set(METRICS)
    for metric in METRICS:
        assert cell[metric] == {"count": 3, "mean": 5.0, "min": 2.0, "max": 9.0, "total": 15.0}


def test_merge_is_associative_and_order_free():
    # these values sum exactly in floats, so every grouping gives the same bytes
    values = [(3, 4, 1.5), (3, 4, 2.5), (5, 6, 10.0), (5, 6, 0.5), (3, 4, 7.0)]

    def make(chunk):
        report = StatsReport()
        for x, y, v in chunk:
            report.add(x, y, (v,) * len(METRICS))
        return report

    combined_a = make(values[:2]).merge(make(values[2:]))
    combined_b = make(values[:4]).merge(make(values[4:]))
    combined_c = make(values[4:]).merge(make(values[:4]))
    whole = make(values)
    assert combined_a.to_json_dict() == whole.to_json_dict()
    assert combined_b.to_json_dict() == whole.to_json_dict()
    assert combined_c.to_json_dict() == whole.to_json_dict()


def _compensated_sum(values, start=0):
    """Neumaier's compensated sum, as Python 3.12+ ``sum()`` adds floats."""
    total, compensation = float(start), 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            compensation += (total - t) + v
        else:
            compensation += (v - t) + total
        total = t
    return total + compensation


def test_complexity_does_not_depend_on_the_interpreters_sum(monkeypatch):
    plain = [complexity(generate_indexed(TEST_PARAMS, i)) for i in range(200)]
    monkeypatch.setattr(grid, "sum", _compensated_sum, raising=False)
    assert [complexity(generate_indexed(TEST_PARAMS, i)) for i in range(200)] == plain


# -0.0, ties and repeated extremes come from the small pool
_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.1, 0.2, 0.3, 1.0, 7.0]),
    st.floats(-1e6, 1e6, allow_nan=False),
)
_CELLS = st.sampled_from([(2, 2), (9, 4), (4, 9), (20, 20)])
_ROWS = st.lists(st.tuples(_CELLS, st.tuples(*[_VALUES] * len(METRICS))), max_size=30)


def _both(rows):
    flat, reference = StatsReport(), ReferenceStats()
    for (x, y), row in rows:
        flat.add(x, y, row)
        reference.add(x, y, dict(zip(METRICS, row)))
    return flat, reference


def _reference_text(reference):
    return json.dumps(reference.to_json_dict(), indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(_ROWS, st.integers(0, 30), st.booleans())
def test_flat_aggregate_matches_the_reference(rows, cut, one_cell):
    if one_cell:
        rows = [((5, 6), row) for _, row in rows]
    flat, reference = _both(rows)
    assert sidecar_text(flat) == _reference_text(reference)
    assert flat.to_json_dict() == reference.to_json_dict()
    (flat_head, ref_head), (flat_tail, ref_tail) = _both(rows[:cut]), _both(rows[cut:])
    assert flat_head.to_json_dict() == ref_head.to_json_dict()  # empty when cut is 0
    assert flat_tail.to_json_dict() == ref_tail.to_json_dict()
    assert sidecar_text(flat_head.merge(flat_tail)) == _reference_text(ref_head.merge(ref_tail))


def test_report_json_round_trip():
    report = StatsReport()
    for index in range(10):
        spec = generate_indexed(TRAIN_PARAMS, index)
        record = build_record(TRAIN_PARAMS, "train", CotVariant.from_name("fwd-full-bt"), index)
        report.add(*record.metrics())
        assert record.spec == spec
    d = report.to_json_dict()
    assert json.loads(sidecar_text(report)) == d
    for stats in (report, StatsReport()):
        assert sidecar_text(stats) == json.dumps(stats.to_json_dict(), indent=2) + "\n"
    assert d["count"] == 10
    assert set(d["overall"]) == set(METRICS)


def test_record_metrics_of_the_line_match_the_built_record():
    test_record = build_record(TEST_PARAMS, "test", CotVariant.from_name("bwd-full-marked-bt"), 5)
    assert test_record.metrics() == record_metrics(test_record.to_json_dict())
    record = build_record(TRAIN_PARAMS, "train", CotVariant.from_name("bwd-none"), 3)
    from_obj = record.metrics()
    from_dict = record_metrics(record.to_json_dict())
    assert from_obj == from_dict
    size_x, size_y, row = from_obj
    assert (size_x, size_y) == (record.spec.size_x, record.spec.size_y)
    assert type(row) is tuple and len(row) == len(METRICS)
    assert all(type(v) is float for v in row)
    assert row[0] == record.complexity
    # a silent variant's whole reply is the plan
    assert row[METRICS.index("thought_chars")] == 0
    assert row[METRICS.index("plan_chars")] == len(record.conversation[-1].text)
    with pytest.raises(ValueError):
        record_metrics({"nope": 1})


def test_dataset_stats_and_heatmap_export(tmp_path):
    records = [
        build_record(TRAIN_PARAMS, "train", CotVariant.from_name("fwd-none"), i)
        for i in range(30)
    ]
    report = StatsReport()
    for record in records:
        report.add(*record.metrics())
    assert report.to_json_dict()["count"] == 30

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
    report.add(4, 7, (1.0,) * len(METRICS))
    report.add(4, 7, (2.0,) * len(METRICS))
    report.add(12, 3, (8.0,) * len(METRICS))
    csv_path, _ = export_heatmap(report, "complexity", tmp_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    col_of = {int(v): i for i, v in enumerate(header[1:], start=1)}
    row_of = {int(r[0]): r for r in rows[1:]}
    assert row_of[7][col_of[4]] == "1.5000"
    assert row_of[3][col_of[12]] == "8.0000"
    assert row_of[3][col_of[4]] == ""
