from __future__ import annotations

import json
import re
import tempfile
import threading
import time
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gridmind.cogmap import CotVariant
from gridmind.dataset import (
    LENGTH_KEYS,
    RECORD_KEYS,
    SPEC_KEYS,
    DatasetRecord,
    build_record,
    dataset_files,
    record_for,
    generate_dataset,
    load_records,
    load_specs,
    shard_ranges,
    sidecar_text,
    split_params,
    stats_from_files,
    verify_dataset,
)
from gridmind.generate import TRAIN_PARAMS
from gridmind.grid import GridSpec

FWD_FULL_BT = CotVariant.from_name("fwd-full-bt")
BWD_NONE = CotVariant.from_name("bwd-none")


def test_record_shape():
    params = split_params("train", seed=3)
    record = build_record(params, "train", FWD_FULL_BT, 0)
    d = record.to_json_dict()
    assert list(d) == list(RECORD_KEYS)
    assert list(d["spec"]) == list(SPEC_KEYS)
    assert list(d["lengths"]) == list(LENGTH_KEYS)
    assert [m["role"] for m in d["conversation"]] == ["human", "gpt", "human", "gpt"]
    target = d["conversation"][3]["text"]
    assert target.startswith("Thought:\n")
    assert d["lengths"]["plan_chars"] + d["lengths"]["thought_chars"] + 1 == len(target)
    assert DatasetRecord.from_json_dict(d).to_json_dict() == d


def test_lengths_count_chars_and_words():
    params = split_params("train", seed=3)
    record = build_record(params, "train", BWD_NONE, 2)
    plan_text = record.conversation[3].text
    assert record.lengths["thought_chars"] == 0
    assert record.lengths["thought_words"] == 0
    assert record.lengths["plan_chars"] == len(plan_text)
    assert record.lengths["plan_words"] == len(plan_text.split())
    opening = record.conversation[:3]
    assert record.lengths["instruction_chars"] == sum(len(t.text) for t in opening)
    assert record.lengths["instruction_words"] == sum(len(t.text.split()) for t in opening)


def test_same_index_same_environment_across_variants():
    params = split_params("test", seed=9)
    a = build_record(params, "test", FWD_FULL_BT, 4)
    b = build_record(params, "test", BWD_NONE, 4)
    assert a.spec == b.spec
    assert a.conversation[:3] == b.conversation[:3]
    assert a.conversation[3] != b.conversation[3]


def test_generate_dataset_reruns_are_byte_identical(tmp_path):
    kwargs = dict(split="train", variant=FWD_FULL_BT, count=8, seed=11, shards=2)
    paths_a = generate_dataset(tmp_path / "a", **kwargs)
    paths_b = generate_dataset(tmp_path / "b", **kwargs)
    assert [p.name for p in paths_a] == [p.name for p in paths_b]
    for pa, pb in zip(paths_a, paths_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_shard_layout_and_content_invariance(tmp_path):
    one = generate_dataset(tmp_path / "one", "train", FWD_FULL_BT, 10, seed=5, shards=1)
    three = generate_dataset(tmp_path / "three", "train", FWD_FULL_BT, 10, seed=5, shards=3)

    assert [p.name for p in one[:-1]] == ["train-fwd-full-bt-0000-of-0001.jsonl"]
    assert [p.name for p in three[:-1]] == [
        "train-fwd-full-bt-0000-of-0003.jsonl",
        "train-fwd-full-bt-0001-of-0003.jsonl",
        "train-fwd-full-bt-0002-of-0003.jsonl",
    ]
    assert one[-1].name == "train-fwd-full-bt-stats.json"

    lines_one = one[0].read_text().splitlines()
    lines_three = [l for p in three[:-1] for l in p.read_text().splitlines()]
    assert lines_one == lines_three
    assert [len(p.read_text().splitlines()) for p in three[:-1]] == [4, 3, 3]
    # the sidecars agree even though the sharding differs
    assert one[-1].read_bytes() == three[-1].read_bytes()


def test_generate_dataset_rejects_a_negative_count(tmp_path):
    with pytest.raises(ValueError, match="count >= 0"):
        generate_dataset(tmp_path / "out", "train", BWD_NONE, -3, seed=0)
    assert not (tmp_path / "out").exists()


def test_generate_dataset_checks_params_before_writing(tmp_path):
    with pytest.raises(ValueError, match="size_min <= size_max"):
        generate_dataset(tmp_path / "out", "train", BWD_NONE, 3, seed=0,
                         params=replace(TRAIN_PARAMS, size_min=6, size_max=3))
    assert not (tmp_path / "out").exists()


def test_an_empty_dataset_verifies(tmp_path):
    paths = generate_dataset(tmp_path, "train", FWD_FULL_BT, 0, seed=2, shards=2)
    assert [p.read_text() for p in paths[:-1]] == ["", ""]
    report = verify_dataset(tmp_path)
    assert (report.records, report.violations) == (0, [])


def test_shard_ranges():
    assert shard_ranges(10, 3) == [(0, 4), (4, 3), (7, 3)]
    assert shard_ranges(2, 4) == [(0, 1), (1, 1), (2, 0), (2, 0)]
    assert shard_ranges(0, 1) == [(0, 0)]
    with pytest.raises(ValueError):
        shard_ranges(10, 0)


def test_verify_clean_dataset(tmp_path):
    generate_dataset(tmp_path, "train", FWD_FULL_BT, 6, seed=2, shards=2)
    report = verify_dataset(tmp_path)
    assert report.ok
    assert report.records == 6


def test_verify_strict_rendering_also_passes(tmp_path):
    generate_dataset(tmp_path, "train", FWD_FULL_BT, 4, seed=2, strict=True)
    assert verify_dataset(tmp_path).ok


def _one_record_file(tmp_path, mutate):
    params = split_params("train", seed=2)
    obj = build_record(params, "train", FWD_FULL_BT, 0).to_json_dict()
    mutate(obj)
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(obj, separators=(",", ":")) + "\n")
    return path


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda o: o.update(complexity=o["complexity"] + 0.1), "complexity"),
        (lambda o: o["conversation"][3].update(text=o["conversation"][3]["text"] + "\nup"),
         "target text"),
        (lambda o: o["conversation"][2].update(text="Grid is elsewhere"), "opening turn"),
        (lambda o: o["lengths"].update(plan_words=999), "lengths"),
        (lambda o: o.update(variant="diagonal-bt"), "unknown variant"),
        (lambda o: o.update(split="validation"), "unknown split"),
        (lambda o: o["spec"].update(walls=[list(o["spec"]["start"])]), "bad environment"),
    ],
)
def test_verify_flags_corruption(tmp_path, mutate, needle):
    path = _one_record_file(tmp_path, mutate)
    report = verify_dataset(path)
    assert not report.ok
    assert any(needle in str(v) for v in report.violations), report.violations


@pytest.mark.parametrize("key,cast", [("thought_chars", bool), ("thought_words", float),
                                      ("plan_words", float)])
def test_a_length_that_is_not_an_int_is_rejected(tmp_path, key, cast):
    obj = build_record(split_params("train", seed=2), "train", BWD_NONE, 0).to_json_dict()
    value = cast(obj["lengths"][key])
    assert value == obj["lengths"][key]  # equal, but not an int: false, 0.0, 10.0
    obj["lengths"][key] = value
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    [violation] = verify_dataset(path).violations
    assert "hold a value that is not an int" in violation.message
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: "):
        load_records(path)


@pytest.mark.parametrize("cell", [[8.0, 1], [8.5, 1], [True, 1]])
def test_verify_flags_a_coordinate_that_is_not_an_int(tmp_path, cell):
    corridor = GridSpec(min_x=0, min_y=0, size_x=10, size_y=2, start=(0, 0), goal=(9, 0),
                        walls=frozenset((x, 1) for x in range(10)))
    obj = record_for(corridor, 0, "train", FWD_FULL_BT).to_json_dict()
    walls = obj["spec"]["walls"]
    walls[walls.index([int(cell[0]), 1])] = cell
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    assert [v.message for v in verify_dataset(path).violations] == [
        f"bad environment: wall ({cell[0]!r}, 1) has a coordinate that is not an int"
    ]


def test_complexity_is_computed_once_per_generated_record(tmp_path, monkeypatch):
    compute = GridSpec._complexity.func
    calls = []

    def counted(spec):
        calls.append(spec)
        return compute(spec)

    cached = cached_property(counted)
    cached.__set_name__(GridSpec, "_complexity")
    monkeypatch.setattr(GridSpec, "_complexity", cached)
    # the complexity floor check and the record share one computation; no
    # board of these 20 is redrawn, so every computation belongs to a record
    generate_dataset(tmp_path, "test", FWD_FULL_BT, 20, seed=0)
    assert len(calls) == 20


def test_verify_flags_wrong_key_order(tmp_path):
    def reorder(o):
        spec = o.pop("spec")
        o["spec"] = spec  # moves spec to the end

    path = _one_record_file(tmp_path, reorder)
    report = verify_dataset(path)
    assert any("record keys" in str(v) for v in report.violations)


def test_verify_flags_multiple_simple_paths(tmp_path):
    def open_room(o):
        o["spec"].update(
            min_x=0, min_y=0, size_x=2, size_y=2,
            start=[0, 0], goal=[1, 1], walls=[], pits=[],
        )

    path = _one_record_file(tmp_path, open_room)
    report = verify_dataset(path)
    assert any("2 or more" in str(v) for v in report.violations)


def test_verify_rejects_a_sealed_goal_quickly(tmp_path):
    # an open 6x6 room with the goal walled off in the corner beyond it: a
    # walk over simple paths would enumerate every one leaving the start
    def seal_goal(o):
        walls = [[6, y] for y in range(6)] + [[x, 6] for x in range(6)]
        o["spec"].update(
            min_x=0, min_y=0, size_x=7, size_y=7,
            start=[0, 0], goal=[6, 6], walls=walls, pits=[],
        )

    path = _one_record_file(tmp_path, seal_goal)
    done: list = []
    t0 = time.perf_counter()
    worker = threading.Thread(target=lambda: done.append(verify_dataset(path)), daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert done, "verify did not finish"
    assert time.perf_counter() - t0 < 1.0
    assert [v.message for v in done[0].violations] == ["expected exactly 1 simple path, found 0"]


def test_verify_flags_bad_json_and_duplicates(tmp_path):
    params = split_params("train", seed=2)
    line = build_record(params, "train", FWD_FULL_BT, 0).to_json_line()
    path = tmp_path / "data.jsonl"
    path.write_text(line + "\n" + "{oops\n" + line + "\n")
    report = verify_dataset(path)
    messages = [str(v) for v in report.violations]
    assert any("bad JSON" in m for m in messages)
    assert any("duplicate record" in m for m in messages)
    assert report.records == 3
    # violations carry file and line
    assert any(m.startswith(f"{path}:2") for m in messages)


def test_verify_flags_a_line_that_is_not_utf8_and_goes_on(tmp_path):
    params = split_params("train", seed=2)
    lines = [build_record(params, "train", BWD_NONE, i).to_json_line().encode() for i in range(2)]
    path = tmp_path / "data.jsonl"
    path.write_bytes(lines[0] + b"\n" + b'{"index": "\xff"}\n' + lines[1] + b"\n" + b"{oops\n")
    report = verify_dataset(path)
    assert report.records == 4
    assert [(v.line, v.message.split(":")[0]) for v in report.violations] == [
        (2, "bad JSON"), (4, "bad JSON")]
    assert "can't decode byte 0xff" in report.violations[0].message


def test_loaders_name_the_line_that_is_not_utf8(tmp_path):
    shard = generate_dataset(tmp_path, "train", BWD_NONE, 2, seed=4)[0]
    lines = shard.read_bytes().splitlines()
    shard.write_bytes(lines[0] + b"\n" + lines[1].replace(b'"human"', b'"hum\xe9n"', 1) + b"\n")
    for load in (load_records, load_specs, stats_from_files):
        with pytest.raises(ValueError, match=f"^{re.escape(str(shard))}:2: .*can't decode"):
            load(shard)


def test_a_directory_named_like_a_shard_is_not_read(tmp_path):
    paths = generate_dataset(tmp_path, "train", BWD_NONE, 3, seed=4)
    (tmp_path / "extra.jsonl").mkdir()
    assert dataset_files(tmp_path) == paths[:-1]
    assert verify_dataset(tmp_path).ok
    assert len(load_records(tmp_path)) == 3


def test_load_records_and_specs(tmp_path):
    paths = generate_dataset(tmp_path, "train", BWD_NONE, 5, seed=4)
    records = load_records(tmp_path)
    assert len(records) == 5
    assert [r.index for r in records] == list(range(5))
    specs = load_specs(tmp_path)
    assert specs == [r.spec for r in records]

    bare = tmp_path / "bare" / "specs.jsonl"
    bare.parent.mkdir()
    bare.write_text("\n".join(r.spec.to_json() for r in records) + "\n")
    assert load_specs(bare) == specs

    with pytest.raises(ValueError):
        junk = tmp_path / "bare" / "junk.jsonl"
        junk.write_text('{"min_x": 0}\n')
        load_specs(junk)
    assert paths[0].parent == tmp_path


def test_load_specs_names_the_line_of_a_bad_spec(tmp_path):
    records = load_records(generate_dataset(tmp_path, "train", BWD_NONE, 3, seed=4)[0])
    sealed = GridSpec(min_x=0, min_y=0, size_x=3, size_y=2, start=(0, 0), goal=(2, 0),
                      walls=frozenset({(1, 0), (1, 1)}))
    batch = tmp_path / "bare" / "specs.jsonl"
    batch.parent.mkdir()
    for bad, needle in ((sealed, "unreachable"),
                        (replace(sealed, walls=frozenset({(0, 0)})), "obstacle")):
        lines = [r.spec.to_json() for r in records]
        lines[1] = bad.to_json()
        batch.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(batch))}:2: .*{needle}"):
            load_specs(batch)


def test_loaders_name_the_line_of_a_malformed_record(tmp_path):
    shard = generate_dataset(tmp_path, "train", BWD_NONE, 2, seed=4)[0]
    lines = shard.read_text().splitlines()
    obj = json.loads(lines[1])
    del obj["spec"]
    lines[1] = json.dumps(obj)
    shard.write_text("\n".join(lines) + "\n")
    for load in (load_records, load_specs, stats_from_files):
        with pytest.raises(ValueError, match=f"^{re.escape(str(shard))}:2: "):
            load(shard)


def _key_paths(obj, prefix=()):
    """Every key path into a parsed JSON value, the empty path included."""
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _key_paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _key_paths(value, prefix + (i,))


# a small record with walls and pits, so every kind of field has a path
_FUZZ_RECORD = build_record(split_params("train", seed=2), "train", FWD_FULL_BT, 4).to_json_dict()
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_key_paths(_FUZZ_RECORD))), _json_values)
@example(("complexity",), 10**400)  # too large for a float
def test_any_json_value_in_any_field_is_reported_not_raised(key_path, value):
    obj = json.loads(json.dumps(_FUZZ_RECORD))
    if key_path:
        *parents, last = key_path
        target = obj
        for key in parents:
            target = target[key]
        target[last] = value
    else:
        obj = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        report = verify_dataset(path)
        assert report.records == 1
        for load in (load_records, load_specs, stats_from_files):
            try:
                load(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}:1: "), exc


def test_stats_sidecar_matches_the_shards(tmp_path):
    paths = generate_dataset(tmp_path, "train", FWD_FULL_BT, 8, seed=6, shards=2)
    sidecar = json.loads(paths[-1].read_text())
    report = stats_from_files(tmp_path)
    assert report.to_json_dict() == sidecar
    assert paths[-1].read_text() == sidecar_text(report)
    assert sidecar["count"] == 8


def test_verify_flags_an_edited_sidecar_at_its_first_bad_line(tmp_path):
    paths = generate_dataset(tmp_path, "train", FWD_FULL_BT, 6, seed=2, shards=2)
    sidecar = paths[-1]
    sidecar.write_text(sidecar.read_text().replace('"count": 6,', '"count": 5,', 1))
    report = verify_dataset(tmp_path)
    assert report.records == 6
    assert [str(v) for v in report.violations] == [
        f"""{sidecar}:2: stats sidecar expected '  "count": 6,', found '  "count": 5,'"""
    ]
    # a missing final newline is a difference too
    sidecar.write_text(sidecar_text(stats_from_files(tmp_path)).rstrip("\n"))
    assert [(v.file, v.line) for v in verify_dataset(tmp_path).violations] == [
        (str(sidecar), len(sidecar.read_text().split("\n")) + 1)
    ]


def test_verify_flags_a_sidecar_whose_shards_are_gone(tmp_path):
    paths = generate_dataset(tmp_path, "train", FWD_FULL_BT, 4, seed=2, shards=2)
    for shard in paths[:-1]:
        shard.unlink()
    generate_dataset(tmp_path, "train", BWD_NONE, 3, seed=2)  # another group, intact
    report = verify_dataset(tmp_path)
    assert report.records == 3
    assert [str(v) for v in report.violations] == [
        f"{paths[-1]}:1: stats sidecar has no records in its group"
    ]


def test_verify_checks_only_files_named_like_a_group_sidecar(tmp_path):
    generate_dataset(tmp_path, "train", BWD_NONE, 3, seed=2)
    (tmp_path / "notes-stats.json").write_text("my notes\n")
    (tmp_path / "train-no-such-variant-stats.json").mkdir()
    assert verify_dataset(tmp_path).ok


def test_verify_flags_an_unreadable_sidecar(tmp_path):
    paths = generate_dataset(tmp_path, "train", BWD_NONE, 3, seed=2)
    paths[-1].unlink()
    paths[-1].mkdir()
    assert [str(v) for v in verify_dataset(tmp_path).violations] == [
        f"{paths[-1]}:1: cannot read stats sidecar: Is a directory"
    ]


def test_verify_checks_sidecars_only_in_a_directory(tmp_path):
    paths = generate_dataset(tmp_path, "test", BWD_NONE, 5, seed=1, shards=2)
    paths[-1].write_text("{}\n")
    assert not verify_dataset(tmp_path).ok
    assert verify_dataset(paths[0]).ok  # a single file has no sidecar
    paths[-1].unlink()
    assert verify_dataset(tmp_path).ok


def test_dataset_files_errors(tmp_path):
    with pytest.raises(FileNotFoundError, match="missing.jsonl does not exist"):
        dataset_files(tmp_path / "missing.jsonl")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(FileNotFoundError):
        dataset_files(empty)


def test_split_params():
    p = split_params("train", seed=42)
    assert (p.size_min, p.size_max, p.seed) == (2, 10, 42)
    p = split_params("test", seed=42)
    assert (p.size_min, p.size_max, p.seed) == (2, 20, 42)
    with pytest.raises(ValueError):
        split_params("dev", seed=0)
    override = split_params("train", seed=1, params=TRAIN_PARAMS)
    assert override.seed == 1
