from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import replace

import pytest

from gridmind.cogmap import CotVariant
from gridmind.dataset import (
    LENGTH_KEYS,
    RECORD_KEYS,
    SPEC_KEYS,
    DatasetRecord,
    build_record,
    dataset_files,
    generate_dataset,
    load_records,
    load_specs,
    shard_ranges,
    split_params,
    stats_from_files,
    verify_dataset,
)
from gridmind.generate import TRAIN_PARAMS
from gridmind.grid import GridSpec
from gridmind.stats import StatsReport

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


def test_stats_sidecar_matches_the_shards(tmp_path):
    paths = generate_dataset(tmp_path, "train", FWD_FULL_BT, 8, seed=6, shards=2)
    sidecar = json.loads(paths[-1].read_text())
    report = stats_from_files(tmp_path)
    assert report.to_json_dict() == sidecar
    assert StatsReport.from_json_dict(sidecar).to_json_dict() == sidecar
    assert sidecar["count"] == 8


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
