from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import gridmind.dataset as dataset
from gridmind.cogmap import ALL_VARIANTS, CotVariant, join_reply, render_parts
from gridmind.dataset import (
    LENGTH_KEYS,
    MAX_LINE_BYTES,
    QUOTE_CHARS,
    RECORD_KEYS,
    SPEC_KEYS,
    SPLITS,
    DatasetRecord,
    build_record,
    dataset_files,
    record_for,
    generate_dataset,
    load_records,
    load_specs,
    shard_ranges,
    split_params,
    stats_from_files,
    verify_dataset,
)
from gridmind.generate import TRAIN_PARAMS, generate_indexed
from gridmind.grid import GridSpec
from gridmind.prompts import GPT, PromptText
from gridmind.harness import load_plans
from gridmind.stats import sidecar_text

import oracles
from conftest import small_boards
from oracles import record_line, spec_line

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
    # a thought before the plan, on a board with pits and walls
    record = build_record(split_params("test", seed=3), "test", FWD_FULL_BT, 5)
    thought, plan = render_parts(record.spec, FWD_FULL_BT)
    assert record.conversation[3].text == join_reply(thought, plan)
    assert record.spec.walls and record.spec.pits and thought
    assert record.lengths["thought_chars"] == len(thought)
    assert record.lengths["thought_words"] == len(thought.split())
    assert record.lengths["plan_chars"] == len(plan)
    assert record.lengths["plan_words"] == len(plan.split())
    opening = record.conversation[:3]
    assert record.lengths["instruction_chars"] == sum(len(t.text) for t in opening)
    assert record.lengths["instruction_words"] == sum(len(t.text.split()) for t in opening)


@settings(max_examples=300, deadline=None)
@given(split=st.sampled_from(["train", "test"]), variant=st.sampled_from(ALL_VARIANTS),
       strict=st.booleans(), index=st.integers(0, 10 ** 6))
def test_word_counts_are_split_counts(split, variant, strict, index):
    """Every text a record renders is counted as ``str.split()`` counts it."""
    spec = generate_indexed(split_params(split, seed=17), index)
    record = record_for(spec, index, split, variant, strict)
    thought, plan = render_parts(spec, variant, strict)
    assert record.conversation[3].text == join_reply(thought, plan)
    assert record.lengths["instruction_words"] == sum(
        len(t.text.split()) for t in record.conversation[:3])
    assert record.lengths["thought_words"] == len(thought.split())
    assert record.lengths["plan_words"] == len(plan.split())


@settings(max_examples=100, deadline=None)
@given(index=st.integers(0, 10 ** 6),
       cut=st.sampled_from([(), ("walls",), ("pits",), ("walls", "pits")]), text=st.text())
def test_the_record_line_is_json_dumps_of_its_dict_form(index, cut, text):
    for split in SPLITS:
        spec = generate_indexed(split_params(split, seed=23), index)
        for variant in ALL_VARIANTS:
            record = record_for(spec, index, split, variant)
            assert record.to_json_line() == record_line(record)
        # a hand-built spec, its obstacles sorted on first read, with a reply
        # whose text json must escape
        hand = GridSpec(spec.min_x, spec.min_y, spec.size_x, spec.size_y, spec.start, spec.goal,
                        frozenset() if "walls" in cut else spec.walls,
                        frozenset() if "pits" in cut else spec.pits)
        conversation = record.conversation[:3] + [PromptText(GPT, text)]
        record = replace(record, spec=hand, conversation=conversation)
        assert record.to_json_line() == record_line(record)


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


def test_generate_dataset_checks_the_split_even_with_params(tmp_path):
    with pytest.raises(ValueError, match="unknown split 'bogus'"):
        generate_dataset(tmp_path / "out", "bogus", BWD_NONE, 2, seed=1, params=TRAIN_PARAMS)
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
        # the spec's canonical form: obstacle lists sorted, each cell once
        pytest.param(lambda o: o["spec"]["walls"].reverse(),
                     "spec walls are not sorted and distinct", id="reversed walls"),
        pytest.param(lambda o: o["spec"]["walls"].insert(0, o["spec"]["walls"][0]),
                     "spec walls are not sorted and distinct", id="a wall twice"),
        pytest.param(lambda o: o["spec"]["pits"].reverse(),
                     "spec pits are not sorted and distinct", id="reversed pits"),
        pytest.param(lambda o: o["spec"]["pits"].append(o["spec"]["pits"][-1]),
                     "spec pits are not sorted and distinct", id="a pit twice"),
        pytest.param(lambda o: o["spec"].update(seed="abc"),
                     "seed 'abc' is not None or an int >= 0", id="a string seed"),
        pytest.param(lambda o: o["spec"].update(seed=1.5),
                     "seed 1.5 is not None or an int >= 0", id="a float seed"),
        pytest.param(lambda o: o["spec"].update(seed=-3),
                     "seed -3 is not None or an int >= 0", id="a negative seed"),
        pytest.param(lambda o: o.update(complexity=o["complexity"] + 1e-12),
                     "complexity", id="complexity off by 1e-12"),
        pytest.param(lambda o: o["conversation"][1].update(extra=1),
                     "turn keys ['role', 'text', 'extra']", id="an extra turn key"),
        pytest.param(lambda o: o.update(spec="abc"), "spec is not a JSON object",
                     id="a string spec"),
        pytest.param(lambda o: o.update(lengths=[1]), "lengths is not a JSON object",
                     id="a list of lengths"),
        pytest.param(lambda o: o["conversation"].__setitem__(2, "up"),
                     "turn is not a JSON object", id="a string turn"),
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


def test_verify_floods_each_board_once_and_generate_none(tmp_path, monkeypatch):
    solve = GridSpec._solution.func
    calls = []

    def counted(spec):
        calls.append(spec)
        return solve(spec)

    cached = cached_property(counted)
    cached.__set_name__(GridSpec, "_solution")
    monkeypatch.setattr(GridSpec, "_solution", cached)
    # tree growth hands its path over: the complexity floor and the record
    # read it without a search
    generate_dataset(tmp_path, "test", FWD_FULL_BT, 20, seed=0)
    assert calls == []
    # one flood per decoded board gives the path, its uniqueness and its complexity
    assert verify_dataset(tmp_path).ok
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


# lines json.loads refuses for its own limits: nesting depth (RecursionError)
# and the digits of an int (a ValueError that is no JSONDecodeError)
DECODER_LIMITS = {"deep": "[" * 200_000, "long_int": "1" * 5000}


def test_verify_flags_lines_past_the_decoders_limits_and_goes_on(tmp_path):
    line = build_record(split_params("train", seed=2), "train", BWD_NONE, 0).to_json_line()
    path = tmp_path / "data.jsonl"
    lines = [line, DECODER_LIMITS["deep"], line, DECODER_LIMITS["long_int"], line]
    path.write_text("\n".join(lines) + "\n")
    report = verify_dataset(path)
    assert report.records == 5
    assert [v.line for v in report.violations] == [2, 3, 4, 5]
    assert [v.message.startswith("bad JSON: ") for v in report.violations] == [
        True, False, True, False]
    # the line after each one is still checked: it repeats the first record
    assert all(v.message.startswith("duplicate record") for v in report.violations[1::2])


@pytest.mark.parametrize("probe", sorted(DECODER_LIMITS))
def test_loaders_name_a_line_past_the_decoders_limits(tmp_path, probe):
    record = build_record(split_params("train", seed=2), "train", BWD_NONE, 0).to_json_line()
    path = tmp_path / "data.jsonl"
    for load, first in ((stats_from_files, record), (load_specs, record),
                        (load_plans, '{"text": "up"}')):
        path.write_text(first + "\n" + DECODER_LIMITS[probe] + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
            load(path)


@pytest.mark.parametrize("size", [MAX_LINE_BYTES, MAX_LINE_BYTES + 1, 2 << 20])
def test_verify_flags_a_line_over_the_cap_and_goes_on(tmp_path, size):
    line = build_record(split_params("train", seed=2), "train", BWD_NONE, 0).to_json_line()
    long = '"' + "x" * (size - 2) + '"'
    path = tmp_path / "data.jsonl"
    path.write_text(long + "\n" + line + "\n" + line + "\n" + long)  # the last with no newline
    report = verify_dataset(path)
    assert report.records == 4
    assert [v.line for v in report.violations] == [1, 3, 4]
    over = f"bad JSON: line over the {MAX_LINE_BYTES}-byte cap"
    assert [v.message == over for v in report.violations[::2]] == [size > MAX_LINE_BYTES] * 2
    # line 2 was read whole and checked: line 3 repeats it
    assert report.violations[1].message.endswith(f"(also in {path}:2)")


def test_loaders_name_a_line_over_the_cap(tmp_path):
    record = build_record(split_params("train", seed=2), "train", BWD_NONE, 0).to_json_line()
    path = tmp_path / "data.jsonl"
    path.write_text('"' + "x" * (2 << 20) + '"\n' + record + "\n")
    for load in (stats_from_files, load_specs, load_records, load_plans):
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: line over the "):
            load(path)


# JSON values that decode but are not objects
NOT_OBJECTS = ('"abc"', "[1, 2]", "3")


def test_verify_flags_a_line_that_is_not_an_object_and_goes_on(tmp_path):
    record = build_record(split_params("train", seed=2), "train", BWD_NONE, 0).to_json_line()
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(NOT_OBJECTS + (record, record)) + "\n")
    report = verify_dataset(path)
    assert report.records == 5
    assert [str(v) for v in report.violations[:3]] == [
        f"{path}:{line}: bad JSON: not a JSON object" for line in (1, 2, 3)]
    # line 4 was decoded and checked: line 5 repeats it
    [duplicate] = report.violations[3:]
    assert (duplicate.line, duplicate.message.endswith(f"(also in {path}:4)")) == (5, True)


SPEC_SHAPES = {"start": "a JSON array of 2 items", "goal": "a JSON array of 2 items",
               "walls": "a JSON array of arrays of 2 items",
               "pits": "a JSON array of arrays of 2 items"}


@pytest.mark.parametrize("key,value,message", [
    ("conversation", 5, "conversation is not a JSON array"),
    ("variant", [1], "variant is not a JSON string"),
    ("walls", 5, f"walls is not {SPEC_SHAPES['walls']}"),
    ("start", 5, f"start is not {SPEC_SHAPES['start']}"),
    ("pits", "ab", f"pits is not {SPEC_SHAPES['pits']}"),
    ("goal", [1, 2, 3], f"goal is not {SPEC_SHAPES['goal']}"),
    ("walls", [[1, [2]]], "walls has a coordinate that is a JSON array or object"),
    ("pits", [[{"a": 1}, 2]], "pits has a coordinate that is a JSON array or object"),
], ids=["a number conversation", "a list variant", "a number walls", "a number start",
        "a string pits", "a goal of 3 items", "an array in a wall", "an object in a pit"])
def test_a_field_of_the_wrong_json_type_is_named(tmp_path, key, value, message):
    good = build_record(split_params("train", seed=2), "train", BWD_NONE, 0).to_json_dict()
    in_spec = key in SPEC_SHAPES
    bad = {**good, "spec": {**good["spec"], key: value}} if in_spec else {**good, key: value}
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(json.dumps(obj) for obj in (bad, good, good)) + "\n")
    report = verify_dataset(path)
    assert report.records == 3
    # line 2 was decoded and checked: line 3 repeats it
    assert [str(v) for v in report.violations] == [
        f"{path}:1: {message}",
        f"{path}:3: duplicate record ('train', 'bwd-none', 0) (also in {path}:2)"]
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: {message}$"):
        load_records(path)
    if in_spec:  # from a record line and from a bare spec line
        bare = tmp_path / "spec.jsonl"
        bare.write_text(json.dumps(bad["spec"]) + "\n")
        for target in (path, bare):
            with pytest.raises(ValueError, match=f"^{re.escape(str(target))}:1: {message}$"):
                load_specs(target)


@pytest.mark.parametrize("key", ["split", "variant"])
def test_an_unknown_name_is_quoted_in_cut_form(tmp_path, key):
    good = build_record(split_params("train", seed=2), "train", BWD_NONE, 0).to_json_dict()
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps({**good, key: "x" * 100_000}) + "\n")
    [violation] = verify_dataset(path).violations
    text = repr("x" * 100_000)
    assert violation.message == (
        f"unknown {key} {text[:QUOTE_CHARS]}... ({len(text) - QUOTE_CHARS} characters cut)")


@pytest.mark.parametrize("line", NOT_OBJECTS + ("[1]",))
def test_loaders_name_a_line_that_is_not_an_object(tmp_path, line):
    record = build_record(split_params("train", seed=2), "train", BWD_NONE, 0).to_json_line()
    path = tmp_path / "data.jsonl"
    path.write_text(line + "\n" + record + "\n")
    for load in (stats_from_files, load_specs, load_records, load_plans):
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: not a JSON object$"):
            load(path)


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
    bare.write_text("\n".join(spec_line(r.spec) for r in records) + "\n")
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
    two_paths = GridSpec(min_x=0, min_y=0, size_x=2, size_y=2, start=(0, 0), goal=(1, 1))
    for bad, needle in ((sealed, "unreachable"),
                        (replace(sealed, walls=frozenset({(0, 0)})), "obstacle"),
                        (two_paths, "expected exactly 1 simple path, found 2 or more$")):
        lines = [spec_line(r.spec) for r in records]
        lines[1] = spec_line(bad)
        batch.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(batch))}:2: .*{needle}"):
            load_specs(batch)


@settings(max_examples=300, deadline=None)
@given(small_boards())
def test_load_specs_accepts_exactly_the_boards_with_one_path(spec):
    assume(oracles.shortest_path_length(spec) is not None)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "specs.jsonl"
        path.write_text(spec_line(spec) + "\n")
        if len(oracles.enumerate_simple_paths(spec, cap=2)) == 1:
            assert load_specs(path) == [spec]
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: expected exactly 1"):
                load_specs(path)


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


def _a_pair(value) -> bool:
    return type(value) is list and len(value) == 2


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SPEC_SHAPES)), st.integers(-1, 2), st.integers(-1, 1),
       _json_values | st.lists(st.lists(st.integers(0, 9), max_size=3), max_size=3))
def test_a_spec_field_of_any_json_shape_is_named_or_decoded(key, at, within, value):
    """A value put in place of a spec's cell field, of one of its cells
    (``at`` >= 0), or of a coordinate of that cell (``within`` >= 0 too) is
    named by the field's expected type unless it has it. A wall or pit
    coordinate that is a JSON array or object is named as one."""
    obj = json.loads(json.dumps(_FUZZ_RECORD))
    paired = key in ("start", "goal")
    cells = [obj["spec"][key]] if paired else obj["spec"][key]
    if 0 <= at < len(cells) and within >= 0:
        cells[at][within] = value
    elif not paired and 0 <= at < len(cells):
        cells[at] = value
    else:
        obj["spec"][key] = value
    cells = obj["spec"][key]
    shaped = _a_pair(cells) if paired else type(cells) is list and all(map(_a_pair, cells))
    nested = shaped and not paired and any(type(c) in (list, dict) for cell in cells for c in cell)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        messages = [v.message for v in verify_dataset(path).violations]
        named = (f"{key} is not {SPEC_SHAPES[key]}" if not shaped else
                 f"{key} has a coordinate that is a JSON array or object" if nested else None)
        if named is not None:
            assert messages == [named]
            with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:1: {named}')}$"):
                load_specs(path)
        else:
            assert not any(m.startswith(key) for m in messages)


# good record lines with distinct indices, one of which a mutation replaces
_GOOD_LINES = [build_record(split_params("train", seed=2), "train", FWD_FULL_BT, i).to_json_line()
               for i in (3, 4, 5)]


@st.composite
def _mutated_lines(draw):
    """(the lines of a file, the 1-based number of its mutated line, and
    whether the mutation must be flagged: stray bytes may land where JSON
    allows them)."""
    lines = [line.encode() for line in _GOOD_LINES]
    bad = draw(st.integers(0, len(lines) - 1))
    line = lines[bad]
    values = [m.end() for m in re.finditer(rb'":', line)]  # where a value starts
    numbers = [m.span() for m in re.finditer(rb"(?<=[:,\[])-?[0-9][0-9.e+-]*", line)]
    texts = [m.end() for m in re.finditer(rb'"text":"', line)]
    kind = draw(st.sampled_from(["nest", "number", "string", "truncate", "stray"]))
    if kind == "nest":
        at = draw(st.sampled_from(values))
        line = line[:at] + b"[" * draw(st.integers(1000, 200_000)) + line[at:]
    elif kind == "number":
        start, end = draw(st.sampled_from(numbers))
        digits = b"9" * draw(st.integers(5000, 20_000))
        value = draw(st.sampled_from([digits, b"-" + digits, b"NaN", b"Infinity", b"-Infinity"]))
        line = line[:start] + value + line[end:]
    elif kind == "string":
        at = draw(st.sampled_from(texts))
        line = line[:at] + b"x" * draw(st.integers(1000, 2 * MAX_LINE_BYTES)) + line[at:]
    elif kind == "truncate":
        line = line[:draw(st.integers(1, len(line) - 1))]
    else:
        at = draw(st.integers(0, len(line)))
        stray = draw(st.binary(min_size=1, max_size=8).filter(lambda b: b"\n" not in b))
        line = line[:at] + stray + line[at:]
    lines[bad] = line
    return lines, bad + 1, kind != "stray"


@settings(max_examples=150, deadline=None)
@given(_mutated_lines())
def test_a_mutated_record_line_is_flagged_at_its_own_line(mutated):
    lines, bad, flagged = mutated
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        report = verify_dataset(path)
        assert report.records == len(lines)
        assert all(v.line == bad for v in report.violations), report.violations
        assert report.violations or not flagged
        # a plans file wants a "text" key, which no record line has
        for load, line in ((load_records, bad), (load_specs, bad), (stats_from_files, bad),
                           (load_plans, 1)):
            try:
                load(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}:{line}: "), exc


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


def _fifo(path: Path) -> None:
    path.unlink()
    os.mkfifo(path)


def _dir(path: Path) -> None:
    path.unlink()
    path.mkdir()


def _appended(path: Path) -> None:
    with open(path, "ab") as fh:
        fh.write(b"x" * 1_000_000)


def _truncated(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:-2])  # the closing "}\n"


# a line of 0 or less counts back from the expected text's last, empty line
@pytest.mark.parametrize("edit,line,message", [
    (_fifo, 1, "cannot read stats sidecar: Not a regular file"),
    (_dir, 1, "cannot read stats sidecar: Is a directory"),
    (_appended, 0, "stats sidecar expected '', found 'x'"),
    (_truncated, -1, "stats sidecar expected '}', found ''"),
], ids=["a FIFO", "a directory", "1 MB appended", "truncated"])
def test_verify_flags_a_sidecar_that_is_not_its_text_and_checks_the_records(
        tmp_path, edit, line, message):
    """The sidecar is flagged at its path in bounded time and memory, and the
    records are checked all the same: the shard's bad line is flagged too."""
    paths = generate_dataset(tmp_path, "train", BWD_NONE, 3, seed=2)
    shard, sidecar = paths
    last = sidecar.read_text().count("\n") + 1
    shard.write_text(shard.read_text().replace('"index":1,', '"index":0,', 1))
    edit(sidecar)
    # a subprocess with a timeout: a FIFO that blocks the read fails the test
    result = subprocess.run([sys.executable, "-m", "gridmind.cli", "verify", str(tmp_path)],
                            capture_output=True, text=True, timeout=60)
    printed = result.stdout.splitlines()
    assert result.returncode == 1
    assert printed[0].startswith(f"{shard}:2: duplicate record")
    assert len(printed) == 3 and printed[2] == "checked 3 records: 2 violation(s)"
    [violation] = [v for v in verify_dataset(tmp_path).violations if v.file == str(sidecar)]
    assert printed[1] == f"{sidecar}:{line if line > 0 else last + line}: {message}"
    assert str(violation) == printed[1]


def test_a_sidecar_is_read_no_further_than_its_expected_text(tmp_path, monkeypatch):
    """A long sidecar costs one byte past the expected text to read, and its
    quoted line is cut."""
    paths = generate_dataset(tmp_path, "train", BWD_NONE, 3, seed=2)
    sidecar = paths[-1]
    expected = sidecar.read_bytes()
    sidecar.write_bytes(expected.replace(b'"count": 3,', b'"count": 3' + b"y" * 5000 + b",", 1))
    reads = []

    class Recording(io.FileIO):
        def read(self, size=-1):
            reads.append(size)
            return super().read(size)

    monkeypatch.setattr(dataset, "open", lambda path, mode: Recording(path) if path == sidecar
                        else open(path, mode), raising=False)
    [violation] = verify_dataset(tmp_path).violations
    assert reads == [len(expected) + 1]
    assert (violation.file, violation.line) == (str(sidecar), 2)
    assert len(violation.message) < 3 * QUOTE_CHARS
    assert violation.message.endswith("characters cut)")


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.binary(min_size=1).map(lambda tail: ("append", tail)),
                 st.floats(0, 1, exclude_max=True).map(lambda share: ("cut", share))))
def test_any_longer_or_cut_sidecar_is_flagged_at_its_path(edit):
    """Bytes of any kind appended to a generated sidecar, or a cut at any
    point, are flagged at the sidecar's path, after one read of at most one
    byte past the expected text, and every record is checked all the same."""
    with tempfile.TemporaryDirectory() as tmp:
        shard, sidecar = generate_dataset(tmp, "train", BWD_NONE, 3, seed=2)
        expected = sidecar.read_bytes()
        kind, arg = edit
        if kind == "append":
            sidecar.write_bytes(expected + arg)
        else:
            sidecar.write_bytes(expected[:int(arg * len(expected))])
        shard.write_text(shard.read_text().replace('"index":1,', '"index":0,', 1))
        reads = []

        class Recording(io.FileIO):
            def read(self, size=-1):
                reads.append(size)
                return super().read(size)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset, "open", lambda path, mode: Recording(path) if path == sidecar
                          else open(path, mode), raising=False)
            report = verify_dataset(tmp)
        assert reads == [len(expected) + 1]
        assert report.records == 3
        flagged = [(v.file, v.line) for v in report.violations]
        assert flagged[0] == (str(shard), 2)  # the duplicate record
        [(file, line)] = flagged[1:]
        assert file == str(sidecar) and 1 <= line <= expected.count(b"\n") + 2


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
