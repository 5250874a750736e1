"""Sharded JSONL datasets of environments with rendered conversations.

Each record couples one generated environment with the four opening turns
and the target reply (thought plus plan) for one serialization variant,
its complexity, and length bookkeeping. Record i is a pure function of
(root seed, i), so shards can be produced independently and reruns are
byte-identical. ``verify_dataset`` re-derives everything a record claims
and reports each violation with its file and line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .cogmap import CotVariant, join_reply, render_parts
from .generate import GenParams, TEST_PARAMS, TRAIN_PARAMS, generate_indexed
from .grid import GridSpec, count_simple_paths, optimal_path
from .prompts import GPT, PromptText, render_instruction
from .stats import StatsReport, complexity, record_metrics

TRAIN = "train"
TEST = "test"
SPLITS = (TRAIN, TEST)

RECORD_KEYS = ("index", "split", "variant", "spec", "conversation", "complexity", "lengths")
SPEC_KEYS = ("min_x", "min_y", "size_x", "size_y", "start", "goal", "walls", "pits", "seed")
LENGTH_KEYS = (
    "instruction_chars",
    "thought_chars",
    "plan_chars",
    "instruction_words",
    "thought_words",
    "plan_words",
)


def split_params(split: str, seed: int, params: GenParams | None = None) -> GenParams:
    """Generation parameters for a split, rooted at ``seed``."""
    if params is None:
        if split not in SPLITS:
            raise ValueError(f"unknown split {split!r}; expected one of {SPLITS}")
        params = TRAIN_PARAMS if split == TRAIN else TEST_PARAMS
    return replace(params, seed=seed)


@dataclass
class DatasetRecord:
    index: int
    split: str
    variant: CotVariant
    spec: GridSpec
    conversation: list[PromptText]
    complexity: float
    lengths: dict[str, int]

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "split": self.split,
            "variant": self.variant.name,
            "spec": self.spec.to_json_dict(),
            "conversation": [{"role": t.role, "text": t.text} for t in self.conversation],
            "complexity": self.complexity,
            "lengths": {k: self.lengths[k] for k in LENGTH_KEYS},
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, d: dict) -> "DatasetRecord":
        return cls(
            index=d["index"],
            split=d["split"],
            variant=CotVariant.from_name(d["variant"]),
            spec=GridSpec.from_json_dict(d["spec"]),
            conversation=[PromptText(m["role"], m["text"]) for m in d["conversation"]],
            complexity=d["complexity"],
            lengths=dict(d["lengths"]),
        )


def render_conversation(
    spec: GridSpec, variant: CotVariant, strict: bool = False
) -> tuple[list[PromptText], dict[str, int]]:
    """The four turns a record holds for ``spec``, and their lengths."""
    opening = render_instruction(spec)
    thought, plan = render_parts(spec, variant, strict)
    lengths = {
        "instruction_chars": sum(len(t.text) for t in opening),
        "thought_chars": len(thought),
        "plan_chars": len(plan),
        "instruction_words": sum(len(t.text.split()) for t in opening),
        "thought_words": len(thought.split()),
        "plan_words": len(plan.split()),
    }
    return opening + [PromptText(GPT, join_reply(thought, plan))], lengths


def build_record(
    params: GenParams, split: str, variant: CotVariant, index: int, strict: bool = False
) -> DatasetRecord:
    """Record ``index`` of the stream: environment, conversation, metrics."""
    spec = generate_indexed(params, index)
    conversation, lengths = render_conversation(spec, variant, strict)
    return DatasetRecord(
        index=index,
        split=split,
        variant=variant,
        spec=spec,
        conversation=conversation,
        complexity=complexity(spec),
        lengths=lengths,
    )


def shard_ranges(count: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous (start, count) blocks, sizes as even as possible."""
    if shards < 1:
        raise ValueError("shards must be at least 1")
    base, extra = divmod(count, shards)
    ranges = []
    start = 0
    for s in range(shards):
        n = base + (1 if s < extra else 0)
        ranges.append((start, n))
        start += n
    return ranges


def shard_name(split: str, variant: CotVariant, shard: int, shards: int) -> str:
    return f"{split}-{variant.name}-{shard:04d}-of-{shards:04d}.jsonl"


def generate_dataset(
    out_dir: str | Path,
    split: str,
    variant: CotVariant,
    count: int,
    seed: int,
    shards: int = 1,
    params: GenParams | None = None,
    strict: bool = False,
) -> list[Path]:
    """Write the dataset shards plus a stats sidecar; returns written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = split_params(split, seed, params)
    report = StatsReport()
    paths = []
    for s, (start, n) in enumerate(shard_ranges(count, shards)):
        path = out / shard_name(split, variant, s, shards)
        with open(path, "w") as fh:
            for index in range(start, start + n):
                record = build_record(params, split, variant, index, strict)
                fh.write(record.to_json_line() + "\n")
                report.add(*record_metrics(record))
        paths.append(path)
    sidecar = out / f"{split}-{variant.name}-stats.json"
    sidecar.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    paths.append(sidecar)
    return paths


def dataset_files(target: str | Path) -> list[Path]:
    """The JSONL files at a path: the file itself, or a directory's shards."""
    p = Path(target)
    if p.is_dir():
        files = sorted(p.glob("*.jsonl"))
        if not files:
            raise FileNotFoundError(f"no .jsonl files under {p}")
        return files
    if not p.exists():
        raise FileNotFoundError(f"{p} does not exist")
    return [p]


def iter_json_lines(path: Path):
    """Yield (line_no, parsed object or None, error or None) per line."""
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                yield line_no, json.loads(line), None
            except json.JSONDecodeError as exc:
                yield line_no, None, str(exc)


def read_jsonl(target: str | Path, parse):
    """Yield ``parse(obj)`` for each JSON line of a target's files.

    Bad JSON, or a KeyError, TypeError or ValueError from ``parse``, raises a
    ValueError that starts with ``<file>:<line>:``.
    """
    for path in dataset_files(target):
        for line_no, obj, err in iter_json_lines(path):
            if err is not None:
                raise ValueError(f"{path}:{line_no}: {err}")
            try:
                item = parse(obj)
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
                raise ValueError(f"{path}:{line_no}: {reason}") from exc
            yield item


def load_records(target: str | Path) -> list[DatasetRecord]:
    return list(read_jsonl(target, DatasetRecord.from_json_dict))


def _environment(obj: dict) -> GridSpec:
    spec = GridSpec.from_json_dict(obj["spec"] if "spec" in obj else obj)
    spec.validate()
    optimal_path(spec)  # raises when the goal is unreachable
    return spec


def load_specs(target: str | Path) -> list[GridSpec]:
    """Environments from dataset records or bare spec JSON lines.

    Each one must pass ``GridSpec.validate`` and have a reachable goal;
    otherwise a ValueError names the file and line.
    """
    return list(read_jsonl(target, _environment))


@dataclass
class Violation:
    file: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.file}:{self.line}: {self.message}"


@dataclass
class VerifyReport:
    records: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_record(obj: dict, flag) -> None:
    if list(obj.keys()) != list(RECORD_KEYS):
        flag(f"record keys {list(obj.keys())} != {list(RECORD_KEYS)}")
        return
    if obj["split"] not in SPLITS:
        flag(f"unknown split {obj['split']!r}")
    try:
        variant = CotVariant.from_name(obj["variant"])
    except ValueError as exc:
        flag(str(exc))
        return
    if list(obj["spec"].keys()) != list(SPEC_KEYS):
        flag(f"spec keys {list(obj['spec'].keys())} != {list(SPEC_KEYS)}")
        return
    try:
        spec = GridSpec.from_json_dict(obj["spec"])
        spec.validate()
    except (ValueError, TypeError, KeyError) as exc:
        flag(f"bad environment: {exc}")
        return
    paths = count_simple_paths(spec)
    if paths != 1:
        flag(f"expected exactly 1 simple path, found {'2 or more' if paths > 1 else 0}")
        return
    convo = obj["conversation"]
    if len(convo) != 4 or [m.get("role") for m in convo] != ["human", "gpt", "human", "gpt"]:
        flag("conversation must be human/gpt/human/gpt")
        return
    expected, expected_lengths = render_conversation(spec, variant)
    for i, turn in enumerate(expected[:3]):
        if convo[i]["text"] != turn.text:
            flag(f"opening turn {i} does not match the environment")
            return
    if convo[3]["text"] != expected[3].text:
        expected, expected_lengths = render_conversation(spec, variant, strict=True)
        if convo[3]["text"] != expected[3].text:
            flag("target text does not match the environment")
            return
    if dict(obj["lengths"]) != expected_lengths:
        flag(f"lengths {obj['lengths']} != {expected_lengths}")
    recomputed = complexity(spec)
    if abs(obj["complexity"] - recomputed) > 1e-9:
        flag(f"complexity {obj['complexity']} != recomputed {recomputed}")


def verify_dataset(target: str | Path) -> VerifyReport:
    """Re-derive every claim in every record; shard order does not matter."""
    report = VerifyReport()
    seen: dict[tuple[str, str, int], str] = {}
    for path in dataset_files(target):
        for line_no, obj, err in iter_json_lines(path):
            report.records += 1

            def flag(message: str, _path=path, _line=line_no) -> None:
                report.violations.append(Violation(str(_path), _line, message))

            if err is not None:
                flag(f"bad JSON: {err}")
                continue
            _check_record(obj, flag)
            if isinstance(obj, dict) and {"split", "variant", "index"} <= obj.keys():
                key = (obj["split"], obj["variant"], obj["index"])
                if key in seen:
                    flag(f"duplicate record {key} (also in {seen[key]})")
                else:
                    seen[key] = f"{path}:{line_no}"
    return report


def stats_from_files(target: str | Path) -> StatsReport:
    """Aggregate stats straight from dataset files."""
    report = StatsReport()
    for metrics in read_jsonl(target, record_metrics):
        report.add(*metrics)
    return report
