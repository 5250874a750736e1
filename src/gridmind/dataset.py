"""Sharded JSONL datasets of environments with rendered conversations.

Each record couples one generated environment with the four opening turns
and the target reply (thought plus plan) for one serialization variant,
its complexity, and length bookkeeping. Record i is a pure function of
(root seed, i), so shards can be produced independently and reruns are
byte-identical. ``verify_dataset`` re-derives everything a record claims,
and every stats sidecar, and reports each violation with its file and line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from pathlib import Path

from .cogmap import VARIANT_NAMES, CotVariant, join_reply, render_parts
from .generate import GenParams, TEST_PARAMS, TRAIN_PARAMS, generate_indexed
from .grid import GridSpec, count_simple_paths, optimal_path
from .prompts import GPT, PromptText, render_instruction
from .stats import METRICS, StatsReport, complexity, record_metrics

TRAIN = "train"
TEST = "test"
SPLITS = (TRAIN, TEST)

RECORD_KEYS = ("index", "split", "variant", "spec", "conversation", "complexity", "lengths")
SPEC_KEYS = ("min_x", "min_y", "size_x", "size_y", "start", "goal", "walls", "pits", "seed")
LENGTH_KEYS = METRICS[1:]


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
        """Decode one record line; raises ValueError on any departure from the format."""
        try:
            _check_keys("record", d, RECORD_KEYS)
            _check_keys("spec", d["spec"], SPEC_KEYS)
            _check_keys("lengths", d["lengths"], LENGTH_KEYS)
            record_metrics(d)  # int sizes and lengths, a finite float complexity
            if d["split"] not in SPLITS:
                raise ValueError(f"unknown split {d['split']!r}")
            if type(d["index"]) is not int:
                raise ValueError(f"index {d['index']!r} is not an int")
            conversation = [PromptText(m["role"], m["text"]) for m in d["conversation"]]
            if [t.role for t in conversation] != ["human", "gpt", "human", "gpt"]:
                raise ValueError("conversation must be human/gpt/human/gpt")
            return cls(
                index=d["index"],
                split=d["split"],
                variant=CotVariant.from_name(d["variant"]),
                spec=GridSpec.from_json_dict(d["spec"]),
                conversation=conversation,
                complexity=d["complexity"],
                lengths=dict(d["lengths"]),
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed record: {type(exc).__name__}: {exc}") from exc


def _check_keys(name: str, obj: dict, keys: tuple[str, ...]) -> None:
    if tuple(obj.keys()) != keys:
        raise ValueError(f"{name} keys {list(obj.keys())} != {list(keys)}")


def record_for(
    spec: GridSpec, index: int, split: str, variant: CotVariant, strict: bool = False
) -> DatasetRecord:
    """The record ``generate`` writes for ``spec``: conversation and metrics."""
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
    conversation = opening + [PromptText(GPT, join_reply(thought, plan))]
    return DatasetRecord(index, split, variant, spec, conversation, complexity(spec), lengths)


def build_record(
    params: GenParams, split: str, variant: CotVariant, index: int, strict: bool = False
) -> DatasetRecord:
    """Record ``index`` of the stream: environment, conversation, metrics."""
    return record_for(generate_indexed(params, index), index, split, variant, strict)


def shard_ranges(count: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous (start, count) blocks, sizes as even as possible."""
    if count < 0 or shards < 1:
        raise ValueError(f"need count >= 0 and shards >= 1, got count {count}, shards {shards}")
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


def sidecar_name(split: str, variant_name: str) -> str:
    return f"{split}-{variant_name}-stats.json"


SIDECAR_NAMES = frozenset(sidecar_name(s, v) for s in SPLITS for v in VARIANT_NAMES)


def sidecar_text(stats: StatsReport) -> str:
    """The stats sidecar ``generate`` writes and ``verify`` expects, byte for byte.

    These are the bytes of ``json.dumps(stats.to_json_dict(), indent=2) + "\\n"``,
    made in under half the time of json's pure-Python indenting encoder;
    ``verify`` renders one per sidecar it checks.
    """
    return _indented(stats.to_json_dict(), "\n") + "\n"


def _indented(obj: dict, pad: str) -> str:
    """``json.dumps(obj, indent=2)`` for nested dicts of plain-text keys and
    finite numbers or None, so ``repr`` spells each number as json does."""
    if not obj:
        return "{}"
    inner = pad + "  "
    items = (f'"{k}": {_indented(v, inner) if type(v) is dict else "null" if v is None else repr(v)}'
             for k, v in obj.items())
    return "{" + inner + ("," + inner).join(items) + pad + "}"


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
    ranges = shard_ranges(count, shards)
    params = split_params(split, seed, params)
    params.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = StatsReport()
    paths = []
    for s, (start, n) in enumerate(ranges):
        path = out / shard_name(split, variant, s, shards)
        with open(path, "w") as fh:
            for index in range(start, start + n):
                record = build_record(params, split, variant, index, strict)
                fh.write(record.to_json_line() + "\n")
                report.add(*record_metrics(record))
        paths.append(path)
    sidecar = out / sidecar_name(split, variant.name)
    sidecar.write_text(sidecar_text(report))
    paths.append(sidecar)
    return paths


def dataset_files(target: str | Path) -> list[Path]:
    """The JSONL files at a path: the file itself, or a directory's shards."""
    p = Path(target)
    if p.is_dir():
        files = sorted(f for f in p.glob("*.jsonl") if f.is_file())
        if not files:
            raise FileNotFoundError(f"no .jsonl files under {p}")
        return files
    if not p.exists():
        raise FileNotFoundError(f"{p} does not exist")
    return [p]


def iter_json_lines(path: Path):
    """Yield (line_no, parsed object or None, error or None) per line, each
    line decoded from UTF-8 on its own."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode()
                if line.strip():
                    yield line_no, json.loads(line), None
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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


def _check_record(obj, flag) -> DatasetRecord | None:
    """Flag each claim of a line that does not hold.

    Returns the record ``generate`` writes for the line's environment, or the
    decoded record when the environment cannot be rebuilt, or None when the
    line does not decode.
    """
    try:
        record = DatasetRecord.from_json_dict(obj)
    except ValueError as exc:
        flag(str(exc))
        return None
    try:
        record.spec.validate()
    except (TypeError, ValueError) as exc:
        flag(f"bad environment: {exc}")
        return record
    paths = count_simple_paths(record.spec)
    if paths != 1:
        flag(f"expected exactly 1 simple path, found {'2 or more' if paths > 1 else 0}")
        return record
    expected = record_for(record.spec, record.index, record.split, record.variant)
    if record.conversation[3].text != expected.conversation[3].text:
        expected = record_for(record.spec, record.index, record.split, record.variant, strict=True)
    for i in range(4):
        if record.conversation[i].text != expected.conversation[i].text:
            flag(f"opening turn {i} does not match the environment" if i < 3
                 else "target text does not match the environment")
            return record
    if record.lengths != expected.lengths:
        flag(f"lengths {record.lengths} != {expected.lengths}")
    if not abs(record.complexity - expected.complexity) <= 1e-9:
        flag(f"complexity {record.complexity} != recomputed {expected.complexity}")
    return expected


def _sidecar_violation(path: Path, stats: StatsReport) -> Violation | None:
    """The first line where a sidecar departs from the text ``generate`` writes for ``stats``."""
    try:
        found = path.read_bytes().decode(errors="replace")  # no newline translation
    except OSError as exc:
        return Violation(str(path), 1, f"cannot read stats sidecar: {exc.strerror}")
    expected = sidecar_text(stats)
    if found == expected:
        return None
    if not stats.cells:
        return Violation(str(path), 1, "stats sidecar has no records in its group")
    pairs = zip_longest(found.split("\n"), expected.split("\n"))
    for line, (got, want) in enumerate(pairs, start=1):
        if got != want:
            return Violation(str(path), line, f"stats sidecar expected {want!r}, found {got!r}")
    return None


def verify_dataset(target: str | Path) -> VerifyReport:
    """Re-derive every claim in every record; shard order does not matter.

    In a directory, each ``{split}-{variant}-stats.json`` sidecar must be the
    text ``generate`` writes for the records of its split and variant, as
    ``_check_record`` rebuilds them, added in file order (index order for
    generated shards). So a record's wrong metric is flagged at its line only.
    """
    report = VerifyReport()
    seen: dict[tuple[str, str, int], str] = {}
    sidecars = []
    if Path(target).is_dir():
        sidecars = sorted(p for p in Path(target).glob("*-stats.json") if p.name in SIDECAR_NAMES)
    groups = {sidecar.name: StatsReport() for sidecar in sidecars}  # only groups with a sidecar
    for path in dataset_files(target):
        for line_no, obj, err in iter_json_lines(path):
            report.records += 1

            def flag(message: str, _path=path, _line=line_no) -> None:
                report.violations.append(Violation(str(_path), _line, message))

            if err is not None:
                flag(f"bad JSON: {err}")
                continue
            record = _check_record(obj, flag)
            if record is None:
                continue
            key = (record.split, record.variant.name, record.index)
            if key in seen:
                flag(f"duplicate record {key} (also in {seen[key]})")
            else:
                seen[key] = f"{path}:{line_no}"
            stats = groups.get(sidecar_name(record.split, record.variant.name))
            if stats is not None:
                stats.add(*record_metrics(record))
    for sidecar in sidecars:
        violation = _sidecar_violation(sidecar, groups[sidecar.name])
        if violation is not None:
            report.violations.append(violation)
    return report


def stats_from_files(target: str | Path) -> StatsReport:
    """Aggregate stats straight from dataset files."""
    report = StatsReport()
    for metrics in read_jsonl(target, record_metrics):
        report.add(*metrics)
    return report
