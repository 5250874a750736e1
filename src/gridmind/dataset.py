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
import math
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path

from .cogmap import VARIANT_NAMES, CotVariant, join_reply, render_parts
from .generate import GenParams, TEST_PARAMS, TRAIN_PARAMS, generate_indexed
from .grid import GLOBAL_MAX_COORD, GridSpec, complexity, count_simple_paths, require_one_path
from .prompts import ACK_TURN, GPT, RULES_TURN, PromptText, render_instruction
from .stats import METRICS, StatsReport, sidecar_text

TRAIN = "train"
TEST = "test"
SPLITS = (TRAIN, TEST)

RECORD_KEYS = ("index", "split", "variant", "spec", "conversation", "complexity", "lengths")
SPEC_KEYS = ("min_x", "min_y", "size_x", "size_y", "start", "goal", "walls", "pits", "seed")
LENGTH_KEYS = METRICS[1:]

# the line json.dumps writes for a record's dict form with compact
# separators: strings escaped by json's own function, the complexity as
# its float repr, the keys in the orders above
_RECORD_LINE = (
    '{"index":%d,"split":%s,"variant":%s,"spec":{"min_x":%d,"min_y":%d,"size_x":%d,'
    '"size_y":%d,"start":[%d,%d],"goal":[%d,%d],"walls":[%s],"pits":[%s],"seed":%s},'
    '"conversation":[%s],"complexity":%r,"lengths":{'
    + ",".join(f'"{k}":%d' for k in LENGTH_KEYS) + "}}")


def turn_json(turn: PromptText) -> str:
    """A turn as json.dumps writes it compactly: the one writer, for records and requests."""
    return '{"role":%s,"text":%s}' % (_string(turn.role), _string(turn.text))


# the opening turns every record shares, rules then acknowledgement, and
# their JSON, written once
_OPENING = [RULES_TURN, ACK_TURN]
_OPENING_JSON = ",".join(map(turn_json, _OPENING))


class _CellJson(dict):
    """'[x,y]' per wall or pit cell; cells outside the table are formatted on
    demand with the same %d, so a float or bool coordinate is written as an int."""

    def __missing__(self, cell) -> str:
        return "[%d,%d]" % cell


_CELL_JSON = _CellJson(((x, y), "[%d,%d]" % (x, y))
                       for x in range(GLOBAL_MAX_COORD + 1) for y in range(GLOBAL_MAX_COORD + 1))


def record_metrics(d: dict) -> tuple[int, int, tuple[float, ...]]:
    """(size_x, size_y, metric row in METRICS order) of a decoded record line.

    The sizes and lengths must be exactly ints and the complexity a finite
    float; anything else raises ValueError. The record decoder relies on
    this check too, so it is the one place that holds the rule.
    """
    try:
        size_x, size_y = d["spec"]["size_x"], d["spec"]["size_y"]
        comp, lengths = d["complexity"], d["lengths"]
        if type(comp) is not float or not math.isfinite(comp):
            raise TypeError(f"complexity {comp!r} is not a finite float")
        row = [comp]
        for metric in LENGTH_KEYS:
            if type(n := lengths[metric]) is not int:
                raise TypeError(f"lengths hold a value that is not an int: {metric}={n!r}")
            row.append(float(n))
        if type(size_x) is not int or type(size_y) is not int:
            raise TypeError(f"size {size_x!r}x{size_y!r} is not a pair of ints")
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"record does not match the dataset schema: {exc}") from exc
    return size_x, size_y, tuple(row)


def split_params(split: str, seed: int, params: GenParams | None = None) -> GenParams:
    """Generation parameters for a split, rooted at ``seed``."""
    if split not in SPLITS:
        raise ValueError(f"unknown split {split!r}; expected one of {SPLITS}")
    if params is None:
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
        """The record's line, parsed."""
        return json.loads(self.to_json_line())

    def to_json_line(self) -> str:
        """The record's JSON line, without its newline: the format's one writer."""
        spec = self.spec
        walls, pits = spec.obstacles
        turns = self.conversation
        if turns[:2] == _OPENING:  # found by comparison, so a decoded record's too
            conversation = ",".join([_OPENING_JSON, *map(turn_json, turns[2:])])
        else:
            conversation = ",".join(map(turn_json, turns))
        cell = _CELL_JSON.__getitem__
        return _RECORD_LINE % (
            self.index, _string(self.split), _string(self.variant.name),
            spec.min_x, spec.min_y, spec.size_x, spec.size_y, *spec.start, *spec.goal,
            ",".join(map(cell, walls)), ",".join(map(cell, pits)),
            "null" if spec.seed is None else "%d" % spec.seed, conversation,
            self.complexity, *[self.lengths[k] for k in LENGTH_KEYS])

    def metrics(self) -> tuple[int, int, tuple[float, ...]]:
        """``record_metrics`` of this record's line, read off the record."""
        row = (self.complexity, *(float(self.lengths[k]) for k in LENGTH_KEYS))
        return self.spec.size_x, self.spec.size_y, row

    @classmethod
    def from_json_dict(cls, d: dict) -> "DatasetRecord":
        """Decode one record line; raises ValueError on any departure from the format."""
        try:
            _check_keys("record", d, RECORD_KEYS)
            _check_keys("spec", d["spec"], SPEC_KEYS)
            _check_keys("lengths", d["lengths"], LENGTH_KEYS)
            record_metrics(d)  # int sizes and lengths, a finite float complexity
            if d["split"] not in SPLITS:
                raise ValueError(f"unknown split {_quoted(d['split'])}")
            if type(d["index"]) is not int:
                raise ValueError(f"index {d['index']!r} is not an int")
            if type(d["variant"]) is not str:
                raise ValueError("variant is not a JSON string")
            if d["variant"] not in VARIANT_NAMES:
                raise ValueError(f"unknown variant {_quoted(d['variant'])}")
            if type(d["conversation"]) is not list:
                raise ValueError("conversation is not a JSON array")
            for m in d["conversation"]:
                _check_keys("turn", m, ("role", "text"))
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


# the most characters of a value a message quotes
QUOTE_CHARS = 200


def _quoted(value) -> str:
    """``repr(value)``, cut after ``QUOTE_CHARS`` characters, saying how many it cut."""
    text = repr(value)
    if len(text) <= QUOTE_CHARS:
        return text
    return f"{text[:QUOTE_CHARS]}... ({len(text) - QUOTE_CHARS} characters cut)"


def _check_keys(name: str, obj: dict, keys: tuple[str, ...]) -> None:
    if type(obj) is not dict:
        raise ValueError(f"{name} is not a JSON object")
    if tuple(obj.keys()) != keys:
        raise ValueError(f"{name} keys {list(obj.keys())} != {list(keys)}")


# the characters and words of the opening turns every record shares
_FIXED_CHARS = sum(len(turn.text) for turn in _OPENING)
_FIXED_WORDS = sum(len(turn.text.split()) for turn in _OPENING)


def _words(text: str) -> int:
    """``len(text.split())`` for a text whose words are separated by single
    spaces or newlines, as in every text a record renders but the rules."""
    return text.count(" ") + text.count("\n") + 1 if text else 0


def record_for(
    spec: GridSpec, index: int, split: str, variant: CotVariant, strict: bool = False
) -> DatasetRecord:
    """The record ``generate`` writes for ``spec``: conversation and metrics."""
    opening = render_instruction(spec)
    environment = opening[2].text
    thought, plan = render_parts(spec, variant, strict)
    lengths = {
        "instruction_chars": _FIXED_CHARS + len(environment),
        "thought_chars": len(thought),
        "plan_chars": len(plan),
        "instruction_words": _FIXED_WORDS + _words(environment),
        "thought_words": _words(thought),
        "plan_words": _words(plan),
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
    for old in sorted(out.glob(f"{split}-{variant.name}-[0-9]*-of-*.jsonl")):
        if not old.name.endswith(f"-of-{shards:04d}.jsonl"):  # verify would see both
            raise ValueError(f"{old} is a {split} {variant.name} shard under another shard count")
    out.mkdir(parents=True, exist_ok=True)
    report = StatsReport()
    paths = []
    for s, (start, n) in enumerate(ranges):
        path = out / shard_name(split, variant, s, shards)
        with open(path, "w") as fh:
            for index in range(start, start + n):
                record = build_record(params, split, variant, index, strict)
                fh.write(record.to_json_line() + "\n")
                report.add(*record.metrics())
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


# the most bytes of a JSON line, newline left out, in a file or an agent's
# reply: 50x the longest record line seen (19.3 KB over 3000 test boards)
MAX_LINE_BYTES = 1 << 20


def decode_object(text: str) -> dict:
    """The JSON object a line from a file or an agent holds; else ValueError or RecursionError."""
    if type(obj := json.loads(text)) is not dict:
        raise ValueError("not a JSON object")
    return obj


def iter_json_lines(path: Path):
    """Yield (line_no, parsed object or None, error or None) per line, each
    line decoded from UTF-8 on its own. A line that is not a JSON object is an
    error. So is a line over ``MAX_LINE_BYTES``, and its rest is skipped in
    chunks, so memory stays bounded."""
    with open(path, "rb") as fh:
        lines = iter(lambda: fh.readline(MAX_LINE_BYTES + 1), b"")
        for line_no, raw in enumerate(lines, start=1):
            if len(raw) > MAX_LINE_BYTES and not raw.endswith(b"\n"):
                while (rest := fh.readline(MAX_LINE_BYTES)) and not rest.endswith(b"\n"):
                    pass
                yield line_no, None, f"line over the {MAX_LINE_BYTES}-byte cap"
                continue
            try:
                line = raw.decode()
                if line.strip():
                    yield line_no, decode_object(line), None
            except (ValueError, RecursionError) as exc:  # decode errors are ValueErrors
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
    require_one_path(spec)
    return spec


def load_specs(target: str | Path) -> list[GridSpec]:
    """Environments from dataset records or bare spec JSON lines.

    Each one must pass ``GridSpec.validate`` and have a reachable goal and
    exactly one simple path to it; otherwise a ValueError names the file and
    line.
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
    for kind, cells in zip(("walls", "pits"), record.spec.obstacles):
        if obj["spec"][kind] != list(map(list, cells)):  # the line's form: each cell once, sorted
            flag(f"spec {kind} are not sorted and distinct")
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
    if record.complexity != expected.complexity:
        flag(f"complexity {record.complexity} != recomputed {expected.complexity}")
    return expected


def _sidecar_violation(path: Path, stats: StatsReport) -> Violation | None:
    """The first line where a sidecar departs from the text ``generate`` writes
    for ``stats``. Only a regular file is opened, since a FIFO would block the
    read, and only one byte past the expected text is read."""
    if not path.is_file():
        reason = "Is a directory" if path.is_dir() else "Not a regular file"
        return Violation(str(path), 1, f"cannot read stats sidecar: {reason}")
    expected = sidecar_text(stats)
    try:
        with open(path, "rb") as fh:  # no newline translation; the text is ASCII
            found = fh.read(len(expected) + 1).decode(errors="replace")
    except OSError as exc:
        return Violation(str(path), 1, f"cannot read stats sidecar: {exc.strerror}")
    if found == expected:
        return None
    if not stats.cells:
        return Violation(str(path), 1, "stats sidecar has no records in its group")
    pairs = zip_longest(found.split("\n"), expected.split("\n"))
    for line, (got, want) in enumerate(pairs, start=1):
        if got != want:
            return Violation(str(path), line,
                             f"stats sidecar expected {_quoted(want)}, found {_quoted(got)}")
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
                stats.add(*record.metrics())
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
