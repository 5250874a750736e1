"""Layered search traces over the grid and their text serializations.

A trace records a breadth-first wave from a root cell (the start, or the goal
when run backward) until the opposite endpoint is found. Each layer expands
the cells kept by the previous one, probing all four neighbors in canonical
order and recording a verdict: kept, or cut with the reason (out of bounds,
wall, pit, already visited). Because the sweep stops at the endpoint's layer,
the number of layers always equals the solution length.

Serialization turns a trace into the "Thought:" text that precedes a plan.
Eight variants per direction control what is written: nothing at all, bare
step headers, only kept moves, every probe labeled with its move word, or
every probe with dead ones labeled ``cut``; each with or without a final
"Backtrack:" walk of the solution. The plan itself is the move words, one
per line. ``parse_plan`` inverts all of it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .grid import ACTIONS, GLOBAL_MAX_COORD, Action, GridSpec, Position, optimal_path, path_states
from .prompts import POSITION_RE, format_position, parse_position

CUT_TOKEN = "cut"


class Direction(Enum):
    FWD = "fwd"
    BWD = "bwd"


class Verbosity(Enum):
    NONE = "none"
    STEPS = "steps"
    KEPT = "kept"
    FULL = "full"
    FULL_MARKED = "full-marked"


class CutReason(Enum):
    OUT_OF_BOUNDS = "out_of_bounds"
    WALL = "wall"
    PIT = "pit"
    VISITED = "visited"


class NeighborRecord(NamedTuple):
    """One probed neighbor: where, the move word it is labeled with, verdict.

    Labels name the move from the expanded cell for forward traces and the
    move from the neighbor back into the expanded cell for backward ones, so
    a backward trace reads as instructions toward the goal.
    """

    neighbor: Position
    label: Action
    kept: bool
    cut_reason: CutReason | None = None


class Expansion(NamedTuple):
    origin: Position
    records: tuple[NeighborRecord, ...]


@dataclass(frozen=True)
class SearchTrace:
    direction: Direction
    layers: tuple[tuple[Expansion, ...], ...]
    plan: tuple[Action, ...]
    states: tuple[Position, ...]  # start..goal, both ends included

    @property
    def root(self) -> Position:
        return self.states[0] if self.direction is Direction.FWD else self.states[-1]

    @property
    def terminal(self) -> Position:
        return self.states[-1] if self.direction is Direction.FWD else self.states[0]


# per direction, (label, dx, dy) for each probe in canonical action order
_PROBES = {
    d: tuple((a if d is Direction.FWD else a.inverse, *a.delta) for a in ACTIONS) for d in Direction
}


class _PositionText(dict):
    """'(x, y)' per cell; cells outside the table are formatted on demand."""

    def __missing__(self, pos: Position) -> str:
        return format_position(pos)


# every cell a probe of a valid board can name: one step around [0, 19]^2
_POSITION_TEXT = _PositionText(
    ((x, y), format_position((x, y)))
    for x in range(-1, GLOBAL_MAX_COORD + 2)
    for y in range(-1, GLOBAL_MAX_COORD + 2)
)


def build_search_trace(spec: GridSpec, direction: Direction) -> SearchTrace:
    """Run the layered sweep from start (FWD) or goal (BWD)."""
    fwd = optimal_path(spec)
    plan = tuple(a for a, _ in fwd)
    states = tuple(path_states(spec, fwd))
    root = states[0] if direction is Direction.FWD else states[-1]
    terminal = states[-1] if direction is Direction.FWD else states[0]
    min_x, min_y, walls, pits = spec.min_x, spec.min_y, spec.walls, spec.pits
    max_x, max_y = spec.max_x, spec.max_y
    probes = _PROBES[direction]
    # hoisted: each Enum member lookup on the class is a Python-level call
    oob, wall, pit, seen = CutReason.OUT_OF_BOUNDS, CutReason.WALL, CutReason.PIT, CutReason.VISITED

    visited = {root}
    frontier = [root]
    layers: list[tuple[Expansion, ...]] = []
    while terminal not in visited:
        next_frontier: list[Position] = []
        layer: list[Expansion] = []
        for origin in frontier:
            x, y = origin
            records = []
            for label, dx, dy in probes:
                dest = (x + dx, y + dy)
                if not (min_x <= dest[0] <= max_x and min_y <= dest[1] <= max_y):
                    rec = NeighborRecord(dest, label, False, oob)
                elif dest in walls:
                    rec = NeighborRecord(dest, label, False, wall)
                elif dest in pits:
                    rec = NeighborRecord(dest, label, False, pit)
                elif dest in visited:
                    rec = NeighborRecord(dest, label, False, seen)
                else:
                    rec = NeighborRecord(dest, label, True)
                    visited.add(dest)
                    next_frontier.append(dest)
                records.append(rec)
            layer.append(Expansion(origin, tuple(records)))
        layers.append(tuple(layer))
        frontier = next_frontier
    trace = SearchTrace(direction, tuple(layers), plan, states)
    assert len(trace.layers) == len(plan), "layer count must equal solution length"
    return trace


@dataclass(frozen=True)
class CotVariant:
    """One serialization style: direction, verbosity, backtrack suffix."""

    direction: Direction
    verbosity: Verbosity
    backtrack: bool

    @property
    def name(self) -> str:
        if self.verbosity is Verbosity.NONE:
            return f"{self.direction.value}-none"
        suffix = "bt" if self.backtrack else "nobt"
        return f"{self.direction.value}-{self.verbosity.value}-{suffix}"

    @classmethod
    def from_name(cls, name: str) -> "CotVariant":
        variant = _VARIANTS_BY_NAME.get(name)
        if variant is None:
            raise ValueError(
                f"unknown variant {name!r}; expected one of {sorted(_VARIANTS_BY_NAME)}"
            )
        return variant


def _canonical_variants() -> tuple[CotVariant, ...]:
    out = []
    for direction in Direction:
        out.append(CotVariant(direction, Verbosity.NONE, False))
        out.append(CotVariant(direction, Verbosity.STEPS, True))
        for verbosity in (Verbosity.KEPT, Verbosity.FULL, Verbosity.FULL_MARKED):
            for backtrack in (False, True):
                out.append(CotVariant(direction, verbosity, backtrack))
    return tuple(out)


ALL_VARIANTS = _canonical_variants()
VARIANT_NAMES = tuple(v.name for v in ALL_VARIANTS)
_VARIANTS_BY_NAME = {v.name: v for v in ALL_VARIANTS}


def backtrack_entries(trace: SearchTrace) -> list[tuple[Position, Action | None]]:
    """Solution walk for the Backtrack section.

    Forward traces walk goal to start, annotating each state with the move
    that reached it; backward traces walk start to goal, annotating each
    state with the move to take next. The final state has no annotation.
    """
    states, plan = trace.states, trace.plan
    if trace.direction is Direction.FWD:
        entries: list[tuple[Position, Action | None]] = [
            (states[i], plan[i - 1]) for i in range(len(states) - 1, 0, -1)
        ]
        entries.append((states[0], None))
    else:
        entries = [(states[i], plan[i]) for i in range(len(plan))]
        entries.append((states[-1], None))
    return entries


def serialize_thought(trace: SearchTrace, variant: CotVariant, strict: bool = False) -> str:
    """The Thought text for a trace, empty string for the silent variant.

    ``strict`` reproduces the historical forward quirk of gluing the first
    Backtrack state to its move word on one line; by default every entry is
    rendered uniformly as a state line followed by a move line.
    """
    verbosity = variant.verbosity
    if verbosity is Verbosity.NONE:
        return ""
    text = _POSITION_TEXT
    kept_only = verbosity is Verbosity.KEPT
    marked = verbosity is Verbosity.FULL_MARKED
    lines = ["Thought:"]
    for step, layer in enumerate(trace.layers, start=1):
        lines.append(f"Step {step}:")
        if verbosity is Verbosity.STEPS:
            continue
        for _, records in layer:
            # ``_value_`` is the move word without the Enum property lookup
            for neighbor, label, kept, _ in records:
                if kept:
                    lines += (text[neighbor], label._value_)
                elif not kept_only:
                    lines += (text[neighbor], CUT_TOKEN if marked else label._value_)
    if variant.backtrack:
        lines.append("Backtrack:")
        merge_first = strict and trace.direction is Direction.FWD
        for i, (pos, action) in enumerate(backtrack_entries(trace)):
            if action is None:
                lines.append(text[pos])
            elif merge_first and i == 0:
                lines.append(text[pos] + action._value_)
            else:
                lines += (text[pos], action._value_)
    return "\n".join(lines)


def serialize_plan(plan) -> str:
    """Move words, one per line."""
    return "\n".join(a.value for a in plan)


def render_parts(spec: GridSpec, variant: CotVariant, strict: bool = False) -> tuple[str, str]:
    """(thought, plan) texts for an environment under one variant."""
    if variant.verbosity is Verbosity.NONE and not variant.backtrack:
        plan = tuple(a for a, _ in optimal_path(spec))
        return "", serialize_plan(plan)
    trace = build_search_trace(spec, variant.direction)
    return serialize_thought(trace, variant, strict), serialize_plan(trace.plan)


def join_reply(thought: str, plan: str) -> str:
    """The full reply text: thought (when any) followed by the plan."""
    return f"{thought}\n{plan}" if thought else plan


def render_target(spec: GridSpec, variant: CotVariant, strict: bool = False) -> str:
    """The full reply text for an environment under one variant."""
    return join_reply(*render_parts(spec, variant, strict))


class PlanParseError(ValueError):
    """Reply text that does not contain a readable plan. ``line`` is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_STEP_RE = re.compile(r"^Step \d+:$")
_MERGED_RE = re.compile(r"^\((-?\d+), (-?\d+)\)(up|down|left|right)$")
_WORDS = {a.value: a for a in ACTIONS}


def _actions_or_raise(lines: list[str], offset: int) -> list[Action]:
    out = []
    for k, line in enumerate(lines):
        action = _WORDS.get(line)
        if action is None:
            raise PlanParseError(f"expected a move word, got {line!r}", offset + k + 1)
        out.append(action)
    return out


def parse_plan(text: str) -> tuple[str | None, list[Action]]:
    """Recover (thought, plan actions) from a reply.

    Accepts bare plans, thoughts ending in a plan, and thoughts whose
    Backtrack walk interleaves the moves with the states (the backward
    style); in that last case the interleaved moves are the plan and the
    whole text is returned as the thought. Raises PlanParseError otherwise.
    """
    stripped = text.strip()
    lines = stripped.split("\n")
    if not stripped:
        raise PlanParseError("empty reply", 1)

    if lines[0] != "Thought:":
        return None, _actions_or_raise(lines, 0)

    bt_idx = None
    step_idx = None
    for i, line in enumerate(lines):
        if line == "Backtrack:":
            bt_idx = i
        elif _STEP_RE.match(line):
            step_idx = i

    if bt_idx is not None:
        return _parse_after_backtrack(lines, bt_idx)
    if step_idx is not None:
        return _parse_after_steps(lines, step_idx)
    raise PlanParseError("thought contains no steps and no backtrack", 1)


def _parse_after_backtrack(lines: list[str], bt_idx: int) -> tuple[str, list[Action]]:
    tail = lines[bt_idx + 1 :]
    base = bt_idx + 1  # 0-based offset of tail[0] in lines
    if not tail:
        raise PlanParseError("backtrack section is empty", bt_idx + 1)
    interleaved: list[Action] = []
    i = 0
    while i < len(tail):
        merged = _MERGED_RE.match(tail[i])
        if merged:
            interleaved.append(_WORDS[merged.group(3)])
            i += 1
            continue
        if parse_position(tail[i]) is None:
            raise PlanParseError(f"expected a state, got {tail[i]!r}", base + i + 1)
        if i + 1 == len(tail):
            # terminal state, no explicit plan: the interleaved moves are it
            if not interleaved:
                raise PlanParseError("backtrack contains no moves", base + i + 1)
            return "\n".join(lines), interleaved
        nxt = tail[i + 1]
        if nxt not in _WORDS:
            raise PlanParseError(f"expected a move word, got {nxt!r}", base + i + 2)
        after = tail[i + 2] if i + 2 < len(tail) else None
        if after is not None and (POSITION_RE.match(after) or _MERGED_RE.match(after)):
            interleaved.append(_WORDS[nxt])
            i += 2
            continue
        # terminal state: everything after it is the plan
        plan = _actions_or_raise(tail[i + 1 :], base + i + 1)
        return "\n".join(lines[: base + i + 1]), plan
    raise PlanParseError("backtrack does not end on a state", base + len(tail))


def _parse_after_steps(lines: list[str], step_idx: int) -> tuple[str, list[Action]]:
    tail = lines[step_idx + 1 :]
    base = step_idx + 1
    i = 0
    while i < len(tail) and parse_position(tail[i]) is not None:
        if i + 1 >= len(tail):
            raise PlanParseError("state without a label at end of reply", base + i + 1)
        label = tail[i + 1]
        if label not in _WORDS and label != CUT_TOKEN:
            raise PlanParseError(f"expected a move word or {CUT_TOKEN!r}, got {label!r}", base + i + 2)
        i += 2
    if i >= len(tail):
        raise PlanParseError("no plan after the thought", base + max(i, 1))
    plan = _actions_or_raise(tail[i:], base + i)
    return "\n".join(lines[: base + i]), plan
