"""Breadth-first search traces over the grid, written as "Thought:" text.

A trace is a breadth-first wave from a root cell (the start, or the goal when
run backward) until the opposite endpoint is found. Each layer expands the
cells kept by the previous one and probes all four neighbors in canonical
order; a probe is kept when it enters a free cell not seen before, and cut
otherwise (out of bounds, wall, pit or already visited). Because the sweep
stops at the endpoint's layer, the number of layers always equals the
solution length.

``build_search_trace`` writes the text in that one sweep, appending each
probe's lines as it is made. Eight variants per direction control what is
written: nothing at all, bare step headers, only kept moves, every probe
labeled with its move word, or every probe with dead ones labeled ``cut``;
each with or without a final "Backtrack:" walk of the solution. The plan
itself is the move words, one per line. ``parse_plan`` inverts all of it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cache

from .grid import ACTION_BY_WORD, ACTIONS, GLOBAL_MAX_COORD, Action, GridSpec, Position, optimal_path
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


@cache
def _probes(variant: CotVariant) -> tuple[tuple[str | None, str | None, int, int], ...]:
    """(kept word, cut word, dx, dy) per probe in canonical action order.

    Labels name the move from the expanded cell for forward traces and the
    move from the neighbor back into the expanded cell for backward ones, so
    a backward trace reads as instructions toward the goal. A word of None
    writes nothing for that probe.
    """
    out = []
    for action in ACTIONS:
        word = (action if variant.direction is Direction.FWD else action.inverse).value
        kept = None if variant.verbosity is Verbosity.STEPS else word
        cut = {Verbosity.FULL: word, Verbosity.FULL_MARKED: CUT_TOKEN}.get(variant.verbosity)
        out.append((kept, cut, *action.delta))
    return tuple(out)


def build_search_trace(spec: GridSpec, variant: CotVariant, strict: bool = False) -> str:
    """The Thought text of ``variant``: one sweep from start (fwd) or goal (bwd).

    Empty for the silent variants. ``strict`` reproduces the historical
    forward quirk of gluing the first Backtrack state to its move word on one
    line; by default every entry is a state line followed by a move line.
    """
    if variant.verbosity is Verbosity.NONE:
        return ""
    path = optimal_path(spec)
    fwd = variant.direction is Direction.FWD
    root, terminal = (spec.start, spec.goal) if fwd else (spec.goal, spec.start)
    min_x, min_y, max_x, max_y = spec.min_x, spec.min_y, spec.max_x, spec.max_y
    probes = _probes(variant)
    text = _POSITION_TEXT
    lines = ["Thought:"]
    append = lines.append
    # visited cells and obstacles alike cut a probe; the reason is not written
    closed = {root}.union(spec.walls, spec.pits)
    frontier = [root]
    layers = 0
    while terminal not in closed:
        layers += 1
        append(f"Step {layers}:")
        kept_cells = []
        for x, y in frontier:
            for kept, cut, dx, dy in probes:
                nx, ny = x + dx, y + dy
                dest = (nx, ny)
                if min_x <= nx <= max_x and min_y <= ny <= max_y and dest not in closed:
                    closed.add(dest)
                    kept_cells.append(dest)
                    if kept:
                        append(text[dest])
                        append(kept)
                elif cut:
                    append(text[dest])
                    append(cut)
        frontier = kept_cells
    assert layers == len(path), "layer count must equal solution length"
    if variant.backtrack:
        # forward: goal to start, each state with the move that reached it;
        # backward: start to goal, each state with the move to take next
        append("Backtrack:")
        first = len(lines)
        if fwd:
            for action, state in reversed(path):
                append(text[state])
                append(action._value_)
        else:
            state = spec.start
            for action, nxt in path:
                append(text[state])
                append(action._value_)
                state = nxt
        append(text[root])
        if strict and fwd:
            lines[first:first + 2] = [lines[first] + lines[first + 1]]
    return "\n".join(lines)


def serialize_plan(plan) -> str:
    """Move words, one per line."""
    return "\n".join(a.value for a in plan)


def render_parts(spec: GridSpec, variant: CotVariant, strict: bool = False) -> tuple[str, str]:
    """(thought, plan) texts for an environment under one variant."""
    plan = serialize_plan(a for a, _ in optimal_path(spec))
    if variant.verbosity is Verbosity.NONE:
        return "", plan
    return build_search_trace(spec, variant, strict), plan


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


def _actions_or_raise(lines: list[str], offset: int) -> list[Action]:
    out = []
    for k, line in enumerate(lines):
        action = ACTION_BY_WORD.get(line)
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
            interleaved.append(ACTION_BY_WORD[merged.group(3)])
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
        if nxt not in ACTION_BY_WORD:
            raise PlanParseError(f"expected a move word, got {nxt!r}", base + i + 2)
        after = tail[i + 2] if i + 2 < len(tail) else None
        if after is not None and (POSITION_RE.match(after) or _MERGED_RE.match(after)):
            interleaved.append(ACTION_BY_WORD[nxt])
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
        if label not in ACTION_BY_WORD and label != CUT_TOKEN:
            raise PlanParseError(f"expected a move word or {CUT_TOKEN!r}, got {label!r}", base + i + 2)
        i += 2
    if i >= len(tail):
        raise PlanParseError("no plan after the thought", base + max(i, 1))
    plan = _actions_or_raise(tail[i:], base + i)
    return "\n".join(lines[: base + i]), plan
