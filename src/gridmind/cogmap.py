"""Breadth-first search traces over the grid, written as "Thought:" text.

A trace is a breadth-first wave from a root cell (the start, or the goal when
run backward) until the opposite endpoint is found. Each layer expands the
cells kept by the previous one and probes all four neighbors in canonical
order; a probe is kept when it enters a free cell not seen before, and cut
otherwise (out of bounds, wall, pit or already visited). Because the sweep
stops at the endpoint's layer, the number of layers always equals the
solution length.

``build_search_trace`` writes the text in that one sweep, appending each
probe's lines as it is made. The sweep walks board indices, as every walk
over a board does, and names each cell by its index in ``cell_names``, so
no probe builds or hashes an (x, y) pair. Eight variants per direction
control what is written: nothing at all, bare step headers, only kept
moves, every probe labeled with its move word, or every probe with dead
ones labeled ``cut``; each with or without a final "Backtrack:" walk of the
solution. The plan itself is the move words, one per line. ``parse_plan``
inverts all of it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cache

from .grid import (ACTION_BY_WORD, ACTIONS, FREE, OFF, Action, GridSpec, neighbour_steps,
                   optimal_path)
from .prompts import cell_names

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
def _probes(variant: CotVariant, size_y: int) -> tuple[tuple, ...]:
    """(kept word, cut word, board index offset) per probe, in canonical
    action order, on a board ``size_y`` cells high.

    Labels name the move from the expanded cell for forward traces and the
    move from the neighbor back into the expanded cell for backward ones, so
    a backward trace reads as instructions toward the goal. A word of None
    writes nothing for that probe.
    """
    out = []
    for action, d in zip(ACTIONS, neighbour_steps(size_y)):
        word = (action if variant.direction is Direction.FWD else action.inverse).value
        kept = None if variant.verbosity is Verbosity.STEPS else word
        cut = {Verbosity.FULL: word, Verbosity.FULL_MARKED: CUT_TOKEN}.get(variant.verbosity)
        out.append((kept, cut, d))
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
    start, goal = spec.cell(spec.start), spec.cell(spec.goal)
    root, end = (start, goal) if fwd else (goal, start)
    probes = _probes(variant, spec.size_y)
    names = cell_names(spec)
    lines = ["Thought:"]
    append = lines.append
    # a probe onto a FREE mark is kept and closes it; a cut's reason is not written
    mark = list(spec.board)
    mark[root] = OFF
    frontier = [root]
    layers = 0
    while mark[end] == FREE:
        layers += 1
        append(f"Step {layers}:")
        kept_cells = []
        for c in frontier:
            for kept, cut, d in probes:
                n = c + d
                if mark[n] == FREE:
                    mark[n] = OFF
                    kept_cells.append(n)
                    if kept:
                        append(names[n])
                        append(kept)
                elif cut:
                    append(names[n])
                    append(cut)
        frontier = kept_cells
    assert layers == len(path), "layer count must equal solution length"
    if variant.backtrack:
        # from the terminal to the root, each state with a move: forward, the
        # move that reached it; backward, the move to take next
        append("Backtrack:")
        first = len(lines)
        offset = dict(zip(ACTIONS, neighbour_steps(spec.size_y)))
        c, sign = end, (-1 if fwd else 1)
        for action, _ in reversed(path) if fwd else path:
            append(names[c])
            append(action._value_)
            c += sign * offset[action]
        append(names[root])
        if strict and fwd:
            lines[first:first + 2] = [lines[first] + lines[first + 1]]
    return "\n".join(lines)


def serialize_plan(plan) -> str:
    """Move words, one per line."""
    return "\n".join(a.value for a in plan)


def render_parts(spec: GridSpec, variant: CotVariant, strict: bool = False) -> tuple[str, str]:
    """(thought, plan) texts for an environment under one variant."""
    plan = serialize_plan(a for a, _ in optimal_path(spec))
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


_STATE = r"\(-?\d+, -?\d+\)"
_MOVE = "(?:up|down|left|right)"
_STATE_RE = re.compile(_STATE)
_MOVE_RE = re.compile(_MOVE)
_STEP_RE = re.compile(r"Step \d+:")
_BACKTRACK_RE = re.compile("Backtrack:")
# Matched at the start of a tail whose every line ends in "\n", these consume
# what a line-by-line walk would read past: Backtrack entries (a state glued to
# its move, or a state and its move that another state follows), or probes (a
# state and its label). No line can be read two ways, so the match ends where
# the walk would stop: at the terminal state, the plan, or the first bad line.
_BACKTRACK_ENTRIES = re.compile(rf"(?:{_STATE}(?:{_MOVE}|\n{_MOVE}(?=\n{_STATE}{_MOVE}?\n))\n)*")
_STEP_PROBES = re.compile(rf"(?:{_STATE}\n(?:{_MOVE}|{CUT_TOKEN})\n)*")


def _line_number(text: str, at: int) -> int:
    """1-based number of the line of ``text`` that holds offset ``at``."""
    return text.count("\n", 0, at) + 1


def _plan(text: str, at: int) -> list[Action]:
    """The actions of ``text[at:]``, which must be move words, one per line."""
    lines = text[at:].split("\n")
    actions = list(map(ACTION_BY_WORD.get, lines))
    if None in actions:
        k = actions.index(None)
        raise PlanParseError(f"expected a move word, got {lines[k]!r}", _line_number(text, at) + k)
    return actions


def _last_line(text: str, needle: str, pattern: re.Pattern) -> tuple[int, int] | None:
    """(start, end) of the last line that ``pattern`` matches in full, found
    from the end by ``needle``: a newline and the line's first characters."""
    end = len(text)
    while (at := text.rfind(needle, 0, end)) >= 0:
        stop = text.find("\n", at + 1)
        if stop < 0:
            stop = len(text)
        if pattern.fullmatch(text, at + 1, stop):
            return at + 1, stop
        end = at
    return None


def parse_plan(text: str) -> tuple[str | None, list[Action]]:
    """Recover (thought, plan actions) from a reply.

    Accepts bare plans, thoughts ending in a plan, and thoughts whose
    Backtrack walk interleaves the moves with the states (the backward
    style); in that last case the interleaved moves are the plan and the
    whole text is returned as the thought. A thought is read from its last
    "Backtrack:" line, or failing that its last "Step n:" line; the lines
    before that header are not parsed. Raises PlanParseError otherwise; its
    line is 1-based in the reply stripped of surrounding whitespace.
    """
    stripped = text.strip()
    if not stripped:
        raise PlanParseError("empty reply", 1)
    if stripped[:9] not in ("Thought:\n", "Thought:"):
        return None, _plan(stripped, 0)
    header = _last_line(stripped, "\nBacktrack:", _BACKTRACK_RE)
    if header is not None:
        return _parse_after_backtrack(stripped, *header)
    header = _last_line(stripped, "\nStep ", _STEP_RE)
    if header is not None:
        return _parse_after_steps(stripped, *header)
    raise PlanParseError("thought contains no steps and no backtrack", 1)


def _parse_after_backtrack(text: str, start: int, stop: int) -> tuple[str, list[Action]]:
    if stop == len(text):
        raise PlanParseError("backtrack section is empty", _line_number(text, start))
    at = stop + 1
    tail = text[at:] + "\n"
    end = _BACKTRACK_ENTRIES.match(tail).end()
    if end == len(tail):  # the last entry is a state glued to its move
        raise PlanParseError("backtrack does not end on a state", _line_number(text, len(text)))
    state_end = tail.index("\n", end)
    state = tail[end:state_end]
    if not _STATE_RE.fullmatch(state):
        raise PlanParseError(f"expected a state, got {state!r}", _line_number(text, at + end))
    if state_end + 1 == len(tail):
        # terminal state, no explicit plan: the interleaved moves are it
        if not end:
            raise PlanParseError("backtrack contains no moves", _line_number(text, at))
        return text, [ACTION_BY_WORD[word] for word in _MOVE_RE.findall(tail, 0, end)]
    word = tail[state_end + 1 : tail.index("\n", state_end + 1)]
    if word not in ACTION_BY_WORD:
        line = _line_number(text, at + end) + 1
        raise PlanParseError(f"expected a move word, got {word!r}", line)
    # terminal state: everything after it is the plan
    return text[: at + state_end], _plan(text, at + state_end + 1)


def _parse_after_steps(text: str, start: int, stop: int) -> tuple[str, list[Action]]:
    at = stop + 1
    tail = text[at:] + "\n" if stop < len(text) else ""
    end = _STEP_PROBES.match(tail).end()
    if end == len(tail):
        # the last line, or the one after the header when nothing follows it
        line = _line_number(text, start) + max(tail.count("\n"), 1)
        raise PlanParseError("no plan after the thought", line)
    first_end = tail.index("\n", end)
    if _STATE_RE.fullmatch(tail, end, first_end):
        line = _line_number(text, at + end)
        if first_end + 1 == len(tail):
            raise PlanParseError("state without a label at end of reply", line)
        label = tail[first_end + 1 : tail.index("\n", first_end + 1)]
        raise PlanParseError(f"expected a move word or {CUT_TOKEN!r}, got {label!r}", line + 1)
    return text[: at + end - 1], _plan(text, at + end)
