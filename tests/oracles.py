"""Independent reference implementations used to cross-check the package.

Everything here is written from the movement rules alone, on purpose in a
different style from the library (recursion, local arithmetic, no shared
helpers), so agreement between the two is meaningful.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from gridmind.cogmap import PlanParseError
from gridmind.generate import Pcg64Stream
from gridmind.grid import ACTION_BY_WORD, GridSpec
from gridmind.prompts import parse_action, parse_position, render_instruction
from gridmind.stats import METRICS

# word -> coordinate delta, in the documented up/down/left/right order
DELTAS = {"up": (0, 1), "down": (0, -1), "left": (-1, 0), "right": (1, 0)}
OPPOSITE = {"up": "down", "down": "up", "left": "right", "right": "left"}


def _standable(spec, pos) -> bool:
    x, y = pos
    if not (spec.min_x <= x <= spec.min_x + spec.size_x - 1):
        return False
    if not (spec.min_y <= y <= spec.min_y + spec.size_y - 1):
        return False
    return pos not in spec.walls and pos not in spec.pits


def enumerate_simple_paths(spec, cap: int | None = None) -> list[list[str]]:
    """Every simple start-to-goal path as a list of move words."""
    paths: list[list[str]] = []

    def walk(pos, seen, moves):
        if cap is not None and len(paths) >= cap:
            return
        if pos == spec.goal:
            paths.append(list(moves))
            return
        for word, (dx, dy) in DELTAS.items():
            nxt = (pos[0] + dx, pos[1] + dy)
            if nxt in seen or not _standable(spec, nxt):
                continue
            seen.add(nxt)
            moves.append(word)
            walk(nxt, seen, moves)
            moves.pop()
            seen.remove(nxt)

    walk(spec.start, {spec.start}, [])
    return paths


def shortest_path_length(spec) -> int | None:
    """Dijkstra over free cells with unit weights; None when unreachable."""
    dist = {spec.start: 0}
    queue = [(0, spec.start)]
    while queue:
        d, pos = heapq.heappop(queue)
        if pos == spec.goal:
            return d
        if d > dist.get(pos, math.inf):
            continue
        for dx, dy in DELTAS.values():
            nxt = (pos[0] + dx, pos[1] + dy)
            if _standable(spec, nxt) and d + 1 < dist.get(nxt, math.inf):
                dist[nxt] = d + 1
                heapq.heappush(queue, (d + 1, nxt))
    return None


def choice_count(spec, pos) -> int:
    """Number of moves from pos that land on a standable cell."""
    n = 0
    for dx, dy in DELTAS.values():
        if _standable(spec, (pos[0] + dx, pos[1] + dy)):
            n += 1
    return n


def independent_complexity(spec) -> float:
    """Sum of ln(choices) along the unique path, goal excluded.

    Requires the environment to have exactly one simple path.
    """
    paths = enumerate_simple_paths(spec, cap=2)
    assert len(paths) == 1, f"expected a unique path, found {len(paths)}"
    total = 0.0
    pos = spec.start
    for word in paths[0]:
        total += math.log(choice_count(spec, pos))
        dx, dy = DELTAS[word]
        pos = (pos[0] + dx, pos[1] + dy)
    return total


def moved(pos, action) -> tuple:
    """The cell one step of ``action`` (an Action) away from ``pos``."""
    dx, dy = DELTAS[action.value]
    return (pos[0] + dx, pos[1] + dy)


def spec_dict(spec) -> dict:
    """A spec's canonical JSON form, built from its fields: keys in the
    documented order, obstacle lists sorted."""
    return {"min_x": spec.min_x, "min_y": spec.min_y, "size_x": spec.size_x,
            "size_y": spec.size_y, "start": list(spec.start), "goal": list(spec.goal),
            "walls": [list(c) for c in sorted(spec.walls)],
            "pits": [list(c) for c in sorted(spec.pits)], "seed": spec.seed}


def spec_line(spec) -> str:
    """A spec's canonical JSON line, compact and without its newline."""
    return json.dumps(spec_dict(spec), separators=(",", ":"))


def record_line(record) -> str:
    """A record's JSON line as ``json.dumps`` writes its dict form: keys in
    the documented order, the spec as ``spec_dict``, compact separators."""
    return json.dumps({
        "index": record.index,
        "split": record.split,
        "variant": record.variant.name,
        "spec": spec_dict(record.spec),
        "conversation": [{"role": role, "text": text} for role, text in record.conversation],
        "complexity": record.complexity,
        "lengths": {metric: record.lengths[metric] for metric in METRICS[1:]},
    }, separators=(",", ":"))


def path_states(spec, path) -> list[tuple]:
    """The start followed by every state the (action, state) trajectory enters."""
    return [spec.start] + [state for _, state in path]


def standable_cells(spec) -> list[tuple]:
    """Every cell an agent may stand on, in (x, y) order."""
    return [(x, y) for x in range(spec.min_x, spec.min_x + spec.size_x)
            for y in range(spec.min_y, spec.min_y + spec.size_y) if _standable(spec, (x, y))]


class MoveKind(Enum):
    """What one attempted move does under the movement rules."""

    MOVED = "moved"
    BLOCKED_WALL = "blocked_wall"
    BLOCKED_BOUNDS = "blocked_bounds"
    PIT = "pit"
    REACHED_GOAL = "reached_goal"


_BLOCKED_BY = {"out_of_bounds": MoveKind.BLOCKED_BOUNDS, "wall": MoveKind.BLOCKED_WALL,
               "pit": MoveKind.PIT}


def move_kind(spec, pos, word) -> MoveKind:
    """The kind of the move ``word`` from ``pos``."""
    dx, dy = DELTAS[word]
    cell = (pos[0] + dx, pos[1] + dy)
    reason = _cut_reason(spec, cell, set())
    if reason is None:
        return MoveKind.REACHED_GOAL if cell == spec.goal else MoveKind.MOVED
    return _BLOCKED_BY[reason]


def observation_text(spec, pos) -> str:
    """The observation turn at ``pos``: the cell, then each standable neighbour and its word."""
    text = "Current:\n(%d, %d)\nPossible:" % pos
    for word, (dx, dy) in DELTAS.items():
        if _standable(spec, (pos[0] + dx, pos[1] + dy)):
            text += "\n(%d, %d)\n%s" % (pos[0] + dx, pos[1] + dy, word)
    return text


def reachable_episode(spec, replies, max_steps) -> tuple[str, int, list[tuple[str, str]]]:
    """The reachable protocol on positions: outcome, steps and (role, text) turns.

    The agent replies ``replies`` in order, then the empty reply. Only the
    last non-blank line of the first reply is its move; a later reply is a
    move only as a whole, and the turn records it stripped.
    """
    turns = [tuple(turn) for turn in render_instruction(spec)]
    pending = list(replies)
    pos, steps = spec.start, 0
    reply = pending.pop(0) if pending else ""
    word = next((line for line in reversed(reply.split("\n")) if line.strip()), "").strip()
    while True:
        turns.append(("gpt", reply))
        if word not in DELTAS:
            return "invalid", steps, turns
        steps += 1
        kind = move_kind(spec, pos, word)
        if kind is MoveKind.PIT:
            return "deadend", steps, turns
        if kind is MoveKind.REACHED_GOAL:
            return "success", steps, turns
        if kind is MoveKind.MOVED:
            pos = (pos[0] + DELTAS[word][0], pos[1] + DELTAS[word][1])
        if steps == max_steps:
            return "max_step", steps, turns
        turns.append(("human", observation_text(spec, pos)))
        word = reply = (pending.pop(0) if pending else "").strip()


def parse_observation(text: str):
    """The observation parser as a walk over every line: the last "Current:"
    line starts the observation, then one destination and one word line per
    move."""
    lines = text.split("\n")
    starts = [i for i, line in enumerate(lines) if line == "Current:"]
    if starts:
        lines = lines[starts[-1]:]
    if len(lines) < 3 or lines[0] != "Current:" or lines[2] != "Possible:":
        raise ValueError(f"not an observation: {text!r}")
    current = parse_position(lines[1])
    if current is None:
        raise ValueError(f"bad current position line: {lines[1]!r}")
    rest = lines[3:]
    if len(rest) % 2:
        raise ValueError("dangling destination line in observation")
    moves = []
    for i in range(0, len(rest), 2):
        dest = parse_position(rest[i])
        action = parse_action(rest[i + 1])
        if dest is None or action is None:
            raise ValueError(f"bad move lines: {rest[i]!r}, {rest[i + 1]!r}")
        moves.append((action, dest))
    return current, moves


class ReferenceRandomAgent:
    """The random agent as first written: it parses every turn and keeps
    Actions, drawing from ``Pcg64Stream(seed)`` among the offered moves."""

    def __init__(self, seed: int):
        self._below = Pcg64Stream(seed).below

    def respond(self, transcript) -> str:
        _, moves = parse_observation(transcript[-1].text)
        if not moves:
            return "up"
        action, _ = moves[self._below(len(moves))]
        return action.value

    def close(self, outcome: str) -> None:
        pass


class ReferenceDfsAgent:
    """The DFS agent as first written: it parses every turn, adds its cell
    to the visited set, advances to a drawn unvisited destination, else
    retreats along a stack of inverse Actions."""

    def __init__(self, seed: int):
        self._below = Pcg64Stream(seed).below
        self._visited = set()
        self._undo = []

    def respond(self, transcript) -> str:
        current, moves = parse_observation(transcript[-1].text)
        self._visited.add(current)
        unvisited = [(a, d) for a, d in moves if d not in self._visited]
        if unvisited:
            action, dest = unvisited[self._below(len(unvisited))]
            self._visited.add(dest)
            self._undo.append(ACTION_BY_WORD[OPPOSITE[action.value]])
            return action.value
        if self._undo:
            return self._undo.pop().value
        return moves[0][0].value if moves else "up"

    def close(self, outcome: str) -> None:
        pass


_CELL = r"\((-?\d+), (-?\d+)\)"
_HEADER = re.compile(rf"Grid is from {_CELL} to {_CELL}\. Goal: {_CELL}")
_OBSTACLES = re.compile(r"The (pit|wall) is at ([^.]*)\.")


def board_from_text(turns) -> GridSpec:
    """The board an episode's opening turns describe, read from the text of
    the environment turn alone; the seed, which the text does not hold, is
    None. Its first observation must stand on the start."""
    lines = turns[2].text.split("\n")
    x0, y0, x1, y1, gx, gy = map(int, _HEADER.fullmatch(lines[0]).groups())
    start = tuple(map(int, re.fullmatch(rf"Current: {_CELL}", lines[1]).groups()))
    cells = {"pit": frozenset(), "wall": frozenset()}
    if not lines[2].startswith("Current:"):
        for kind, listed in _OBSTACLES.findall(lines[2]):
            cells[kind] = frozenset((int(x), int(y)) for x, y in re.findall(_CELL, listed))
    if parse_observation(turns[2].text)[0] != start:
        raise ValueError("the first observation does not stand on the start")
    return GridSpec(min_x=x0, min_y=y0, size_x=x1 - x0 + 1, size_y=y1 - y0 + 1, start=start,
                    goal=(gx, gy), walls=cells["wall"], pits=cells["pit"])


def is_tree(spec) -> bool:
    """True when the free cells form a single connected acyclic component."""
    free = set(standable_cells(spec))
    if not free:
        return False
    edges = 0
    for x, y in free:
        if (x + 1, y) in free:
            edges += 1
        if (x, y + 1) in free:
            edges += 1
    if edges != len(free) - 1:
        return False
    seen = {next(iter(free))}
    stack = list(seen)
    while stack:
        x, y = stack.pop()
        for dx, dy in DELTAS.values():
            nxt = (x + dx, y + dy)
            if nxt in free and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen == free


class Probe(NamedTuple):
    """One probed neighbor: where, its move word, and the verdict."""

    neighbor: tuple
    label: str
    kept: bool
    cut_reason: str | None  # "out_of_bounds", "wall", "pit" or "visited"


class Expansion(NamedTuple):
    origin: tuple
    records: list


class Trace(NamedTuple):
    direction: str  # "fwd" or "bwd"
    root: tuple
    terminal: tuple
    layers: list  # per layer, the Expansions of the cells the last one kept
    plan: list  # move words, start to goal
    states: list  # start..goal, both ends included


def _cut_reason(spec, cell, seen):
    x, y = cell
    if not (spec.min_x <= x < spec.min_x + spec.size_x and spec.min_y <= y < spec.min_y + spec.size_y):
        return "out_of_bounds"
    if cell in spec.walls:
        return "wall"
    if cell in spec.pits:
        return "pit"
    if cell in seen:
        return "visited"
    return None


def _layers(spec, root, terminal, backward):
    """Breadth-first layers from root until terminal is kept.

    Backward labels name the move from the neighbor into the expanded cell.
    """
    seen = {root}
    frontier = [root]
    layers = []
    while terminal not in seen:
        assert frontier, "terminal is unreachable"
        layer, kept = [], []
        for origin in frontier:
            records = []
            for word, (dx, dy) in DELTAS.items():
                cell = (origin[0] + dx, origin[1] + dy)
                reason = _cut_reason(spec, cell, seen)
                if reason is None:
                    seen.add(cell)
                    kept.append(cell)
                records.append(Probe(cell, OPPOSITE[word] if backward else word, reason is None, reason))
            layer.append(Expansion(origin, records))
        layers.append(layer)
        frontier = kept
    return layers


def search_trace(spec, direction: str) -> Trace:
    """The layered search from the start ("fwd") or the goal ("bwd").

    The solution is read off the forward layers: each kept cell came from
    the cell whose expansion first kept it.
    """
    forward = _layers(spec, spec.start, spec.goal, backward=False)
    came_from = {
        rec.neighbor: (exp.origin, rec.label)
        for layer in forward for exp in layer for rec in exp.records if rec.kept
    }
    states, plan = [spec.goal], []
    while states[-1] != spec.start:
        prev, word = came_from[states[-1]]
        states.append(prev)
        plan.append(word)
    states.reverse()
    plan.reverse()
    if direction == "fwd":
        return Trace("fwd", spec.start, spec.goal, forward, plan, states)
    backward = _layers(spec, spec.goal, spec.start, backward=True)
    return Trace("bwd", spec.goal, spec.start, backward, plan, states)


def thought_text(spec, variant: str, strict: bool = False) -> str:
    """The Thought text for a variant name such as "bwd-full-marked-bt".

    Forward backtracks walk goal to start, each state followed by the move
    that entered it; backward ones walk start to goal, each state followed
    by the move that leaves it. ``strict`` glues the first forward entry
    onto one line.
    """
    direction, _, rest = variant.partition("-")
    if rest == "none":
        return ""
    verbosity, _, suffix = rest.rpartition("-")
    trace = search_trace(spec, direction)
    lines = ["Thought:"]
    for number, layer in enumerate(trace.layers, start=1):
        lines.append(f"Step {number}:")
        for exp in layer:
            for rec in exp.records:
                if verbosity == "steps" or (verbosity == "kept" and not rec.kept):
                    continue
                marked = verbosity == "full-marked" and not rec.kept
                lines += [f"({rec.neighbor[0]}, {rec.neighbor[1]})", "cut" if marked else rec.label]
    if suffix == "bt":
        lines.append("Backtrack:")
        n = len(trace.plan)
        if direction == "fwd":
            walk = [(trace.states[i], trace.plan[i - 1]) for i in range(n, 0, -1)] + [(spec.start, None)]
        else:
            walk = [(trace.states[i], trace.plan[i]) for i in range(n)] + [(spec.goal, None)]
        for i, (state, word) in enumerate(walk):
            text = f"({state[0]}, {state[1]})"
            if word is None:
                lines.append(text)
            elif strict and direction == "fwd" and i == 0:
                lines.append(text + word)
            else:
                lines += [text, word]
    return "\n".join(lines)


# The line-by-line plan parser that ``cogmap.parse_plan`` replaced: it splits
# the whole reply and classifies every line with regular expressions. It is
# kept as the reference for the parser's return values, messages and lines.
_STEP_LINE = re.compile(r"^Step \d+:$")
_STATE_LINE = re.compile(r"^\((-?\d+), (-?\d+)\)$")
_MERGED_LINE = re.compile(r"^\((-?\d+), (-?\d+)\)(up|down|left|right)$")


def _actions_or_raise(lines, offset):
    out = []
    for k, line in enumerate(lines):
        action = ACTION_BY_WORD.get(line)
        if action is None:
            raise PlanParseError(f"expected a move word, got {line!r}", offset + k + 1)
        out.append(action)
    return out


def parse_plan(text: str):
    """(thought, actions) of a reply, or PlanParseError, read line by line."""
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
        elif _STEP_LINE.match(line):
            step_idx = i

    if bt_idx is not None:
        return _parse_after_backtrack(lines, bt_idx)
    if step_idx is not None:
        return _parse_after_steps(lines, step_idx)
    raise PlanParseError("thought contains no steps and no backtrack", 1)


def _parse_after_backtrack(lines, bt_idx):
    tail = lines[bt_idx + 1 :]
    base = bt_idx + 1  # 0-based offset of tail[0] in lines
    if not tail:
        raise PlanParseError("backtrack section is empty", bt_idx + 1)
    interleaved = []
    i = 0
    while i < len(tail):
        merged = _MERGED_LINE.match(tail[i])
        if merged:
            interleaved.append(ACTION_BY_WORD[merged.group(3)])
            i += 1
            continue
        if not _STATE_LINE.match(tail[i]):
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
        if after is not None and (_STATE_LINE.match(after) or _MERGED_LINE.match(after)):
            interleaved.append(ACTION_BY_WORD[nxt])
            i += 2
            continue
        # terminal state: everything after it is the plan
        plan = _actions_or_raise(tail[i + 1 :], base + i + 1)
        return "\n".join(lines[: base + i + 1]), plan
    raise PlanParseError("backtrack does not end on a state", base + len(tail))


def _parse_after_steps(lines, step_idx):
    tail = lines[step_idx + 1 :]
    base = step_idx + 1
    i = 0
    while i < len(tail) and _STATE_LINE.match(tail[i]):
        if i + 1 >= len(tail):
            raise PlanParseError("state without a label at end of reply", base + i + 1)
        label = tail[i + 1]
        if label not in ACTION_BY_WORD and label != "cut":
            raise PlanParseError(f"expected a move word or 'cut', got {label!r}", base + i + 2)
        i += 2
    if i >= len(tail):
        raise PlanParseError("no plan after the thought", base + max(i, 1))
    plan = _actions_or_raise(tail[i:], base + i)
    return "\n".join(lines[: base + i]), plan


@dataclass
class MetricAgg:
    """Count, total, min and max of one metric, each metric on its own."""

    count: int = 0
    total: float = 0.0
    vmin: float = math.inf
    vmax: float = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    def merge(self, other: "MetricAgg") -> None:
        self.count += other.count
        self.total += other.total
        if other.vmin < self.vmin:
            self.vmin = other.vmin
        if other.vmax > self.vmax:
            self.vmax = other.vmax

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.total / self.count if self.count else None,
            "min": self.vmin if self.count else None,
            "max": self.vmax if self.count else None,
            "total": self.total,
        }


@dataclass
class ReferenceStats:
    """The per-size aggregate as one MetricAgg per metric per cell, keyed by
    metric name, with ``overall`` merged across cells in insertion order."""

    cells: dict[tuple[int, int], dict[str, MetricAgg]] = field(default_factory=dict)

    def _cell(self, key) -> dict[str, MetricAgg]:
        if key not in self.cells:
            self.cells[key] = {m: MetricAgg() for m in METRICS}
        return self.cells[key]

    def add(self, size_x: int, size_y: int, values: dict[str, float]) -> None:
        cell = self._cell((size_x, size_y))
        for metric, value in values.items():
            cell[metric].add(value)

    def merge(self, other: "ReferenceStats") -> "ReferenceStats":
        for key, metrics in other.cells.items():
            cell = self._cell(key)
            for metric, agg in metrics.items():
                cell[metric].merge(agg)
        return self

    def overall(self, metric: str) -> MetricAgg:
        total = MetricAgg()
        for metrics in self.cells.values():
            total.merge(metrics[metric])
        return total

    def to_json_dict(self) -> dict:
        return {
            "count": self.overall("complexity").count,
            "overall": {m: self.overall(m).to_dict() for m in METRICS},
            "cells": {
                f"{x}x{y}": {m: agg.to_dict() for m, agg in metrics.items()}
                for (x, y), metrics in sorted(self.cells.items())
            },
        }
