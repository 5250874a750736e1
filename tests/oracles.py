"""Independent reference implementations used to cross-check the package.

Everything here is written from the movement rules alone, on purpose in a
different style from the library (recursion, local arithmetic, no shared
helpers), so agreement between the two is meaningful.
"""

from __future__ import annotations

import heapq
import math
import re
from typing import NamedTuple

from gridmind.cogmap import PlanParseError
from gridmind.grid import ACTION_BY_WORD

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


def standable_cells(spec) -> list[tuple]:
    """Every cell an agent may stand on, in (x, y) order."""
    return [(x, y) for x in range(spec.min_x, spec.min_x + spec.size_x)
            for y in range(spec.min_y, spec.min_y + spec.size_y) if _standable(spec, (x, y))]


def move_kind(spec, pos, word) -> str:
    """The MoveKind value of the move ``word`` from ``pos``."""
    dx, dy = DELTAS[word]
    cell = (pos[0] + dx, pos[1] + dy)
    reason = _cut_reason(spec, cell, set())
    if reason is None:
        return "reached_goal" if cell == spec.goal else "moved"
    return {"out_of_bounds": "blocked_bounds", "wall": "blocked_wall", "pit": "pit"}[reason]


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
