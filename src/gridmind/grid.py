"""Core gridworld model: cells, actions, movement rules, and the solution path.

A grid is an axis-aligned rectangle of cells. Some cells are walls, some are
pits, the rest are free. Moving into a wall or out of bounds leaves the agent
where it is; moving into a pit loses the episode; moving onto the goal wins.
Environments produced by :mod:`gridmind.generate` have exactly one simple
path from start to goal over the free cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
import json
import math

Position = tuple[int, int]


class Action(Enum):
    """A cardinal move. Enum order is the canonical order used everywhere."""

    UP = "up"
    DOWN = "down"
    LEFT = "left"
    RIGHT = "right"

    @property
    def delta(self) -> Position:
        return _DELTAS[self]

    @property
    def inverse(self) -> "Action":
        return _INVERSES[self]

    def apply(self, pos: Position) -> Position:
        dx, dy = _DELTAS[self]
        return (pos[0] + dx, pos[1] + dy)


ACTIONS: tuple[Action, ...] = (Action.UP, Action.DOWN, Action.LEFT, Action.RIGHT)

_DELTAS: dict[Action, Position] = {
    Action.UP: (0, 1),
    Action.DOWN: (0, -1),
    Action.LEFT: (-1, 0),
    Action.RIGHT: (1, 0),
}

_INVERSES: dict[Action, Action] = {
    Action.UP: Action.DOWN,
    Action.DOWN: Action.UP,
    Action.LEFT: Action.RIGHT,
    Action.RIGHT: Action.LEFT,
}

# each move word to its Action: the one vocabulary of plans and agent replies
ACTION_BY_WORD: dict[str, Action] = {a.value: a for a in ACTIONS}

# (action, dx, dy) in canonical order, for scans that avoid per-probe calls
_STEPS: tuple[tuple[Action, int, int], ...] = tuple((a, *_DELTAS[a]) for a in ACTIONS)

GLOBAL_MAX_COORD = 19

# count_simple_paths' flood marks; a solution cell is marked with its index
_FREE, _CLOSED = -1, -2


@dataclass(frozen=True)
class GridSpec:
    """Complete description of one environment.

    ``walls`` and ``pits`` are disjoint sets of in-bounds cells; ``start`` and
    ``goal`` are distinct free cells. ``seed`` records the stream that
    generated this environment (None for hand-built ones).
    """

    min_x: int
    min_y: int
    size_x: int
    size_y: int
    start: Position
    goal: Position
    walls: frozenset[Position] = field(default_factory=frozenset)
    pits: frozenset[Position] = field(default_factory=frozenset)
    seed: int | None = None

    @property
    def max_x(self) -> int:
        return self.min_x + self.size_x - 1

    @property
    def max_y(self) -> int:
        return self.min_y + self.size_y - 1

    def in_bounds(self, pos: Position) -> bool:
        return self.min_x <= pos[0] <= self.max_x and self.min_y <= pos[1] <= self.max_y

    @cached_property
    def _solution(self) -> tuple[tuple[Action, Position], ...] | None:
        """The BFS start-to-goal trajectory, None when the goal is unreachable.

        Solved on first use and kept on the spec; read it via ``optimal_path``.
        """
        start, goal = self.start, self.goal
        min_x, min_y, walls, pits = self.min_x, self.min_y, self.walls, self.pits
        max_x, max_y = self.max_x, self.max_y
        parents: dict[Position, tuple[Position, Action] | None] = {start: None}
        frontier = [start]
        while frontier and goal not in parents:
            nxt: list[Position] = []
            for pos in frontier:
                x, y = pos
                for action, dx, dy in _STEPS:
                    dest = (x + dx, y + dy)
                    if (min_x <= dest[0] <= max_x and min_y <= dest[1] <= max_y
                            and dest not in walls and dest not in pits and dest not in parents):
                        parents[dest] = (pos, action)
                        nxt.append(dest)
            frontier = nxt
        if goal not in parents:
            return None
        path: Trajectory = []
        cur = goal
        while cur != start:
            prev, action = parents[cur]
            path.append((action, cur))
            cur = prev
        return tuple(reversed(path))

    @cached_property
    def _complexity(self) -> float:
        """``stats.complexity``, computed on first use and kept on the spec."""
        states = path_states(self, optimal_path(self))
        return sum(math.log(len(valid_actions(self, s))) for s in states[:-1])

    def free_cells(self) -> list[Position]:
        """All free cells in lexicographic order."""
        return [
            (x, y)
            for x in range(self.min_x, self.max_x + 1)
            for y in range(self.min_y, self.max_y + 1)
            if (x, y) not in self.walls and (x, y) not in self.pits
        ]

    def validate(self) -> None:
        """Raise ValueError on any structural violation.

        Every number must be exactly an int: not a float, not a bool. The
        types and the extremes of all coordinates are each checked in one
        C-speed pass; the loops after a failed pass only name the offender.
        """
        xs, ys = zip(self.start, self.goal, *self.walls, *self.pits)
        scalars = {"min_x": self.min_x, "min_y": self.min_y,
                   "size_x": self.size_x, "size_y": self.size_y}
        if set(map(type, chain(scalars.values(), xs, ys))) != {int}:
            for name, value in scalars.items():
                if type(value) is not int:
                    raise ValueError(f"{name} {value!r} is not an int")
            cells = chain((("start", self.start), ("goal", self.goal)),
                          (("wall", c) for c in self.walls), (("pit", c) for c in self.pits))
            for name, cell in cells:
                if set(map(type, cell)) != {int}:
                    raise ValueError(f"{name} {cell} has a coordinate that is not an int")
        if self.size_x < 2 or self.size_y < 2:
            raise ValueError(f"sizes must be at least 2, got {self.size_x}x{self.size_y}")
        if min(self.min_x, self.min_y) < 0 or max(self.max_x, self.max_y) > GLOBAL_MAX_COORD:
            raise ValueError(
                f"grid [{self.min_x},{self.max_x}]x[{self.min_y},{self.max_y}] "
                f"exceeds [0,{GLOBAL_MAX_COORD}]^2"
            )
        if self.start == self.goal:
            raise ValueError("start and goal must be distinct")
        for name, cell in (("start", self.start), ("goal", self.goal)):
            if not self.in_bounds(cell):
                raise ValueError(f"{name} {cell} is out of bounds")
            if cell in self.walls or cell in self.pits:
                raise ValueError(f"{name} {cell} lies on an obstacle")
        if self.walls & self.pits:
            raise ValueError(f"walls and pits overlap: {sorted(self.walls & self.pits)}")
        if (self.min_x <= min(xs) and max(xs) <= self.max_x
                and self.min_y <= min(ys) and max(ys) <= self.max_y):
            return
        for kind, cells in (("wall", self.walls), ("pit", self.pits)):
            for cell in cells:
                if not self.in_bounds(cell):
                    raise ValueError(f"{kind} {cell} is out of bounds")

    def to_json_dict(self) -> dict:
        """Canonical JSON form: fixed key order, obstacle lists sorted."""
        return {
            "min_x": self.min_x,
            "min_y": self.min_y,
            "size_x": self.size_x,
            "size_y": self.size_y,
            "start": list(self.start),
            "goal": list(self.goal),
            "walls": [list(c) for c in sorted(self.walls)],
            "pits": [list(c) for c in sorted(self.pits)],
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, d: dict) -> "GridSpec":
        """A cell that is not an (x, y) pair raises ValueError as it is unpacked."""
        (sx, sy), (gx, gy) = d["start"], d["goal"]
        return cls(
            min_x=d["min_x"],
            min_y=d["min_y"],
            size_x=d["size_x"],
            size_y=d["size_y"],
            start=(sx, sy),
            goal=(gx, gy),
            walls=frozenset((x, y) for x, y in d["walls"]),
            pits=frozenset((x, y) for x, y in d["pits"]),
            seed=d.get("seed"),
        )


class MoveKind(Enum):
    MOVED = "moved"
    BLOCKED_WALL = "blocked_wall"
    BLOCKED_BOUNDS = "blocked_bounds"
    PIT = "pit"
    REACHED_GOAL = "reached_goal"


@dataclass(frozen=True)
class TransitionResult:
    """Outcome of one attempted move.

    ``dest`` is the entered cell for MOVED, PIT and REACHED_GOAL; None for the
    blocked kinds, which leave the agent in place.
    """

    kind: MoveKind
    dest: Position | None = None


Trajectory = list[tuple[Action, Position]]


def _require_standable(spec: GridSpec, pos: Position) -> None:
    if not spec.in_bounds(pos):
        raise ValueError(f"position {pos} is out of bounds")
    if pos in spec.walls:
        raise ValueError(f"position {pos} is a wall")
    if pos in spec.pits:
        raise ValueError(f"position {pos} is a pit")


def transition(spec: GridSpec, pos: Position, action: Action) -> TransitionResult:
    """Attempt one move from a free cell."""
    _require_standable(spec, pos)
    dest = action.apply(pos)
    if not spec.in_bounds(dest):
        return TransitionResult(MoveKind.BLOCKED_BOUNDS)
    if dest in spec.walls:
        return TransitionResult(MoveKind.BLOCKED_WALL)
    if dest in spec.pits:
        return TransitionResult(MoveKind.PIT, dest)
    if dest == spec.goal:
        return TransitionResult(MoveKind.REACHED_GOAL, dest)
    return TransitionResult(MoveKind.MOVED, dest)


def valid_actions(spec: GridSpec, pos: Position) -> list[tuple[Action, Position]]:
    """Moves that enter a free cell (goal included), in canonical action order."""
    _require_standable(spec, pos)
    x, y = pos
    min_x, min_y, walls, pits = spec.min_x, spec.min_y, spec.walls, spec.pits
    max_x, max_y = min_x + spec.size_x - 1, min_y + spec.size_y - 1
    out = []
    for action, dx, dy in _STEPS:
        nx, ny = x + dx, y + dy
        if min_x <= nx <= max_x and min_y <= ny <= max_y:
            dest = (nx, ny)
            if dest not in walls and dest not in pits:
                out.append((action, dest))
    return out


def optimal_path(spec: GridSpec) -> Trajectory:
    """The shortest start-to-goal trajectory as (action, state) pairs.

    BFS with canonical action order, so the result is deterministic. On the
    generated environments the free cells form a tree, making this the unique
    simple path. Each spec is solved once; every call returns a fresh list.
    Raises ValueError when the goal is unreachable.
    """
    path = spec._solution
    if path is None:
        raise ValueError("goal is unreachable from start")
    return list(path)


def path_states(spec: GridSpec, path: Trajectory) -> list[Position]:
    """Start state followed by every state the trajectory enters."""
    return [spec.start] + [state for _, state in path]


def count_simple_paths(spec: GridSpec) -> int:
    """Simple start-to-goal paths over free cells: 0, 1, or 2 for two or more.

    Linear in the number of free cells: flood-fill the free cells without
    crossing an edge of the BFS solution. Two solution cells in one region
    are joined by a detour, which splices into a second simple path, and a
    second simple path must leave the solution and rejoin it by such a
    detour. So the solution is unique iff no region holds two of its cells.

    The flood runs on a flat list over the board and a one-cell border ring,
    cell ``(x, y)`` at ``(x - min_x + 1) * (size_y + 2) + y - min_y + 1``, so
    the neighbours of ``c`` are ``c ± 1`` and ``c ± (size_y + 2)``. Each entry
    is _FREE, _CLOSED (border, wall, pit or already flooded) or the index of
    a solution cell.
    """
    path = spec._solution
    if path is None:
        return 0
    min_x, min_y, max_x, max_y = spec.min_x, spec.min_y, spec.max_x, spec.max_y
    h = spec.size_y + 2
    ox, oy = min_x - 1, min_y - 1
    column = [_CLOSED] + [_FREE] * spec.size_y + [_CLOSED]
    mark = [_CLOSED] * h + column * spec.size_x + [_CLOSED] * h
    for cells in (spec.walls, spec.pits):
        for x, y in cells:
            # an obstacle off the board would index (or, negative, wrap onto) a real cell
            if min_x <= x <= max_x and min_y <= y <= max_y:
                mark[(x - ox) * h + y - oy] = _CLOSED
    roots = [(spec.start[0] - ox) * h + spec.start[1] - oy]
    roots += [(x - ox) * h + y - oy for _, (x, y) in path]
    for i, root in enumerate(roots):
        mark[root] = i
    steps = (1, -1, -h, h)
    for i, root in enumerate(roots):
        stack = [root]
        while stack:
            c = stack.pop()
            for d in steps:
                n = c + d
                j = mark[n]
                if j == _FREE:
                    mark[n] = _CLOSED
                    stack.append(n)
                elif j >= 0 and j != i and not (c == root and (j == i - 1 or j == i + 1)):
                    return 2
    return 1
