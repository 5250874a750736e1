"""Core gridworld model: cells, actions, movement rules, and the solution path.

A grid is an axis-aligned rectangle of cells. Some cells are walls, some are
pits, the rest are free. Moving into a wall or out of bounds leaves the agent
where it is; moving into a pit loses the episode; moving onto the goal wins.
Environments produced by :mod:`gridmind.generate` have exactly one simple
path from start to goal over the free cells.

Every walk over a board reads ``GridSpec.board``: a flat tuple over the
board plus a one-cell ring, cell ``(x, y)`` at index ``(x - min_x + 1) *
(size_y + 2) + (y - min_y + 1)``, marked FREE, WALL, PIT or OFF (the ring).
Indices sort in (x, y) order, ``neighbour_steps`` are the four neighbours'
offsets in canonical action order, and a step off the board lands on the
ring. A walk that marks cells does so on a copy, where any mark but FREE
closes a cell.
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

_DELTAS: dict[Action, Position] = dict(zip(ACTIONS, ((0, 1), (0, -1), (-1, 0), (1, 0))))
_INVERSES: dict[Action, Action] = dict(
    zip(ACTIONS, (Action.DOWN, Action.UP, Action.RIGHT, Action.LEFT)))

# each move word to its Action: the one vocabulary of plans and agent replies
ACTION_BY_WORD: dict[str, Action] = {a.value: a for a in ACTIONS}

# (action, dx, dy) in canonical order, for scans that avoid per-probe calls
_STEPS: tuple[tuple[Action, int, int], ...] = tuple((a, *_DELTAS[a]) for a in ACTIONS)

GLOBAL_MAX_COORD = 19

# the marks of GridSpec.board
FREE, WALL, PIT, OFF = -1, -2, -3, -4


def ring_board(size_x: int, size_y: int) -> list[int]:
    """The marks of a ``size_x`` by ``size_y`` board of FREE cells and its ring."""
    column = [OFF] + [FREE] * size_y + [OFF]
    return [OFF] * (size_y + 2) + column * size_x + [OFF] * (size_y + 2)


def board_index(x: int, y: int, size_y: int) -> int:
    """The index of the cell ``x`` columns and ``y`` rows from the board's first."""
    return (x + 1) * (size_y + 2) + y + 1


def neighbour_steps(size_y: int) -> tuple[int, int, int, int]:
    """The index offsets of the up, down, left and right neighbours."""
    return (1, -1, -size_y - 2, size_y + 2)


def board_positions(min_x: int, min_y: int, size_x: int, size_y: int) -> list[Position]:
    """The (x, y) of each index, ring included."""
    return [(x, y) for x in range(min_x - 1, min_x + size_x + 1)
            for y in range(min_y - 1, min_y + size_y + 1)]


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

    def cell(self, pos: Position) -> int:
        """The board index of ``pos``; 0, a ring cell, for any position off the board."""
        x, y = pos[0] - self.min_x, pos[1] - self.min_y
        if 0 <= x < self.size_x and 0 <= y < self.size_y:
            return board_index(x, y, self.size_y)
        return 0

    @cached_property
    def board(self) -> tuple[int, ...]:
        """The mark of each board index; an obstacle off the board marks nothing."""
        board = ring_board(self.size_x, self.size_y)
        for mark, cells in ((WALL, self.walls), (PIT, self.pits)):
            for c in filter(None, map(self.cell, cells)):  # index 0: off the board
                board[c] = mark
        return tuple(board)

    @cached_property
    def _solution(self) -> tuple[tuple[Action, Position], ...] | None:
        """The BFS start-to-goal trajectory, None when the goal is unreachable.

        Solved on first use and kept on the spec; read it via ``optimal_path``.
        """
        start, goal = self.cell(self.start), self.cell(self.goal)
        # FREE until reached, then the position in neighbour_steps of the step in
        via = list(self.board)
        if via[start] != FREE or via[goal] != FREE:
            return None
        steps = neighbour_steps(self.size_y)
        indexed = tuple(enumerate(steps))
        via[start] = OFF
        frontier = [start]
        while via[goal] == FREE:
            if not frontier:
                return None
            nxt = []
            for c in frontier:
                for i, d in indexed:
                    n = c + d
                    if via[n] == FREE:
                        via[n] = i
                        nxt.append(n)
            frontier = nxt
        path: Trajectory = []
        (x, y), c = self.goal, goal
        while c != start:
            i = via[c]
            action, dx, dy = _STEPS[i]
            path.append((action, (x, y)))
            x, y, c = x - dx, y - dy, c - steps[i]
        return tuple(reversed(path))

    @cached_property
    def _complexity(self) -> float:
        """``stats.complexity``, computed on first use and kept on the spec."""
        board, steps = self.board, neighbour_steps(self.size_y)
        cells = map(self.cell, path_states(self, optimal_path(self))[:-1])
        return sum(math.log([board[c + d] for d in steps].count(FREE)) for c in cells)

    def free_cells(self) -> list[Position]:
        """All free cells in lexicographic order."""
        where = board_positions(self.min_x, self.min_y, self.size_x, self.size_y)
        return [where[c] for c, mark in enumerate(self.board) if mark == FREE]

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


_NOT_STANDABLE = {OFF: "out of bounds", WALL: "a wall", PIT: "a pit"}
_MOVE_KINDS = {FREE: MoveKind.MOVED, PIT: MoveKind.PIT,
               WALL: MoveKind.BLOCKED_WALL, OFF: MoveKind.BLOCKED_BOUNDS}


def _standable_cell(spec: GridSpec, pos: Position) -> int:
    """The board index of ``pos``; ValueError unless it is a free cell."""
    c = spec.cell(pos)
    mark = spec.board[c]
    if mark != FREE:
        raise ValueError(f"position {pos} is {_NOT_STANDABLE[mark]}")
    return c


def transition(spec: GridSpec, pos: Position, action: Action) -> TransitionResult:
    """Attempt one move from a free cell."""
    _standable_cell(spec, pos)
    dest = action.apply(pos)
    mark = spec.board[spec.cell(dest)]
    kind = MoveKind.REACHED_GOAL if dest == spec.goal else _MOVE_KINDS[mark]
    return TransitionResult(kind, dest if mark == FREE or mark == PIT else None)


def valid_actions(spec: GridSpec, pos: Position) -> list[tuple[Action, Position]]:
    """Moves that enter a free cell (goal included), in canonical action order."""
    c = _standable_cell(spec, pos)
    board = spec.board
    x, y = pos
    return [(action, (x + dx, y + dy))
            for (action, dx, dy), d in zip(_STEPS, neighbour_steps(spec.size_y))
            if board[c + d] == FREE]


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

    The flood marks a copy of the board: each solution cell with its index
    on the path, each flooded cell closed.
    """
    path = spec._solution
    if path is None:
        return 0
    roots = list(map(spec.cell, path_states(spec, path)))
    mark = list(spec.board)
    for i, root in enumerate(roots):
        mark[root] = i
    steps = neighbour_steps(spec.size_y)
    for i, root in enumerate(roots):
        stack = [root]
        while stack:
            c = stack.pop()
            for d in steps:
                n = c + d
                j = mark[n]
                if j == FREE:
                    mark[n] = OFF
                    stack.append(n)
                elif j >= 0 and j != i and not (c == root and (j == i - 1 or j == i + 1)):
                    return 2
    return 1
