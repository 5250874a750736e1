"""Core gridworld model: cells, actions, the board layout, the solution path and its complexity.

A grid is an axis-aligned rectangle of cells. Some cells are walls, some are
pits, the rest are free. Moving into a wall or out of bounds leaves the agent
where it is; moving into a pit loses the episode; moving onto the goal wins
(the reachable protocol of :mod:`gridmind.harness` walks these rules).
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

# ln of a cell's number of free neighbours; every cell of a path but its
# last has at least one, so the entry for none is never read
_LOG = (0.0, *map(math.log, range(1, 5)))


def ring_board(size_x: int, size_y: int, fill: int = FREE) -> list[int]:
    """The marks of a ``size_x`` by ``size_y`` board of ``fill`` cells and its ring."""
    column = [OFF] + [fill] * size_y + [OFF]
    return [OFF] * (size_y + 2) + column * size_x + [OFF] * (size_y + 2)


def board_index(x: int, y: int, size_y: int) -> int:
    """The index of the cell ``x`` columns and ``y`` rows from the board's first."""
    return (x + 1) * (size_y + 2) + y + 1


def neighbour_steps(size_y: int) -> tuple[int, int, int, int]:
    """The index offsets of the up, down, left and right neighbours."""
    return (1, -1, -size_y - 2, size_y + 2)


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

    def position(self, c: int) -> Position:
        """The (x, y) of board index ``c``."""
        x, y = divmod(c, self.size_y + 2)
        return (self.min_x + x - 1, self.min_y + y - 1)

    @cached_property
    def board(self) -> tuple[int, ...]:
        """The mark of each board index; an obstacle off the board marks nothing.

        ``from_board`` fills this cache for a spec built from its board.
        """
        board = ring_board(self.size_x, self.size_y)
        min_x, min_y, size_x, size_y = self.min_x, self.min_y, self.size_x, self.size_y
        for mark, cells in ((WALL, self.walls), (PIT, self.pits)):
            for x, y in cells:
                x -= min_x
                y -= min_y
                if 0 <= x < size_x and 0 <= y < size_y:
                    board[(x + 1) * (size_y + 2) + y + 1] = mark
        return tuple(board)

    @classmethod
    def from_board(cls, board: list[int], min_x: int, min_y: int, size_x: int, size_y: int,
                   path: list[int], seed: int | None = None) -> "GridSpec":
        """The spec laid out as ``board``, whose free cells form one tree, with
        ``path`` the board indices of its start-to-goal path, start first.

        The one place a board built elsewhere becomes a spec's ``board``
        cache, so that a board already marked with its walls and pits is
        not laid out again, its obstacles in board order the ``obstacles``
        cache, so that they are not sorted, and its path the solution, so
        that it is not searched for.
        """
        col, ox, oy = size_y + 2, min_x - 1, min_y - 1
        walls: list[Position] = []
        pits: list[Position] = []
        for c, mark in enumerate(board):
            if mark == WALL:
                x, y = divmod(c, col)
                walls.append((x + ox, y + oy))
            elif mark == PIT:
                x, y = divmod(c, col)
                pits.append((x + ox, y + oy))
        (sx, sy), (gx, gy) = divmod(path[0], col), divmod(path[-1], col)
        spec = cls(min_x, min_y, size_x, size_y, (sx + ox, sy + oy), (gx + ox, gy + oy),
                   frozenset(walls), frozenset(pits), seed)
        # where cached_property keeps them; index order is (x, y) order
        spec.__dict__["board"] = tuple(board)
        spec.__dict__["obstacles"] = (tuple(walls), tuple(pits))
        spec.__dict__["_solution"] = spec._along(path, True)
        return spec

    @cached_property
    def obstacles(self) -> tuple[tuple[Position, ...], tuple[Position, ...]]:
        """The walls and the pits, each sorted; ``from_board`` fills this cache."""
        return tuple(sorted(self.walls)), tuple(sorted(self.pits))

    @cached_property
    def _solution(self) -> Solution | None:
        """The BFS solution, None when the goal is unreachable.

        One flood of the start's whole component, kept on the spec, gives
        the path, its complexity and whether the component is a tree, which
        it is exactly when no probe reaches an already reached cell other
        than the probing cell's BFS parent. Read it via ``optimal_path``,
        ``count_simple_paths`` and ``complexity``.
        """
        start, goal = self.cell(self.start), self.cell(self.goal)
        # FREE until reached, then the position in neighbour_steps of the
        # step in; 4, a step of 0, at the start, which is its own parent
        via = list(self.board)
        if via[start] != FREE or via[goal] != FREE:
            return None
        steps = neighbour_steps(self.size_y)
        back = (*steps, 0)
        indexed = tuple(enumerate(steps))
        via[start] = 4
        tree = True
        frontier = [start]
        while frontier:
            nxt = []
            for c in frontier:
                parent = c - back[via[c]]
                for i, d in indexed:
                    n = c + d
                    v = via[n]
                    if v == FREE:
                        via[n] = i
                        nxt.append(n)
                    elif v >= 0 and n != parent:
                        tree = False
            frontier = nxt
        if via[goal] < 0:
            return None
        cells = [goal]
        c = goal
        while c != start:
            c -= steps[via[c]]
            cells.append(c)
        cells.reverse()
        return self._along(cells, tree)

    @cached_property
    def _simple_paths(self) -> int:
        """``count_simple_paths``: 0, 1, or 2 for two or more.

        When the start's component is a tree, as on every generated board,
        the solution is its one simple path. Otherwise flood-fill the free
        cells without crossing an edge of the BFS solution. Two solution
        cells in one region are joined by a detour, which splices into a
        second simple path, and a second simple path must leave the solution
        and rejoin it by such a detour. So the solution is unique iff no
        region holds two of its cells.

        The flood marks a copy of the board: each solution cell with its
        index on the path, each flooded cell closed.
        """
        solution = self._solution
        if solution is None:
            return 0
        _, _, tree, roots = solution
        if tree:
            return 1
        mark = list(self.board)
        for i, root in enumerate(roots):
            mark[root] = i
        steps = neighbour_steps(self.size_y)
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

    def _along(self, cells: list[int], tree: bool) -> Solution:
        """The solution along the board indices ``cells``, start first."""
        board, col = self.board, self.size_y + 2
        action = dict(zip(neighbour_steps(self.size_y), ACTIONS))
        ox, oy = self.min_x - 1, self.min_y - 1
        path = []
        total = 0.0  # left to right, never sum(): see the stats module
        for c, n in zip(cells, cells[1:]):
            total += _LOG[(board[c + 1] == FREE) + (board[c - 1] == FREE)
                          + (board[c - col] == FREE) + (board[c + col] == FREE)]
            x, y = divmod(n, col)
            path.append((action[n - c], (x + ox, y + oy)))
        return tuple(path), total, tree, cells

    def free_cells(self) -> list[Position]:
        """All free cells in lexicographic order."""
        return [self.position(c) for c, mark in enumerate(self.board) if mark == FREE]

    def validate(self) -> None:
        """Raise ValueError on any structural violation.

        Every number must be exactly an int: not a float, not a bool, and the
        seed is None or an int >= 0. The types and the extremes of all
        coordinates are each checked in one C-speed pass; the loops after a
        failed pass only name the offender.
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
        if self.seed is not None and (type(self.seed) is not int or self.seed < 0):
            raise ValueError(f"seed {self.seed!r} is not None or an int >= 0")
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

    @classmethod
    def from_json_dict(cls, d: dict) -> "GridSpec":
        """Decode a spec's JSON form; ``validate`` checks its numbers.

        ``start`` and ``goal`` must each be an array of two items, and
        ``walls`` and ``pits`` arrays of such arrays with no array or object
        for a coordinate, which a set of cells cannot hash, or ValueError
        names the field. The shapes are checked at C speed, a pass over the
        types, one over the lengths and one over the coordinates; the code
        after a failed pass only names the field.
        """
        start, goal, walls, pits = d["start"], d["goal"], d["walls"], d["pits"]
        if not (type(walls) is list and type(pits) is list
                and set(map(type, chain((start, goal), walls, pits))) == {list}
                and set(map(len, chain((start, goal), walls, pits))) == {2}):
            def pair(cell) -> bool:
                return type(cell) is list and len(cell) == 2

            for name, cell in (("start", start), ("goal", goal)):
                if not pair(cell):
                    raise ValueError(f"{name} is not a JSON array of 2 items")
            name = "pits" if type(walls) is list and all(map(pair, walls)) else "walls"
            raise ValueError(f"{name} is not a JSON array of arrays of 2 items")
        nested = {list, dict}
        if not nested.isdisjoint(map(type, chain.from_iterable(chain(walls, pits)))):
            name = "pits" if nested.isdisjoint(map(type, chain.from_iterable(walls))) else "walls"
            raise ValueError(f"{name} has a coordinate that is a JSON array or object")
        return cls(d["min_x"], d["min_y"], d["size_x"], d["size_y"], tuple(start), tuple(goal),
                   frozenset(map(tuple, walls)), frozenset(map(tuple, pits)), d.get("seed"))


Trajectory = list[tuple[Action, Position]]
# a spec's trajectory, its complexity, whether the start's component is a
# tree, and the board indices of the path, start first
Solution = tuple[tuple[tuple[Action, Position], ...], float, bool, list[int]]


_NOT_STANDABLE = {OFF: "out of bounds", WALL: "a wall", PIT: "a pit"}


def valid_actions(spec: GridSpec, pos: Position) -> list[tuple[Action, Position]]:
    """Moves that enter a free cell (goal included), in canonical action order.

    Raises ValueError unless ``pos`` is a free cell.
    """
    c = spec.cell(pos)
    board = spec.board
    if board[c] != FREE:
        raise ValueError(f"position {pos} is {_NOT_STANDABLE[board[c]]}")
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
    solution = spec._solution
    if solution is None:
        raise ValueError("goal is unreachable from start")
    return list(solution[0])


def complexity(spec: GridSpec) -> float:
    """How much choice the solution path offers: the sum over its states, goal
    excluded, of the natural log of the number of valid moves.

    A corridor contributes nothing; every binary fork adds ln 2 (about 0.69).
    Added up with the solution and kept on the spec beside it. Raises
    ValueError when the goal is unreachable.
    """
    solution = spec._solution
    if solution is None:
        raise ValueError("goal is unreachable from start")
    return solution[1]


def count_simple_paths(spec: GridSpec) -> int:
    """Simple start-to-goal paths over free cells: 0, 1, or 2 for two or more.

    Linear in the number of free cells, and counted once per spec: the count
    is kept on the spec beside its solution.
    """
    return spec._simple_paths


def require_one_path(spec: GridSpec) -> None:
    """Raise ValueError unless the goal has exactly one simple path from the
    start, with ``optimal_path``'s message when it has none."""
    if count_simple_paths(spec) != 1:
        optimal_path(spec)  # raises when the goal is unreachable
        raise ValueError("expected exactly 1 simple path, found 2 or more")
