"""Random environment generation with a unique-path guarantee.

Free cells are grown one at a time, only ever attaching a cell that touches
exactly one existing free cell. The free region is therefore an induced tree
of the grid graph: between any two free cells there is exactly one simple
path, so every generated environment has a unique solution by construction.

Growth works on the board layout of :mod:`gridmind.grid`: its int cells are
the spec's board indices, in (x, y) order. It records the free neighbour each
cell was attached to, so the start-to-goal path is read off the tree instead
of being searched for; pits are drawn beside that path and the environment is
built once, then solved once for the complexity floor.

All randomness flows through a numpy Generator. Record streams are derived
with SeedSequence spawn keys, so record i is a pure function of (seed, i)
and shards can be produced concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (FREE, GLOBAL_MAX_COORD, GridSpec, board_index, board_positions,
                   neighbour_steps, ring_board)
from .stats import complexity

RETRY_BUDGET = 64

_LN2 = math.log(2)


class GenerationError(Exception):
    """Raised when no acceptable environment emerges within the retry budget."""


@dataclass(frozen=True)
class GenParams:
    """Knobs for one split's environment distribution."""

    size_min: int = 2
    size_max: int = 10
    wall_density: float = 0.3
    pit_density: float = 0.4
    seed: int = 0

    def validate(self) -> None:
        if not 2 <= self.size_min <= self.size_max:
            raise ValueError(f"need 2 <= size_min <= size_max, got {self.size_min}..{self.size_max}")
        if self.size_max > GLOBAL_MAX_COORD + 1:
            raise ValueError(f"size_max {self.size_max} cannot fit in [0,{GLOBAL_MAX_COORD}]")
        if not 0.0 <= self.wall_density < 1.0:
            raise ValueError(f"wall_density must be in [0,1), got {self.wall_density}")
        if not 0.0 <= self.pit_density <= 1.0:
            raise ValueError(f"pit_density must be in [0,1], got {self.pit_density}")


TRAIN_PARAMS = GenParams(size_min=2, size_max=10)
TEST_PARAMS = GenParams(size_min=2, size_max=20)


def derive_seed(root_seed: int, index: int) -> int:
    """Stable 64-bit stream seed for record ``index`` under ``root_seed``."""
    ss = np.random.SeedSequence(root_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _grow_induced_tree(w: int, h: int, target: int, rng: np.random.Generator) -> dict[int, int]:
    """Grow a free region of up to ``target`` cells whose graph is a tree.

    Cells are the board indices of a ``w`` by ``h`` board, whose neighbours
    are probed in canonical action order. Each step draws one cell uniformly
    from those touching exactly one free cell; the draws and the swap-remove
    order of that list fix the output for a given ``rng``. Returns the tree:
    each free cell, in the order it joined, mapped to the free cell it was
    attached to (the first cell maps to -1), from which ``_tree_path`` reads
    the unique path between any two free cells.
    """
    # free neighbours per cell; a joined cell is set to 2, so later bumps
    # (3, 4, 5) never make it eligible again, and so is the ring
    touch = [0 if mark == FREE else 2 for mark in ring_board(w, h)]
    n = len(touch)
    steps = neighbour_steps(h)
    x = int(rng.integers(w))
    cell = board_index(x, int(rng.integers(h)), h)
    parent = {cell: -1}
    touch[cell] = 2
    via = [-1] * n  # the free neighbour of a cell that touches exactly one
    # cells that touch exactly one free cell, as a list for O(1) uniform
    # draws; slot[c] is the index of c in it
    eligible: list[int] = []
    slot = [-1] * n
    while True:
        for d in steps:
            nb = cell + d
            t = touch[nb] + 1
            touch[nb] = t
            if t == 1:
                slot[nb] = len(eligible)
                eligible.append(nb)
                via[nb] = cell
            elif t == 2:
                i = slot[nb]
                last = eligible.pop()
                if last != nb:
                    eligible[i] = last
                    slot[last] = i
        if len(parent) >= target or not eligible:
            return parent
        i = int(rng.integers(len(eligible)))
        cell = eligible[i]
        last = eligible.pop()
        if last != cell:
            eligible[i] = last
            slot[last] = i
        touch[cell] = 2
        parent[cell] = via[cell]


def _tree_path(parent: dict[int, int], a: int, b: int) -> list[int]:
    """The cells on the unique ``a``-``b`` path of the tree, in no fixed order."""
    above_a = []
    while a != -1:
        above_a.append(a)
        a = parent[a]
    on_a = set(above_a)
    path = []
    while b not in on_a:
        path.append(b)
        b = parent[b]
    return path + above_a[: above_a.index(b) + 1]


def _attempt(params: GenParams, rng: np.random.Generator, seed: int | None) -> GridSpec:
    w = int(rng.integers(params.size_min, params.size_max + 1))
    h = int(rng.integers(params.size_min, params.size_max + 1))
    span = GLOBAL_MAX_COORD + 1
    ox = int(rng.integers(span - w + 1))
    oy = int(rng.integers(span - h + 1))

    target = max(2, round((1.0 - params.wall_density) * w * h))
    parent = _grow_induced_tree(w, h, target, rng)

    free = sorted(parent)  # int order is (x, y) order
    i = int(rng.integers(len(free)))
    j = int(rng.integers(len(free) - 1))
    if j >= i:
        j += 1
    start, goal = free[i], free[j]

    # pits only replace walls beside the solution, which the free tree
    # already fixes; one draw per such wall, in (x, y) order
    board = ring_board(w, h)
    beside = {cell + d for cell in _tree_path(parent, start, goal) for d in neighbour_steps(h)}
    beside_walls = sorted(c for c in beside.difference(parent) if board[c] == FREE)
    draws = rng.random(len(beside_walls)).tolist()
    pit_cells = {c for c, r in zip(beside_walls, draws) if r < params.pit_density}

    where = board_positions(ox, oy, w, h)
    walls = [where[c] for c, mark in enumerate(board)
             if mark == FREE and c not in parent and c not in pit_cells]
    return GridSpec(
        min_x=ox,
        min_y=oy,
        size_x=w,
        size_y=h,
        start=where[start],
        goal=where[goal],
        walls=frozenset(walls),
        pits=frozenset(where[c] for c in pit_cells),
        seed=seed,
    )


def generate_environment(
    params: GenParams, rng: np.random.Generator, seed: int | None = None
) -> GridSpec:
    """Draw one environment from ``params`` using ``rng``.

    Environments whose solution never offers a choice (complexity below ln 2)
    are redrawn; after RETRY_BUDGET failed draws a GenerationError reports the
    offending parameters instead of looping forever.
    """
    params.validate()
    for _ in range(RETRY_BUDGET):
        spec = _attempt(params, rng, seed)
        if complexity(spec) >= _LN2 - 1e-12:
            spec.validate()
            return spec
    raise GenerationError(
        f"no acceptable environment within {RETRY_BUDGET} attempts for {params}"
    )


def generate_indexed(params: GenParams, index: int) -> GridSpec:
    """Record ``index`` of the stream rooted at ``params.seed``.

    The derived stream seed is recorded on the result, so the same
    environment can also be rebuilt directly from it:
    ``generate_environment(params, numpy.random.default_rng(spec.seed), spec.seed)``.
    """
    seed = derive_seed(params.seed, index)
    return generate_environment(params, np.random.default_rng(seed), seed)
