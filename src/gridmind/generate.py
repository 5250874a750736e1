"""Random environment generation with a unique-path guarantee.

Free cells are grown one at a time, only ever attaching a cell that touches
exactly one existing free cell. The free region is therefore an induced tree
of the grid graph: between any two free cells there is exactly one simple
path, so every generated environment has a unique solution by construction.

All randomness flows through a numpy Generator. Record streams are derived
with SeedSequence spawn keys, so record i is a pure function of (seed, i)
and shards can be produced concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import GLOBAL_MAX_COORD, GridSpec, optimal_path, path_states
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
    global_max_coord: int = GLOBAL_MAX_COORD
    wall_density: float = 0.3
    pit_density: float = 0.4
    seed: int = 0

    def validate(self) -> None:
        if not 2 <= self.size_min <= self.size_max:
            raise ValueError(f"need 2 <= size_min <= size_max, got {self.size_min}..{self.size_max}")
        if self.size_max > self.global_max_coord + 1:
            raise ValueError(f"size_max {self.size_max} cannot fit in [0,{self.global_max_coord}]")
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


def record_rng(root_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed(root_seed, index))


def _neighbors4(x: int, y: int, w: int, h: int) -> list[tuple[int, int]]:
    out = []
    if y + 1 < h:
        out.append((x, y + 1))
    if y - 1 >= 0:
        out.append((x, y - 1))
    if x - 1 >= 0:
        out.append((x - 1, y))
    if x + 1 < w:
        out.append((x + 1, y))
    return out


def _grow_induced_tree(w: int, h: int, target: int, rng: np.random.Generator) -> set[tuple[int, int]]:
    """Grow a free region of up to ``target`` cells whose graph is a tree."""
    start = (int(rng.integers(w)), int(rng.integers(h)))
    free = {start}
    # candidates with exactly one free neighbor, as a list for O(1) uniform draws
    free_touch: dict[tuple[int, int], int] = {}
    eligible: list[tuple[int, int]] = []
    slot: dict[tuple[int, int], int] = {}

    def drop(cell: tuple[int, int]) -> None:
        i = slot.pop(cell, None)
        if i is None:
            return
        last = eligible.pop()
        if last != cell:
            eligible[i] = last
            slot[last] = i

    def bump(cell: tuple[int, int]) -> None:
        n = free_touch.get(cell, 0) + 1
        free_touch[cell] = n
        if n == 1:
            slot[cell] = len(eligible)
            eligible.append(cell)
        elif n == 2:
            drop(cell)

    for nb in _neighbors4(*start, w, h):
        bump(nb)

    while len(free) < target and eligible:
        cell = eligible[int(rng.integers(len(eligible)))]
        drop(cell)
        free_touch.pop(cell, None)
        free.add(cell)
        for nb in _neighbors4(*cell, w, h):
            if nb not in free:
                bump(nb)
    return free


def _attempt(params: GenParams, rng: np.random.Generator, seed: int | None) -> GridSpec:
    w = int(rng.integers(params.size_min, params.size_max + 1))
    h = int(rng.integers(params.size_min, params.size_max + 1))
    span = params.global_max_coord + 1
    ox = int(rng.integers(span - w + 1))
    oy = int(rng.integers(span - h + 1))

    target = max(2, round((1.0 - params.wall_density) * w * h))
    free = _grow_induced_tree(w, h, target, rng)

    free_list = sorted(free)
    i = int(rng.integers(len(free_list)))
    j = int(rng.integers(len(free_list) - 1))
    if j >= i:
        j += 1
    start_l, goal_l = free_list[i], free_list[j]

    walls = frozenset(
        (x + ox, y + oy) for x in range(w) for y in range(h) if (x, y) not in free
    )
    spec = GridSpec(
        min_x=ox,
        min_y=oy,
        size_x=w,
        size_y=h,
        start=(start_l[0] + ox, start_l[1] + oy),
        goal=(goal_l[0] + ox, goal_l[1] + oy),
        walls=walls,
        pits=frozenset(),
        seed=seed,
    )

    # pits only replace walls, so the free cells and the solution stay put
    beside_path = {
        (x + dx, y + dy)
        for x, y in path_states(spec, optimal_path(spec))
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
    }
    pits = {cell for cell in sorted(beside_path & walls) if rng.random() < params.pit_density}
    return replace(spec, walls=walls - pits, pits=frozenset(pits))


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
            spec.validate(params.global_max_coord)
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
