"""Random environment generation with a unique-path guarantee.

Free cells are grown one at a time, only ever attaching a cell that touches
exactly one existing free cell. The free region is therefore an induced tree
of the grid graph: between any two free cells there is exactly one simple
path, so every generated environment has a unique solution by construction.

Growth works on the board layout of :mod:`gridmind.grid`: its int cells are
the spec's board indices, in (x, y) order. It records the free neighbour each
cell was attached to, so the start-to-goal path is read off the tree instead
of being searched for; pits are drawn beside that path, and the environment
is built once with that path as its solution, which the complexity floor
reads without a search.

All randomness flows through ``Pcg64Stream``, a pure-Python stream that is
bit-exact with numpy's ``Generator(PCG64(seed))``. Its seeding is numpy's
``SeedSequence``: entropy words are hashed and mixed into a pool of four
32-bit words under one running constant, and the pool is hashed out into
state under another. Record streams are seeded as ``SeedSequence`` spawn keys
would seed them, so record i is a pure function of (seed, i) and shards can
be produced concurrently. The scalar bounded draws (size, offset, every
growth step, the start and goal) are ``Generator.integers(n)`` and the pit
draws ``Generator.random()``. The output therefore depends on no installed
numpy; property tests against numpy and the pinned generator bytes guard the
stream.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from .grid import (FREE, GLOBAL_MAX_COORD, PIT, WALL, GridSpec, board_index, complexity,
                   neighbour_steps, ring_board)

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
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed {self.seed!r}: expected non-negative integer")


TRAIN_PARAMS = GenParams(size_min=2, size_max=10)
TEST_PARAMS = GenParams(size_min=2, size_max=20)


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# numpy's SeedSequence constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hashing the pool out into state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715  # mixing two pool words


def _words(n: int) -> list[int]:
    """The 32-bit words of ``n``, least significant first."""
    if n < 0:  # the shifts below would never reach 0
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _hashmix(pool: list[int], dst: int, word: int, const: int) -> int:
    """``pool[dst] = mix(pool[dst], hashmix(word))`` as numpy writes it, from
    the running hash constant ``const``; returns the stepped constant."""
    v = (word ^ const) * (const := const * _MULT_A & _M32) & _M32
    x = (_MIX_L * pool[dst] - _MIX_R * (v ^ v >> 16)) & _M32
    pool[dst] = x ^ x >> 16
    return const


def _pool(words: list[int]) -> tuple[list[int], int]:
    """numpy's ``SeedSequence`` pool after the entropy ``words``, and the
    running hash constant. The first four words fill the pool, zeros padding
    it, each pool word is mixed into every other one, and every later word is
    mixed into all four."""
    pool, const = [], _INIT_A
    for word in (words + [0] * 4)[:4]:
        v = (word ^ const) * (const := const * _MULT_A & _M32) & _M32
        pool.append(v ^ v >> 16)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                const = _hashmix(pool, dst, pool[src], const)
    for word in words[4:]:
        for dst in range(4):
            const = _hashmix(pool, dst, word, const)
    return pool, const


def _state(pool: list[int], count: int) -> list[int]:
    """``SeedSequence.generate_state(count, numpy.uint64)``, ``count <= 4``:
    pool words hashed out in turn, two 32-bit halves per word, low first."""
    halves, const = [], _INIT_B
    for i in range(2 * count):
        v = (pool[i % 4] ^ const) * (const := const * _MULT_B & _M32) & _M32
        halves.append(v ^ v >> 16)
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 2 * count, 2)]


@lru_cache(maxsize=64)
def _root_pool(root: int) -> tuple[tuple[int, ...], int]:
    pool, const = _pool(_words(root))
    return tuple(pool), const


def derive_seed(root_seed: int, index: int) -> int:
    """Stable 64-bit stream seed for record ``index`` under ``root_seed``:
    ``SeedSequence(root_seed, spawn_key=(index,)).generate_state(1, uint64)``.

    A spawn key pads the root's words to the pool with zeros and follows
    them, so the root's pool is shared by all its indices and cached. The
    seed reads pool words 0 and 1 only, so the index is mixed into those, and
    the constant steps past words 2 and 3 as if they were mixed too.
    """
    pool, const = _root_pool(root_seed)
    pool = list(pool)
    for word in _words(index):
        const = _hashmix(pool, 0, word, const)
        const = _hashmix(pool, 1, word, const)
        const = const * _MULT_A * _MULT_A & _M32
    return _state(pool, 1)[0]


class Pcg64Stream:
    """numpy's ``Generator(PCG64(seed))``, bit for bit, in pure Python.

    The 128-bit state and increment come from ``SeedSequence(seed)``; each
    raw word advances the LCG and outputs its XSL-RR permutation. ``below``
    draws from 32-bit halves of the raw words, low half first, keeping the
    high half for the next draw; ``random`` takes a whole word and leaves
    that half alone. A negative seed raises ValueError.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        s0, s1, s2, s3 = _state(_pool(_words(seed))[0], 4)
        # PCG64's seeding: from state 0 step once, add the initial state and
        # step again; the increment is odd
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _M128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _M128
        self._half: int | None = None

    def _raw(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (state >> 64 ^ state) & _M64
        r = state >> 122
        return (x >> r | x << (64 - r)) & _M64

    def below(self, n: int) -> int:
        """``int(Generator.integers(n))`` for ``1 <= n <= 2**32``, by Lemire's
        method on 32-bit halves; a bound of 1 reads nothing."""
        if n == 1:
            return 0
        half = self._half
        while True:
            if half is None:
                word = self._raw()
                m, half = (word & _M32) * n, word >> 32
            else:
                m, half = half * n, None
            low = m & _M32
            if low >= n or low >= (0x100000000 - n) % n:
                self._half = half
                return m >> 32

    def random(self) -> float:
        """``Generator.random()``: the top 53 bits of one raw word."""
        return (self._raw() >> 11) * (1.0 / 9007199254740992.0)


def _grow_induced_tree(w: int, h: int, target: int, below: Callable[[int], int]) -> dict[int, int]:
    """Grow a free region of up to ``target`` cells whose graph is a tree.

    Cells are the board indices of a ``w`` by ``h`` board, whose neighbours
    are probed in canonical action order. Each step draws one cell uniformly,
    ``below(n)`` being a draw from ``range(n)``, from those touching exactly
    one free cell; the draws and the swap-remove order of that list fix the
    output. Returns the tree:
    each free cell, in the order it joined, mapped to the free cell it was
    attached to (the first cell maps to -1), from which ``_tree_path`` reads
    the unique path between any two free cells.
    """
    # free neighbours per cell; a joined cell is set to 2, so later bumps
    # (3, 4, 5) never make it eligible again. The ring stays OFF: a ring
    # cell touches at most one board cell, so it never reaches 1 or 2
    touch = ring_board(w, h, 0)
    n = len(touch)
    steps = neighbour_steps(h)
    x = below(w)
    cell = board_index(x, below(h), h)
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
        i = below(len(eligible))
        cell = eligible[i]
        last = eligible.pop()
        if last != cell:
            eligible[i] = last
            slot[last] = i
        touch[cell] = 2
        parent[cell] = via[cell]


def _tree_path(parent: dict[int, int], a: int, b: int) -> list[int]:
    """The cells on the unique ``a``-``b`` path of the tree, from ``a`` to ``b``."""
    above_a = []
    while a != -1:
        above_a.append(a)
        a = parent[a]
    on_a = set(above_a)
    above_b = []
    while b not in on_a:
        above_b.append(b)
        b = parent[b]
    return above_a[: above_a.index(b) + 1] + above_b[::-1]


def _attempt(params: GenParams, stream: Pcg64Stream, seed: int) -> GridSpec:
    below = stream.below
    w = params.size_min + below(params.size_max - params.size_min + 1)
    h = params.size_min + below(params.size_max - params.size_min + 1)
    span = GLOBAL_MAX_COORD + 1
    ox = below(span - w + 1)
    oy = below(span - h + 1)

    target = max(2, round((1.0 - params.wall_density) * w * h))
    parent = _grow_induced_tree(w, h, target, below)

    free = sorted(parent)  # int order is (x, y) order
    i = below(len(free))
    j = below(len(free) - 1)
    if j >= i:
        j += 1
    start, goal = free[i], free[j]

    board = ring_board(w, h, WALL)
    for c in parent:
        board[c] = FREE
    # pits only replace walls beside the solution, which the free tree
    # already fixes; one draw per such wall, in (x, y) order
    path = _tree_path(parent, start, goal)
    beside = {cell + d for cell in path for d in neighbour_steps(h)}
    for c in sorted(beside):
        if board[c] == WALL and stream.random() < params.pit_density:
            board[c] = PIT
    return GridSpec.from_board(board, ox, oy, w, h, path, seed)


def generate_environment(params: GenParams, seed: int) -> GridSpec:
    """Draw one environment from ``params`` on the stream ``Pcg64Stream(seed)``.

    Environments whose solution never offers a choice (complexity below ln 2)
    are redrawn from the same stream; after RETRY_BUDGET failed draws a
    GenerationError reports the offending parameters instead of looping
    forever. ``seed`` is recorded on the result.
    """
    params.validate()
    stream = Pcg64Stream(seed)
    for _ in range(RETRY_BUDGET):
        spec = _attempt(params, stream, seed)
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
    ``generate_environment(params, spec.seed)``.
    """
    return generate_environment(params, derive_seed(params.seed, index))
