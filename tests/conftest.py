from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import strategies as st

from gridmind.grid import GridSpec
from gridmind.harness import Agent

GOLDEN_DIR = Path(__file__).parent / "golden"


def load_golden(name: str) -> str:
    """Fixture files store newlines as literal backslash-n escapes."""
    return (GOLDEN_DIR / name).read_text().rstrip("\n").replace("\\n", "\n")


def example_env() -> GridSpec:
    """Small 4x3 environment with a unique 5-move solution.

    One pit at (3, 0), walls at (1, 1) and (2, 2); the only path from (0, 0)
    to (3, 2) is right, right, up, right, up.
    """
    return GridSpec(
        min_x=0,
        min_y=0,
        size_x=4,
        size_y=3,
        start=(0, 0),
        goal=(3, 2),
        walls=frozenset({(1, 1), (2, 2)}),
        pits=frozenset({(3, 0)}),
    )


def translate(spec: GridSpec, dx: int, dy: int) -> GridSpec:
    """The same environment shifted by (dx, dy)."""

    def mv(p):
        return (p[0] + dx, p[1] + dy)

    return replace(
        spec,
        min_x=spec.min_x + dx,
        min_y=spec.min_y + dy,
        start=mv(spec.start),
        goal=mv(spec.goal),
        walls=frozenset(mv(c) for c in spec.walls),
        pits=frozenset(mv(c) for c in spec.pits),
    )


class ConstantAgent(Agent):
    """Always the same reply, for probing outcome handling."""

    def __init__(self, text: str):
        self._text = text

    def respond(self, transcript):
        return self._text


class ScriptedReplies(Agent):
    """Fixed replies in order, then the empty reply, which is invalid."""

    def __init__(self, replies):
        self._replies = iter(replies)

    def respond(self, transcript):
        return next(self._replies, "")


@st.composite
def small_boards(draw, off_board=False, split=False):
    """Boards up to 5x5 anywhere on [0, 19]^2 with random walls and pits, so
    cycles and sealed goals occur. With ``off_board``, obstacles also fall
    within three cells outside the board, where a step past the ring of the
    board layout would land if it wrapped. With ``split``, the obstacles are
    walls only, pits only or a mix, in equal shares."""
    w, h = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    ox, oy = draw(st.integers(0, 20 - w)), draw(st.integers(0, 20 - h))
    cells = [(x, y) for x in range(ox, ox + w) for y in range(oy, oy + h)]
    start, goal = draw(st.lists(st.sampled_from(cells), min_size=2, max_size=2, unique=True))
    obstacles = draw(st.sets(st.sampled_from([c for c in cells if c not in (start, goal)])))
    if off_board:
        band = [(x, y) for x in range(ox - 3, ox + w + 3) for y in range(oy - 3, oy + h + 3)
                if (x, y) not in cells]
        obstacles |= draw(st.sets(st.sampled_from(band), max_size=12))
    pits = draw(st.sets(st.sampled_from(sorted(obstacles)))) if obstacles else set()
    if split:
        pits = draw(st.sampled_from([set(), obstacles, pits]))
    return GridSpec(min_x=ox, min_y=oy, size_x=w, size_y=h, start=start, goal=goal,
                    walls=frozenset(obstacles - pits), pits=frozenset(pits))


@pytest.fixture
def ref_env() -> GridSpec:
    return example_env()
