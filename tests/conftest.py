from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from gridmind import GridSpec
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


@pytest.fixture
def ref_env() -> GridSpec:
    return example_env()
