"""Rendering environments as conversation text, and parsing it back.

Every episode opens with the same three turns: the rules of the world, the
assistant's acknowledgement, and the environment description followed by the
first observation. Observations list the current cell and each possible move
as a destination/action line pair, in canonical action order. All rendered
text is byte-stable and free of trailing whitespace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .grid import ACTION_BY_WORD, Action, GridSpec, Position, valid_actions

HUMAN = "human"
GPT = "gpt"

RULES_TEXT = (
    "You are given a rectangular gridworld, where you can move up, down, left, or "
    "right as long as each of your x, y coordinates are within 0 to the x, y size "
    "of the grid. If you move up, your y coordinate increases by 1. If you move "
    "down, your y coordinate decreases by 1. If you move left, your x coordinate "
    "decreases by 1. If you move right, your x coordinate increases by 1."
    "\n\n"
    "You will interact with the gridworld environment to reach the goal state, "
    "while avoiding the pit and the wall. You cannot move through the wall or move "
    "outside the grid. If you fall into the pit, you lose. If you reach the goal, "
    "you win. For each of your turn, you will be given the possible moves."
    "\n\n"
    "You should respond your move with either one of 'up', 'down', 'left', or "
    "'right'."
)

ACK_TEXT = "OK"


@dataclass(frozen=True)
class PromptText:
    """One conversation turn: role is 'human' or 'gpt'."""

    role: str
    text: str


def format_position(pos: Position) -> str:
    return f"({pos[0]}, {pos[1]})"


POSITION_RE = re.compile(r"^\((-?\d+), (-?\d+)\)$")


def parse_position(line: str) -> Position | None:
    """Position for a '(x, y)' line, else None."""
    m = POSITION_RE.match(line)
    return (int(m.group(1)), int(m.group(2))) if m else None


def join_positions(cells) -> str:
    """Lexicographically sorted list with a serial comma: '(a), (b), and (c)'."""
    parts = [format_position(c) for c in sorted(cells)]
    if len(parts) == 1:
        return parts[0]
    return ", ".join(parts[:-1]) + ", and " + parts[-1]


def render_obstacles(spec: GridSpec) -> str:
    """'The pit is at ... . The wall is at ... .' Empty when there are neither."""
    sentences = []
    if spec.pits:
        sentences.append(f"The pit is at {join_positions(spec.pits)}.")
    if spec.walls:
        sentences.append(f"The wall is at {join_positions(spec.walls)}.")
    return " ".join(sentences)


def render_observation(spec: GridSpec, pos: Position) -> str:
    """Current cell plus each possible move as a destination and action line."""
    lines = ["Current:", format_position(pos), "Possible:"]
    for action, dest in valid_actions(spec, pos):
        lines.append(format_position(dest))
        lines.append(action.value)
    return "\n".join(lines)


def render_environment(spec: GridSpec) -> str:
    """The third opening turn: bounds, goal, start, obstacles, first observation."""
    lines = [
        f"Grid is from {format_position((spec.min_x, spec.min_y))} "
        f"to {format_position((spec.max_x, spec.max_y))}. "
        f"Goal: {format_position(spec.goal)}",
        f"Current: {format_position(spec.start)}",
    ]
    obstacles = render_obstacles(spec)
    if obstacles:
        lines.append(obstacles)
    return "\n".join(lines) + "\n" + render_observation(spec, spec.start)


def render_instruction(spec: GridSpec) -> list[PromptText]:
    """The three turns every episode opens with."""
    return [
        PromptText(HUMAN, RULES_TEXT),
        PromptText(GPT, ACK_TEXT),
        PromptText(HUMAN, render_environment(spec)),
    ]


def parse_action(text: str) -> Action | None:
    """Action for 'up'/'down'/'left'/'right' after trimming; None otherwise.

    Matching is exact and case sensitive: 'Up', 'UP' and everything else are
    invalid on purpose, so sloppy agent output is scored as such.
    """
    return ACTION_BY_WORD.get(text.strip())


def parse_observation(text: str) -> tuple[Position, list[tuple[Action, Position]]]:
    """Invert render_observation. Raises ValueError on any format drift.

    Also accepts the opening environment turn, which embeds the first
    observation after the header lines.
    """
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
