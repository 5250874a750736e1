"""Rendering environments as conversation text, and parsing it back.

Every episode opens with the same three turns: the rules of the world, the
assistant's acknowledgement, and the environment description followed by the
first observation. Observations list the current cell and each possible move
as a destination/action line pair, in canonical action order. All rendered
text is byte-stable and free of trailing whitespace.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .grid import ACTION_BY_WORD, GLOBAL_MAX_COORD, Action, GridSpec, Position, valid_actions

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


class PromptText(NamedTuple):
    """One conversation turn: role is 'human' or 'gpt'."""

    role: str
    text: str


def format_position(pos: Position) -> str:
    return f"({pos[0]}, {pos[1]})"


class _PositionText(dict):
    """'(x, y)' per cell; cells outside the table are formatted on demand."""

    def __missing__(self, pos: Position) -> str:
        return format_position(pos)


# every cell a valid board or a probe of one can name: one step around [0, 19]^2
POSITION_TEXT = _PositionText(
    ((x, y), format_position((x, y)))
    for x in range(-1, GLOBAL_MAX_COORD + 2)
    for y in range(-1, GLOBAL_MAX_COORD + 2)
)
_POSITION_OF = {text: pos for pos, text in POSITION_TEXT.items()}

POSITION_RE = re.compile(r"^\((-?\d+), (-?\d+)\)$")


def parse_position(line: str) -> Position | None:
    """Position for a '(x, y)' line, else None."""
    pos = _POSITION_OF.get(line)
    if pos is None:
        m = POSITION_RE.match(line)
        pos = (int(m.group(1)), int(m.group(2))) if m else None
    return pos


def join_positions(cells) -> str:
    """Cells, already sorted, as a list with a serial comma: '(a), (b), and (c)'."""
    parts = [POSITION_TEXT[c] for c in cells]
    if len(parts) == 1:
        return parts[0]
    return ", ".join(parts[:-1]) + ", and " + parts[-1]


def render_obstacles(spec: GridSpec) -> str:
    """'The pit is at ... . The wall is at ... .' Empty when there are neither."""
    walls, pits = spec.obstacles
    sentences = []
    if pits:
        sentences.append(f"The pit is at {join_positions(pits)}.")
    if walls:
        sentences.append(f"The wall is at {join_positions(walls)}.")
    return " ".join(sentences)


def render_observation(spec: GridSpec, pos: Position) -> str:
    """Current cell plus each possible move as a destination and action line."""
    text = POSITION_TEXT
    lines = ["Current:", text[pos], "Possible:"]
    for action, dest in valid_actions(spec, pos):
        lines += text[dest], action._value_  # the plain attribute behind .value
    return "\n".join(lines)


def render_environment(spec: GridSpec) -> str:
    """The third opening turn: bounds, goal, start, obstacles, first observation."""
    text = POSITION_TEXT
    lines = [
        f"Grid is from {text[spec.min_x, spec.min_y]} to {text[spec.max_x, spec.max_y]}. "
        f"Goal: {text[spec.goal]}",
        f"Current: {text[spec.start]}",
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
    observation after the header lines: the last "Current:" line starts it.
    """
    lines = text.split("\n")
    if "Current:" in lines[1:]:  # a later one starts it; one on the first line already does
        lines = lines[len(lines) - 1 - lines[::-1].index("Current:"):]
    if len(lines) < 3 or lines[0] != "Current:" or lines[2] != "Possible:":
        raise ValueError(f"not an observation: {text!r}")
    current = parse_position(lines[1])
    if current is None:
        raise ValueError(f"bad current position line: {lines[1]!r}")
    if not len(lines) % 2:
        raise ValueError("dangling destination line in observation")
    moves = []
    for line, word in zip(lines[3::2], lines[4::2]):
        dest, action = parse_position(line), parse_action(word)
        if dest is None or action is None:
            raise ValueError(f"bad move lines: {line!r}, {word!r}")
        moves.append((action, dest))
    return current, moves
