from __future__ import annotations

import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from gridmind.grid import Action, GridSpec, board_index
from gridmind.generate import TEST_PARAMS, TRAIN_PARAMS, generate_indexed
from gridmind.prompts import (
    ACK_TEXT,
    GPT,
    HUMAN,
    RULES_TEXT,
    PromptText,
    cell_names,
    format_position,
    join_positions,
    parse_action,
    parse_observation,
    parse_position,
    render_environment,
    render_instruction,
    render_obstacles,
    render_observation,
)

from conftest import load_golden, small_boards, translate
import oracles


def test_rules_text_golden():
    assert RULES_TEXT == load_golden("rules.txt")


def test_environment_turn_golden(ref_env):
    assert render_environment(ref_env) == load_golden("environment_turn.txt")


def test_observation_golden():
    spec = GridSpec(
        min_x=10, min_y=3, size_x=3, size_y=3, start=(10, 3), goal=(12, 5),
        walls=frozenset({(11, 5)}), pits=frozenset({(11, 3)}),
    )
    assert render_observation(spec, (11, 4)) == load_golden("observation_11_4.txt")


def test_instruction_turns(ref_env):
    turns = render_instruction(ref_env)
    assert [t.role for t in turns] == [HUMAN, GPT, HUMAN]
    assert turns[0].text == RULES_TEXT
    assert turns[1].text == ACK_TEXT
    assert turns[2].text == render_environment(ref_env)


def test_position_formatting_round_trip():
    assert format_position((3, 12)) == "(3, 12)"
    assert parse_position("(3, 12)") == (3, 12)
    assert parse_position("(3,12)") is None
    assert parse_position(" (3, 12)") is None
    assert parse_position("(3, 12) ") is None


def test_positions_off_the_table_render_and_parse_the_same_way(ref_env):
    for x in range(-3, 23):
        for y in range(-3, 23):
            assert parse_position(format_position((x, y))) == (x, y)
    assert parse_position("(03, -0)") == (3, 0)
    # a board far off the coordinate table is written cell by cell as before
    far = translate(ref_env, 40, -7)
    shifted = re.sub(
        r"\((-?\d+), (-?\d+)\)",
        lambda m: f"({int(m[1]) + 40}, {int(m[2]) - 7})",
        render_environment(ref_env),
    )
    assert render_environment(far) == shifted


def test_prompt_text_is_an_immutable_value():
    turn = PromptText(HUMAN, "hi")
    assert (turn.role, turn.text) == (HUMAN, "hi")
    assert turn == PromptText(HUMAN, "hi")
    assert turn != PromptText(GPT, "hi")
    with pytest.raises(AttributeError):
        turn.text = "bye"


def test_join_positions_serial_comma():
    assert join_positions([(1, 2)]) == "(1, 2)"
    assert join_positions([(1, 2), (3, 4)]) == "(1, 2), and (3, 4)"
    assert join_positions([(1, 2), (3, 4), (5, 6)]) == "(1, 2), (3, 4), and (5, 6)"


def test_obstacle_lines_omitted_when_absent():
    bare = GridSpec(min_x=0, min_y=0, size_x=2, size_y=3, start=(0, 0), goal=(1, 2))
    assert render_obstacles(bare) == ""
    env_text = render_environment(bare)
    assert "pit" not in env_text and "wall" not in env_text
    assert "Goal: (1, 2)" in env_text

    pit_only = GridSpec(
        min_x=0, min_y=0, size_x=2, size_y=3, start=(0, 0), goal=(1, 2),
        pits=frozenset({(1, 0)}),
    )
    text = render_obstacles(pit_only)
    assert text == "The pit is at (1, 0)."


def test_render_has_no_trailing_whitespace(ref_env):
    for text in (render_environment(ref_env), render_observation(ref_env, (0, 0))):
        for line in text.split("\n"):
            assert line == line.rstrip()
        assert not text.endswith("\n")


def test_parse_action():
    assert parse_action("up") is Action.UP
    assert parse_action(" down\n") is Action.DOWN
    assert parse_action("Left") is None
    assert parse_action("go right") is None
    assert parse_action("") is None


def test_parse_observation_round_trip(ref_env):
    for pos in ref_env.free_cells():
        text = render_observation(ref_env, pos)
        current, moves = parse_observation(text)
        assert current == pos
        from gridmind.grid import valid_actions

        assert moves == valid_actions(ref_env, pos)


def test_parse_observation_inside_environment_turn(ref_env):
    current, moves = parse_observation(render_environment(ref_env))
    assert current == (0, 0)
    assert [a.value for a, _ in moves] == ["up", "right"]


def test_parse_observation_rejects_malformed():
    with pytest.raises(ValueError):
        parse_observation("no observation here")
    with pytest.raises(ValueError):
        parse_observation("Current:\n(1, 1)\nPossible:\n(1, 2)\nfly")
    with pytest.raises(ValueError):
        parse_observation("Current:\n(1, 1)\nPossible:\n(1, 2)")


def test_round_trip_on_random_envs():
    from gridmind.grid import valid_actions

    for index in range(40):
        spec = generate_indexed(TRAIN_PARAMS, index)
        for pos in list(spec.free_cells())[:6]:
            current, moves = parse_observation(render_observation(spec, pos))
            assert current == pos
            assert moves == valid_actions(spec, pos)


# mostly well-formed lines, and a few that are not
_POSITIONS = ["(1, 2)", "(0, 0)", "(-1, 20)", "(25, 3)", "(03, -0)", "(1,2)", "(1, 2)\r"]
_WORD_LINES = ["up", "down", "left", "right", " left", "up\r", "Up", ""]
_LINES = _POSITIONS + _WORD_LINES + ["Current:", "Possible:", "\r", "Current:\r", "Current: (1, 2)"]


@st.composite
def observation_texts(draw):
    """Observations built line by line or rendered from a board (an
    environment turn or a plain observation), between arbitrary lines, with
    one line sometimes dropped."""
    lines = draw(st.lists(st.sampled_from(_LINES), max_size=5))
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(st.sampled_from(_POSITIONS), st.sampled_from(_WORD_LINES)),
                              max_size=4))
        lines += ["Current:", draw(st.sampled_from(_POSITIONS)), "Possible:"]
        lines += [line for pair in pairs for line in pair]
    else:
        spec = generate_indexed(draw(st.sampled_from([TRAIN_PARAMS, TEST_PARAMS])),
                                draw(st.integers(0, 1000)))
        turn = draw(st.sampled_from([render_environment(spec),
                                     render_observation(spec, spec.start)]))
        lines += turn.split("\n")
    lines += draw(st.lists(st.sampled_from(_LINES), max_size=2))
    if draw(st.booleans()):
        del lines[draw(st.integers(0, len(lines) - 1))]
    return "\n".join(lines)


@settings(max_examples=500, deadline=None)
@given(observation_texts() | st.text(alphabet="Current:Possible(), 0123456789-\n\rupdownleftright"))
def test_parse_observation_matches_the_line_walk(text):
    try:
        expected = oracles.parse_observation(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            parse_observation(text)
        assert str(raised.value) == str(exc)
    else:
        assert parse_observation(text) == expected


@settings(max_examples=300, deadline=None)
@given(st.builds(generate_indexed, st.sampled_from([TRAIN_PARAMS, TEST_PARAMS]),
                 st.integers(0, 10_000)) | small_boards(split=True))
def test_the_opening_turns_describe_the_whole_board(spec):
    assert oracles.board_from_text(render_instruction(spec)) == replace(spec, seed=None)


@settings(max_examples=300, deadline=None)
@given(w=st.integers(2, 20), h=st.integers(2, 20),
       ox=st.integers(-30, 40), oy=st.integers(-30, 40))
def test_cell_names_name_every_board_index(w, h, ox, oy):
    """The board and its ring, inside the column table or past it, as
    ``conftest.translate`` moves boards."""
    spec = GridSpec(min_x=ox, min_y=oy, size_x=w, size_y=h, start=(ox, oy), goal=(ox + 1, oy))
    names = cell_names(spec)
    assert len(names) == len(spec.board)
    for x in range(ox - 1, ox + w + 1):
        for y in range(oy - 1, oy + h + 1):
            # spec.cell maps every ring cell to index 0, so index by board_index
            assert names[board_index(x - ox, y - oy, h)] == format_position((x, y))
