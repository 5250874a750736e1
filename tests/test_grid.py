from __future__ import annotations

import ast
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridmind
from gridmind.generate import TEST_PARAMS, generate_indexed
from gridmind.grid import ACTIONS, Action, GridSpec, count_simple_paths, optimal_path, valid_actions
from gridmind.harness import REACHABLE, Outcome, _play_reachable, run_episode
from gridmind.prompts import (GPT, PromptText, parse_observation, render_instruction,
                              render_observation)

from conftest import ScriptedReplies, example_env, small_boards, translate
from oracles import (
    DELTAS,
    MoveKind,
    enumerate_simple_paths,
    move_kind,
    moved,
    path_states,
    shortest_path_length,
    spec_line,
    standable_cells,
)


def one_move(spec, pos, action):
    """The outcome and cell after the reachable loop from ``pos`` makes the
    move ``action``: ("playing", the cell) when the move did not end the
    episode (its second, empty reply does, after an observation of the
    cell), else (the outcome, None). The loop is played without
    ``run_episode``, which refuses a goal with no path or two from ``pos``."""
    start = replace(spec, start=pos)
    transcript = render_instruction(start) + [PromptText(GPT, action.value)]
    result = _play_reachable(start, ScriptedReplies([]), transcript, list(transcript), 0, 2)
    if result.outcome is not Outcome.INVALID:
        return result.outcome.value, None
    assert result.steps == 1
    return "playing", parse_observation(result.transcript[-2].text)[0]


def expected_move(kind, pos, action):
    """``one_move``'s result for a move of that kind."""
    if kind is MoveKind.PIT:
        return "deadend", None
    if kind is MoveKind.REACHED_GOAL:
        return "success", None
    return "playing", moved(pos, action) if kind is MoveKind.MOVED else pos


def test_action_order_and_deltas():
    assert [a.value for a in ACTIONS] == ["up", "down", "left", "right"]
    assert moved((2, 5), Action.UP) == (2, 6)
    assert moved((2, 5), Action.DOWN) == (2, 4)
    assert moved((2, 5), Action.LEFT) == (1, 5)
    assert moved((2, 5), Action.RIGHT) == (3, 5)
    for a in ACTIONS:
        assert a.delta == moved((0, 0), a)
        assert moved(moved((0, 0), a), a.inverse) == (0, 0)


@pytest.mark.parametrize(
    "pos,action,kind,dest",
    [
        ((0, 0), Action.RIGHT, MoveKind.MOVED, (1, 0)),
        ((0, 0), Action.DOWN, MoveKind.BLOCKED_BOUNDS, None),
        ((0, 0), Action.LEFT, MoveKind.BLOCKED_BOUNDS, None),
        ((1, 0), Action.UP, MoveKind.BLOCKED_WALL, None),
        ((2, 0), Action.RIGHT, MoveKind.PIT, (3, 0)),
        ((3, 1), Action.UP, MoveKind.REACHED_GOAL, (3, 2)),
    ],
)
def test_transition_cases(ref_env, pos, action, kind, dest):
    assert move_kind(ref_env, pos, action.value) is kind
    assert one_move(ref_env, pos, action) == expected_move(kind, pos, action)
    if dest is not None:
        assert moved(pos, action) == dest


def test_transition_rejects_bad_positions(ref_env):
    for pos, reason in (((1, 1), "a wall"), ((3, 0), "a pit"), ((9, 9), "out of bounds")):
        message = re.escape(f"position {pos} is {reason}")
        with pytest.raises(ValueError, match=message):
            render_observation(ref_env, pos)
        with pytest.raises(ValueError, match=message):  # the opening turn's observation
            run_episode(replace(ref_env, start=pos), ScriptedReplies(["up"]), REACHABLE)


def test_valid_actions_canonical_order(ref_env):
    assert valid_actions(ref_env, (0, 0)) == [
        (Action.UP, (0, 1)),
        (Action.RIGHT, (1, 0)),
    ]
    # the goal counts as a destination
    assert valid_actions(ref_env, (3, 1)) == [
        (Action.UP, (3, 2)),
        (Action.LEFT, (2, 1)),
    ]


def test_valid_actions_agree_with_transition(ref_env):
    for pos in ref_env.free_cells():
        if pos == ref_env.goal:
            continue
        allowed = dict(valid_actions(ref_env, pos))
        for action in ACTIONS:
            outcome, cell = one_move(ref_env, pos, action)
            dest = allowed.get(action)
            if dest == ref_env.goal:
                assert (outcome, cell) == ("success", None)
            elif dest is not None:
                assert (outcome, cell) == ("playing", dest)
            else:
                assert outcome == "deadend" or cell == pos


def test_optimal_path_small_example(ref_env):
    path = optimal_path(ref_env)
    assert [a.value for a, _ in path] == ["right", "right", "up", "right", "up"]
    assert path_states(ref_env, path) == [
        (0, 0),
        (1, 0),
        (2, 0),
        (2, 1),
        (3, 1),
        (3, 2),
    ]


def test_optimal_path_unreachable_raises():
    spec = GridSpec(
        min_x=0, min_y=0, size_x=3, size_y=2, start=(0, 0), goal=(2, 0),
        walls=frozenset({(1, 0), (1, 1)}),
    )
    with pytest.raises(ValueError):
        optimal_path(spec)


def test_count_simple_paths():
    assert count_simple_paths(example_env()) == 1
    open_grid = GridSpec(min_x=0, min_y=0, size_x=2, size_y=2, start=(0, 0), goal=(1, 1))
    assert count_simple_paths(open_grid) == 2
    blocked = GridSpec(
        min_x=0, min_y=0, size_x=3, size_y=2, start=(0, 0), goal=(2, 0),
        walls=frozenset({(1, 0), (1, 1)}),
    )
    assert count_simple_paths(blocked) == 0
    # a 2x2 loop on a stem off the corridor y = 0: still one path
    loop_off_path = GridSpec(
        min_x=0, min_y=0, size_x=5, size_y=4, start=(0, 0), goal=(4, 0),
        walls=frozenset({(0, 1), (1, 1), (3, 1), (4, 1), (0, 2), (3, 2), (4, 2),
                         (0, 3), (3, 3), (4, 3)}),
    )
    # a loop through the path's cells (1, 0) and (2, 0)
    loop_on_path = GridSpec(
        min_x=0, min_y=0, size_x=4, size_y=2, start=(0, 0), goal=(3, 0),
        walls=frozenset({(0, 1), (3, 1)}),
    )
    # the start's corridor is a tree; the 2x2 room walled off beside it is not
    tree_beside_loop = GridSpec(
        min_x=0, min_y=0, size_x=5, size_y=3, start=(0, 0), goal=(2, 0),
        walls=frozenset({(3, 0), (4, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)}),
    )
    walled_in_goal = GridSpec(
        min_x=0, min_y=0, size_x=3, size_y=3, start=(0, 0), goal=(2, 2),
        walls=frozenset({(1, 2)}), pits=frozenset({(2, 1)}),
    )
    for spec, paths in ((loop_off_path, 1), (loop_on_path, 2), (tree_beside_loop, 1),
                        (walled_in_goal, 0)):
        assert count_simple_paths(spec) == min(len(enumerate_simple_paths(spec, cap=2)), 2) == paths


def test_count_simple_paths_limit():
    # twelve simple paths, reported as 2: "two or more"
    open_grid = GridSpec(min_x=0, min_y=0, size_x=3, size_y=3, start=(0, 0), goal=(2, 2))
    assert len(enumerate_simple_paths(open_grid)) == 12
    assert count_simple_paths(open_grid) == 2


@settings(max_examples=400, deadline=None)
@given(small_boards())
def test_count_simple_paths_matches_the_oracle(spec):
    assert count_simple_paths(spec) == min(len(enumerate_simple_paths(spec, cap=2)), 2)


@settings(max_examples=300, deadline=None)
@given(small_boards(off_board=True))
def test_board_walks_match_the_oracle(spec):
    free = standable_cells(spec)
    assert spec.free_cells() == free
    for pos in free:
        steps = [(word, (pos[0] + dx, pos[1] + dy)) for word, (dx, dy) in DELTAS.items()]
        assert [(a.value, dest) for a, dest in valid_actions(spec, pos)] == [
            (word, dest) for word, dest in steps if dest in free]
        if pos == spec.goal:
            continue
        for action in ACTIONS:
            kind = move_kind(spec, pos, action.value)
            assert one_move(spec, pos, action) == expected_move(kind, pos, action)
    length = shortest_path_length(spec)
    if length is None:
        with pytest.raises(ValueError):
            optimal_path(spec)
    else:
        assert len(optimal_path(spec)) == length
    assert count_simple_paths(spec) == min(len(enumerate_simple_paths(spec, cap=2)), 2)


@settings(max_examples=300, deadline=None)
@given(small_boards(off_board=True))
def test_run_episode_plays_exactly_the_boards_with_one_path(spec):
    paths = len(enumerate_simple_paths(spec, cap=2))
    if paths == 1:
        assert run_episode(spec, ScriptedReplies([]), REACHABLE).outcome is Outcome.INVALID
    else:
        needle = "goal is unreachable" if paths == 0 else "expected exactly 1 simple path"
        with pytest.raises(ValueError, match=needle):
            run_episode(spec, ScriptedReplies([]), REACHABLE)


@pytest.mark.parametrize("end", ["start", "goal"])
@pytest.mark.parametrize("cell", [(-1, 1), (1, -1), (3, 1), (1, 3), (0, 5), (0, 8), (2, -4), (9, 9)])
def test_an_end_off_the_board_has_no_path(end, cell):
    # unchecked, the index formula would put (0, 5) and (2, -4) on a board
    # cell of this 3x3 board, (3, 1) and (1, 3) on its ring, (9, 9) past its end
    spec = replace(GridSpec(min_x=0, min_y=0, size_x=3, size_y=3, start=(0, 0), goal=(2, 2)),
                   **{end: cell})
    assert count_simple_paths(spec) == 0
    with pytest.raises(ValueError):
        optimal_path(spec)


def test_count_simple_paths_ignores_obstacles_off_the_board():
    # an off-board cell must not mark a board cell, even through a negative index
    spec = GridSpec(min_x=0, min_y=0, size_x=3, size_y=3, start=(0, 0), goal=(2, 2),
                    walls=frozenset({(5, 1), (1, -3)}))
    assert count_simple_paths(spec) == min(len(enumerate_simple_paths(spec, cap=2)), 2) == 2
    corridor = GridSpec(min_x=0, min_y=0, size_x=3, size_y=2, start=(0, 0), goal=(2, 0),
                        walls=frozenset({(0, 1), (1, 1), (2, 1), (4, 0), (-1, 0)}))
    assert count_simple_paths(corridor) == len(enumerate_simple_paths(corridor)) == 1


def test_spec_json_round_trip(ref_env):
    text = spec_line(ref_env)
    again = GridSpec.from_json_dict(json.loads(text))
    assert again == ref_env
    assert spec_line(again) == text
    d = json.loads(text)
    assert list(d) == [
        "min_x", "min_y", "size_x", "size_y", "start", "goal", "walls", "pits", "seed",
    ]
    assert d["walls"] == sorted(d["walls"])
    assert d["pits"] == sorted(d["pits"])


def test_spec_validate_rejects_bad_specs(ref_env):
    with pytest.raises(ValueError):
        GridSpec(min_x=0, min_y=0, size_x=1, size_y=3, start=(0, 0), goal=(0, 2)).validate()
    with pytest.raises(ValueError):
        GridSpec(min_x=15, min_y=0, size_x=6, size_y=2, start=(15, 0), goal=(16, 0)).validate()
    with pytest.raises(ValueError):
        GridSpec(min_x=0, min_y=0, size_x=3, size_y=3, start=(1, 1), goal=(1, 1)).validate()
    with pytest.raises(ValueError):
        GridSpec(
            min_x=0, min_y=0, size_x=3, size_y=3, start=(0, 0), goal=(2, 2),
            walls=frozenset({(1, 1)}), pits=frozenset({(1, 1)}),
        ).validate()
    with pytest.raises(ValueError):
        GridSpec(
            min_x=0, min_y=0, size_x=3, size_y=3, start=(0, 0), goal=(2, 2),
            pits=frozenset({(0, 0)}),
        ).validate()
    ref_env.validate()  # the good one passes


@pytest.mark.parametrize("kind", ["wall", "pit"])
@pytest.mark.parametrize("cell", [(-1, 1), (3, 1), (1, -1), (1, 3)])
def test_spec_validate_names_an_out_of_bounds_obstacle(kind, cell):
    inside = frozenset({(1, 1), (2, 0)})
    spec = GridSpec(
        min_x=0, min_y=0, size_x=3, size_y=3, start=(0, 0), goal=(2, 2),
        walls=inside | {cell} if kind == "wall" else inside,
        pits=frozenset({cell}) if kind == "pit" else frozenset(),
    )
    with pytest.raises(ValueError, match=re.escape(f"{kind} {cell} is out of bounds")):
        spec.validate()


def test_translate_preserves_structure(ref_env):
    moved = translate(ref_env, 5, 7)
    moved.validate()
    assert moved.start == (5, 7)
    assert (1 + 5, 1 + 7) in moved.walls
    assert [a for a, _ in optimal_path(moved)] == [a for a, _ in optimal_path(ref_env)]


def test_optimal_path_matches_dijkstra_on_random_envs():
    rng = np.random.default_rng(1234)
    for _ in range(150):
        spec = generate_indexed(TEST_PARAMS, int(rng.integers(10_000)))
        assert len(optimal_path(spec)) == shortest_path_length(spec)


def test_transition_partition_on_random_envs():
    for index in range(60):
        spec = generate_indexed(TEST_PARAMS, index)
        free = set(spec.free_cells())
        for pos in free - {spec.goal}:
            allowed = dict(valid_actions(spec, pos))
            for action in ACTIONS:
                outcome, cell = one_move(spec, pos, action)
                dest = moved(pos, action)
                if outcome == "deadend":
                    assert dest in spec.pits
                elif outcome == "success":
                    assert dest == spec.goal and action in allowed
                elif cell == pos:
                    assert dest in spec.walls or not spec.in_bounds(dest)
                    assert action not in allowed
                else:
                    assert cell == dest and dest in free and action in allowed


def test_the_solution_is_read_in_grid_alone():
    """No module but grid reads a private GridSpec member, and the stats
    module neither imports from grid nor forks on a record's type."""
    trees = {path.name: ast.parse(path.read_text())
             for path in Path(gridmind.__file__).parent.glob("*.py")}
    spec_class = next(node for node in ast.walk(trees["grid.py"])
                      if isinstance(node, ast.ClassDef) and node.name == "GridSpec")
    private = {node.name for node in spec_class.body if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_") and not node.name.endswith("__")}
    assert {"_solution", "_along"} <= private
    for name, tree in trees.items():
        if name != "grid.py":
            read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            assert not read & private, name
    stats = list(ast.walk(trees["stats.py"]))
    imported = {node.module for node in stats if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in stats if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names}
    assert not imported & {"grid", "gridmind.grid"}
    assert "isinstance" not in {node.id for node in stats if isinstance(node, ast.Name)}


def test_each_name_has_one_import_path():
    """The package re-exports nothing: every name is imported from the module
    that defines it."""
    tree = ast.parse(Path(gridmind.__file__).read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not hasattr(gridmind, "GridSpec")
