from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridmind import (
    ACTIONS,
    Action,
    GridSpec,
    MoveKind,
    count_simple_paths,
    optimal_path,
    path_states,
    transition,
    valid_actions,
)
from gridmind.generate import TEST_PARAMS, generate_indexed
from gridmind.grid import translate

from conftest import example_env
from oracles import enumerate_simple_paths, shortest_path_length


def test_action_order_and_deltas():
    assert [a.value for a in ACTIONS] == ["up", "down", "left", "right"]
    assert Action.UP.apply((2, 5)) == (2, 6)
    assert Action.DOWN.apply((2, 5)) == (2, 4)
    assert Action.LEFT.apply((2, 5)) == (1, 5)
    assert Action.RIGHT.apply((2, 5)) == (3, 5)
    for a in ACTIONS:
        assert a.inverse.apply(a.apply((0, 0))) == (0, 0)


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
    result = transition(ref_env, pos, action)
    assert result.kind is kind
    assert result.dest == dest


def test_transition_rejects_bad_positions(ref_env):
    with pytest.raises(ValueError):
        transition(ref_env, (1, 1), Action.UP)  # wall
    with pytest.raises(ValueError):
        transition(ref_env, (3, 0), Action.UP)  # pit
    with pytest.raises(ValueError):
        transition(ref_env, (9, 9), Action.UP)  # out of bounds


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
        allowed = dict(valid_actions(ref_env, pos))
        for action in ACTIONS:
            result = transition(ref_env, pos, action)
            if result.kind in (MoveKind.MOVED, MoveKind.REACHED_GOAL):
                assert allowed[action] == result.dest
            else:
                assert action not in allowed


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


def test_count_simple_paths_limit():
    # twelve simple paths, reported as 2: "two or more"
    open_grid = GridSpec(min_x=0, min_y=0, size_x=3, size_y=3, start=(0, 0), goal=(2, 2))
    assert len(enumerate_simple_paths(open_grid)) == 12
    assert count_simple_paths(open_grid) == 2


@st.composite
def small_boards(draw):
    """Boards up to 5x5 anywhere on [0, 19]^2 with random walls and pits, so
    cycles and sealed goals occur."""
    w, h = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    ox, oy = draw(st.integers(0, 20 - w)), draw(st.integers(0, 20 - h))
    cells = [(x, y) for x in range(ox, ox + w) for y in range(oy, oy + h)]
    start, goal = draw(st.lists(st.sampled_from(cells), min_size=2, max_size=2, unique=True))
    obstacles = draw(st.sets(st.sampled_from([c for c in cells if c not in (start, goal)])))
    pits = draw(st.sets(st.sampled_from(sorted(obstacles)))) if obstacles else set()
    return GridSpec(min_x=ox, min_y=oy, size_x=w, size_y=h, start=start, goal=goal,
                    walls=frozenset(obstacles - pits), pits=frozenset(pits))


@settings(max_examples=400, deadline=None)
@given(small_boards())
def test_count_simple_paths_matches_the_oracle(spec):
    assert count_simple_paths(spec) == min(len(enumerate_simple_paths(spec, cap=2)), 2)


def test_count_simple_paths_ignores_obstacles_off_the_board():
    # an off-board cell must not mark a board cell, even through a negative index
    spec = GridSpec(min_x=0, min_y=0, size_x=3, size_y=3, start=(0, 0), goal=(2, 2),
                    walls=frozenset({(5, 1), (1, -3)}))
    assert count_simple_paths(spec) == min(len(enumerate_simple_paths(spec, cap=2)), 2) == 2
    corridor = GridSpec(min_x=0, min_y=0, size_x=3, size_y=2, start=(0, 0), goal=(2, 0),
                        walls=frozenset({(0, 1), (1, 1), (2, 1), (4, 0), (-1, 0)}))
    assert count_simple_paths(corridor) == len(enumerate_simple_paths(corridor)) == 1


def test_spec_json_round_trip(ref_env):
    text = ref_env.to_json()
    again = GridSpec.from_json(text)
    assert again == ref_env
    assert again.to_json() == text
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
        for pos in spec.free_cells():
            allowed = dict(valid_actions(spec, pos))
            for action in ACTIONS:
                result = transition(spec, pos, action)
                dest = action.apply(pos)
                if result.kind is MoveKind.BLOCKED_BOUNDS:
                    assert not spec.in_bounds(dest)
                elif result.kind is MoveKind.BLOCKED_WALL:
                    assert dest in spec.walls
                elif result.kind is MoveKind.PIT:
                    assert dest in spec.pits
                elif result.kind is MoveKind.REACHED_GOAL:
                    assert dest == spec.goal and action in allowed
                else:
                    assert result.kind is MoveKind.MOVED
                    assert spec.is_free(dest) and action in allowed
