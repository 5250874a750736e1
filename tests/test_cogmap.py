from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from gridmind import GridSpec
from gridmind.cogmap import (
    ALL_VARIANTS,
    CUT_TOKEN,
    VARIANT_NAMES,
    CotVariant,
    Direction,
    PlanParseError,
    parse_plan,
    render_parts,
    render_target,
)
from gridmind.generate import TEST_PARAMS, TRAIN_PARAMS, generate_indexed
from gridmind.grid import optimal_path

from conftest import load_golden, translate
from oracles import DELTAS, search_trace, thought_text

GOLDEN_VARIANTS = [
    f"{d}-{v}"
    for d in ("fwd", "bwd")
    for v in (
        "steps-bt",
        "kept-nobt",
        "kept-bt",
        "full-nobt",
        "full-bt",
        "full-marked-nobt",
        "full-marked-bt",
    )
]


@pytest.mark.parametrize("name", GOLDEN_VARIANTS)
def test_thought_goldens_strict(ref_env, name):
    variant = CotVariant.from_name(name)
    thought, _ = render_parts(ref_env, variant, strict=True)
    assert thought == load_golden(f"cot/{name}.txt")


def test_uniform_differs_from_strict_only_on_first_forward_backtrack(ref_env):
    for name in GOLDEN_VARIANTS:
        variant = CotVariant.from_name(name)
        strict, _ = render_parts(ref_env, variant, strict=True)
        uniform, _ = render_parts(ref_env, variant, strict=False)
        if variant.direction is Direction.BWD or not variant.backtrack:
            assert uniform == strict
            continue
        merged = "(3, 2)up"
        s_head, _, s_tail = strict.partition("\nBacktrack:\n")
        u_head, _, u_tail = uniform.partition("\nBacktrack:\n")
        assert s_head == u_head
        assert s_tail.split("\n")[0] == merged
        assert u_tail.split("\n")[:2] == ["(3, 2)", "up"]
        assert s_tail.split("\n")[1:] == u_tail.split("\n")[2:]


def test_variant_roster():
    assert len(ALL_VARIANTS) == 16
    assert len(set(VARIANT_NAMES)) == 16
    assert "fwd-none" in VARIANT_NAMES and "bwd-none" in VARIANT_NAMES
    for variant in ALL_VARIANTS:
        assert CotVariant.from_name(variant.name) == variant
    with pytest.raises(ValueError):
        CotVariant.from_name("sideways-full-bt")


def test_trace_structure(ref_env):
    for direction in ("fwd", "bwd"):
        trace = search_trace(ref_env, direction)
        assert len(trace.layers) == len(trace.plan) == 5
        assert trace.states[0] == ref_env.start
        assert trace.states[-1] == ref_env.goal
        if direction == "fwd":
            assert trace.root == ref_env.start and trace.terminal == ref_env.goal
        else:
            assert trace.root == ref_env.goal and trace.terminal == ref_env.start
        for layer in trace.layers:
            for expansion in layer:
                assert len(expansion.records) == 4
                for rec in expansion.records:
                    dx, dy = DELTAS[rec.label]
                    if direction == "fwd":
                        assert (expansion.origin[0] + dx, expansion.origin[1] + dy) == rec.neighbor
                    else:
                        assert (rec.neighbor[0] + dx, rec.neighbor[1] + dy) == expansion.origin
                    assert rec.kept == (rec.cut_reason is None)


def test_trace_cut_reasons(ref_env):
    trace = search_trace(ref_env, "fwd")
    first = {rec.neighbor: rec for rec in trace.layers[0][0].records}
    assert first[(0, 1)].kept and first[(1, 0)].kept
    assert first[(0, -1)].cut_reason == "out_of_bounds"
    assert first[(-1, 0)].cut_reason == "out_of_bounds"
    # the root is pre-seeded as visited, so stepping back onto it is a cut
    second_origins = [e.origin for e in trace.layers[1]]
    assert second_origins == [(0, 1), (1, 0)]
    back = {rec.neighbor: rec for rec in trace.layers[1][1].records}
    assert back[(0, 0)].cut_reason == "visited"
    assert back[(1, 1)].cut_reason == "wall"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([TRAIN_PARAMS, TEST_PARAMS]), st.integers(0, 2**32))
def test_sweep_matches_the_oracle_trace(params, index):
    spec = generate_indexed(params, index)
    for variant in ALL_VARIANTS:
        for strict in (False, True):
            thought, _ = render_parts(spec, variant, strict)
            assert thought == thought_text(spec, variant.name, strict), (variant.name, strict)


def test_thought_text_beyond_the_coordinate_table(ref_env):
    # cells past one step around [0, 19]^2 are formatted on demand, the same way
    far = translate(ref_env, 40, -7)
    variant = CotVariant.from_name("fwd-full-bt")
    near_text, _ = render_parts(ref_env, variant)
    shifted = re.sub(
        r"\((-?\d+), (-?\d+)\)", lambda m: f"({int(m[1]) + 40}, {int(m[2]) - 7})", near_text
    )
    assert render_parts(far, variant)[0] == shifted


def test_backtrack_entries(ref_env):
    states = ["(0, 0)", "(1, 0)", "(2, 0)", "(2, 1)", "(3, 1)", "(3, 2)"]
    moves = ["right", "right", "up", "right", "up"]
    # forward: goal to start, each state with the move that reached it
    fwd, _ = render_parts(ref_env, CotVariant.from_name("fwd-steps-bt"))
    walk = fwd.split("\nBacktrack:\n")[1].split("\n")
    assert walk[:2] == ["(3, 2)", "up"] and walk[-1] == "(0, 0)"
    assert walk[::2] == states[::-1] and walk[1::2] == moves[::-1]
    # backward: start to goal, each state with the move to take next
    bwd, _ = render_parts(ref_env, CotVariant.from_name("bwd-steps-bt"))
    walk = bwd.split("\nBacktrack:\n")[1].split("\n")
    assert walk[:2] == ["(0, 0)", "right"] and walk[-1] == "(3, 2)"
    assert walk[::2] == states and walk[1::2] == moves


def test_render_parts_silent_variant(ref_env):
    thought, plan = render_parts(ref_env, CotVariant.from_name("fwd-none"))
    assert thought == ""
    assert plan == "right\nright\nup\nright\nup"
    assert render_target(ref_env, CotVariant.from_name("fwd-none")) == plan


def test_render_target_appends_plan(ref_env):
    variant = CotVariant.from_name("bwd-kept-bt")
    thought, plan = render_parts(ref_env, variant)
    assert render_target(ref_env, variant) == f"{thought}\n{plan}"


def test_parse_bare_plan():
    thought, actions = parse_plan("up\nright\ndown")
    assert thought is None
    assert [a.value for a in actions] == ["up", "right", "down"]
    thought, actions = parse_plan("  up\nright  \n")
    assert [a.value for a in actions] == ["up", "right"]


@pytest.mark.parametrize("name", VARIANT_NAMES)
@pytest.mark.parametrize("strict", [False, True])
def test_parse_round_trips_every_variant(ref_env, name, strict):
    variant = CotVariant.from_name(name)
    plan = [a for a, _ in optimal_path(ref_env)]
    thought_text, _ = render_parts(ref_env, variant, strict)
    parsed_thought, actions = parse_plan(render_target(ref_env, variant, strict))
    assert actions == plan
    if thought_text:
        assert parsed_thought is not None
    else:
        assert parsed_thought is None


def test_parse_round_trips_on_random_envs():
    for index in range(12):
        spec = generate_indexed(TRAIN_PARAMS, index)
        plan = [a for a, _ in optimal_path(spec)]
        for variant in ALL_VARIANTS:
            _, actions = parse_plan(render_target(spec, variant, strict=True))
            assert actions == plan, (index, variant.name)


def test_parse_backward_thought_without_plan_recovers_plan(ref_env):
    variant = CotVariant.from_name("bwd-full-bt")
    thought, _ = render_parts(ref_env, variant)
    parsed_thought, actions = parse_plan(thought)
    assert parsed_thought == thought
    assert actions == [a for a, _ in optimal_path(ref_env)]


def test_parse_forward_thought_without_plan_reverses_moves(ref_env):
    variant = CotVariant.from_name("fwd-full-bt")
    plan = [a for a, _ in optimal_path(ref_env)]
    for strict in (False, True):
        thought, _ = render_parts(ref_env, variant, strict)
        _, actions = parse_plan(thought)
        # arrival moves read goal-to-start, so the recovered plan is reversed
        assert actions == plan[::-1]


def test_parse_single_move_plan_after_backtrack():
    spec = GridSpec(
        min_x=0, min_y=0, size_x=2, size_y=2, start=(0, 0), goal=(0, 1),
        walls=frozenset({(1, 1)}),
    )
    for name in ("fwd-steps-bt", "bwd-steps-bt"):
        _, actions = parse_plan(render_target(spec, CotVariant.from_name(name)))
        assert [a.value for a in actions] == ["up"]


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("   \n  ", 1),
        ("up\nbanana", 2),
        ("Thought:\nno structure", 1),
        ("Thought:\nStep 1:\n(1, 1)", 3),
        ("Thought:\nStep 1:\n(1, 1)\nfly\nup", 4),
        ("Thought:\nStep 1:\n(1, 1)\nup", 4),
        ("Thought:\nBacktrack:", 2),
        ("Thought:\nBacktrack:\n(1, 1)", 3),
        ("Thought:\nBacktrack:\nnonsense", 3),
        ("Thought:\nBacktrack:\n(1, 1)\nfly", 4),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(PlanParseError) as err:
        parse_plan(text)
    assert err.value.line == line
    assert f"line {line}:" in str(err.value)


def test_cut_token_only_in_marked_variants(ref_env):
    marked = render_target(ref_env, CotVariant.from_name("fwd-full-marked-nobt"))
    full = render_target(ref_env, CotVariant.from_name("fwd-full-nobt"))
    assert f"\n{CUT_TOKEN}\n" in marked
    assert f"\n{CUT_TOKEN}\n" not in full
    # marked text keeps every probed neighbor but hides the cut move words
    _, actions = parse_plan(marked)
    assert [a.value for a in actions] == ["right", "right", "up", "right", "up"]


def test_kept_variant_lists_only_kept_neighbors(ref_env):
    trace = search_trace(ref_env, "fwd")
    kept_text, _ = render_parts(ref_env, CotVariant.from_name("fwd-kept-nobt"))
    kept_positions = [
        rec.neighbor
        for layer in trace.layers
        for expansion in layer
        for rec in expansion.records
        if rec.kept
    ]
    lines = kept_text.split("\n")
    from gridmind.prompts import parse_position

    listed = [parse_position(line) for line in lines if parse_position(line)]
    assert listed == kept_positions
