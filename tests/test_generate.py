from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridmind.generate import (TEST_PARAMS, TRAIN_PARAMS, GenerationError, GenParams, Pcg64Stream,
                               derive_seed, generate_environment, generate_indexed)
from gridmind.grid import GLOBAL_MAX_COORD, GridSpec, complexity, optimal_path

from oracles import (enumerate_simple_paths, independent_complexity, is_tree, path_states,
                     spec_dict, spec_line)


def test_derive_seed_stable_and_distinct():
    a = derive_seed(0, 0)
    assert derive_seed(0, 0) == a
    seen = {derive_seed(7, i) for i in range(200)}
    assert len(seen) == 200
    assert derive_seed(7, 3) != derive_seed(8, 3)


@pytest.mark.parametrize("root, index", [(-1, 0), (0, -1), (-(2 ** 70), 3)])
def test_a_negative_root_or_index_raises(root, index):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        derive_seed(root, index)


def test_a_stream_from_a_negative_seed_raises():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        generate_environment(TRAIN_PARAMS, -1)


def test_generation_is_deterministic():
    specs_a = [generate_indexed(TRAIN_PARAMS, i) for i in range(25)]
    specs_b = [generate_indexed(TRAIN_PARAMS, i) for i in range(25)]
    assert specs_a == specs_b


def test_recorded_seed_regenerates_spec():
    for index in (0, 11, 42):
        spec = generate_indexed(TEST_PARAMS, index)
        assert spec.seed == derive_seed(TEST_PARAMS.seed, index)
        again = generate_environment(TEST_PARAMS, spec.seed)
        assert again == spec


def test_generated_specs_are_valid_unique_path_trees():
    for index in range(120):
        spec = generate_indexed(TEST_PARAMS, index)
        spec.validate()
        assert is_tree(spec)
        assert len(enumerate_simple_paths(spec, cap=2)) == 1
        assert spec.min_x >= 0 and spec.max_x <= GLOBAL_MAX_COORD
        assert spec.min_y >= 0 and spec.max_y <= GLOBAL_MAX_COORD


def test_size_ranges_and_extremes_are_reached():
    train_sizes = set()
    for index in range(600):
        spec = generate_indexed(TRAIN_PARAMS, index)
        train_sizes.add(spec.size_x)
        train_sizes.add(spec.size_y)
        assert 2 <= spec.size_x <= 10 and 2 <= spec.size_y <= 10
    assert {2, 10} <= train_sizes

    test_sizes = set()
    for index in range(900):
        spec = generate_indexed(TEST_PARAMS, index)
        test_sizes.add(spec.size_x)
        test_sizes.add(spec.size_y)
        assert 2 <= spec.size_x <= 20 and 2 <= spec.size_y <= 20
    assert {2, 20} <= test_sizes


def test_offsets_cover_the_global_board():
    corners = set()
    for index in range(800):
        spec = generate_indexed(TRAIN_PARAMS, index)
        corners.add((spec.min_x, spec.min_y))
        assert spec.max_x <= GLOBAL_MAX_COORD and spec.max_y <= GLOBAL_MAX_COORD
    xs = {c[0] for c in corners}
    ys = {c[1] for c in corners}
    assert min(xs) == 0 and min(ys) == 0
    assert max(xs) > 5 and max(ys) > 5


def test_pits_sit_beside_the_solution_path():
    saw_pits = False
    for index in range(200):
        spec = generate_indexed(TEST_PARAMS, index)
        if not spec.pits:
            continue
        saw_pits = True
        states = set(path_states(spec, optimal_path(spec)))
        for pit in spec.pits:
            assert any(
                (pit[0] + dx, pit[1] + dy) in states
                for dx, dy in ((0, 1), (0, -1), (1, 0), (-1, 0))
            )
    assert saw_pits


def test_complexity_floor_holds():
    floor = math.log(2) - 1e-12
    for index in range(400):
        spec = generate_indexed(TRAIN_PARAMS, index)
        assert complexity(spec) >= floor


def test_complexity_matches_independent_oracle():
    for index in range(150):
        spec = generate_indexed(TEST_PARAMS, index)
        assert complexity(spec) == pytest.approx(independent_complexity(spec), abs=1e-9)


def test_generation_error_when_complexity_is_unreachable():
    # 2x2 rooms with heavy walls leave no room for a branching decision
    params = GenParams(size_min=2, size_max=2, wall_density=0.95, seed=5)
    with pytest.raises(GenerationError):
        generate_environment(params, derive_seed(params.seed, 0))


def test_params_validation():
    with pytest.raises(ValueError):
        GenParams(size_min=1).validate()
    with pytest.raises(ValueError):
        GenParams(size_min=8, size_max=4).validate()
    with pytest.raises(ValueError):
        GenParams(size_max=30).validate()
    with pytest.raises(ValueError):
        GenParams(wall_density=1.5).validate()
    with pytest.raises(ValueError):
        GenParams(pit_density=-0.1).validate()
    TRAIN_PARAMS.validate()
    TEST_PARAMS.validate()


def test_distinct_indices_give_distinct_environments():
    specs = [generate_indexed(TRAIN_PARAMS, i) for i in range(40)]
    assert len(set(specs)) > 35


# SHA-256 over spec_line(generate_indexed(params, i)) + "\n" for i in range(200)
# at seed 0. Any change to the generator's draw order or output moves these.
_GENERATOR_DIGESTS = {
    "test": (TEST_PARAMS, "d88e3be8a20c58c936eb3b01e968eb5430f12fe8e446a50dd6f95dae09ef6c2a"),
    "train": (TRAIN_PARAMS, "6a3380a53e8e67ec9b2dd8fc710651cc4182237bd0981d7e8bb9961243bba3e4"),
}


@pytest.mark.parametrize("split", sorted(_GENERATOR_DIGESTS))
def test_generator_bytes_are_pinned(split):
    params, expected = _GENERATOR_DIGESTS[split]
    assert params.seed == 0
    digest = hashlib.sha256()
    for index in range(200):
        digest.update(spec_line(generate_indexed(params, index)).encode() + b"\n")
    assert digest.hexdigest() == expected


# numpy is the oracle for the stream: SeedSequence mixing, PCG64's raw words,
# Generator.integers and Generator.random, and how the last two interleave.
# Roots of 3 and 4 words are where zero padding stops, those of 2**128 and
# above have more words than the pool holds; indices of 2**32 and above are
# more than one word.
_BIG = st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64),
                 st.integers(2 ** 64 + 1, 2 ** 128 - 1), st.integers(2 ** 128, 2 ** 300))
# small bounds as growth draws them, powers of two, and bounds above 2**31,
# where Lemire's method rejects up to half the 32-bit halves
_BOUNDS = st.one_of(st.integers(1, 500), st.sampled_from([2 ** k for k in range(33)]),
                    st.integers(2 ** 31 + 1, 2 ** 32))
_SEEDS = st.one_of(st.integers(0, 2 ** 64 - 1), st.integers(2 ** 64, 2 ** 200))


@settings(max_examples=300, deadline=None)
@given(root=_BIG, index=_BIG)
@example(root=0, index=0)
@example(root=2 ** 32 - 1, index=2 ** 32 - 1)
@example(root=2 ** 32, index=2 ** 32)
@example(root=2 ** 96, index=2 ** 96)
@example(root=2 ** 128 - 1, index=2 ** 128 - 1)
@example(root=2 ** 128, index=2 ** 128)
def test_derive_seed_matches_numpy(root, index):
    expected = np.random.SeedSequence(root, spawn_key=(index,)).generate_state(1, np.uint64)
    assert derive_seed(root, index) == int(expected[0])


@settings(max_examples=200, deadline=None)
@given(seed=_SEEDS, count=st.integers(1, 40))
@example(seed=0, count=2)
@example(seed=2 ** 32 - 1, count=2)
@example(seed=2 ** 32, count=2)
@example(seed=2 ** 96, count=2)
@example(seed=2 ** 128 - 1, count=2)
@example(seed=2 ** 128, count=2)
def test_raw_words_match_numpy(seed, count):
    ours = Pcg64Stream(seed)
    assert [ours._raw() for _ in range(count)] == \
        np.random.PCG64(seed).random_raw(count).tolist()


@settings(max_examples=400, deadline=None)
@given(seed=_SEEDS, draws=st.lists(st.none() | _BOUNDS, max_size=300))
def test_the_draw_replica_matches_numpy(seed, draws):
    """Bounded draws, with ``None`` standing for a ``random()``: it takes a
    whole word and leaves a buffered half for the next bounded draw."""
    ours, theirs = Pcg64Stream(seed), np.random.Generator(np.random.PCG64(seed))
    assert [ours.random() if n is None else ours.below(n) for n in draws] == \
        [theirs.random() if n is None else int(theirs.integers(n)) for n in draws]


@settings(max_examples=200, deadline=None)
@given(params=st.sampled_from([TRAIN_PARAMS, TEST_PARAMS]), index=st.integers(0, 10 ** 6))
def test_the_handed_over_obstacles_are_the_sorted_ones(params, index):
    spec = generate_indexed(params, index)
    assert "obstacles" in vars(spec)  # filled in board order by from_board
    twin = GridSpec(spec.min_x, spec.min_y, spec.size_x, spec.size_y, spec.start, spec.goal,
                    spec.walls, spec.pits, spec.seed)
    assert "obstacles" not in vars(twin)
    assert spec.obstacles == twin.obstacles  # twin's sorted on this first read


@pytest.mark.parametrize("params", [TRAIN_PARAMS, TEST_PARAMS], ids=["train", "test"])
def test_the_handed_over_board_is_the_decoded_one(params):
    for index in range(500):
        spec = generate_indexed(params, index)
        decoded = GridSpec.from_json_dict(spec_dict(spec))
        assert spec.board == decoded.board
        assert optimal_path(spec) == optimal_path(decoded)
        assert complexity(spec) == complexity(decoded)
