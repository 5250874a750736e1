from __future__ import annotations

import hashlib
import math

import pytest

from gridmind import GenParams, GenerationError, generate_environment, generate_indexed
from gridmind.generate import TEST_PARAMS, TRAIN_PARAMS, derive_seed, record_rng
from gridmind.grid import GLOBAL_MAX_COORD
from gridmind.stats import complexity

from oracles import enumerate_simple_paths, independent_complexity, is_tree


def test_derive_seed_stable_and_distinct():
    a = derive_seed(0, 0)
    assert derive_seed(0, 0) == a
    seen = {derive_seed(7, i) for i in range(200)}
    assert len(seen) == 200
    assert derive_seed(7, 3) != derive_seed(8, 3)


def test_generation_is_deterministic():
    specs_a = [generate_indexed(TRAIN_PARAMS, i) for i in range(25)]
    specs_b = [generate_indexed(TRAIN_PARAMS, i) for i in range(25)]
    assert specs_a == specs_b


def test_recorded_seed_regenerates_spec():
    import numpy as np

    for index in (0, 11, 42):
        spec = generate_indexed(TEST_PARAMS, index)
        assert spec.seed == derive_seed(TEST_PARAMS.seed, index)
        again = generate_environment(
            TEST_PARAMS, np.random.default_rng(spec.seed), seed=spec.seed
        )
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
    from gridmind import optimal_path, path_states

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
        generate_environment(params, record_rng(params.seed, 0))


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


# SHA-256 over generate_indexed(params, i).to_json() + "\n" for i in range(200)
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
        digest.update(generate_indexed(params, index).to_json().encode() + b"\n")
    assert digest.hexdigest() == expected
