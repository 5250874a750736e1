"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Every check re-derives its expectations from independent oracles or
golden fixtures; none consults the code under test for its answers.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from gridmind import (
    DfsAgent,
    Outcome,
    PlansAgent,
    complexity,
    evaluate_batch,
    load_plans,
    plans_agent_factory,
    run_episode,
    scripted_agent_factory,
)
from gridmind.cogmap import ALL_VARIANTS, CotVariant, Direction, render_parts
from gridmind.dataset import generate_dataset
from gridmind.generate import TEST_PARAMS, TRAIN_PARAMS, generate_indexed
from gridmind.grid import optimal_path
from gridmind.harness import OPTIMAL, REACHABLE, Agent, AgentTransportError, OracleAgent
from gridmind.prompts import RULES_TEXT, render_environment, render_instruction, render_observation

from conftest import GOLDEN_DIR, load_golden
from oracles import enumerate_simple_paths, independent_complexity

README = Path(__file__).resolve().parent.parent / "README.md"


@contextmanager
def criterion(number: int, title: str):
    start = time.monotonic()
    try:
        detail = {}
        yield detail
    except BaseException:
        print(f"ACCEPTANCE {number} {title}: FAIL")
        raise
    extra = f" ({detail['note']})" if "note" in detail else ""
    print(f"ACCEPTANCE {number} {title}: PASS in {time.monotonic() - start:.2f}s{extra}")


def _slope(xs, ys) -> float:
    return float(np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)[0])


GOLDEN_COT = [
    f"{d}-{v}"
    for d in ("fwd", "bwd")
    for v in (
        "steps-bt", "kept-nobt", "kept-bt", "full-nobt", "full-bt",
        "full-marked-nobt", "full-marked-bt",
    )
]


def test_acceptance_1_golden_serialization(ref_env):
    with criterion(1, "golden serialization") as detail:
        start = time.monotonic()
        matched = 0
        for name in GOLDEN_COT:
            variant = CotVariant.from_name(name)
            golden = load_golden(f"cot/{name}.txt")
            strict, _ = render_parts(ref_env, variant, strict=True)
            assert strict == golden, f"{name} strict mismatch"
            matched += 1
            uniform, _ = render_parts(ref_env, variant, strict=False)
            if variant.direction is Direction.FWD and variant.backtrack:
                # the single documented difference: the first backtrack entry
                # is glued to its move word in the historical rendering
                merged = "(3, 2)up"
                head, _, tail = golden.partition("\nBacktrack:\n")
                assert tail.split("\n")[0] == merged
                rebuilt = head + "\nBacktrack:\n" + "(3, 2)\nup\n" + "\n".join(tail.split("\n")[1:])
                assert uniform == rebuilt, f"{name} uniform differs beyond the glue"
            else:
                assert uniform == golden, f"{name} uniform mismatch"
        elapsed = time.monotonic() - start
        assert matched == 14
        assert elapsed < 1.0, f"serialization took {elapsed:.2f}s"
        detail["note"] = "14/14 byte-exact, uniform differs only on the glued entry"


def test_acceptance_2_prompt_goldens(ref_env):
    with criterion(2, "prompt goldens") as detail:
        turns = render_instruction(ref_env)
        assert turns[0].text == RULES_TEXT == load_golden("rules.txt")
        assert turns[1].text == "OK"
        assert turns[2].text == render_environment(ref_env) == load_golden("environment_turn.txt")

        from gridmind import GridSpec

        obs_env = GridSpec(
            min_x=10, min_y=3, size_x=3, size_y=3, start=(10, 3), goal=(12, 5),
            walls=frozenset({(11, 5)}), pits=frozenset({(11, 3)}),
        )
        assert render_observation(obs_env, (11, 4)) == load_golden("observation_11_4.txt")
        detail["note"] = "rules, environment turn, observation all byte-exact"


def test_acceptance_3_complexity(ref_env):
    with criterion(3, "complexity oracle and distribution") as detail:
        assert complexity(ref_env) == pytest.approx(5 * math.log(2), abs=1e-12)
        assert independent_complexity(ref_env) == pytest.approx(5 * math.log(2), abs=1e-12)

        worst = 0.0
        for index in range(1000):
            spec = generate_indexed(TEST_PARAMS, index)
            delta = abs(complexity(spec) - independent_complexity(spec))
            worst = max(worst, delta)
        assert worst <= 1e-9, f"oracle disagreement {worst}"

        train = [complexity(generate_indexed(TRAIN_PARAMS, i)) for i in range(3000)]
        test = [complexity(generate_indexed(TEST_PARAMS, i)) for i in range(3000)]
        test_min = min(test)
        train_mean = sum(train) / len(train)
        test_mean = sum(test) / len(test)
        assert 0.69 <= test_min <= 0.70, f"test min {test_min}"
        assert max(test) > max(train), f"test max {max(test)} <= train max {max(train)}"
        assert 4.0 <= train_mean <= 12.0, f"train mean {train_mean}"
        assert test_mean >= 1.5 * train_mean, f"means {test_mean} vs {train_mean}"
        detail["note"] = (
            f"oracle |err| <= {worst:.1e}; test min {test_min:.4f}, "
            f"means train {train_mean:.2f} / test {test_mean:.2f}, "
            f"maxes train {max(train):.2f} / test {max(test):.2f}"
        )


def test_acceptance_4_unique_path_property():
    with criterion(4, "unique simple path over 10,000 environments") as detail:
        start = time.monotonic()
        for index in range(10_000):
            spec = generate_indexed(TEST_PARAMS, index)  # raises on retry exhaustion
            found = enumerate_simple_paths(spec, cap=2)
            assert len(found) == 1, f"env {index}: {len(found)} simple paths"
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"took {elapsed:.0f}s"
        detail["note"] = f"10,000/10,000 unique, 0 generation failures, {elapsed:.0f}s"


def test_acceptance_5_outcome_classification(ref_env):
    with criterion(5, "outcome classification fixtures") as detail:

        class Script(Agent):
            def __init__(self, replies):
                self._replies = list(replies)

            def respond(self, transcript):
                return self._replies.pop(0) if self._replies else ""

        fixtures = [
            (Script(["right", "right", "up", "right", "up"]), Outcome.SUCCESS, 5),
            (Script(["right", "right", "right"]), Outcome.DEADEND, 3),
            (Script(["up", "down"] * 100), Outcome.MAX_STEP, 200),
            (Script(["sideways"]), Outcome.INVALID, 0),
        ]
        for agent, expected, steps in fixtures:
            result = run_episode(ref_env, agent, REACHABLE)
            assert result.outcome is expected, f"wanted {expected}, got {result.outcome}"
            assert result.steps == steps

        for reply, expected in (("right\nright\nup\nright\nup", Outcome.SUCCESS),
                                ("up\nright\nright\nright\nup", Outcome.FAIL)):
            assert run_episode(ref_env, PlansAgent(reply, OPTIMAL), OPTIMAL).outcome is expected

        # outcome counts partition every batch, aborted episodes aside
        class DieAt2:
            def __call__(self, spec, index, episode_seed):
                if index == 2:
                    class Dead(Agent):
                        def respond(self, transcript):
                            raise AgentTransportError("down")

                    return Dead()
                return OracleAgent(spec, REACHABLE)

        report = evaluate_batch([ref_env] * 6, DieAt2(), REACHABLE)
        assert sum(report.counts.values()) + report.aborted == len(report.episodes)
        assert report.aborted == 1
        detail["note"] = "success/deadend/max_step/invalid/fail all observed; counts partition the batch"


def test_acceptance_6_oracle_and_dfs_behavior():
    with criterion(6, "oracle and dfs agents") as detail:
        start = time.monotonic()
        specs = [generate_indexed(TEST_PARAMS, i) for i in range(1000)]

        reachable = evaluate_batch(specs, scripted_agent_factory("oracle", REACHABLE), REACHABLE)
        assert reachable.counts["success"] == 1000
        assert all(e.steps == e.optimal_len for e in reachable.episodes)
        oracle_slope = _slope(
            [e.optimal_len for e in reachable.episodes],
            [e.steps for e in reachable.episodes],
        )
        assert abs(oracle_slope - 1.0) <= 1e-9, f"oracle slope {oracle_slope}"

        optimal = evaluate_batch(specs, scripted_agent_factory("oracle", OPTIMAL), OPTIMAL)
        assert optimal.counts["success"] == 1000

        small = [s for s in specs if 2 * len(s.free_cells()) <= 200]
        assert len(small) >= 200, "not enough small environments to exercise dfs"
        dfs = evaluate_batch(small, scripted_agent_factory("dfs", REACHABLE), REACHABLE, seed=3)
        assert dfs.counts["success"] == len(small)
        dfs_slope = _slope(
            [e.optimal_len for e in dfs.episodes], [e.steps for e in dfs.episodes]
        )
        assert dfs_slope > 1.5, f"dfs slope {dfs_slope}"

        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.0f}s"
        detail["note"] = (
            f"oracle 2000/2000, slope {oracle_slope:.9f}; "
            f"dfs {len(small)}/{len(small)}, slope {dfs_slope:.2f}; {elapsed:.0f}s"
        )


def test_acceptance_7_determinism(ref_env, tmp_path):
    with criterion(7, "determinism") as detail:
        kwargs = dict(split="test", variant=CotVariant.from_name("bwd-full-bt"),
                      count=40, seed=13, shards=3)
        first = generate_dataset(tmp_path / "a", **kwargs)
        second = generate_dataset(tmp_path / "b", **kwargs)
        for pa, pb in zip(first, second):
            assert pa.read_bytes() == pb.read_bytes(), pa.name

        transcripts = []
        for _ in range(2):
            result = run_episode(ref_env, DfsAgent(np.random.default_rng(1)), REACHABLE)
            transcripts.append([(t.role, t.text) for t in result.transcript])
        assert transcripts[0] == transcripts[1]

        golden = []
        for line in (GOLDEN_DIR / "dfs_transcript.txt").read_text().rstrip("\n").split("\n"):
            role, text = line.split("\t", 1)
            golden.append((role, text.replace("\\n", "\n")))
        assert transcripts[0][3:] == golden

        specs = [generate_indexed(TRAIN_PARAMS, i) for i in range(30)]

        def run(workers):
            return evaluate_batch(
                specs, scripted_agent_factory("dfs", REACHABLE), REACHABLE,
                workers=workers, seed=9,
            ).to_json_dict()

        assert run(1) == run(1) == run(4)
        detail["note"] = "shards byte-identical; dfs transcripts and reports repeat exactly"


def test_acceptance_8_plans_file_scoring(ref_env, tmp_path):
    with criterion(8, "plans-file ingestion covers every outcome class") as detail:
        specs = [ref_env] * 5
        right_plan = "right\nright\nup\nright\nup"
        replies = [
            right_plan,                      # success either mode
            "up\n" + right_plan,             # fail (optimal) via wrong prefix
            "right\nright\nright",           # deadend in reachable mode
            "\n".join(["up", "down"] * 100), # max_step in reachable mode
            "no plan here",                  # invalid / fail
        ]
        plans_path = tmp_path / "plans.jsonl"
        with open(plans_path, "w") as fh:
            for i, text in enumerate(replies):
                fh.write(json.dumps({"index": i, "text": text}) + "\n")
        loaded = load_plans(plans_path)
        assert loaded == replies

        reachable = evaluate_batch(specs, plans_agent_factory(loaded, REACHABLE), REACHABLE)
        by_index = [e.outcome for e in reachable.episodes]
        assert by_index[0] == "success"
        assert by_index[2] == "deadend"
        assert by_index[3] == "max_step"
        assert by_index[4] == "invalid"

        optimal = evaluate_batch(specs, plans_agent_factory(loaded, OPTIMAL), OPTIMAL)
        outcomes = [e.outcome for e in optimal.episodes]
        assert outcomes[0] == "success"
        assert outcomes[1] == "fail"

        seen = set(by_index) | set(outcomes)
        assert {"success", "fail", "deadend", "max_step", "invalid"} <= seen

        text = " ".join(README.read_text().split())
        assert "not regression targets" in text, "README must carry the scoring caveat"
        detail["note"] = "five outcome classes scored from one plans file; README caveat present"
