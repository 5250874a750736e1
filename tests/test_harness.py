from __future__ import annotations

import re

import numpy as np
import pytest

from gridmind import (
    BatchReport,
    DfsAgent,
    EpisodeAborted,
    Outcome,
    PlansAgent,
    evaluate_batch,
    load_plans,
    plans_agent_factory,
    run_episode,
    scripted_agent_factory,
)
from gridmind.generate import TEST_PARAMS, TRAIN_PARAMS, generate_indexed
from gridmind.grid import optimal_path
from gridmind.harness import OPTIMAL, REACHABLE, Agent, AgentTransportError, OracleAgent
from gridmind.prompts import GPT, HUMAN, RULES_TEXT, render_instruction

from conftest import GOLDEN_DIR, ConstantAgent


class ScriptedMoves(Agent):
    """Replays a fixed list of reply texts."""

    def __init__(self, replies):
        self._replies = list(replies)
        self.closed_with = None

    def respond(self, transcript):
        return self._replies.pop(0)

    def close(self, outcome):
        self.closed_with = outcome


class Recorder(Agent):
    """Counts respond() calls and records every close() outcome."""

    def __init__(self, inner=None, error=None):
        self._inner = inner
        self._error = error
        self.asked = 0
        self.closes = []

    def respond(self, transcript):
        self.asked += 1
        if self._error is not None:
            raise self._error
        return self._inner.respond(transcript)

    def close(self, outcome):
        self.closes.append(outcome)


def test_oracle_reachable_success(ref_env):
    result = run_episode(ref_env, OracleAgent(ref_env, REACHABLE), REACHABLE)
    assert result.outcome is Outcome.SUCCESS
    assert result.steps == result.optimal_len == 5
    roles = [t.role for t in result.transcript]
    assert roles[:3] == [HUMAN, GPT, HUMAN]
    assert result.transcript[0].text == RULES_TEXT
    # success ends on the winning move, with no further observation
    assert roles[-1] == GPT


def test_oracle_optimal_success(ref_env):
    result = run_episode(ref_env, OracleAgent(ref_env, OPTIMAL), OPTIMAL)
    assert result.outcome is Outcome.SUCCESS
    assert result.steps == 5


def test_constant_up_hits_step_budget(ref_env):
    result = run_episode(ref_env, ConstantAgent("up"), REACHABLE)
    assert result.outcome is Outcome.MAX_STEP
    assert result.steps == 200


def test_unknown_word_is_invalid_without_charging_a_step(ref_env):
    agent = ScriptedMoves(["jump"])
    result = run_episode(ref_env, agent, REACHABLE)
    assert result.outcome is Outcome.INVALID
    assert result.steps == 0
    assert agent.closed_with == "invalid"


def test_walking_into_the_pit_is_a_deadend(ref_env):
    result = run_episode(ref_env, ScriptedMoves(["right", "right", "right"]), REACHABLE)
    assert result.outcome is Outcome.DEADEND
    assert result.steps == 3


def test_optimal_mode_requires_the_exact_plan(ref_env):
    plan = "right\nright\nup\nright\nup"

    def score(reply):
        return run_episode(ref_env, PlansAgent(reply, OPTIMAL), OPTIMAL)

    assert score(plan).outcome is Outcome.SUCCESS
    assert score(plan + "\nup").outcome is Outcome.FAIL
    assert score("up\n" + plan).outcome is Outcome.FAIL
    garbage = score("I would rather not")
    assert garbage.outcome is Outcome.FAIL
    assert garbage.steps == 0


def test_optimal_mode_reads_thought_replies(ref_env):
    from gridmind.cogmap import CotVariant, render_target

    for name in ("fwd-full-bt", "bwd-kept-nobt", "fwd-none"):
        reply = render_target(ref_env, CotVariant.from_name(name))
        assert run_episode(ref_env, PlansAgent(reply, OPTIMAL), OPTIMAL).outcome is Outcome.SUCCESS


def test_first_reply_counts_only_its_final_line(ref_env):
    replies = ["Thought:\nsome musing\n\nright", "right", "up", "right", "up"]
    result = run_episode(ref_env, ScriptedMoves(replies), REACHABLE)
    assert result.outcome is Outcome.SUCCESS
    assert result.steps == 5


def test_later_replies_must_be_bare_moves(ref_env):
    replies = ["right", "thinking...\nright"]
    result = run_episode(ref_env, ScriptedMoves(replies), REACHABLE)
    assert result.outcome is Outcome.INVALID
    assert result.steps == 1


def test_blocked_moves_charge_a_step_and_repeat_the_observation(ref_env):
    replies = ["left", "right", "right", "up", "right", "up"]
    result = run_episode(ref_env, ScriptedMoves(replies), REACHABLE)
    assert result.outcome is Outcome.SUCCESS
    assert result.steps == 6
    # the blocked first move re-issues an observation for the same cell
    obs = [t.text for t in result.transcript if t.role == HUMAN][2:]
    assert obs[0].startswith("Current:\n(0, 0)\n")


def test_goal_on_the_last_allowed_step_still_wins(ref_env):
    result = run_episode(ref_env, OracleAgent(ref_env, REACHABLE), REACHABLE, 5)
    assert result.outcome is Outcome.SUCCESS
    assert result.steps == 5
    result = run_episode(ref_env, OracleAgent(ref_env, REACHABLE), REACHABLE, 4)
    assert result.outcome is Outcome.MAX_STEP
    assert result.steps == 4


def test_transport_failure_aborts_the_episode(ref_env):
    agent = Recorder(error=AgentTransportError("socket fell over"))
    with pytest.raises(EpisodeAborted):
        run_episode(ref_env, agent, REACHABLE)
    assert agent.closes == ["aborted"]
    agent = Recorder(error=AgentTransportError("socket fell over"))
    with pytest.raises(EpisodeAborted):
        run_episode(ref_env, agent, OPTIMAL)
    assert agent.closes == ["aborted"]


@pytest.mark.parametrize("mode", [OPTIMAL, REACHABLE])
def test_runner_closes_once_with_the_outcome(ref_env, mode):
    agent = Recorder(OracleAgent(ref_env, mode))
    assert run_episode(ref_env, agent, mode).outcome is Outcome.SUCCESS
    assert agent.closes == ["success"]
    agent = Recorder(ConstantAgent("jump"))
    outcome = run_episode(ref_env, agent, mode).outcome
    assert agent.closes == [outcome.value]


@pytest.mark.parametrize("mode", [OPTIMAL, REACHABLE])
def test_runner_closes_aborted_and_reraises_other_errors(ref_env, mode):
    agent = Recorder(error=RuntimeError("agent bug"))
    with pytest.raises(RuntimeError, match="agent bug"):
        run_episode(ref_env, agent, mode)
    assert agent.closes == ["aborted"]


def test_dfs_transcript_golden(ref_env):
    lines = (GOLDEN_DIR / "dfs_transcript.txt").read_text().rstrip("\n").split("\n")
    golden = []
    for line in lines:
        role, text = line.split("\t", 1)
        golden.append((role, text.replace("\\n", "\n")))
    result = run_episode(ref_env, DfsAgent(np.random.default_rng(1)), REACHABLE)
    assert result.outcome is Outcome.SUCCESS
    assert [(t.role, t.text) for t in result.transcript[3:]] == golden


def test_dfs_explores_every_tree_without_getting_stuck():
    for index in range(30):
        spec = generate_indexed(TRAIN_PARAMS, index)
        budget = 4 * len(spec.free_cells())
        result = run_episode(spec, DfsAgent(np.random.default_rng(index)), REACHABLE, budget)
        assert result.outcome is Outcome.SUCCESS, index
        assert result.steps <= 2 * len(spec.free_cells())


def test_plans_agent_replays_one_move_per_turn(ref_env):
    agent = PlansAgent("Thought:\nStep 1:\nBacktrack:\n(3, 2)up\n(0, 0)\nright\nright\nup\nright\nup", REACHABLE)
    result = run_episode(ref_env, agent, REACHABLE)
    assert result.outcome is Outcome.SUCCESS
    assert result.steps == 5


def test_plans_agent_short_plan_runs_out(ref_env):
    result = run_episode(ref_env, PlansAgent("right", REACHABLE), REACHABLE)
    # after the recorded move is spent the empty reply is invalid
    assert result.outcome is Outcome.INVALID
    assert result.steps == 1


def test_plans_agent_unparseable_text_goes_out_raw_once(ref_env):
    result = run_episode(ref_env, PlansAgent("no plan at all", REACHABLE), REACHABLE)
    assert result.outcome is Outcome.INVALID
    assert result.steps == 0


def test_scripted_factory_validation():
    with pytest.raises(ValueError):
        scripted_agent_factory("psychic", REACHABLE)
    with pytest.raises(ValueError):
        scripted_agent_factory("random", OPTIMAL)
    with pytest.raises(ValueError):
        scripted_agent_factory("dfs", OPTIMAL)
    factory = scripted_agent_factory("oracle", OPTIMAL)
    spec = generate_indexed(TRAIN_PARAMS, 0)
    assert isinstance(factory(spec, 0, 1), OracleAgent)


def test_load_plans(tmp_path):
    ordered = tmp_path / "ordered.jsonl"
    ordered.write_text('{"text": "up"}\n\n{"text": "down"}\n')
    assert load_plans(ordered) == ["up", "down"]

    indexed = tmp_path / "indexed.jsonl"
    indexed.write_text('{"index": 1, "text": "b"}\n{"index": 0, "text": "a"}\n')
    assert load_plans(indexed) == ["a", "b"]

    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text('{"text": "up"}\n{"index": 0, "text": "a"}\n')
    with pytest.raises(ValueError):
        load_plans(mixed)

    broken = tmp_path / "broken.jsonl"
    broken.write_text('{"no_text": 1}\n')
    with pytest.raises(ValueError):
        load_plans(broken)


def test_load_plans_rejects_gaps_and_duplicate_indices(tmp_path):
    # a gap would pair episode 1 with the reply meant for episode 2
    gap = tmp_path / "gap.jsonl"
    gap.write_text('{"index": 0, "text": "a"}\n{"index": 2, "text": "c"}\n')
    with pytest.raises(ValueError, match=f"^{re.escape(str(gap))}: index 1 is missing"):
        load_plans(gap)

    duplicate = tmp_path / "duplicate.jsonl"
    duplicate.write_text(
        '{"index": 0, "text": "a"}\n{"index": 1, "text": "b"}\n{"index": 0, "text": "c"}\n'
    )
    with pytest.raises(ValueError, match=f"^{re.escape(str(duplicate))}:3: duplicate index 0"):
        load_plans(duplicate)


@pytest.mark.parametrize("line,needle", [
    ('{"text": 5}', "text 5 is not a string"),
    ('{"text": null}', "text None is not a string"),
    # a truncated 1.5 would score this reply against episode 1
    ('{"index": 1.5, "text": "b"}', "index 1.5 is not an int"),
    ('{"index": "0", "text": "a"}', "index '0' is not an int"),
])
def test_load_plans_decodes_each_line_strictly(tmp_path, line, needle):
    plans = tmp_path / "plans.jsonl"
    plans.write_text('{"index": 0, "text": "a"}\n' + line + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(plans))}:2: {re.escape(needle)}"):
        load_plans(plans)


def test_batch_oracle_matches_optimal_lengths():
    specs = [generate_indexed(TEST_PARAMS, i) for i in range(40)]
    report = evaluate_batch(specs, scripted_agent_factory("oracle", REACHABLE), REACHABLE)
    assert report.counts["success"] == 40
    assert report.aborted == 0
    for ep in report.episodes:
        assert ep.steps == ep.optimal_len


def test_batch_is_deterministic_across_runs_and_workers():
    specs = [generate_indexed(TRAIN_PARAMS, i) for i in range(25)]

    def run(workers):
        return evaluate_batch(
            specs, scripted_agent_factory("dfs", REACHABLE), REACHABLE,
            workers=workers, seed=7,
        ).to_json_dict()

    first = run(1)
    assert run(1) == first
    assert run(4) == first
    assert run(3) == first


def test_batch_seed_changes_stochastic_agents():
    specs = [generate_indexed(TRAIN_PARAMS, i) for i in range(25)]

    def steps(seed):
        report = evaluate_batch(
            specs, scripted_agent_factory("random", REACHABLE), REACHABLE, seed=seed
        )
        return [e.steps for e in report.episodes]

    assert steps(1) != steps(2)


def test_batch_rates_exclude_aborted(ref_env):
    class DieOnThird:
        def __init__(self):
            self.calls = 0

        def __call__(self, spec, index, episode_seed):
            self.calls += 1
            if index == 2:
                class Dead(Agent):
                    def respond(self, transcript):
                        raise AgentTransportError("gone")

                return Dead()
            return OracleAgent(spec, REACHABLE)

    specs = [ref_env] * 5
    report = evaluate_batch(specs, DieOnThird(), REACHABLE)
    assert report.aborted == 1
    assert report.counts["success"] == 4
    assert report.rates["success"] == 1.0
    d = report.to_json_dict()
    assert d["total"] == 5 and d["aborted"] == 1
    assert d["episodes"][2]["outcome"] is None


def test_plans_factory_index_bounds(ref_env):
    factory = plans_agent_factory(["up"], REACHABLE)
    factory(ref_env, 0, 0)
    with pytest.raises(ValueError):
        factory(ref_env, 1, 0)


def test_optimal_episode_renders_the_opening_once(monkeypatch):
    import gridmind.harness as harness

    calls = []

    def counting(spec):
        calls.append(spec)
        return render_instruction(spec)

    monkeypatch.setattr(harness, "render_instruction", counting)
    specs = [generate_indexed(TEST_PARAMS, i) for i in range(10)]
    report = evaluate_batch(specs, scripted_agent_factory("oracle", OPTIMAL), OPTIMAL)
    assert report.counts["success"] == 10
    assert len(calls) == 10


def test_run_episode_rejects_unknown_mode(ref_env):
    agent = Recorder(ConstantAgent("up"))
    with pytest.raises(ValueError):
        run_episode(ref_env, agent, "teleport")
    # raised before the agent was asked or closed
    assert agent.asked == 0 and agent.closes == []
    with pytest.raises(ValueError):
        evaluate_batch([ref_env], scripted_agent_factory("oracle", REACHABLE), "teleport")


@pytest.mark.parametrize("mode", [OPTIMAL, REACHABLE])
@pytest.mark.parametrize("max_steps", [0, -1])
def test_a_step_budget_below_one_is_rejected(ref_env, mode, max_steps):
    agent = Recorder(OracleAgent(ref_env, mode))
    with pytest.raises(ValueError, match="max_steps >= 1"):
        run_episode(ref_env, agent, mode, max_steps)
    assert agent.asked == 0 and agent.closes == []
    made = []

    def factory(spec, index, episode_seed):
        made.append(index)
        return OracleAgent(spec, mode)

    with pytest.raises(ValueError, match="max_steps >= 1"):
        evaluate_batch([ref_env], factory, mode, max_steps=max_steps)
    assert made == []


def test_batch_report_outcome_counts(ref_env):
    report = BatchReport(mode=REACHABLE, max_steps=200, seed=0)
    assert report.rates == {k: 0.0 for k in report.counts}
