from __future__ import annotations

import hashlib
import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from gridmind.cogmap import CotVariant, join_reply, render_parts
from gridmind.generate import TEST_PARAMS, TRAIN_PARAMS, derive_seed, generate_indexed
from gridmind.grid import optimal_path
from gridmind.harness import (
    OPTIMAL,
    REACHABLE,
    Agent,
    AgentTransportError,
    BatchReport,
    DfsAgent,
    EpisodeAborted,
    OracleAgent,
    Outcome,
    PlansAgent,
    RandomValidAgent,
    evaluate_batch,
    load_plans,
    plans_agent_factory,
    run_episode,
    scripted_agent_factory,
)
from gridmind.grid import GridSpec
from gridmind.prompts import (GPT, HUMAN, RULES_TEXT, parse_observation, render_instruction,
                              render_observation)

import oracles
from conftest import GOLDEN_DIR, ConstantAgent, ScriptedReplies
from oracles import reachable_episode, shortest_path_length


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


def test_a_later_reply_is_recorded_as_its_stripped_word(ref_env):
    """Padding is scored as before but not kept, so later requests do not
    resend it; the first reply, which may carry a thought, stays verbatim."""
    words = ["right", "right", "up", "right", "up"]
    first = "Thought:\nsome musing\n\n  right \n"
    padded = [first] + [" " * 1000 + w + "\t\n" for w in words[1:]]
    result = run_episode(ref_env, ScriptedMoves(padded), REACHABLE)
    plain = run_episode(ref_env, ScriptedMoves(words), REACHABLE)
    assert (result.outcome, result.steps) == (plain.outcome, plain.steps) == (Outcome.SUCCESS, 5)
    replies = [turn.text for turn in result.transcript[3::2]]
    assert replies == [first] + words[1:]
    assert [turn.text for turn in result.transcript[4::2]] == [
        turn.text for turn in plain.transcript[4::2]]
    padded_up = run_episode(ref_env, ConstantAgent("up" + " " * 1000), REACHABLE, max_steps=20)
    assert (padded_up.outcome, padded_up.steps) == (Outcome.MAX_STEP, 20)
    assert {turn.text for turn in padded_up.transcript[5::2]} == {"up"}


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
    result = run_episode(ref_env, DfsAgent(1), REACHABLE)
    assert result.outcome is Outcome.SUCCESS
    assert [(t.role, t.text) for t in result.transcript[3:]] == golden


def test_dfs_explores_every_tree_without_getting_stuck():
    for index in range(30):
        spec = generate_indexed(TRAIN_PARAMS, index)
        budget = 4 * len(spec.free_cells())
        result = run_episode(spec, DfsAgent(index), REACHABLE, budget)
        assert result.outcome is Outcome.SUCCESS, index
        assert result.steps <= 2 * len(spec.free_cells())


@pytest.mark.parametrize("agent", [DfsAgent, RandomValidAgent])
def test_scripted_agents_reject_a_negative_seed(agent):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        agent(-1)


_WORDS = ["up", "down", "left", "right"]
# not a move word as a whole: case, inner text, a second line, nothing
_ODD_REPLIES = ["Up", "RIGHT", "jump", "", "up down", "thinking...\nleft", "\n"]
_PADDED = [" left", "right\n", "\tdown ", "up\r"]


@st.composite
def scripted_episodes(draw):
    """A generated board from either split, replies that follow its solution
    with detours and odd words mixed in (or random words), and a step budget."""
    params = draw(st.sampled_from([TRAIN_PARAMS, TEST_PARAMS]))
    spec = generate_indexed(params, draw(st.integers(0, 10_000)))
    if draw(st.booleans()):
        replies = [a.value for a, _ in optimal_path(spec)]
        for _ in range(draw(st.integers(0, 6))):
            at = draw(st.integers(0, len(replies)))
            replies.insert(at, draw(st.sampled_from(_WORDS + _PADDED + _ODD_REPLIES)))
    else:
        replies = draw(st.lists(st.sampled_from(_WORDS + _PADDED), max_size=40))
        replies += draw(st.lists(st.sampled_from(_ODD_REPLIES), max_size=1))
    if replies and draw(st.booleans()):  # a thought before the first move
        head = draw(st.sampled_from(["Thought:\nsome musing\n\n", "down\n", " \n"]))
        replies[0] = head + replies[0] + draw(st.sampled_from(["", "\n", "\n \n"]))
    return spec, replies, draw(st.integers(1, len(replies) + 3) | st.just(len(replies) + 3))


@settings(max_examples=300, deadline=None)
@given(scripted_episodes())
def test_run_episode_matches_the_reference_loop(episode):
    spec, replies, max_steps = episode
    result = run_episode(spec, ScriptedReplies(replies), REACHABLE, max_steps)
    outcome, steps, turns = reachable_episode(spec, replies, max_steps)
    assert (result.outcome.value, result.steps) == (outcome, steps)
    assert result.optimal_len == shortest_path_length(spec)
    assert [tuple(turn) for turn in result.transcript] == turns


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


@pytest.mark.parametrize("agent", [DfsAgent, RandomValidAgent])
def test_reachable_episode_renders_and_reads_each_cell_once(monkeypatch, agent):
    """A revisited cell's observation is neither rendered nor parsed again:
    one render per distinct cell the loop observes, and one parse per
    distinct observation the agent reads, the environment turn included."""
    import gridmind.harness as harness

    renders, parses = [], []

    def rendering(spec, pos):
        renders.append(pos)
        return render_observation(spec, pos)

    def parsing(text):
        parses.append(text)
        return parse_observation(text)

    monkeypatch.setattr(harness, "render_observation", rendering)
    monkeypatch.setattr(harness, "parse_observation", parsing)
    spec = generate_indexed(TEST_PARAMS, 0)
    result = run_episode(spec, agent(derive_seed(0, 0)), REACHABLE)
    observed = [oracles.parse_observation(turn.text)[0] for turn in result.transcript[4::2]]
    assert len(observed) > len(set(observed))  # the episode revisits cells
    assert len(renders) == len(set(observed))
    assert len(parses) == len(renders) + 1


_AGENTS_AND_REFERENCES = {"dfs": (DfsAgent, oracles.ReferenceDfsAgent),
                          "random": (RandomValidAgent, oracles.ReferenceRandomAgent)}


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(_AGENTS_AND_REFERENCES)),
       params=st.sampled_from([TRAIN_PARAMS, TEST_PARAMS]), index=st.integers(0, 10_000),
       seed=st.integers(0, 2**64 - 1), max_steps=st.integers(1, 400))
def test_scripted_agents_match_their_references(kind, params, index, seed, max_steps):
    """Reading each observation once changes no reply: the agents and their
    references, which parse every turn, play the same episode, and replaying
    the replies through the reference loop gives the same turns."""
    spec = generate_indexed(params, index)
    agent, reference = _AGENTS_AND_REFERENCES[kind]
    result = run_episode(spec, agent(seed), REACHABLE, max_steps)
    expected = run_episode(spec, reference(seed), REACHABLE, max_steps)
    assert (result.outcome, result.steps) == (expected.outcome, expected.steps)
    assert result.transcript == expected.transcript
    replies = [turn.text for turn in result.transcript[3::2]]
    turns = [tuple(turn) for turn in result.transcript]
    replayed = reachable_episode(spec, replies, max_steps)
    assert replayed == (result.outcome.value, result.steps, turns)


class TextPlanAgent(Agent):
    """Plans from the transcript alone: it rebuilds the board from the
    environment turn and replies with a breadth-first plan from the cell it
    last observed, whole in optimal mode and one move per turn in reachable
    mode."""

    def __init__(self, mode):
        self._whole = mode == OPTIMAL

    def respond(self, transcript):
        board = oracles.board_from_text(transcript)
        here = oracles.parse_observation(transcript[-1].text)[0]
        plan = oracles.search_trace(replace(board, start=here), "fwd").plan
        return "\n".join(plan) if self._whole else plan[0]


@pytest.mark.parametrize("mode", [OPTIMAL, REACHABLE])
def test_a_planner_that_reads_only_the_text_always_succeeds(eval_boards, mode):
    """The opening turns hold the whole task: the offline-planning baseline
    beside DFS's online exploration."""
    report = evaluate_batch(eval_boards, lambda spec, index, seed: TextPlanAgent(mode), mode)
    assert report.counts["success"] == len(eval_boards)
    assert [e.steps for e in report.episodes] == [e.optimal_len for e in report.episodes]


def test_run_episode_rejects_unknown_mode(ref_env):
    agent = Recorder(ConstantAgent("up"))
    with pytest.raises(ValueError):
        run_episode(ref_env, agent, "teleport")
    # raised before the agent was asked or closed
    assert agent.asked == 0 and agent.closes == []
    with pytest.raises(ValueError):
        evaluate_batch([ref_env], scripted_agent_factory("oracle", REACHABLE), "teleport")


@pytest.mark.parametrize("mode", [OPTIMAL, REACHABLE])
def test_an_unreachable_goal_raises_before_the_agent_is_asked(ref_env, mode):
    sealed = replace(ref_env, walls=ref_env.walls | {(3, 1)})  # the goal's one open side
    agent = Recorder(ConstantAgent("up"))
    with pytest.raises(ValueError, match="unreachable"):
        run_episode(sealed, agent, mode)
    assert agent.asked == 0 and agent.closes == ["aborted"]


@pytest.mark.parametrize("mode", [OPTIMAL, REACHABLE])
def test_a_board_with_two_paths_raises_before_the_agent_is_asked(mode):
    # both up,right and right,up are shortest: neither may be scored as the one path
    open_board = GridSpec(min_x=0, min_y=0, size_x=2, size_y=2, start=(0, 0), goal=(1, 1))
    agent = Recorder(ConstantAgent("up\nright"))
    with pytest.raises(ValueError, match="^expected exactly 1 simple path, found 2 or more$"):
        run_episode(open_board, agent, mode)
    assert agent.asked == 0 and agent.closes == ["aborted"]


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


# SHA-256 of json.dumps(BatchReport.to_json_dict(), sort_keys=True) for
# recorded replies over test boards 0..199 at seed 0. Board i gets, by i % 3,
# its own target text, the next board's, or its thought alone, so wrong
# plans, recovered Backtrack moves and parse errors are all scored.
_EVAL_DIGESTS = {
    ("bwd-full-marked-bt", False, OPTIMAL): "2e133e5f1e03a5c763e7bedc8025a8b5107167319bf46ccb5a08e6a113769412",
    ("bwd-full-marked-bt", False, REACHABLE): "44c29455e2b515aab29b32f3de9602d8844097a40915dd0a9f9714e4e0e3008f",
    ("fwd-full-bt", True, OPTIMAL): "1e414b3ecd063d945c766ae489887fdefb38b4afaa61d7e91621c8d07f694f52",
    ("fwd-full-bt", True, REACHABLE): "57a0e0311d7dbf38ec875ba9c4d2d4115aa6aa6ca09caa6b621e7f3a01bba1d5",
    ("fwd-kept-nobt", False, OPTIMAL): "22cba292811a35afdf4e0aa39cfc50bfedac3945a6fd5b757b3f094510945603",
    ("fwd-kept-nobt", False, REACHABLE): "e549a24030e1ead175cbad730c6a75f2ef6621ce7d8532bc082e9b6c775d88fa",
    ("fwd-none", False, OPTIMAL): "22cba292811a35afdf4e0aa39cfc50bfedac3945a6fd5b757b3f094510945603",
    ("fwd-none", False, REACHABLE): "54eea64184b6c4d7d2324e5e14c70a17ea50c57bcc43cf5135b457fa7abf0ea5",
}


@pytest.fixture(scope="module")
def eval_boards():
    return [generate_indexed(TEST_PARAMS, index) for index in range(200)]


@pytest.mark.parametrize("name,strict,mode", sorted(_EVAL_DIGESTS))
def test_eval_report_bytes_are_pinned(eval_boards, name, strict, mode):
    assert TEST_PARAMS.seed == 0
    variant = CotVariant.from_name(name)
    parts = [render_parts(spec, variant, strict) for spec in eval_boards]
    targets = [join_reply(*p) for p in parts]
    replies = [
        (targets[i], targets[(i + 1) % len(parts)], parts[i][0])[i % 3] for i in range(len(parts))
    ]
    report = evaluate_batch(eval_boards, plans_agent_factory(replies, mode), mode)
    blob = json.dumps(report.to_json_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == _EVAL_DIGESTS[name, strict, mode]


# SHA-256 of json.dumps(BatchReport.to_json_dict(), sort_keys=True) for the
# scripted reachable agents over the same boards at seed 0, so every draw
# and every move they make is pinned, not only their outcome counts.
_SCRIPTED_DIGESTS = {
    "dfs": "6fd65ebd2d4ebec3e38ba4fe61c3fd332aeab58e04f75ded0f5e1b5f56e5bde2",
    "random": "e383e70be8932c0ba9f0680544f90b489946d0399d0bed8328197471648652af",
}
# SHA-256 of every DFS transcript on those boards, one json.dumps of its
# [role, text] pairs per line
_DFS_TRANSCRIPTS_DIGEST = "e8ebcc80b0559d1febfeb490223aa184f04ee981453e4f25f7f1bcd3b79c5a20"


@pytest.mark.parametrize("kind", sorted(_SCRIPTED_DIGESTS))
def test_scripted_reachable_report_bytes_are_pinned(eval_boards, kind):
    report = evaluate_batch(eval_boards, scripted_agent_factory(kind, REACHABLE), REACHABLE)
    blob = json.dumps(report.to_json_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == _SCRIPTED_DIGESTS[kind]


def test_dfs_transcripts_are_pinned(eval_boards):
    factory = scripted_agent_factory("dfs", REACHABLE)
    digest = hashlib.sha256()
    for index, spec in enumerate(eval_boards):
        result = run_episode(spec, factory(spec, index, derive_seed(0, index)), REACHABLE)
        digest.update(json.dumps([list(turn) for turn in result.transcript]).encode() + b"\n")
    assert digest.hexdigest() == _DFS_TRANSCRIPTS_DIGEST
