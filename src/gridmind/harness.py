"""Episode evaluation: single-turn plan scoring and multi-turn interaction.

Two protocols. In optimal mode the agent sees the opening turns once and
must reply with a full plan; only an exact match with the unique shortest
path counts as success. In reachable mode the agent is queried one move at
a time under a step budget: reaching the goal is Success, stepping into a
pit is Deadend, exhausting the budget is MaxStep, and any reply that is not
a move word ends the episode as Invalid. Blocked moves (wall or boundary)
keep the agent in place, cost a step, and repeat the same observation.

Both protocols run through ``run_episode``: it alone asks the agent (a
transport failure becomes ``EpisodeAborted``) and it alone closes the agent,
exactly once per episode, with the outcome or "aborted". Aborted episodes
are reported apart from the outcome counts so flaky plumbing cannot
masquerade as behavior.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .cogmap import PlanParseError, parse_plan, serialize_plan
from .dataset import read_jsonl
from .generate import derive_seed
from .grid import Action, GridSpec, MoveKind, optimal_path, transition
from .prompts import (
    GPT,
    HUMAN,
    PromptText,
    parse_action,
    parse_observation,
    render_instruction,
    render_observation,
)

OPTIMAL = "optimal"
REACHABLE = "reachable"
MODES = (OPTIMAL, REACHABLE)

DEFAULT_MAX_STEPS = 200


class Outcome(Enum):
    SUCCESS = "success"
    FAIL = "fail"
    DEADEND = "deadend"
    MAX_STEP = "max_step"
    INVALID = "invalid"


class AgentTransportError(Exception):
    """The agent endpoint failed to produce a reply."""


class EpisodeAborted(Exception):
    """Episode could not be scored because transport to the agent broke."""


@dataclass
class EpisodeResult:
    outcome: Outcome
    steps: int
    optimal_len: int
    transcript: list[PromptText]


class Agent:
    """Maps a transcript (list of PromptText) to the next reply text."""

    def respond(self, transcript: list[PromptText]) -> str:
        raise NotImplementedError

    def close(self, outcome: str) -> None:
        """Notification that the episode ended; best effort."""


class OracleAgent(Agent):
    """Replays the unique shortest path."""

    def __init__(self, spec: GridSpec, mode: str):
        self._plan = [a for a, _ in optimal_path(spec)]
        self._mode = mode
        self._next = 0

    def respond(self, transcript: list[PromptText]) -> str:
        if self._mode == OPTIMAL:
            return serialize_plan(self._plan)
        action = self._plan[self._next]
        self._next += 1
        return action.value


class RandomValidAgent(Agent):
    """Picks uniformly among the moves the observation offers."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def respond(self, transcript: list[PromptText]) -> str:
        _, moves = parse_observation(transcript[-1].text)
        if not moves:
            return Action.UP.value
        action, _ = moves[int(self._rng.integers(len(moves)))]
        return action.value


class DfsAgent(Agent):
    """Depth-first exploration from observations alone.

    Advances to a uniformly chosen unvisited destination when one exists,
    otherwise retreats one step along the path that got it here. Complete on
    the generated environments, where free cells form a tree.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._visited: set[tuple[int, int]] = set()
        self._undo: list[Action] = []

    def respond(self, transcript: list[PromptText]) -> str:
        current, moves = parse_observation(transcript[-1].text)
        self._visited.add(current)
        unvisited = [(a, d) for a, d in moves if d not in self._visited]
        if unvisited:
            action, dest = unvisited[int(self._rng.integers(len(unvisited)))]
            self._visited.add(dest)
            self._undo.append(action.inverse)
            return action.value
        if self._undo:
            return self._undo.pop().value
        return moves[0][0].value if moves else Action.UP.value


class PlansAgent(Agent):
    """Replays a pre-recorded reply: verbatim once in optimal mode, one
    parsed move per turn in reachable mode (empty reply once exhausted)."""

    def __init__(self, text: str, mode: str):
        self._text = text
        self._mode = mode
        self._queue: list[str] | None
        if mode == REACHABLE:
            try:
                _, actions = parse_plan(text)
                self._queue = [a.value for a in actions]
            except PlanParseError:
                self._queue = None
        else:
            self._queue = []

    def respond(self, transcript: list[PromptText]) -> str:
        if self._mode == OPTIMAL:
            return self._text
        if self._queue is None:
            self._queue = []
            return self._text
        return self._queue.pop(0) if self._queue else ""


def _ask(agent: Agent, transcript: list[PromptText]) -> str:
    """The agent's reply; a transport failure aborts the episode."""
    try:
        return agent.respond(transcript)
    except AgentTransportError as exc:
        raise EpisodeAborted(str(exc)) from exc


def _play_reachable(spec: GridSpec, agent: Agent, max_steps: int) -> EpisodeResult:
    transcript = render_instruction(spec)
    optimal_len = len(optimal_path(spec))
    pos = spec.start
    steps = 0
    reply = _ask(agent, list(transcript))
    # the first reply may carry thought text: its last non-empty line is the move
    lines = [line for line in reply.split("\n") if line.strip()]
    move = lines[-1] if lines else ""
    while True:
        transcript.append(PromptText(GPT, reply))
        action = parse_action(move)
        if action is None:
            outcome = Outcome.INVALID
            break
        result = transition(spec, pos, action)
        steps += 1
        if result.kind is MoveKind.PIT:
            outcome = Outcome.DEADEND
            break
        if result.kind is MoveKind.REACHED_GOAL:
            outcome = Outcome.SUCCESS
            break
        if result.kind is MoveKind.MOVED:
            pos = result.dest
        if steps >= max_steps:
            outcome = Outcome.MAX_STEP
            break
        transcript.append(PromptText(HUMAN, render_observation(spec, pos)))
        reply = move = _ask(agent, list(transcript))
    return EpisodeResult(outcome, steps, optimal_len, transcript)


def run_episode(
    spec: GridSpec, agent: Agent, mode: str, max_steps: int = DEFAULT_MAX_STEPS
) -> EpisodeResult:
    """Play one episode under ``mode`` and close the agent exactly once.

    The agent is closed with the outcome, or with "aborted" when the episode
    raised; an unknown mode or a step budget below 1 raises before the agent
    is asked or closed.
    """
    if mode not in MODES or max_steps < 1:
        raise ValueError(f"need a mode in {MODES} and max_steps >= 1, got {mode!r}, {max_steps}")
    outcome = "aborted"
    try:
        if mode == OPTIMAL:
            transcript = render_instruction(spec)
            reply = _ask(agent, list(transcript))
            transcript.append(PromptText(GPT, reply))
            plan = [a for a, _ in optimal_path(spec)]
            try:
                _, actions = parse_plan(reply)
            except PlanParseError:
                actions = []  # scored as a fail of 0 steps: a plan is never empty
            scored = Outcome.SUCCESS if actions == plan else Outcome.FAIL
            result = EpisodeResult(scored, len(actions), len(plan), transcript)
        else:
            result = _play_reachable(spec, agent, max_steps)
        outcome = result.outcome.value
        return result
    finally:
        try:
            agent.close(outcome)
        except Exception:
            pass


SCRIPTED_AGENTS = ("oracle", "random", "dfs")


def scripted_agent_factory(kind: str, mode: str):
    """Factory (spec, index, episode_seed) -> Agent for the built-in agents."""
    if kind not in SCRIPTED_AGENTS:
        raise ValueError(f"unknown agent {kind!r}; expected one of {SCRIPTED_AGENTS}")
    if kind in ("random", "dfs") and mode == OPTIMAL:
        raise ValueError(f"agent {kind!r} supports reachable mode only")

    def factory(spec: GridSpec, index: int, episode_seed: int) -> Agent:
        if kind == "oracle":
            return OracleAgent(spec, mode)
        rng = np.random.default_rng(episode_seed)
        return RandomValidAgent(rng) if kind == "random" else DfsAgent(rng)

    return factory


def plans_agent_factory(replies: list[str], mode: str):
    def factory(spec: GridSpec, index: int, episode_seed: int) -> Agent:
        try:
            text = replies[index]
        except IndexError:
            raise ValueError(f"no recorded reply for episode {index}") from None
        return PlansAgent(text, mode)

    return factory


def load_plans(path: str | Path) -> list[str]:
    """Read a JSONL plans file of {"text": ...} lines.

    Either no line has an "index", and replies go to episodes in file order,
    or every line has one, and the indices are 0..n-1, each exactly once.
    """
    seen: set[int] = set()

    def parse(obj: dict) -> tuple[int | None, str]:
        text = obj["text"]
        if type(text) is not str:
            raise ValueError(f"text {text!r} is not a string")
        if "index" not in obj:
            return None, text
        index = obj["index"]
        if type(index) is not int:
            raise ValueError(f"index {index!r} is not an int")
        if index in seen:
            raise ValueError(f"duplicate index {index}")
        seen.add(index)
        return index, text

    plans = list(read_jsonl(path, parse))
    if not seen:
        return [text for _, text in plans]
    if len(seen) < len(plans):
        raise ValueError(f"{path}: mix of indexed and unindexed plans")
    missing = sorted(set(range(len(plans))) - seen)
    if missing:
        raise ValueError(f"{path}: index {missing[0]} is missing; need 0..{len(plans) - 1}")
    return [text for _, text in sorted(plans)]


@dataclass
class EpisodeSummary:
    index: int
    outcome: str | None  # None when aborted
    steps: int
    optimal_len: int
    size_x: int
    size_y: int

    @property
    def aborted(self) -> bool:
        return self.outcome is None


@dataclass
class BatchReport:
    mode: str
    max_steps: int
    seed: int
    episodes: list[EpisodeSummary] = field(default_factory=list)

    @property
    def aborted(self) -> int:
        return sum(1 for e in self.episodes if e.aborted)

    @property
    def counts(self) -> dict[str, int]:
        counts = {o.value: 0 for o in Outcome}
        for e in self.episodes:
            if not e.aborted:
                counts[e.outcome] += 1
        return counts

    @property
    def rates(self) -> dict[str, float]:
        completed = len(self.episodes) - self.aborted
        if not completed:
            return {o.value: 0.0 for o in Outcome}
        return {k: v / completed for k, v in self.counts.items()}

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "max_steps": self.max_steps,
            "seed": self.seed,
            "total": len(self.episodes),
            "aborted": self.aborted,
            "counts": self.counts,
            "rates": self.rates,
            "episodes": [asdict(e) for e in self.episodes],
        }


def evaluate_batch(
    specs: list[GridSpec],
    agent_factory,
    mode: str,
    max_steps: int = DEFAULT_MAX_STEPS,
    workers: int = 1,
    seed: int = 0,
) -> BatchReport:
    """Run every spec through the protocol, in order, optionally in parallel.

    Episode i always draws its randomness from (seed, i), so reports are
    identical whatever the worker count or scheduling.
    """
    if mode not in MODES or max_steps < 1:
        raise ValueError(f"need a mode in {MODES} and max_steps >= 1, got {mode!r}, {max_steps}")

    def one(index: int) -> EpisodeSummary:
        spec = specs[index]
        agent = agent_factory(spec, index, derive_seed(seed, index))
        try:
            result = run_episode(spec, agent, mode, max_steps)
            outcome, steps, optimal_len = result.outcome.value, result.steps, result.optimal_len
        except EpisodeAborted:
            outcome, steps, optimal_len = None, 0, len(optimal_path(spec))
        return EpisodeSummary(index, outcome, steps, optimal_len, spec.size_x, spec.size_y)

    report = BatchReport(mode=mode, max_steps=max_steps, seed=seed)
    if workers <= 1:
        report.episodes = [one(i) for i in range(len(specs))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            report.episodes = list(pool.map(one, range(len(specs))))
    return report
