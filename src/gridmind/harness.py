"""Episode evaluation: single-turn plan scoring and multi-turn interaction.

Two protocols. In optimal mode the agent sees the opening turns once and
must reply with a full plan; only an exact match with the unique shortest
path counts as success. In reachable mode the agent is queried one move at
a time under a step budget: reaching the goal is Success, stepping into a
pit is Deadend, exhausting the budget is MaxStep, and any reply that is not
a move word ends the episode as Invalid. Blocked moves (wall or boundary)
keep the agent in place, cost a step, and repeat the same observation. The
loop walks the spec's board by index and builds each cell's observation turn
once per episode; the scripted agents read each distinct observation once.

Both protocols run through ``run_episode``: it alone asks the agent and it
alone closes the agent, exactly once per episode, with the outcome or
"aborted". Aborted episodes are reported apart from the outcome counts so
flaky plumbing cannot masquerade as behavior.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path

from .cogmap import PlanParseError, parse_plan, serialize_plan
from .dataset import read_jsonl
from .generate import Pcg64Stream, derive_seed
from .grid import (ACTION_BY_WORD, FREE, PIT, Action, GridSpec, neighbour_steps, optimal_path,
                   require_one_path)
from .prompts import (
    GPT,
    HUMAN,
    PromptText,
    parse_observation,
    render_instruction,
    render_observation,
)

OPTIMAL = "optimal"
REACHABLE = "reachable"
MODES = (OPTIMAL, REACHABLE)

DEFAULT_MAX_STEPS = 200

# one shared gpt turn per move word, and each word's inverse
_MOVE_TURNS = {word: PromptText(GPT, word) for word in ACTION_BY_WORD}
_INVERSE = {a.value: a.inverse.value for a in ACTION_BY_WORD.values()}


class Outcome(Enum):
    SUCCESS = "success"
    FAIL = "fail"
    DEADEND = "deadend"
    MAX_STEP = "max_step"
    INVALID = "invalid"


class EpisodeAborted(Exception):
    """Episode could not be scored because transport to the agent broke."""


class AgentTransportError(EpisodeAborted):
    """The agent endpoint failed to produce a reply."""


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


class RandomValidAgent(Agent):
    """Picks uniformly among the moves the observation offers, drawing
    from the stream ``Pcg64Stream(seed)``."""

    def __init__(self, seed: int):
        self._below = Pcg64Stream(seed).below
        self._words: dict[str, list[str]] = {}  # each observation text read: its move words

    def respond(self, transcript: list[PromptText]) -> str:
        text = transcript[-1].text
        words = self._words.get(text)
        if words is None:
            words = self._words[text] = [a._value_ for a, _ in parse_observation(text)[1]]
        return words[self._below(len(words))] if words else Action.UP.value


class DfsAgent(Agent):
    """Depth-first exploration from observations alone.

    Advances to a uniformly chosen unvisited destination when one exists,
    otherwise retreats one step along the path that got it here. Complete on
    the generated environments, where free cells form a tree. Its choices
    draw from the stream ``Pcg64Stream(seed)``.
    """

    def __init__(self, seed: int):
        self._below = Pcg64Stream(seed).below
        self._visited: set[tuple[int, int]] = set()
        self._undo: list[str] = []
        self._moves: dict[str, list] = {}  # text read: (destination, word, inverse) per move

    def respond(self, transcript: list[PromptText]) -> str:
        text = transcript[-1].text
        visited = self._visited
        moves = self._moves.get(text)
        if moves is None:  # its cell joins visited now, and the set only grows
            current, parsed = parse_observation(text)
            visited.add(current)
            moves = self._moves[text] = [(d, a._value_, _INVERSE[a._value_]) for a, d in parsed]
        unvisited = [m for m in moves if m[0] not in visited]
        if unvisited:
            dest, word, back = unvisited[self._below(len(unvisited))]
            visited.add(dest)
            self._undo.append(back)
            return word
        if self._undo:
            return self._undo.pop()
        return moves[0][1] if moves else Action.UP.value


class PlansAgent(Agent):
    """Replays a pre-recorded reply: verbatim once in optimal mode, one
    parsed move per turn in reachable mode (empty reply once exhausted)."""

    def __init__(self, text: str, mode: str):
        # the replies left, last first: the text, or in reachable mode its plan's moves
        self._replies = [text]
        if mode == REACHABLE:
            try:
                self._replies = [a.value for a in reversed(parse_plan(text)[1])]
            except PlanParseError:
                pass

    def respond(self, transcript: list[PromptText]) -> str:
        return self._replies.pop() if self._replies else ""


class OracleAgent(PlansAgent):
    """Replays the unique shortest path."""

    def __init__(self, spec: GridSpec, mode: str):
        super().__init__(serialize_plan([a for a, _ in optimal_path(spec)]), mode)


def _play_reachable(spec: GridSpec, agent: Agent, transcript: list[PromptText],
                    optimal_len: int, max_steps: int) -> EpisodeResult:
    """The reachable protocol on board indices, from the first reply that ends
    ``transcript``: a move is one board read. Each later reply is recorded as
    the word that is scored, stripped, so padding is not resent."""
    board = spec.board
    c, goal = spec.cell(spec.start), spec.cell(spec.goal)
    offsets = dict(zip(ACTION_BY_WORD, neighbour_steps(spec.size_y)))
    observations: dict[int, PromptText] = {}
    steps = 0
    # the first reply may carry thought text: its last non-empty line is the move
    lines = [line for line in transcript[-1].text.split("\n") if line.strip()]
    move = lines[-1].strip() if lines else ""
    while True:
        offset = offsets.get(move)  # parse_action's vocabulary
        if offset is None:
            outcome = Outcome.INVALID
            break
        steps += 1
        n = c + offset
        if n == goal:
            outcome = Outcome.SUCCESS
            break
        mark = board[n]
        if mark == PIT:
            outcome = Outcome.DEADEND
            break
        if mark == FREE:
            c = n
        if steps >= max_steps:
            outcome = Outcome.MAX_STEP
            break
        turn = observations.get(c)
        if turn is None:
            turn = observations[c] = PromptText(HUMAN, render_observation(spec, spec.position(c)))
        transcript.append(turn)
        move = agent.respond(list(transcript)).strip()
        transcript.append(_MOVE_TURNS.get(move) or PromptText(GPT, move))
    return EpisodeResult(outcome, steps, optimal_len, transcript)


def run_episode(
    spec: GridSpec, agent: Agent, mode: str, max_steps: int = DEFAULT_MAX_STEPS
) -> EpisodeResult:
    """Play one episode under ``mode`` and close the agent exactly once.

    The agent is closed with the outcome, or with "aborted" when the episode
    raised; an unknown mode or a step budget below 1 raises before the agent
    is asked or closed, and a board without exactly one simple path to its
    goal before the agent is asked.
    """
    if mode not in MODES or max_steps < 1:
        raise ValueError(f"need a mode in {MODES} and max_steps >= 1, got {mode!r}, {max_steps}")
    outcome = "aborted"
    try:
        transcript = render_instruction(spec)  # raises unless the start is a free cell
        require_one_path(spec)  # before the agent is asked; one flag read on a tree
        path = optimal_path(spec)
        transcript.append(PromptText(GPT, agent.respond(list(transcript))))
        if mode == OPTIMAL:
            try:
                _, actions = parse_plan(transcript[-1].text)
            except PlanParseError:
                actions = []  # scored as a fail of 0 steps: a plan is never empty
            scored = Outcome.SUCCESS if actions == [a for a, _ in path] else Outcome.FAIL
            result = EpisodeResult(scored, len(actions), len(path), transcript)
        else:
            result = _play_reachable(spec, agent, transcript, len(path), max_steps)
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
        return (RandomValidAgent if kind == "random" else DfsAgent)(episode_seed)

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
        from concurrent.futures import ThreadPoolExecutor  # here, since one worker never needs it
        with ThreadPoolExecutor(max_workers=workers) as pool:
            report.episodes = list(pool.map(one, range(len(specs))))
    return report
