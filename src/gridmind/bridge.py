"""External agents over a line-oriented JSON wire protocol.

Each turn sends one request object::

    {"session": "<id>", "messages": [{"role": "human"|"gpt", "text": "..."}, ...]}

and expects one reply object ``{"text": "..."}``. When the episode closes,
a ``{"type": "end", "session": "<id>", "outcome": "..."}`` notification is
sent on a best-effort basis. Two transports carry the protocol: a subprocess
speaking one JSON object per line on stdin/stdout, and an HTTP server
accepting POSTs on /act. A timed-out HTTP request is sent once more; a
stdio request is waited for once more but never resent, since on an ordered
pipe its late reply would then answer the next turn. A second timeout, a
dead peer, or a malformed reply aborts the episode via AgentTransportError
rather than polluting the outcome counts.
"""

from __future__ import annotations

import json
import queue
import shlex
import subprocess
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass

from .harness import Agent, AgentTransportError
from .prompts import PromptText

DEFAULT_TIMEOUT = 30.0

STDIO = "stdio"
HTTP = "http"


@dataclass(frozen=True)
class AgentEndpoint:
    """Where an external agent lives: transport plus address."""

    transport: str
    address: str
    timeout: float = DEFAULT_TIMEOUT

    @classmethod
    def parse(cls, text: str, timeout: float = DEFAULT_TIMEOUT) -> "AgentEndpoint":
        # a stdio turn waits 2 * timeout, and the wait must fit a thread lock
        limit = threading.TIMEOUT_MAX / 2
        if not 0 < timeout <= limit:
            raise ValueError(f"timeout must be a positive number of seconds up to {limit:.0f}, "
                             f"got {timeout}")
        if text.startswith(("http://", "https://")):
            return cls(HTTP, text, timeout)
        if text.startswith("stdio:"):
            command = text[len("stdio:"):]
            if not command.strip():
                raise ValueError("stdio endpoint needs a command")
            return cls(STDIO, command, timeout)
        raise ValueError(
            f"bad endpoint {text!r}: expected http(s)://... or stdio:<command>"
        )


def _messages(transcript: list[PromptText]) -> list[dict]:
    return [{"role": t.role, "text": t.text} for t in transcript]


def _parse_reply(raw: str) -> str:
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise AgentTransportError(f"malformed reply: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("text"), str):
        raise AgentTransportError(f"reply lacks a text field: {raw!r}")
    return obj["text"]


class StdioBridgeAgent(Agent):
    """One subprocess per episode, one JSON object per line each way.

    The process is spawned lazily on the first turn so spawn failures abort
    the episode like any other transport fault.
    """

    def __init__(self, command: str, session: str, timeout: float = DEFAULT_TIMEOUT):
        self._command = shlex.split(command)
        self._session = session
        self._timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._lines: queue.Queue[str | None] = queue.Queue()

    def _ensure_started(self) -> None:
        if self._proc is not None:
            return
        try:
            self._proc = subprocess.Popen(
                self._command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise AgentTransportError(f"cannot spawn {self._command}: {exc}") from exc

        def pump(stream, lines):
            with stream:
                for line in stream:
                    lines.put(line)
            lines.put(None)

        threading.Thread(
            target=pump, args=(self._proc.stdout, self._lines), daemon=True
        ).start()

    def _send(self, obj: dict) -> None:
        assert self._proc is not None and self._proc.stdin is not None
        self._proc.stdin.write(json.dumps(obj, separators=(",", ":")) + "\n")
        self._proc.stdin.flush()

    def respond(self, transcript: list[PromptText]) -> str:
        self._ensure_started()
        try:
            self._send({"session": self._session, "messages": _messages(transcript)})
        except (OSError, ValueError) as exc:
            raise AgentTransportError(f"agent pipe closed: {exc}") from exc
        # the one send gets both timeout periods: see the module docstring
        try:
            line = self._lines.get(timeout=2 * self._timeout)
        except queue.Empty:
            raise AgentTransportError(f"agent timed out twice after {self._timeout}s") from None
        if line is None:
            raise AgentTransportError("agent closed its stdout")
        return _parse_reply(line)

    def close(self, outcome: str) -> None:
        if self._proc is None:
            return
        try:
            self._send({"type": "end", "session": self._session, "outcome": outcome})
        except (OSError, ValueError):
            pass
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=2)
        except (OSError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()


class HttpBridgeAgent(Agent):
    """POSTs each request to the server's /act endpoint."""

    def __init__(self, url: str, session: str, timeout: float = DEFAULT_TIMEOUT):
        base = url.rstrip("/")
        self._url = base if base.endswith("/act") else base + "/act"
        self._session = session
        self._timeout = timeout

    def _post(self, obj: dict) -> str:
        payload = json.dumps(obj, separators=(",", ":")).encode()
        request = urllib.request.Request(
            self._url, data=payload, headers={"Content-Type": "application/json"}
        )
        with urllib.request.urlopen(request, timeout=self._timeout) as response:
            return response.read().decode()

    def respond(self, transcript: list[PromptText]) -> str:
        request = {"session": self._session, "messages": _messages(transcript)}
        last_error: Exception | None = None
        for _ in (1, 2):
            try:
                return _parse_reply(self._post(request))
            except (urllib.error.URLError, TimeoutError, OSError) as exc:
                last_error = exc
        raise AgentTransportError(f"agent unreachable: {last_error}") from last_error

    def close(self, outcome: str) -> None:
        try:
            self._post({"type": "end", "session": self._session, "outcome": outcome})
        except (urllib.error.URLError, TimeoutError, OSError, AgentTransportError):
            pass


def bridge_agent_factory(endpoint: str, timeout: float = DEFAULT_TIMEOUT):
    """Factory (spec, index, episode_seed) -> Agent for an endpoint string."""
    parsed = AgentEndpoint.parse(endpoint, timeout)

    def factory(spec, index: int, episode_seed: int) -> Agent:
        session = f"ep-{index}"
        if parsed.transport == HTTP:
            return HttpBridgeAgent(parsed.address, session, parsed.timeout)
        return StdioBridgeAgent(parsed.address, session, parsed.timeout)

    return factory
