"""External agents over a line-oriented JSON wire protocol.

Each turn sends one request object::

    {"session": "<id>", "messages": [{"role": "human"|"gpt", "text": "..."}, ...]}

and expects one UTF-8 reply object ``{"text": "..."}`` of at most
``MAX_REPLY_BYTES``. A best-effort ``{"type": "end", "session": "<id>",
"outcome": "..."}`` notice closes the episode. A subprocess carries the
protocol as one JSON object per line on stdin/stdout (POSIX only), an HTTP
server as POSTs on /act. A timed-out HTTP request is sent once more. A stdio
turn writes and reads under one deadline of two timeouts and never resends,
since on an ordered pipe a late reply would then answer the next turn. A
second timeout, a dead peer, or a malformed or oversized reply aborts the
episode via AgentTransportError rather than polluting the outcome counts.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shlex
import signal
import subprocess
import threading
import time
import urllib.request
from contextlib import suppress

from .harness import Agent, AgentTransportError
from .prompts import PromptText

DEFAULT_TIMEOUT = 30.0

# the most agent output held before a reply: the longest target reply,
# JSON-encoded, is ~15 KB, and a fully probed 20x20 board stays under 64 KiB
MAX_REPLY_BYTES = 1 << 20


def _encode(obj: dict) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode()


def _messages(transcript: list[PromptText]) -> list[dict]:
    return [{"role": t.role, "text": t.text} for t in transcript]


def _parse_reply(raw: bytes) -> str:
    # decoded here: json.loads(bytes) would also accept UTF-16 and UTF-32
    try:
        obj = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise AgentTransportError(f"malformed reply: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("text"), str):
        raise AgentTransportError(f"reply lacks a text field: {raw!r}")
    return obj["text"]


class StdioBridgeAgent(Agent):
    """One subprocess per episode, one JSON object per line each way.

    The process is spawned lazily on the first turn so spawn failures abort
    the episode like any other transport fault. It leads its own process
    group, which ``close`` kills so that nothing it started outlives it.
    Bytes read past a reply's newline are kept for the next turn.
    """

    def __init__(self, command: str, session: str, timeout: float = DEFAULT_TIMEOUT):
        self._command = shlex.split(command)
        self._session = session
        self._timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._buffer = bytearray()

    def _ensure_started(self) -> None:
        if self._proc is not None:
            return
        try:
            self._proc = subprocess.Popen(self._command, stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE, start_new_session=True)
        except OSError as exc:
            raise AgentTransportError(f"cannot spawn {self._command}: {exc}") from exc
        os.set_blocking(self._proc.stdin.fileno(), False)

    def _exchange(self, request: bytes) -> bytes:
        """Write ``request`` and read one reply line, within two timeouts."""
        deadline = time.monotonic() + 2 * self._timeout
        stdin, stdout = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        while True:
            end = self._buffer.find(b"\n")
            if 0 <= end <= MAX_REPLY_BYTES and not request:
                break
            if len(self._buffer) > MAX_REPLY_BYTES:  # one long line, or many unasked
                raise AgentTransportError(f"agent output over the {MAX_REPLY_BYTES}-byte reply cap")
            left = deadline - time.monotonic()
            if left <= 0:
                raise AgentTransportError(f"agent timed out twice after {self._timeout}s")
            poller = select.poll()
            poller.register(stdout, select.POLLIN)
            if request:
                poller.register(stdin, select.POLLOUT)
            # sliced, since poll() overflows on the longest wait a timeout allows
            for fd, _ in poller.poll(1000 * min(left, 3600)):
                if fd == stdin:
                    try:  # after POLLOUT a pipe takes at least one byte
                        request = request[os.write(stdin, request):]
                    except OSError as exc:
                        raise AgentTransportError(f"agent pipe closed: {exc}") from exc
                else:
                    chunk = os.read(stdout, 1 << 16)
                    if not chunk:
                        raise AgentTransportError("agent closed its stdout")
                    self._buffer += chunk
        line = bytes(self._buffer[:end])
        del self._buffer[:end + 1]
        return line

    def respond(self, transcript: list[PromptText]) -> str:
        self._ensure_started()
        request = {"session": self._session, "messages": _messages(transcript)}
        return _parse_reply(self._exchange(_encode(request) + b"\n"))

    def close(self, outcome: str) -> None:
        if self._proc is None:
            return
        proc, end = self._proc, {"type": "end", "session": self._session, "outcome": outcome}
        with suppress(OSError):  # sent only if the pipe takes it without waiting
            os.write(proc.stdin.fileno(), _encode(end) + b"\n")
        proc.stdin.close()
        with suppress(subprocess.TimeoutExpired):
            proc.wait(timeout=2)
        with suppress(ProcessLookupError):  # a clean exit may leave children behind
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()


class HttpBridgeAgent(Agent):
    """POSTs each request to the server's /act endpoint."""

    def __init__(self, url: str, session: str, timeout: float = DEFAULT_TIMEOUT):
        base = url.rstrip("/")
        self._url = base if base.endswith("/act") else base + "/act"
        self._session = session
        self._timeout = timeout

    def _post(self, obj: dict) -> bytes:
        request = urllib.request.Request(self._url, data=_encode(obj),
                                         headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=self._timeout) as response:
            body = response.read(MAX_REPLY_BYTES + 1)
        if len(body) > MAX_REPLY_BYTES:
            raise AgentTransportError(f"reply over the {MAX_REPLY_BYTES}-byte reply cap")
        return body

    def respond(self, transcript: list[PromptText]) -> str:
        request = {"session": self._session, "messages": _messages(transcript)}
        last_error: Exception | None = None
        for _ in (1, 2):
            try:
                return _parse_reply(self._post(request))
            except (http.client.HTTPException, OSError) as exc:  # URLError is an OSError
                last_error = exc
        raise AgentTransportError(f"agent unreachable: {last_error}") from last_error

    def close(self, outcome: str) -> None:
        try:
            self._post({"type": "end", "session": self._session, "outcome": outcome})
        except (http.client.HTTPException, OSError, AgentTransportError):
            pass


def bridge_agent_factory(endpoint: str, timeout: float = DEFAULT_TIMEOUT):
    """Factory (spec, index, episode_seed) -> Agent for ``http(s)://...`` or ``stdio:<cmd>``."""
    # the same bound as a thread's lock wait, for the two timeouts of a turn
    limit = threading.TIMEOUT_MAX / 2
    if not 0 < timeout <= limit:
        raise ValueError(f"timeout must be a positive number of seconds up to {limit:.0f}, "
                         f"got {timeout}")
    if endpoint.startswith(("http://", "https://")):
        make, address = HttpBridgeAgent, endpoint
    elif endpoint.startswith("stdio:"):
        make, address = StdioBridgeAgent, endpoint[len("stdio:"):]
        if not address.strip():
            raise ValueError("stdio endpoint needs a command")
    else:
        raise ValueError(f"bad endpoint {endpoint!r}: expected http(s)://... or stdio:<command>")

    def factory(spec, index: int, episode_seed: int) -> Agent:
        return make(address, f"ep-{index}", timeout)

    return factory
