"""External agents over a line-oriented JSON wire protocol.

Each turn sends one request object::

    {"session": "<id>", "messages": [{"role": "human"|"gpt", "text": "..."}, ...]}

and expects one UTF-8 reply object ``{"text": "..."}`` of at most
``MAX_REPLY_BYTES``. A best-effort ``{"type": "end", "session": "<id>",
"outcome": "..."}`` notice closes the episode. A subprocess carries the
protocol as one JSON object per line on stdin/stdout (POSIX only), an HTTP
server as POSTs on /act. Each turn runs under one deadline of two timeouts.
A timed-out HTTP request is sent once more, and a reply still arriving at
the deadline, in its status line, headers or body, aborts. A stdio turn
writes and reads under the deadline and never resends, since on an ordered
pipe a late reply would then answer the next turn. A second timeout, a dead
peer, or a malformed or oversized reply aborts the episode via
AgentTransportError rather than polluting the outcome counts.
"""

from __future__ import annotations

import os
import select
import shlex
import signal
import subprocess
import threading
import time
from contextlib import suppress
from json.encoder import encode_basestring_ascii as _string
from urllib.parse import urlsplit

from .dataset import MAX_LINE_BYTES as MAX_REPLY_BYTES, decode_object, turn_json
from .harness import Agent, AgentTransportError
from .prompts import PromptText

DEFAULT_TIMEOUT = 30.0
# the seconds an agent gets, after the end notice, to take it and exit
CLOSE_GRACE = 2.0

# the request and the end notice as json.dumps writes them with compact separators
_REQUEST = '{"session":%s,"messages":[%s]}'
_END = '{"type":"end","session":%s,"outcome":%s}'


def _request(session: str, transcript: list[PromptText]) -> bytes:
    return (_REQUEST % (_string(session), ",".join(map(turn_json, transcript)))).encode()


def _parse_reply(raw: bytes) -> str:
    try:
        text = decode_object(raw.decode()).get("text")
    except (ValueError, RecursionError) as exc:  # decode errors are ValueErrors
        raise AgentTransportError(f"malformed reply: {exc}") from exc
    if not isinstance(text, str):
        raise AgentTransportError("reply lacks a text field")
    return text


class StdioBridgeAgent(Agent):
    """One subprocess per episode, one JSON object per line each way.

    The process is spawned lazily on the first turn so spawn failures abort
    the episode like any other transport fault. It leads its own process
    group, which ``close`` kills so that nothing it started outlives it.
    Bytes read past a reply's newline are kept for the next turn.
    """

    def __init__(self, command: list[str], session: str, timeout: float = DEFAULT_TIMEOUT):
        self._command = command
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
        return _parse_reply(self._exchange(_request(self._session, transcript) + b"\n"))

    def close(self, outcome: str) -> None:
        if self._proc is None:
            return
        proc, end = self._proc, _END % (_string(self._session), _string(outcome))
        with suppress(OSError):  # sent only if the pipe takes it without waiting
            os.write(proc.stdin.fileno(), end.encode() + b"\n")
        proc.stdin.close()
        with suppress(subprocess.TimeoutExpired):
            proc.wait(timeout=CLOSE_GRACE)
        with suppress(ProcessLookupError):  # a clean exit may leave children behind
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()


class HttpBridgeAgent(Agent):
    """POSTs each request to the endpoint's path with ``/act`` appended, unless
    it ends in ``/act`` already, and its query after that."""

    def __init__(self, url: str, session: str, timeout: float = DEFAULT_TIMEOUT):
        parts = urlsplit(url)
        if not parts.hostname:
            raise ValueError(f"bad endpoint {url!r}: no host")
        path = parts.path.rstrip("/")
        path = path if path.endswith("/act") else path + "/act"
        self._https, self._host = parts.scheme == "https", parts.netloc
        self._target = path + "?" + parts.query if parts.query else path
        self._session = session
        self._timeout = timeout

    def _post(self, body: bytes, deadline: float) -> bytes:
        """POST ``body`` and read the reply, status line and headers included.
        At ``deadline`` a timer marks the deadline passed and then shuts the
        socket down, so that a read it cuts short is not taken for a reply.
        Redirects are not followed and no proxy is used."""
        # here, since stdio and scripted runs never need them
        from http.client import HTTPConnection, HTTPException, HTTPSConnection
        from socket import SHUT_RDWR

        make = HTTPSConnection if self._https else HTTPConnection
        connection = make(self._host, timeout=self._timeout)
        # the socket is held here too: a reply read up to the hangup takes it off the connection
        passed, sock = threading.Event(), None

        def expire() -> None:
            passed.set()
            if sock is not None:  # else the check after connecting sees the mark
                with suppress(OSError):  # closed already
                    sock.shutdown(SHUT_RDWR)

        timer = threading.Timer(deadline - time.monotonic(), expire)
        timer.start()
        try:
            connection.connect()
            sock = connection.sock
            if not passed.is_set():
                connection.request("POST", self._target, body, {"Content-Type": "application/json"})
                response = connection.getresponse()
                if not 200 <= response.status < 300:
                    raise HTTPException(f"HTTP Error {response.status}: {response.reason}")
                reply = response.read(MAX_REPLY_BYTES + 1)
        except (HTTPException, OSError):
            if not passed.is_set():
                raise
        finally:
            timer.cancel()
            timer.join()  # so that it cannot shut a socket down while it closes
            connection.close()
        if passed.is_set():
            raise AgentTransportError("reply still arriving at the deadline")
        if len(reply) > MAX_REPLY_BYTES:
            raise AgentTransportError(f"reply over the {MAX_REPLY_BYTES}-byte reply cap")
        return reply

    def respond(self, transcript: list[PromptText]) -> str:
        from http.client import HTTPException

        request = _request(self._session, transcript)
        deadline = time.monotonic() + 2 * self._timeout
        last_error: Exception | None = None
        for _ in (1, 2):
            try:
                return _parse_reply(self._post(request, deadline))
            except (HTTPException, OSError) as exc:
                last_error = exc
        raise AgentTransportError(f"agent unreachable: {last_error}") from last_error

    def close(self, outcome: str) -> None:  # run_episode swallows a failed close
        end = _END % (_string(self._session), _string(outcome))
        self._post(end.encode(), time.monotonic() + CLOSE_GRACE)


def bridge_agent_factory(endpoint: str, timeout: float = DEFAULT_TIMEOUT):
    """Factory (spec, index, episode_seed) -> Agent for ``http(s)://...`` or ``stdio:<cmd>``."""
    # a turn's two timeouts together stay in the range socket.settimeout accepts
    limit = threading.TIMEOUT_MAX / 2
    if not 0 < timeout <= limit:
        raise ValueError(f"timeout must be a positive number of seconds up to {limit:.0f}, "
                         f"got {timeout}")
    if endpoint.startswith(("http://", "https://")):
        make, address = HttpBridgeAgent, endpoint
        make(address, "", timeout)  # once, so that a bad URL fails before any episode
    elif endpoint.startswith("stdio:"):
        try:  # once, so that a bad command fails before any episode
            make, address = StdioBridgeAgent, shlex.split(endpoint[len("stdio:"):])
        except ValueError as exc:
            raise ValueError(f"bad endpoint {endpoint!r}: {exc}") from None
        if not address:
            raise ValueError("stdio endpoint needs a command")
    else:
        raise ValueError(f"bad endpoint {endpoint!r}: expected http(s)://... or stdio:<command>")

    def factory(spec, index: int, episode_seed: int) -> Agent:
        return make(address, f"ep-{index}", timeout)

    return factory
