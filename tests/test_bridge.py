from __future__ import annotations

import json
import os
import resource
import shlex
import socket
import sys
import threading
import time
from contextlib import suppress
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import example_env
from gridmind import bridge
from gridmind.bridge import (
    MAX_REPLY_BYTES,
    HttpBridgeAgent,
    StdioBridgeAgent,
    bridge_agent_factory,
)
from gridmind.harness import (REACHABLE, AgentTransportError, EpisodeAborted, Outcome, evaluate_batch,
                              run_episode)
from gridmind.prompts import PromptText, render_instruction

REF_PLAN = ["right", "right", "up", "right", "up"]

# replays the reference plan by counting the move turns already in the
# transcript, and logs every request object it sees to the file in argv[1],
# which it creates once it is ready to read; an optional argv[2] is the
# number of seconds it sits on the first request before answering it
STUB = r"""
import json, sys, time
plan = ["right", "right", "up", "right", "up"]
log = open(sys.argv[1], "a")
first_delay = float(sys.argv[2]) if len(sys.argv) > 2 else 0.0
for line in sys.stdin:
    obj = json.loads(line)
    print(json.dumps(obj), file=log, flush=True)
    if obj.get("type") == "end":
        break
    time.sleep(first_delay)
    first_delay = 0.0
    moves = sum(1 for m in obj["messages"] if m["role"] == "gpt") - 1
    sys.stdout.write(json.dumps({"text": plan[moves]}) + "\n")
    sys.stdout.flush()
"""


def _live_group_members(pgid: int, grace: float = 1.0) -> list[int]:
    """Pids of the group's members that are not zombies, once a SIGKILL sent
    to the group has had ``grace`` seconds to take effect."""
    deadline = time.monotonic() + grace
    while True:
        live = []
        for entry in os.listdir("/proc"):
            try:
                stat = Path(f"/proc/{entry}/stat").read_text() if entry.isdigit() else ""
            except OSError:  # it exited while we looked
                continue
            fields = stat[stat.rfind(")") + 2:].split()  # state, ppid, pgrp, ...
            if fields and int(fields[2]) == pgid and fields[0] not in "ZX":
                live.append(int(entry))
        if not live or time.monotonic() > deadline:
            return live
        time.sleep(0.01)


def _assert_closed_clean(agent: StdioBridgeAgent) -> None:
    """Nothing the agent started outlives its ``close``."""
    if agent._proc is not None:
        assert agent._proc.returncode is not None  # reaped
        assert agent._proc.stdout.closed
        assert _live_group_members(agent._proc.pid) == []


def test_endpoint_parse():
    http = bridge_agent_factory("http://host:9")(None, 0, 0)
    assert isinstance(http, HttpBridgeAgent)
    assert (http._https, http._host, http._target) == (False, "host:9", "/act")
    assert isinstance(bridge_agent_factory("https://host/x")(None, 1, 0), HttpBridgeAgent)
    stdio = bridge_agent_factory("stdio:python3 agent.py --flag", timeout=5.0)(None, 2, 0)
    assert isinstance(stdio, StdioBridgeAgent)
    assert stdio._command == ["python3", "agent.py", "--flag"]
    assert (stdio._session, stdio._timeout) == ("ep-2", 5.0)
    with pytest.raises(ValueError, match="needs a command"):
        bridge_agent_factory("stdio:   ")
    with pytest.raises(ValueError, match="bad endpoint"):
        bridge_agent_factory("ftp://host")


def _request(session: str, transcript: list[PromptText]) -> bytes:
    """The request, as json.dumps writes it with compact separators."""
    messages = [{"role": t.role, "text": t.text} for t in transcript]
    return json.dumps({"session": session, "messages": messages}, separators=(",", ":")).encode()


def _end(session: str, outcome: str) -> bytes:
    """The end notice, as json.dumps writes it with compact separators."""
    end = {"type": "end", "session": session, "outcome": outcome}
    return json.dumps(end, separators=(",", ":")).encode()


# any text, lone surrogates and control characters included
_any_text = st.text(st.characters(exclude_categories=()))


@settings(max_examples=300, deadline=None)
@given(_any_text, _any_text, st.lists(st.builds(PromptText, _any_text, _any_text), max_size=4))
@example("ep-\ud800", "\x00\x1f\x7f", [PromptText("human", "\udfff\n\u2028\"\\")])
def test_the_request_and_the_end_notice_are_compact_json(session, outcome, transcript):
    sent = []
    agent = HttpBridgeAgent("http://127.0.0.1:9", session)
    agent._post = lambda body, deadline: sent.append(body) or b'{"text": "up"}'
    assert agent.respond(transcript) == "up"
    agent.close(outcome)
    assert sent == [_request(session, transcript), _end(session, outcome)]


def test_each_transport_sends_the_written_bytes(ref_env, tmp_path):
    opening = render_instruction(ref_env)
    log = tmp_path / "wire"
    # the shell logs the request, answers it, then logs the end notice
    script = """head -n 1 >"$1"; echo '{"text": "up"}'; cat >>"$1" """
    agent = StdioBridgeAgent(["sh", "-c", script, "sh", str(log)], "s-0")
    assert agent.respond(opening) == "up"
    agent.close("fail")
    assert log.read_bytes() == _request("s-0", opening) + b"\n" + _end("s-0", "fail") + b"\n"
    server = _Server(lambda obj: '{"text": "up"}')
    try:
        agent = HttpBridgeAgent(server.url, "s-1")
        assert agent.respond(opening) == "up"
        agent.close("fail")
    finally:
        server.stop()
    assert server.bodies == [_request("s-1", opening), _end("s-1", "fail")]


def test_stdio_round_trip(ref_env, tmp_path):
    script = tmp_path / "stub.py"
    script.write_text(STUB)
    log = tmp_path / "requests.jsonl"
    factory = bridge_agent_factory(f"stdio:python3 {script} {log}")

    report = evaluate_batch([ref_env], factory, REACHABLE)
    assert report.counts["success"] == 1
    assert report.aborted == 0
    assert report.episodes[0].steps == len(REF_PLAN)

    requests = [json.loads(line) for line in log.read_text().splitlines()]
    turns = [r for r in requests if "messages" in r]
    assert len(turns) == len(REF_PLAN)
    first = turns[0]
    assert set(first) == {"session", "messages"}
    assert first["session"] == "ep-0"
    assert all(set(m) == {"role", "text"} for m in first["messages"])
    assert [m["role"] for m in first["messages"]] == ["human", "gpt", "human"]
    # each later turn replays the whole transcript so far
    assert [len(t["messages"]) for t in turns] == [3, 5, 7, 9, 11]
    end = requests[-1]
    assert end == {"type": "end", "session": "ep-0", "outcome": "success"}


def test_stdio_malformed_reply_aborts(ref_env, tmp_path):
    script = tmp_path / "bad.py"
    script.write_text(
        "import sys\n"
        "sys.stdin.readline()\n"
        "sys.stdout.write('not json at all\\n')\n"
        "sys.stdout.flush()\n"
        "sys.stdin.read()\n"
    )
    with pytest.raises(EpisodeAborted):
        run_episode(ref_env, StdioBridgeAgent(["python3", str(script)], "s-1"), REACHABLE)


def test_stdio_agent_death_aborts(ref_env):
    agent = StdioBridgeAgent(["python3", "-c", "pass"], "s-2", timeout=5.0)
    with pytest.raises(EpisodeAborted):
        run_episode(ref_env, agent, REACHABLE)


def test_stdio_spawn_failure_aborts(ref_env):
    agent = StdioBridgeAgent(["/no/such/binary", "--x"], "s-3")
    with pytest.raises(EpisodeAborted):
        run_episode(ref_env, agent, REACHABLE)


def test_stdio_slow_first_reply_keeps_turns_paired(ref_env, tmp_path):
    # the first reply comes after one timeout; resending would pair every
    # later turn with the reply to the turn before and walk into the pit
    script = tmp_path / "stub.py"
    script.write_text(STUB)
    log = tmp_path / "requests.jsonl"
    agent = StdioBridgeAgent(["python3", str(script), str(log), "1.5"], "s-4", timeout=1.0)
    # start the agent and wait until it reads, so that its 1.5 s delay runs
    # from the first send and interpreter start-up does not count
    agent._ensure_started()
    deadline = time.monotonic() + 60
    while not log.exists():
        assert time.monotonic() < deadline, "the agent did not start"
        time.sleep(0.01)

    started = time.monotonic()
    result = run_episode(ref_env, agent, REACHABLE)
    assert time.monotonic() - started > 1.0  # the first reply came after one timeout
    assert result.outcome is Outcome.SUCCESS
    assert result.steps == len(REF_PLAN)
    requests = [json.loads(line) for line in log.read_text().splitlines()]
    turns = [r for r in requests if "messages" in r]
    assert [len(t["messages"]) for t in turns] == [3, 5, 7, 9, 11]


def test_stdio_double_timeout_aborts(ref_env):
    agent = StdioBridgeAgent(
        ["python3", "-c", "import time; time.sleep(30)"], "s-5", timeout=0.2
    )
    with pytest.raises(AgentTransportError, match="timed out twice"):
        agent.respond(render_instruction(ref_env))
    agent.close("aborted")


def test_stdio_close_reaps_an_agent_that_ignores_the_end_message(ref_env, tmp_path):
    # one reply that is not a move ends the episode; the agent then sleeps
    # through the end message and its closed stdin, so close must kill it
    script = tmp_path / "deaf.py"
    script.write_text(
        "import sys, time\n"
        "sys.stdin.readline()\n"
        "print('{\"text\": \"hello\"}', flush=True)\n"
        "time.sleep(60)\n"
    )
    agent = StdioBridgeAgent(["python3", str(script)], "s-6", timeout=5.0)
    started = time.monotonic()
    assert run_episode(ref_env, agent, REACHABLE).outcome is Outcome.INVALID
    assert time.monotonic() - started < 30
    _assert_closed_clean(agent)


def test_stdio_close_kills_the_agents_whole_process_group(ref_env):
    # the shell waits on a sleep that outlives the 2 s that close allows it
    agent = StdioBridgeAgent(["sh", "-c", "sleep 30; true"], "s-7", timeout=0.2)
    with pytest.raises(AgentTransportError, match="timed out twice"):
        agent.respond(render_instruction(ref_env))
    agent.close("aborted")
    _assert_closed_clean(agent)


# the agent-boundary gaps: each must end its episode, close included, within
# two timeouts and the 2 s that close gives an agent to exit
GAP_TIMEOUT = 0.5
GAP_BOUND = 2 * GAP_TIMEOUT + 2


def _padded_reply(size: int) -> bytes:
    """A reply object for "up" that is exactly ``size`` bytes long."""
    head = b'{"text": "up", "pad": "'
    return head + b"x" * (size - len(head) - 2) + b'"}'


def test_stdio_agent_that_never_reads_its_stdin_aborts_in_time(ref_env):
    # it floods stdout, and its unread requests fill the stdin pipe
    agent = StdioBridgeAgent(["yes", '{"text": "up"}'], "s-8", timeout=GAP_TIMEOUT)
    started = time.monotonic()
    with pytest.raises(EpisodeAborted):
        run_episode(ref_env, agent, REACHABLE)
    assert time.monotonic() - started < GAP_BOUND
    _assert_closed_clean(agent)


def test_stdio_non_utf8_reply_is_malformed_at_once(ref_env):
    agent = StdioBridgeAgent([
        sys.executable, "-c",
        "import sys; sys.stdin.readline(); sys.stdout.buffer.write(b'\\xff\\n'); "
        "sys.stdout.flush(); sys.stdin.read()",
    ], "s-9", timeout=GAP_TIMEOUT)
    with pytest.raises(AgentTransportError, match="malformed reply"):
        agent.respond(render_instruction(ref_env))
    agent.close("aborted")
    _assert_closed_clean(agent)


# answers session ep-0 with a reply nested deeper than json.loads can
# recurse, well under the reply cap, and every other one with the reference plan
DEEP_AGENT = r"""
import json, sys
plan = ["right", "right", "up", "right", "up"]
for line in sys.stdin:
    obj = json.loads(line)
    if obj.get("type") == "end":
        break
    if obj["session"] == "ep-0":
        sys.stdout.write('{"text": ' + "[" * 200000 + "\n")
    else:
        moves = sum(1 for m in obj["messages"] if m["role"] == "gpt") - 1
        sys.stdout.write(json.dumps({"text": plan[moves]}) + "\n")
    sys.stdout.flush()
"""


def test_stdio_reply_nested_too_deep_aborts_its_episode_only(ref_env, tmp_path):
    script = tmp_path / "deep.py"
    script.write_text(DEEP_AGENT)
    make = bridge_agent_factory(f"stdio:{shlex.join([sys.executable, str(script)])}", 5.0)
    agents = []

    def factory(spec, index, episode_seed):
        agents.append(make(spec, index, episode_seed))
        return agents[-1]

    report = evaluate_batch([ref_env, ref_env], factory, REACHABLE)
    assert [e.outcome for e in report.episodes] == [None, "success"]
    for agent in agents:
        _assert_closed_clean(agent)


def test_stdio_endless_line_aborts_in_bounded_memory(ref_env):
    # 200 MB with no newline: the bridge reads past the cap and no further
    agent = StdioBridgeAgent(["head", "-c", "200000000", "/dev/zero"], "s-10", timeout=GAP_TIMEOUT)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    started = time.monotonic()
    with pytest.raises(EpisodeAborted, match="reply cap"):
        run_episode(ref_env, agent, REACHABLE)
    assert time.monotonic() - started < GAP_BOUND
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kib < 64 * 1024
    _assert_closed_clean(agent)


@pytest.mark.parametrize("over", [0, 1])
def test_stdio_reply_line_is_capped(ref_env, tmp_path, over):
    reply = tmp_path / "reply.json"
    reply.write_bytes(_padded_reply(MAX_REPLY_BYTES + over) + b"\n")
    agent = StdioBridgeAgent(
        ["sh", "-c", 'read x; cat "$1"; cat >/dev/null', "sh", str(reply)], "s-11")
    if over:
        with pytest.raises(AgentTransportError, match="reply cap"):
            agent.respond(render_instruction(ref_env))
    else:
        assert agent.respond(render_instruction(ref_env)) == "up"
    agent.close("aborted")
    _assert_closed_clean(agent)


def test_stdio_close_kills_a_background_child_after_a_clean_exit(ref_env):
    # the shell exits at end of input; the sleep it left holds stdout open
    agent = StdioBridgeAgent(
        ["sh", "-c", """(sleep 30 &); read x; echo '{"text": "hello"}'; cat >/dev/null"""],
        "s-12", timeout=GAP_TIMEOUT)
    assert run_episode(ref_env, agent, REACHABLE).outcome is Outcome.INVALID
    assert agent._proc.returncode == 0  # it exited by itself
    _assert_closed_clean(agent)


class _Server:
    """Tiny /act server scripted with a reply function: str or bytes to send,
    or None to hang up without an answer."""

    def __init__(self, reply):
        outer = self
        self.requests: list[tuple[str, dict]] = []
        self.bodies: list[bytes] = []

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                outer.bodies.append(body)
                obj = json.loads(body)
                outer.requests.append((self.path, obj))
                payload = reply(obj)
                if payload is None:  # hang up without an answer
                    return
                if isinstance(payload, str):
                    payload = payload.encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self.httpd = HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.httpd.server_port}"
        threading.Thread(target=self.httpd.serve_forever, daemon=True).start()

    def stop(self):
        self.httpd.shutdown()
        self.httpd.server_close()


def _plan_reply(obj):
    if obj.get("type") == "end":
        return "{}"
    moves = sum(1 for m in obj["messages"] if m["role"] == "gpt") - 1
    return json.dumps({"text": REF_PLAN[moves]})


def test_http_round_trip(ref_env):
    server = _Server(_plan_reply)
    try:
        report = evaluate_batch([ref_env], bridge_agent_factory(server.url), REACHABLE)
    finally:
        server.stop()
    assert report.counts["success"] == 1
    paths = {path for path, _ in server.requests}
    assert paths == {"/act"}
    end = server.requests[-1][1]
    assert end == {"type": "end", "session": "ep-0", "outcome": "success"}


def test_http_url_normalization():
    for url in ("http://h:1", "http://h:1/", "http://h:1/act"):
        agent = HttpBridgeAgent(url, "s")
        assert (agent._host, agent._target) == ("h:1", "/act")


@pytest.mark.parametrize("suffix,target", [
    ("/?k=v", "/act?k=v"),
    ("?k=v", "/act?k=v"),
    ("/act?k=v", "/act?k=v"),
    ("/v1/?k=v#frag", "/v1/act?k=v"),
], ids=["slash and query", "query and no path", "act and query", "path, query and fragment"])
def test_an_endpoint_query_follows_act(ref_env, suffix, target):
    server = _Server(_plan_reply)
    try:
        assert HttpBridgeAgent(server.url + suffix, "s-20").respond(
            render_instruction(ref_env)) == "right"
    finally:
        server.stop()
    assert [path for path, _ in server.requests] == [target]


@pytest.mark.parametrize("endpoint", ["http://", "https://", "http:///act", "http://:80"])
def test_an_endpoint_with_no_host_fails_before_any_episode(endpoint):
    with pytest.raises(ValueError, match="no host"):
        bridge_agent_factory(endpoint)


def test_http_end_notice_gets_the_close_grace(monkeypatch):
    """A server that takes the end notice and never answers holds close for
    the grace, not for a turn's deadline of two timeouts."""
    monkeypatch.setattr(bridge, "CLOSE_GRACE", 0.3)
    with socket.socket() as listener:  # connections queue, and none is answered
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        agent = HttpBridgeAgent(f"http://127.0.0.1:{listener.getsockname()[1]}", "s-21", 5.0)
        started = time.monotonic()
        with pytest.raises(AgentTransportError, match="still arriving"):
            agent.close("success")
        assert time.monotonic() - started < 1.5


def test_http_malformed_reply_aborts(ref_env):
    server = _Server(lambda obj: "surprise!")
    try:
        with pytest.raises(EpisodeAborted):
            run_episode(ref_env, HttpBridgeAgent(server.url, "s-6"), REACHABLE)
    finally:
        server.stop()


def test_http_unreachable_server_counts_as_aborted(ref_env):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    factory = bridge_agent_factory(f"http://127.0.0.1:{port}", timeout=0.5)
    report = evaluate_batch([ref_env], factory, REACHABLE)
    assert report.aborted == 1
    assert report.counts["success"] == 0
    assert report.rates == {k: 0.0 for k in report.rates}


def test_bridge_factory_numbers_sessions(ref_env):
    server = _Server(_plan_reply)
    try:
        report = evaluate_batch(
            [ref_env, ref_env], bridge_agent_factory(server.url), REACHABLE
        )
    finally:
        server.stop()
    assert report.counts["success"] == 2
    sessions = {obj["session"] for _, obj in server.requests}
    assert sessions == {"ep-0", "ep-1"}


@pytest.mark.parametrize("size", [MAX_REPLY_BYTES, MAX_REPLY_BYTES + 1, 2 << 20])
def test_http_reply_is_capped_without_a_resend(ref_env, size):
    server = _Server(lambda obj: _padded_reply(size))
    try:
        agent = HttpBridgeAgent(server.url, "s-13")
        if size > MAX_REPLY_BYTES:
            with pytest.raises(AgentTransportError, match="reply cap"):
                agent.respond(render_instruction(ref_env))
        else:
            assert agent.respond(render_instruction(ref_env)) == "up"
    finally:
        server.stop()
    assert len(server.requests) == 1


def test_http_garbage_status_line_aborts(ref_env):
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen()

        def serve():
            for _ in (1, 2):  # the request and its resend
                conn, _ = listener.accept()
                with conn:
                    conn.recv(1 << 16)
                    conn.sendall(b"GARBAGE\r\n\r\n")

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        agent = HttpBridgeAgent(f"http://127.0.0.1:{listener.getsockname()[1]}", "s-14", 5.0)
        with pytest.raises(AgentTransportError, match="unreachable"):
            agent.respond(render_instruction(ref_env))
        server.join(5)
        assert not server.is_alive()


def test_http_reply_trickled_past_the_deadline_aborts(ref_env):
    """One byte every 0.1 s never trips the 0.5 s socket timeout; the turn's
    deadline of two timeouts ends the episode."""
    stop = threading.Event()
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen()

        def serve():
            conn, _ = listener.accept()
            with conn, suppress(OSError):  # the client hangs up mid-body
                conn.recv(1 << 16)
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\n")
                while not stop.wait(0.1):
                    conn.sendall(b" ")

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        agent = HttpBridgeAgent(f"http://127.0.0.1:{listener.getsockname()[1]}", "s-15", 0.5)
        started = time.monotonic()
        with pytest.raises(EpisodeAborted, match="still arriving"):
            run_episode(ref_env, agent, REACHABLE)
        assert time.monotonic() - started < 3
        stop.set()
        server.join(5)
        assert not server.is_alive()


def _trickle(listener: socket.socket, head: bytes, drip: bytes, stop: threading.Event) -> None:
    """Answer each connection with ``head``, then ``drip`` every 0.1 s for at
    most 5 s, until ``stop`` is set."""
    listener.settimeout(0.1)
    while not stop.is_set():
        try:
            conn, _ = listener.accept()
        except TimeoutError:
            continue
        with conn, suppress(OSError):  # the client hangs up mid-reply
            conn.recv(1 << 16)
            conn.sendall(head)
            for _ in range(50):
                if stop.wait(0.1):
                    break
                conn.sendall(drip)


@pytest.mark.parametrize("head,drip", [
    (b"HTTP/1.0 200 ", b"O"),
    (b"HTTP/1.0 200 OK\r\n", b"X-Pad: x\r\n"),
    (b"HTTP/1.0 200 OK\r\n\r\n", b" "),
], ids=["status line", "headers", "body up to the hangup"])
def test_http_reply_trickled_in_any_part_past_the_deadline_aborts(ref_env, head, drip):
    """A byte or a header line every 0.1 s never trips the 0.5 s socket
    timeout; the turn still ends at its deadline of two timeouts, unsent.
    An HTTP/1.0 body with no length runs until the server hangs up, read
    through a socket the connection object has handed to its response."""
    stop = threading.Event()
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        server = threading.Thread(target=_trickle, args=(listener, head, drip, stop), daemon=True)
        server.start()
        agent = HttpBridgeAgent(f"http://127.0.0.1:{listener.getsockname()[1]}", "s-16", 0.5)
        started = time.monotonic()
        try:
            with pytest.raises(AgentTransportError, match="still arriving"):
                agent.respond(render_instruction(ref_env))
            assert time.monotonic() - started < 2 * 0.5 + 0.5
        finally:
            stop.set()
            server.join(5)
        assert not server.is_alive()


# the agent boundary as a property: whatever a scripted fake agent sends,
# each episode ends in an outcome or an abort within two timeouts and the
# 2 s that close allows, and nothing the agent started outlives its close
PROP_TIMEOUT = 0.1
PROP_BOUND = 2 * PROP_TIMEOUT + 2
MOVES = ["up", "down", "left", "right"]

# argv: the reply cap, the steps, then "1" to leave a background child
# behind at the end; a step reads one request line ("read"), exits ("exit"),
# writes one line longer than the cap from a child ("big") or writes its hex
FAKE_AGENT = r"""
import os, sys, time
cap, *steps, linger = sys.argv[1:]
out = sys.stdout.buffer
for step in steps:
    if step == "exit":
        sys.exit(0)
    if step == "read":
        sys.stdin.buffer.readline()
    elif step == "big":
        if os.fork() == 0:
            out.write(b"x" * (int(cap) + 1) + b"\n")
            out.flush()
            os._exit(0)
    else:
        out.write(bytes.fromhex(step))
        out.flush()
if linger == "1" and os.fork() == 0:
    time.sleep(30)
    os._exit(0)
sys.stdin.buffer.read()
"""

_move_line = st.sampled_from(MOVES).map(lambda m: json.dumps({"text": m}).encode() + b"\n")
_STDIO_STEPS = st.one_of(
    _move_line.map(lambda line: ["read", line.hex()]),  # a reply
    _move_line.map(lambda line: [line.hex()]),  # a reply with no request
    st.binary(min_size=1, max_size=30).map(lambda raw: ["read", (raw + b"\n").hex()]),
    st.just(["read", b"\xff\xfe{}\n".hex()]),  # not UTF-8
    st.just(["read", b'{"text": "u'.hex()]),  # a partial line
    st.just(["read", "big"]),  # an oversized line
    st.just(["exit"]),  # an early exit
)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(_STDIO_STEPS, max_size=6), linger=st.booleans())
def test_any_stdio_agent_ends_in_time_and_leaves_nothing_behind(steps, linger):
    argv = [sys.executable, "-c", FAKE_AGENT, str(MAX_REPLY_BYTES)]
    argv += [arg for step in steps for arg in step] + [str(int(linger))]
    agent = StdioBridgeAgent(argv, "prop", timeout=PROP_TIMEOUT)
    started = time.monotonic()
    try:
        run_episode(example_env(), agent, REACHABLE)
    except EpisodeAborted:
        pass
    assert time.monotonic() - started < PROP_BOUND
    _assert_closed_clean(agent)


_HTTP_REPLIES = st.one_of(
    st.sampled_from(MOVES).map(lambda m: json.dumps({"text": m})),
    st.binary(max_size=30),  # garbage, often not UTF-8
    st.just(b'{"text": "u'),  # a partial body
    st.sampled_from(["big", "stall", "hangup"]).map(lambda kind: (kind,)),
)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(replies=st.lists(_HTTP_REPLIES, max_size=6))
def test_any_http_agent_ends_in_time(replies):
    script = iter(replies)

    def reply(obj):
        if obj.get("type") == "end":
            return "{}"
        step = next(script, ("hangup",))  # once the script runs out
        if step == ("big",):
            return b"x" * (MAX_REPLY_BYTES + 1)
        if step == ("stall",):
            time.sleep(3 * PROP_TIMEOUT)
        return None if isinstance(step, tuple) else step

    server = _Server(reply)
    try:
        started = time.monotonic()
        try:
            run_episode(example_env(), HttpBridgeAgent(server.url, "prop", PROP_TIMEOUT),
                        REACHABLE)
        except EpisodeAborted:
            pass
        assert time.monotonic() - started < PROP_BOUND
    finally:
        server.stop()
