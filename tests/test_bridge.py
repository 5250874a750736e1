from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from gridmind import EpisodeAborted, Outcome, evaluate_batch, run_episode
from gridmind.bridge import (
    HTTP,
    STDIO,
    AgentEndpoint,
    HttpBridgeAgent,
    StdioBridgeAgent,
    bridge_agent_factory,
)
from gridmind.harness import REACHABLE, AgentTransportError
from gridmind.prompts import render_instruction

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


def test_endpoint_parse():
    assert AgentEndpoint.parse("http://host:9") == AgentEndpoint(HTTP, "http://host:9")
    assert AgentEndpoint.parse("https://host/x").transport == HTTP
    ep = AgentEndpoint.parse("stdio:python3 agent.py --flag", timeout=5.0)
    assert ep == AgentEndpoint(STDIO, "python3 agent.py --flag", 5.0)
    with pytest.raises(ValueError):
        AgentEndpoint.parse("stdio:   ")
    with pytest.raises(ValueError):
        AgentEndpoint.parse("ftp://host")


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
        run_episode(ref_env, StdioBridgeAgent(f"python3 {script}", "s-1"), REACHABLE)


def test_stdio_agent_death_aborts(ref_env):
    agent = StdioBridgeAgent("python3 -c 'pass'", "s-2", timeout=5.0)
    with pytest.raises(EpisodeAborted):
        run_episode(ref_env, agent, REACHABLE)


def test_stdio_spawn_failure_aborts(ref_env):
    agent = StdioBridgeAgent("/no/such/binary --x", "s-3")
    with pytest.raises(EpisodeAborted):
        run_episode(ref_env, agent, REACHABLE)


def test_stdio_slow_first_reply_keeps_turns_paired(ref_env, tmp_path):
    # the first reply comes after one timeout; resending would pair every
    # later turn with the reply to the turn before and walk into the pit
    script = tmp_path / "stub.py"
    script.write_text(STUB)
    log = tmp_path / "requests.jsonl"
    agent = StdioBridgeAgent(f"python3 {script} {log} 1.5", "s-4", timeout=1.0)
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
        "python3 -c 'import time; time.sleep(30)'", "s-5", timeout=0.2
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
    agent = StdioBridgeAgent(f"python3 {script}", "s-6", timeout=5.0)
    started = time.monotonic()
    assert run_episode(ref_env, agent, REACHABLE).outcome is Outcome.INVALID
    assert agent._proc.returncode is not None  # killed and waited for
    while not agent._proc.stdout.closed:  # the pump closes it at end of file
        assert time.monotonic() - started < 30, "the child's stdout stayed open"
        time.sleep(0.01)
    assert time.monotonic() - started < 30


class _Server:
    """Tiny /act server scripted with a reply function."""

    def __init__(self, reply):
        outer = self
        self.requests: list[tuple[str, dict]] = []

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                obj = json.loads(body)
                outer.requests.append((self.path, obj))
                payload = reply(obj).encode()
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
    assert HttpBridgeAgent("http://h:1", "s")._url == "http://h:1/act"
    assert HttpBridgeAgent("http://h:1/", "s")._url == "http://h:1/act"
    assert HttpBridgeAgent("http://h:1/act", "s")._url == "http://h:1/act"


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
