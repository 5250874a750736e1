"""Depth-first gridworld agent for the stdio bridge, standard library only.

Reads one JSON request per line on stdin and answers ``{"text": <move>}``.
It sees only the last human message of the transcript, as an external model
would, and explores like ``gridmind.harness.DfsAgent``: a uniformly chosen
unvisited neighbour when there is one, otherwise one step back. Its choices
come from ``random.Random`` seeded with the command-line seed and the
session id, so a run is reproducible. An ``end`` notification stops it.
With a LOG path it then appends the number of requests it read and their
size in bytes, newlines included, to that file as one line.

Usage: python3 dfs_agent.py SEED [LOG]
"""

import json
import random
import sys

INVERSE = {"up": "down", "down": "up", "left": "right", "right": "left"}


def parse_position(line):
    x, y = line.strip("()").split(", ")
    return int(x), int(y)


def observation(text):
    """(current cell, [(move, destination), ...]) from an observation turn."""
    lines = text.split("\n")
    lines = lines[len(lines) - 1 - lines[::-1].index("Current:"):]
    moves = [(lines[i + 1], parse_position(lines[i])) for i in range(3, len(lines), 2)]
    return parse_position(lines[1]), moves


def main(seed, log=None):
    rng = None
    visited = set()
    undo = []
    requests = request_bytes = 0
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("type") == "end":
            break
        requests += 1
        request_bytes += len(line.encode())
        if rng is None:
            rng = random.Random(f"{seed}:{request['session']}")
        current, moves = observation(request["messages"][-1]["text"])
        visited.add(current)
        fresh = [(m, d) for m, d in moves if d not in visited]
        if fresh:
            move, dest = fresh[rng.randrange(len(fresh))]
            visited.add(dest)
            undo.append(INVERSE[move])
        elif undo:
            move = undo.pop()
        else:
            move = moves[0][0] if moves else "up"
        sys.stdout.write(json.dumps({"text": move}) + "\n")
        sys.stdout.flush()
    if log is not None:
        with open(log, "a") as fh:
            fh.write(f"{requests} {request_bytes}\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2] if len(sys.argv) > 2 else None)
