"""Print, as one JSON object, the SHA-256 of everything gridmind writes for a
fixed set of inputs: a small dataset (two shards and its stats sidecar), the
spec lines ``test_generator_bytes_are_pinned`` hashes, what ``verify``
reports on the dataset, the seeding at roots and indices of one to five
32-bit words, the stats sidecar of a report with no records, the line of a
hand-built record, the reachable eval reports of the scripted agents, and
the bytes the stdio bridge writes over one recorded episode.
Standard library only, with ``oracles`` beside it, so any CPython >= 3.10
can run it without pytest::

    python -I -B tests/interpreter_digests.py <src dir> <empty output dir>
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path[:0] = [sys.argv[1], str(Path(__file__).resolve().parent)]

from gridmind.bridge import StdioBridgeAgent  # noqa: E402
from gridmind.cogmap import CotVariant  # noqa: E402
from gridmind.dataset import generate_dataset, record_for, verify_dataset  # noqa: E402
from gridmind.generate import (TEST_PARAMS, TRAIN_PARAMS, Pcg64Stream, derive_seed,  # noqa: E402
                               generate_indexed)
from gridmind.grid import GridSpec  # noqa: E402
from gridmind.harness import (REACHABLE, DfsAgent, evaluate_batch, run_episode,  # noqa: E402
                              scripted_agent_factory)
from gridmind.stats import StatsReport, sidecar_text  # noqa: E402
from oracles import spec_line  # noqa: E402

out = Path(sys.argv[2])
digests = {}
for path in generate_dataset(out, "test", CotVariant.from_name("fwd-full-marked-bt"), 30,
                             seed=7, shards=2):
    digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
for split, params in (("train", TRAIN_PARAMS), ("test", TEST_PARAMS)):
    digest = hashlib.sha256()
    for index in range(200):
        digest.update(spec_line(generate_indexed(params, index)).encode() + b"\n")
    digests[f"{split} specs"] = digest.hexdigest()
# seeds of one to five words, where zero padding stops and absorption starts:
# the dataset above seeds with one or two, and numpy, the stream's oracle,
# need not import here
edges = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 96, 2 ** 128 - 1, 2 ** 128)
seeding = [derive_seed(root, index) for root in edges for index in edges]
for seed in edges:
    stream = Pcg64Stream(seed)
    seeding += [stream._raw(), stream._raw()]
digests["seeding"] = hashlib.sha256(json.dumps(seeding).encode()).hexdigest()
# the empty report's sidecar: json's nulls and empty object, spelt by the template
digests["empty sidecar"] = hashlib.sha256(sidecar_text(StatsReport()).encode()).hexdigest()
# a hand-built record, with no seed, no pits and a complexity of 3 ln 2:
# the record line's template spells null, an empty list and a float's repr
corridor = GridSpec(0, 0, 3, 2, (0, 0), (2, 0), walls=frozenset({(1, 0)}))
line = record_for(corridor, 0, "train", CotVariant.from_name("bwd-full-marked-bt")).to_json_line()
digests["hand-built record"] = hashlib.sha256(line.encode()).hexdigest()
# the scripted agents' reachable reports, whose rates are floats
specs = [generate_indexed(TEST_PARAMS, index) for index in range(20)]
for agent in ("dfs", "random", "oracle"):
    report = evaluate_batch(specs, scripted_agent_factory(agent, REACHABLE), REACHABLE, seed=5)
    blob = json.dumps(report.to_json_dict(), sort_keys=True).encode()
    digests[f"eval {agent}"] = hashlib.sha256(blob).hexdigest()
# every request of the dfs episode of test spec 0 at seed 5, and its end
# notice, as the stdio bridge writes them to a child that replays the
# episode's replies and logs each line it reads
REPLAY = r"""
import json, sys
replies = iter(json.loads(sys.argv[1]))
with open(sys.argv[2], "wb") as log:
    for line in sys.stdin.buffer:
        log.write(line)
        reply = next(replies, None)
        if reply is None:
            break
        sys.stdout.write(json.dumps({"text": reply}) + "\n")
        sys.stdout.flush()
"""
episode = run_episode(specs[0], DfsAgent(derive_seed(5, 0)), REACHABLE)
replies = json.dumps([turn.text for turn in episode.transcript[3::2]])  # after the opening
wire = out / "bridge-requests.log"  # not a shard or a sidecar, so verify passes it by
bridge = StdioBridgeAgent([sys.executable, "-I", "-c", REPLAY, replies, str(wire)], "ep-0")
assert run_episode(specs[0], bridge, REACHABLE).transcript == episode.transcript
digests["bridge requests"] = hashlib.sha256(wire.read_bytes()).hexdigest()
violations = verify_dataset(out).violations
digests["verify"] = [f"{Path(v.file).name}:{v.line}: {v.message}" for v in violations]
print(json.dumps(digests, sort_keys=True))
