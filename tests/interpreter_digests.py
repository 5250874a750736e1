"""Print, as one JSON object, the SHA-256 of everything gridmind writes for a
fixed set of inputs: a small dataset (two shards and its stats sidecar), the
spec lines ``test_generator_bytes_are_pinned`` hashes, and what ``verify``
reports on the dataset. Standard library only, so any CPython >= 3.10 can run
it without pytest::

    python -I -B tests/interpreter_digests.py <src dir> <empty output dir>
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])

from gridmind.cogmap import CotVariant  # noqa: E402
from gridmind.dataset import generate_dataset, verify_dataset  # noqa: E402
from gridmind.generate import TEST_PARAMS, TRAIN_PARAMS, generate_indexed  # noqa: E402

out = Path(sys.argv[2])
digests = {}
for path in generate_dataset(out, "test", CotVariant.from_name("fwd-full-marked-bt"), 30,
                             seed=7, shards=2):
    digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
for split, params in (("train", TRAIN_PARAMS), ("test", TEST_PARAMS)):
    digest = hashlib.sha256()
    for index in range(200):
        spec = generate_indexed(params, index).to_json_dict()
        digest.update(json.dumps(spec, separators=(",", ":")).encode() + b"\n")
    digests[f"{split} specs"] = digest.hexdigest()
violations = verify_dataset(out).violations
digests["verify"] = [f"{Path(v.file).name}:{v.line}: {v.message}" for v in violations]
print(json.dumps(digests, sort_keys=True))
