"""The interpreter boundary: every installed CPython >= 3.10 writes the same
bytes as the one running the tests.

``interpreter_digests.py`` runs under each interpreter found as ``python3.N``
on PATH or under pyenv's ``~/.pyenv/versions/*/bin/python``. One that is
absent, or that does not start, is left out.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
SCRIPT = TESTS_DIR / "interpreter_digests.py"
SRC_DIR = TESTS_DIR.parent / "src"
VERSION = "import sys; print(sys.implementation.name, *sys.version_info[:3])"


def other_interpreters() -> dict[str, str]:
    """One executable per CPython version >= 3.10 that starts, keyed by its
    version, the running interpreter's version left out."""
    candidates = [Path(d) / f"python3.{minor}"
                  for d in os.environ.get("PATH", "").split(os.pathsep) if d
                  for minor in range(10, 20)]
    candidates += sorted((Path.home() / ".pyenv" / "versions").glob("*/bin/python"))
    running = ".".join(map(str, sys.version_info[:3]))
    found: dict[str, str] = {}
    for exe in candidates:
        if not (exe.is_file() and os.access(exe, os.X_OK)):
            continue
        try:
            probe = subprocess.run([str(exe), "-I", "-c", VERSION], capture_output=True,
                                   text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        name, *version = probe.stdout.split() or [""]
        if probe.returncode != 0 or name != "cpython" or tuple(map(int, version[:2])) < (3, 10):
            continue
        found.setdefault(".".join(version), str(exe))
    found.pop(running, None)
    return found


def digests(python: str, out: Path) -> dict:
    run = subprocess.run([python, "-I", "-B", str(SCRIPT), str(SRC_DIR), str(out)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_every_other_interpreter_writes_the_same_bytes(tmp_path):
    others = other_interpreters()
    if not others:
        pytest.skip("no other CPython >= 3.10 starts here")
    expected = digests(sys.executable, tmp_path / "running")
    assert expected["verify"] == []
    for version, python in sorted(others.items()):
        assert digests(python, tmp_path / version) == expected, f"{python} ({version})"
