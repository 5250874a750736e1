"""The README's "Library use" example runs as written.

So no cleanup can delete or rename a name the README advertises without
this test failing.
"""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README} (Library use)", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert float(printed[0]) > 0  # the complexity
    assert printed[1] == "Thought:"
    assert printed[-1].startswith("{'success': ")  # the rates
