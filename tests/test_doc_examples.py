"""The ```python blocks of the user-facing docs run as written.

Each document's blocks run in order in one namespace (a later block may
use names an earlier one defined), in a fresh interpreter with the disk
cache off, so an API rename that the docs did not follow fails here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "docs/api.md")

#: exec every ```python block of the file named in argv[1], in order, in
#: one namespace; tracebacks name the block by its opening line
RUNNER = r"""
import re, sys
text = open(sys.argv[1], encoding="utf-8").read()
ns = {"__name__": "__doc_example__"}
for m in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S):
    line = text.count("\n", 0, m.start()) + 1
    exec(compile(m.group(1), f"{sys.argv[1]}:{line}", "exec"), ns)
"""


@pytest.mark.parametrize("doc", DOCS)
def test_python_blocks_run(doc):
    assert "```python" in (REPO / doc).read_text(encoding="utf-8")
    env = dict(os.environ, REPRO_NO_DISK_CACHE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, doc],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
