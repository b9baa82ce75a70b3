"""Every python block of README.md and PAPER.md runs, each in a fresh namespace."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
BLOCKS = [(doc, k, code) for doc in ("README.md", "PAPER.md")
          for k, code in enumerate(BLOCK.findall((ROOT / doc).read_text()))]


def test_the_docs_hold_python_blocks():
    assert {doc for doc, _, _ in BLOCKS} == {"README.md", "PAPER.md"}


@pytest.mark.parametrize("doc,k,code", BLOCKS, ids=[f"{doc}-{k}" for doc, k, _ in BLOCKS])
def test_doc_block_runs(doc, k, code):
    exec(compile(code, f"{doc} block {k}", "exec"), {})
