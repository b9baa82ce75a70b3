"""Every python block of README.md and PAPER.md runs, each in a fresh
namespace, and every `pumc ...` line of their other fenced blocks parses."""

import re
import shlex
from pathlib import Path

import pytest

from pumc.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
FENCE = re.compile(r"^```(\w*)\n(.*?)(?:^```|\Z)", re.S | re.M)  # an unclosed fence runs to the end
FENCED = {doc: FENCE.findall((ROOT / doc).read_text()) for doc in ("README.md", "PAPER.md")}
BLOCKS = [(doc, k, code) for doc, fences in FENCED.items()
          for k, code in enumerate(code for lang, code in fences if lang == "python")]
COMMANDS = [(doc, line) for doc, fences in FENCED.items() for lang, block in fences if lang != "python"
            for line in block.splitlines() if line.startswith("pumc ")]


def test_the_docs_hold_python_blocks():
    assert {doc for doc, _, _ in BLOCKS} == {"README.md", "PAPER.md"}


@pytest.mark.parametrize("doc,k,code", BLOCKS, ids=[f"{doc}-{k}" for doc, k, _ in BLOCKS])
def test_doc_block_runs(doc, k, code):
    exec(compile(code, f"{doc} block {k}", "exec"), {})


def test_the_docs_hold_commands():
    assert {doc for doc, _ in COMMANDS} == {"README.md", "PAPER.md"}


@pytest.mark.parametrize("doc,line", COMMANDS, ids=[f"{doc}-{k}" for k, (doc, _) in enumerate(COMMANDS)])
def test_doc_command_parses(doc, line):
    """A dropped flag or choice makes argparse exit 2 here."""
    build_parser().parse_args(shlex.split(line)[1:])
