"""The examples of README.md run as written."""

from __future__ import annotations

import json
import pathlib
import re
import shlex

import pytest

from csaclass.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
FENCED = re.compile(r"^```(\w+)\n(.*?)^```$", re.M | re.S)


def blocks(lang: str, text: str = README) -> list[str]:
    return [body for tag, body in FENCED.findall(text) if tag == lang]


def cli_examples() -> list[tuple[list[str], dict]]:
    """(argv, report) for each line of the CLI section's sh block that ends
    in a `# {...}` comment with the JSON report of the command."""
    section = README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for line in blocks("sh", section)[0].splitlines():
        command, _, comment = line.partition("#")
        if comment.strip().startswith("{"):
            examples.append((shlex.split(command)[1:],
                             json.loads(comment)))
    return examples


PYTHON_BLOCKS = blocks("python")
CLI_EXAMPLES = cli_examples()


def test_readme_has_examples():
    assert len(PYTHON_BLOCKS) >= 1 and len(CLI_EXAMPLES) >= 1


@pytest.mark.parametrize("source", PYTHON_BLOCKS, ids=[
    f"python-block-{i}" for i in range(len(PYTHON_BLOCKS))])
def test_python_block_runs(source):
    # optimize=0 keeps the block's asserts under python -O too.
    exec(compile(source, "README.md", "exec", optimize=0), {})


@pytest.mark.parametrize("argv,report", CLI_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in CLI_EXAMPLES])
def test_cli_example_prints_its_comment(argv, report, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == report
