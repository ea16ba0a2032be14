"""README's examples: every python block runs, every vnom command line parses."""

import re
import shlex
from pathlib import Path

import pytest

from vnom.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def code_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.S | re.M)


def command_lines():
    """Every line of an sh block that runs vnom, continuation lines joined."""
    return [line.strip() for block in code_blocks("sh")
            for line in block.replace("\\\n", " ").splitlines()
            if line.strip().startswith("vnom ")]


def test_readme_holds_examples():
    assert code_blocks("python") and command_lines()


def test_python_blocks_run(capsys):
    namespace = {}  # shared: a later block may use an earlier block's names
    for block in code_blocks("python"):
        exec(compile(block, "README.md", "exec"), namespace)


@pytest.mark.parametrize("line", command_lines(), ids=lambda line: line.split()[1])
def test_command_lines_parse(line):
    try:
        build_parser().parse_args(shlex.split(line)[1:])
    except SystemExit as exc:
        pytest.fail(f"README command does not parse (exit {exc.code}): {line}")
