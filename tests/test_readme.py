"""The README's library example and command-line examples run against the current code."""

import re
import shlex
from pathlib import Path

import pytest

from tmscaling.cli import PROG, main

README = Path(__file__).resolve().parent.parent / "README.md"


def section_block(heading: str, lang: str) -> str:
    """The first ```lang block after ``heading``."""
    text = README.read_text()
    block = re.search(rf"```{lang}\n(.*?)```", text[text.index(heading):], re.DOTALL)
    assert block is not None
    return block.group(1)


def test_library_example_runs():
    exec(compile(section_block("## Library", "python"), "README.md", "exec"), {})


COMMANDS = [shlex.split(line, comments=True)
            for line in section_block("## Command line", "sh").splitlines() if line.strip()]


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv[1:]) for argv in COMMANDS])
def test_command_line_example_runs(capsys, argv):
    assert argv[0] == PROG
    code = main(argv[1:])
    assert (code, capsys.readouterr().err) == (0, "")
