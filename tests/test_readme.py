"""The README's examples run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from braidqp import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(after: str, lang: str = "") -> str:
    """The first fenced block with the given language tag after a heading."""
    section = README[README.index(after):]
    return re.search(rf"^```{lang}\n(.*?)^```", section, re.M | re.S).group(1)


def test_library_example_runs():
    exec(compile(_block("## Library example", "python"), "README.md", "exec"), {})


def test_command_line_examples_exit_0(capsys):
    text = _block("## Command line").replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in text.splitlines()]
    commands = [argv[1:] for argv in commands if argv and argv[0] == "braidqp"]
    assert len(commands) == 7
    for argv in commands:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()
