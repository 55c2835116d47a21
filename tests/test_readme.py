"""Every command line shown in the README parses with the real CLI parser."""

import shlex
from pathlib import Path

import pytest

from curved_nbody.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands():
    lines = []
    for line in README.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("curved-nbody "):
            lines.append(line)
    return lines


def test_readme_shows_every_subcommand():
    shown = {shlex.split(line)[1] for line in _readme_commands()}
    assert shown == {"verify", "find", "simulate", "moulton", "sweep", "fixtures"}


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])
