"""The README names exactly `qdfit.__all__` and shows only commands the CLI parses."""

import re
import shlex
from pathlib import Path

import qdfit
from qdfit import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_export_list_matches_all():
    text = README.read_text(encoding="utf-8")
    start = text.index("The package root exports")
    sentence = re.split(r"\.\s", text[start:], maxsplit=1)[0]
    listed = re.findall(r"`(\w+)`", sentence)
    assert sorted(listed) == sorted(qdfit.__all__)


def test_readme_cli_examples_parse():
    text = README.read_text(encoding="utf-8")
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in re.findall(r"```sh\n(.*?)```", text, re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("qdfit ")
    ]
    assert commands
    for argv in commands:
        cli.build_parser().parse_args(argv)  # a usage error exits 2
