"""The README names exactly `qdfit.__all__`, shows only commands the CLI
parses, and states the fit's stack size as `fitting.STACK_ROWS` sets it."""

import re
import shlex
from pathlib import Path

import qdfit
from qdfit import cli, fitting

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


def test_readme_states_the_stack_row_budget():
    # the method section and the Performance section each give the budget
    # and the candidates it makes a stack of the default grid at each length
    text = README.read_text(encoding="utf-8")
    grid = fitting.default_omega_grid().size
    budgets = list(re.finditer(r"candidates of (\d+)\s+design rows", text))
    assert len(budgets) == 2
    for budget in budgets:
        assert int(budget[1]) == fitting.STACK_ROWS
        sentence = re.split(r"\.\s", text[budget.end() :], maxsplit=1)[0]
        stacks = [(int(n), int(days)) for n, days in re.findall(r"(\d+)\s+at\s+(\d+)", sentence)]
        assert len(stacks) == 6
        for candidates, days in stacks:
            assert candidates == min(grid, fitting.STACK_ROWS // days), days
