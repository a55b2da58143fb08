"""docs/formats.md agrees with the code: its budget table lists every
module-level ``*_BUDGET`` constant of the package, with its value, and its
options table every option of every command."""

import ast
import importlib
import itertools
import pathlib
import re

from cat0sigma import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cat0sigma"
SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def table_rows(heading: str) -> list[str]:
    """The body rows of the first table after the line that starts with
    the heading."""
    text = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
    after = text.split(heading, 1)[1].split("\n|", 1)[1]
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), ("|" + after).splitlines()))
    return rows[2:]


def documented_budgets() -> dict:
    """{"module.NAME": value} from the rows of the budget table.  A row's
    first cell reads like "region, 8⁶ = 262144 points (`spaces.REGION_BUDGET`)";
    every number in it must give the same value."""
    out = {}
    for row in table_rows("Budgets on what the input controls:"):
        cell = row.split("|")[1]
        name = re.search(r"`(\w+\.\w+_BUDGET)`", cell).group(1)
        numbers = re.findall(r"(\d+)([⁰¹²³⁴⁵⁶⁷⁸⁹]*)", cell.replace(name, ""))
        values = {int(base) ** int(power.translate(SUPERSCRIPTS) or 1) for base, power in numbers}
        assert len(values) == 1, row
        out[name] = values.pop()
    return out


def defined_budgets() -> dict:
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"cat0sigma.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.endswith("_BUDGET"):
                        out[f"{path.stem}.{target.id}"] = getattr(module, target.id)
    return out


def test_budget_table_matches_the_budget_constants():
    assert documented_budgets() == defined_budgets() == {
        "actions.ORBIT_BUDGET": 5000,
        "raag.TIETZE_BUDGET": 10_000,
        "spaces.REGION_BUDGET": 262_144,
        "treesigma.TABLE_BUDGET": 10_000,
        "trees.DEPTH_BUDGET": 10**6,
    }


def documented_options() -> list[tuple[str, str]]:
    """(command, option) for each option and command of each row of the
    options table, whose first cell names a set of options in backticks
    and whose second the commands that take all of them."""
    out = []
    for row in table_rows("## Command-line options"):
        options, commands = row.split("|")[1:3]
        options = re.findall(r"`(--[\w-]+)`", options)
        commands = re.findall(r"`([\w-]+)`", commands)
        assert options and commands, row
        out.extend((command, option) for command in commands for option in options)
    return out


def parser_options() -> list[tuple[str, str]]:
    return [
        (name, option)
        for name, command in cli.build_parser().commands.items()
        for action in command._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    ]


def test_options_table_matches_the_parser():
    documented = documented_options()
    assert len(documented) == len(set(documented))
    assert sorted(documented) == sorted(parser_options())
    assert len(documented) == 22
