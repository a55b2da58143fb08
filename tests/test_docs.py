"""docs/formats.md agrees with the code: its budget table lists every
module-level ``*_BUDGET`` constant of the package, with its value."""

import ast
import importlib
import itertools
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cat0sigma"
SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def documented_budgets() -> dict:
    """{"module.NAME": value} from the rows of the budget table.  A row's
    first cell reads like "region, 8⁶ = 262144 points (`spaces.REGION_BUDGET`)";
    every number in it must give the same value."""
    text = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
    after = text.split("Budgets on what the input controls:", 1)[1].lstrip("\n").splitlines()
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), after))
    out = {}
    for row in rows[2:]:
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
