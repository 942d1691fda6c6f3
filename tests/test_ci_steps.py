"""The Tier-1 workflow runs every step of tests/ci_steps.py, and only
those; and no check in the package rests on an assert."""

import ast
import re
from pathlib import Path

import ci_steps

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_the_workflow_runs_each_step_once():
    called = re.findall(r"tests/ci_steps\.py ([\w-]+)", WORKFLOW.read_text())
    assert sorted(called) == sorted(ci_steps.STEPS)


def test_bad_documents_step_passes(capsys):
    assert ci_steps.main(["bad-documents"]) == 0
    assert capsys.readouterr().out.endswith(" bad documents, 0 not refused by name\n")


def test_wire_bodies_step_passes(capsys):
    assert ci_steps.main(["wire-bodies"]) == 0
    assert re.fullmatch(r"largest body \d+ bytes, 0 wire replies differ\n", capsys.readouterr().out)


def test_fill_classes_step_passes(capsys):
    assert ci_steps.main(["fill-classes"]) == 0
    printed = capsys.readouterr().out
    assert re.fullmatch(r"5000 class sets, 0 not solved as the oracle solves them \(\d+\.\d s\)\n", printed)


def test_unknown_step_exits_2(capsys):
    assert ci_steps.main(["no-such-step"]) == 2
    assert capsys.readouterr().err.startswith("usage: python tests/ci_steps.py {bad-documents,")


def test_no_package_check_is_stripped_by_python_O():
    # python -O drops every assert and every `if __debug__:` block, so an
    # invariant checked that way goes unchecked under it
    found = []
    for path in sorted((ROOT / "src" / "sdnlb").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
