"""The Tier-1 workflow runs every step of tests/ci_steps.py, and only those."""

import re
from pathlib import Path

import ci_steps

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"


def test_the_workflow_runs_each_step_once():
    called = re.findall(r"tests/ci_steps\.py ([\w-]+)", WORKFLOW.read_text())
    assert sorted(called) == sorted(ci_steps.STEPS)


def test_bad_documents_step_passes(capsys):
    assert ci_steps.main(["bad-documents"]) == 0
    assert capsys.readouterr().out.endswith(" bad documents, 0 not refused by name\n")


def test_unknown_step_exits_2(capsys):
    assert ci_steps.main(["no-such-step"]) == 2
    assert capsys.readouterr().err.startswith("usage: python tests/ci_steps.py {bad-documents,")
