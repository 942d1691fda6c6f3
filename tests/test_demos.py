"""Each demo script, and README's library quick tour, must run clean end
to end."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_library_quick_tour_runs(capsys):
    # the tour is the README's one example of the public API: a change to
    # that API must change the tour too
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md (Library quick tour)", "exec"), {"__name__": "__readme__"})
    assert capsys.readouterr().out.strip()
