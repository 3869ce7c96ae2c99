"""Demo scripts and the README's python blocks: each runs to completion
through the public API."""

import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
