"""Smoke test: every script in demos/ and every python code block of
README.md runs to its end in-process."""
import contextlib
import io
import re
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```",
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           re.MULTILINE | re.DOTALL)

# Arguments that keep the slower demos short.
_ARGV = {
    "amplitude_sweep": ["--seeds", "0", "--reps", "1", "--amplitudes", "12"],
}


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_runs_to_the_end(name, monkeypatch):
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *_ARGV.get(name, [])])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert out.getvalue().strip()


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_python_block_runs(index):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(README_BLOCKS[index], f"README.md block {index}", "exec"),
             {"__name__": "__main__"})
    assert out.getvalue().strip()
