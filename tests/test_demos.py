"""Smoke test: every script in demos/ runs to its end in-process."""
import contextlib
import io
import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

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
