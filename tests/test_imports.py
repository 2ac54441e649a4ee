"""Source hygiene: every module-level import of the package is used, every
module-level private name is read somewhere in the package, and the package
runs without scipy."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "p300loop"


def unused_imports(source: str) -> list[str]:
    """'name (line n)' of each name a module-level import binds and the
    module never reads; `from __future__` imports are directives."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """'module: name' of each private (`_x`, not dunder) function, class or
    constant a module defines at module level and no module of `sources`
    reads, by name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif (isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)):
                names = [node.target.id]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}: {name}" for module, name in defined
                  if name not in read)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_flags_unused_imports():
    assert (PACKAGE / "__init__.py").is_file()  # else nothing is checked
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom x import a, b\n"
              "print(a, np.pi)\n")
    assert unused_imports(source) == ["b (line 4)", "os (line 2)"]


def test_no_unread_module_level_private_name():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_guard_flags_unread_private_names():
    sources = {
        "a.py": ("_LIMIT = 3\n_unused: int = 4\n"
                 "def _helper():\n    return _LIMIT\n"
                 "def _orphan():\n    return 1\n"
                 "class _Dead:\n    pass\n"
                 "def public():\n    return _helper()\n"
                 "__all__ = ['public']\n"),
        "b.py": ("from . import a\n_seen = a._from_b\n"
                 "def _from_b():\n    return 2\n"
                 "print(_seen)\n"),
    }
    assert unread_private_names(sources) == [
        "a.py: _Dead", "a.py: _orphan", "a.py: _unused"]


# imports every module, then simulates, trains and cross-validates a
# two-session record; prints the scipy modules loaded
_TRAIN_IN_A_FRESH_PROCESS = """
import importlib, pkgutil, sys
import numpy as np
import p300loop
from p300loop import features, scheduler, session, subject
for module in pkgutil.iter_modules(p300loop.__path__):
    importlib.import_module("p300loop." + module.name)
timing = scheduler.TimingConfig(sessions_per_scenario=2)
rng = np.random.default_rng(0)
schedule = scheduler.build_scenario_schedule(timing, rng=rng)
record = subject.simulate_subject(schedule, subject.SubjectParams(seed=0))
pipeline = features.PipelineConfig()
dataset = features.dataset_from_scenario(record, pipeline)
session.train_on_dataset(dataset, pipeline)
print(session.cross_validated_auc(dataset, pipeline))
print(sorted(name for name in sys.modules
             if name == "scipy" or name.startswith("scipy.")))
"""


def test_package_runs_without_scipy_signal_or_stats():
    # a fresh interpreter: the test modules import scipy as a reference
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _TRAIN_IN_A_FRESH_PROCESS],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    auc, loaded = result.stdout.splitlines()
    assert 0.5 < float(auc) <= 1.0
    assert loaded == "[]"
