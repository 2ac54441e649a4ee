"""Source hygiene: every module-level import of the package is used."""
import ast
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
