"""Every top-level import in the package modules is used.

No linter ships with the test extras, so this walks each module's syntax
tree with the standard library.  `__init__.py` is exempt: its imports are
the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import dissipair

MODULES = sorted(p for p in Path(dissipair.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that nothing else in `source` refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import math\nimport os\nfrom .errors import A, B\nprint(os.sep, A)\n") == [
        "line 1: math",
        "line 3: B",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
