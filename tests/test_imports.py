"""Every top-level import in the package modules is used, every private top-level name is read, and every
exception type is named outside `errors.py`; README.md names only exception types that exist.

No linter ships with the test extras, so this walks each module's syntax
tree with the standard library.  `__init__.py` is exempt: its imports are
the package's re-exports.  A private name (`_function`, `_Class`,
`_CONSTANT`) that its own module never reads is dead code: nothing else
should reach for it.  So is an exception class that only `errors.py` and
its exit-code groups name: no module raises or catches it.
"""

import ast
import builtins
import re
from pathlib import Path

import pytest

import dissipair
from dissipair import errors

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


def unread_private_names(source: str) -> list[str]:
    """Private names bound at the top level of `source` (by def, class or assignment) that nothing in it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [leaf.id for target in targets for leaf in ast.walk(target) if isinstance(leaf, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_checker_flags_an_unused_import():
    assert unused_imports("import math\nimport os\nfrom .errors import A, B\nprint(os.sep, A)\n") == [
        "line 1: math",
        "line 3: B",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unread_private_name():
    source = (
        "_USED = 1\n_UNUSED = 2\n_A, (_B, _C) = 1, (2, 3)\n__all__ = []\n"
        "def _helper():\n    return _USED + _B\n"
        "class _Spare:\n    _field = 0\n"
        "def public():\n    _local = _helper()\n    return _local\n"
    )
    assert unread_private_names(source) == ["line 2: _UNUSED", "line 3: _A", "line 3: _C", "line 7: _Spare"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def unnamed_exceptions(errors_source: str, other_sources: list[str]) -> list[str]:
    """Top-level classes of `errors_source` that no module of `other_sources` names, bare or as an attribute."""
    defined = [node.name for node in ast.parse(errors_source).body if isinstance(node, ast.ClassDef)]
    named = set()
    for source in other_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return [name for name in defined if name not in named]


def test_checker_flags_an_unnamed_exception():
    errors = "class A(Exception):\n    pass\nclass B(A):\n    pass\nclass C(A):\n    pass\nGROUP = (A, B, C)\n"
    assert unnamed_exceptions(errors, ["from .errors import A\nraise A()\n", "import errors\nerrors.C\n"]) == ["B"]


def test_every_exception_type_is_named_in_another_module():
    errors = next(path for path in MODULES if path.name == "errors.py")
    others = [path.read_text(encoding="utf-8") for path in MODULES if path != errors]
    assert unnamed_exceptions(errors.read_text(encoding="utf-8"), others) == []


def test_readme_names_only_exception_types_that_exist():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"\b\w+Error\b", readme))
    assert named, "README names no exception type"
    known = {name for name in named if name == "LinAlgError" or any(
        isinstance(getattr(module, name, None), type) and issubclass(getattr(module, name), BaseException)
        for module in (errors, builtins))}
    assert sorted(named - known) == []
