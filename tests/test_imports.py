"""Every name a src/lisopt module imports is used there, exported, or marked as kept on purpose.

No linter runs on the package, so this stands in for an unused-import check
(pyflakes' F401): a name counts as used when the module reads it, when
lisopt/__init__.py lists it in __all__, or when its import statement carries
``# noqa: F401``.
"""

import ast
import importlib
from pathlib import Path

import pytest

SOURCE = Path(importlib.import_module("lisopt").__file__).parent


def unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = importlib.import_module("lisopt").__all__ if path.stem == "__init__" else ()
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and name not in exported:
                unused.append(name)
    return unused


@pytest.mark.parametrize("module", sorted(path.stem for path in SOURCE.glob("*.py")))
def test_every_import_is_used(module):
    assert unused_imports(SOURCE / f"{module}.py") == [], \
        f"lisopt/{module}.py imports names it never uses"
