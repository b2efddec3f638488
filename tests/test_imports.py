"""Every module of the package and of the tests reads each name it imports.

No linter is installed, so the check walks the syntax trees itself.
Package `__init__.py` files re-export what they import and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "npnmatch").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))

# imported for another module to patch, not read here: the benchmark's
# tracer wraps symmetry.apply_np_transform
PATCHED = {("symmetry.py", "apply_np_transform")}


def unread_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{line}: {name}"
        for name, line in imported.items()
        if name not in read and (path.name, name) not in PATCHED
    ]


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name != "__init__.py"],
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_every_import_is_read(path):
    assert unread_imports(path) == []
