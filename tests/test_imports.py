"""Every name a toolkit module imports is used in that module.

``__init__.py`` is left out: it imports names to re-export them.
"""
import ast
from pathlib import Path

import pytest

import salience

PACKAGE = Path(salience.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by an import and never reads, in source order."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name for name in imported if name not in read), key=imported.get)


def test_unused_imports_finds_a_name_that_is_never_read():
    source = "from __future__ import annotations\nimport os.path\nimport sys as system\nfrom a import b, c\nb()\n"
    assert unused_imports(source) == ["os", "system", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
