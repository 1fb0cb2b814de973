"""Every name a module of the package imports, ``__future__`` aside, is
read somewhere in that module: an import nothing reads is dead code."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "sleepstager")


def unread_imports(source: str) -> list[str]:
    """The names ``source`` imports, ``__future__``'s aside, that it never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


def test_the_check_finds_an_unread_name():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd()\n"
    assert unread_imports(source) == ["b", "os"]


@pytest.mark.parametrize("module", sorted(n for n in os.listdir(SRC) if n.endswith(".py")))
def test_every_imported_name_is_read(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unread_imports(fh.read()) == []
