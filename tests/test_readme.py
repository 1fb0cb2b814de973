"""README's library examples and the package root name the same surface."""

import ast
import os
import re

import sleepstager

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_root_imports() -> set[str]:
    """Every name a ``from sleepstager import ...`` line in README's Python blocks imports."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    return {
        alias.name
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "sleepstager"
        for alias in node.names
    }


def test_readme_imports_are_root_exports():
    names = readme_root_imports()
    assert "cross_validate" in names and "save_model" in names
    assert names <= set(sleepstager.__all__)
    assert all(hasattr(sleepstager, name) for name in names)


def test_root_exports_only_what_readme_imports():
    # plus load_model, the inverse of the documented save_model
    assert set(sleepstager.__all__) == readme_root_imports() | {"load_model"}
    assert len(sleepstager.__all__) == len(set(sleepstager.__all__))
