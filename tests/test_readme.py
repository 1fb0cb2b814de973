"""README's library examples and the package root name the same surface, and
the number forms its data layout lists load or are refused as it says."""

import ast
import os
import re

import numpy as np

import sleepstager
from sleepstager import cli
from sleepstager.ingest import load_heart_rate_csv

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


def readme_number_forms(verdict: str) -> list[str]:
    """The backticked forms on README's ``- <verdict> numbers:`` line."""
    with open(README, encoding="utf-8") as fh:
        line = re.search(rf"^- {verdict} numbers: (.*)$", fh.read(), flags=re.M).group(1)
    return re.findall(r"`([^`]+)`", line)


def test_readme_number_forms(tmp_path, capsys):
    accepted, refused = readme_number_forms("accepted"), readme_number_forms("refused")
    assert "nan" in accepted and "6_1.5" in refused
    night = str(tmp_path)
    assert cli.main(["synth", night, "--recordings", "1", "--epochs", "1"]) == 0
    hr = os.path.join(night, "s00_hr.csv")
    with open(hr) as fh:
        header, first, *rest = fh.read().splitlines()
    t = first.split(",")[0]
    for form in accepted + refused:
        with open(hr, "w") as fh:
            fh.write("\n".join([header, f"{t},{form}", *rest]) + "\n")
        capsys.readouterr()
        if form in accepted:
            bpm = load_heart_rate_csv(hr).bpm[0]
            assert bpm.tobytes() == np.float64(float(form)).tobytes(), form
        else:
            assert cli.main(["validate", night]) == 2, form
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {hr}: ") and "at row 0, column 2" in err, err
