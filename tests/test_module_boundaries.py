"""No ncg module imports another's private (underscore) names: a name one
module needs from another is part of that module's public surface."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ncg").glob("*.py"))


def private_imports(path: Path):
    """(module, name) for every underscore name imported from ncg."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "ncg":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not name.startswith("__"):
                out.append((module, name))
    return out


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_imports_across_modules(path):
    assert private_imports(path) == []


def test_the_check_sees_a_private_import(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("from .forms import NCForm, _delta_generators\n"
                      "from ncg.chern import _hidden\n"
                      "from . import __version__\n"
                      "from os import _exit\n")
    assert private_imports(source) == [("forms", "_delta_generators"),
                                       ("ncg.chern", "_hidden")]
