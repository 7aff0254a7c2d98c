"""Every name a module of the package imports is read in that module.

``tests/mutants.py --delete`` deletes statements inside functions only, so
it never sees an import that a change has left with no reader.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rholog"


def unused_imports(source):
    """The names ``source`` imports and never reads, sorted. A name read only
    inside a string, such as a string annotation, counts as read."""
    tree = ast.parse(source)
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                text = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:  # prose, such as a docstring
                continue
            read.update(name.id for name in ast.walk(text) if isinstance(name, ast.Name))
    return sorted(imported - read)


@pytest.mark.parametrize("module", sorted(
    path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py"))
def test_every_import_is_read(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_an_import_read_only_in_a_string_annotation_counts_as_read():
    source = ("import logging\nfrom typing import Callable, Iterator\n"
              "Degree = 'Callable[[int], int]'\n")
    assert unused_imports(source) == ["Iterator", "logging"]
