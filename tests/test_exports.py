"""The package's export list: `mzbw.__all__` names each public name that
`mzbw/__init__.py` imports, once, and nothing that was removed."""

import ast
from pathlib import Path

import pytest

import mzbw

REMOVED = ["Observables", "fidelity", "internal_kinetic_density", "observables"]


def imported_public_names() -> list[str]:
    tree = ast.parse(Path(mzbw.__file__).read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]


def test_every_export_resolves_and_appears_once():
    assert len(set(mzbw.__all__)) == len(mzbw.__all__)
    for name in mzbw.__all__:
        assert getattr(mzbw, name) is not None


def test_exports_are_the_imported_public_names():
    assert sorted(mzbw.__all__) == sorted(imported_public_names())


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_stay_removed(name):
    assert name not in mzbw.__all__
    assert not hasattr(mzbw, name)
