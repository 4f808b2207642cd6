"""Packaging: every runtime dependency pyproject.toml declares is importable,
so `pip install -e . --no-build-isolation` needs nothing from the network."""

import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def declared_dependencies():
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["dependencies"]


@pytest.mark.parametrize("requirement", declared_dependencies())
def test_declared_dependency_imports(requirement):
    name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
    importlib.import_module(name.replace("-", "_"))
