"""Packaging: every runtime dependency pyproject.toml declares is importable,
so `pip install -e . --no-build-isolation` needs nothing from the network;
`src/maas` imports nothing else but the standard library and itself; and
`import maas.cli` loads no HTTP client, which only a chat call needs, and
not OpenSSL's bindings, which `import hashlib` maps and nothing needs."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
# modules that only `executor._urllib_transport` needs
HTTP_MODULES = ("urllib.request", "http.client", "ssl")
# OpenSSL's bindings: `hashlib` loads them, the embedder takes blake2b from
# `_blake2` without them
OPENSSL_MODULES = ("_hashlib",)


def declared_dependencies():
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["dependencies"]


def import_name(requirement):
    """The module a requirement such as "numpy>=1.24" installs."""
    return re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).replace("-", "_")


@pytest.mark.parametrize("requirement", declared_dependencies())
def test_declared_dependency_imports(requirement):
    importlib.import_module(import_name(requirement))


def imported_modules(source):
    """The top-level name of each module that `source` imports, at any depth
    of it; a relative import names `maas`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add("maas" if node.level else node.module.split(".")[0])
    return names


def test_checker_names_each_imported_module():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from . import sampler\n"
        "from .errors import DataError\n"
        "def post():\n"
        "    import urllib.request\n"
        "    from http import client\n"
    )
    assert imported_modules(source) == {"__future__", "os", "numpy", "maas", "urllib",
                                        "http"}


def test_src_imports_only_stdlib_declared_dependencies_and_maas():
    allowed = {*sys.stdlib_module_names, "maas", *map(import_name, declared_dependencies())}
    sources = sorted((ROOT / "src" / "maas").glob("*.py"))
    assert any(p.name == "executor.py" for p in sources)
    offenders = [f"{p.name}: {name}" for p in sources
                 for name in sorted(imported_modules(p.read_text())) if name not in allowed]
    assert offenders == []


def test_importing_the_cli_loads_no_http_client():
    code = ("import sys, maas.cli\n"
            f"print(*[m for m in {HTTP_MODULES + OPENSSL_MODULES!r} if m in sys.modules])")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert proc.stdout.split() == []
