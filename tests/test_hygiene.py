"""Source hygiene: no module imports a name it never reads.

pyflakes and ruff are not dependencies, so this is a small AST check over
`src/maas/*.py` (without `__init__.py`, whose imports are its exports) and
`tests/*.py`. An import line carrying `# noqa: F401` is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOQA = "# noqa: F401"


def unused_imports(source):
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a, a.asname or a.name) for a in node.names]
        else:
            continue
        for alias, name in names:
            if NOQA not in lines[alias.lineno - 1]:
                imported.append((alias.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def checked_files():
    src = [p for p in sorted((ROOT / "src" / "maas").glob("*.py"))
           if p.name != "__init__.py"]
    return src + sorted((ROOT / "tests").glob("*.py"))


def test_checker_flags_unused_imports_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "from json import dumps  # noqa: F401\n"
        "x: np.ndarray = dataclass\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "os"), (5, "field")]


def test_no_unused_imports():
    files = checked_files()
    assert any(p.name == "sampler.py" for p in files)
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files
        for line, name in unused_imports(path.read_text())
    ]
    assert offenders == []
