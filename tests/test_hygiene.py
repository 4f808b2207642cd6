"""Repository hygiene.

- No module imports a name it never reads. pyflakes and ruff are not
  dependencies, so this is a small AST check over `src/maas/*.py` (without
  `__init__.py`, whose imports are its exports) and `tests/*.py`. An import
  line carrying `# noqa: F401` is exempt.
- The files under `data/` are what `maas.datagen` writes today.
- Every function `perfbench/tracer.py` wraps still exists where it looks
  it up, so a rename in `src/` fails here rather than in a traced run.
- Every field of a `@dataclass` in `src/maas` is read as an attribute
  somewhere in `src/maas` or `perfbench/`, so no object carries state that
  nothing reads. Fields are matched by name, whatever the object.
"""

import ast
import importlib
from pathlib import Path

from maas import datagen

ROOT = Path(__file__).resolve().parent.parent
NOQA = "# noqa: F401"
# dataclass fields that nothing in src/maas or perfbench/ reads, and why
UNREAD_FIELDS_KEPT = {
    "ScoreVector.logits": "the tests pin it as the forward pass's oracle",
    "OperatorPatch.rationale": "ROADMAP item 5 stores patch rationales",
}


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


def is_dataclass_decorator(node):
    func = node.func if isinstance(node, ast.Call) else node
    return (isinstance(func, ast.Name) and func.id == "dataclass") or (
        isinstance(func, ast.Attribute) and func.attr == "dataclass")


def unread_fields(defining, reading):
    """`Class.field` of each annotated field of a `@dataclass` class in the
    `defining` sources that no source in `reading` loads as an attribute."""
    read = {node.attr for source in reading for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [
        f"{cls.name}.{stmt.target.id}"
        for source in defining
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        and any(is_dataclass_decorator(d) for d in cls.decorator_list)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in read
    ]


def test_checker_flags_unread_dataclass_fields():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    read: int\n"
        "    written: int = 0\n"
        "@dataclasses.dataclass\n"
        "class B:\n"
        "    unread: str\n"
        "class Plain:\n"
        "    ignored: int\n"
        "def f(a):\n"
        "    a.written = a.read\n"
    )
    assert unread_fields([source], [source]) == ["A.written", "B.unread"]
    assert unread_fields([source], [source, "x.unread\n"]) == ["A.written"]


def test_every_dataclass_field_is_read():
    src = sorted((ROOT / "src" / "maas").glob("*.py"))
    readers = src + sorted((ROOT / "perfbench").glob("*.py"))
    unread = unread_fields([p.read_text() for p in src],
                           [p.read_text() for p in readers])
    assert [name for name in unread if name not in UNREAD_FIELDS_KEPT] == []
    # a kept field that something now reads must leave UNREAD_FIELDS_KEPT too
    assert [name for name in UNREAD_FIELDS_KEPT if name not in unread] == []


SHIPPED = ("synthetic_mix.jsonl", "synthetic_profiles.json", "sabotaged_profiles.json")


def test_shipped_data_is_what_datagen_writes(tmp_path):
    datagen.write_shipped_files(tmp_path)
    for name in SHIPPED:
        assert (tmp_path / name).read_bytes() == (ROOT / "data" / name).read_bytes(), name


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer")
    places = [(span, owner, attr) for span, where in tracer.TARGETS.items()
              for owner, attr in where]
    assert places
    missing = [f"{span}: {getattr(owner, '__name__', owner)}.{attr}"
               for span, owner, attr in places
               if not callable(getattr(owner, attr, None))]
    assert missing == []
