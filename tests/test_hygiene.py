"""Repository hygiene.

- No module imports a name it never reads. pyflakes and ruff are not
  dependencies, so this is a small AST check over `src/maas/*.py` and
  `tests/*.py`; `maas/__init__.py` is checked too, so it re-exports
  nothing. An import line carrying `# noqa: F401` is exempt.
- The files under `data/` are what `maas.datagen` writes today.
- Every function `perfbench/tracer.py` wraps still exists where it looks
  it up, so a rename in `src/` fails here rather than in a traced run.
- perfbench's `TrainMix` builds its trainer as `Trainer.start` does, so
  the benchmark measures the program's own set-up of a run.
- Every field of a `@dataclass` in `src/maas` is read as an attribute
  somewhere in `src/maas` or `perfbench/`, so no object carries state that
  nothing reads. Fields are matched by name, whatever the object.
- Every defaulted parameter of a function or method in `src/maas` is passed,
  by keyword or by position, by some call in `src/maas` or `perfbench/`, so
  no parameter keeps a value that no caller changes. Callees are matched by
  name.
- Every class `src/maas/errors.py` defines is named by some `except` clause
  in `src/maas`, alone or in a tuple, so no error class exists that the
  program never tells apart from the others.
- No function in `src/maas` calls a `.validate()` method but
  `TrainConfig.__post_init__`: a class whose values come from outside checks
  them in its own `__post_init__`, so no caller has to remember to.
- Every function and class in `src/maas` is named in `src/maas` outside its
  own body, so nothing lives on only for the tests or only for itself.
  Names are matched by name. Dunders and `@main.command` functions are
  left out, and a public name also passes when `perfbench/` names it (as a
  name, an attribute or a tracer target's string), since the benchmark
  runs it.
- No module but `src/maas/controller.py` assigns to an attribute named `W1`,
  `b1`, `W2` or `b2`, by `=`, an augmented assignment, `del` or `setattr`.
  A layer's arrays are views of its state's flat `params`, so an array
  bound in their place anywhere else would drop out of every update.
- Every `open(...)` in `src/maas` in text mode passes `encoding="utf-8"`,
  so a file reads and writes the same under any locale.
- No module in `src/maas` but `checkpoint.py` imports `base64` or holds a
  string that spells `"format_version"`, so the checkpoint file format is
  written and read in one module.
- No module under `tests/` imports a test module: what two of them share
  lives in `tests/helpers.py` and `tests/conftest.py`.
- `perfbench/refspeed.py`, the reference kernel every timing is scaled by,
  imports no `maas` module, directly or through a module beside it, so a
  change to the program cannot move the scale it is measured on.
"""

import ast
import importlib
from pathlib import Path

from maas import datagen
from maas.datagen import default_env
from maas.optimizer import TrainConfig, Trainer
from tests.helpers import registry_json

ROOT = Path(__file__).resolve().parent.parent
NOQA = "# noqa: F401"
# dataclass fields that nothing in src/maas or perfbench/ reads, and why
UNREAD_FIELDS_KEPT = {
    "OperatorPatch.rationale": "ROADMAP item 5 stores patch rationales",
}
# defaulted parameters that no call in src/maas or perfbench/ passes, and why
DEFAULTS_KEPT = {
    "make_mixed_dataset.n_easy": "tests build smaller mixes",
    "make_mixed_dataset.n_hard": "tests build smaller mixes",
    "Trainer.start.mutator": ("perfbench's SelfEditLive passes a stub-backed LLMMutator"
                              " once it builds its trainer through start; tests pass"
                              " proposers until then"),
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
    return [*sorted((ROOT / "src" / "maas").glob("*.py")),
            *sorted((ROOT / "tests").glob("*.py"))]


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
    assert ROOT / "src" / "maas" / "__init__.py" in files
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


def is_named(node, name):
    return isinstance(node, ast.Name) and node.id == name


def calls_by_callee(sources):
    """Callee name -> the calls to it: `f(...)` and `x.f(...)` call `f`, and
    `cls(...)` inside a classmethod calls the method's class."""
    calls = {}
    for tree in map(ast.parse, sources):
        owner = {
            id(node): cls.name
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
            and any(is_named(d, "classmethod") for d in fn.decorator_list)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and is_named(node.func, "cls")
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = owner.get(id(node)) or getattr(
                    node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def passes(call, name, position):
    """Whether `call` passes parameter `name`, at `position` among the
    positional arguments (None for keyword-only)."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def unset_defaults(defining, calling):
    """`function.parameter` (`Class.parameter` for `__init__`) of each
    defaulted parameter of a module-level function or method in the
    `defining` sources that no call in the `calling` sources passes. A
    class's name calls its `__init__`."""
    calls = calls_by_callee(calling)
    unset = []
    for tree in map(ast.parse, defining):
        defs = [(None, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        defs += [(cls.name, fn) for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)]
        for owner, fn in defs:
            args = fn.args
            positional = args.posonlyargs + args.args
            bound = owner is not None  # a method's self or cls is not passed
            first = len(positional) - len(args.defaults)
            params = [(p.arg, i - bound) for i, p in enumerate(positional) if i >= first]
            params += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None]
            init = fn.name == "__init__"
            callee = owner if init else fn.name
            label = owner if init else ".".join(filter(None, (owner, fn.name)))
            unset += [f"{label}.{name}" for name, position in params
                      if not any(passes(c, name, position) for c in calls.get(callee, ()))]
    return unset


def test_checker_flags_defaults_no_call_passes():
    source = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    pass\n"
        "class C:\n"
        "    def __init__(self, x, y=0, z=0):\n"
        "        pass\n"
        "    @classmethod\n"
        "    def make(cls, w=0):\n"
        "        return cls(1, 2)\n"
        "    def m(self, v=0):\n"
        "        pass\n"
        "f(0, 5, e=6)\n"
        "C.make(w=1)\n"
    )
    assert unset_defaults([source], [source]) == ["f.c", "f.d", "C.z", "C.m.v"]
    assert unset_defaults([source], [source, "o.m(1)\nf(*xs, **kw)\nC(*xs)\n"]) == []


def test_every_default_is_passed_by_some_call():
    src = sorted((ROOT / "src" / "maas").glob("*.py"))
    callers = src + sorted((ROOT / "perfbench").glob("*.py"))
    unset = unset_defaults([p.read_text() for p in src],
                           [p.read_text() for p in callers])
    assert [name for name in unset if name not in DEFAULTS_KEPT] == []
    # a kept default that some call now passes must leave DEFAULTS_KEPT too
    assert [name for name in DEFAULTS_KEPT if name not in unset] == []


def unhandled_classes(defining, handling):
    """Each class defined at the top of the `defining` source that no
    `except` clause in the `handling` sources names, alone or in a tuple,
    as `Name` or `module.Name`."""
    caught = set()
    for tree in map(ast.parse, handling):
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= {getattr(t, "id", getattr(t, "attr", None)) for t in types}
    return [cls.name for cls in ast.parse(defining).body
            if isinstance(cls, ast.ClassDef) and cls.name not in caught]


def test_checker_flags_error_classes_no_handler_names():
    defining = (
        "class A(Exception):\n"
        "    pass\n"
        "class B(A):\n"
        "    pass\n"
        "class C(A):\n"
        "    pass\n"
        "class D(A):\n"
        "    pass\n"
    )
    handling = (
        "try:\n"
        "    f()\n"
        "except A:\n"
        "    pass\n"
        "except (B, errors.C) as exc:\n"
        "    raise D() from exc\n"
        "except:\n"
        "    raise\n"
    )
    assert unhandled_classes(defining, [handling]) == ["D"]
    assert unhandled_classes(defining, [handling, "try:\n    f()\nexcept D:\n    pass\n"]) == []


def test_every_error_class_is_handled():
    src = sorted((ROOT / "src" / "maas").glob("*.py"))
    errors = (ROOT / "src" / "maas" / "errors.py").read_text()
    assert unhandled_classes(errors, [p.read_text() for p in src]) == []


def validate_callers(source):
    """The dotted name of the function or class (or "<module>") around each
    call of a `.validate()` method in `source`."""
    callers = []

    def visit(node, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "validate":
                callers.append(".".join(names) or "<module>")
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, [*names, child.name] if named else names)

    visit(ast.parse(source), [])
    return callers


def test_checker_flags_validate_calls():
    source = (
        "x.validate()\n"
        "class A:\n"
        "    def __post_init__(self):\n"
        "        self.validate()\n"
        "    def validate(self):\n"
        "        pass\n"
        "def f(a):\n"
        "    def g():\n"
        "        return [b.validate() for b in a.validate()]\n"
        "    validate(a)\n"
    )
    assert validate_callers(source) == ["<module>", "A.__post_init__", "f.g", "f.g"]


def test_only_train_config_calls_validate():
    callers = [f"{p.name}:{caller}"
               for p in sorted((ROOT / "src" / "maas").glob("*.py"))
               for caller in validate_callers(p.read_text())]
    assert callers == ["optimizer.py:TrainConfig.__post_init__"]


def is_command(node):
    """Whether `node` is decorated `@<group>.command(...)`, which registers it."""
    return any(isinstance(d, ast.Call) and getattr(d.func, "attr", None) == "command"
               for d in node.decorator_list)


def unreferenced_definitions(sources, outside=()):
    """The name of each function or class (not a `__dunder__` or a command),
    at any depth of the `sources`, that no name or attribute in them loads
    outside its own definition. A public name also passes when a source in
    `outside` names it: as a name, an attribute or a string."""
    trees = [ast.parse(source) for source in sources]
    definitions = [node for tree in trees for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not (node.name.startswith("__") and node.name.endswith("__"))
                   and not is_command(node)]
    refs = [(getattr(node, "id", getattr(node, "attr", None)), node)
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    named_outside = {getattr(node, "id", getattr(node, "attr", None)) or node.value
                     for source in outside for node in ast.walk(ast.parse(source))
                     if isinstance(node, (ast.Name, ast.Attribute))
                     or isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unreferenced = []
    for definition in definitions:
        if not definition.name.startswith("_") and definition.name in named_outside:
            continue
        own = {id(node) for node in ast.walk(definition)}
        if not any(name == definition.name and id(node) not in own for name, node in refs):
            unreferenced.append(definition.name)
    return unreferenced


def test_checker_flags_private_helpers_named_only_in_their_own_body():
    source = (
        "def _called(x):\n"
        "    return x\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else 0\n"
        "class _Unused:\n"
        "    def __init__(self):\n"
        "        self._method()\n"
        "    def _method(self):\n"
        "        pass\n"
        "    def _never(self):\n"
        "        pass\n"
        "def _decorator(fn):\n"
        "    return fn\n"
        "@_decorator\n"
        "def public(y):\n"
        "    return _called(y)\n"
        "def _elsewhere():\n"
        "    pass\n"
    )
    assert sorted(unreferenced_definitions([source])) == [
        "_Unused", "_elsewhere", "_never", "_recursive", "public"]
    other = "from a import _elsewhere\nx = _Unused(_elsewhere())\n"
    assert sorted(unreferenced_definitions([source, other])) == [
        "_never", "_recursive", "public"]


def test_checker_flags_public_names_nothing_reaches():
    source = (
        "class Registry:\n"
        "    def to_dict(self):\n"
        "        return {}\n"
        "    def to_json(self):\n"
        "        return str(self.to_dict())\n"
        "    def traced(self):\n"
        "        pass\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "def helper():\n"
        "    return Registry()\n"
        "def _private():\n"
        "    pass\n"
        "@main.command()\n"
        "def train():\n"
        "    pass\n"
    )
    assert sorted(unreferenced_definitions([source])) == [
        "_private", "helper", "to_json", "traced"]
    # perfbench may name a public definition as a name, an attribute or a
    # string, but not a private one
    outside = "helper()\nTARGETS = [(Registry, 'traced')]\nx._private()\n"
    assert sorted(unreferenced_definitions([source], [outside])) == [
        "_private", "to_json"]


def test_every_function_and_class_is_named_outside_its_body():
    src = sorted((ROOT / "src" / "maas").glob("*.py"))
    perfbench = sorted((ROOT / "perfbench").glob("*.py"))
    assert unreferenced_definitions([p.read_text() for p in src],
                                    [p.read_text() for p in perfbench]) == []


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


def test_perfbench_trainer_is_built_as_trainer_start_builds_it(monkeypatch):
    """The same parameter bytes, registry, generator state, config and
    mutator: the benchmark builds its trainer by hand, so a change to how
    `start` sets up a run must reach it too."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.chdir(ROOT)  # the workloads read the shipped data by relative path
    bench = importlib.import_module("workloads").TrainMix(0)
    bench.setup()
    ours = Trainer.start(TrainConfig(), default_env())
    theirs = bench.trainer
    assert theirs.state.params.tobytes() == ours.state.params.tobytes()
    assert registry_json(theirs.registry) == registry_json(ours.registry)
    assert theirs.rng.bit_generator.state == ours.rng.bit_generator.state
    assert theirs.config == ours.config
    assert theirs.mutator is ours.mutator is not None  # both the mock mutator


PARAMETER_ARRAYS = ("W1", "b1", "W2", "b2")


def parameter_rebinds(source):
    """(line, name) of each assignment to an attribute named as a layer's
    parameter array: `x.W1 = ...`, `x.W1 += ...`, `del x.W1` or
    `setattr(x, "W1", ...)`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load)
                and node.attr in PARAMETER_ARRAYS):
            found.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Call) and is_named(node.func, "setattr")
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
              and node.args[1].value in PARAMETER_ARRAYS):
            found.append((node.lineno, node.args[1].value))
    return found


def test_checker_flags_parameter_rebinds():
    source = (
        "ctrl.W1 = np.zeros(3)\n"
        "state.layers[0].b2 += 1.0\n"
        "del ctrl.W2\n"
        "setattr(ctrl, 'b1', x)\n"
        "ctrl.W1[0] = 1.0\n"
        "ctrl.W2[:] += g\n"
        "x = ctrl.b1\n"
        "ctrl.W3 = x\n"
        "setattr(ctrl, name, x)\n"
        "LayerController(W1=a, b1=b, W2=c, b2=d)\n"
    )
    assert parameter_rebinds(source) == [(1, "W1"), (2, "b2"), (3, "W2"), (4, "b1")]


def test_only_controller_binds_parameter_arrays():
    files = [p for p in checked_files() + sorted((ROOT / "perfbench").glob("*.py"))
             + sorted((ROOT / "tools").glob("*.py")) if p.name != "controller.py"]
    assert any(p.name == "optimizer.py" for p in files)
    offenders = [f"{path.relative_to(ROOT)}:{line}: {name}"
                 for path in files for line, name in parameter_rebinds(path.read_text())]
    assert offenders == []


def text_opens_without_utf8(source):
    """The line of each `open(...)` call in text mode (its mode holds no
    "b", or it passes none) that does not pass `encoding="utf-8"`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and is_named(node.func, "open")):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
        if isinstance(mode, ast.Constant) and "b" in mode.value:
            continue
        encoding = node.args[3] if len(node.args) > 3 else keywords.get("encoding")
        if not (isinstance(encoding, ast.Constant) and encoding.value == "utf-8"):
            lines.append(node.lineno)
    return lines


def test_checker_flags_text_opens_without_utf8():
    source = (
        "open(path)\n"
        "open(path, 'w')\n"
        "open(path, mode='a', encoding='latin-1')\n"
        "open(path, 'r', -1, None)\n"
        "open(path, mode)\n"
        "open(path, encoding='utf-8')\n"
        "open(path, 'w', encoding='utf-8')\n"
        "open(path, 'r', -1, 'utf-8')\n"
        "open(path, 'rb')\n"
        "open(path, mode='wb')\n"
        "urlopen(request)\n"
    )
    assert text_opens_without_utf8(source) == [1, 2, 3, 4, 5]


def test_every_text_open_in_src_names_utf8():
    sources = sorted((ROOT / "src" / "maas").glob("*.py"))
    assert any(p.name == "checkpoint.py" for p in sources)
    offenders = [f"{path.relative_to(ROOT)}:{line}" for path in sources
                 for line in text_opens_without_utf8(path.read_text())]
    assert offenders == []


def format_spellings(source):
    """(line, what) of each import of `base64` (or a submodule) and each
    string constant that holds "format_version", f-string parts included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        found += [(node.lineno, "base64") for m in modules if m.split(".")[0] == "base64"]
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "format_version" in node.value):
            found.append((node.lineno, "format_version"))
    return found


def test_checker_flags_format_spellings():
    source = (
        "import base64\n"
        "import json, base64.x as b\n"
        "from base64 import b64decode\n"
        "from . import base64ish\n"
        "version = d['format_version']\n"
        "message = f'format_version {v}'\n"
        "name = 'format'\n"
        "format_version = 2\n"
    )
    assert format_spellings(source) == [
        (1, "base64"), (2, "base64"), (3, "base64"), (5, "format_version"),
        (6, "format_version")]


def test_only_checkpoint_knows_the_file_format():
    sources = sorted((ROOT / "src" / "maas").glob("*.py"))
    checkpoint = ROOT / "src" / "maas" / "checkpoint.py"
    assert format_spellings(checkpoint.read_text())
    offenders = [f"{path.relative_to(ROOT)}:{line}: {what}" for path in sources
                 if path != checkpoint for line, what in format_spellings(path.read_text())]
    assert offenders == []


def imports_of_test_modules(source):
    """(line, module) of each import of a test module: `import tests.test_x`,
    `from tests.test_x import ...` or `from tests import test_x`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "tests":
            modules = [f"tests.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.startswith("tests.test_")]
    return found


def test_checker_flags_imports_of_test_modules():
    source = (
        "import tests.test_cli\n"
        "from tests.test_registry import make_spec, registry_json\n"
        "from tests import helpers, test_harness\n"
        "from tests.helpers import train_args\n"
        "import pytest, tests.helpers\n"
        "def f():\n"
        "    from tests.test_kernels import bitwise_equal\n"
    )
    assert imports_of_test_modules(source) == [
        (1, "tests.test_cli"), (2, "tests.test_registry"), (3, "tests.test_harness"),
        (7, "tests.test_kernels")]


def test_no_test_module_imports_another():
    files = sorted((ROOT / "tests").glob("*.py"))
    assert any(p.name == "helpers.py" for p in files)
    offenders = [f"{path.relative_to(ROOT)}:{line}: {module}" for path in files
                 for line, module in imports_of_test_modules(path.read_text())]
    assert offenders == []


def program_imports(source, siblings):
    """(line, module) of each import that can bring in `maas` code: `maas`
    or a submodule, a relative import, or a module named in `siblings` (the
    modules beside the file, which may import `maas` themselves)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = ["." * node.level + (node.module or "")]
        else:
            continue
        found += [(node.lineno, m) for m in modules
                  if m.startswith(".") or m.split(".")[0] in ("maas", *siblings)]
    return found


def test_checker_flags_imports_that_reach_maas():
    source = (
        "import json, maas\n"
        "from maas.embedding import HashingEmbedder\n"
        "import maasive, re\n"
        "from . import stubs\n"
        "import tracer\n"
        "def f():\n"
        "    import maas.executor as ex\n"
    )
    assert program_imports(source, ("tracer", "run")) == [
        (1, "maas"), (2, "maas.embedding"), (4, "."), (5, "tracer"),
        (7, "maas.executor")]


def test_reference_kernel_imports_no_maas_code():
    bench = ROOT / "perfbench"
    siblings = tuple(p.stem for p in bench.glob("*.py") if p.stem != "refspeed")
    assert "tracer" in siblings
    assert program_imports((bench / "refspeed.py").read_text(), siblings) == []
