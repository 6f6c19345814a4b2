"""Modules in src/nulut use only each other's public names."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nulut"


def private_cross_imports(source):
    """Underscore names one nulut module takes from another, as readable strings.

    Covers `from .mod import _name` and `mod._name` on a module bound by
    `from . import mod`; dunder names such as __version__ are allowed.
    """
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "nulut"
                                                 or (node.module or "").startswith("nulut.")):
            for alias in node.names:
                if private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
                elif node.module in (None, "nulut"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and private(node.attr)):
            found.append(f"line {node.lineno}: uses {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    assert private_cross_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_private_imports():
    source = (
        "from .transform import transform_image, _locate\n"
        "from nulut.ppm import _read_int\n"
        "from . import lutio, __version__\n"
        "lutio._Tokens('x')\n"
        "lutio.load_lattice('x')\n"
    )
    assert private_cross_imports(source) == [
        "line 1: imports _locate",
        "line 2: imports _read_int",
        "line 4: uses lutio._Tokens",
    ]


def unused_imports(source):
    """Names a module imports and never uses, as readable strings.

    A name counts as used wherever it is read, including annotations.
    `from __future__` imports and imports whose line carries
    `# noqa: F401` are exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, alias.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name} is never used"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in used]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .lattice import (\n"
        "    Lattice,\n"
        "    identity_lut,\n"
        ")\n"
        "from .predictor import PARAM_ARRAYS  # noqa: F401\n"
        "from .transform import transform_image, validate_image\n"
        "def f(x: Lattice) -> None:\n"
        "    return np.asarray(validate_image(x))\n"
    )
    assert unused_imports(source) == [
        "line 2: os is never used",
        "line 6: identity_lut is never used",
        "line 9: transform_image is never used",
    ]


def unused_private_definitions(sources):
    """Module-level _name functions and classes nothing reads, as readable strings.

    sources maps file names to their text.  A definition counts as used
    when its name is read, as a name or an attribute, anywhere in
    sources outside its own body.  Dunder names are skipped.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = [(node, node.id if isinstance(node, ast.Name) else node.attr)
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))]
    found = []
    for name, tree in trees.items():
        for definition in tree.body:
            if (not isinstance(definition, (ast.FunctionDef, ast.ClassDef))
                    or not definition.name.startswith("_") or definition.name.endswith("__")):
                continue
            inside = {id(node) for node in ast.walk(definition)}
            if not any(read == definition.name and id(node) not in inside
                       for node, read in reads):
                found.append(f"{name} line {definition.lineno}: {definition.name} is never used")
    return found


def test_no_private_definition_goes_unused():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unused_private_definitions(sources) == []


def test_checker_finds_unused_private_definitions():
    sources = {
        "a.py": (
            "def _called():\n"
            "    return 1\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "class _Instantiated:\n"
            "    pass\n"
            "class _Orphan:\n"
            "    def _method(self):\n"
            "        return self._method()\n"
            "def __getattr__(name):\n"
            "    raise AttributeError(name)\n"
            "def _by_attribute():\n"
            "    pass\n"
            "KEPT = _Instantiated()\n"
            "def public():\n"
            "    return _called()\n"
        ),
        "b.py": (
            "from . import a\n"
            "def _helper():\n"
            "    return a._by_attribute()\n"
        ),
    }
    assert unused_private_definitions(sources) == [
        "a.py line 3: _recursive is never used",
        "a.py line 7: _Orphan is never used",
        "b.py line 2: _helper is never used",
    ]


def inline_finite_messages(source):
    """String constants ending in "must be finite" outside check_finite, as readable strings.

    An f-string counts by its literal parts, so f"coords {name}: entries
    must be finite" is found as well; lattice.check_finite owns that message.
    """
    tree = ast.parse(source)
    owner = {id(node) for definition in ast.walk(tree)
             if isinstance(definition, ast.FunctionDef) and definition.name == "check_finite"
             for node in ast.walk(definition)}
    found = [node for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.endswith("must be finite") and id(node) not in owner]
    return [f"line {node.lineno}: {node.value!r}"
            for node in sorted(found, key=lambda node: node.lineno)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_finiteness_message_comes_from_check_finite(path):
    assert inline_finite_messages(path.read_text(encoding="utf-8")) == []


def test_checker_finds_inline_finite_messages():
    source = (
        "def check_finite(name, a):\n"
        "    raise ValueError(f'{name} must be finite')\n"
        "def validate(a, c):\n"
        "    if a:\n"
        "        raise ValueError('grad must be finite')\n"
        "    raise ValueError(f'coords {c}: entries must be finite')\n"
        "RATE = 'rate must be finite and positive'\n"
        "def message():\n"
        "    return 'table values must be finite'\n"
    )
    assert inline_finite_messages(source) == [
        "line 5: 'grad must be finite'",
        "line 6: ': entries must be finite'",
        "line 9: 'table values must be finite'",
    ]


THREAD_STARTERS = {"ThreadPoolExecutor", "ProcessPoolExecutor", "Thread"}


def threads_outside_the_block_pool(source):
    """Thread and process starts outside class _BlockPool, as readable strings.

    A start is a call of ThreadPoolExecutor, ProcessPoolExecutor or
    Thread, bare or by attribute (threading.Thread), or any import of
    multiprocessing.  transform._BlockPool owns the package's threads and
    caps their count, so a start anywhere else could get round that bound.
    """
    tree = ast.parse(source)
    owner = {id(node) for cls in tree.body
             if isinstance(cls, ast.ClassDef) and cls.name == "_BlockPool"
             for node in ast.walk(cls)}
    found = []
    for node in ast.walk(tree):
        if id(node) in owner:
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in THREAD_STARTERS:
                found.append((node, f"calls {ast.unparse(func)}"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""])
            found += [(node, f"imports {module}") for module in modules
                      if module.split(".")[0] == "multiprocessing"]
    found.sort(key=lambda item: (item[0].lineno, item[0].col_offset))
    return [f"line {node.lineno}: {what}" for node, what in found]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_block_pool_starts_threads(path):
    assert threads_outside_the_block_pool(path.read_text(encoding="utf-8")) == []


def test_checker_finds_threads_outside_the_block_pool():
    source = (
        "import threading\n"
        "import multiprocessing.pool\n"
        "from multiprocessing import Pool\n"
        "from concurrent import futures\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "class _BlockPool:\n"
        "    def submit(self, n):\n"
        "        return ThreadPoolExecutor(n)\n"
        "def run(n):\n"
        "    threading.Thread(target=print).start()\n"
        "    lock = threading.Lock()\n"
        "    return futures.ThreadPoolExecutor(n), ThreadPoolExecutor(max_workers=n)\n"
    )
    assert threads_outside_the_block_pool(source) == [
        "line 2: imports multiprocessing.pool",
        "line 3: imports multiprocessing",
        "line 10: calls threading.Thread",
        "line 12: calls futures.ThreadPoolExecutor",
        "line 12: calls ThreadPoolExecutor",
    ]


def buffered_takes(source):
    """take calls that pass out= with mode "raise" or none, as readable strings.

    Covers a.take(...) and np.take(...), out and mode given by keyword or
    by position.  Under mode="raise", the default, NumPy buffers a take's
    whole output so that out stays intact on a bad index; a mode that is
    not a string literal counts as "raise", since it cannot be read here.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "take"):
            continue
        params = ["indices", "axis", "out", "mode"]
        if ast.unparse(node.func.value) in ("np", "numpy"):
            params.insert(0, "a")
        bound = dict(zip(params, node.args)) | {kw.arg: kw.value for kw in node.keywords}
        mode = bound.get("mode")
        if "out" in bound and not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                                   and mode.value != "raise"):
            found.append(node)
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in found]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_take_buffers_its_output(path):
    assert buffered_takes(path.read_text(encoding="utf-8")) == []


def test_checker_finds_buffered_takes():
    source = (
        "import numpy as np\n"
        "def gather(a, idx, out, mode):\n"
        "    a.take(idx, out=out)\n"
        "    a.take(idx, axis=1, out=out, mode='raise')\n"
        "    np.take(a, idx, 0, out)\n"
        "    a.take(idx, out=out, mode=mode)\n"
        "    a.take(idx, 0, out, 'clip')\n"
        "    np.take(a, idx, out=out, mode='wrap')\n"
        "    a.take(idx)\n"
        "    take(a, idx, out=out)\n"
    )
    assert buffered_takes(source) == [
        "line 3: a.take(idx, out=out)",
        "line 4: a.take(idx, axis=1, out=out, mode='raise')",
        "line 5: np.take(a, idx, 0, out)",
        "line 6: a.take(idx, out=out, mode=mode)",
    ]
