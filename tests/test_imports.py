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
