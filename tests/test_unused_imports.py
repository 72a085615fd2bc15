"""No module under ``src/usdenoise`` or ``tests`` imports a name it never
uses, and every name a package lists in ``__all__`` exists on it.

No linter ships with the project, so this parses each module with ``ast``.
An imported name counts as used when the module refers to it anywhere
(a loaded ``Name``, including the root of an attribute chain) or lists it in
``__all__``; ``from __future__`` imports are exempt.
"""

import ast
import importlib
from pathlib import Path

import pytest

import usdenoise

PACKAGE = Path(usdenoise.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
MODULES = sorted(PACKAGE.rglob("*.py")) + sorted(TESTS.glob("*.py"))
MODULE_IDS = [str(p.relative_to(PACKAGE)) if PACKAGE in p.parents
              else f"tests/{p.name}" for p in MODULES]
# counting ``__all__`` entries as uses lets a stale export pass the scan
PACKAGES = [".".join(("usdenoise",) + p.parent.relative_to(PACKAGE).parts)
            for p in sorted(PACKAGE.rglob("__init__.py"))]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_scan_finds_the_package_modules():
    assert PACKAGE / "bench.py" in MODULES
    assert PACKAGE / "nnet" / "unet.py" in MODULES
    assert TESTS / "test_bench.py" in MODULES


def test_scan_flags_an_unused_name_and_spares_used_ones():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from dataclasses import dataclass, field\n"
              "from json import dumps as to_json\n"
              "import math\n"
              "__all__ = ['to_json']\n"
              "x = os.path.join(str(math.pi))\n"
              "field = 1\n"
              "@dataclass\n"
              "class A:\n"
              "    y: int = 0\n")
    assert unused_imports(source) == ["line 3: field"]


@pytest.mark.parametrize("path", MODULES, ids=MODULE_IDS)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_the_subpackages():
    assert {"usdenoise", "usdenoise.nnet", "usdenoise.baselines",
            "usdenoise.ultrasound"} <= set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_package_exports_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
