"""Every random draw under ``src/usdenoise`` names its stream.

A draw is ``(seed, draw_index)``, and ``rng.stream(purpose, *keys)`` is
the one way a module picks the index.  The enumeration draws every purpose
the package uses, over the keys a run reaches, and requires the indices to
be distinct and outside 0-3, the phantom scatterers' reserved block.

No linter ships with the project, so the scan parses each module with
``ast``.  Every ``uniforms``, ``standard_normal``, ``_normals`` and
``raw_words`` call must take its draw index from a ``stream(...)`` call or
from a local name assigned from one, and no seed may be arithmetic on
another seed.  ``rng.py`` passes its callers' indices through and is not
scanned; ``_scatterers``' literal indices 0-3 are the one exemption, kept
so that every phantom stays bit-identical.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import usdenoise
from usdenoise.nnet import UNetConfig
from usdenoise.nnet.unet import _param_shapes
from usdenoise.rng import stream

from tests.test_nnet import TINY

PACKAGE = Path(usdenoise.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "rng.py")
MODULE_IDS = [str(p.relative_to(PACKAGE)) for p in MODULES]
DRAWS = {"uniforms", "standard_normal", "_normals", "raw_words"}
RESERVED = {"_scatterers": {0, 1, 2, 3}}
T = 300
TENSORS = sorted(set(_param_shapes(UNetConfig())) | set(_param_shapes(TINY)))
# every purpose, with the keys a run reaches: up to 64 bench images, 100
# epochs of 2000 batches, and every step of the schedule; a purpose ending
# in a space is completed by a name, as init_params does with tensor names
PURPOSES = {
    "bench.cyst": [(i,) for i in range(64)],
    "bench.phantom": [(seed, i) for seed in (0, 11) for i in range(64)],
    "bench.noise": [(i, t) for i in range(64) for t in range(1, T + 1)],
    "corrupt": [(t,) for t in range(1, T + 1)],
    "inject": [(t,) for t in range(1, T + 1)],
    "train.order": [(e,) for e in range(100)],
    "train.t": [(e, b) for e in range(100) for b in range(2000)],
    "train.noise": [(e, b) for e in range(100) for b in range(2000)],
    "heldout.t": [()],
    "heldout.noise": [()],
    "speckle.look": [(0,), (1,)],
    "speckle.cyst": [()],
    "unet.init ": [(name,) for name in TENSORS],
}


def _index(purpose, keys):
    if purpose.endswith(" "):
        return stream(purpose + keys[0])
    return stream(purpose, *keys)


def test_every_purpose_draws_its_own_streams():
    drawn = [_index(p, k) for p, keys in PURPOSES.items() for k in keys]
    assert len(set(drawn)) == len(drawn)
    assert min(drawn) > 3
    assert max(drawn) < 2 ** 64


def test_a_numpy_key_names_the_stream_of_its_python_int():
    assert stream("bench.noise", np.int64(3), np.int32(110)) == \
        stream("bench.noise", 3, 110)
    assert stream("train.t", np.uint64(2 ** 63), 0) == \
        stream("train.t", 2 ** 63, 0)
    assert stream("inject", 5) != stream("corrupt", 5)


# ------------------------------------------------------------------ scan

def _callee(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _is_stream(node):
    return isinstance(node, ast.Call) and _callee(node.func) == "stream"


def _arg(call, position, keyword):
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return call.args[position] if len(call.args) > position else None


def _has_arithmetic(node):
    return any(isinstance(n, ast.BinOp) for n in ast.walk(node))


class _Scan(ast.NodeVisitor):
    def __init__(self):
        self.scopes = [("<module>", set())]
        self.faults = []
        self.purposes = set()

    def visit_FunctionDef(self, node):
        named = {t.id for n in ast.walk(node)
                 if isinstance(n, ast.Assign) and _is_stream(n.value)
                 for t in n.targets if isinstance(t, ast.Name)}
        self.scopes.append((node.name, named))
        self.generic_visit(node)
        self.scopes.pop()

    def visit_Call(self, node):
        where = f"line {node.lineno}"
        seed = next((kw.value for kw in node.keywords if kw.arg == "seed"),
                    None)
        if _callee(node.func) in DRAWS:
            seed = _arg(node, 1, "seed")
            self._check_index(_arg(node, 2, "draw_index"), where)
        if seed is not None and _has_arithmetic(seed):
            self.faults.append(f"{where}: seed arithmetic")
        if _is_stream(node):
            purpose = node.args[0] if node.args else None
            if isinstance(purpose, ast.BinOp):
                purpose = purpose.left
            if isinstance(purpose, ast.Constant):
                self.purposes.add(purpose.value)
            else:
                self.faults.append(f"{where}: purpose is not a literal")
        self.generic_visit(node)

    def _check_index(self, index, where):
        function, named = self.scopes[-1]
        if index is None:
            self.faults.append(f"{where}: no draw index")
        elif not (_is_stream(index)
                  or isinstance(index, ast.Name) and index.id in named
                  or isinstance(index, ast.Constant)
                  and index.value in RESERVED.get(function, ())):
            self.faults.append(f"{where}: draw index not from stream()")


def scan(source: str) -> _Scan:
    s = _Scan()
    s.visit(ast.parse(source))
    return s


def test_scan_finds_the_drawing_modules():
    assert PACKAGE / "bench.py" in MODULES
    assert PACKAGE / "ultrasound" / "phantom.py" in MODULES
    assert PACKAGE / "rng.py" not in MODULES


def test_scan_flags_offsets_and_spares_named_draws():
    source = ("def f(seed, i, t, p):\n"
              "    d = stream('a', i)\n"
              "    uniforms(2, seed, d)\n"
              "    standard_normal((4,), seed, draw_index=stream('b ' + t))\n"
              "    uniforms(2, seed, draw_index=900 + i)\n"
              "    standard_normal((4,), seed + 1, d)\n"
              "    _normals(p, seed, i, 0)\n"
              "    raw_words(4, seed)\n"
              "    Spec(seed=seed * 1009 + i)\n"
              "    stream(t)\n"
              "    uniforms(2, seed, 1)\n"
              "def _scatterers(spec):\n"
              "    uniforms(2, spec.seed, draw_index=3)\n"
              "    rng.uniforms(2, spec.seed, 4)\n")
    s = scan(source)
    assert s.faults == [
        "line 5: draw index not from stream()",
        "line 6: seed arithmetic",
        "line 7: draw index not from stream()",
        "line 8: no draw index",
        "line 9: seed arithmetic",
        "line 10: purpose is not a literal",
        "line 11: draw index not from stream()",
        "line 14: draw index not from stream()",
    ]
    assert s.purposes == {"a", "b "}


@pytest.mark.parametrize("path", MODULES, ids=MODULE_IDS)
def test_module_draws_only_named_streams(path):
    assert scan(path.read_text()).faults == []


def test_the_enumeration_covers_the_purposes_the_package_uses():
    used = set().union(*(scan(p.read_text()).purposes for p in MODULES))
    assert used == set(PURPOSES)
