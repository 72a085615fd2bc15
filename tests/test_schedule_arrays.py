"""Only ``diffusion.py`` reads the schedule's arrays.

``NoiseSchedule.alpha_bars``, ``.alphas`` and ``.betas`` are what the forward
and reverse formulas are made of, so a module that reads them can form x_t
its own way.  This scans every module under ``src/usdenoise`` but
``diffusion.py`` with ``ast`` and rejects any read of those attributes.
``sched.T`` and ``sched.alpha_bar(t)`` stay allowed: ``bench`` uses the
latter for the baselines' noise level.
"""

import ast
from pathlib import Path

import pytest

import usdenoise

PACKAGE = Path(usdenoise.__file__).resolve().parent
ARRAYS = {"alpha_bars", "alphas", "betas"}
MODULES = sorted(p for p in PACKAGE.rglob("*.py")
                 if p != PACKAGE / "diffusion.py")


def schedule_array_reads(source: str) -> list[str]:
    return sorted(f"line {node.lineno}: .{node.attr}"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in ARRAYS)


def test_scan_flags_the_arrays_and_spares_the_scalar_accessors():
    source = ("def corrupt(x0, t, sched, eps):\n"
              "    ab = sched.alpha_bars[t - 1][:, None]\n"
              "    a = getattr(sched, 'x').alphas\n"
              "    return sched.alpha_bar(sched.T) * x0 + ab * eps + a\n"
              "betas = 1\n")
    assert schedule_array_reads(source) == ["line 2: .alpha_bars",
                                            "line 3: .alphas"]


def test_scan_covers_the_package_but_diffusion():
    assert PACKAGE / "bench.py" in MODULES
    assert PACKAGE / "nnet" / "train.py" in MODULES
    assert PACKAGE / "diffusion.py" not in MODULES


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(PACKAGE)) for p in MODULES])
def test_only_diffusion_reads_the_schedule_arrays(path):
    assert schedule_array_reads(path.read_text()) == []
