"""Host-speed probe: a fixed kernel timed between the benchmark's ops.

The benchmark runs on a few vCPUs of a shared host, whose speed drifts by
20% and more over minutes as other tenants load the shared caches and
memory.  The probe is a fixed piece of work in the benchmark's own code
(never the package's), built from the kinds of work the workloads do: a
GEMM like an im2col convolution, exp and cos over arrays larger than L2, a
scatter-add, and an interpreter loop.  Timed before and after every op, it
tells how fast the host ran meanwhile; ``Probe.around`` rescales an op's
time to the speed at which one probe takes ``REFERENCE_S``.  An op that
lasts many seconds is cut into segments by probes at ``probe_points``
inside it, so the correction follows the host's speed within the op.

A change to the package cannot move the probe, so corrected times still
show every change to the package in full.
"""

from __future__ import annotations

import contextlib
import importlib
import time

import numpy as np

# Seconds one probe takes on a quiet host of the 2-vCPU VM the benchmark
# was tuned on; it only sets the scale of corrected times.
REFERENCE_S = 0.050
SEED = 20230612
ELEMENTS = 1 << 19            # 4 MiB of float64: more than a core's L2
GEMM_REPEATS = 24
PY_LOOP = 60_000


class Probe:
    """Times the fixed kernel; keeps every probe time it has measured."""

    def __init__(self):
        rng = np.random.default_rng(SEED)
        self.weights = rng.standard_normal((64, 288))
        self.columns = rng.standard_normal((288, 1024))
        self.x = rng.standard_normal(ELEMENTS)
        self.index = rng.integers(0, ELEMENTS // 4, ELEMENTS)
        self.acc = np.zeros(ELEMENTS // 4)
        self.times: list[float] = []
        self.last: float | None = None
        self._segments = None          # (seconds, probe before, probe after)
        self._seg_probe = 0.0
        self._seg_start = 0.0

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(GEMM_REPEATS):
            self.weights @ self.columns
        for _ in range(2):
            np.exp(-(self.x * self.x)) * np.cos(2.0 * self.x + 1.0)
            np.add.at(self.acc, self.index, self.x)
        total = 0
        for k in range(PY_LOOP):
            total += k * k
        dt = time.perf_counter() - t0
        self.times.append(dt)
        self.last = dt
        return dt

    def split(self) -> None:
        """Inside ``around``: close the current segment with a probe and
        open the next one.  Outside it, do nothing."""
        if self._segments is None:
            return
        dt = time.perf_counter() - self._seg_start
        after = self()
        self._segments.append((dt, self._seg_probe, after))
        self._seg_probe = after
        self._seg_start = time.perf_counter()

    def around(self, fn):
        """Run ``fn`` between two probes (reusing the previous call's closing
        probe as the opening one); return ``(fn(), seconds, corrected)``.
        ``seconds`` is the time in ``fn`` without the probes inside it;
        ``corrected`` rescales each segment by the mean of the probes at its
        two ends to the reference speed."""
        self._segments = []
        self._seg_probe = self.last if self.last is not None else self()
        self._seg_start = time.perf_counter()
        try:
            out = fn()
        finally:
            dt = time.perf_counter() - self._seg_start
            after = self()
            segments = self._segments + [(dt, self._seg_probe, after)]
            self._segments = None
        seconds = sum(s for s, _, _ in segments)
        corrected = sum(s * REFERENCE_S / (0.5 * (a + b))
                        for s, a, b in segments)
        return out, seconds, corrected


@contextlib.contextmanager
def probe_points(probe: Probe, targets):
    """While open, ``probe.split()`` runs after every call of each function
    named ``"module:attribute"`` in ``targets``; the originals are restored
    on exit.  A target the package no longer has is skipped.  Yields the
    targets in effect."""
    saved = []
    for target in targets:
        mod_name, attr = target.split(":")
        try:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr)
        except (ImportError, AttributeError):
            continue

        def hooked(*args, _fn=fn, **kwargs):
            out = _fn(*args, **kwargs)
            probe.split()
            return out

        setattr(module, attr, hooked)
        saved.append((module, attr, fn))
    try:
        yield [f"{m.__name__}:{a}" for m, a, _ in saved]
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
