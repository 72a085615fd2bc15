"""usdenoise benchmark: one workload, closed loop, single process.

    python3 perfbench/run.py --workload train|phantom|denoise --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  BLAS is pinned to one thread before NumPy loads.  After set-up
(repeated ``SETUP_REPEATS`` times, median reported) the workload's ops run
back to back for S seconds and every output is checked.  Every op and
set-up time is corrected for the shared host's speed by a probe timed
around it (``hostspeed.py``).  The last stdout
line is the result JSON (``correct``, ``attempted``, ``failed``,
``metrics``); the line before it is a report with provenance and the
workload's own metrics.

With ``--trace 1`` the untraced loop is followed by a traced pass over a
fixed amount of work (``TRACED_ROUNDS`` rounds of the workload's op cycle);
the result then holds the per-layer metrics, the tracing overhead relative
to the untraced loop, and the workload metrics of the untraced loop.  Spans
go to ``<out>/spans-<workload>-seed<N>.jsonl``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc mallopt parameters: serve large blocks from the heap and never hand
# freed memory back, so NumPy temporaries stop page-faulting on every use.
M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4
MALLOC_PIN = {M_MMAP_MAX: 0, M_TRIM_THRESHOLD: 2**31 - 1}
SETUP_REPEATS = 3

END_TO_END = [
    ("items_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# The workload-specific numbers, measured by the untraced loop of a traced
# run.  They are not end-to-end metrics only because each exists on one
# workload; every run prints them in its report line.
WORKLOAD_METRICS = [
    ("train_samples_per_s", "1/s"),
    ("phantom_images_per_s", "1/s"),
    ("nlm_images_per_s", "1/s"),
    ("bm3d_images_per_s", "1/s"),
    ("ddpm_images_per_s", "1/s"),
    ("denoise_t20_p50_s", "s"),
    ("denoise_t20.samples", "count"),
    ("nlm_psnr_db", "dB"),
    ("bm3d_psnr_db", "dB"),
]

OVERHEAD = [
    ("trace.overhead.items_per_s", "%"),
    ("trace.overhead.op_p50_s", "%"),
]


def per_layer_units():
    """Every per-layer metric name with its unit, in output order."""
    return spans.PER_LAYER + WORKLOAD_METRICS + OVERHEAD


def _git_rev() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _pin_malloc() -> bool:
    """Apply MALLOC_PIN through glibc's mallopt; False where that is absent.

    In the VM this benchmark was tuned on, minor page faults on freshly
    mapped NumPy temporaries took 30-45% of a phantom's wall time, and their
    cost moved with the host's load, which made run-to-run spread exceed
    every useful bound.  The pin trades that realism for steadiness, as the
    BLAS pin does; it is recorded in the provenance.
    """
    import ctypes
    import ctypes.util
    name = ctypes.util.find_library("c")
    mallopt = getattr(ctypes.CDLL(name), "mallopt", None) if name else None
    if mallopt is None:
        return False
    return all(mallopt(param, value) == 1 for param, value in MALLOC_PIN.items())


def _blas_runtime_threads() -> int | None:
    """Thread count reported by the OpenBLAS NumPy loaded, if any."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args, malloc_pinned: bool) -> dict:
    import numpy as np

    import usdenoise
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "usdenoise_version": usdenoise.__version__,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": _blas_runtime_threads(),
        "malloc_pinned": malloc_pinned,
        "compiled_kernels": usdenoise.COMPILED_KERNELS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
    }


class Loop:
    """Closed-loop runner: per-kind op times, failures and last outputs.

    ``samples`` holds op times corrected to the probe's reference host
    speed, ``raw`` the same op times as measured."""

    def __init__(self, wl, probe, tracer=None):
        self.wl = wl
        self.probe = probe
        self.tracer = tracer
        self.samples = {k: [] for k in wl.ROUND}
        self.raw = {k: [] for k in wl.ROUND}
        self.results = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _op(self, kind: str, i: int) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = i
            self.tracer.enabled = True
        try:
            out, dt, corrected = self.probe.around(
                lambda: self.wl.run(kind, i))
        except Exception:
            self.failed += 1
            self.errors.append(f"op {i} ({kind}): {traceback.format_exc()}")
            return
        finally:
            if self.tracer is not None:
                self.tracer.enabled = False
        try:
            problem = self.wl.check(kind, i, out)
        except Exception:
            problem = traceback.format_exc()
        if problem is not None:
            self.failed += 1
            self.errors.append(f"op {i} ({kind}) failed its check: {problem}")
            return
        self.samples[kind].append(corrected)
        self.raw[kind].append(dt)
        self.results[kind] = out

    def timed(self, seconds: float, start: int = 0) -> int:
        """Run at least one full round, then stop before the first op that
        would end more than half an op past ``seconds`` (by the median of
        its kind so far, as measured), so a run lasts ``seconds`` give or
        take half an op.  Returns the next op index."""
        t_start = time.perf_counter()
        i = start
        n = len(self.wl.ROUND)
        while True:
            kind = self.wl.ROUND[i % n]
            done = self.raw[kind]
            if i - start >= n:
                elapsed = time.perf_counter() - t_start
                half_op = statistics.median(done) / 2 if done else 0.0
                if elapsed + half_op > seconds:
                    return i
            self._op(kind, i)
            i += 1

    def rounds(self, count: int, start: int) -> None:
        n = len(self.wl.ROUND)
        for i in range(start, start + count * n):
            self._op(self.wl.ROUND[i % n], i)


def _setup(wl, workdir: Path, probe) -> tuple[float, float]:
    """Median set-up time over the repeats: corrected, and as measured."""
    corrected, raw = [], []
    for r in range(SETUP_REPEATS):
        d = workdir / f"setup{r}"
        d.mkdir(parents=True)
        _, dt, dt_corrected = probe.around(lambda: wl.setup(d))
        corrected.append(dt_corrected)
        raw.append(dt)
    return statistics.median(corrected), statistics.median(raw)


def _summary(wl, loop: Loop, raw: bool = False) -> dict | None:
    if not all(loop.samples[k] for k in wl.ROUND):
        return None
    return wl.summary(loop.raw if raw else loop.samples, loop.results)


def _metrics(values: dict, units) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def _overhead(base: dict, traced: dict) -> dict:
    """Slow-down under tracing, in percent (positive means slower)."""
    return {
        "trace.overhead.items_per_s":
            100.0 * (base["items_per_s"] / traced["items_per_s"] - 1.0),
        "trace.overhead.op_p50_s":
            100.0 * (traced["op_p50_s"] / base["op_p50_s"] - 1.0),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["train", "phantom", "denoise"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "smoke"], default="full",
                   help="input sizes; 'smoke' is for the smoke test")
    p.add_argument("--out", default=str(HERE / "_run"),
                   help="directory for scratch files and span files")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    malloc_pinned = _pin_malloc()
    src = ROOT / "src"
    if not (src / "usdenoise" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import usdenoise
    if Path(usdenoise.__file__).resolve().parent != (src / "usdenoise").resolve():
        print(f"perfbench: imported usdenoise from {usdenoise.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    import hostspeed
    import workloads

    out_dir = Path(args.out)
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](
        workloads.SIZES[args.size][args.workload], args.seed)
    report = {"provenance": provenance(args, malloc_pinned)}
    try:
        probe = hostspeed.Probe()
        probe()                        # first-call costs out of the way
        probe.times.clear()
        setup_s, setup_raw_s = _setup(wl, workdir, probe)
        loop = Loop(wl, probe)
        with hostspeed.probe_points(probe, wl.PROBE_POINTS) as points:
            next_op = loop.timed(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        base = _summary(wl, loop)
        if base is None:
            print("perfbench: no op of some kind succeeded\n"
                  + "\n".join(loop.errors), file=sys.stderr)
            return 1
        end_to_end = {**base["end_to_end"], "setup_s": setup_s,
                      "peak_rss_mb": peak_rss_mb}
        measured = _summary(wl, loop, raw=True)
        report.update(end_to_end=end_to_end, workload_metrics=base["workload"],
                      op_seconds=loop.samples,
                      as_measured={**measured["end_to_end"],
                                   **measured["workload"],
                                   "setup_s": setup_raw_s,
                                   "op_seconds": loop.raw},
                      probe_s={"reference": hostspeed.REFERENCE_S,
                               "points": points,
                               "median": statistics.median(probe.times),
                               "count": len(probe.times)})
        metrics = _metrics(end_to_end, END_TO_END)
        attempted, failed = loop.attempted, loop.failed
        errors = list(loop.errors)

        if args.trace:
            tracer = spans.Tracer()
            traced = Loop(wl, probe, tracer)
            tracer.install()
            try:
                traced.rounds(wl.TRACED_ROUNDS, next_op)
            finally:
                tracer.uninstall()
            attempted += traced.attempted
            failed += traced.failed
            errors += traced.errors
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_jsonl(spans_path, report["provenance"])
            report["spans_file"] = str(spans_path)
            report["computed_from_shapes"] = spans.COMPUTED
            traced_summary = _summary(wl, traced)
            if traced_summary is None:
                print("perfbench: traced pass failed\n" + "\n".join(errors),
                      file=sys.stderr)
                return 1
            values = {name: 0 for name, _ in WORKLOAD_METRICS}
            values.update(base["workload"])
            values.update(spans.layer_metrics(tracer.spans))
            values.update(_overhead(base["end_to_end"],
                                    traced_summary["end_to_end"]))
            metrics = _metrics(values, per_layer_units())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for e in errors:
        print(e, file=sys.stderr)
    report["errors"] = len(errors)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
