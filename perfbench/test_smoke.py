"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and once traced with ``--size smoke`` and
checks the output contract: every named metric present with its unit, no
span file without tracing, and valid span JSON lines with parent links and
every traced layer name with it.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("train", "phantom", "denoise")
SEED = 3


def _bench(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _traced_span_names():
    """Span names behind the per-layer time, call and byte metrics."""
    names = set()
    for metric, _ in spans.PER_LAYER:
        for suffix in (".self.s", ".s", ".calls", ".bytes"):
            if metric.endswith(suffix) and not metric.startswith("trace."):
                names.add(metric[:-len(suffix)])
                break
    return names


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            d = tmp_path_factory.mktemp(f"{w}-trace{trace}")
            proc = _bench(["--workload", w, "--seed", str(SEED),
                           "--seconds", "1", "--trace", str(trace),
                           "--size", "smoke", "--out", str(d)], ROOT)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            report = json.loads(lines[-2])["report"]
            result = json.loads(lines[-1])
            out[w, trace] = (d, report, result)
    return out


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_units()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(runs, workload):
    d, report, result = runs[workload, 0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    prov = report["provenance"]
    assert prov["blas_threads_pinned"] == 1 and prov["seed"] == SEED
    assert prov["blas_threads_runtime"] in (1, None)
    probe = report["probe_s"]
    assert probe["points"] == list(workloads.WORKLOADS[workload].PROBE_POINTS)
    assert probe["count"] >= result["attempted"] + 1
    assert {"compiled_kernels", "git_rev", "malloc_pinned"} <= set(prov)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_writes_no_span_file(runs, workload):
    d, report, _ = runs[workload, 0]
    assert "spans_file" not in report
    assert list(d.iterdir()) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(runs, workload):
    _, _, result = runs[workload, 1]
    assert result["correct"] and result["failed"] == 0
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == dict(run.per_layer_units()))


def test_traced_runs_write_span_jsonl_with_every_layer(runs):
    seen = set()
    for w in WORKLOADS:
        d, report, _ = runs[w, 1]
        lines = Path(report["spans_file"]).read_text().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "run" and header["workload"] == w
        by_id = {}
        for line in lines[1:]:
            s = json.loads(line)
            assert s["type"] == "span"
            assert {"id", "parent", "op", "name", "start", "end"} <= set(s)
            assert s["start"] <= s["end"] and s["op"] is not None
            if s["parent"] is not None:
                parent = by_id[s["parent"]]      # parents precede children
                assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
                assert parent["op"] == s["op"]
            by_id[s["id"]] = s
            seen.add(s["name"])
    assert _traced_span_names() - seen == set()


def test_tracing_restores_the_package_functions():
    import usdenoise.bench as bench
    import usdenoise.nnet.train  # noqa: F401
    train = sys.modules["usdenoise.nnet.train"]
    before = (bench.unet_forward, train.unet_forward)
    tracer = spans.Tracer()
    tracer.install()
    assert bench.unet_forward is not before[0]
    assert train.unet_forward is bench.unet_forward
    tracer.uninstall()
    assert (bench.unet_forward, train.unet_forward) == before


def test_probe_corrects_each_segment_of_an_op():
    probe = hostspeed.Probe()

    def op():
        time.sleep(0.02)
        probe.split()
        time.sleep(0.02)

    _, seconds, corrected = probe.around(op)
    assert len(probe.times) == 3          # opening, split, closing probes
    assert 0.04 <= seconds < 0.04 + min(probe.times)
    t = probe.times
    expected = (0.02 * hostspeed.REFERENCE_S / (0.5 * (t[0] + t[1]))
                + 0.02 * hostspeed.REFERENCE_S / (0.5 * (t[1] + t[2])))
    assert abs(corrected - expected) / expected < 0.25
    probe.split()                         # outside an op: no probe
    assert len(probe.times) == 3


def test_probe_points_restore_the_package_functions():
    import usdenoise.nnet.train  # noqa: F401
    train = sys.modules["usdenoise.nnet.train"]
    before = train.adam_step
    probe = hostspeed.Probe()
    targets = ["usdenoise.nnet.train:adam_step", "usdenoise.nnet.train:gone"]
    with hostspeed.probe_points(probe, targets) as points:
        assert points == targets[:1]
        assert train.adam_step is not before
    assert train.adam_step is before


def test_without_package_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_run", "__pycache__"))
    proc = _bench(["--workload", "phantom", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
