"""The benchmark's three workloads: inputs, timed ops and output checks.

Each workload builds its inputs from the seed in ``setup`` and then runs a
fixed cycle of op kinds (``ROUND``) in a closed loop: the next op starts
when the previous one has returned.  ``run`` is the timed call into the
package; ``check`` inspects its output afterwards and returns a problem
description, or None when the output is correct.  Checks are deliberately
not bit-exact: later changes to DAS and the U-Net alter numerics on purpose.

Why each workload exists (which layers it stresses and which it bypasses)
is in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
from pathlib import Path

import numpy as np

import usdenoise.bench as bench
import usdenoise.cli as cli
import usdenoise.nnet as nnet
import usdenoise.ultrasound as ultrasound
from usdenoise.diffusion import make_schedule
from usdenoise.formats import read_pgm, write_pgm
from usdenoise.image import RANGE_UNIT, Image2D
from usdenoise.metrics import gcnr
from usdenoise.rng import uniforms
from usdenoise.ultrasound import (
    Cyst,
    PhantomSpec,
    TransducerGeometry,
    annulus_mask,
    cyst_mask,
    speckle_patches,
)

# "full" is the benchmark; "smoke" shrinks every input for the smoke test.
SIZES = {
    "full": {
        "train": {"patches": 200, "heldout": 32, "image": 32, "batch": 16},
        "phantom": {"elements": 64, "nx": 64, "nz": 64, "specs": 16},
        "denoise": {"images": 2, "image": 64},
    },
    "smoke": {
        "train": {"patches": 16, "heldout": 4, "image": 16, "batch": 8},
        "phantom": {"elements": 16, "nx": 32, "nz": 32, "specs": 2},
        "denoise": {"images": 1, "image": 32},
    },
}

T_STARTS = (10, 20)
CLI_T_START = 20
CHECKPOINT_SEED = 0          # weights only set the numbers, not the timing
PHANTOM_ANGLES_DEG = (-5.0, 0.0, 5.0)
PHANTOM_DENSITY = 8.0
CYST_RADIUS_M = 1.5e-3
MASK_ERODE_PX = 2
GCNR_FLOOR = 0.5             # anechoic cyst vs. speckle; a broken B-mode is ~0


class Train:
    """``nnet.train`` for one epoch per op on speckle patches, held-out L1
    and a checkpoint write included: the path of
    ``usdenoise train --data speckle:232``."""

    ROUND = ("train",)
    TRACED_ROUNDS = 1
    # An epoch lasts seconds: probe the host's speed after every step.
    PROBE_POINTS = ("usdenoise.nnet.train:adam_step",)

    def __init__(self, size: dict, seed: int):
        self.size = size
        self.seed = seed

    def setup(self, workdir: Path) -> None:
        s = self.size
        patches = speckle_patches(s["patches"] + s["heldout"], size=s["image"],
                                  seed=self.seed)
        signed = patches * 2.0 - 1.0
        self.train_set = signed[:s["patches"]]
        self.heldout = signed[s["patches"]:]
        self.sched = make_schedule(300)
        self.train_cfg = nnet.TrainConfig(epochs=1, batch_size=s["batch"],
                                          seed=self.seed)
        self.net_cfg = nnet.UNetConfig(image_size=s["image"])
        self.ckpt = workdir / "model.ckpt"

    def run(self, kind: str, i: int):
        return nnet.train(self.train_set, self.sched, self.train_cfg,
                          self.net_cfg, heldout_set=self.heldout,
                          checkpoint_path=self.ckpt)

    def check(self, kind: str, i: int, out) -> str | None:
        params, history = out
        row = history[-1]
        if not (math.isfinite(row["train_mse"])
                and math.isfinite(row["heldout_l1"])):
            return f"non-finite loss {row}"
        loaded, _ = nnet.load_model(self.ckpt)
        for table in ("tensors", "m", "v"):
            a, b = getattr(params, table), getattr(loaded, table)
            if a.keys() != b.keys() or not all(np.array_equal(a[k], b[k])
                                               for k in a):
                return f"checkpoint {table} differ from the trained ones"
        if loaded.step != params.step:
            return "checkpoint step differs"
        return None

    def summary(self, samples: dict, results: dict) -> dict:
        p50 = statistics.median(samples["train"])
        rate = self.size["patches"] / p50
        return {
            "end_to_end": {"items_per_s": rate, "op_p50_s": p50},
            "workload": {"train_samples_per_s": rate},
        }


class Phantom:
    """``ultrasound.synth_phantom`` over a cycle of seeded specs with the
    bench's phantom settings and one jittered anechoic cyst."""

    ROUND = ("phantom",)
    TRACED_ROUNDS = 2
    PROBE_POINTS = ()

    def __init__(self, size: dict, seed: int):
        self.size = size
        self.seed = seed

    def _spec(self, i: int, elements: int, nx: int, nz: int, angles) -> tuple:
        # Cyst jitter and spec seed follow bench.make_phantom_set.
        jitter = uniforms(2, self.seed, draw_index=900 + i) - 0.5
        cyst = Cyst(cx=float(jitter[0]) * 1.2e-3,
                    cz=10.0e-3 + float(jitter[1]) * 1.2e-3,
                    radius=CYST_RADIUS_M, echogenicity=0.0)
        spec = PhantomSpec(nx=nx, nz=nz,
                           geometry=TransducerGeometry(element_count=elements),
                           angles=tuple(math.radians(a) for a in angles),
                           scatterer_density=PHANTOM_DENSITY,
                           seed=self.seed * 1009 + i, cysts=(cyst,))
        return spec, cyst

    def setup(self, workdir: Path) -> None:
        s = self.size
        self.specs = []
        for i in range(s["specs"]):
            spec, cyst = self._spec(i, s["elements"], s["nx"], s["nz"],
                                    PHANTOM_ANGLES_DEG)
            self.specs.append((spec,
                               cyst_mask(spec, cyst, erode=MASK_ERODE_PX),
                               annulus_mask(spec, cyst, gap=MASK_ERODE_PX)))
        # Warm-up: one tiny phantom so first-call costs land in set-up.
        tiny, _ = self._spec(0, 8, 16, 16, (0.0,))
        ultrasound.synth_phantom(tiny)

    def run(self, kind: str, i: int):
        spec = self.specs[i % len(self.specs)][0]
        return ultrasound.synth_phantom(spec)

    def check(self, kind: str, i: int, out) -> str | None:
        spec, inside, outside = self.specs[i % len(self.specs)]
        data = out[0].data
        if data.shape != (spec.nz, spec.nx):
            return f"B-mode shape {data.shape}, expected {(spec.nz, spec.nx)}"
        if not np.all(np.isfinite(data)):
            return "non-finite B-mode"
        if data.min() < 0.0 or data.max() > 1.0:
            return f"B-mode outside [0, 1]: {data.min()}..{data.max()}"
        g = gcnr(out[0], inside, outside)
        if not g > GCNR_FLOOR:
            return f"cyst GCNR {g:.3f} not above {GCNR_FLOOR}"
        return None

    def summary(self, samples: dict, results: dict) -> dict:
        p50 = statistics.median(samples["phantom"])
        return {
            "end_to_end": {"items_per_s": 1.0 / p50, "op_p50_s": p50},
            "workload": {"phantom_images_per_s": 1.0 / p50},
        }


class Denoise:
    """The bench protocol (one ``bench.run_bench`` per method) on a fixed
    set of speckle patches, plus in-process ``usdenoise denoise`` calls."""

    METHODS = ("nlm", "bm3d", "ddpm")
    ROUND = ("nlm", "bm3d", "ddpm", "cli", "cli")
    TRACED_ROUNDS = 1
    PROBE_POINTS = ()

    def __init__(self, size: dict, seed: int):
        self.size = size
        self.seed = seed

    def _config(self, methods, out_dir: Path):
        return bench.BenchConfig(image_dir=str(self.image_dir),
                                 num_images=self.size["images"],
                                 t_starts=T_STARTS, methods=methods,
                                 seed=self.seed, checkpoint=str(self.ckpt),
                                 out_dir=str(out_dir))

    def setup(self, workdir: Path) -> None:
        s = self.size
        self.workdir = workdir
        self.image_dir = workdir / "images"
        self.image_dir.mkdir()
        patches = speckle_patches(s["images"], size=s["image"], seed=self.seed)
        self.pgms = []
        for k, patch in enumerate(patches):
            path = self.image_dir / f"patch{k:02d}.pgm"
            write_pgm(path, Image2D(patch, RANGE_UNIT))
            self.pgms.append(path)
        net_cfg = nnet.UNetConfig(image_size=s["image"])
        self.ckpt = workdir / "model.ckpt"
        self.cli_out = workdir / "cli_out.pgm"
        nnet.save_model(self.ckpt, nnet.init_params(net_cfg, CHECKPOINT_SEED),
                        net_cfg)
        nnet.load_model(self.ckpt)
        # PSNR of the noisy input per image at t=20: the floor NLM and BM3D
        # must beat on every image.
        _, rows = bench.run_bench(self._config(("noisy",), workdir / "noisy"))
        self.noisy_psnr = {r["image"]: r["psnr_db"] for r in rows
                           if r["t_start"] == CLI_T_START}

    def run(self, kind: str, i: int):
        if kind == "cli":
            src = self.pgms[i % len(self.pgms)]
            argv = ["denoise", "--in", str(src), "--ckpt", str(self.ckpt),
                    "--t-start", str(CLI_T_START), "--out", str(self.cli_out)]
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)
        return bench.run_bench(self._config((kind,), self.workdir / kind))[1]

    def check(self, kind: str, i: int, out) -> str | None:
        if kind == "cli":
            if out != 0:
                return f"usdenoise denoise exited {out}"
            shape = read_pgm(self.cli_out).shape
            self.cli_out.unlink()        # the next call must write its own
            if shape != (self.size["image"],) * 2:
                return f"denoised PGM is {shape}"
            return None
        if len(out) != len(T_STARTS) * self.size["images"]:
            return f"{len(out)} rows from run_bench"
        for r in out:
            if not (math.isfinite(r["psnr_db"])
                    and math.isfinite(r["gcnr_percent"])):
                return f"non-finite metrics in {r}"
            if (kind in ("nlm", "bm3d") and r["t_start"] == CLI_T_START
                    and not r["psnr_db"] > self.noisy_psnr[r["image"]]):
                return (f"{kind} PSNR {r['psnr_db']:.2f} dB on {r['image']} "
                        f"does not beat the noisy "
                        f"{self.noisy_psnr[r['image']]:.2f} dB")
        return None

    def summary(self, samples: dict, results: dict) -> dict:
        pairs = len(T_STARTS) * self.size["images"]
        p50 = {k: statistics.median(samples[k]) for k in self.ROUND}
        workload = {}
        for m in self.METHODS:
            workload[f"{m}_images_per_s"] = pairs / p50[m]
        for m in ("nlm", "bm3d"):
            rows = [r for r in results[m] if r["t_start"] == CLI_T_START]
            workload[f"{m}_psnr_db"] = float(np.mean([r["psnr_db"]
                                                      for r in rows]))
        workload["denoise_t20_p50_s"] = p50["cli"]
        workload["denoise_t20.samples"] = len(samples["cli"])
        # Bench rows per second when every (image, t_start) pair runs all
        # three methods, as ``usdenoise bench --methods nlm,bm3d,ddpm`` does.
        rows_per_s = (len(self.METHODS) * pairs
                      / sum(p50[m] for m in self.METHODS))
        return {"end_to_end": {"items_per_s": rows_per_s,
                               "op_p50_s": p50["cli"]},
                "workload": workload}


WORKLOADS = {"train": Train, "phantom": Phantom, "denoise": Denoise}
