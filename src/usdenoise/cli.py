"""Command-line interface.

Subcommands: phantom | corrupt | train | denoise | baseline | beamform |
bench.  Every command accepts --out, and those that draw random numbers
(all but baseline and beamform) --seed; bench also reads a JSON --config.
Exit codes: 0 success, 2 usage/validation error, 3 IO/format error,
4 numeric failure (non-finite samples detected).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from usdenoise import __version__
from usdenoise.baselines import Bm3dConfig, NlmConfig, bm3d_denoise, nlm_denoise
from usdenoise.bench import BenchConfig, DdpmDenoiser, run_bench
from usdenoise.diffusion import DEFAULT_STEPS, forward_jump, make_schedule
from usdenoise.formats import (
    FormatError,
    load_cifar,
    read_pgm,
    read_rf,
    write_pgm,
    write_rf,
)
from usdenoise.image import Image2D, NumericError, to_signed, to_unit_clipped
from usdenoise.nnet import TrainConfig, UNetConfig, load_model, train
from usdenoise.rng import standard_normal, stream
from usdenoise.ultrasound import (
    Cyst,
    ImagingGrid,
    PhantomSpec,
    TransducerGeometry,
    bmode_from_frames,
    speckle_patches,
    synth_phantom,
)


def degree_list(text: str) -> tuple:
    return tuple(math.radians(float(a)) for a in text.split(","))


def int_list(text: str) -> tuple:
    return tuple(int(t) for t in text.split(","))


# ----------------------------------------------------------------- phantom

def cmd_phantom(args) -> int:
    cysts = []
    for spec in args.cyst:
        cx, cz, r, echo = (float(v) for v in spec.split(","))
        cysts.append(Cyst(cx=cx * 1e-3, cz=cz * 1e-3, radius=r * 1e-3,
                          echogenicity=echo))
    geometry = TransducerGeometry(element_count=args.elements)
    spec = PhantomSpec(nx=args.nx, nz=args.nz,
                       width_m=args.width_mm * 1e-3,
                       depth_m=args.depth_mm * 1e-3,
                       z0_m=args.z0_mm * 1e-3,
                       scatterer_density=args.density,
                       cysts=tuple(cysts), seed=args.seed,
                       angles=args.angles,
                       geometry=geometry,
                       dynamic_range_db=args.dynamic_range)
    bmode, frames, masks = synth_phantom(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_pgm(out / "bmode.pgm", bmode)
    for i, frame in enumerate(frames):
        write_rf(out / f"rf_{i:03d}.rf", frame)
    for i, mask in enumerate(masks):
        write_pgm(out / f"mask_{i:02d}.pgm", Image2D(mask))
    (out / "meta.json").write_text(json.dumps({
        "seed": spec.seed, "nx": spec.nx, "nz": spec.nz,
        "width_m": spec.width_m, "depth_m": spec.depth_m, "z0_m": spec.z0_m,
        "scatterer_density": spec.scatterer_density,
        "angles_rad": list(spec.angles),
        "cysts": [[c.cx, c.cz, c.radius, c.echogenicity] for c in cysts],
        "elements": geometry.element_count,
    }, indent=2))
    print(f"wrote B-mode, {len(frames)} RF frames, {len(masks)} masks to {out}")
    return 0


# ----------------------------------------------------------------- corrupt

def cmd_corrupt(args) -> int:
    img = to_signed(read_pgm(args.input))
    if args.t == 0:
        out = img
    else:
        eps = standard_normal(img.shape, args.seed, stream("corrupt", args.t))
        out = forward_jump(img, args.t, make_schedule(), eps)
    write_pgm(args.out, to_unit_clipped(out))
    print(f"corrupted {args.input} at t={args.t} -> {args.out}")
    return 0


# ------------------------------------------------------------------- train

def _load_dataset(source: str, image_size: int, seed: int) -> np.ndarray:
    """Dataset sources: a directory of PGMs, a CIFAR-style .bin batch, or
    ``speckle:N`` for N synthetic patches.  Returns signed (N, H, W)."""
    if source.startswith("speckle:"):
        n = int(source.split(":", 1)[1])
        return speckle_patches(n, size=image_size, seed=seed) * 2.0 - 1.0
    path = Path(source)
    if path.is_dir():
        stacks = [to_signed(read_pgm(p)) for p in sorted(path.glob("*.pgm"))]
        if not stacks:
            raise ValueError(f"no PGM images in {source}")
        return np.stack(stacks)
    images, _ = load_cifar(path, to_gray=True)
    return images


def cmd_train(args) -> int:
    if not 0.0 < args.heldout_frac < 1.0:
        raise ValueError("--heldout-frac must lie in (0, 1)")
    data = _load_dataset(args.data, args.image_size, args.seed)
    n_hold = max(1, int(round(args.heldout_frac * data.shape[0])))
    if data.shape[0] - n_hold < 1:
        raise ValueError("dataset too small for the held-out split")
    train_set, heldout_set = data[:-n_hold], data[-n_hold:]
    cfg = TrainConfig(batch_size=args.batch_size, lr=args.lr,
                      lr_gamma=args.lr_gamma, lr_step_epochs=args.lr_step,
                      epochs=args.epochs, seed=args.seed)
    initial = None
    if args.warm_start:
        initial, net_cfg = load_model(args.warm_start)
        print(f"warm start from {args.warm_start}")
    else:
        net_cfg = UNetConfig(base_channels=args.base_channels,
                             depth=args.depth, time_embed_dim=args.time_dim,
                             image_size=args.image_size)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _, history = train(train_set, make_schedule(), cfg, net_cfg,
                       heldout_set=heldout_set, initial=initial,
                       checkpoint_path=out / "model.ckpt",
                       log_path=out / "loss_log.csv", verbose=True)
    if history:
        print(f"final train_mse {history[-1]['train_mse']:.5f}  "
              f"heldout_l1 {history[-1]['heldout_l1']:.5f}")
    print(f"wrote {out / 'model.ckpt'} and {out / 'loss_log.csv'}")
    return 0


# ----------------------------------------------------------------- denoise

def cmd_denoise(args) -> int:
    img = to_signed(read_pgm(args.input))
    denoiser = DdpmDenoiser(args.ckpt, args.seed if args.inject else None,
                            steps=args.steps)
    out = denoiser(img, args.t_start)
    write_pgm(args.out, to_unit_clipped(out))
    print(f"denoised {args.input} from t={args.t_start} -> {args.out}")
    return 0


# ---------------------------------------------------------------- baseline

def cmd_baseline(args) -> int:
    img = read_pgm(args.input)
    if args.method == "nlm":
        h = NlmConfig.H_FACTOR * args.sigma if args.h is None else args.h
        out = nlm_denoise(img, NlmConfig(patch_radius=args.patch_radius,
                                         search_radius=args.search_radius,
                                         h=h, sigma=args.sigma))
    else:
        out = bm3d_denoise(img, Bm3dConfig(block_size=args.block_size,
                                           max_matches=args.matches,
                                           search_radius=args.search,
                                           hard_threshold=args.threshold,
                                           sigma=args.sigma, stages=args.stages))
    write_pgm(args.out, out)
    print(f"{args.method} denoised {args.input} -> {args.out}")
    return 0


# ---------------------------------------------------------------- beamform

def cmd_beamform(args) -> int:
    rf_dir = Path(args.rf)
    paths = sorted(rf_dir.glob("*.rf")) if rf_dir.is_dir() else [rf_dir]
    if not paths:
        raise ValueError(f"no RF files found at {args.rf}")
    frames = [read_rf(p) for p in paths]
    if args.angles:
        tol = math.radians(0.25)
        frames = [f for f in frames
                  if any(abs(f.steer_angle - w) < tol for w in args.angles)]
        if not frames:
            raise ValueError("no RF frames match the requested angles")
    grid = ImagingGrid.centered(args.nx, args.nz, args.width_mm * 1e-3,
                                args.depth_mm * 1e-3, args.z0_mm * 1e-3)
    if args.compound:
        bmode = bmode_from_frames(frames, grid, args.dynamic_range)
        write_pgm(args.out, bmode)
        print(f"compounded {len(frames)} angle(s) -> {args.out}")
    else:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for i, f in enumerate(frames):
            write_pgm(out / f"bmode_{i:03d}.pgm",
                      bmode_from_frames([f], grid, args.dynamic_range))
        print(f"wrote {len(frames)} single-angle image(s) to {out}")
    return 0


# ------------------------------------------------------------------- bench

def cmd_bench(args) -> int:
    # a flag left out is absent from args, so it keeps the config's value
    given = vars(args)
    cfg = (BenchConfig.from_json(args.config) if "config" in given
           else BenchConfig())
    fields = {f.name for f in dataclasses.fields(BenchConfig)}
    cfg = dataclasses.replace(
        cfg, **{k: v for k, v in given.items() if k in fields})
    run_bench(cfg)
    print((Path(cfg.out_dir) / "report.csv").read_text(), end="")
    print(f"reports written to {cfg.out_dir}")
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=".", help="output file or directory")
    seeded = argparse.ArgumentParser(add_help=False, parents=[out])
    seeded.add_argument("--seed", type=int, default=0,
                        help="deterministic run seed")
    spec = PhantomSpec()
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--nx", type=int, default=spec.nx,
                      help="image columns")
    grid.add_argument("--nz", type=int, default=spec.nz, help="image rows")
    grid.add_argument("--width-mm", type=float, default=spec.width_m * 1e3,
                      help="lateral extent of the image")
    grid.add_argument("--depth-mm", type=float, default=spec.depth_m * 1e3,
                      help="axial extent of the image")
    grid.add_argument("--z0-mm", type=float, default=spec.z0_m * 1e3,
                      help="depth of the first image row")
    grid.add_argument("--dynamic-range", type=float,
                      default=spec.dynamic_range_db,
                      help="B-mode display range in dB")

    p = argparse.ArgumentParser(
        prog="usdenoise",
        description="Speckle-preserving ultrasound denoising toolkit")
    p.add_argument("--version", action="version",
                   version=f"usdenoise {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, **kwargs) -> argparse.ArgumentParser:
        # every flag with a help string shows its default in --help
        return sub.add_parser(
            name, formatter_class=argparse.ArgumentDefaultsHelpFormatter,
            **kwargs)

    q = command("phantom", parents=[seeded, grid],
                help="synthesize a speckle phantom (B-mode + RF + masks)")
    q.add_argument("--density", type=float, default=spec.scatterer_density,
                   help="scatterers per wavelength-squared cell")
    q.add_argument("--cyst", action="append", default=[],
                   help="cx_mm,cz_mm,radius_mm,echogenicity (repeatable)")
    # a string default goes through degree_list, so --help shows degrees
    q.add_argument("--angles", type=degree_list,
                   default=",".join(map(str, PhantomSpec.DEFAULT_ANGLES_DEG)),
                   help="steering angles in deg, comma list")
    q.add_argument("--elements", type=int, default=spec.geometry.element_count,
                   help="transducer elements")
    q.set_defaults(func=cmd_phantom)

    q = command("corrupt", parents=[seeded],
                help="apply the forward corruption process to an image")
    q.add_argument("--in", dest="input", required=True)
    q.add_argument("--t", type=int, required=True, default=argparse.SUPPRESS,
                   help="number of forward steps (0 copies the input)")
    q.set_defaults(func=cmd_corrupt)

    q = command("train", parents=[seeded],
                help="train the noise predictor")
    q.add_argument("--data", required=True, default=argparse.SUPPRESS,
                   help="PGM directory, CIFAR .bin batch, or speckle:N")
    q.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                   help="passes over the training set")
    q.add_argument("--batch-size", type=int, default=TrainConfig.batch_size,
                   help="images per optimizer step")
    q.add_argument("--lr", type=float, default=TrainConfig.lr,
                   help="Adam learning rate")
    q.add_argument("--lr-gamma", type=float, default=TrainConfig.lr_gamma,
                   help="learning-rate decay factor")
    q.add_argument("--lr-step", type=int, default=TrainConfig.lr_step_epochs,
                   help="epochs between learning-rate decays")
    q.add_argument("--warm-start", default=None,
                   help="checkpoint to fine-tune from (lr 4e-4 is customary); "
                        "%(default)s trains from scratch")
    q.add_argument("--heldout-frac", type=float, default=0.15,
                   help="share of the data held out for validation")
    q.add_argument("--base-channels", type=int,
                   default=UNetConfig.base_channels,
                   help="U-Net channels at full resolution")
    q.add_argument("--depth", type=int, default=UNetConfig.depth,
                   help="U-Net down-sampling levels")
    q.add_argument("--time-dim", type=int, default=UNetConfig.time_embed_dim,
                   help="width of the step embedding")
    q.add_argument("--image-size", type=int, default=UNetConfig.image_size,
                   help="U-Net image size, and side of speckle:N patches")
    q.set_defaults(func=cmd_train)

    q = command("denoise", parents=[seeded],
                help="reverse-process denoising with a trained model")
    q.add_argument("--in", dest="input", required=True)
    q.add_argument("--ckpt", required=True)
    q.add_argument("--t-start", type=int, required=True)
    q.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                   help="network calls, evenly spaced from t-start to 0 "
                        "(t-start or more runs every step)")
    q.add_argument("--inject", action="store_true",
                   help="inject fresh noise during posterior sampling")
    q.set_defaults(func=cmd_denoise)

    q = command("baseline", parents=[out],
                help="classical NLM or BM3D denoising")
    q.add_argument("--method", required=True, choices=["nlm", "bm3d"])
    q.add_argument("--in", dest="input", required=True)
    q.add_argument("--sigma", type=float, required=True)
    q.add_argument("--h", type=float, default=None,
                   help=f"NLM strength h; %(default)s means "
                        f"{NlmConfig.H_FACTOR}*sigma")
    q.add_argument("--patch-radius", type=int, default=NlmConfig.patch_radius,
                   help="NLM patch radius")
    q.add_argument("--search-radius", type=int,
                   default=NlmConfig.search_radius, help="NLM search radius")
    q.add_argument("--block-size", type=int, default=Bm3dConfig.block_size,
                   help="BM3D block side")
    q.add_argument("--matches", type=int, default=Bm3dConfig.max_matches,
                   help="BM3D blocks per group")
    q.add_argument("--search", type=int, default=Bm3dConfig.search_radius,
                   help="BM3D search radius")
    q.add_argument("--threshold", type=float,
                   default=Bm3dConfig.hard_threshold,
                   help="BM3D hard threshold, in multiples of sigma")
    q.add_argument("--stages", default=Bm3dConfig.stages, choices=["one", "two"],
                   help="BM3D stages: hard thresholding only, or Wiener too")
    q.set_defaults(func=cmd_baseline)

    q = command("beamform", parents=[out, grid],
                help="delay-and-sum reconstruction from RF files")
    q.add_argument("--rf", required=True, default=argparse.SUPPRESS,
                   help="RF file or directory")
    q.add_argument("--angles", type=degree_list, default=None,
                   help="keep only these steering angles (deg, comma list); "
                        "%(default)s keeps every angle")
    q.add_argument("--compound", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="average all angles into one B-mode")
    q.set_defaults(func=cmd_beamform)

    # each flag's dest is the BenchConfig key it overrides
    q = command("bench", argument_default=argparse.SUPPRESS,
                help="full PSNR/GCNR benchmark over a test set",
                description="Flags left out keep the --config file's values, "
                            "or BenchConfig's defaults without one.")
    q.add_argument("--config", help="JSON BenchConfig file")
    q.add_argument("--seed", type=int, help="deterministic run seed")
    q.add_argument("--out", dest="out_dir", help="output directory")
    q.add_argument("--ckpt", dest="checkpoint",
                   help="model checkpoint for ddpm")
    q.add_argument("--methods", type=lambda text: tuple(text.split(",")),
                   help="comma list from noisy,nlm,bm3d,ddpm")
    q.add_argument("--t-starts", type=int_list,
                   help="comma list of step counts")
    q.add_argument("--images", dest="num_images", type=int,
                   help="number of test images")
    q.add_argument("--image-dir",
                   help="PGM test images; without it, phantoms are synthesized")
    q.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OverflowError, MemoryError) as exc:
        # so are arguments too large to compute with or to allocate for
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
