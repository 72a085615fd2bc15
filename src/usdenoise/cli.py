"""Command-line interface.

Subcommands: phantom | corrupt | train | denoise | baseline | beamform |
bench.  Every command accepts --seed, --config (JSON), and --out.  Exit
codes: 0 success, 2 usage/validation error, 3 IO/format error, 4 numeric
failure (non-finite samples detected).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from usdenoise import COMPILED_KERNELS, __version__
from usdenoise.baselines import Bm3dConfig, NlmConfig, bm3d_denoise, nlm_denoise
from usdenoise.bench import (
    BenchConfig,
    DdpmDenoiser,
    NumericError,
    check_finite,
    run_bench,
)
from usdenoise.diffusion import (
    PAPER_LITERAL,
    STANDARD_POSTERIOR,
    forward_jump,
    make_schedule,
)
from usdenoise.formats import (
    FormatError,
    image_from_pgm_signed,
    load_cifar,
    read_pgm,
    read_rf,
    write_pgm,
    write_rf,
)
from usdenoise.image import RANGE_EIGHT_BIT, RANGE_UNIT, Image2D
from usdenoise.nnet import TrainConfig, UNetConfig, load_model, train
from usdenoise.rng import GaussianField
from usdenoise.ultrasound import (
    Cyst,
    ImagingGrid,
    PhantomSpec,
    TransducerGeometry,
    bmode_from_frames,
    speckle_patches,
    synth_phantom,
)


def _write_image(path, img: Image2D) -> None:
    check_finite(str(path), img.data)
    write_pgm(path, img)


def _parse_angles(text: str) -> tuple:
    return tuple(math.radians(float(a)) for a in text.split(","))


# ----------------------------------------------------------------- phantom

def cmd_phantom(args) -> int:
    cysts = []
    for spec in args.cyst or []:
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
                       angles=_parse_angles(args.angles),
                       geometry=geometry,
                       dynamic_range_db=args.dynamic_range)
    bmode, frames, masks = synth_phantom(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_image(out / "bmode.pgm", bmode)
    for i, frame in enumerate(frames):
        write_rf(out / f"rf_{i:03d}.rf", frame)
    for i, mask in enumerate(masks):
        _write_image(out / f"mask_{i:02d}.pgm",
                     Image2D(mask.mask * 255.0, RANGE_EIGHT_BIT))
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
    img = image_from_pgm_signed(args.input)
    if args.t == 0:
        out = img
    else:
        sched = make_schedule(args.T, "constant-beta", args.beta)
        eps = GaussianField(img.shape, args.seed, draw_index=args.t)
        out = forward_jump(img, args.t, sched, eps)
    unit = Image2D(np.clip((out.data + 1.0) / 2.0, 0.0, 1.0), RANGE_UNIT)
    _write_image(args.out, unit)
    print(f"corrupted {args.input} at t={args.t} -> {args.out}")
    return 0


# ------------------------------------------------------------------- train

def _load_dataset(source: str, image_size: int, seed: int) -> np.ndarray:
    """Dataset sources: a directory of PGMs, a CIFAR-style .bin batch, or
    ``speckle:N`` for N synthetic patches.  Returns signed-unit (N, H, W)."""
    if source.startswith("speckle:"):
        n = int(source.split(":", 1)[1])
        return speckle_patches(n, size=image_size, seed=seed) * 2.0 - 1.0
    path = Path(source)
    if path.is_dir():
        stacks = [image_from_pgm_signed(p).data
                  for p in sorted(path.glob("*.pgm"))]
        if not stacks:
            raise ValueError(f"no PGM images in {source}")
        return np.stack(stacks)
    images, _ = load_cifar(path, to_gray=True)
    return images


def cmd_train(args) -> int:
    data = _load_dataset(args.data, args.image_size, args.seed)
    n_hold = max(1, int(round(args.heldout_frac * data.shape[0])))
    if data.shape[0] - n_hold < 1:
        raise ValueError("dataset too small for the held-out split")
    train_set, heldout_set = data[:-n_hold], data[-n_hold:]
    sched = make_schedule(args.T, "constant-beta", args.beta)
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
    _, history = train(train_set, sched, cfg, net_cfg,
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
    img = image_from_pgm_signed(args.input)
    denoiser = DdpmDenoiser(args.ckpt, args.variant,
                            inject_seed=args.seed if args.inject else None)
    sched = make_schedule(args.T, "constant-beta", args.beta)
    out = denoiser(img, args.t_start, sched)
    unit = Image2D(np.clip((check_finite("denoise", out) + 1.0) / 2.0,
                           0.0, 1.0), RANGE_UNIT)
    _write_image(args.out, unit)
    print(f"denoised {args.input} from t={args.t_start} ({args.variant}) "
          f"-> {args.out}")
    return 0


# ---------------------------------------------------------------- baseline

def cmd_baseline(args) -> int:
    img = read_pgm(args.input).to_range(RANGE_UNIT)
    if args.method == "nlm":
        out = nlm_denoise(img, NlmConfig(patch_radius=args.patch_radius,
                                         search_radius=args.search_radius,
                                         h=args.h if args.h else 0.55 * args.sigma,
                                         sigma=args.sigma))
    else:
        out = bm3d_denoise(img, Bm3dConfig(block_size=args.block_size,
                                           max_matches=args.matches,
                                           search_radius=args.search,
                                           hard_threshold=args.threshold,
                                           sigma=args.sigma,
                                           stages=args.stages))
    _write_image(args.out, out)
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
        wanted = _parse_angles(args.angles)
        tol = math.radians(0.25)
        frames = [f for f in frames
                  if any(abs(f.steer_angle - w) < tol for w in wanted)]
        if not frames:
            raise ValueError("no RF frames match the requested angles")
    grid = ImagingGrid.centered(args.nx, args.nz, args.width_mm * 1e-3,
                                args.depth_mm * 1e-3, args.z0_mm * 1e-3)
    if args.compound:
        bmode = bmode_from_frames(frames, grid, args.dynamic_range)
        _write_image(args.out, bmode)
        print(f"compounded {len(frames)} angle(s) -> {args.out}")
    else:
        from usdenoise.ultrasound import das_beamform, envelope_image, log_compress
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for i, f in enumerate(frames):
            env = envelope_image(das_beamform(f, grid).data)
            _write_image(out / f"bmode_{i:03d}.pgm",
                         log_compress(env, args.dynamic_range))
        print(f"wrote {len(frames)} single-angle image(s) to {out}")
    return 0


# ------------------------------------------------------------------- bench

def cmd_bench(args) -> int:
    if args.config:
        cfg = BenchConfig.from_json(args.config)
    else:
        cfg = BenchConfig()
    overrides = {}
    if args.out != ".":
        overrides["out_dir"] = args.out
    if args.seed_given:
        overrides["seed"] = args.seed
    if args.ckpt:
        overrides["checkpoint"] = args.ckpt
    if args.methods:
        overrides["methods"] = tuple(args.methods.split(","))
    if args.t_starts:
        overrides["t_starts"] = tuple(int(t) for t in args.t_starts.split(","))
    if args.images:
        overrides["num_images"] = args.images
    if args.image_dir:
        overrides["image_dir"] = args.image_dir
    if overrides:
        merged = {**{k: getattr(cfg, k) for k in cfg.__dataclass_fields__},
                  **overrides}
        cfg = BenchConfig(**merged)
    report, _ = run_bench(cfg)
    print(report.to_csv(), end="")
    print(f"reports written to {cfg.out_dir}")
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="deterministic run seed (default 0)")
    common.add_argument("--config", default=None,
                        help="JSON config file (bench)")
    common.add_argument("--out", default=".",
                        help="output file or directory")

    p = argparse.ArgumentParser(
        prog="usdenoise",
        description="Speckle-preserving ultrasound denoising toolkit")
    p.add_argument("--version", action="version",
                   version=f"usdenoise {__version__} "
                           f"(compiled kernels: {COMPILED_KERNELS})")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("phantom", parents=[common],
                       help="synthesize a speckle phantom (B-mode + RF + masks)")
    q.add_argument("--nx", type=int, default=64)
    q.add_argument("--nz", type=int, default=64)
    q.add_argument("--width-mm", type=float, default=6.4)
    q.add_argument("--depth-mm", type=float, default=6.4)
    q.add_argument("--z0-mm", type=float, default=6.8)
    q.add_argument("--density", type=float, default=8.0,
                   help="scatterers per wavelength-squared cell")
    q.add_argument("--cyst", action="append",
                   help="cx_mm,cz_mm,radius_mm,echogenicity (repeatable)")
    q.add_argument("--angles", default="-5,0,5", help="steering angles in deg")
    q.add_argument("--elements", type=int, default=128)
    q.add_argument("--dynamic-range", type=float, default=60.0)
    q.set_defaults(func=cmd_phantom)

    q = sub.add_parser("corrupt", parents=[common],
                       help="apply the forward corruption process to an image")
    q.add_argument("--in", dest="input", required=True)
    q.add_argument("--t", type=int, required=True,
                   help="number of forward steps (0 copies the input)")
    q.add_argument("--T", type=int, default=300)
    q.add_argument("--beta", type=float, default=1.0 / 300.0)
    q.set_defaults(func=cmd_corrupt)

    q = sub.add_parser("train", parents=[common],
                       help="train the noise predictor")
    q.add_argument("--data", required=True,
                   help="PGM directory, CIFAR .bin batch, or speckle:N")
    q.add_argument("--epochs", type=int, default=30)
    q.add_argument("--batch-size", type=int, default=16)
    q.add_argument("--lr", type=float, default=1e-3)
    q.add_argument("--lr-gamma", type=float, default=0.3)
    q.add_argument("--lr-step", type=int, default=50)
    q.add_argument("--warm-start", default=None,
                   help="checkpoint to fine-tune from (lr 4e-4 is customary)")
    q.add_argument("--heldout-frac", type=float, default=0.15)
    q.add_argument("--base-channels", type=int, default=16)
    q.add_argument("--depth", type=int, default=2)
    q.add_argument("--time-dim", type=int, default=32)
    q.add_argument("--image-size", type=int, default=32)
    q.add_argument("--T", type=int, default=300)
    q.add_argument("--beta", type=float, default=1.0 / 300.0)
    q.set_defaults(func=cmd_train)

    q = sub.add_parser("denoise", parents=[common],
                       help="reverse-process denoising with a trained model")
    q.add_argument("--in", dest="input", required=True)
    q.add_argument("--ckpt", required=True)
    q.add_argument("--t-start", type=int, required=True)
    q.add_argument("--variant", default=STANDARD_POSTERIOR,
                   choices=[STANDARD_POSTERIOR, PAPER_LITERAL])
    q.add_argument("--inject", action="store_true",
                   help="inject fresh noise during posterior sampling")
    q.add_argument("--T", type=int, default=300)
    q.add_argument("--beta", type=float, default=1.0 / 300.0)
    q.set_defaults(func=cmd_denoise)

    q = sub.add_parser("baseline", parents=[common],
                       help="classical NLM or BM3D denoising")
    q.add_argument("--method", required=True, choices=["nlm", "bm3d"])
    q.add_argument("--in", dest="input", required=True)
    q.add_argument("--sigma", type=float, required=True)
    q.add_argument("--h", type=float, default=None,
                   help="NLM filtering strength (default 0.55*sigma)")
    q.add_argument("--patch-radius", type=int, default=2)
    q.add_argument("--search-radius", type=int, default=7)
    q.add_argument("--block-size", type=int, default=8)
    q.add_argument("--matches", type=int, default=16)
    q.add_argument("--search", type=int, default=19)
    q.add_argument("--threshold", type=float, default=2.7)
    q.add_argument("--stages", default="two", choices=["one", "two"])
    q.set_defaults(func=cmd_baseline)

    q = sub.add_parser("beamform", parents=[common],
                       help="delay-and-sum reconstruction from RF files")
    q.add_argument("--rf", required=True, help="RF file or directory")
    q.add_argument("--angles", default=None,
                   help="keep only these steering angles (deg, comma list)")
    q.add_argument("--compound", action=argparse.BooleanOptionalAction,
                   default=True)
    q.add_argument("--nx", type=int, default=64)
    q.add_argument("--nz", type=int, default=64)
    q.add_argument("--width-mm", type=float, default=6.4)
    q.add_argument("--depth-mm", type=float, default=6.4)
    q.add_argument("--z0-mm", type=float, default=6.8)
    q.add_argument("--dynamic-range", type=float, default=60.0)
    q.set_defaults(func=cmd_beamform)

    q = sub.add_parser("bench", parents=[common],
                       help="full PSNR/GCNR benchmark over a test set")
    q.add_argument("--ckpt", default=None)
    q.add_argument("--methods", default=None,
                   help="comma list from noisy,nlm,bm3d,ddpm")
    q.add_argument("--t-starts", default=None, help="comma list of step counts")
    q.add_argument("--images", type=int, default=None)
    q.add_argument("--image-dir", default=None)
    q.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    args.seed_given = "--seed" in argv
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
    except (ValueError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
