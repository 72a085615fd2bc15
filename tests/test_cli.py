import ast
import dataclasses
import inspect
import json
import math
import warnings

import numpy as np
import pytest

from usdenoise import __version__, cli, diffusion
from usdenoise.baselines import Bm3dConfig, NlmConfig
from usdenoise.bench import BenchConfig
from usdenoise.cli import main
from usdenoise.diffusion import make_schedule
from usdenoise.formats import (
    HeaderError,
    read_checkpoint,
    read_pgm,
    read_rf,
    write_checkpoint,
    write_pgm,
    write_rf,
)
from usdenoise.image import Image2D
from usdenoise.metrics import psnr
from usdenoise.nnet import (
    TrainConfig,
    UNetConfig,
    init_params,
    load_model,
    save_model,
)
from usdenoise.rng import standard_normal
from usdenoise.ultrasound import Cyst, PhantomSpec, TransducerGeometry, phantom


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def phantom_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("phantom")
    code = run_cli("phantom", "--out", out, "--seed", 7, "--elements", 64,
                   "--cyst", "0,10,1.5,0.0")
    assert code == 0
    return out


def test_phantom_outputs_deterministic(tmp_path, phantom_dir):
    again = tmp_path / "again"
    assert run_cli("phantom", "--out", again, "--seed", 7, "--elements", 64,
                   "--cyst", "0,10,1.5,0.0") == 0
    for name in ("bmode.pgm", "rf_000.rf", "rf_001.rf", "mask_00.pgm"):
        assert (again / name).read_bytes() == (phantom_dir / name).read_bytes()


def test_phantom_cyst_outside_grid_exits_2(tmp_path, capsys):
    code = run_cli("phantom", "--out", tmp_path / "bad", "--seed", 1,
                   "--cyst", "10,10,2,0.0")
    assert code == 2
    assert "outside the grid" in capsys.readouterr().err


def test_corrupt_t0_copies_input(tmp_path, phantom_dir):
    out = tmp_path / "copy.pgm"
    assert run_cli("corrupt", "--in", phantom_dir / "bmode.pgm",
                   "--t", 0, "--out", out) == 0
    assert out.read_bytes() == (phantom_dir / "bmode.pgm").read_bytes()


def test_corrupt_more_steps_hurt_more(tmp_path, phantom_dir):
    clean = read_pgm(phantom_dir / "bmode.pgm").data
    psnrs = {}
    for t in (10, 20):
        out = tmp_path / f"n{t}.pgm"
        assert run_cli("corrupt", "--in", phantom_dir / "bmode.pgm",
                       "--t", t, "--seed", 3, "--out", out) == 0
        psnrs[t] = psnr(clean, read_pgm(out).data, 1.0)
    assert psnrs[20] < psnrs[10]


def test_corrupt_reproducible(tmp_path, phantom_dir):
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    for out in (a, b):
        assert run_cli("corrupt", "--in", phantom_dir / "bmode.pgm",
                       "--t", 15, "--seed", 9, "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()


def test_malformed_input_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n4 4\n255\nxx")  # truncated payload
    assert run_cli("corrupt", "--in", bad, "--t", 5,
                   "--out", tmp_path / "o.pgm") == 3
    assert "format error" in capsys.readouterr().err


def test_missing_file_exits_3(tmp_path):
    assert run_cli("corrupt", "--in", tmp_path / "nope.pgm", "--t", 5,
                   "--out", tmp_path / "o.pgm") == 3


def test_usage_error_exits_2():
    assert run_cli("corrupt", "--t", "5") == 2        # missing --in
    assert run_cli("frobnicate") == 2                 # unknown command
    assert run_cli("baseline", "--method", "wiener",  # bad choice
                   "--in", "x.pgm", "--sigma", "0.1") == 2
    assert run_cli("denoise", "--in", "x.pgm",        # removed option
                   "--ckpt", "m.ckpt", "--t-start", "3",
                   "--variant", "paper-literal") == 2


def test_baseline_roundtrip(tmp_path, phantom_dir):
    noisy = tmp_path / "noisy.pgm"
    assert run_cli("corrupt", "--in", phantom_dir / "bmode.pgm",
                   "--t", 10, "--seed", 2, "--out", noisy) == 0
    out = tmp_path / "nlm.pgm"
    assert run_cli("baseline", "--method", "nlm", "--in", noisy,
                   "--sigma", 0.09, "--out", out) == 0
    clean = read_pgm(phantom_dir / "bmode.pgm").data
    assert (psnr(clean, read_pgm(out).data, 1.0)
            > psnr(clean, read_pgm(noisy).data, 1.0))


def test_beamform_matches_phantom_bmode(tmp_path, phantom_dir):
    out = tmp_path / "bf.pgm"
    assert run_cli("beamform", "--rf", phantom_dir, "--out", out,
                   "--elements" if False else "--nx", 64, "--nz", 64) == 0
    # reconstructing from the written RF frames reproduces the phantom B-mode
    assert np.array_equal(read_pgm(out).data,
                          read_pgm(phantom_dir / "bmode.pgm").data)


def test_beamform_angle_filter(tmp_path, phantom_dir):
    out = tmp_path / "single"
    assert run_cli("beamform", "--rf", phantom_dir, "--angles", "0",
                   "--no-compound", "--out", out) == 0
    assert (out / "bmode_000.pgm").exists()
    assert not (out / "bmode_001.pgm").exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_beamform_non_finite_rf_exits_4_without_warnings(tmp_path, capsys,
                                                         bad):
    # DAS checks its sum for finiteness: past it, the envelope FFT warns
    # "invalid value" on stderr before the B-mode's own check gives exit 4
    rf_dir = tmp_path / "rf"
    assert run_cli("phantom", "--out", rf_dir, "--elements", 16,
                   "--angles", "0") == 0
    frame = read_rf(rf_dir / "rf_000.rf")
    frame.samples[3, 600] = bad     # inside the imaged window
    write_rf(rf_dir / "rf_000.rf", frame)
    capsys.readouterr()
    for mode in ("--compound", "--no-compound"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("beamform", "--rf", rf_dir, mode,
                           "--out", tmp_path / "bf") == 4
        err = capsys.readouterr().err
        assert "numeric failure" in err and "RuntimeWarning" not in err


def test_train_and_denoise_cycle(tmp_path, phantom_dir):
    tr = tmp_path / "tr"
    assert run_cli("train", "--data", "speckle:24", "--epochs", 1,
                   "--batch-size", 8, "--out", tr, "--seed", 5,
                   "--base-channels", 8, "--depth", 1) == 0
    assert (tr / "model.ckpt").exists()
    log = (tr / "loss_log.csv").read_text().strip().split("\n")
    assert log[0] == "epoch,train_mse,heldout_l1,lr"
    assert len(log) == 2
    noisy = tmp_path / "noisy.pgm"
    assert run_cli("corrupt", "--in", phantom_dir / "bmode.pgm",
                   "--t", 10, "--seed", 2, "--out", noisy) == 0
    out = tmp_path / "dn.pgm"
    assert run_cli("denoise", "--in", noisy, "--ckpt", tr / "model.ckpt",
                   "--t-start", 10, "--out", out) == 0
    assert read_pgm(out).data.shape == (64, 64)


def test_denoise_extent_not_divisible_by_depth_exits_2(tmp_path, capsys):
    net_cfg = UNetConfig(base_channels=4, depth=2, time_embed_dim=8,
                         image_size=8)
    ckpt = tmp_path / "m.ckpt"
    save_model(ckpt, init_params(net_cfg, seed=0), net_cfg)
    src = tmp_path / "odd.pgm"
    write_pgm(src, Image2D(np.full((66, 66), 0.5, dtype=np.float32)))
    assert run_cli("denoise", "--in", src, "--ckpt", ckpt, "--t-start", 3,
                   "--out", tmp_path / "dn.pgm") == 2
    assert "not divisible" in capsys.readouterr().err
    assert not (tmp_path / "dn.pgm").exists()


def _two_channel_checkpoint(tmp_path):
    # a valid checkpoint whose network wants two input channels, so it
    # cannot run on a one-channel PGM
    net_cfg = UNetConfig(in_channels=2, base_channels=4, depth=1,
                         time_embed_dim=8, image_size=16)
    ckpt = tmp_path / "two.ckpt"
    save_model(ckpt, init_params(net_cfg, seed=0), net_cfg)
    return ckpt


def test_denoise_checkpoint_channel_mismatch_exits_2(tmp_path, capsys):
    # the U-Net's ValueError left cli.main wrapped in a RuntimeError (exit 1)
    ckpt = _two_channel_checkpoint(tmp_path)
    src = tmp_path / "in.pgm"
    write_pgm(src, Image2D(np.full((16, 16), 0.5, dtype=np.float32)))
    assert run_cli("denoise", "--in", src, "--ckpt", ckpt, "--t-start", 3,
                   "--out", tmp_path / "dn.pgm") == 2
    assert "expected 2 input channels, got 1" in capsys.readouterr().err
    assert not (tmp_path / "dn.pgm").exists()


def test_bench_ddpm_checkpoint_channel_mismatch_exits_2(tmp_path, capsys):
    ckpt = _two_channel_checkpoint(tmp_path)
    images = tmp_path / "imgs"
    images.mkdir()
    write_pgm(images / "a.pgm",
              Image2D(np.full((32, 32), 0.5, dtype=np.float32)))
    out = tmp_path / "bench"
    assert run_cli("bench", "--methods", "ddpm", "--ckpt", ckpt,
                   "--image-dir", images, "--images", 1, "--t-starts", 3,
                   "--out", out) == 2
    assert "expected 2 input channels, got 1" in capsys.readouterr().err
    assert not (out / "per_image.csv").exists()
    assert not (out / "report.csv").exists()


def test_bench_cli_with_config(tmp_path):
    cfg = {"methods": ["noisy"], "t_starts": [10, 20], "num_images": 2,
           "phantom_nx": 32, "phantom_nz": 32, "phantom_elements": 32,
           "phantom_angles_deg": [0.0], "seed": 3,
           "out_dir": str(tmp_path / "bench")}
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("bench", "--config", cfg_path) == 0
    csv = (tmp_path / "bench" / "report.csv").read_text().strip().split("\n")
    assert csv[0] == "method,t_start,psnr_db,gcnr_percent,speckle_ratio"
    assert len(csv) == 3
    p10 = float(csv[1].split(",")[2])
    p20 = float(csv[2].split(",")[2])
    assert p20 < p10


def test_bench_ddpm_without_ckpt_exits_2(tmp_path, monkeypatch):
    import usdenoise.bench as bench

    def no_phantoms(cfg):
        raise AssertionError("built the test set before checking --ckpt")

    # the checkpoint is checked before any phantom is synthesized
    monkeypatch.setattr(bench, "make_phantom_set", no_phantoms)
    assert run_cli("bench", "--methods", "ddpm", "--images", 1,
                   "--out", tmp_path) == 2


def _small_bench_config(tmp_path, **extra):
    cfg = {"methods": ["noisy"], "t_starts": [10], "num_images": 1,
           "phantom_nx": 32, "phantom_nz": 32, "phantom_elements": 32,
           "phantom_angles_deg": [0.0], "seed": 3,
           "out_dir": str(tmp_path / "from_config"), **extra}
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(cfg))
    return path


def test_bench_overrides_given_with_equals_are_kept(tmp_path):
    # "--seed" in argv missed "--seed=5", so the config's seed was recorded
    cfg_path = _small_bench_config(tmp_path)
    out = tmp_path / "given"
    assert run_cli("bench", "--config", cfg_path, "--seed=5",
                   f"--out={out}") == 0
    meta = json.loads((out / "report.json").read_text())["metadata"]
    assert meta["seed"] == 5
    assert meta["out_dir"] == str(out)
    assert not (tmp_path / "from_config").exists()


def test_bench_absent_overrides_keep_the_config(tmp_path):
    assert run_cli("bench", "--config", _small_bench_config(tmp_path)) == 0
    meta = json.loads(
        (tmp_path / "from_config" / "report.json").read_text())["metadata"]
    assert meta["seed"] == 3
    assert meta["num_images"] == 1


# keys that BenchConfig once had, each at the value it defaulted to: the
# baselines, the phantom density and the masks are set by their library
# types, and the schedule is the package's, so a config that sets one is
# refused, not ignored
REMOVED_BENCH_KEYS = {
    "phantom_density": PhantomSpec.scatterer_density, "cyst_radius_mm": 1.5,
    "cyst_echogenicity": Cyst.echogenicity, "gcnr_bins": 64,
    "mask_erode_px": 2, "nlm_patch_radius": NlmConfig.patch_radius,
    "nlm_search_radius": NlmConfig.search_radius,
    "nlm_h_factor": NlmConfig.H_FACTOR,
    "bm3d_block_size": Bm3dConfig.block_size,
    "bm3d_max_matches": Bm3dConfig.max_matches,
    "bm3d_search_radius": Bm3dConfig.search_radius,
    "bm3d_hard_threshold": Bm3dConfig.hard_threshold,
    "bm3d_stages": Bm3dConfig.stages,
    "schedule_T": diffusion.DEFAULT_T, "schedule_beta": diffusion.DEFAULT_BETA,
}


@pytest.mark.parametrize("config", [
    5, [1, 2], {"t_starts": 10}, {"t_starts": [10.0]}, {"t_starts": ["10"]},
    {"methods": "noisy"}, {"methods": [1]}, {"num_images": "2"},
    {"num_images": True}, {"seed": 1.5}, {"image_dir": 3},
    {"out_dir": None}, {"out_dir": 7}, {"checkpoint": 1},
    {"schedule_beta": "0.01"}, {"phantom_angles_deg": 0.0},
    {"methods": ["noisy"], "bm3d_stages": "three"},
    {"methods": ["noisy"], "bm3d_block_size": 5},
    {"methods": ["noisy"], "nlm_h_factor": -1.0},
    {"methods": ["noisy"], "gcnr_bins": 8},
    {"methods": ["noisy"], "variant": "paper-literal"},
    {"methods": ["noisy"], "psnr_formula": "paper-literal"},
    {"methods": ["noisy"], "mask_erode_px": -3},
    {"methods": ["noisy"], "ddpm_steps": 0},
    {"methods": ["noisy"], "ddpm_steps": 2.5},
    *({"methods": ["noisy"], key: value}
      for key, value in REMOVED_BENCH_KEYS.items()),
])
def test_bench_config_of_the_wrong_json_type_exits_2(tmp_path, monkeypatch,
                                                     capsys, config):
    # a TypeError from BenchConfig(**raw) escaped main() as exit 1; bad
    # baseline keys were written to report.json unchecked, and a bad
    # gcnr_bins was caught only after the phantoms were synthesized
    import usdenoise.bench as bench

    def no_phantoms(cfg):
        raise AssertionError("built the test set from an invalid config")

    monkeypatch.setattr(bench, "make_phantom_set", no_phantoms)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(config))
    assert run_cli("bench", "--config", path, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert "invalid input" in err
    unknown = (sorted(set(config) - {f.name for f in dataclasses.fields(
        BenchConfig)}) if isinstance(config, dict) else [])
    if unknown:   # keys of a removed option or setting
        assert f"unknown config keys: {unknown}" in err
    if isinstance(config, dict) and "ddpm_steps" in config:
        assert "ddpm_steps" in err


def test_bench_image_dir_too_small_for_the_masks_exits_2_first(
        tmp_path, monkeypatch, capsys):
    # a 16x16 image ran the first method, then failed in gcnr
    import usdenoise.bench as bench

    def no_runs(*args):
        raise AssertionError("ran a method on an image the masks do not fit")

    monkeypatch.setattr(bench, "run_method", no_runs)
    images = tmp_path / "imgs"
    images.mkdir()
    write_pgm(images / "small.pgm",
              Image2D(np.full((16, 16), 0.5, dtype=np.float32)))
    assert run_cli("bench", "--methods", "noisy,nlm,bm3d",
                   "--image-dir", images, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "small.pgm" in err
    assert "each region needs at least 32 pixels" in err


def _refuse(token):
    raise ValueError(f"not strict JSON: {token}")


def test_bench_report_json_is_strict_with_a_flat_image(tmp_path):
    # a flat background's NaN speckle ratio was written as the token NaN
    images = tmp_path / "imgs"
    images.mkdir()
    write_pgm(images / "flat.pgm",
              Image2D(np.full((64, 64), 0.5, dtype=np.float32)))
    out = tmp_path / "out"
    assert run_cli("bench", "--methods", "noisy", "--t-starts", 10,
                   "--image-dir", images, "--out", out) == 0
    report = json.loads((out / "report.json").read_text(),
                        parse_constant=_refuse)
    assert report["rows"][0]["speckle_ratio"] is None
    assert (out / "report.csv").read_text().splitlines()[1].endswith(",nan")


@pytest.mark.parametrize("argv", [
    ("--methods", "noisy,noisy", "--t-starts", "10"),
    ("--methods", "noisy", "--t-starts", "10,10"),
])
def test_bench_duplicate_methods_or_t_starts_exit_2(tmp_path, capsys, argv):
    # each duplicate was run again and reported twice in report.csv
    assert run_cli("bench", *argv, "--images", 1, "--out", tmp_path) == 2
    assert "twice" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_bench_zero_images_exits_2(tmp_path, monkeypatch, capsys):
    import usdenoise.bench as bench

    def no_phantoms(cfg):
        raise AssertionError("--images 0 fell back to the default count")

    # "if args.images:" dropped a zero, so 16 phantoms ran
    monkeypatch.setattr(bench, "make_phantom_set", no_phantoms)
    assert run_cli("bench", "--methods", "noisy", "--images", 0,
                   "--out", tmp_path) == 2
    assert "num_images" in capsys.readouterr().err


def test_phantom_non_finite_size_exits_2(tmp_path, capsys):
    # the scatterer count rounded inf and raised OverflowError (exit 1)
    assert run_cli("phantom", "--width-mm", "inf", "--out", tmp_path) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "bmode.pgm").exists()


def test_phantom_overflowing_sizes_exit_2(tmp_path, monkeypatch, capsys):
    # the scatterer count rounded an infinite product and the
    # OverflowError escaped main (exit 1); later these exited 2 with a
    # message that named no argument, after drawing the scatterers
    def no_synthesis(*args, **kwargs):
        pytest.fail("synth_rf called with an overflowing size")

    monkeypatch.setattr(phantom, "synth_rf", no_synthesis)
    for argv, named in ((["--density", "1e308"], "scatterer_density"),
                        (["--density", "1e300"], "scatterer_density"),
                        (["--width-mm", "1e306"], "width_m"),
                        (["--depth-mm", "1e308"], "depth_m"),
                        (["--z0-mm", "1e308"], "z0_m")):
        assert run_cli("phantom", *argv, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert "invalid input" in err and "Traceback" not in err
        assert named in err
    assert not (tmp_path / "bmode.pgm").exists()


def test_out_of_memory_exits_2(tmp_path, monkeypatch, capsys):
    # an allocation too large for the machine escaped main (exit 1)
    def too_large(spec):
        raise MemoryError("Unable to allocate 67.1 TiB")

    monkeypatch.setattr(cli, "synth_phantom", too_large)
    assert run_cli("phantom", "--out", tmp_path) == 2
    assert "invalid input: Unable to allocate" in capsys.readouterr().err


def test_phantom_bad_angles_exit_2_before_synthesis(tmp_path, monkeypatch,
                                                    capsys):
    # --angles 0,0,60 synthesized every frame before RFFrame rejected it,
    # inf exited with "math domain error" and nan with a float conversion
    def no_synthesis(*args, **kwargs):
        pytest.fail("synth_rf called with an invalid steering angle")

    monkeypatch.setattr(phantom, "synth_rf", no_synthesis)
    for angles in ("0,0,60", "inf", "nan", "-45"):
        assert run_cli("phantom", f"--angles={angles}",
                       "--out", tmp_path) == 2
        assert "steering angles" in capsys.readouterr().err
    assert not (tmp_path / "bmode.pgm").exists()


def test_phantom_two_elements_exit_2_before_synthesis(tmp_path, monkeypatch,
                                                     capsys):
    # np.hanning(2) is [0, 0]: every frame was synthesized, then the run
    # exited 2 with "all-zero envelope cannot be log-compressed"
    def no_synthesis(*args, **kwargs):
        pytest.fail("synth_rf called for a 2-element array")

    monkeypatch.setattr(phantom, "synth_rf", no_synthesis)
    assert run_cli("phantom", "--elements", "2", "--out", tmp_path) == 2
    assert "receive window" in capsys.readouterr().err
    assert not (tmp_path / "bmode.pgm").exists()


def test_phantom_non_positive_dynamic_range_exits_2_before_synthesis(
        tmp_path, monkeypatch, capsys):
    # log_compress rejected it only after every frame was synthesized
    def no_synthesis(*args, **kwargs):
        pytest.fail("synth_rf called with a non-positive dynamic range")

    monkeypatch.setattr(phantom, "synth_rf", no_synthesis)
    for dynamic_range in ("0", "-20"):
        assert run_cli("phantom", f"--dynamic-range={dynamic_range}",
                       "--out", tmp_path) == 2
        assert "dynamic range must be positive" in capsys.readouterr().err
    assert not (tmp_path / "bmode.pgm").exists()


def test_train_divergence_exits_4_without_a_checkpoint(tmp_path, capsys):
    # a diverging run printed train_mse nan, wrote a NaN checkpoint and
    # loss log, and exited 0
    with pytest.warns(RuntimeWarning):
        code = run_cli("train", "--data", "speckle:40", "--epochs", 2,
                       "--lr", "1e30", "--out", tmp_path)
    assert code == 4
    assert "training diverged" in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()
    assert not (tmp_path / "loss_log.csv").exists()


def test_train_non_finite_arguments_exit_2(tmp_path, capsys):
    # round(inf * N) raised OverflowError (exit 1), and a NaN learning rate
    # passed "lr <= 0" and wrote a NaN checkpoint (exit 0)
    for argv, named in ((["--heldout-frac", "inf"], "--heldout-frac"),
                        (["--lr", "nan"], "learning rate"),
                        (["--lr", "inf"], "learning rate")):
        assert run_cli("train", "--data", "speckle:8", "--epochs", 1, *argv,
                       "--out", tmp_path) == 2
        assert named in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


def test_beamform_and_cyst_bad_geometry_exits_2(tmp_path, phantom_dir,
                                                capsys):
    # --nx 0 raised ZeroDivisionError (exit 1), an infinite dynamic range
    # made a non-finite image (exit 4), and a NaN cyst passed every check
    out = tmp_path / "b.pgm"
    for argv in (["beamform", "--rf", phantom_dir, "--nx", 0],
                 ["beamform", "--rf", phantom_dir, "--dynamic-range", "inf"],
                 ["phantom", "--cyst", "nan,10,1,0"]):
        assert run_cli(*argv, "--out", out) == 2
        assert "invalid input" in capsys.readouterr().err
    assert not out.exists()


def test_pgm_header_larger_than_file_exits_3(tmp_path, capsys):
    src = tmp_path / "huge.pgm"
    src.write_bytes(b"P5\n99999999 99999999\n255\n")
    assert run_cli("baseline", "--method", "nlm", "--sigma", 0.1,
                   "--in", src, "--out", tmp_path / "o.pgm") == 3
    assert "format error" in capsys.readouterr().err
    assert not (tmp_path / "o.pgm").exists()


def _tiny_denoise_inputs(tmp_path):
    net_cfg = UNetConfig(base_channels=4, depth=1, time_embed_dim=8,
                         image_size=8)
    ckpt = tmp_path / "m.ckpt"
    save_model(ckpt, init_params(net_cfg, seed=0), net_cfg)
    src = tmp_path / "in.pgm"
    write_pgm(src, Image2D(np.full((8, 8), 0.5, dtype=np.float32)))
    return src, ckpt


@pytest.mark.parametrize("t_start, steps, calls", [
    (20, None, [20, 16, 12, 8, 4]),   # the default, DEFAULT_STEPS = 5
    (3, None, [3, 2, 1]),             # never more calls than steps to take
    (20, 2, [20, 10]),
    (4, 300, [4, 3, 2, 1]),
])
def test_denoise_steps_sets_the_network_calls(tmp_path, monkeypatch,
                                              t_start, steps, calls):
    import usdenoise.bench as bench

    src, ckpt = _tiny_denoise_inputs(tmp_path)
    seen = []
    unet_forward = bench.unet_forward

    def counting_forward(params, cfg, x, t):
        seen.append(int(t[0]))
        return unet_forward(params, cfg, x, t)

    monkeypatch.setattr(bench, "unet_forward", counting_forward)
    argv = ["denoise", "--in", src, "--ckpt", ckpt, "--t-start", t_start,
            "--out", tmp_path / "dn.pgm"]
    if steps is not None:
        argv += ["--steps", steps]
    assert run_cli(*argv) == 0
    assert seen == calls


def test_denoise_zero_steps_exits_2(tmp_path, capsys):
    src, ckpt = _tiny_denoise_inputs(tmp_path)
    assert run_cli("denoise", "--in", src, "--ckpt", ckpt, "--t-start", 3,
                   "--steps", 0, "--out", tmp_path / "dn.pgm") == 2
    assert "steps must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "dn.pgm").exists()


def test_denoise_nan_checkpoint_exits_4(tmp_path, capsys):
    net_cfg = UNetConfig(base_channels=4, depth=1, time_embed_dim=8,
                         image_size=8)
    params = init_params(net_cfg, seed=0)
    for w in params.tensors.values():
        w[...] = np.nan
    ckpt = tmp_path / "nan.ckpt"
    save_model(ckpt, params, net_cfg)
    src = tmp_path / "in.pgm"
    write_pgm(src, Image2D(np.full((8, 8), 0.5, dtype=np.float32)))
    assert run_cli("denoise", "--in", src, "--ckpt", ckpt, "--t-start", 3,
                   "--out", tmp_path / "dn.pgm") == 4
    assert "numeric failure" in capsys.readouterr().err
    assert not (tmp_path / "dn.pgm").exists()


def _setting(key, *values):
    def edit(entries):
        entries[key] = np.array(values, dtype=np.float32)
    return edit


def _dropping(key):
    return lambda entries: entries.pop(key)


# the tiny checkpoint's __config__ is [1, 4, 1, 8, 8]
@pytest.mark.parametrize("edit, message", [
    pytest.param(_dropping("__config__"), "lacks the __config__ entry",
                 id="no-config"),
    pytest.param(_dropping("__step__"), "lacks the __step__ entry",
                 id="no-step"),
    pytest.param(_setting("__config__", 1, 4, 1, 8),
                 "__config__ holds [1.0, 4.0, 1.0, 8.0], expected 5",
                 id="config-size"),
    pytest.param(_setting("__step__", 0, 0),
                 "__step__ holds [0.0, 0.0], expected 1", id="step-size"),
    *(pytest.param(_setting("__config__", 1, bad, 1, 8, 8),
                   f"__config__ holds [1.0, {bad!r}", id=f"config-{bad}")
      for bad in (math.nan, math.inf, -4.0, 4.5)),
    *(pytest.param(_setting("__step__", bad), f"__step__ holds [{bad!r}]",
                   id=f"step-{bad}")
      for bad in (math.nan, -1.0, 0.5)),
    pytest.param(_setting("__config__", 1, 4, 0, 8, 8),
                 "__config__: all network size parameters must be >= 1",
                 id="config-depth-0"),
    pytest.param(_setting("__config__", 1, 4, 1e20, 8, 8),
                 "__config__: image size 8 not divisible by 2^depth",
                 id="config-huge-depth"),
    pytest.param(_setting("__config__", 1, 4, 1, 7, 8),
                 "__config__: time embedding dimension must be even",
                 id="config-odd-embedding"),
    pytest.param(_setting("__config__", 1, 8, 1, 8, 8),
                 "__config__: checkpoint/config mismatch: stem.w has shape",
                 id="tensors-vs-config"),
    pytest.param(_dropping("w.dec0.conv1.b"),
                 "__config__: checkpoint/config mismatch: parameter names "
                 "differ at dec0.conv1.b",
                 id="no-tensor"),
    pytest.param(_dropping("m.dec0.conv1.w"), "m.dec0.conv1.w",
                 id="no-first-moment"),
    pytest.param(_setting("v.extra", 0.0), "v.extra", id="extra-moment"),
])
def test_malformed_checkpoint_is_a_format_error(tmp_path, capsys, edit,
                                                message):
    # a table that passed its CRC check but was not a model's raised a bare
    # ValueError ("not enough values to unpack", "cannot convert float NaN
    # to integer", ...), so the CLI exited 2
    src, ckpt = _tiny_denoise_inputs(tmp_path)
    entries = read_checkpoint(ckpt)
    edit(entries)
    write_checkpoint(ckpt, entries)
    with pytest.raises(HeaderError) as raised:
        load_model(ckpt)
    assert message in str(raised.value)
    assert run_cli("denoise", "--in", src, "--ckpt", ckpt, "--t-start", 3,
                   "--out", tmp_path / "dn.pgm") == 3
    assert f"format error: {raised.value}" in capsys.readouterr().err
    assert not (tmp_path / "dn.pgm").exists()


def test_nan_and_underflowing_arguments_exit_2(tmp_path, capsys):
    # NaN passed the "> 0" style range checks of the baseline configs, and
    # only the non-finite image it produced was caught;
    # an NLM h whose square underflows raised ZeroDivisionError; a zero h
    # was taken as "not given" and replaced by 0.55 * sigma
    src = tmp_path / "in.pgm"
    write_pgm(src, Image2D(np.full((24, 24), 0.5, dtype=np.float32)))
    out = f"--out={tmp_path / 'o.pgm'}"
    for argv in (["baseline", "--method=nlm", "--sigma=0.1", "--h=nan"],
                 ["baseline", "--method=nlm", "--sigma=0.1", "--h=1e-200"],
                 ["baseline", "--method=nlm", "--sigma=0.1", "--h=0"],
                 ["baseline", "--method=nlm", "--sigma=0.1", "--h=-0.0"],
                 ["baseline", "--method=nlm", "--sigma=nan"],
                 ["baseline", "--method=bm3d", "--sigma=nan"],
                 ["baseline", "--method=bm3d", "--sigma=0.1",
                  "--threshold=nan"]):
        assert run_cli(*argv, "--in", src, out) == 2
        assert "must" in capsys.readouterr().err
    assert not (tmp_path / "o.pgm").exists()


def test_config_is_a_bench_option_only(tmp_path, capsys):
    # the other commands accepted --config and never opened the file
    cfg = str(tmp_path / "nonexistent.json")
    for argv in (["phantom"],
                 ["corrupt", "--in=x.pgm", "--t=5"],
                 ["train", "--data=speckle:8", "--epochs=0"],
                 ["denoise", "--in=x.pgm", "--ckpt=m.ckpt", "--t-start=3"],
                 ["baseline", "--method=nlm", "--in=x.pgm", "--sigma=0.1"],
                 ["beamform", "--rf=x"]):
        assert run_cli(*argv, "--config", cfg,
                       "--out", tmp_path / "out") == 2, argv[0]
        assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bm3d_extreme_arguments_exit_0(tmp_path):
    # sigma ** 2 raised OverflowError, and a search radius past int64
    # overflowed in the block-matching window arithmetic
    src = tmp_path / "in.pgm"
    write_pgm(src, Image2D(np.full((24, 24), 0.5, dtype=np.float32)))
    for argv in (["--sigma=1e308"], ["--sigma=0.1", f"--search={2 ** 63}"]):
        assert run_cli("baseline", "--method=bm3d", *argv, "--in", src,
                       "--out", tmp_path / "o.pgm") == 0


def test_bm3d_underflowing_sigma_exits_0(tmp_path):
    # sigma^2 underflowed to 0, and the Wiener shrink of the flat image's
    # zero coefficients was 0 / 0: a non-finite image, exit 4
    src = tmp_path / "in.pgm"
    write_pgm(src, Image2D(np.full((24, 24), 0.5, dtype=np.float32)))
    for sigma in ("1e-200", "1e-170"):
        out = tmp_path / f"o{sigma}.pgm"
        assert run_cli("baseline", "--method", "bm3d", "--sigma", sigma,
                       "--in", src, "--out", out) == 0
        assert out.read_bytes() == src.read_bytes()


def test_bm3d_search_window_smaller_than_a_group_exits_2(tmp_path, capsys):
    # the kernel found "only 9 candidate blocks, need 16" after the spectra
    # were computed, and named neither setting
    src = tmp_path / "in.pgm"
    write_pgm(src, Image2D(np.full((24, 24), 0.5, dtype=np.float32)))
    assert run_cli("baseline", "--method", "bm3d", "--sigma", 0.1,
                   "--search", 1, "--in", src,
                   "--out", tmp_path / "o.pgm") == 2
    err = capsys.readouterr().err
    assert "search_radius=1" in err and "max_matches=16" in err
    assert not (tmp_path / "o.pgm").exists()


def test_nlm_tiny_h_exits_0(tmp_path):
    # 1/h^2 overflowed to inf and 0 * inf made NaN weights, so the image was
    # non-finite and the command exited 4
    src = tmp_path / "in.pgm"
    rng = np.random.default_rng(0)
    write_pgm(src, Image2D(rng.random((24, 24)).astype(np.float32)))
    out = tmp_path / "o.pgm"
    assert run_cli("baseline", "--method", "nlm", "--sigma", 0.1,
                   "--h", 1e-160, "--in", src, "--out", out) == 0
    assert np.isfinite(read_pgm(out).data).all()


SIGMA = 0.09
NLM = NlmConfig(h=NlmConfig.H_FACTOR * SIGMA, sigma=SIGMA)
BM3D = Bm3dConfig(sigma=SIGMA)


class Called(Exception):
    """Raised, with its arguments, by a stand-in for a function that works."""


def _stand_in(*args, **kwargs):
    raise Called(*args)


@pytest.mark.parametrize("callee, argv, expected", [
    # phantom's density and angles once differed from PhantomSpec()'s
    ("synth_phantom", ["phantom"], (PhantomSpec(),)),
    ("train", ["train", "--data", "speckle:8"], (TrainConfig(), UNetConfig())),
    ("nlm_denoise", ["baseline", "--method", "nlm", "--sigma", SIGMA,
                     "--in", "in.pgm"], (NLM,)),
    ("bm3d_denoise", ["baseline", "--method", "bm3d", "--sigma", SIGMA,
                      "--in", "in.pgm"], (BM3D,)),
], ids=["phantom", "train", "baseline-nlm", "baseline-bm3d"])
def test_flag_defaults_are_the_library_configs(tmp_path, monkeypatch, callee,
                                               argv, expected):
    monkeypatch.chdir(tmp_path)
    write_pgm(tmp_path / "in.pgm", Image2D(np.zeros((24, 24))))
    monkeypatch.setattr(cli, callee, _stand_in)   # so that no work runs
    with pytest.raises(Called) as called:
        run_cli(*argv, "--out", "out")
    configs = (PhantomSpec, TrainConfig, UNetConfig, NlmConfig, Bm3dConfig)
    assert tuple(a for a in called.value.args
                 if isinstance(a, configs)) == expected


def test_bench_defaults_are_the_library_configs(monkeypatch):
    import usdenoise.bench as bench
    # the baselines run at their configs' defaults but for the analytic
    # sigma of the rescaled input
    ab = make_schedule().alpha_bar(10)
    sigma = math.sqrt((1.0 - ab) / ab) / 2.0
    noisy = np.zeros((8, 8), dtype=np.float32)
    for method, callee, expected in (
            ("nlm", "nlm_denoise",
             NlmConfig(h=NlmConfig.H_FACTOR * sigma, sigma=sigma)),
            ("bm3d", "bm3d_denoise", Bm3dConfig(sigma=sigma))):
        monkeypatch.setattr(bench, callee, _stand_in)
        with pytest.raises(Called) as called:
            bench.run_method(method, noisy, 10, None)
        assert called.value.args[1] == expected
    # the bench's phantoms are PhantomSpec() but for the 64-element array,
    # the seed and the cyst, whose echogenicity is Cyst's
    monkeypatch.setattr(bench, "synth_phantom", _stand_in)
    with pytest.raises(Called) as called:
        bench.make_phantom_set(BenchConfig())
    spec, = called.value.args
    assert spec == dataclasses.replace(
        PhantomSpec(), geometry=TransducerGeometry(element_count=64),
        seed=spec.seed, cysts=spec.cysts)
    assert spec.angles == (math.radians(-5.0), 0.0, math.radians(5.0))
    cyst, = spec.cysts
    assert (cyst.radius, cyst.echogenicity) == (1.5e-3, Cyst.echogenicity)


@pytest.mark.parametrize("command", ["phantom", "corrupt", "train", "denoise",
                                     "baseline", "beamform", "bench"])
def test_help_exits_0(capsys, command):
    # argparse formats the help text, and so every help string and
    # default, only when --help is asked for
    assert main([command, "--help"]) == 0
    assert f"usage: usdenoise {command}" in capsys.readouterr().out


@pytest.mark.parametrize("command, shown", [
    ("phantom", ["--density DENSITY scatterers per wavelength-squared cell "
                 "(default: 8.0)",
                 "--angles ANGLES steering angles in deg, comma list "
                 "(default: -5.0,0.0,5.0)"]),
    ("denoise", ["--steps STEPS network calls, evenly spaced from t-start to "
                 "0 (t-start or more runs every step) (default: 5)"]),
])
def test_help_shows_the_defaults(capsys, monkeypatch, command, shown):
    monkeypatch.setenv("COLUMNS", "200")   # argparse wraps at this width
    assert main([command, "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    for text in shown:
        assert text in out


@pytest.mark.parametrize("command, hidden", [
    ("bench", "default: None"),      # its override flags showed None
    ("corrupt", "default: None"),    # and so did each required flag
    ("train", "speckle:N (default: None)"),
    ("beamform", "RF file or directory (default: None)"),
    # and so did the optional flags whose None means "not given"
    *[(command, "(default: None)") for command in
      ("phantom", "train", "denoise", "baseline", "beamform")],
])
def test_help_shows_no_none_default(capsys, monkeypatch, command, hidden):
    monkeypatch.setenv("COLUMNS", "200")   # argparse wraps at this width
    assert main([command, "--help"]) == 0
    assert hidden not in " ".join(capsys.readouterr().out.split())


# each subcommand with only its required flags
MINIMAL_ARGV = {
    "phantom": [],
    "corrupt": ["--in=x.pgm", "--t=5"],
    "train": ["--data=speckle:8"],
    "denoise": ["--in=x.pgm", "--ckpt=m.ckpt", "--t-start=3"],
    "baseline": ["--method=nlm", "--in=x.pgm", "--sigma=0.1"],
    "beamform": ["--rf=x"],
    "bench": [],
}


@pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
def test_every_flag_is_read_by_its_command(command):
    # baseline and beamform accepted a --seed they never read
    args = cli.build_parser().parse_args([command, *MINIMAL_ARGV[command]])
    tree = ast.parse(inspect.getsource(args.func))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    assert set(vars(args)) - {"func", "command"} - read == set()


@pytest.mark.parametrize("command", ["baseline", "beamform"])
def test_seed_is_refused_where_nothing_reads_it(capsys, command):
    assert run_cli(command, *MINIMAL_ARGV[command], "--seed", 1) == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--T=300", "--beta=0.01"])
@pytest.mark.parametrize("command", ["corrupt", "train", "denoise"])
def test_schedule_flags_are_refused(capsys, command, flag):
    # a checkpoint is right only under the schedule it was trained with,
    # and no checkpoint records it, so no command lets it be set
    assert run_cli(command, *MINIMAL_ARGV[command], flag) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# every option of each subcommand, by dest: adding or removing a flag is an
# edit here, as adding or removing a bench config key is in test_bench.py
OPTION_DESTS = {
    "phantom": ["out", "seed", "nx", "nz", "width_mm", "depth_mm", "z0_mm",
                "dynamic_range", "density", "cyst", "angles", "elements"],
    "corrupt": ["out", "seed", "input", "t"],
    "train": ["out", "seed", "data", "epochs", "batch_size", "lr",
              "lr_gamma", "lr_step", "warm_start", "heldout_frac",
              "base_channels", "depth", "time_dim", "image_size"],
    "denoise": ["out", "seed", "input", "ckpt", "t_start", "steps", "inject"],
    "baseline": ["out", "method", "input", "sigma", "h", "patch_radius",
                 "search_radius", "block_size", "matches", "search",
                 "threshold", "stages"],
    "beamform": ["out", "nx", "nz", "width_mm", "depth_mm", "z0_mm",
                 "dynamic_range", "rf", "angles", "compound"],
    "bench": ["config", "seed", "out_dir", "checkpoint", "methods",
              "t_starts", "num_images", "image_dir"],
}


def test_option_dests_are_pinned():
    sub, = (a for a in cli.build_parser()._actions if a.dest == "command")
    assert {name: [a.dest for a in q._actions if a.dest != "help"]
            for name, q in sub.choices.items()} == OPTION_DESTS
    # settable values: every subcommand flag and every bench config key
    flags = sum(map(len, OPTION_DESTS.values()))
    assert (flags, len(dataclasses.fields(BenchConfig))) == (67, 12)


def test_denoise_inject_is_not_the_corruption_noise(tmp_path, monkeypatch):
    # at the same --seed, the field injected on the step from t was the
    # noise `corrupt --t t` adds
    src, ckpt = _tiny_denoise_inputs(tmp_path)
    injected = {}
    reverse_step = diffusion.reverse_step

    def spy(x, t, eps_hat, sched, inject=None, **kwargs):
        injected[t] = inject
        return reverse_step(x, t, eps_hat, sched, inject, **kwargs)

    monkeypatch.setattr(diffusion, "reverse_step", spy)
    assert run_cli("denoise", "--in", src, "--ckpt", ckpt, "--t-start", 20,
                   "--inject", "--out", tmp_path / "dn.pgm") == 0
    assert sorted(injected) == [4, 8, 12, 16, 20]
    assert injected[4] is None    # none on the step to 0
    drawn = []

    def spy_normal(*args, **kwargs):
        drawn.append(standard_normal(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(cli, "standard_normal", spy_normal)
    assert run_cli("corrupt", "--in", src, "--t", 20,
                   "--out", tmp_path / "noisy.pgm") == 0
    assert not np.array_equal(injected[20], drawn[0])
    # that no corrupt draw is an inject draw at any t is the stream
    # enumeration of tests/test_streams.py


def test_version_flag(capsys):
    assert run_cli("--version") == 0
    assert capsys.readouterr().out == f"usdenoise {__version__}\n"
