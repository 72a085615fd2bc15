import json

import numpy as np
import pytest

from usdenoise import __version__
from usdenoise.cli import main
from usdenoise.formats import read_pgm, write_pgm
from usdenoise.image import Image2D
from usdenoise.metrics import psnr
from usdenoise.nnet import UNetConfig, init_params, save_model
from usdenoise.ultrasound import phantom


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
    assert np.array_equal(read_pgm(out).data,
                          read_pgm(phantom_dir / "bmode.pgm").data)


def test_corrupt_more_steps_hurt_more(tmp_path, phantom_dir):
    clean = read_pgm(phantom_dir / "bmode.pgm").data / 255.0
    psnrs = {}
    for t in (10, 20):
        out = tmp_path / f"n{t}.pgm"
        assert run_cli("corrupt", "--in", phantom_dir / "bmode.pgm",
                       "--t", t, "--seed", 3, "--out", out) == 0
        psnrs[t] = psnr(clean, read_pgm(out).data / 255.0, 1.0)
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


def test_baseline_roundtrip(tmp_path, phantom_dir):
    noisy = tmp_path / "noisy.pgm"
    assert run_cli("corrupt", "--in", phantom_dir / "bmode.pgm",
                   "--t", 10, "--seed", 2, "--out", noisy) == 0
    out = tmp_path / "nlm.pgm"
    assert run_cli("baseline", "--method", "nlm", "--in", noisy,
                   "--sigma", 0.09, "--out", out) == 0
    clean = read_pgm(phantom_dir / "bmode.pgm").data / 255.0
    assert (psnr(clean, read_pgm(out).data / 255.0, 1.0)
            > psnr(clean, read_pgm(noisy).data / 255.0, 1.0))


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


def test_bench_cli_with_config(tmp_path):
    cfg = {"methods": ["noisy"], "t_starts": [10, 20], "num_images": 2,
           "phantom_nx": 32, "phantom_nz": 32, "phantom_elements": 32,
           "phantom_angles_deg": [0.0], "seed": 3,
           "out_dir": str(tmp_path / "bench")}
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("bench", "--config", cfg_path) == 0
    csv = (tmp_path / "bench" / "report.csv").read_text().strip().split("\n")
    assert csv[0] == "method,t_start,psnr_db,gcnr_percent"
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


def test_nan_and_underflowing_arguments_exit_2(tmp_path, capsys):
    # NaN passed the "> 0" style range checks of the schedule and the
    # baseline configs, and only the non-finite image it produced was caught;
    # an NLM h whose square underflows raised ZeroDivisionError
    src = tmp_path / "in.pgm"
    write_pgm(src, Image2D(np.full((24, 24), 0.5, dtype=np.float32)))
    out = f"--out={tmp_path / 'o.pgm'}"
    for argv in (["corrupt", "--t=5", "--beta=nan"],
                 ["baseline", "--method=nlm", "--sigma=0.1", "--h=nan"],
                 ["baseline", "--method=nlm", "--sigma=0.1", "--h=1e-200"],
                 ["baseline", "--method=nlm", "--sigma=nan"],
                 ["baseline", "--method=bm3d", "--sigma=nan"],
                 ["baseline", "--method=bm3d", "--sigma=0.1",
                  "--threshold=nan"]):
        assert run_cli(*argv, "--in", src, out) == 2
        assert "must" in capsys.readouterr().err
    assert not (tmp_path / "o.pgm").exists()


def test_bm3d_extreme_arguments_exit_0(tmp_path):
    # sigma ** 2 raised OverflowError, and a search radius past int64
    # overflowed in the block-matching window arithmetic
    src = tmp_path / "in.pgm"
    write_pgm(src, Image2D(np.full((24, 24), 0.5, dtype=np.float32)))
    for argv in (["--sigma=1e308"], ["--sigma=0.1", f"--search={2 ** 63}"]):
        assert run_cli("baseline", "--method=bm3d", *argv, "--in", src,
                       "--out", tmp_path / "o.pgm") == 0


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


def test_denoise_non_finite_state_exits_4(tmp_path, capsys):
    # a variance this small makes 1 - abar_t exactly 0, so the reverse step
    # divides by zero; a non-finite image is a numeric failure, not exit 2
    net_cfg = UNetConfig(base_channels=4, depth=1, time_embed_dim=8,
                         image_size=8)
    ckpt = tmp_path / "m.ckpt"
    save_model(ckpt, init_params(net_cfg, seed=0), net_cfg)
    src = tmp_path / "in.pgm"
    write_pgm(src, Image2D(np.full((8, 8), 0.5, dtype=np.float32)))
    assert run_cli("denoise", "--in", src, "--ckpt", ckpt, "--t-start", 2,
                   "--beta=1e-300", "--out", tmp_path / "dn.pgm") == 4
    assert "numeric failure" in capsys.readouterr().err
    assert not (tmp_path / "dn.pgm").exists()


def test_version_flag(capsys):
    assert run_cli("--version") == 0
    assert capsys.readouterr().out == f"usdenoise {__version__}\n"
