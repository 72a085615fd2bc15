import csv
import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest

import usdenoise.bench as bench
from usdenoise.bench import (
    BenchConfig,
    BenchImage,
    _default_masks,
    run_bench,
    run_method,
)
from usdenoise.diffusion import forward_jump, make_schedule
from usdenoise.image import RANGE_UNIT, Image2D, to_signed
from usdenoise.metrics import psnr
from usdenoise.nnet import UNetConfig, init_params, save_model
from usdenoise.rng import standard_normal, stream
from usdenoise.ultrasound import speckle_patches


def _test_images(n=3, size=32, seed=0):
    patches = speckle_patches(n, size=size, seed=seed)
    out = []
    for i in range(n):
        inside, outside = _default_masks((size, size))
        out.append(BenchImage(f"img{i}", Image2D(patches[i], RANGE_UNIT),
                             inside, outside))
    return out


def test_config_from_json_round_trip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"num_images": 4, "t_starts": [5, 15],
                             "methods": ["noisy", "nlm"], "seed": 9}))
    cfg = BenchConfig.from_json(p)
    assert cfg.num_images == 4
    assert cfg.t_starts == (5, 15)
    assert cfg.methods == ("noisy", "nlm")
    assert cfg.seed == 9


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"numImages": 4}))
    with pytest.raises(ValueError, match="unknown config keys"):
        BenchConfig.from_json(p)


def test_config_keys_are_the_ones_with_a_caller():
    # the baseline, density, cyst, mask and GCNR settings belong to their
    # library types or have one value, so they are not bench keys; nor is
    # the schedule, which must be the one the checkpoint was trained under
    assert [f.name for f in dataclasses.fields(BenchConfig)] == [
        "image_dir", "num_images", "t_starts", "methods", "seed", "out_dir",
        "checkpoint", "ddpm_steps",
        "phantom_nx", "phantom_nz", "phantom_elements", "phantom_angles_deg"]


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(methods=())
    with pytest.raises(ValueError):
        BenchConfig(methods=("noisy", "wavelet"))
    with pytest.raises(ValueError):
        BenchConfig(t_starts=(0,))
    with pytest.raises(ValueError):
        BenchConfig(t_starts=(301,))
    with pytest.raises(ValueError, match="ddpm_steps"):
        BenchConfig(ddpm_steps=0)


def test_config_rejects_a_fractional_step_count(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"ddpm_steps": 2.5}))
    with pytest.raises(ValueError, match="ddpm_steps"):
        BenchConfig.from_json(p)


@pytest.mark.parametrize("key,value", [("t_starts", (10, 2.5)),
                                       ("ddpm_steps", 2.5),
                                       ("num_images", 2.5)])
def test_config_rejects_fractional_counts_made_in_code(key, value):
    # int() ran the bench at t=2; the counts failed later with TypeError
    with pytest.raises(ValueError, match="must be integers"):
        BenchConfig(**{key: value})


def test_noisy_rows_decrease_with_t(tmp_path):
    cfg = BenchConfig(methods=("noisy",), t_starts=(10, 20), seed=3,
                      out_dir=str(tmp_path / "out"))
    summary, per_image = run_bench(cfg, images=_test_images())
    rows = {r["t_start"]: r for r in summary}
    assert rows[20]["psnr_db"] < rows[10]["psnr_db"]
    # per image as well: more steps always hurt
    for name in {r["image"] for r in per_image}:
        p10 = next(r["psnr_db"] for r in per_image
                   if r["image"] == name and r["t_start"] == 10)
        p20 = next(r["psnr_db"] for r in per_image
                   if r["image"] == name and r["t_start"] == 20)
        assert p20 < p10
    assert (tmp_path / "out" / "report.csv").exists()
    assert (tmp_path / "out" / "report.md").exists()
    assert (tmp_path / "out" / "per_image.csv").exists()
    assert (tmp_path / "out" / "report.json").exists()


def test_gcnr_column_in_range(tmp_path):
    cfg = BenchConfig(methods=("noisy",), t_starts=(10,), seed=4,
                      out_dir=str(tmp_path / "out"))
    _, per_image = run_bench(cfg, images=_test_images())
    for r in per_image:
        assert 0.0 <= r["gcnr_percent"] <= 100.0


def test_baselines_beat_noisy_on_synthetic_set():
    sched = make_schedule(300)
    images = _test_images(n=2, size=48, seed=7)
    t_start = 10
    for ti in images:
        clean_signed = to_signed(ti.clean)
        eps = standard_normal(ti.clean.shape, 5, draw_index=1)
        noisy_signed = forward_jump(clean_signed, t_start, sched, eps)
        noisy = run_method("noisy", noisy_signed, t_start, None)
        for method in ("nlm", "bm3d"):
            est = run_method(method, noisy_signed, t_start, None)
            assert (psnr(ti.clean, est, 1.0)
                    > psnr(ti.clean, noisy, 1.0))


def test_ddpm_without_checkpoint_rejected():
    cfg = BenchConfig(methods=("ddpm",))
    with pytest.raises(ValueError, match="checkpoint"):
        run_bench(cfg, images=_test_images())


def test_empty_test_set_rejected(tmp_path):
    cfg = BenchConfig(methods=("noisy",), image_dir=str(tmp_path))
    with pytest.raises(ValueError):
        run_bench(cfg)


def test_report_metadata_records_protocol(tmp_path):
    cfg = BenchConfig(methods=("noisy",), t_starts=(10,), seed=6,
                      out_dir=str(tmp_path / "out"))
    run_bench(cfg, images=_test_images())
    md = json.loads((tmp_path / "out" / "report.json").read_text())["metadata"]
    assert md["seed"] == 6
    assert md["ddpm_steps"] == 5
    assert set(md) == {f.name for f in dataclasses.fields(BenchConfig)}


def _two_method_run(out_dir):
    cfg = BenchConfig(methods=("noisy", "nlm"), t_starts=(20, 10), seed=7,
                      out_dir=str(out_dir))
    return run_bench(cfg, images=_test_images(n=2))


def test_report_csv_layout(tmp_path):
    summary, _ = _two_method_run(tmp_path)
    cells = [("nlm", 10), ("nlm", 20), ("noisy", 10), ("noisy", 20)]
    assert [(r["method"], r["t_start"]) for r in summary] == cells
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "method,t_start,psnr_db,gcnr_percent,speckle_ratio"
    assert [tuple(line.split(",")[:2]) for line in lines[1:]] == [
        (m, str(t)) for m, t in cells]
    per_image = (tmp_path / "per_image.csv").read_text().splitlines()
    assert per_image[0] == ("method,t_start,image,psnr_db,gcnr_percent,"
                            "speckle_ratio")
    assert per_image[1].startswith("noisy,20,img0,")


def test_report_markdown_layout(tmp_path):
    _two_method_run(tmp_path)
    md = (tmp_path / "report.md").read_text()
    assert md.startswith("## PSNR (dB)\n\n| Method | T=10 | T=20 |\n"
                         "|---|---|---|\n| nlm | ")
    assert "\n## GCNR (%)\n\n| Method | T=10 | T=20 |\n" in md
    assert "\n## Speckle ratio\n\n| Method | T=10 | T=20 |\n" in md
    assert "\n## Run metadata\n" in md
    assert '"seed": 7' in md


def _markdown_tables(md):
    """{heading: {(method, t_start): value}} from report.md's tables."""
    tables = {}
    for line in md.splitlines():
        if line.startswith("## "):
            cells = tables.setdefault(line[3:], {})
        elif line.startswith("| Method |"):
            t_values = [int(c.strip()[2:]) for c in line.split("|")[2:-1]]
        elif line.startswith("| "):
            method, *values = [c.strip() for c in line.split("|")[1:-1]]
            for t, v in zip(t_values, values):
                cells[(method, t)] = float(v)
    return tables


def test_report_files_agree_with_per_image_means(tmp_path):
    _two_method_run(tmp_path)
    with open(tmp_path / "per_image.csv", newline="") as f:
        per_image = list(csv.DictReader(f))
    with open(tmp_path / "report.csv", newline="") as f:
        report_csv = {(r["method"], int(r["t_start"])): r
                      for r in csv.DictReader(f)}
    report_json = {(r["method"], r["t_start"]): r for r in json.loads(
        (tmp_path / "report.json").read_text())["rows"]}
    md = _markdown_tables((tmp_path / "report.md").read_text())
    # metric key, per_image.csv and report.csv decimals, report.md table
    # and decimals
    metrics = [("psnr_db", 4, "PSNR (dB)", 2),
               ("gcnr_percent", 2, "GCNR (%)", 1),
               ("speckle_ratio", 4, "Speckle ratio", 2)]
    cells = {(r["method"], int(r["t_start"])) for r in per_image}
    assert set(report_csv) == set(report_json) == cells
    for key, csv_places, heading, md_places in metrics:
        assert set(md[heading]) == cells
        # per_image.csv rounds every value, so its mean is off by at most
        # half a unit of its last place; each report adds its own rounding
        slack = 0.5 * 10.0 ** -csv_places + 1e-9
        for cell in cells:
            values = [float(r[key]) for r in per_image
                      if (r["method"], int(r["t_start"])) == cell]
            mean = sum(values) / len(values)
            assert float(report_csv[cell][key]) == pytest.approx(
                mean, abs=slack + 0.5 * 10.0 ** -csv_places)
            assert report_json[cell][key] == pytest.approx(mean, abs=slack)
            assert md[heading][cell] == pytest.approx(
                mean, abs=slack + 0.5 * 10.0 ** -md_places)


def test_speckle_ratio_is_the_annulus_std_ratio(tmp_path):
    cfg = BenchConfig(methods=("noisy",), t_starts=(10,), seed=8,
                      out_dir=str(tmp_path / "out"))
    images = _test_images(n=2)
    _, per_image = run_bench(cfg, images=images)
    sched = make_schedule(300)
    for i, (ti, row) in enumerate(zip(images, per_image)):
        eps = standard_normal(ti.clean.shape, 8, stream("bench.noise", i, 10))
        noisy = forward_jump(to_signed(ti.clean), 10, sched, eps)
        est = run_method("noisy", noisy, 10, None)
        expect = (np.std(est.data[ti.outside].astype(np.float64))
                  / np.std(ti.clean.data[ti.outside].astype(np.float64)))
        assert row["speckle_ratio"] == pytest.approx(expect, rel=1e-12)
        assert row["speckle_ratio"] > 1.0   # the noise adds to the speckle


def test_every_image_and_level_draws_its_own_noise(tmp_path, monkeypatch):
    # image 0 at t=110 and image 1 at t=10 drew one field: the index was
    # 7000 + 100 * image + t
    fields = []

    def spy(shape, seed, draw_index):
        fields.append(standard_normal(shape, seed, draw_index))
        return fields[-1]

    monkeypatch.setattr(bench, "standard_normal", spy)
    cfg = BenchConfig(methods=("noisy",), t_starts=(10, 110), seed=8,
                      out_dir=str(tmp_path / "out"))
    run_bench(cfg, images=_test_images(n=2))
    assert len(fields) == 4
    assert not any(np.array_equal(a, b)
                   for a, b in itertools.combinations(fields, 2))


def test_flat_clean_annulus_gives_nan_speckle_ratio(tmp_path):
    flat = _test_images(n=1)[0]
    flat.clean = Image2D(np.full(flat.clean.shape, 0.5, dtype=np.float32),
                         RANGE_UNIT)
    cfg = BenchConfig(methods=("noisy",), t_starts=(10,), seed=9,
                      out_dir=str(tmp_path / "out"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary, per_image = run_bench(cfg, images=[flat])
    assert math.isnan(per_image[0]["speckle_ratio"])
    assert math.isnan(summary[0]["speckle_ratio"])
    assert (tmp_path / "out" / "report.csv").read_text().splitlines()[1] \
        .endswith(",nan")


def test_ddpm_rows_name_their_step_count(tmp_path, monkeypatch):
    # report.json records ddpm_steps, and the chain makes that many calls
    net_cfg = UNetConfig(base_channels=4, depth=1, time_embed_dim=8,
                         image_size=32)
    ckpt = tmp_path / "m.ckpt"
    save_model(ckpt, init_params(net_cfg, seed=0), net_cfg)
    steps_seen = []
    unet_forward = bench.unet_forward

    def counting_forward(params, cfg, x, t):
        steps_seen.append(int(t[0]))
        return unet_forward(params, cfg, x, t)

    monkeypatch.setattr(bench, "unet_forward", counting_forward)
    cfg = BenchConfig(methods=("ddpm",), t_starts=(10,), ddpm_steps=3,
                      checkpoint=str(ckpt), out_dir=str(tmp_path / "out"))
    run_bench(cfg, images=_test_images(n=1))
    md = json.loads((tmp_path / "out" / "report.json").read_text())["metadata"]
    assert md["ddpm_steps"] == 3
    assert steps_seen == [10, 6, 3]
