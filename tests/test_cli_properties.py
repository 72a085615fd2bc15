"""Property test of the CLI's exit-code contract.

``cli.main`` returns 0, 2 (usage or validation), 3 (IO or format) or 4
(numeric failure), whatever bytes the input PGM holds and whatever numbers
the arguments carry.  Sizes stay small so that every example runs in
milliseconds; examples are derandomized.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from usdenoise.cli import main
from usdenoise.nnet import UNetConfig, init_params, save_model

CONTRACT = {0, 2, 3, 4}

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def pgm_bytes(draw):
    """Mostly well-formed P5 files; else a damaged header or arbitrary bytes."""
    kind = draw(st.sampled_from(["image", "image", "image", "header",
                                 "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "image":
        w, h = draw(st.integers(1, 24)), draw(st.integers(1, 24))
        maxval, extra = 255, 0
    else:
        w, h = draw(st.integers(-1, 24)), draw(st.integers(-1, 24))
        maxval = draw(st.sampled_from([0, 1, 255, 65535]))
        extra = draw(st.integers(-2, 2))
    n = max(0, max(w, 0) * max(h, 0) + extra)
    body = draw(st.binary(min_size=n, max_size=n))
    return f"P5\n{w} {h}\n{maxval}\n".encode() + body


def wild_float(lo, hi):
    """Any number in [lo, hi], an extreme or a non-finite one."""
    return st.one_of(st.integers(lo, hi).map(str), st.floats(lo, hi).map(repr),
                     st.sampled_from(["0", "-1", "1e308", "-1e308", "5e-324",
                                      "nan", "inf", "-inf"]))


def wild_int(lo, hi):
    return st.one_of(st.integers(lo, hi),
                     st.sampled_from([0, -1, -2 ** 63, 2 ** 63])).map(str)


@st.composite
def options(draw, **spec):
    """Every option at one of its valid values, except up to two drawn from
    their wild strategies, so most examples get past validation."""
    wild = draw(st.sets(st.sampled_from(sorted(spec)), max_size=2))
    return {name: draw(strategy if name in wild
                       else st.sampled_from(valid).map(str))
            for name, (valid, strategy) in spec.items()}


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory):
    cfg = UNetConfig(base_channels=4, depth=1, time_embed_dim=8, image_size=8)
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    save_model(path, init_params(cfg, seed=0), cfg)
    return path


def _run(tmp_path, data, command, *flags, **values):
    # --name=value, so that a negative value is never read as an option
    src = tmp_path / "in.pgm"
    src.write_bytes(data)
    argv = [command, *flags, f"--in={src}", f"--out={tmp_path / 'o.pgm'}"]
    argv += [f"--{k.replace('_', '-')}={v}" for k, v in values.items()]
    assert main(argv) in CONTRACT


SEED = dict(seed=([0, 3], wild_int(-5, 5)))


@FUZZ
@given(data=pgm_bytes(), method=st.sampled_from(["nlm", "bm3d"]),
       opts=options(sigma=([0.05, 0.1], wild_float(-1, 2)),
                    h=([0.03, 0.1], wild_float(-1, 2)),
                    patch_radius=([1, 2], wild_int(-2, 4)),
                    search_radius=([1, 3], wild_int(-2, 8)),
                    block_size=([4, 8], wild_int(0, 20)),
                    matches=([4, 16], wild_int(-1, 70)),
                    search=([2, 19], wild_int(-2, 30)),
                    threshold=([2.7], wild_float(-1, 10))))
def test_baseline_exit_codes(tmp_path, data, method, opts):
    _run(tmp_path, data, "baseline", method=method, **opts)


@FUZZ
@given(data=pgm_bytes(),
       opts=options(t=([0, 5, 20], wild_int(-3, 400)), **SEED))
def test_corrupt_exit_codes(tmp_path, data, opts):
    _run(tmp_path, data, "corrupt", **opts)


@FUZZ
@given(data=pgm_bytes(), inject=st.booleans(),
       opts=options(t_start=([3, 20], wild_int(-3, 30)), **SEED))
def test_denoise_exit_codes(tmp_path, tiny_ckpt, data, inject, opts):
    flags = ["--inject"] if inject else []
    _run(tmp_path, data, "denoise", *flags, ckpt=tiny_ckpt, **opts)
