"""Property tests for the file formats.

Every reader raises only ``FormatError`` subclasses, on arbitrary bytes and
on truncations and byte mutations of valid files; every writer round-trips
bit-exactly.  The fixed mutation table of criterion 10 lives in
``test_formats.py``; these tests search around it.  Examples are
derandomized so the suite sees the same inputs on every run.
"""

import math
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from tests.test_formats import (
    _valid_cifar,
    _valid_ckpt,
    _valid_pgm,
    _valid_rf,
    _valid_tensor,
)
from usdenoise.formats import (
    CIFAR_RECORD_BYTES,
    RF_HEADER_KEYS,
    FormatError,
    load_cifar,
    read_checkpoint,
    read_pgm,
    read_rf,
    read_tensor,
    write_checkpoint,
    write_pgm,
    write_rf,
    write_tensor,
)
from usdenoise.image import RANGE_UNIT, Image2D
from usdenoise.ultrasound import RFFrame, TransducerGeometry

READERS = {"pgm": read_pgm, "tensor": read_tensor, "ckpt": read_checkpoint,
           "cifar": load_cifar, "rf": read_rf}

# Each test reuses one file under tmp_path, rewritten per example.
FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _valid_blobs() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        return {"pgm": _valid_pgm(tmp), "tensor": _valid_tensor(),
                "ckpt": _valid_ckpt(tmp), "cifar": _valid_cifar(),
                "rf": _valid_rf(tmp)}


VALID = _valid_blobs()


def _read_or_format_error(reader, path, blob):
    """Read ``blob`` from ``path``; None when the reader raised FormatError."""
    path.write_bytes(blob)
    try:
        return reader(path)
    except FormatError:
        return None


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


@st.composite
def mutations(draw, blob: bytes) -> bytes:
    """A truncation, byte flip, insertion, deletion or overwrite of blob."""
    n = len(blob)
    kind = draw(st.sampled_from(["truncate", "flip", "insert", "delete",
                                 "overwrite"]))
    i = draw(st.integers(0, n))
    if kind == "truncate":
        return blob[:i]
    if kind == "flip":
        i = min(i, n - 1)
        flipped = blob[i] ^ draw(st.integers(1, 255))
        return blob[:i] + bytes([flipped]) + blob[i + 1:]
    if kind == "insert":
        return blob[:i] + draw(st.binary(min_size=1, max_size=16)) + blob[i:]
    j = draw(st.integers(i, min(n, i + 16)))
    if kind == "delete":
        return blob[:i] + blob[j:]
    noise = draw(st.binary(min_size=j - i, max_size=j - i))
    return blob[:i] + noise + blob[j:]


# ------------------------------------------------- readers: FormatError only

@pytest.mark.parametrize("kind", sorted(READERS))
@FUZZ
@given(blob=st.binary(max_size=256))
def test_readers_on_arbitrary_bytes(tmp_path, kind, blob):
    _read_or_format_error(READERS[kind], tmp_path / f"any.{kind}", blob)


@pytest.mark.parametrize("kind", sorted(READERS))
@FUZZ
@given(data=st.data())
def test_readers_on_mutated_valid_files(tmp_path, kind, data):
    blob = data.draw(mutations(VALID[kind]))
    _read_or_format_error(READERS[kind], tmp_path / f"mut.{kind}", blob)


@FUZZ
@given(data=st.data())
def test_checkpoint_reader_on_mutated_body_with_valid_crc(tmp_path, data):
    # recomputing the CRC lets the mutation reach the entry parser
    blob = _with_crc(data.draw(mutations(VALID["ckpt"][:-4])))
    _read_or_format_error(read_checkpoint, tmp_path / "m.ckpt", blob)


_HEADER_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e400", "", "0.8",
                     "-0.8", "99999999999", "1_0"]),
    st.integers(-3, 70).map(str),
    st.floats().map(repr),
    st.text(max_size=8),
)


@FUZZ
@given(data=st.data(), key=st.sampled_from(RF_HEADER_KEYS),
       value=_HEADER_VALUES)
def test_rf_reader_on_edited_header_values(tmp_path, data, key, value):
    head, _, payload = VALID["rf"].partition(b"\n\n")
    lines = [f"{key}={value}".encode() if line.startswith(key.encode() + b"=")
             else line for line in head.split(b"\n")]
    payload = payload[:data.draw(st.integers(0, len(payload)))]
    frame = _read_or_format_error(read_rf, tmp_path / "h.rf",
                                  b"\n".join(lines) + b"\n\n" + payload)
    if frame is not None:
        g = frame.geometry
        assert frame.samples.shape[0] == g.element_count >= 1
        assert all(math.isfinite(v) and v > 0
                   for v in (g.pitch, g.sampling_rate, g.sound_speed,
                             g.center_frequency))
        assert abs(frame.steer_angle) < math.pi / 4


@FUZZ
@given(width=st.integers(-2, 9), height=st.integers(-2, 9),
       maxval=st.sampled_from([255, 0, 256, 65535, -255]),
       sep=st.sampled_from([b" ", b"\n", b"\t", b"\n# note\n"]),
       payload=st.binary(max_size=100))
def test_pgm_reader_on_edited_headers(tmp_path, width, height, maxval, sep,
                                      payload):
    blob = b"P5" + sep + sep.join(str(v).encode()
                                  for v in (width, height, maxval))
    img = _read_or_format_error(read_pgm, tmp_path / "h.pgm",
                                blob + b"\n" + payload)
    if img is not None:
        assert img.shape == (height, width)
        assert np.array_equal(np.rint(img.data.reshape(-1) * 255),
                              np.frombuffer(payload[:width * height],
                                            dtype=np.uint8))


# ----------------------------------------------------- writers: round trips

ROUND_TRIP = settings(FUZZ, max_examples=60)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(
        np.asarray(a, dtype=np.float32).view(np.uint32),
        np.asarray(b, dtype=np.float32).view(np.uint32))


@ROUND_TRIP
@given(pixels=arrays(np.uint8, array_shapes(min_dims=2, max_dims=2,
                                            max_side=12)))
def test_pgm_round_trip(tmp_path, pixels):
    p = tmp_path / "r.pgm"
    img = Image2D(pixels.astype(np.float32) * (1 / 255), RANGE_UNIT)
    write_pgm(p, img)
    assert p.read_bytes()[-pixels.size:] == pixels.tobytes()
    assert _same_bits(read_pgm(p).data, img.data)


_FLOAT32_TENSORS = arrays(np.float32, array_shapes(min_dims=1, max_dims=4,
                                                   max_side=5),
                          elements=st.floats(width=32))


@ROUND_TRIP
@given(arr=_FLOAT32_TENSORS)
def test_tensor_round_trip(tmp_path, arr):
    p = tmp_path / "r.ndf"
    write_tensor(p, arr)
    assert _same_bits(read_tensor(p), arr)


@ROUND_TRIP
@given(entries=st.dictionaries(st.text(max_size=12), _FLOAT32_TENSORS,
                               max_size=5))
def test_checkpoint_round_trip(tmp_path, entries):
    p = tmp_path / "r.ckpt"
    write_checkpoint(p, entries)
    back = read_checkpoint(p)
    assert list(back) == list(entries)
    assert all(_same_bits(back[k], v) for k, v in entries.items())


_POSITIVE = st.floats(min_value=1e-9, max_value=1e12, allow_subnormal=False)


@ROUND_TRIP
@given(data=st.data(), elements=st.integers(1, 6), n=st.integers(1, 20),
       pitch=_POSITIVE, fs=_POSITIVE, c=_POSITIVE, f0=_POSITIVE,
       angle=st.floats(-0.78, 0.78))
def test_rf_round_trip(tmp_path, data, elements, n, pitch, fs, c, f0, angle):
    geometry = TransducerGeometry(element_count=elements, pitch=pitch,
                                  sampling_rate=fs, sound_speed=c,
                                  center_frequency=f0)
    samples = data.draw(arrays(np.float32, (elements, n),
                               elements=st.floats(width=32)))
    p = tmp_path / "r.rf"
    write_rf(p, RFFrame(samples, angle, geometry))
    back = read_rf(p)
    assert back.geometry == geometry
    assert back.steer_angle == angle
    assert _same_bits(back.samples, samples)


@ROUND_TRIP
@given(labels=st.lists(st.integers(0, 9), min_size=1, max_size=3),
       data=st.data())
def test_cifar_records_decode_to_their_pixels(tmp_path, labels, data):
    # CIFAR has no writer: build the records from the layout instead
    pixels = data.draw(arrays(np.uint8, (len(labels), 3, 32, 32)))
    blob = b"".join(bytes([lab]) + img.tobytes()
                    for lab, img in zip(labels, pixels))
    assert len(blob) == len(labels) * CIFAR_RECORD_BYTES
    p = tmp_path / "r.bin"
    p.write_bytes(blob)
    images, back = load_cifar(p, to_gray=False)
    assert back.tolist() == labels
    levels = pixels.astype(np.float32) * np.float32(1 / 255)   # read_pgm's
    assert np.array_equal(images, levels * 2 - 1)
