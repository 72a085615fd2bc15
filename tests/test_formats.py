import struct
import zlib

import numpy as np
import pytest

import usdenoise.formats as fm
from usdenoise.formats import (
    ChecksumError,
    FormatError,
    HeaderError,
    LengthError,
    MagicError,
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
from usdenoise.image import RANGE_EIGHT_BIT, RANGE_SIGNED, RANGE_UNIT, Image2D
from usdenoise.ultrasound import RFFrame, TransducerGeometry


# ------------------------------------------------------------------- PGM

def test_pgm_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    img = Image2D(rng.integers(0, 256, (17, 23)).astype(np.float32),
                  RANGE_EIGHT_BIT)
    p = tmp_path / "a.pgm"
    write_pgm(p, img)
    back = read_pgm(p)
    assert np.array_equal(back.data, img.data)
    write_pgm(tmp_path / "b.pgm", back)
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


def test_pgm_payload_layout(tmp_path):
    img = Image2D(np.array([[0, 255], [128, 64]], dtype=np.float32),
                  RANGE_EIGHT_BIT)
    p = tmp_path / "t.pgm"
    write_pgm(p, img)
    blob = p.read_bytes()
    assert blob == b"P5\n2 2\n255\n" + bytes([0x00, 0xFF, 0x80, 0x40])


def test_pgm_quantizes_unit_range(tmp_path):
    img = Image2D(np.array([[0.0, 0.5], [1.0, 0.25]], dtype=np.float32),
                  RANGE_UNIT)
    p = tmp_path / "u.pgm"
    write_pgm(p, img)
    back = read_pgm(p)
    # round half away from zero: 0.5*255 = 127.5 -> 128
    assert np.array_equal(back.data, [[0, 128], [255, 64]])


def test_pgm_signed_round_trip_through_unit(tmp_path):
    img = Image2D(np.linspace(-1, 1, 64, dtype=np.float32).reshape(8, 8),
                  RANGE_SIGNED)
    p = tmp_path / "s.pgm"
    write_pgm(p, img)
    back = read_pgm(p).to_range(RANGE_SIGNED)
    assert np.abs(back.data - img.data).max() <= 1.0 / 255.0 + 1e-6


def test_pgm_rejects_maxval_not_255(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(HeaderError):
        read_pgm(p)


def test_pgm_accepts_comment_lines(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([1, 2, 3, 4]))
    img = read_pgm(p)
    assert np.array_equal(img.data, [[1, 2], [3, 4]])


# ---------------------------------------------------------------- tensors

@pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 4), (2, 1, 3, 2)])
def test_tensor_round_trip(tmp_path, shape):
    rng = np.random.default_rng(1)
    arr = rng.normal(size=shape).astype(np.float32)
    p = tmp_path / "t.ndf"
    write_tensor(p, arr)
    back = read_tensor(p)
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_tensor_header_bytes(tmp_path):
    arr = np.array([[1.0, 2.0]], dtype=np.float32)
    p = tmp_path / "h.ndf"
    write_tensor(p, arr)
    blob = p.read_bytes()
    assert blob[:4] == b"NDF1"
    assert struct.unpack_from("<I", blob, 4)[0] == 2      # ndim
    assert struct.unpack_from("<II", blob, 8) == (1, 2)   # dims
    assert np.frombuffer(blob[16:], dtype="<f4").tolist() == [1.0, 2.0]


def test_tensor_rejects_bad_ndim():
    with pytest.raises(ValueError):
        write_tensor("/dev/null", np.zeros((1, 1, 1, 1, 1), dtype=np.float32))


# ------------------------------------------------------------- checkpoint

def _params_table():
    rng = np.random.default_rng(2)
    return {
        "stem.w": rng.normal(size=(4, 1, 3, 3)).astype(np.float32),
        "stem.b": np.zeros(4, dtype=np.float32),
        "head.w": rng.normal(size=(1, 4, 3, 3)).astype(np.float32),
    }


def test_checkpoint_round_trip(tmp_path):
    entries = _params_table()
    p = tmp_path / "m.ckpt"
    write_checkpoint(p, entries)
    back = read_checkpoint(p)
    assert list(back) == list(entries)  # order preserved
    for name in entries:
        assert np.array_equal(back[name], entries[name])


def test_checkpoint_empty_table_is_valid(tmp_path):
    p = tmp_path / "empty.ckpt"
    write_checkpoint(p, {})
    assert read_checkpoint(p) == {}


def test_checkpoint_crc_detects_payload_flip(tmp_path):
    p = tmp_path / "m.ckpt"
    write_checkpoint(p, _params_table())
    blob = bytearray(p.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    p.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        read_checkpoint(p)


def test_checkpoint_non_utf8_name_is_header_error(tmp_path):
    body = bytearray(b"DDPMCKPT" + struct.pack("<II", 1, 1))
    body += struct.pack("<H", 2) + b"\xff\xfe"
    body += fm.tensor_bytes(np.ones(3, dtype=np.float32))
    body += struct.pack("<I", zlib.crc32(bytes(body)))
    p = tmp_path / "badname.ckpt"
    p.write_bytes(bytes(body))
    with pytest.raises(HeaderError, match="UTF-8"):
        read_checkpoint(p)


def test_checkpoint_entries_parse_from_one_buffer(tmp_path, monkeypatch):
    # Every entry is parsed out of the same file buffer, bounded by an end
    # offset, rather than out of a fresh copy of the file per entry.
    seen = []
    real = fm._parse_tensor

    def spy(blob, offset=0, end=None):
        seen.append((blob, end))
        return real(blob, offset, end)

    monkeypatch.setattr(fm, "_parse_tensor", spy)
    p = tmp_path / "m.ckpt"
    write_checkpoint(p, _params_table())
    assert len(read_checkpoint(p)) == 3
    assert len(seen) == 3
    assert all(blob is seen[0][0] for blob, _ in seen)
    assert all(end == p.stat().st_size - 4 for _, end in seen)


def test_parse_tensor_stops_at_end():
    blob = fm.tensor_bytes(np.arange(4, dtype=np.float32))
    padded = blob + b"\x00" * 16
    arr, consumed = fm._parse_tensor(padded, 0, len(blob))
    assert consumed == len(blob)
    assert np.array_equal(arr, np.arange(4, dtype=np.float32))
    with pytest.raises(LengthError):
        fm._parse_tensor(padded, 0, len(blob) - 1)
    with pytest.raises(MagicError):
        fm._parse_tensor(padded, 0, 3)


# ------------------------------------------------------------------ CIFAR

def _cifar_blob(labels, fill):
    out = bytearray()
    for lab, val in zip(labels, fill):
        out.append(lab)
        out.extend([val] * 3072)
    return bytes(out)


def test_cifar_two_record_fixture(tmp_path):
    p = tmp_path / "batch.bin"
    p.write_bytes(_cifar_blob([3, 7], [0, 255]))
    images, labels = load_cifar(p, to_gray=True)
    assert images.shape == (2, 32, 32)
    assert labels.tolist() == [3, 7]
    assert np.allclose(images[0], -1.0)
    assert np.allclose(images[1], 1.0)


def test_cifar_color_mode(tmp_path):
    p = tmp_path / "batch.bin"
    p.write_bytes(_cifar_blob([0], [128]))
    images, _ = load_cifar(p, to_gray=False)
    assert images.shape == (1, 3, 32, 32)
    assert np.allclose(images, 128 / 127.5 - 1.0, atol=1e-6)


def test_cifar_gray_is_channel_mean(tmp_path):
    rec = bytearray([1])
    rec.extend([30] * 1024)   # R plane
    rec.extend([60] * 1024)   # G plane
    rec.extend([120] * 1024)  # B plane
    p = tmp_path / "batch.bin"
    p.write_bytes(bytes(rec))
    images, _ = load_cifar(p, to_gray=True)
    assert np.allclose(images, 70 / 127.5 - 1.0, atol=1e-6)


def test_cifar_truncated_file(tmp_path):
    p = tmp_path / "short.bin"
    p.write_bytes(_cifar_blob([1], [5])[:-10])
    with pytest.raises(LengthError):
        load_cifar(p)


def test_cifar_label_out_of_range(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(_cifar_blob([10], [5]))
    with pytest.raises(HeaderError):
        load_cifar(p)


# --------------------------------------------------------------------- RF

def _frame():
    g = TransducerGeometry(element_count=8)
    rng = np.random.default_rng(3)
    return RFFrame(rng.normal(size=(8, 64)).astype(np.float32), 0.05, g)


def test_rf_round_trip(tmp_path):
    frame = _frame()
    p = tmp_path / "f.rf"
    write_rf(p, frame)
    back = read_rf(p)
    assert np.array_equal(back.samples, frame.samples)
    assert back.steer_angle == frame.steer_angle
    assert back.geometry == frame.geometry


def test_rf_missing_key_named(tmp_path):
    frame = _frame()
    p = tmp_path / "f.rf"
    write_rf(p, frame)
    text = p.read_bytes()
    head, _, tail = text.partition(b"\n\n")
    lines = [l for l in head.split(b"\n") if not l.startswith(b"c_mps=")]
    p.write_bytes(b"\n".join(lines) + b"\n\n" + tail)
    with pytest.raises(HeaderError, match="c_mps"):
        read_rf(p)


def test_rf_payload_length_mismatch(tmp_path):
    frame = _frame()
    p = tmp_path / "f.rf"
    write_rf(p, frame)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(LengthError):
        read_rf(p)


# --------------------------------------------- mutation robustness sweep

def _valid_pgm(tmp_path):
    p = tmp_path / "v.pgm"
    write_pgm(p, Image2D(np.arange(12, dtype=np.float32).reshape(3, 4),
                         RANGE_EIGHT_BIT))
    return p.read_bytes()


def _valid_tensor():
    import usdenoise.formats as fm
    return fm.tensor_bytes(np.arange(6, dtype=np.float32).reshape(2, 3))


def _valid_ckpt(tmp_path):
    p = tmp_path / "v.ckpt"
    write_checkpoint(p, {"a": np.ones(3, dtype=np.float32)})
    return p.read_bytes()


def _valid_rf(tmp_path):
    p = tmp_path / "v.rf"
    write_rf(p, _frame())
    return p.read_bytes()


def _valid_cifar():
    return _cifar_blob([1, 2], [9, 9])


MUTATIONS = [
    # (format, mutator) -- every case must raise a FormatError subclass
    ("pgm", lambda b: b"P4" + b[2:]),                       # wrong magic
    ("pgm", lambda b: b[:-3]),                              # truncated payload
    ("pgm", lambda b: b.replace(b"255", b"256")),           # bad maxval
    ("pgm", lambda b: b"P5\n-3 4\n255\n" + b"\x00" * 12),   # negative dims
    ("pgm", lambda b: b"P5\n"),                             # header cut short
    ("tensor", lambda b: b"XDF1" + b[4:]),                  # wrong magic
    ("tensor", lambda b: b[:-2]),                           # truncated payload
    ("tensor", lambda b: b + b"\x00\x00"),                  # trailing garbage
    ("tensor", lambda b: b[:4] + struct.pack("<I", 9) + b[8:]),   # ndim 9
    ("tensor", lambda b: b[:8] + struct.pack("<I", 0) + b[12:]),  # zero dim
    ("ckpt", lambda b: b"WRONGMAG" + b[8:]),                # wrong magic
    ("ckpt", lambda b: b[:-1]),                             # truncated
    ("ckpt", lambda b: b[:20] + bytes([b[20] ^ 0xFF]) + b[21:]),  # bit flip
    ("ckpt", lambda b: b[:8] + struct.pack("<I", 99) + b[12:]),   # bad version
    ("ckpt", lambda b: b[:12] + struct.pack("<I", 5) + b[16:]),   # count lies
    ("cifar", lambda b: b[: len(b) // 2 + 1]),              # not a multiple
    ("cifar", lambda b: bytes([200]) + b[1:]),              # label 200
    ("cifar", lambda b: b""),                               # empty file
    ("rf", lambda b: b.replace(b"fs_hz=", b"fs_xx=")),      # missing key
    ("rf", lambda b: b + b"\x00" * 4),                      # extra payload
    ("rf", lambda b: b.replace(b"elements=8", b"elements=ten")),  # bad value
    ("rf", lambda b: b.split(b"\n\n")[1]),                  # header gone
]


@pytest.mark.parametrize("kind,mutate", MUTATIONS)
def test_mutated_files_raise_typed_errors(tmp_path, kind, mutate):
    if kind == "pgm":
        blob, reader = _valid_pgm(tmp_path), read_pgm
    elif kind == "tensor":
        blob, reader = _valid_tensor(), read_tensor
    elif kind == "ckpt":
        blob, reader = _valid_ckpt(tmp_path), read_checkpoint
    elif kind == "cifar":
        blob, reader = _valid_cifar(), load_cifar
    else:
        blob, reader = _valid_rf(tmp_path), read_rf
    target = tmp_path / f"mut.{kind}"
    target.write_bytes(mutate(blob))
    with pytest.raises(FormatError):
        reader(target)
