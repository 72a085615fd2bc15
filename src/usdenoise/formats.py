"""Bit-exact readers and writers for the on-disk formats.

All integers are little-endian regardless of host.  Readers validate fully
before returning and raise a typed ``FormatError`` subclass on any
malformation; there are no partial silent reads.

Formats:

- PGM       binary "P5", maxval 255 only
- tensor    magic ``NDF1`` | ndim u32 | dims u32 each | float32 payload
- checkpoint  magic ``DDPMCKPT`` | version u32 | count u32 |
              (name_len u16, name, embedded tensor blob)* | crc32 u32
- CIFAR batch  3073-byte records: label byte + 3x32x32 channel-planar pixels
- RF        text ``key=value`` header, blank line, float32 element-major
"""

from __future__ import annotations

import io
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from usdenoise.image import Image2D
from usdenoise.ultrasound.types import RFFrame, TransducerGeometry

TENSOR_MAGIC = b"NDF1"
CHECKPOINT_MAGIC = b"DDPMCKPT"
CHECKPOINT_VERSION = 1
CIFAR_RECORD_BYTES = 3073

RF_HEADER_KEYS = ("elements", "samples", "fs_hz", "c_mps", "pitch_m",
                  "f0_hz", "angle_rad")


class FormatError(Exception):
    """Base class for malformed-file errors."""


class MagicError(FormatError):
    pass


class ChecksumError(FormatError):
    pass


class LengthError(FormatError):
    pass


class HeaderError(FormatError):
    pass


# -------------------------------------------------------------------- PGM

def _read_pgm_token(f: io.BufferedReader) -> bytes:
    """Next whitespace-delimited token, skipping '#' comment lines."""
    tok = b""
    while True:
        c = f.read(1)
        if c == b"":
            raise HeaderError("truncated PGM header")
        if c == b"#":
            while c not in (b"\n", b""):
                c = f.read(1)
            continue
        if c.isspace():
            if tok:
                return tok
            continue
        tok += c


def _unit_levels(u8: np.ndarray) -> np.ndarray:
    """Level k reads float32(k) * float32(1/255), within an ulp of k/255."""
    return u8.astype(np.float32) * (1 / 255)


def read_pgm(path) -> Image2D:
    """A binary 8-bit PGM as a unit-interval image (``_unit_levels``)."""
    with open(path, "rb") as f:
        if _read_pgm_token(f) != b"P5":
            raise MagicError("not a binary PGM (P5) file")
        try:
            width = int(_read_pgm_token(f))
            height = int(_read_pgm_token(f))
            maxval = int(_read_pgm_token(f))
        except ValueError as exc:
            raise HeaderError(f"bad PGM header field: {exc}") from None
        if maxval != 255:
            raise HeaderError(f"only maxval 255 supported, got {maxval}")
        if width < 1 or height < 1:
            raise HeaderError(f"bad PGM dimensions {width}x{height}")
        left = os.fstat(f.fileno()).st_size - f.tell()
        if width * height > left:
            raise LengthError(f"PGM payload is {left} bytes, "
                              f"expected {width * height}")
        payload = f.read(width * height + 1)
        if len(payload) != width * height:
            raise LengthError(f"PGM payload is {len(payload)} bytes, "
                              f"expected {width * height}")
    data = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return Image2D(_unit_levels(data))


def _quantize_u8(img: Image2D) -> np.ndarray:
    scaled = img.data.astype(np.float64) * 255.0
    # round half away from zero, then clamp
    rounded = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    return np.clip(rounded, 0, 255).astype(np.uint8)


def write_pgm(path, img: Image2D) -> None:
    payload = _quantize_u8(img)
    with open(path, "wb") as f:
        f.write(f"P5\n{img.width} {img.height}\n255\n".encode("ascii"))
        f.write(payload.tobytes())


# ------------------------------------------------------------------ tensor

def tensor_bytes(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype=np.float32)
    if not 1 <= arr.ndim <= 4:
        raise ValueError(f"tensor must have 1..4 dims, got {arr.ndim}")
    out = bytearray(TENSOR_MAGIC)
    out += struct.pack("<I", arr.ndim)
    out += struct.pack(f"<{arr.ndim}I", *arr.shape)
    out += np.ascontiguousarray(arr).astype("<f4").tobytes()
    return bytes(out)


def _parse_tensor(blob: bytes, offset: int = 0,
                  end: int | None = None) -> tuple[np.ndarray, int]:
    """Parse one embedded tensor from ``blob[offset:end]`` without slicing
    ``blob``; returns (array, bytes consumed)."""
    end = len(blob) if end is None else end
    if end < offset + 4 or blob[offset:offset + 4] != TENSOR_MAGIC:
        raise MagicError("bad tensor magic")
    pos = offset + 4
    if end < pos + 4:
        raise LengthError("truncated tensor header")
    (ndim,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    if not 1 <= ndim <= 4:
        raise HeaderError(f"tensor ndim {ndim} outside 1..4")
    if end < pos + 4 * ndim:
        raise LengthError("truncated tensor dims")
    dims = struct.unpack_from(f"<{ndim}I", blob, pos)
    pos += 4 * ndim
    count = 1
    for d in dims:
        if d == 0:
            raise HeaderError("zero-sized tensor dimension")
        count *= d
    nbytes = 4 * count
    if end < pos + nbytes:
        raise LengthError(f"tensor payload needs {nbytes} bytes, "
                          f"{end - pos} available")
    arr = np.frombuffer(blob, dtype="<f4", count=count, offset=pos)
    return arr.reshape(dims).copy(), pos + nbytes - offset


def write_tensor(path, arr: np.ndarray) -> None:
    Path(path).write_bytes(tensor_bytes(arr))


def read_tensor(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    arr, consumed = _parse_tensor(blob)
    if consumed != len(blob):
        raise LengthError(f"{len(blob) - consumed} trailing bytes after tensor")
    return arr


# -------------------------------------------------------------- checkpoint

def write_checkpoint(path, entries: dict[str, np.ndarray]) -> None:
    """Write an ordered name -> tensor table with a trailing CRC32."""
    body = bytearray(CHECKPOINT_MAGIC)
    body += struct.pack("<II", CHECKPOINT_VERSION, len(entries))
    for name, arr in entries.items():
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError(f"entry name too long: {name!r}")
        body += struct.pack("<H", len(raw))
        body += raw
        body += tensor_bytes(arr)
    body += struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
    Path(path).write_bytes(bytes(body))


def read_checkpoint(path) -> dict[str, np.ndarray]:
    blob = Path(path).read_bytes()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise MagicError("bad checkpoint magic")
    if len(blob) < 8 + 8 + 4:
        raise LengthError("checkpoint too short")
    stored_crc = struct.unpack_from("<I", blob, len(blob) - 4)[0]
    actual_crc = zlib.crc32(memoryview(blob)[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise ChecksumError(f"checkpoint CRC mismatch: stored {stored_crc:#010x}, "
                            f"computed {actual_crc:#010x}")
    version, count = struct.unpack_from("<II", blob, 8)
    if version != CHECKPOINT_VERSION:
        raise HeaderError(f"unsupported checkpoint version {version}")
    pos = 16
    end = len(blob) - 4
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        if end < pos + 2:
            raise LengthError("truncated checkpoint entry header")
        (name_len,) = struct.unpack_from("<H", blob, pos)
        pos += 2
        if end < pos + name_len:
            raise LengthError("truncated checkpoint entry name")
        try:
            name = blob[pos:pos + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise HeaderError(f"checkpoint entry name at byte {pos} is not "
                              "valid UTF-8") from None
        pos += name_len
        if name in entries:
            raise HeaderError(f"duplicate checkpoint entry {name!r}")
        arr, consumed = _parse_tensor(blob, pos, end)
        pos += consumed
        entries[name] = arr
    if pos != end:
        raise LengthError(f"{end - pos} unparsed bytes in checkpoint body")
    return entries


# ------------------------------------------------------------------ CIFAR

def load_cifar(path, to_gray: bool = True):
    """Load a binary batch of 3073-byte records.

    Returns ``(images, labels)``: images are float32 in [-1, 1], a byte
    read as ``to_signed`` maps its PGM level, shaped (N, 32, 32) when
    ``to_gray`` (unweighted mean of the channel planes) else (N, 3, 32, 32).
    """
    blob = Path(path).read_bytes()
    if len(blob) == 0 or len(blob) % CIFAR_RECORD_BYTES != 0:
        raise LengthError(f"file length {len(blob)} is not a multiple of "
                          f"{CIFAR_RECORD_BYTES}")
    n = len(blob) // CIFAR_RECORD_BYTES
    records = np.frombuffer(blob, dtype=np.uint8).reshape(n, CIFAR_RECORD_BYTES)
    labels = records[:, 0].copy()
    if np.any(labels > 9):
        bad = int(np.argmax(labels > 9))
        raise HeaderError(f"record {bad} has label {labels[bad]} > 9")
    pixels = _unit_levels(records[:, 1:].reshape(n, 3, 32, 32)) * 2.0 - 1.0
    if to_gray:
        return pixels.mean(axis=1), labels
    return pixels, labels


# --------------------------------------------------------------------- RF

def write_rf(path, frame: RFFrame) -> None:
    g = frame.geometry
    samples = np.ascontiguousarray(frame.samples, dtype="<f4")
    header = (f"elements={samples.shape[0]}\n"
              f"samples={samples.shape[1]}\n"
              f"fs_hz={g.sampling_rate!r}\n"
              f"c_mps={g.sound_speed!r}\n"
              f"pitch_m={g.pitch!r}\n"
              f"f0_hz={g.center_frequency!r}\n"
              f"angle_rad={float(frame.steer_angle)!r}\n"
              "\n")
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(samples.tobytes())


def read_rf(path) -> RFFrame:
    blob = Path(path).read_bytes()
    sep = blob.find(b"\n\n")
    if sep < 0:
        raise HeaderError("no blank line terminating RF header")
    fields: dict[str, str] = {}
    for line in blob[:sep].decode("ascii", errors="replace").splitlines():
        if "=" not in line:
            raise HeaderError(f"malformed RF header line {line!r}")
        key, value = line.split("=", 1)
        fields[key.strip()] = value.strip()
    for key in RF_HEADER_KEYS:
        if key not in fields:
            raise HeaderError(f"missing RF header key {key!r}")
    try:
        elements = int(fields["elements"])
        samples = int(fields["samples"])
        fs = float(fields["fs_hz"])
        c = float(fields["c_mps"])
        pitch = float(fields["pitch_m"])
        f0 = float(fields["f0_hz"])
        angle = float(fields["angle_rad"])
    except ValueError as exc:
        raise HeaderError(f"bad RF header value: {exc}") from None
    if elements < 1 or samples < 0:
        raise HeaderError(f"bad RF extent {elements}x{samples}")
    if not all(math.isfinite(v) for v in (fs, c, pitch, f0, angle)):
        raise HeaderError("non-finite RF header value")
    payload = blob[sep + 2:]
    expected = 4 * elements * samples
    if len(payload) != expected:
        raise LengthError(f"RF payload is {len(payload)} bytes, "
                          f"expected {expected}")
    data = np.frombuffer(payload, dtype="<f4").reshape(elements, samples).copy()
    try:
        geometry = TransducerGeometry(element_count=elements, pitch=pitch,
                                      sampling_rate=fs, sound_speed=c,
                                      center_frequency=f0)
        return RFFrame(samples=data, steer_angle=angle, geometry=geometry)
    except ValueError as exc:      # a non-positive size or a steep angle
        raise HeaderError(f"bad RF header value: {exc}") from None

