"""Binary field snapshots.

Layout (all little-endian): magic bytes b"SPLF", format version (uint32),
d and n (uint32 each), mode count (uint32), then per mode d int32 wave
vector components followed by d complex coefficients stored as 2d float64
values (real, imag interleaved).  Modes appear in lexicographic order and
only the canonical half-space representatives are stored; the conjugate
partners are implicit.
"""

from __future__ import annotations

import struct

import numpy as np

from .spectral import SpectralField

MAGIC = b"SPLF"
VERSION = 1

__all__ = ["write_snapshot", "read_snapshot", "SnapshotError", "MAGIC", "VERSION"]


class SnapshotError(ValueError):
    """Malformed snapshot bytes."""


def _mode_dtype(d: int) -> np.dtype:
    """One packed mode record: d int32 wave vector components, then 2d
    float64 values (real, imag interleaved)."""
    return np.dtype([("z", "<i4", (d,)), ("c", "<f8", (2 * d,))])


def _check_finite(body: np.ndarray) -> None:
    """Raise SnapshotError at the first NaN or infinite value of the mode
    records body read from a file, before SpectralField sees it."""
    c = body["c"]
    bad = np.argwhere(~np.isfinite(c))
    if len(bad):
        k, i = bad[0]
        raise SnapshotError(
            f"snapshot coefficients: must be finite, got {c[k, i]} at mode "
            f"{tuple(int(v) for v in body['z'][k])}")


def field_to_bytes(field: SpectralField) -> bytes:
    head = MAGIC + struct.pack("<IIII", VERSION, field.d, field.n,
                               field.modes.shape[0])
    body = np.empty(field.modes.shape[0], dtype=_mode_dtype(field.d))
    body["z"] = field.modes
    body["c"][:, 0::2] = field.coeffs.real
    body["c"][:, 1::2] = field.coeffs.imag
    return head + body.tobytes()


def bytes_to_field(blob: bytes) -> SpectralField:
    if blob[:4] != MAGIC:
        raise SnapshotError("bad magic bytes, not a field snapshot")
    if len(blob) < 20:
        raise SnapshotError(f"snapshot header: 20 bytes needed, got {len(blob)}")
    version, d, n, count = struct.unpack_from("<IIII", blob, 4)
    if version != VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}")
    if d < 2:
        raise SnapshotError(f"snapshot header d: must be at least 2, got {d}")
    if 20 * d > np.iinfo(np.intc).max:
        raise SnapshotError(
            f"snapshot header d: a mode record of 20*d bytes is too large "
            f"for numpy, got {d}")
    if n < 1:
        raise SnapshotError(f"snapshot header n: must be at least 1, got {n}")
    expected = 20 + count * (4 * d + 16 * d)
    if len(blob) != expected:
        raise SnapshotError(
            f"snapshot length {len(blob)} != expected {expected}")
    body = np.frombuffer(blob, dtype=_mode_dtype(d), count=count, offset=20)
    _check_finite(body)
    c = body["c"]
    return SpectralField(d=int(d), n=int(n), modes=body["z"].astype(np.int64),
                         coeffs=c[:, 0::2] + 1j * c[:, 1::2])


def write_snapshot(field: SpectralField, path) -> None:
    """Write field to path."""
    blob = field_to_bytes(field)
    with open(path, "wb") as fh:
        fh.write(blob)


def read_snapshot(path) -> SpectralField:
    with open(path, "rb") as fh:
        return bytes_to_field(fh.read())
