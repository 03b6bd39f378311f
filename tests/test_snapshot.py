"""Binary field snapshot format."""

import struct

import numpy as np
import pytest

from splf import snapshot as sn
from splf import spectral as sp

from test_spectral import random_field


class TestRoundTrip:
    @pytest.mark.parametrize("seed,d,n", [(0, 2, 3), (1, 2, 1), (2, 3, 2)])
    def test_exact_round_trip(self, tmp_path, seed, d, n):
        f = random_field(seed, d=d, n=n)
        path = tmp_path / "field.splf"
        sn.write_snapshot(f, path)
        g = sn.read_snapshot(path)
        assert g.d == f.d and g.n == f.n
        assert np.array_equal(g.modes, f.modes)
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_bytes_round_trip(self):
        f = random_field(3, d=2, n=2)
        assert np.array_equal(sn.bytes_to_field(sn.field_to_bytes(f)).coeffs,
                              f.coeffs)


class TestLayout:
    def test_header_layout(self):
        f = sp.SpectralField.zero(2, 1)
        blob = sn.field_to_bytes(f)
        assert blob[:4] == b"SPLF"
        version, d, n, count = struct.unpack_from("<IIII", blob, 4)
        assert (version, d, n) == (sn.VERSION, 2, 1)
        assert count == 4  # half-space of [-1,1]^2 minus origin
        # record: d int32 + 2d float64 per mode
        assert len(blob) == 20 + count * (4 * 2 + 16 * 2)

    def test_mode_order_lexicographic(self):
        f = random_field(0, d=2, n=2)
        blob = sn.field_to_bytes(f)
        zs = []
        off = 20
        for _ in range(f.modes.shape[0]):
            zs.append(tuple(np.frombuffer(blob, dtype="<i4", count=2, offset=off)))
            off += 8 + 32
        assert zs == sorted(zs)

    def test_bytes_match_struct_layout(self):
        f = random_field(2, d=3, n=2)
        want = sn.MAGIC + struct.pack("<IIII", sn.VERSION, 3, 2, len(f.modes))
        for z, c in zip(f.modes, f.coeffs):
            want += struct.pack("<3i", *z)
            want += struct.pack("<6d", *(v for x in c for v in (x.real, x.imag)))
        assert sn.field_to_bytes(f) == want
        g = sn.bytes_to_field(want)
        assert np.array_equal(g.modes, f.modes)
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_known_coefficient_bytes(self):
        # one mode with a hand-placed coefficient survives byte-level checks
        idx = sp.make_basis(1, 2)[0]
        f = sp.basis_function(idx, n=1)
        blob = sn.field_to_bytes(f)
        g = sn.bytes_to_field(blob)
        assert np.array_equal(g.coeff(idx.z), f.coeff(idx.z))


def one_mode_blob(d, n, coeff):
    """A snapshot of one mode, z = e_1, with coefficient vector coeff."""
    z = np.zeros(d, dtype=int)
    z[0] = 1
    c = np.asarray(coeff, dtype=complex)
    return (sn.MAGIC + struct.pack("<IIII", sn.VERSION, d, n, 1)
            + struct.pack(f"<{d}i", *z)
            + struct.pack(f"<{2 * d}d", *(v for x in c for v in (x.real, x.imag))))


class TestReadCost:
    @pytest.mark.parametrize("d,n", [(3, 10 ** 6), (40, 1)])
    def test_read_does_not_build_the_basis(self, monkeypatch, d, n):
        # the modes are checked from the file alone: the (2n+1)^d box of
        # the header is never built, however few modes the file holds
        def no_basis(*args):
            raise AssertionError("the basis was built")

        monkeypatch.setattr(sp, "basis", no_basis)
        coeff = np.zeros(d, dtype=complex)
        coeff[1] = 0.5 - 0.25j
        g = sn.bytes_to_field(one_mode_blob(d, n, coeff))
        assert (g.d, g.n) == (d, n)
        assert np.array_equal(g.modes, np.eye(1, d, dtype=np.int64))
        assert np.array_equal(g.coeffs, coeff[None])


class TestErrors:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient(self, bad):
        coeff = np.array([0.0, complex(1.0, bad)])
        with pytest.raises(sn.SnapshotError, match=f"must be finite, got {bad} at mode \\(1, 0\\)"):
            sn.bytes_to_field(one_mode_blob(2, 1, coeff))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_writer_refuses_non_finite(self, tmp_path, bad):
        # the writer raises what the reader would, before it opens the file
        modes = sp.basis(2, 1).modes
        coeffs = np.zeros(modes.shape, dtype=complex)
        coeffs[0, 0] = bad                      # at mode (0, 1), divergence free
        f = sp.SpectralField(d=2, n=1, modes=modes, coeffs=coeffs)
        path = tmp_path / "field.splf"
        with pytest.raises(sn.SnapshotError,
                           match=f"^snapshot coefficients: must be finite, got {bad} at mode \\(0, 1\\)$"):
            sn.write_snapshot(f, path)
        assert not path.exists()

    def test_bad_magic(self):
        with pytest.raises(sn.SnapshotError, match="magic"):
            sn.bytes_to_field(b"XXXX" + b"\0" * 32)

    def test_bad_version(self):
        f = sp.SpectralField.zero(2, 1)
        blob = bytearray(sn.field_to_bytes(f))
        blob[4:8] = struct.pack("<I", 99)
        with pytest.raises(sn.SnapshotError, match="version"):
            sn.bytes_to_field(bytes(blob))

    def test_truncated_body(self):
        f = sp.SpectralField.zero(2, 1)
        blob = sn.field_to_bytes(f)[:-8]
        with pytest.raises(sn.SnapshotError, match="length"):
            sn.bytes_to_field(blob)

    @pytest.mark.parametrize("d,n,message", [
        (0, 1, "header d: must be at least 2, got 0"),
        (1, 1, "header d: must be at least 2, got 1"),
        (2, 0, "header n: must be at least 1, got 0"),
        # 20·d bytes per mode record must fit numpy's C int item size
        (107374183, 1, "header d: .*too large.*got 107374183"),
        (2 ** 31, 1, "header d: .*too large.*got 2147483648"),
        (2 ** 32 - 1, 1, "header d: .*too large.*got 4294967295"),
    ])
    def test_bad_header_dimensions_named(self, d, n, message):
        blob = sn.MAGIC + struct.pack("<IIII", sn.VERSION, d, n, 0)
        with pytest.raises(sn.SnapshotError, match=message):
            sn.bytes_to_field(blob)

    @pytest.mark.parametrize("size", [4, 12, 19])
    def test_truncated_header(self, size):
        blob = sn.field_to_bytes(sp.SpectralField.zero(2, 1))[:size]
        assert blob[:4] == sn.MAGIC
        with pytest.raises(sn.SnapshotError, match=f"header: 20 bytes needed, got {size}"):
            sn.bytes_to_field(blob)
