"""Basis construction, field representation, transforms and norms."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from splf import spectral as sp


def random_field(seed, d=2, n=3, scale=None):
    """Seeded random admissible field with coordinates of size O(1)."""
    b = sp.basis(d, n)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(b.K)
    if scale is None:
        scale = 1.0 / np.sqrt(b.K)
    return sp.coords_to_field(x * scale, n, d)


class TestBasis:
    def test_count_n1_d2(self):
        # half-space of [-1,1]^2 minus 0 has 4 vectors, times 2d-2 = 2
        assert len(sp.make_basis(1, 2)) == 8

    def test_count_general(self):
        for n, d in [(2, 2), (1, 3), (2, 3)]:
            half = ((2 * n + 1) ** d - 1) // 2
            assert len(sp.make_basis(n, d)) == half * (2 * d - 2)

    def test_orthonormal_under_quadrature(self):
        basis = sp.make_basis(1, 2)
        grids = [sp.to_grid(sp.basis_function(b, n=1), 8).values for b in basis]
        G = np.array([[np.mean(np.sum(gi * gj, axis=0)) for gj in grids]
                      for gi in grids])
        assert np.abs(G - np.eye(len(basis))).max() < 1e-12

    def test_orthonormal_d3(self):
        basis = sp.make_basis(1, 3)
        grids = [sp.to_grid(sp.basis_function(b, n=1), 8).values for b in basis]
        G = np.array([[np.mean(np.sum(gi * gj, axis=0)) for gj in grids]
                      for gi in grids])
        assert np.abs(G - np.eye(len(basis))).max() < 1e-12

    def test_hyperplane_constraint_n2_d3(self):
        for b in sp.make_basis(2, 3):
            assert abs(np.dot(b.e_vec, b.z)) < 1e-14
            assert abs(np.linalg.norm(b.e_vec) - 1.0) < 1e-14

    def test_hyperplane_vectors_mutually_orthonormal(self):
        for z in [(1, 2, -3), (0, 0, 5), (2, 0, -1), (7, 7, 7)]:
            E = sp.hyperplane_basis(z)
            assert np.abs(E @ E.T - np.eye(len(E))).max() < 1e-14

    def test_invalid_args(self):
        with pytest.raises(sp.DimensionError):
            sp.make_basis(0, 2)
        with pytest.raises(sp.DimensionError):
            sp.make_basis(2, 1)

    def test_deterministic_ordering(self):
        a = sp.make_basis(2, 2)
        b = sp.make_basis(2, 2)
        assert [(x.z, x.j) for x in a] == [(x.z, x.j) for x in b]
        zs = [x.z for x in a[:: 2 * 2 - 2]]
        assert zs == sorted(zs)


class TestCoordinates:
    def test_basis_function_is_unit_vector(self):
        basis = sp.make_basis(2, 2)
        for k in (0, 3, 11):
            x = sp.field_to_coords(sp.basis_function(basis[k], n=2), n=2)
            expect = np.zeros_like(x)
            expect[k] = 1.0
            assert np.abs(x - expect).max() < 1e-14

    def test_zero_field(self):
        x = sp.field_to_coords(sp.SpectralField.zero(2, 3))
        assert np.all(x == 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip(self, seed):
        f = random_field(seed, d=2, n=4)
        x = sp.field_to_coords(f)
        f2 = sp.coords_to_field(x, f.n, f.d)
        assert np.abs(f.coeffs - f2.coeffs).max() < 1e-13

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_d3(self, seed):
        f = random_field(seed, d=3, n=2)
        x = sp.field_to_coords(f)
        f2 = sp.coords_to_field(x, f.n, f.d)
        assert np.abs(f.coeffs - f2.coeffs).max() < 1e-13

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 1), (3, 2), (4, 1)])
    def test_drift_tables_follow_the_coordinate_maps(self, d, n):
        # the tables restate coords_to_modes and modes_to_coords with the
        # gradient symbol folded in: down gives v and its strain e_ij,
        # i <= j (the diagonal, then i < j row by row), and up the
        # coordinates of div S for a symmetric S given by those components
        b = sp.basis(d, n)
        down, up = b.drift_tables
        i, j = (np.append(np.arange(d), a) for a in np.triu_indices(d, 1))
        ik = b.derivative(1).T
        rng = np.random.default_rng(10 * d + n)
        x = rng.standard_normal((3, b.K))
        spec = (x.reshape(3, -1, 1, 2 * d - 2) @ down).reshape(3, len(ik), -1)
        spec = spec.view(complex)
        vhat = b.coords_to_modes(x)
        grad = vhat[..., :, None] * ik[:, None, :]                  # d_j v_i
        strain = 0.5 * (grad[..., i, j] + grad[..., j, i])
        assert np.abs(spec - np.concatenate([vhat, strain], axis=2)).max() < 1e-13
        S = rng.standard_normal((3, len(ik), len(i), 2)).view(complex)[..., 0]
        full = np.zeros((3, len(ik), d, d), dtype=complex)
        full[..., i, j] = full[..., j, i] = S
        want = b.modes_to_coords(np.einsum("zj,pzij->pzi", ik, full))
        got = (S.view(float)[:, :, None] @ up).reshape(3, -1)
        assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()

    def test_truncation_mismatch(self):
        f = random_field(0, d=2, n=4)
        with pytest.raises(sp.DimensionError):
            sp.field_to_coords(f, n=2)

    def test_coeff_map_mode_beyond_n_named(self):
        with pytest.raises(sp.DimensionError, match=r"\(3, 0\)"):
            sp.SpectralField.from_coeff_map({(3, 0): [0.0, 1.0]}, d=2, n=2)


class TestModeIndex:
    @pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (4, 2), (1, 3), (2, 3)])
    def test_each_mode_maps_to_its_position(self, n, d):
        modes = sp.half_space_modes(n, d)
        assert np.array_equal(sp._mode_index(modes, n, d), np.arange(len(modes)))
        for k, z in enumerate(modes):
            assert sp._mode_index(tuple(z), n, d) == k
        assert np.all(sp._mode_index(-modes, n, d) == -1)
        assert sp._mode_index(np.zeros(d, dtype=int), n, d) == -1
        beyond = np.vstack([modes + (n + 1) * np.eye(d, dtype=int)[0],
                            modes - (2 * n + 1) * np.eye(d, dtype=int)[-1],
                            [[n + 1] + [0] * (d - 1)], [[-n - 1] * d]])
        assert np.all(sp._mode_index(beyond, n, d) == -1)

    def test_wrong_length_rejected(self):
        with pytest.raises(sp.DimensionError):
            sp._mode_index((1, 0, 0), 2, 2)


class TestCoord:
    """`basis(d, n).coord` states the coordinate layout once."""

    @pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (1, 3), (2, 3)])
    def test_coord_follows_make_basis_and_the_sine_parity(self, n, d):
        # (z, j) and (-z, j) sit where make_basis puts (z, j), and the sign
        # makes sign * psi_(z, j) the element that -z names: on the grid,
        # sqrt(2) e cos(2 pi z'.x) for a cosine branch and sqrt(2) e
        # sin(2 pi z'.x) for a sine branch, at z' = z and at z' = -z
        b, M = sp.basis(d, n), 2 * n + 2
        grid = np.stack(np.meshgrid(*([np.arange(M) / M] * d), indexing="ij"))
        for k, idx in enumerate(sp.make_basis(n, d)):
            z = np.array(idx.z)
            assert b.coord(idx.z, idx.j) == (k, 1)
            assert b.coord(tuple(-z), idx.j) == (k, -1 if idx.is_sine else 1)
            for zz in (z, -z):
                pos, sign = b.coord(tuple(zz), idx.j)
                x = np.zeros(b.K)
                x[pos] = sign
                got = sp.to_grid(sp.coords_to_field(x, n, d), M).values
                wave = (np.sin if idx.is_sine else np.cos)(
                    2 * np.pi * np.tensordot(zz, grid, axes=1))
                want = np.sqrt(2.0) * np.multiply.outer(idx.e_vec, wave)
                assert np.abs(got - want).max() < 1e-13

    def test_outside_the_basis(self):
        b = sp.basis(2, 2)
        assert b.coord((0, 0), 1)[0] == -1
        assert b.coord((3, 0), 2)[0] == -1
        assert b.coord((0, -3), 1)[0] == -1
        for j in (0, 3):
            with pytest.raises(sp.DimensionError, match=f"j={j}"):
                b.coord((1, 0), j)
        # a non-integer wave vector is not cast onto a mode or onto -1
        for z in ((0.5, 0), (1.5, 0), ("a", 0)):
            with pytest.raises(sp.DimensionError, match="non-integer"):
                b.coord(z, 1)
        # nor is a non-integer branch index, which gave a float position
        for j in (1.5, "1"):
            with pytest.raises(sp.DimensionError, match=f"j={j} is not an integer"):
                b.coord((1, 0), j)
        assert b.coord((-1, 0), 2.0) == b.coord((-1, 0), 2)

    def test_grid_map_reaches_the_basis_without_delegates(self):
        gm = sp.grid_map(2, 2, 10)
        assert gm.basis is sp.basis(2, 2)
        for name in ("modes", "K", "E", "zsq", "lam_coord", "coords_to_modes",
                     "modes_to_coords", "bessel", "derivative"):
            assert not hasattr(gm, name), name


class TestGridTransforms:
    # to_grid samples exactly on M >= 2n+1 points: the full-grid FFT
    # analysis of the samples, _GridMap.grid_to_modes, gives the
    # coefficients back
    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_order4(self, seed):
        f = random_field(seed, d=2, n=4)
        back = sp.grid_map(2, 4, 16).grid_to_modes(sp.to_grid(f, 16).values)
        assert np.abs(back - f.coeffs).max() < 1e-12

    def test_single_mode_exact(self):
        # on the smallest lossless grid, M = 2n+1
        idx = sp.make_basis(2, 2)[5]
        f = sp.basis_function(idx, n=2)
        back = sp.grid_map(2, 2, 5).grid_to_modes(sp.to_grid(f, 5).values)
        assert np.abs(back - f.coeffs).max() < 1e-14

    def test_zero_field_grid(self):
        g = sp.to_grid(sp.SpectralField.zero(2, 2), 12)
        assert np.all(g.values == 0)

    def test_rejects_small_grid(self):
        f = random_field(1, d=2, n=4)
        with pytest.raises(sp.AliasingError):
            sp.to_grid(f, 8)
        with pytest.raises(sp.AliasingError):
            sp.grid_map(2, 8, 16)


BAND_GRIDS = [(2, 2, 5), (2, 2, 10), (2, 2, 32), (2, 4, 49), (3, 1, 16),
              (3, 2, 15), (3, 2, 32)]
# The grid of the simulate-d3 norm column, norm_grid_size at d=3, n=2,
# p = 1.9, where lp_means batches rows of the Bessel symbol: the
# batch-independence tests run it with that symbol and the others with the
# gradient or the drift's components.
LP_GRID = (3, 2, 20)
BATCH_GRIDS = BAND_GRIDS + [pytest.param(*LP_GRID, id="3-2-20-bessel")]
MULTIPLIERS = {"bessel": lambda b: b.bessel(1.0),
               "gradient": lambda b: b.derivative(1),
               "laplacian": lambda b: b.derivative(2)}


def grid_wave_numbers(gm):
    """Integer wave vectors (d, M, ..., M) of gm's FFT grid, in np.fft order."""
    k = np.arange(gm.M)
    k = np.where(k < (gm.M + 1) // 2, k, k - gm.M).astype(float)
    return np.stack(np.meshgrid(*([k] * gm.d), indexing="ij"))


def full_grid_multiplier(gm, mult):
    """The multiplier of MULTIPLIERS[mult] on gm's whole grid, (c, M, ..., M)."""
    k = grid_wave_numbers(gm)
    ksq = np.sum(k ** 2, axis=0)
    return {"bessel": ((1.0 + sp.TWO_PI_SQ * ksq) ** 0.5)[None],
            "gradient": 2j * np.pi * k,
            "laplacian": (-sp.TWO_PI_SQ * ksq)[None]}[mult]


def band_rows(gm):
    """A zero row, single-mode rows at three corners of the band and one
    row with every mode, as half-space coefficients (R, Z, d)."""
    d, n = gm.d, gm.n
    corners = [(0,) * (d - 1) + (1,), (n,) + (-n,) * (d - 1), (n,) * d]
    vhat = np.zeros((len(corners) + 2,) + gm.basis.modes.shape, dtype=np.complex128)
    for r, z in enumerate(corners, start=1):
        k = sp._mode_index(np.array([z]), n, d)[0]
        vhat[r, k] = np.arange(1, d + 1) * (0.5 - 1.25j)
    rng = np.random.default_rng(d * 100 + n * 10 + gm.M)
    vhat[-1] = rng.standard_normal(gm.basis.modes.shape) + 1j * rng.standard_normal(
        gm.basis.modes.shape)
    return vhat


def lp_means_oracle(gm, vhat, multiplier, p):
    """The quadrature with a full transform: scatter, multiply the whole
    grid, np.fft.ifftn."""
    A = gm.scatter(vhat)[:, :, None] * multiplier
    A = A.reshape((len(A), -1) + gm.shape)
    values = np.fft.ifftn(A, axes=gm.grid_axes).real * gm.vol
    mag = np.sqrt(np.sum(values ** 2, axis=1))
    return (mag ** p).reshape(len(mag), -1).mean(axis=1)


class TestBandedTransform:
    """`_GridMap.lp_means` synthesises the grid values from the band alone,
    with small per-axis DFT matrices that round differently from
    np.fft.ifftn.  So the full-transform oracle is met to a stated bound,
    about 15x the worst difference seen (6.7e-16), on grids with even, odd,
    smooth and prime-power M; a zero row gives exactly zero."""

    @pytest.mark.parametrize("mult", sorted(MULTIPLIERS))
    @pytest.mark.parametrize("d,n,M", BAND_GRIDS)
    def test_matches_ifftn_byte_for_byte(self, d, n, M, mult):
        # The kernel reads only k_last >= 0 and takes the rest as the
        # conjugate, so the multiplied band must stay conjugate-symmetric:
        # multiplying the half-space coefficients by the symbol m(z) and
        # then scattering (the partner gets the conjugate) gives the same
        # grid values as multiplying the whole scattered array by m on the
        # full grid: equal value for value, where only the sign of a zero
        # may differ (a real m is promoted to m + 0j).
        gm = sp.grid_map(d, n, M)
        vhat, m = band_rows(gm), MULTIPLIERS[mult](gm.basis)
        got = gm.modes_to_grid(
            (vhat[..., None] * m.T[:, None]).reshape(len(vhat), len(gm.basis.modes), -1))
        A = gm.scatter(vhat)[:, :, None] * full_grid_multiplier(gm, mult)
        want = np.fft.ifftn(A.reshape((len(A), -1) + gm.shape), axes=gm.grid_axes).real * gm.vol
        assert np.array_equal(got, want)

    def test_box_and_grid_hold_each_mode_and_partner_once(self):
        # The (2n+1)^d box `synthesize` fills: each mode at `box_pos`, its
        # partner at `box_neg`, every cell once, only k = 0 left empty; and
        # `pos_flat`/`neg_flat` place them at the same wave vectors of the
        # grid.  The half box `analyse` reads, axes 0..d-2 over -n..n and
        # the last over 0..n: each mode at its own cell `half`, at -z where
        # `flip` is set, and `flip` set exactly where z_last < 0.
        for gm in (sp.grid_map(2, 2, 10), sp.grid_map(3, 2, 15)):
            d, n = gm.d, gm.n
            axis = np.arange(-n, n + 1)
            box = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
            assert np.array_equal(box[gm.box_pos], gm.basis.modes)
            assert np.array_equal(box[gm.box_neg], -gm.basis.modes)
            used = np.concatenate([gm.box_pos, gm.box_neg])
            assert len(np.unique(used)) == len(used) == len(box) - 1
            assert not np.any(box[np.setdiff1d(np.arange(len(box)), used)])
            kvec = grid_wave_numbers(gm).reshape(d, gm.vol)
            assert np.array_equal(kvec[:, gm.pos_flat].T, gm.basis.modes)
            assert np.array_equal(kvec[:, gm.neg_flat].T, -gm.basis.modes)
            axes = [axis] * (d - 1) + [np.arange(n + 1)]
            cells = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
            assert np.array_equal(gm.flip, gm.basis.modes[:, -1] < 0)
            assert np.array_equal(cells[gm.half],
                                  np.where(gm.flip[:, None], -1, 1) * gm.basis.modes)
            assert len(np.unique(gm.half)) == len(gm.half)

    @pytest.mark.parametrize("mult", sorted(MULTIPLIERS))
    @pytest.mark.parametrize("d,n,M", BAND_GRIDS)
    def test_lp_means_match_full_transform(self, d, n, M, mult):
        gm = sp.grid_map(d, n, M)
        vhat, m = band_rows(gm), MULTIPLIERS[mult](gm.basis)
        for p in (1.5, 2.5):
            got = gm.lp_means(vhat, m, p)
            want = lp_means_oracle(gm, vhat, full_grid_multiplier(gm, mult), p)
            assert got[0] == 0.0 and want[0] == 0.0
            assert np.all(np.abs(got[1:] - want[1:]) <= 1e-14 * want[1:])

    @pytest.mark.parametrize("d,n,M", BATCH_GRIDS)
    def test_rows_do_not_depend_on_their_batch(self, d, n, M):
        gm = sp.grid_map(d, n, M)
        m = gm.basis.bessel(1.0) if (d, n, M) == LP_GRID else gm.basis.derivative(1)
        chunk = max(1, sp.BLOCK_VALUES // (d * len(m) * gm.vol))
        rng = np.random.default_rng(M)
        shape = (2 * chunk + 1,) + gm.basis.modes.shape
        vhat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = gm.lp_means(vhat, m, 1.5)
        for r in range(len(vhat)):
            assert got[r:r + 1].tobytes() == gm.lp_means(vhat[r:r + 1], m, 1.5).tobytes()


class TestBandPair:
    """`synthesize` and its adjoint `analyse`, the one band transform that
    `lp_means` and the drift share."""

    @staticmethod
    def spectrum(gm, rows, c, seed):
        rng = np.random.default_rng(seed)
        shape = (rows, len(gm.basis.modes), c)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("d,n,M", BAND_GRIDS)
    def test_analyse_inverts_synthesize(self, d, n, M):
        # M >= 2n+1 leaves the band unaliased
        gm = sp.grid_map(d, n, M)
        spec = self.spectrum(gm, 3, d + 1, M)
        values = gm.synthesize(spec)
        assert values.shape == (3, M ** (d - 1), d + 1, M)
        assert values.dtype == np.float64
        back = gm.analyse(values)
        assert back.shape == spec.shape
        assert np.abs(back - spec).max() <= 1e-14 * np.abs(spec).max()

    @pytest.mark.parametrize("d,n,M", BAND_GRIDS)
    def test_synthesize_is_the_full_transform(self, d, n, M):
        gm = sp.grid_map(d, n, M)
        spec = self.spectrum(gm, 2, 2, M + 1)
        values = gm.synthesize(spec).reshape(2, M ** (d - 1), 2, M).swapaxes(1, 2)
        want = gm.modes_to_grid(spec).reshape(2, 2, M ** (d - 1), M)
        assert np.abs(values - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("d,n,M", BATCH_GRIDS)
    def test_rows_are_byte_equal_alone_and_in_a_batch(self, d, n, M):
        gm = sp.grid_map(d, n, M)
        if (d, n, M) == LP_GRID:     # one full batch of lp_means: v times the symbol
            rows = sp.BLOCK_VALUES // (d * gm.vol)
            assert 2 <= rows <= 4
            spec = self.spectrum(gm, rows, d, 2 * M) * gm.basis.bessel(1.0).T
        else:
            spec = self.spectrum(gm, 5, d + d * d, 2 * M)
        values = gm.synthesize(spec)
        band = gm.analyse(values)
        for r in range(len(spec)):
            assert gm.synthesize(spec[r:r + 1]).tobytes() == values[r:r + 1].tobytes()
            assert gm.analyse(values[r:r + 1]).tobytes() == band[r:r + 1].tobytes()


class TestSymbols:
    @pytest.mark.parametrize("mult", sorted(MULTIPLIERS))
    @pytest.mark.parametrize("d,n,M", BAND_GRIDS)
    def test_symbol_is_the_grid_multiplier_at_the_modes(self, d, n, M, mult):
        # (c, Z) at the half-space modes, the full-grid values there, and
        # their conjugates at the partners: the symbol of a real operator
        gm = sp.grid_map(d, n, M)
        m, full = MULTIPLIERS[mult](gm.basis), full_grid_multiplier(gm, mult)
        full = full.reshape(len(full), gm.vol)
        assert m.shape == (len(full), len(gm.basis.modes))
        assert m.tobytes() == full[:, gm.pos_flat].tobytes()
        assert np.array_equal(np.conj(m), full[:, gm.neg_flat])


class TestTruncation:
    def test_low_order_unchanged(self):
        f = random_field(5, d=2, n=2)
        g = sp.truncate_modes(f, 4)
        for z in f.modes:
            assert np.abs(g.coeff(z) - f.coeff(z)).max() < 1e-15

    def test_n0_is_zero(self):
        f = random_field(5, d=2, n=2)
        g = sp.truncate_modes(f, 0)
        assert np.abs(g.coeffs).max() == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_contraction(self, seed):
        f = random_field(seed, d=2, n=4)
        g = sp.truncate_modes(f, 2)
        assert sp.sobolev_norm(g, 2, 0) <= sp.sobolev_norm(f, 2, 0) + 1e-14

    def test_idempotent(self):
        f = random_field(9, d=2, n=4)
        one = sp.truncate_modes(f, 2)
        two = sp.truncate_modes(one, 2)
        assert np.abs(one.coeffs - two.coeffs).max() == 0.0


class TestSobolevNorm:
    def test_basis_l2_norm_one(self):
        for k in (0, 5, 9):
            f = sp.basis_function(sp.make_basis(2, 2)[k])
            assert abs(sp.sobolev_norm(f, 2, 0) - 1.0) < 1e-13

    def test_single_mode_closed_form(self):
        # || psi ||_{2,alpha}^2 = (1 + 4 pi^2 |z|^2)^alpha by Parseval
        for idx in (sp.make_basis(2, 2)[3], sp.make_basis(2, 2)[10]):
            f = sp.basis_function(idx)
            zsq = float(sum(c * c for c in idx.z))
            for alpha in (-1.0, 0.5, 1.0, 2.0):
                expect = (1.0 + 4.0 * np.pi ** 2 * zsq) ** alpha
                got = sp.sobolev_norm(f, 2, alpha) ** 2
                assert abs(got - expect) < 1e-10 * max(1.0, expect)

    @pytest.mark.parametrize("p,alpha", [(1.5, 0.0), (2.0, 1.0), (3.0, 0.5), (4.0, 1.0)])
    def test_homogeneity(self, p, alpha):
        f = random_field(11, d=2, n=3)
        lam = 2.5
        a = sp.sobolev_norm(lam * f, p, alpha)
        b = lam * sp.sobolev_norm(f, p, alpha)
        assert abs(a - b) < 1e-12 * max(1.0, b)

    @pytest.mark.parametrize("seed", range(5))
    def test_parseval_consistency(self, seed):
        f = random_field(seed, d=2, n=4)
        zsq = np.einsum("zd,zd->z", f.modes, f.modes).astype(float)
        exact = np.sqrt(2.0 * np.sum((1.0 + sp.TWO_PI_SQ * zsq)[:, None]
                                     * np.abs(f.coeffs) ** 2))
        quad = sp.sobolev_norm(f, 2, 1.0)
        assert abs(exact - quad) <= 1e-10 * exact

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_in_alpha(self, seed):
        f = random_field(seed, d=2, n=3)
        for p in (2.0, 3.0):
            a = sp.sobolev_norm(f, p, 0.5)
            b = sp.sobolev_norm(f, p, 1.25)
            assert a <= b * (1 + 1e-12)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            sp.sobolev_norm(random_field(0), 0.5, 0.0)

    def test_derivative_norms_match_parseval_oracle(self):
        f = random_field(2, d=2, n=3)
        g2 = sp.gradient_lp_norm(f, 2)
        l2 = sp.laplacian_lp_norm(f, 2)
        # Parseval forms
        w = np.einsum("zd,zd->z", f.modes, f.modes).astype(float)
        g2_oracle = np.sqrt(2 * np.sum(
            (sp.TWO_PI_SQ * w)[:, None] * np.abs(f.coeffs) ** 2))
        l2_oracle = np.sqrt(2 * np.sum(
            ((sp.TWO_PI_SQ * w) ** 2)[:, None] * np.abs(f.coeffs) ** 2))
        assert abs(g2 - g2_oracle) < 1e-12 * g2_oracle
        assert abs(l2 - l2_oracle) < 1e-12 * l2_oracle


# The Parseval weight of each MULTIPLIERS symbol per basis coordinate, as
# a function of 4 pi^2 |z|^2
PARSEVAL_WEIGHTS = {"bessel": lambda lam: 1.0 + lam,
                    "gradient": lambda lam: lam,
                    "laplacian": lambda lam: lam ** 2}


class TestGridLpMeans:
    """`grid_lp_means` is the one L_p route, p = 2 included."""

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 1), (3, 2)])
    @pytest.mark.parametrize("mult", sorted(MULTIPLIERS))
    def test_p2_matches_the_parseval_sum(self, d, n, mult):
        # at p = 2 the grid is the pairing grid, on which the rectangle rule
        # integrates |m(D) v|^2 exactly: the mean is the weighted sum of the
        # squared basis coordinates, up to rounding
        zsq = np.sum(sp.half_space_modes(n, d) ** 2, axis=1)
        lam = np.repeat(sp.TWO_PI_SQ * zsq, 2 * d - 2)
        x = np.random.default_rng(10 * d + n).standard_normal((6, lam.size))
        x *= (1.0 + lam) ** -0.5
        want = np.sum(PARSEVAL_WEIGHTS[mult](lam) * x * x, axis=1)
        got = sp.grid_lp_means(x, d, n, 2.0, MULTIPLIERS[mult](sp.basis(d, n)))
        assert np.max(np.abs(got - want) / want) <= 1e-14

    @pytest.mark.parametrize("p", [0.5, 0.0, float("nan")])
    def test_rejects_p_below_one(self, p, monkeypatch):
        # before any grid is picked
        def no_search(*args):
            raise AssertionError("a grid was picked")

        monkeypatch.setattr(sp, "norm_grid_size", no_search)
        x = np.ones((1, sp.basis(2, 2).K))
        with pytest.raises(ValueError, match="p >= 1"):
            sp.grid_lp_means(x, 2, 2, p, MULTIPLIERS["bessel"](sp.basis(2, 2)))
        with pytest.raises(ValueError, match="p >= 1"):
            sp.gradient_lp_norm(random_field(0), p)


# (d, n, p) of the benchmark inputs (energy-d2, uniqueness-d2, simulate-d3),
# the demo configs (energy_small, uniqueness_small) and the tests' configs
NORM_CASES = [(2, 2, 3.0), (2, 2, 2.5), (3, 2, 1.9), (2, 2, 2.0), (3, 1, 2.5),
              (2, 2, 4.0), (2, 2, 1.5), (3, 1, 1.9), (2, 2, 1.8), (3, 2, 2.5),
              (2, 3, 1.5), (2, 3, 3.0), (3, 2, 1.5)]


def probe_error(d, n, p, M, R):
    """The error that norm_grid_size budgets, computed here from its
    description: two rows from default_rng(0) with coordinate variance
    (1 + 4 pi^2 |z|^2)^-1, the Bessel, Laplacian and gradient symbols, and
    the largest relative difference from the R^d reference grid."""
    ref = sp.grid_map(d, n, R)
    x = np.random.default_rng(0).standard_normal((2, ref.basis.K))
    vhat = ref.basis.coords_to_modes(x * (1.0 + ref.basis.lam_coord) ** -0.5)
    gm = sp.grid_map(d, n, M)
    return max(float(np.max(np.abs(gm.lp_means(vhat, m(gm.basis), p) - want) / want))
               for m in MULTIPLIERS.values()
               for want in [ref.lp_means(vhat, m(ref.basis), p)])


class TestNormGrid:
    """`norm_grid_size` picks the L_p quadrature grid from a measured error
    budget, NORM_RTOL, in place of a fixed floor of 32 points per axis."""

    @pytest.mark.parametrize("d,n,p", NORM_CASES)
    def test_selected_grid_meets_the_budget(self, d, n, p):
        M, R = sp._norm_grid(d, n, p)
        assert M == sp.norm_grid_size(n, d, p)
        assert M % 2 == 0 and sp.pairing_grid_size(n) <= M < R
        assert probe_error(d, n, p, M, R) <= sp.NORM_RTOL / 2
        assert max(sp._norm_grid_errors(d, n, p, M, R)) == probe_error(d, n, p, M, R)
        # the smallest such grid: the even grid below it misses
        if M > sp.pairing_grid_size(n):
            assert probe_error(d, n, p, M - 2, R) > sp.NORM_RTOL / 2
        # and the first reference with a grid below it that qualifies
        refs = list(sp._norm_references(d, n))
        for coarser in refs[:refs.index(R)]:
            assert all(probe_error(d, n, p, m, coarser) > sp.NORM_RTOL / 2
                       for m in range(sp.pairing_grid_size(n), coarser, 2))

    def test_floor_of_32_misses_the_budget(self):
        # at (2, 3, 1.5) the old floor under-resolves by an order of magnitude
        assert probe_error(2, 3, 1.5, 32, 154) > 10 * sp.NORM_RTOL
        assert sp.norm_grid_size(3, 2, 1.5) > 32

    def test_low_p_at_d3_steps_the_reference(self):
        # at (3, 2, 1.5) no grid below the first reference, 30^3, meets the
        # budget (28 reads 8.5e-6 against it); against 40^3 28 does, and
        # finer references agree
        assert list(sp._norm_references(3, 2)) == [30, 40, 50, 60]
        assert probe_error(3, 2, 1.5, 28, 30) > sp.NORM_RTOL / 2
        assert sp._norm_grid(3, 2, 1.5) == (28, 40)
        for R in (50, 60):
            assert probe_error(3, 2, 1.5, 28, R) <= sp.NORM_RTOL / 2
            assert probe_error(3, 2, 1.5, 26, R) > sp.NORM_RTOL / 2

    def test_no_measured_grid_under_the_cap_raises(self, monkeypatch):
        # with the cap at the first reference, (3, 2, 1.5) has no grid the
        # rule could measure; it names the case instead of returning 30
        monkeypatch.setattr(sp, "NORM_REFERENCE_MAX_POINTS", 30 ** 3)
        sp._norm_grid.cache_clear()
        try:
            with pytest.raises(ValueError, match=r"\(d, n, p\) = \(3, 2, 1.5\)"):
                sp.norm_grid_size(2, 3, 1.5)
        finally:
            sp._norm_grid.cache_clear()

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_exact_exponents_select_the_pairing_grid(self, d, n):
        # |w|^2 and |w|^4 are trigonometric polynomials of degree 2n and 4n,
        # which the rule integrates exactly on 2(2n+1) points
        for p in (2.0, 4.0):
            assert sp.norm_grid_size(n, d, p) == sp.pairing_grid_size(n)
        assert sp.norm_grid_size(n) == sp.pairing_grid_size(n)

    def test_fresh_process_selects_the_same_grid(self):
        cases = [(3, 2, 1.9), (2, 2, 2.5), (2, 3, 1.5), (3, 2, 1.5)]
        code = ("from splf import spectral as sp; "
                f"print([sp.norm_grid_size(n, d, p) for d, n, p in {cases!r}])")
        src = str(Path(sp.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == str([sp.norm_grid_size(n, d, p) for d, n, p in cases])

    def test_default_grid_of_the_norms_is_the_rule(self):
        # each norm, byte for byte, is the rectangle rule on the grid of
        # norm_grid_size(n, d, p)
        f, p = random_field(4, d=2, n=3), 1.5
        gm = sp.grid_map(2, 3, sp.norm_grid_size(3, 2, p))
        vhat = gm.basis.coords_to_modes(sp.field_to_coords(f)[None])
        b = gm.basis
        for got, symbol in [(sp.sobolev_norm(f, p, 1.0), b.bessel(1.0)),
                            (sp.gradient_lp_norm(f, p), b.derivative(1)),
                            (sp.laplacian_lp_norm(f, p), b.derivative(2))]:
            assert got == gm.lp_means(vhat, symbol, p)[0] ** (1 / p)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_structural_defects_tiny(self, seed):
        f = random_field(seed, d=2, n=3)
        div, conj = sp.structural_defects(f)
        assert div < 1e-13
        assert conj < 1e-13

    def test_field_rejects_divergent_coeffs(self):
        modes = sp.half_space_modes(1, 2)
        coeffs = modes.astype(np.complex128)  # parallel to z: not div-free
        with pytest.raises(sp.StructureError, match="divergence free"):
            sp.SpectralField(d=2, n=1, modes=modes, coeffs=coeffs)

    @pytest.mark.parametrize("z,why", [((2, 0), "outside the truncation box"),
                                       ((0, -1), "not canonical"),
                                       ((0, 0), "not canonical")])
    def test_field_rejects_bad_modes(self, z, why):
        modes = np.array([[1, 0], z])
        coeffs = np.zeros((2, 2), dtype=np.complex128)
        with pytest.raises(sp.DimensionError, match=f"{z[0]}, {z[1]}.*{why}"):
            sp.SpectralField(d=2, n=1, modes=modes, coeffs=coeffs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_field_rejects_non_finite_coeffs(self, bad):
        # a NaN passes the divergence comparison, so it is refused first;
        # the last coordinate belongs to mode (1, 1)
        coords = np.zeros(sp.basis(2, 1).K)
        coords[-1] = bad
        with pytest.raises(sp.StructureError,
                           match=r"^mode \(1, 1\): coefficients must be finite"):
            sp.coords_to_field(coords, 1, 2)
        with pytest.raises(sp.StructureError, match=r"^mode \(0, 1\)"):
            sp.coords_to_field(np.full(coords.size, bad), 1, 2)

    def test_field_rejects_repeated_mode(self):
        modes = np.array([[1, 0], [0, 1], [1, 0]])
        coeffs = np.zeros((3, 2), dtype=np.complex128)
        with pytest.raises(sp.DimensionError, match="twice"):
            sp.SpectralField(d=2, n=1, modes=modes, coeffs=coeffs)

    def test_tensor_rejects_asymmetry(self):
        values = np.zeros((2, 2, 4, 4))
        values[0, 1] = 1.0
        with pytest.raises(sp.StructureError, match="not symmetric"):
            sp.GridTensorField(d=2, M=4, values=values)

    def test_checks_survive_optimized_mode(self):
        # python -O strips assert statements; the checks must still raise
        code = """
import numpy as np
from splf import spectral as sp
modes = sp.half_space_modes(1, 2)
for build in (
        lambda: sp.SpectralField(d=2, n=1, modes=modes,
                                 coeffs=modes.astype(complex)),
        lambda: sp.SpectralField(d=2, n=1, modes=-modes,
                                 coeffs=np.zeros((len(modes), 2), complex)),
        lambda: sp.GridTensorField(d=2, M=2, values=np.arange(16.0).reshape(2, 2, 2, 2))):
    try:
        build()
    except ValueError as exc:
        print(type(exc).__name__)
"""
        src = str(Path(sp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["StructureError", "DimensionError",
                                      "StructureError"]

    def test_fields_immutable(self):
        f = random_field(0)
        with pytest.raises(ValueError):
            f.coeffs[0] = 0.0
