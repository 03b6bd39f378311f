"""Fluid nonlinearities: strain, stress, convection, pairings, drift.

Single-mode cases are checked against symbolic differentiation (sympy) as
an independent oracle; identities are checked on seeded random fields.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
import sympy as sy

from splf import constitutive as co
from splf import exponents as ex
from splf import integrator as it
from splf import noise
from splf import spectral as sp

from test_spectral import grid_wave_numbers, random_field


def symbolic_mode(idx):
    """Sympy expression vector for one basis element."""
    d = len(idx.z)
    xs = sy.symbols(f"x0:{d}")
    phase = 2 * sy.pi * sum(int(c) * x for c, x in zip(idx.z, xs))
    trig = sy.sin(phase) if idx.is_sine else sy.cos(phase)
    return xs, [sy.sqrt(2) * float(e) * trig for e in idx.e_vec]


def grid_points(M, d):
    axes = [np.arange(M) / M] * d
    return np.meshgrid(*axes, indexing="ij")


def eval_symbolic(xs, exprs, mesh):
    fns = [sy.lambdify(xs, ex, "numpy") for ex in exprs]
    return np.array([np.broadcast_to(f(*mesh), mesh[0].shape) for f in fns],
                    dtype=float)


class TestRateOfStrain:
    def test_zero_field(self):
        e = co.rate_of_strain(sp.SpectralField.zero(2, 2))
        assert np.all(e.values == 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_trace_vanishes(self, seed):
        e = co.rate_of_strain(random_field(seed, d=2, n=3))
        assert np.abs(np.trace(e.values)).max() < 1e-12

    @pytest.mark.parametrize("k", [0, 3, 9])
    def test_single_mode_symbolic_oracle(self, k):
        idx = sp.make_basis(2, 2)[k]
        f = sp.basis_function(idx, n=2)
        M = 10
        got = co.rate_of_strain(f, M=M).values
        xs, exprs = symbolic_mode(idx)
        want = np.empty_like(got)
        for i in range(2):
            for j in range(2):
                eij = (sy.diff(exprs[j], xs[i]) + sy.diff(exprs[i], xs[j])) / 2
                want[i, j] = eval_symbolic(xs, [eij], grid_points(M, 2))[0]
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("p,nu,match", [
    (float("inf"), 1.0, "^p: must be finite and exceed 1, got inf$"),
    (float("nan"), 1.0, "^p: must be finite and exceed 1, got nan$"),
    (1.0, 1.0, "^p: must be finite and exceed 1, got 1.0$"),
    (3.0, float("inf"), "^nu: must be positive and finite, got inf$"),
    (3.0, float("nan"), "^nu: must be positive and finite, got nan$"),
    (3.0, 0.0, "^nu: must be positive and finite, got 0.0$")])
def test_fluid_params_must_be_finite(p, nu, match):
    # an infinite p or nu made drift_and_dissipation return a non-finite
    # drift without an error
    with pytest.raises(ValueError, match=match):
        co.FluidParams(p, nu)


@pytest.mark.parametrize("make,match", [
    (lambda: co.FluidParams("2.5", 1.0), "^p: must be finite and exceed 1, got '2.5'$"),
    (lambda: co.FluidParams(2.5, "1"), "^nu: must be positive and finite, got '1'$"),
    (lambda: ex.regularity_weight("2.5", 3), "^p: must be finite and exceed 1, got '2.5'$"),
    (lambda: ex.regularity_weight(Fraction(1, 2), 3),
     "^p: must be finite and exceed 1, got 1/2$")],
    ids=["FluidParams-p", "FluidParams-nu", "regularity_weight-p", "Fraction"])
def test_non_numbers_refused_by_name(make, match):
    # a string p or nu raised TypeError: '<' not supported between
    # instances of 'int' and 'str'; a number keeps its printed form
    with pytest.raises(ValueError, match=match):
        make()


class TestStress:
    def test_newtonian_is_linear(self):
        f = random_field(1, d=2, n=3)
        params = co.FluidParams(p=2.0, nu=0.8)
        tau = co.stress(f, params).values
        e = co.rate_of_strain(f).values
        assert np.abs(tau - 2 * 0.8 * e).max() < 1e-14

    def test_zero_field(self):
        tau = co.stress(sp.SpectralField.zero(2, 2), co.FluidParams(4.0, 1.0))
        assert np.all(tau.values == 0)

    def test_p4_single_mode_scalar_oracle(self):
        # amplitude keeps |e| = O(1) so the absolute tolerance is meaningful
        idx = sp.make_basis(2, 2)[2]
        amp = 0.05
        f = amp * sp.basis_function(idx, n=2)
        params = co.FluidParams(p=4.0, nu=1.3)
        M = 10
        got = co.stress(f, params, M=M).values
        xs, exprs = symbolic_mode(idx)
        mesh = grid_points(M, 2)
        e = np.empty((2, 2) + mesh[0].shape)
        for i in range(2):
            for j in range(2):
                eij = (sy.diff(exprs[j], xs[i]) + sy.diff(exprs[i], xs[j])) / 2
                e[i, j] = amp * eval_symbolic(xs, [eij], mesh)[0]
        esq = np.sum(e * e, axis=(0, 1))
        want = 2 * params.nu * (1 + esq) ** ((params.p - 2) / 2) * e
        assert np.abs(got - want).max() < 1e-13

    @pytest.mark.parametrize("p", [1.3, 2.5, 4.0])
    def test_symmetric(self, p):
        tau = co.stress(random_field(2, d=2, n=3), co.FluidParams(p, 1.0)).values
        assert np.abs(tau - np.swapaxes(tau, 0, 1)).max() < 1e-13


class TestPairingStress:
    @pytest.mark.parametrize("seed", range(6))
    def test_dissipation_nonnegative(self, seed):
        f = random_field(seed, d=2, n=3)
        for p in (1.5, 2.0, 3.0):
            assert co.pairing_stress(f, f, co.FluidParams(p, 1.0)) >= 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_newtonian_matches_spectral_laplacian(self, seed):
        # for div-free v, div(2 e(v)) = Lap v, so
        # < e(phi), tau(v) > = -nu < phi, Lap v > = nu sum 4 pi^2 |z|^2 x.y
        v = random_field(seed, d=2, n=3)
        phi = random_field(seed + 50, d=2, n=3)
        params = co.FluidParams(p=2.0, nu=0.9)
        got = co.pairing_stress(phi, v, params)
        xv = sp.field_to_coords(v)
        xp = sp.field_to_coords(phi)
        oracle = params.nu * float((sp.basis(2, 3).lam_coord * xv) @ xp)
        assert abs(got - oracle) < 1e-11

    def test_zero(self):
        z = sp.SpectralField.zero(2, 2)
        assert co.pairing_stress(z, z, co.FluidParams(3.0, 1.0)) == 0.0


class TestConvection:
    def test_zero_target(self):
        v = random_field(0, d=2, n=2)
        w = sp.SpectralField.zero(2, 2)
        assert np.abs(co.convection(v, w).values).max() == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_bilinear(self, seed):
        v = random_field(seed, d=2, n=2)
        w = random_field(seed + 9, d=2, n=2)
        a = co.convection(2.0 * v, w).values
        b = 2.0 * co.convection(v, w).values
        assert np.abs(a - b).max() < 1e-13

    def test_single_mode_pair_symbolic_oracle(self):
        basis = sp.make_basis(2, 2)
        ia, ib = basis[1], basis[8]
        v = sp.basis_function(ia, n=2)
        w = sp.basis_function(ib, n=2)
        M = 12
        got = co.convection(v, w, M=M).values
        xs, ev = symbolic_mode(ia)
        _, ew = symbolic_mode(ib)
        mesh = grid_points(M, 2)
        want = np.empty_like(got)
        for i in range(2):
            expr = sum(ev[j] * sy.diff(ew[i], xs[j]) for j in range(2))
            want[i] = eval_symbolic(xs, [expr], mesh)[0]
        assert np.abs(got - want).max() < 1e-12


class TestPairingConvection:
    @pytest.mark.parametrize("seed", range(8))
    def test_self_pairing_vanishes(self, seed):
        v = random_field(seed, d=2, n=3)
        w = random_field(seed + 20, d=2, n=3)
        assert abs(co.pairing_convection(w, v, w)) < 1e-11

    @pytest.mark.parametrize("seed", range(8))
    def test_antisymmetric_swap(self, seed):
        v = random_field(seed, d=2, n=3)
        w = random_field(seed + 20, d=2, n=3)
        phi = random_field(seed + 40, d=2, n=3)
        a = co.pairing_convection(phi, v, w)
        b = co.pairing_convection(w, v, phi)
        assert abs(a + b) < 1e-11

    def test_all_zero(self):
        z = sp.SpectralField.zero(2, 2)
        assert co.pairing_convection(z, z, z) == 0.0


class TestDrift:
    def test_zero_state(self):
        params = co.FluidParams(3.0, 1.0)
        z = sp.SpectralField.zero(2, 2)
        assert np.all(co.drift(z, 2, params) == 0.0)
        idx = sp.make_basis(2, 2)[0]
        assert co.drift_coord(z, idx, params) == 0.0

    def test_single_mode_newtonian_coord(self):
        # on its own mode the convection part cancels, leaving the Stokes
        # eigenvalue -nu 4 pi^2 |z|^2 times the amplitude
        idx = sp.make_basis(2, 2)[4]
        amp = 0.7
        X = amp * sp.basis_function(idx, n=2)
        params = co.FluidParams(p=2.0, nu=1.1)
        got = co.drift_coord(X, idx, params)
        zsq = float(sum(c * c for c in idx.z))
        want = -params.nu * 4.0 * np.pi ** 2 * zsq * amp
        assert abs(got - want) < 1e-11

    @pytest.mark.parametrize("seed", range(6))
    def test_energy_dissipation_identity(self, seed):
        # sum_k x_k b_k(X) = - < e(X), tau(X) >
        params = co.FluidParams(p=3.0, nu=1.0)
        f = random_field(seed, d=2, n=3)
        x = sp.field_to_coords(f)
        b = co.drift(f, 3, params)
        diss = co.dissipation_pairing(f, params)
        assert abs(x @ b + diss) < 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_vector_matches_per_coordinate(self, seed):
        params = co.FluidParams(p=2.5, nu=0.6)
        f = random_field(seed, d=2, n=2)
        b = co.drift(f, 2, params)
        for k, idx in enumerate(sp.make_basis(2, 2)):
            assert abs(b[k] - co.drift_coord(f, idx, params)) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_dissipativity_for_p_ge_2(self, seed):
        params = co.FluidParams(p=2.0, nu=1.0)
        f = random_field(seed, d=2, n=3)
        x = sp.field_to_coords(f)
        assert x @ co.drift(f, 3, params) <= 1e-11

    @pytest.mark.parametrize("seed", range(4))
    def test_newtonian_reduction(self, seed):
        # p = 2: drift = (projected advection) + nu * spectral Laplacian
        params = co.FluidParams(p=2.0, nu=0.85)
        f = random_field(seed, d=2, n=2)
        x = sp.field_to_coords(f)
        b = co.drift(f, 2, params)
        basis = sp.make_basis(2, 2)
        conv = np.array([co.pairing_convection(f, f, sp.basis_function(i, n=2))
                         for i in basis])
        oracle = conv - params.nu * sp.basis(2, 2).lam_coord * x
        assert np.abs(b - oracle).max() < 1e-10

    def test_drift_requires_containment(self):
        f = random_field(0, d=2, n=4)
        with pytest.raises(sp.DimensionError):
            co.drift(f, 2, co.FluidParams(2.0, 1.0))


def drift_full_grid(x, gm, params):
    """The drift with a full-grid 2 pi i k multiplier, as an oracle: the
    gradient of the scattered block and the divergence of the transformed
    stress are taken on the whole M^d grid, and the band is gathered last.
    Its bytes are those of the np.fft drift that preceded the band
    matrices."""
    d, P = gm.d, len(x)
    ikvec = 2j * np.pi * grid_wave_numbers(gm)
    A = gm.scatter(gm.basis.coords_to_modes(x))
    Gh = (A[:, :, None] * ikvec).reshape((P, d * d) + gm.shape)
    down = np.fft.ifftn(np.concatenate([A, Gh], axis=1), axes=gm.grid_axes).real * gm.vol
    V, G = down[:, :d], down[:, d:].reshape((P, d, d) + gm.shape)
    e = co._strain_from_gradient(G, axis=1)
    tau = co._stress_from_strain(e, params, axis=1)
    conv = np.einsum("pj...,pij...->pi...", V, G)
    diss = np.sum(e * tau, axis=(1, 2)).reshape(P, -1).mean(axis=1)
    up = np.concatenate([conv, tau.reshape((P, d * d) + gm.shape)], axis=1,
                        dtype=np.complex128)
    up = np.fft.fftn(up, axes=gm.grid_axes) / gm.vol
    tau_hat = up[:, d:].reshape((P, d, d) + gm.shape)
    div_tau_hat = np.einsum("j...,pij...->pi...", ikvec, tau_hat)
    return gm.basis.modes_to_coords(gm.gather(div_tau_hat - up[:, :d])), diss


@pytest.mark.parametrize("P", [1, 5, 32])
@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
def test_drift_matches_full_grid_oracle_to_rounding(p, d, n, P):
    # two routes: the drift's band matrices against np.fft on the whole
    # grid; on random full-band blocks rows and dissipations agree to 1e-14
    # relative (1.3e-15 seen)
    params = co.FluidParams(p=p, nu=0.7)
    gm = sp.grid_map(d, n, sp.pairing_grid_size(n))
    x = np.random.default_rng(100 * d + 10 * n + P).standard_normal((P, gm.basis.K))
    b, diss = co.drift_and_dissipation(x, d, n, params)
    want_b, want_diss = drift_full_grid(x, gm, params)
    assert np.abs(b - want_b).max() <= 1e-14 * np.abs(want_b).max()
    assert np.abs(diss - want_diss).max() <= 1e-14 * np.abs(want_diss).max()


@pytest.mark.parametrize("p", [1.5, 1.9, 2.5, 3.0])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("block", ["one", "rule"])
def test_energy_identity_per_row(block, d, p):
    # <x, b(x)> = -< e(X), tau(X) > on every row of a block, against the
    # kernel's own dissipation: in divergence form the convection
    # < X, div(X (x) X) > drops out only through div X = 0, and the stress
    # pairs with the strain through |e|^2 and its off-diagonal weight
    # (at most 7.5e-16 relative seen).  At d=2 both the drift's gradient
    # form and the divergence form are checked
    n = 2
    P = 1 if block == "one" else it.block_size(d, n)
    x = np.random.default_rng(10 * d + P).standard_normal((P, sp.basis(d, n).K))
    params = co.FluidParams(p=p, nu=0.7)
    gm = sp.grid_map(d, n, sp.pairing_grid_size(n))
    for b, diss in (co.drift_and_dissipation(x, d, n, params),
                    co._drift_divergence(x, gm, params)):
        defect = np.abs(np.einsum("pk,pk->p", x, b) + diss)
        assert np.all(diss > 0)
        assert np.all(defect <= 1e-13 * diss)


@pytest.mark.parametrize("P", [1, 5, 32])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_divergence_form_matches_full_grid_oracle_at_d2(p, n, P):
    # the drift keeps the gradient form at d=2; its divergence form, which
    # d >= 3 runs, is held to the same bound against the oracle, and each
    # row is the same alone and in the block
    params = co.FluidParams(p=p, nu=0.7)
    gm = sp.grid_map(2, n, sp.pairing_grid_size(n))
    x = np.random.default_rng(20 + 10 * n + P).standard_normal((P, gm.basis.K))
    b, diss = co._drift_divergence(x, gm, params)
    want_b, want_diss = drift_full_grid(x, gm, params)
    assert np.abs(b - want_b).max() <= 1e-14 * np.abs(want_b).max()
    assert np.abs(diss - want_diss).max() <= 1e-14 * np.abs(want_diss).max()
    for row in range(P):
        alone = co._drift_divergence(x[row:row + 1], gm, params)
        assert np.array_equal(alone[0][0], b[row]) and alone[1][0] == diss[row]


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2)])
def test_drift_calls_no_fft(d, n, monkeypatch):
    # the drift is DFT matrices on the band; np.fft stays with the oracle
    # routes (modes_to_grid, to_grid and the pairings)
    def refuse(*args, **kwargs):
        raise AssertionError("np.fft called")

    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    gm = sp.grid_map(d, n, sp.pairing_grid_size(n))
    x = np.random.default_rng(d).standard_normal((3, gm.basis.K))
    params = co.FluidParams(p=2.5, nu=0.7)
    co.drift_and_dissipation(x, d, n, params)
    if d == 2:
        monkeypatch.setenv("SPLF_THREADS", "1")
        c = it.SimConfig(d=2, p=2.5, nu=0.5, n=2, dt=2e-3, T=1e-2, n_paths=3,
                         seed=1, init=it.GaussianInit(sigma=1.5, decay=1.0),
                         gamma=noise.PowerLawSpectrum(c=0.5, s=3.0))
        assert len(it.simulate_ensemble(c)) == 3


def lattice_maps(d, rng):
    """(R, a): each signed axis permutation R (2^d d! of them) with a = 0,
    then two grid shifts a in (Z/10)^d, each after a random R."""
    group = []
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1, -1), repeat=d):
            R = np.zeros((d, d), dtype=np.int64)
            R[range(d), perm] = signs
            group.append(R)
    return ([(R, np.zeros(d, dtype=np.int64)) for R in group]
            + [(group[i], rng.integers(1, 10, size=d)) for i in rng.choice(len(group), 2)])


def transformed(fields, R, a, M):
    """The coordinates of T f for each field f: T takes u(y) to
    R u(R^T y - a/M), whose coefficient at R z is R u(z) exp(-2 pi i z.a/M).
    A mode R z outside the half space is stored at -R z with the conjugate
    coefficient."""
    rows = []
    for f in fields:
        modes = f.modes @ R.T
        coeffs = (f.coeffs @ R.T) * np.exp(-2j * np.pi * (f.modes @ a) / M)[:, None]
        flip = modes[np.arange(len(modes)), np.argmax(modes != 0, axis=1)] < 0
        modes[flip], coeffs[flip] = -modes[flip], np.conj(coeffs[flip])
        rows.append(sp.field_to_coords(sp.SpectralField(f.d, f.n, modes, coeffs), n=f.n))
    return np.array(rows)


@pytest.mark.parametrize("p", [1.9, 2.5])
@pytest.mark.parametrize("d", [2, 3])
def test_drift_commutes_with_lattice_symmetries(d, p):
    # the truncation box and the pairing grid are invariant under the axis
    # permutations and reflections and under grid shifts, so for each such
    # T, b(T x) = T b(x) and the dissipation is invariant, to roundoff
    # (1.2e-15 of max |b(x)| measured); T acts through coords_to_field and
    # field_to_coords, on a random block of the rule's size, which the d=3
    # drift runs in its workspace
    n = 2
    M = sp.pairing_grid_size(n)
    P = it.block_size(d, n)
    params = co.FluidParams(p=p, nu=0.7)
    rng = np.random.default_rng(100 * d + int(10 * p))
    x = rng.standard_normal((P, sp.basis(d, n).K))
    work = co.drift_workspace(d, n, P)
    b, diss = co.drift_and_dissipation(x, d, n, params, work)
    fields_x, fields_b = ([sp.coords_to_field(row, n, d) for row in y] for y in (x, b))
    maps = lattice_maps(d, rng)
    assert len(maps) == 2 + (8 if d == 2 else 48)
    for R, a in maps:
        Tb, Tdiss = co.drift_and_dissipation(transformed(fields_x, R, a, M), d, n, params, work)
        assert np.abs(Tb - transformed(fields_b, R, a, M)).max() <= 1e-13 * np.abs(b).max()
        assert np.abs(Tdiss - diss).max() <= 1e-13 * np.abs(diss).max()
