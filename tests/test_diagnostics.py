"""Energy balance, a priori growth, quadratic variation, dissipation
functional and the uniqueness envelope."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest

from splf import diagnostics as dg
from splf import integrator as it
from splf import noise
from splf import spectral as sp

ZERO_NOISE = noise.ExplicitSpectrum(entries=())


def base_config(**kw):
    defaults = dict(
        d=2, p=2.0, nu=1.0, n=2, dt=1e-3, T=0.05, n_paths=4, seed=99,
        init=it.SingleModeInit(z=(1, 0), j=1, amplitude=1.0),
        gamma=ZERO_NOISE, stepper="euler_maruyama")
    defaults.update(kw)
    return it.SimConfig(**defaults)


class TestEnergyBalance:
    def test_zero_init_zero_noise_exact(self):
        cfg = base_config(init=it.SingleModeInit(z=(1, 0), j=1, amplitude=0.0))
        rep = dg.energy_balance(it.simulate_ensemble(cfg), cfg)
        assert rep.lhs_mean == 0.0
        assert rep.rhs == 0.0
        assert rep.z_score == 0.0

    def test_deterministic_balance_first_order(self):
        # zero noise: per-path defect is O(dt); halving dt halves it
        for p in (2.0, 3.0):
            defects = []
            for dt in (1e-3, 5e-4):
                cfg = base_config(p=p, dt=dt, stepper="euler_maruyama",
                                  record_every=1000)
                rec = it.simulate(cfg, 0)
                defects.append(dg.energy_defect(rec))
            ratio = defects[0] / defects[1]
            assert 1.5 < ratio < 2.5, (p, defects)

    def test_refuses_when_all_paths_diverge(self):
        cfg = base_config(p=4.0, nu=1.0, dt=0.5, T=1.0, n_paths=3,
                          init=it.SingleModeInit(z=(1, 0), j=1, amplitude=50.0),
                          norm_ceiling=10.0)
        recs = it.simulate_ensemble(cfg)
        assert all(r.diverged for r in recs)
        with pytest.raises(ValueError, match="surviving"):
            dg.energy_balance(recs, cfg)

    def test_diverged_paths_fail_the_experiment(self):
        # a norm ceiling inside the bulk of the noise-driven ensemble: the
        # balance is taken over the survivors, so the verdict must not pass
        cfg = base_config(p=3.0, T=0.01, n_paths=40, seed=7, stepper="tamed",
                          init=it.SingleModeInit(z=(1, 0), j=1, amplitude=0.0),
                          gamma=noise.PowerLawSpectrum(c=1000.0, s=3.0),
                          record_every=100, norm_ceiling=0.03)
        rep = dg.energy_experiment(cfg)
        assert rep.main.n_diverged > 0 and rep.control.n_diverged > 0
        assert not rep.passed
        for main_div, control_div in [(1, 0), (0, 1)]:
            forced = dataclasses.replace(
                rep, balance_ok=True, shrink_ok=True,
                main=dataclasses.replace(rep.main, n_diverged=main_div),
                control=dataclasses.replace(rep.control, n_diverged=control_div))
            assert not forced.passed
        assert dataclasses.replace(
            forced, control=dataclasses.replace(rep.control, n_diverged=0)).passed

    def test_energy_experiment_runs_no_quadrature(self, monkeypatch):
        # the check never reads ||X||_{p,1}^p, so neither of its runs
        # computes it; its balance is the one of the records that carry it
        cfg = base_config(p=3.0, T=0.01, n_paths=6, stepper="tamed", record_every=5,
                          gamma=noise.PowerLawSpectrum(c=0.1, s=3.0))
        want = dg.energy_balance(it.simulate_ensemble(cfg), cfg)

        def refuse(*args, **kwargs):
            raise AssertionError("energy_experiment ran an L_p quadrature")

        monkeypatch.setattr(sp._GridMap, "lp_means", refuse)
        rep = dg.energy_experiment(cfg)
        assert rep.main == want

    def test_workers_leave_the_norm_column_empty(self, monkeypatch):
        monkeypatch.setenv("SPLF_THREADS", "2")
        cfg = base_config(p=3.0, T=0.01, n_paths=6, stepper="tamed", record_every=5,
                          gamma=noise.PowerLawSpectrum(c=0.1, s=3.0))
        bare, full = it.simulate_ensemble(cfg, norm_p1=False), it.simulate_ensemble(cfg)
        assert [r.path_index for r in bare] == [r.path_index for r in full]
        for a, b in zip(bare, full):
            assert a.norm_p1_p is None and b.norm_p1_p is not None
            assert np.array_equal(a.coords, b.coords)

    def test_rhs_is_analytic(self):
        gamma = noise.PowerLawSpectrum(c=0.1, s=3.0)
        cfg = base_config(gamma=gamma, n_paths=2)
        rep = dg.energy_balance(it.simulate_ensemble(cfg), cfg)
        want = 1.0 + noise.trace_truncated(gamma, cfg.n, cfg.d) * cfg.T
        assert rep.rhs == pytest.approx(want, abs=0)


class TestApriori:
    def test_zero_everything(self):
        cfg = base_config(init=it.SingleModeInit(z=(1, 0), j=1, amplitude=0.0),
                          n_paths=2)
        rep = dg.apriori_check(cfg)
        assert rep.sup_energy == (0.0, 0.0, 0.0)
        assert rep.int_norm == (0.0, 0.0, 0.0)
        assert rep.superlinearity == 0.0

    def test_monotone_and_affine(self):
        gamma = noise.PowerLawSpectrum(c=0.05, s=3.0)
        cfg = base_config(gamma=gamma, p=3.0, stepper="tamed", n_paths=6,
                          T=0.02)
        rep = dg.apriori_check(cfg)
        assert rep.sup_energy[0] <= rep.sup_energy[1] <= rep.sup_energy[2]
        assert rep.int_norm[0] <= rep.int_norm[1] <= rep.int_norm[2]
        assert rep.affine_ok(margin=0.5)
        assert rep.delta_moment >= 0.0
        assert (rep.n_paths, rep.n_diverged) == (6, 0)

    def test_diverged_paths_fail_the_check(self):
        # a norm ceiling inside the bulk of the noise-driven ensemble: the
        # statistics are taken over the survivors, which grow affinely
        cfg = base_config(p=3.0, T=0.0025, n_paths=40, seed=7, stepper="tamed",
                          init=it.SingleModeInit(z=(1, 0), j=1, amplitude=0.0),
                          gamma=noise.PowerLawSpectrum(c=1000.0, s=3.0),
                          norm_ceiling=0.03)
        rep = dg.apriori_check(cfg)
        assert rep.n_diverged > 0 and rep.n_paths + rep.n_diverged == 40
        assert not rep.affine_ok(margin=0.5)
        assert dataclasses.replace(rep, n_diverged=0).affine_ok(margin=0.5)


class TestQuadraticVariation:
    def test_zero_spectrum(self):
        cfg = base_config()
        rec = it.simulate(cfg, 0)
        assert np.all(dg.quadratic_variation(rec) == 0.0)

    def test_single_index_spectrum(self):
        # < M >_t = gamma int (X^{z,j})^2 when only one eigenvalue is set
        basis = sp.make_basis(2, 2)
        k = 3
        gamma = noise.ExplicitSpectrum.from_items(
            [(basis[k].z, basis[k].j, 0.7)])
        cfg = base_config(gamma=gamma, record_every=1)
        rec = it.simulate(cfg, 0)
        qv = dg.quadratic_variation(rec)
        dt = rec.dt
        want = 0.7 * np.concatenate(
            [[0.0], np.cumsum(rec.coords[:-1, k] ** 2 * dt)])
        assert np.abs(qv - want).max() < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_operator_norm_bound(self, seed):
        gamma = noise.PowerLawSpectrum(c=0.3, s=3.0)
        cfg = base_config(gamma=gamma, seed=seed, record_every=1,
                          init=it.GaussianInit(sigma=0.4, decay=2.0))
        rec = it.simulate(cfg, 0)
        qv = dg.quadratic_variation(rec)
        bound = dg.quadratic_variation_bound(rec, cfg)
        assert np.all(qv <= bound * (1 + 1e-12) + 1e-15)

    def test_nondecreasing(self):
        gamma = noise.PowerLawSpectrum(c=0.3, s=3.0)
        cfg = base_config(gamma=gamma, record_every=5)
        rec = it.simulate(cfg, 1)
        assert np.all(np.diff(dg.quadratic_variation(rec)) >= 0)


class TestDissipationFunctional:
    def test_zero_state(self):
        cfg = base_config(init=it.SingleModeInit(z=(1, 0), j=1, amplitude=0.0))
        rec = it.simulate(cfg, 0)
        J, total = dg.dissipation_functional(rec, cfg)
        assert np.all(J == 0.0)
        assert total == 0.0

    def test_d2_weight_vanishes(self):
        # lambda = 0 in two dimensions: J_t is exactly ||Lap X||_2^2
        cfg = base_config(p=2.5, stepper="tamed", record_every=1)
        rec = it.simulate(cfg, 0)
        J, _ = dg.dissipation_functional(rec, cfg)
        lap = (rec.coords ** 2) @ (sp.basis(cfg.d, cfg.n).lam_coord ** 2)
        assert np.abs(J - lap).max() < 1e-12 * max(1.0, lap.max())

    def test_single_mode_closed_form_d3(self):
        # J = lam^2 E / (1 + lam E)^w for a single mode of energy E
        cfg = it.SimConfig(d=3, p=2.5, nu=1.0, n=1, dt=1e-3, T=0.01,
                           n_paths=1, seed=0,
                           init=it.SingleModeInit(z=(1, 0, 0), j=2, amplitude=0.8),
                           gamma=noise.ExplicitSpectrum(entries=()),
                           stepper="semi_implicit", record_every=1)
        rec = it.simulate(cfg, 0)
        J, _ = dg.dissipation_functional(rec, cfg)
        lam = 4.0 * np.pi ** 2
        w = 0.4  # regularity weight at (p, d) = (2.5, 3)
        E = rec.norm_l2_sq
        want = lam ** 2 * E / (1.0 + lam * E) ** w
        assert np.abs(J - want).max() < 1e-10 * max(1.0, want.max())

    def test_low_p_branch_runs(self):
        cfg = it.SimConfig(d=3, p=1.9, nu=1.0, n=1, dt=1e-3, T=0.005,
                           n_paths=1, seed=0,
                           init=it.SingleModeInit(z=(0, 1, 0), j=1, amplitude=0.5),
                           gamma=noise.ExplicitSpectrum(entries=()),
                           stepper="semi_implicit", record_every=1)
        rec = it.simulate(cfg, 0)
        J, total = dg.dissipation_functional(rec, cfg)
        assert np.all(J >= 0)
        assert total >= 0


class TestQuadratureBudget:
    """The rows a run records, not the probe that picked the grid, meet
    NORM_RTOL against a finer grid of the same rule."""

    def test_norm_column_at_d3(self):
        cfg = base_config(d=3, p=1.9, n=2, dt=1e-3, T=0.05, n_paths=2, seed=20240611,
                          init=it.GaussianInit(sigma=1.0, decay=1.0),
                          gamma=noise.PowerLawSpectrum(c=0.1, s=3.0), stepper="tamed",
                          record_every=1)
        recs = it.simulate_ensemble(cfg)
        got = np.concatenate([r.norm_p1_p for r in recs])
        fine = sp.grid_map(3, 2, 40)
        rows = np.concatenate([r.coords for r in recs])
        want = fine.lp_means(fine.basis.coords_to_modes(rows), fine.basis.bessel(1.0), 1.9)
        assert np.max(np.abs(got - want) / want) <= sp.NORM_RTOL

    @pytest.mark.parametrize("p", [1.5, 2.5])
    def test_gradient_and_laplacian_of_a_pair(self, p):
        rec, cfg = pinned_pair(p)
        fine = sp.grid_map(2, 2, 160)
        for order in (1, 2):
            got = dg._lp_norms(rec, cfg, order) ** p
            want = fine.lp_means(fine.basis.coords_to_modes(rec.coords),
                                 fine.basis.derivative(order), p)
            assert np.max(np.abs(got - want) / want) <= sp.NORM_RTOL


class TestGronwall:
    def test_identical_pair_zero_separation(self):
        gamma = noise.PowerLawSpectrum(c=0.1, s=3.0)
        cfg = base_config(gamma=gamma)
        assert dg.identical_noise_separation(cfg, 0) < 1e-12

    def test_zero_noise_linear_regime_envelope(self):
        # tiny initial data decays; envelope with any constant holds
        cfg = base_config(init=it.SingleModeInit(z=(1, 0), j=1, amplitude=1e-4),
                          record_every=1)
        x0 = it.initial_coords(cfg, 0)
        y0 = x0.copy()
        y0[0] += 1e-6
        a, b = it.simulate_paired(cfg, 0, x0, y0)
        rep = dg.gronwall_check(a, b, cfg, c_hat=0.0, margin=0.5)
        assert rep.holds
        assert rep.in_uniqueness_regime  # p = 2 = 1 + d/2

    def test_out_of_regime_labeled(self):
        cfg = base_config(p=1.8, stepper="tamed", record_every=1)
        x0 = it.initial_coords(cfg, 0)
        a, b = it.simulate_paired(cfg, 0, x0, x0.copy())
        rep = dg.gronwall_check(a, b, cfg, c_hat=1.0)
        assert not rep.in_uniqueness_regime

    def test_mismatched_pairs_rejected(self):
        cfg = base_config(record_every=1)
        cfg2 = dataclasses.replace(cfg, dt=5e-4)
        a = it.simulate(cfg, 0)
        b = it.simulate(cfg2, 0)
        with pytest.raises(ValueError, match="mismatched"):
            dg.gronwall_check(a, b, cfg, c_hat=0.0)

    @pytest.mark.parametrize("grid", ["dt/2", "same length"])
    def test_calibration_rejects_mismatched_pairs(self, grid):
        cfg = base_config(record_every=1)
        x0 = it.initial_coords(cfg, 0)
        a, b = it.simulate_paired(cfg, 0, x0, x0 + 1e-6)
        if grid == "dt/2":
            b = it.simulate(dataclasses.replace(cfg, dt=cfg.dt / 2), 0)
        else:
            b = dataclasses.replace(b, times=b.times * 1.5)
        for check in (lambda: dg.calibrate_gronwall([(a, b)], cfg),
                      lambda: dg.gronwall_check(a, b, cfg, c_hat=0.0)):
            with pytest.raises(ValueError,
                               match="paired records have mismatched time grids"):
                check()

    def test_calibration_covers_validation_of_same_law(self):
        gamma = noise.PowerLawSpectrum(c=1e-6, s=3.0)
        cfg = base_config(gamma=gamma, nu=0.05, T=0.02,
                          init=it.GaussianInit(sigma=1.0, decay=1.5),
                          record_every=1)
        rep = dg.gronwall_experiment(cfg, eps=1e-3, n_calibration=12,
                                     n_validation=6, margin=0.5)
        assert rep.exponent == 2.0
        assert rep.passed, (rep.c_hat, rep.total_violations)

    def test_validation_may_not_reach_calibration_streams(self, monkeypatch):
        def no_pairs(*args):
            raise AssertionError("pairs were run before the check")

        monkeypatch.setattr(dg, "simulate_paired", no_pairs)
        cfg = base_config(record_every=1)
        with pytest.raises(ValueError, match="n_validation"):
            dg.gronwall_experiment(cfg, eps=1e-3, n_calibration=0,
                                   n_validation=dg.CALIBRATION_PATH_OFFSET + 1)

    @pytest.mark.parametrize("n_calibration,n_validation,name", [
        (64, 0, "n_validation"), (-3, 5, "n_calibration"),
        (0, 5, "n_calibration")])
    def test_counts_must_be_positive(self, monkeypatch, n_calibration,
                                     n_validation, name):
        def no_pairs(*args):
            raise AssertionError("pairs were run before the check")

        monkeypatch.setattr(dg, "simulate_paired", no_pairs)
        with pytest.raises(ValueError, match=name):
            dg.gronwall_experiment(base_config(record_every=1), eps=1e-3,
                                   n_calibration=n_calibration,
                                   n_validation=n_validation)

    @pytest.mark.parametrize("margin,eps,name", [
        (float("nan"), 1e-3, "margin"), (float("inf"), 1e-3, "margin"),
        (-0.5, 1e-3, "margin"), (0.5, float("nan"), "eps"),
        (0.5, float("inf"), "eps"), (0.5, float("-inf"), "eps")])
    def test_margin_and_eps_must_be_finite(self, monkeypatch, margin, eps, name):
        def no_pairs(*args):
            raise AssertionError("pairs were run before the check")

        monkeypatch.setattr(dg, "simulate_paired", no_pairs)
        with pytest.raises(ValueError, match=f"^{name}: must be"):
            dg.gronwall_experiment(base_config(record_every=1), eps=eps,
                                   n_calibration=2, n_validation=2, margin=margin)

    @pytest.mark.parametrize("margin", [float("nan"), float("inf"), -1e-9])
    def test_check_rejects_margin(self, margin):
        cfg = base_config(record_every=1)
        x0 = it.initial_coords(cfg, 0)
        a, b = it.simulate_paired(cfg, 0, x0, x0 + 1e-6)
        assert dg.gronwall_check(a, b, cfg, c_hat=1.0, margin=0.0).holds
        with pytest.raises(ValueError, match="^margin: must be finite and at least 0"):
            dg.gronwall_check(a, b, cfg, c_hat=1.0, margin=margin)

    @pytest.mark.parametrize("c_hat", [float("nan"), float("inf"), -1.0])
    def test_check_rejects_c_hat(self, c_hat):
        # a NaN constant, or an infinite one times I_0 = 0, makes a NaN
        # envelope, which no separation exceeds
        cfg = base_config(record_every=1)
        x0 = it.initial_coords(cfg, 0)
        a, b = it.simulate_paired(cfg, 0, x0, x0 + 1e-3)
        assert dg.gronwall_check(a, b, cfg, c_hat=0.0).holds
        with pytest.raises(ValueError, match=re.escape(
                f"c_hat: must be finite and at least 0, got {c_hat}")):
            dg.gronwall_check(a, b, cfg, c_hat=c_hat)

    def test_diverged_pairs_fail_both_branches(self):
        # explicit Euler on the stiff p=4 stress: paths 0, 3, 5, 6 and 7
        # cross the norm ceiling, paths 1, 2 and 4 do not
        cfg = base_config(p=4.0, dt=2e-3, T=0.1, n_paths=8, seed=20240611,
                          init=it.GaussianInit(sigma=0.4, decay=1.0),
                          gamma=noise.PowerLawSpectrum(c=0.5, s=3.0),
                          record_every=1, norm_ceiling=40.0)
        assert dg.identical_noise_separation(cfg, 0) == np.inf
        assert dg.identical_noise_separation(cfg, 1) == 0.0
        rep = dg.gronwall_experiment(cfg, eps=1e-3, n_calibration=8,
                                     n_validation=8)
        assert rep.n_diverged > 0 and not rep.passed
        clean = dataclasses.replace(rep, total_violations=0, n_diverged=0)
        assert clean.passed
        assert not dataclasses.replace(clean, n_diverged=1).passed


def pinned_pair(p, d=2, record_every=1):
    cfg = base_config(d=d, p=p, nu=0.05, n=2 if d == 2 else 1, T=0.02,
                      seed=4242, init=it.GaussianInit(sigma=2.0, decay=1.0),
                      gamma=noise.PowerLawSpectrum(c=0.1, s=3.0),
                      stepper="tamed", record_every=record_every)
    x0 = it.initial_coords(cfg, 5)
    y0 = x0.copy()
    y0[0] += 1e-3
    rec_a, _ = it.simulate_paired(cfg, 5, x0, y0)
    return rec_a, cfg


def grad_integral(p, **kw):
    return (dg._grad_integral(*pinned_pair(p, **kw)),)


def dissipation(p, **kw):
    return dg.dissipation_functional(*pinned_pair(p, **kw))


# sha256 of the float64 bytes of the diagnostics, numpy 2.4 with
# scipy-openblas 0.3.31 on x86-64, re-pinned when the drift moved from
# np.fft to band DFT matrices (the pair trajectories moved by rounding;
# grad_integral-p1.5, one float, kept its bytes), and again, all four, when
# the L_p quadrature grid moved from a floor of 32 points per axis to
# norm_grid_size(n, d, p): 64 at p = 1.5, 34 at p = 2.5 and 14 at d=3, n=1,
# p = 1.9.  The two dissipation digests were re-pinned when the drift moved
# to the band pair of lp_means (the trajectories moved by rounding; the two
# grad_integral digests kept their bytes).  dissipation-p1.9-d3 was
# re-pinned when the d=3 drift moved to divergence form (the trajectory
# moved by rounding; the d=2 cases kept their bytes)
PINNED_DIAGNOSTICS = {
    "grad_integral-p2.5": (lambda: grad_integral(2.5),
        "45d9fddd3a47f1e117e9134beb5f5002b70caa31f458b1a2a38752e1385de521"),
    "grad_integral-p1.5": (lambda: grad_integral(1.5),
        "21b5f208e663ae60322fbc0d956f5280adfdec0d152b9e32022f4b2ae76da824"),
    "dissipation-p1.5": (lambda: dissipation(1.5),
        "16eaf04d149bb71fcf98aff021464275a369115860430ad2cd121e601f747c71"),
    "dissipation-p1.9-d3": (lambda: dissipation(1.9, d=3, record_every=5),
        "4d368f24f06ea2d7547889e9db762ff85948032986b521c2e92789b89e3637c6"),
}


@pytest.mark.parametrize("case", sorted(PINNED_DIAGNOSTICS))
def test_diagnostics_match_pinned(case):
    run, digest = PINNED_DIAGNOSTICS[case]
    h = hashlib.sha256()
    for a in run():
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    assert h.hexdigest() == digest
