"""Time stepping, trajectory simulation and reproducibility contracts."""

import dataclasses
import os
import re

import numpy as np
import pytest

from splf import constitutive as co
from splf import integrator as it
from splf import noise, rng
from splf import spectral as sp

ZERO_NOISE = noise.ExplicitSpectrum(entries=())


def base_config(**kw):
    defaults = dict(
        d=2, p=2.0, nu=1.0, n=2, dt=1e-3, T=0.1, n_paths=1, seed=42,
        init=it.SingleModeInit(z=(1, 0), j=1, amplitude=1.0),
        gamma=ZERO_NOISE, stepper="euler_maruyama")
    defaults.update(kw)
    return it.SimConfig(**defaults)


class TestConfig:
    def test_minimal_valid(self):
        base_config()

    def test_named_field_errors(self):
        with pytest.raises(it.ConfigError, match="p:"):
            base_config(p=1.0)
        with pytest.raises(it.ConfigError, match="nu:"):
            base_config(nu=0.0)
        with pytest.raises(it.ConfigError, match="dt:"):
            base_config(dt=-1e-3)
        with pytest.raises(it.ConfigError, match="T:"):
            base_config(T=1e-5)
        with pytest.raises(it.ConfigError, match="stepper:"):
            base_config(stepper="heun")
        with pytest.raises(it.ConfigError, match="init.z"):
            base_config(init=it.SingleModeInit(z=(3, 0), j=1, amplitude=1.0))
        with pytest.raises(it.ConfigError, match="init.j"):
            base_config(init=it.SingleModeInit(z=(1, 0), j=5, amplitude=1.0))

    @pytest.mark.parametrize("z", [(1.5, 0), (0.5, 0), ("a", 0)])
    def test_non_integer_wave_vector_named(self, z):
        # int() used to cast (1.5, 0) onto mode (1, 0), and (0.5, 0) to
        # position -1, the sine element of the last mode; ("a", 0) raised
        # the ValueError of float(), which named no field
        with pytest.raises(it.ConfigError, match=r"^init\.z: .*integers"):
            base_config(init=it.SingleModeInit(z=z, j=1, amplitude=1.0))
        # a whole-number float names its mode
        x = it.initial_coords(base_config(init=it.SingleModeInit(
            z=(1.0, 0), j=1, amplitude=1.0)), 0)
        assert np.array_equal(x, it.initial_coords(base_config(), 0))

    @pytest.mark.parametrize("j", [1.5, "1"])
    def test_non_integer_branch_index_named(self, j):
        # j = 1.5 passed the range check and the run failed in initial_coords
        # with numpy's IndexError
        message = f"init.j: must be an integer in 1..2, got {j!r}"
        with pytest.raises(it.ConfigError, match=f"^{re.escape(message)}$"):
            base_config(init=it.SingleModeInit(z=(1, 0), j=j, amplitude=1.0))
        # a whole-number float names its branch
        x = it.initial_coords(base_config(init=it.SingleModeInit(
            z=(1, 0), j=1.0, amplitude=1.0)), 0)
        assert np.array_equal(x, it.initial_coords(base_config(), 0))

    @pytest.mark.parametrize("field,kw,shown", [
        ("p", dict(p=np.inf), "inf"), ("nu", dict(nu=np.inf), "inf"),
        ("dt", dict(dt=np.inf, T=np.inf), "inf"), ("T", dict(T=np.inf), "inf"),
        ("init.sigma", dict(init=it.GaussianInit(sigma=np.nan, decay=1.0)), "nan"),
        ("init.decay", dict(init=it.GaussianInit(sigma=1.0, decay=np.nan)), "nan"),
        ("init.amplitude",
         dict(init=it.SingleModeInit(z=(1, 0), j=1, amplitude=-np.inf)), "-inf"),
        ("record_every", dict(record_every=0), "0"),
        ("norm_ceiling", dict(norm_ceiling=-1.0), "-1.0"),
        ("p", dict(p="2.5"), "'2.5'"), ("nu", dict(nu="1"), "'1'"),
        ("dt", dict(dt="1e-3"), "'1e-3'"), ("T", dict(T="0.1"), "'0.1'"),
        ("norm_ceiling", dict(norm_ceiling="big"), "'big'"),
        ("init.sigma", dict(init=it.GaussianInit(sigma="a", decay=1.0)), "'a'"),
        ("init.decay", dict(init=it.GaussianInit(sigma=1.0, decay="b")), "'b'"),
        ("init.amplitude",
         dict(init=it.SingleModeInit(z=(1, 0), j=1, amplitude="big")), "'big'")])
    def test_bad_values_named(self, field, kw, shown):
        # non-finite inputs would pass the range checks (T = inf) or run
        # with every path diverging (nu = inf, sigma = nan); a string
        # raised a TypeError from the comparison that named no field
        with pytest.raises(it.ConfigError, match=f"^{re.escape(field)}: .*got {shown}$"):
            base_config(**kw)

    def test_seed_beyond_64_bits_rejected(self):
        # the seed fills one 64-bit key word; larger seeds would alias
        base_config(seed=2 ** 64 - 1)
        with pytest.raises(it.ConfigError, match="seed:"):
            base_config(seed=2 ** 64)
        with pytest.raises(it.ConfigError, match="seed:"):
            base_config(seed=2 ** 64 + 42)

    def test_time_grid_snapping(self):
        cfg = base_config(dt=3e-4, T=0.1)  # 0.1/3e-4 = 333.33 -> 334 steps
        assert cfg.n_steps == 334
        assert cfg.dt_eff <= 3e-4 + 1e-18
        assert abs(cfg.n_steps * cfg.dt_eff - 0.1) < 1e-15

    def test_exact_division_unchanged(self):
        cfg = base_config(dt=1e-3, T=0.1)
        assert cfg.n_steps == 100
        assert cfg.dt_eff == pytest.approx(1e-3, abs=1e-18)


class TestInitialConditions:
    def test_single_mode_energy(self):
        cfg = base_config(init=it.SingleModeInit(z=(1, 0), j=1, amplitude=0.7))
        x = it.initial_coords(cfg, 0)
        assert abs(float(x @ x) - 0.49) < 1e-14
        assert it.expected_initial_energy(cfg) == pytest.approx(0.49)

    def test_noncanonical_mode_sine_sign(self):
        # psi_{-z, sine} = -psi_{z, sine}: amplitude flips with the fold
        d = 2
        cfg_pos = base_config(init=it.SingleModeInit(z=(1, 0), j=d, amplitude=0.5))
        cfg_neg = base_config(init=it.SingleModeInit(z=(-1, 0), j=d, amplitude=0.5))
        assert np.array_equal(it.initial_coords(cfg_pos, 0),
                              -it.initial_coords(cfg_neg, 0))

    def test_gaussian_init_deterministic_per_path(self):
        cfg = base_config(init=it.GaussianInit(sigma=0.5, decay=2.0))
        a = it.initial_coords(cfg, 3)
        b = it.initial_coords(cfg, 3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, it.initial_coords(cfg, 4))

    def test_gaussian_expected_energy_matches_mc(self):
        cfg = base_config(init=it.GaussianInit(sigma=0.5, decay=2.0))
        exact = it.expected_initial_energy(cfg)
        m = 4000
        vals = np.array([float(x @ x) for x in
                         (it.initial_coords(cfg, i) for i in range(m))])
        se = vals.std(ddof=1) / np.sqrt(m)
        assert abs(vals.mean() - exact) < 3.5 * se


class TestStep:
    def test_zero_fixed_point(self):
        cfg = base_config()
        K = it.initial_coords(cfg, 0).size
        x = np.zeros(K)
        out = it.step(x, 1e-3, np.zeros(K), 2, 2, cfg.params, "euler_maruyama")
        assert np.all(out == 0.0)

    def test_semi_implicit_single_mode_closed_form(self):
        # p=2 single mode: no convection, so x' = x / (1 + dt nu lam)
        cfg = base_config(stepper="semi_implicit")
        x = it.initial_coords(cfg, 0)
        k = int(np.nonzero(x)[0][0])
        lam = 4.0 * np.pi ** 2
        dt = 1e-3
        out = it.step(x, dt, np.zeros_like(x), 2, 2, cfg.params, "semi_implicit")
        want = x[k] / (1.0 + dt * cfg.nu * lam)
        assert abs(out[k] - want) < 1e-14
        mask = np.ones_like(x, bool)
        mask[k] = False
        assert np.abs(out[mask]).max() < 1e-14

    def test_taming_agrees_with_euler_to_second_order(self):
        # difference = dt b (dt|b| / (1 + dt|b|)) = O(dt^2 |b|^2)
        cfg = base_config(p=3.0)
        x = 0.1 * it.initial_coords(cfg, 0)
        (b,), _ = co.drift_and_dissipation(x[None], 2, 2, cfg.params)
        for dt in (1e-3, 5e-4, 2.5e-4):
            em = it.step(x, dt, np.zeros_like(x), 2, 2, cfg.params, "euler_maruyama")
            tm = it.step(x, dt, np.zeros_like(x), 2, 2, cfg.params, "tamed")
            diff = np.linalg.norm(em - tm)
            bound = dt ** 2 * np.linalg.norm(b) ** 2
            assert diff <= bound * (1 + 1e-9)
            assert diff >= bound * 0.5  # sharp to leading order

    def test_rejects_bad_args(self):
        cfg = base_config()
        K = it.initial_coords(cfg, 0).size
        with pytest.raises(it.ConfigError):
            it.step(np.zeros(K), 0.0, np.zeros(K), 2, 2, cfg.params)
        with pytest.raises(it.ConfigError):
            it.step(np.zeros(K), 1e-3, np.zeros(K), 2, 2, cfg.params, "rk4")

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -1e-3])
    def test_rejects_non_finite_dt(self, dt):
        # nan and inf used to pass the sign check and return a NaN state
        cfg = base_config()
        K = it.initial_coords(cfg, 0).size
        with pytest.raises(it.ConfigError, match="dt: must be positive and finite"):
            it.step(np.zeros(K), dt, np.zeros(K), 2, 2, cfg.params)

    def test_non_finite_state_raises_without_step_index(self):
        cfg = base_config()
        K = it.initial_coords(cfg, 0).size
        with np.errstate(invalid="ignore"), pytest.raises(it.StepFailure) as err:
            it.step(np.full(K, np.inf), 1e-3, np.zeros(K), 2, 2, cfg.params)
        assert not hasattr(err.value, "step_index")
        assert err.value.norm == np.inf
        assert str(err.value) == "non-finite state or drift (|X|_2 = inf)"


class TestSimulate:
    def test_zero_everything_stays_zero(self):
        cfg = base_config(init=it.SingleModeInit(z=(1, 0), j=1, amplitude=0.0))
        rec = it.simulate(cfg, 0)
        assert not rec.diverged
        assert np.all(rec.coords == 0.0)
        assert np.all(rec.int_diss == 0.0)

    def test_bit_identical_reruns(self):
        cfg = base_config(p=3.0, stepper="tamed",
                          gamma=noise.PowerLawSpectrum(c=0.1, s=3.0))
        a = it.simulate(cfg, 5)
        b = it.simulate(cfg, 5)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.int_diss, b.int_diss)
        assert np.array_equal(a.int_gamma, b.int_gamma)

    def test_single_mode_exponential_decay(self):
        # p=2, no noise: single mode has no convection feedback, so the
        # coordinate follows dx/dt = -nu lam x exactly
        cfg = base_config()
        rec = it.simulate(cfg, 0)
        lam = 4.0 * np.pi ** 2
        exact = np.exp(-cfg.nu * lam * cfg.T)
        got = np.sqrt(rec.norm_l2_sq[-1])
        assert abs(got - exact) < 5 * cfg.dt * cfg.nu * lam * cfg.T

    def test_decay_defect_halves_with_dt(self):
        lam = 4.0 * np.pi ** 2

        def defect(dt):
            cfg = base_config(dt=dt)
            rec = it.simulate(cfg, 0)
            return abs(np.sqrt(rec.norm_l2_sq[-1]) - np.exp(-lam * cfg.T))

        r = defect(1e-3) / defect(5e-4)
        assert 1.7 < r < 2.3

    def test_record_stride_and_monotone_integrals(self):
        cfg = base_config(gamma=noise.PowerLawSpectrum(c=0.5, s=3.0),
                          record_every=7)
        rec = it.simulate(cfg, 1)
        assert rec.times[0] == 0.0
        assert rec.times[-1] == pytest.approx(cfg.T)
        assert np.all(np.diff(rec.int_diss) >= 0)
        assert np.all(np.diff(rec.int_gamma) >= 0)

    def test_invariants_along_path(self):
        cfg = base_config(p=3.0, stepper="tamed",
                          gamma=noise.PowerLawSpectrum(c=0.1, s=3.0))
        rec = it.simulate(cfg, 2)
        worst_div = worst_conj = 0.0
        for row in rec.coords:
            f = sp.coords_to_field(row, cfg.n, cfg.d)
            dv, cj = sp.structural_defects(f)
            worst_div, worst_conj = max(worst_div, dv), max(worst_conj, cj)
        assert worst_div < 1e-12
        assert worst_conj < 1e-12

    def test_noise_enters_additively(self):
        # first step of a noisy run minus its zero-noise twin = the increment
        gamma = noise.PowerLawSpectrum(c=0.2, s=3.0)
        cfg_n = base_config(gamma=gamma, record_every=1)
        cfg_0 = base_config(record_every=1)
        rec_n = it.simulate(cfg_n, 3)
        rec_0 = it.simulate(cfg_0, 3)
        gam = noise.gamma_vector(gamma, cfg_n.n, cfg_n.d)
        dW = noise.sample_increment(gamma, cfg_n.n, cfg_n.d, cfg_n.dt_eff,
                                    rng.stream(cfg_n.seed, 3, 0), gamma=gam)
        diff = rec_n.coords[1] - rec_0.coords[1]
        assert np.abs(diff - dW).max() < 1e-16 + 1e-12 * np.abs(dW).max()

    def test_divergence_guard(self):
        # explicit Euler with dt far beyond the stiff stability limit
        # overshoots and the guard flags the path instead of emitting NaNs
        cfg = base_config(p=4.0, nu=1.0, dt=0.5, T=5.0, stepper="euler_maruyama",
                          init=it.SingleModeInit(z=(1, 0), j=1, amplitude=50.0),
                          norm_ceiling=100.0)
        rec = it.simulate(cfg, 0)
        assert rec.diverged
        assert rec.diverged_step is not None
        assert len(rec.times) >= 1  # truncated, not dropped


class TestPaired:
    def test_identical_inputs_identical_paths(self):
        cfg = base_config(gamma=noise.PowerLawSpectrum(c=0.1, s=3.0))
        x0 = it.initial_coords(cfg, 0)
        a, b = it.simulate_paired(cfg, [0], [x0], [x0.copy()])
        assert np.array_equal(a.coords, b.coords)

    def test_separation_recorded(self):
        cfg = base_config(gamma=noise.PowerLawSpectrum(c=0.1, s=3.0))
        x0 = it.initial_coords(cfg, 0)
        y0 = x0.copy()
        y0[0] += 1e-3
        a, b = it.simulate_paired(cfg, [0], [x0], [y0])
        sep = np.sqrt(np.sum((a.coords - b.coords) ** 2, axis=1))
        assert np.all(np.isfinite(sep))
        assert sep[0] == pytest.approx(1e-3)

    def test_pair_shares_noise(self):
        # different initial data, same increments: the step-1 difference of
        # the two zero-drift... instead verify the noise cancels in Z for a
        # linear regime: zero init vs zero init shifted by 0 is trivial, so
        # compare against two independent paths which do differ in noise
        cfg = base_config(gamma=noise.PowerLawSpectrum(c=0.5, s=3.0))
        x0 = it.initial_coords(cfg, 0)
        a, b = it.simulate_paired(cfg, [0], [x0], [x0.copy()])
        c = it.simulate(dataclasses.replace(cfg, seed=cfg.seed + 1), 0)
        assert np.array_equal(a.coords, b.coords)
        assert not np.array_equal(a.coords, c.coords)


class TestEnsemble:
    def test_order_and_determinism(self):
        cfg = base_config(n_paths=5, gamma=noise.PowerLawSpectrum(c=0.1, s=3.0))
        recs = it.simulate_ensemble(cfg)
        assert [r.path_index for r in recs] == list(range(5))
        again = it.simulate_ensemble(cfg)
        for a, b in zip(recs, again):
            assert np.array_equal(a.coords, b.coords)

    def test_matches_individual_paths(self):
        cfg = base_config(n_paths=3, gamma=noise.PowerLawSpectrum(c=0.1, s=3.0))
        recs = it.simulate_ensemble(cfg)
        for i, r in enumerate(recs):
            solo = it.simulate(cfg, i)
            assert np.array_equal(r.coords, solo.coords)

    def test_parallel_workers_agree(self, monkeypatch):
        cfg = base_config(n_paths=8, T=0.02,
                          gamma=noise.PowerLawSpectrum(c=0.1, s=3.0))
        seq = it.simulate_ensemble(cfg)
        monkeypatch.setenv("SPLF_THREADS", "2")
        par = it.simulate_ensemble(cfg)
        for a, b in zip(seq, par):
            assert np.array_equal(a.coords, b.coords)

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "", "2.5"])
    def test_invalid_thread_count_named(self, monkeypatch, raw):
        monkeypatch.setenv("SPLF_THREADS", raw)
        with pytest.raises(it.ConfigError, match="SPLF_THREADS"):
            it.max_workers()

    def test_thread_count_capped_at_cores(self, monkeypatch):
        # only max_workers() is called: no worker is forked
        cores = os.cpu_count() or 1
        monkeypatch.delenv("SPLF_THREADS", raising=False)
        assert it.max_workers() == 1
        monkeypatch.setenv("SPLF_THREADS", "1")
        assert it.max_workers() == 1
        for raw in (str(cores), str(cores + 1), str(10 ** 6)):
            monkeypatch.setenv("SPLF_THREADS", raw)
            assert it.max_workers() == cores

    def test_no_fork_runs_in_one_process(self, monkeypatch):
        # where the platform has no os.fork the ensemble stays in this
        # process, whatever SPLF_THREADS asks for
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("SPLF_THREADS", "2")
        monkeypatch.delattr(os, "fork")
        assert it.max_workers() == 1
        cfg = base_config(n_paths=8, T=0.02,
                          gamma=noise.PowerLawSpectrum(c=0.1, s=3.0))
        pids = set()
        outcomes = it.simulate_ensemble(cfg, write=lambda rec: pids.add(os.getpid()))
        assert pids == {os.getpid()}
        assert [o.path_index for o in outcomes] == list(range(8))
