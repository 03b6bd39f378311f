"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The Monte Carlo criteria
(3 and 9) take a few minutes; everything else is seconds.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from splf import cli
from splf import constitutive as co
from splf import diagnostics as dg
from splf import exponents as ex
from splf import integrator as it
from splf import noise, rng
from splf import spectral as sp

SEED = 20260810


def verdict(num, title, ok, detail):
    line = f"[criterion {num}] {title}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


# -- shared configurations ---------------------------------------------------

ENERGY_INI = """
[model]
d = 2
p = 3.0
nu = 1.0
n = 2

[time]
dt = 1e-3
T = 0.1

[ensemble]
n_paths = 2000
seed = 20260810
stepper = tamed
record_every = {record_every}

[init]
kind = single_mode
z = 1 0
j = 1
amplitude = 0.5

[gamma]
kind = power
c = 0.1
s = 3.0
"""


def energy_config(record_every=100):
    from splf.config import parse_config_string

    cfg, _ = parse_config_string(ENERGY_INI.format(record_every=record_every))
    return cfg


def gronwall_config():
    return it.SimConfig(
        d=2, p=2.0, nu=0.01, n=2, dt=1e-3, T=0.05, n_paths=50, seed=777,
        init=it.GaussianInit(sigma=5.0, decay=1.0),
        gamma=noise.PowerLawSpectrum(c=1e-6, s=3.0),
        stepper="euler_maruyama", record_every=1)


def test_criterion_1_exponent_tables():
    c2, c3, c4, c5 = (ex.critical_exponents(d) for d in (2, 3, 4, 5))
    exact = (c2.p1 == Fraction(3, 2) and c3.p1 == Fraction(9, 5)
             and c4.p1 == Fraction(2) and c5.p1 == Fraction(11, 5))
    c9 = ex.critical_exponents(9)
    near = (abs(float(c9.p1) - 2.555) < 1.5e-3
            and abs(float(c9.p2) - 2.5714) < 5e-4
            and abs(c9.p3 - 2.620) < 5e-4)
    ok = exact and near
    verdict(1, "exponent tables", ok,
            f"p1(2..5)={c2.p1},{c3.p1},{c4.p1},{c5.p1}; "
            f"d=9: {float(c9.p1):.4f},{float(c9.p2):.4f},{c9.p3:.4f}")
    assert ok


def test_criterion_2_algebraic_identities():
    d, n = 2, 4
    basis = sp.basis(d, n)
    gmq = sp.grid_map(d, n, sp.pairing_grid_size(n))
    params2 = co.FluidParams(p=2.0, nu=1.0)
    params3 = co.FluidParams(p=3.0, nu=1.0)
    r = np.random.default_rng(SEED)
    scale = 1.0 / np.sqrt(basis.K)
    worst = dict(antisym=0.0, cancel=0.0, stokes=0.0, energy=0.0, ibp=0.0)
    n_trials = 1000
    for _ in range(n_trials):
        xv, xw, xp = (scale * r.standard_normal(basis.K) for _ in range(3))
        v = sp.coords_to_field(xv, n, d)
        w = sp.coords_to_field(xw, n, d)
        phi = sp.coords_to_field(xp, n, d)
        # swap antisymmetry of the trilinear pairing
        a = co.pairing_convection(phi, v, w)
        b = co.pairing_convection(w, v, phi)
        worst["antisym"] = max(worst["antisym"], abs(a + b))
        # self-pairing cancellation
        worst["cancel"] = max(worst["cancel"],
                              abs(co.pairing_convection(w, v, w)))
        # Newtonian stress pairing against the spectral Laplacian
        ps = co.pairing_stress(phi, v, params2)
        worst["stokes"] = max(worst["stokes"],
                              abs(ps - float((basis.lam_coord * xv) @ xp)))
        # weak divergence pairing: quadrature route vs spectral route
        tau = co.stress(v, params3, M=gmq.M).values
        tau_hat = np.stack([gmq.grid_to_modes(tau[i]) for i in range(d)])
        ikz = 2j * np.pi * gmq.basis.modes.astype(float)  # (Z, d)
        div_hat = np.einsum("zj,izj->zi", ikz, tau_hat)
        phat = gmq.basis.coords_to_modes(xp)
        route_b = 2.0 * np.real(np.einsum("zi,zi->", phat, np.conj(div_hat)))
        route_a = co.pairing_stress(phi, v, params3)
        worst["ibp"] = max(worst["ibp"], abs(route_a + route_b))
        # energy-dissipation identity of the projected drift
        (bvec,), (diss,) = co.drift_and_dissipation(xv[None], d, n, params3)
        worst["energy"] = max(worst["energy"], abs(xv @ bvec + diss))
    ok = all(v < 1e-10 for v in worst.values())
    verdict(2, f"algebraic identities ({n_trials} triples)", ok,
            ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))
    assert ok, worst


@pytest.mark.slow
def test_criterion_3_energy_identity(capsys):
    cfg = energy_config()
    report = dg.energy_experiment(cfg)
    ok = report.passed
    verdict(3, "stochastic energy identity", ok,
            f"residual={report.residual:.3e} <= 3*stderr={3 * report.main.lhs_stderr:.1e}"
            f" + allowance={report.bias_allowance:.3e};"
            f" shrink={report.shrink_ratio:.3f} in [1.5, 2.5];"
            f" diverged={report.main.n_diverged}")
    assert report.balance_ok, (report.residual, report.bias_allowance)
    assert report.shrink_ok, report.shrink_ratio
    assert report.main.n_diverged == 0


def test_criterion_4_deterministic_energy_balance():
    ratios = {}
    for p in (2.0, 3.0):
        defects = []
        for dt in (1e-3, 5e-4):
            cfg = it.SimConfig(
                d=2, p=p, nu=1.0, n=2, dt=dt, T=0.1, n_paths=1, seed=SEED,
                init=it.SingleModeInit(z=(1, 0), j=1, amplitude=0.5),
                gamma=noise.ExplicitSpectrum(entries=()),
                stepper="euler_maruyama", record_every=10 ** 9)
            defects.append(dg.energy_defect(it.simulate(cfg, 0)))
        ratios[p] = defects[0] / defects[1]
    ok = all(1.5 <= r <= 2.5 for r in ratios.values())
    verdict(4, "deterministic energy balance", ok,
            ", ".join(f"p={p}: dt-halving ratio={r:.3f}" for p, r in ratios.items()))
    assert ok, ratios


def test_criterion_5_newtonian_reduction():
    cfg = it.SimConfig(
        d=2, p=2.0, nu=1.0, n=2, dt=1e-3, T=0.1, n_paths=1, seed=SEED,
        init=it.SingleModeInit(z=(1, 0), j=1, amplitude=1.0),
        gamma=noise.ExplicitSpectrum(entries=()),
        stepper="euler_maruyama", record_every=1)
    rec = it.simulate(cfg, 0)
    lam = 4.0 * np.pi ** 2
    exact = np.exp(-cfg.nu * lam * rec.times)
    err = np.abs(np.sqrt(rec.norm_l2_sq) - exact).max()
    bound = 5.0 * cfg.dt * cfg.nu * lam * cfg.T
    ok = err < bound
    verdict(5, "Newtonian linear decay", ok,
            f"max |  ||X_t|| - exp(-nu lam t) | = {err:.3e} < {bound:.3e}")
    assert ok


def test_criterion_6_pathwise_uniqueness_exact():
    cfg = it.SimConfig(
        d=2, p=3.0, nu=1.0, n=2, dt=1e-3, T=0.05, n_paths=8, seed=SEED,
        init=it.GaussianInit(sigma=0.5, decay=1.5),
        gamma=noise.PowerLawSpectrum(c=0.1, s=3.0),
        stepper="tamed", record_every=1)
    worst = dg.identical_noise_separation(cfg, range(cfg.n_paths))
    ok = worst < 1e-12
    verdict(6, "pathwise uniqueness (exact branch)", ok,
            f"max ||Z_t||_2 over {cfg.n_paths} common-noise pairs = {worst:.2e}")
    assert ok


def test_criterion_7_gronwall_envelope():
    cfg = gronwall_config()
    report = dg.gronwall_experiment(cfg, eps=1e-3, n_calibration=64,
                                    n_validation=50, margin=0.5)
    ok = report.passed and report.exponent == 2.0 and report.in_uniqueness_regime
    verdict(7, "uniqueness Gronwall envelope", ok,
            f"c_hat={report.c_hat:.4f}, exponent={report.exponent}, "
            f"margin={report.margin}, pairs ok={report.pairs_ok}/{report.n_validation}, "
            f"violations={report.total_violations}")
    assert ok


def test_criterion_8_structural_invariants():
    # invariant sweep over trajectories from the other criteria's setups
    sweeps = []
    cfg_energy = energy_config(record_every=1)
    for i in range(3):
        sweeps.append((cfg_energy, it.simulate(cfg_energy, i)))
    cfg_g = gronwall_config()
    [(a, b)] = dg._perturbed_pairs(cfg_g, [0], 1e-3)
    sweeps += [(cfg_g, a), (cfg_g, b)]
    worst_div = worst_conj = 0.0
    for cfg, rec in sweeps:
        for row in rec.coords:
            f = sp.coords_to_field(row, cfg.n, cfg.d)
            dv, cj = sp.structural_defects(f)
            worst_div = max(worst_div, dv)
            worst_conj = max(worst_conj, cj)
    # increment variance ratio 1:4 between dt and 4 dt at 1e5 draws
    spec = noise.ExplicitSpectrum.from_items([((1, 0), 1, 0.5)])
    k = next(i for i, bb in enumerate(sp.make_basis(1, 2))
             if bb.z == (1, 0) and bb.j == 1)
    m = 100_000
    gam, streams = noise.gamma_vector(spec, 1, 2), rng.Streams(SEED)
    d1 = np.array([noise.sample_increment(spec, 1, 2, 0.01,
                                          streams.at(0, s), gamma=gam)[k]
                   for s in range(m)])
    d4 = np.array([noise.sample_increment(spec, 1, 2, 0.04,
                                          streams.at(1, s), gamma=gam)[k]
                   for s in range(m)])
    ratio = d4.var(ddof=1) / d1.var(ddof=1)
    se = ratio * np.sqrt(4.0 / (m - 1))
    ratio_ok = abs(ratio - 4.0) < 3 * se
    ok = worst_div < 1e-12 and worst_conj < 1e-12 and ratio_ok
    verdict(8, "structural invariants", ok,
            f"max |z.X_z|={worst_div:.2e}, conj defect={worst_conj:.2e}, "
            f"variance ratio={ratio:.4f} (3se={3 * se:.4f})")
    assert ok


@pytest.mark.slow
def test_criterion_9_reproducibility(tmp_path, monkeypatch):
    ini = ENERGY_INI.format(record_every=10)
    cfg_file = tmp_path / "energy.ini"
    cfg_file.write_text(ini)

    def run(tag, threads):
        monkeypatch.setenv("SPLF_THREADS", threads)
        out = tmp_path / tag
        code = cli.main(["simulate", "--config", str(cfg_file),
                         "--out", str(out)])
        assert code == 0
        digests = {}
        for f in sorted(out.glob("path_*.csv")):
            digests[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
        return digests

    # the rerun fans out to two workers, so equal digests also show that
    # a record does not depend on the worker count
    first = run("run_a", "1")
    second = run("run_b", "2")
    ok = first == second and len(first) == 2000
    n_diff = sum(first[k] != second[k] for k in first)
    verdict(9, "bit-identical reruns", ok,
            f"{len(first)} per-path CSVs, differing digests: {n_diff}")
    assert ok
