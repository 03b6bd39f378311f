"""Ensemble statistics confronting simulated paths with the exact
identities of the truncated dynamics: the energy balance, a priori growth
bounds, the quadratic variation of the energy martingale, the weighted
dissipation functional, and the uniqueness (Gronwall) envelope for pairs
driven by common noise.

All running time integrals are left-endpoint sums, matching the discrete
Ito identity of the explicit schemes; the leftover O(dt) bias is measured
by step-halving control runs rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exponents import gronwall_exponent, moment_exponent, regularity_weight, uniqueness_threshold
from .integrator import SimConfig, TrajectoryRecord, _with_norm_p1, expected_initial_energy, initial_coords, simulate_ensemble, simulate_paired
from .noise import operator_norm, trace_truncated
from .spectral import basis, grid_lp_means

__all__ = [
    "EnergyBalanceReport",
    "EnergyExperimentReport",
    "AprioriReport",
    "GronwallReport",
    "energy_balance",
    "energy_experiment",
    "energy_defect",
    "apriori_check",
    "quadratic_variation_bound",
    "dissipation_functional",
    "gronwall_check",
    "calibrate_gronwall",
    "gronwall_experiment",
    "identical_noise_separation",
    "CALIBRATION_PATH_OFFSET",
]

CALIBRATION_PATH_OFFSET = 1_000_000

# The residual of a first-order scheme halves with dt: energy_experiment
# accepts a ratio of residuals at dt and dt/2 in this range.
SHRINK_RANGE = (1.5, 2.5)

# A report field with this metadata is listed in the manifest of a check,
# not written to its JSON report.
MANIFEST_ONLY = {"manifest_only": True}


def _alive(records: Sequence[TrajectoryRecord]) -> List[TrajectoryRecord]:
    return [r for r in records if not r.diverged]


def _diverged(run: str, records: Sequence[TrajectoryRecord]) -> tuple:
    """The manifest entry of each diverged record; a pair's two records
    share its path index."""
    return tuple({"run": run, "path_index": r.path_index, "diverged_step": r.diverged_step}
                 for r in records if r.diverged)


def _energy_functional(r: TrajectoryRecord) -> float:
    """Per-path value ||X_T||_2^2 + 2 int_0^T < e(X), tau(X) > dt."""
    return float(r.norm_l2_sq[-1] + 2.0 * r.int_diss[-1])


@dataclass(frozen=True)
class EnergyBalanceReport:
    """Monte Carlo test of E[||X_T||^2 + 2 int <e,tau>] against the
    analytic budget E[||X_0||^2] + tr(Gamma P_n) T."""

    lhs_mean: float
    lhs_stderr: float
    rhs: float
    z_score: float
    n_paths: int
    n_diverged: int
    T: float
    dt: float


def energy_balance(records: Sequence[TrajectoryRecord],
                   config: SimConfig) -> EnergyBalanceReport:
    """Ensemble energy balance report.

    The right-hand side is analytic: the initial energy is exact for both
    initial-condition families and the injected trace is a finite sum, so
    only the left-hand side carries sampling error.  The standard error is
    taken over the per-path values of the full functional, which accounts
    exactly for the correlation between the terminal energy and the
    dissipation integral.
    """
    alive = _alive(records)
    if len(alive) < 2:
        raise ValueError(
            f"energy balance needs >= 2 surviving paths, have {len(alive)} "
            f"({len(records) - len(alive)} diverged)")
    vals = np.array([_energy_functional(r) for r in alive])
    lhs = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(len(vals)))
    rhs = expected_initial_energy(config) + trace_truncated(
        config.gamma, config.n, config.d) * config.T
    if se > 0:
        z = (lhs - rhs) / se
    else:
        z = 0.0 if abs(lhs - rhs) < 1e-14 else math.inf
    return EnergyBalanceReport(
        lhs_mean=lhs, lhs_stderr=se, rhs=rhs, z_score=float(z),
        n_paths=len(alive), n_diverged=len(records) - len(alive),
        T=config.T, dt=config.dt_eff)


@dataclass(frozen=True)
class EnergyExperimentReport:
    """Energy balance at step dt with a dt/2 control run.

    The discretization bias is measured, not assumed: the allowance is the
    Richardson estimate 2.2 |lhs(dt) - lhs(dt/2)| plus three standard
    errors of that gap, and the residual must shrink roughly in half when
    the step is halved.
    """

    main: EnergyBalanceReport
    control: EnergyBalanceReport
    gap: float
    gap_stderr: float
    bias_allowance: float
    residual: float
    residual_control: float
    shrink_ratio: float
    balance_ok: bool
    shrink_ok: bool
    diverged: tuple = field(default=(), metadata=MANIFEST_ONLY)  # runs "main", "control"

    @property
    def passed(self) -> bool:
        # a diverged path is dropped from the balance, so the survivors
        # alone could pass it: any divergence fails the experiment
        no_divergence = self.main.n_diverged == 0 and self.control.n_diverged == 0
        return self.balance_ok and self.shrink_ok and no_divergence


def energy_experiment(config: SimConfig) -> EnergyExperimentReport:
    """Run the ensemble at dt and at dt/2 and test the energy identity.
    Neither run fills the ||X||_{p,1}^p column, which the test never
    reads."""
    records = simulate_ensemble(config)
    main, diverged = energy_balance(records, config), _diverged("main", records)
    half_cfg = replace(config, dt=config.dt / 2.0)
    records = simulate_ensemble(half_cfg)
    control = energy_balance(records, half_cfg)
    diverged += _diverged("control", records)
    gap = main.lhs_mean - control.lhs_mean
    gap_se = math.hypot(main.lhs_stderr, control.lhs_stderr)
    allowance = 2.2 * abs(gap) + 3.0 * gap_se
    residual = main.lhs_mean - main.rhs
    residual_control = control.lhs_mean - control.rhs
    if residual_control != 0.0:
        shrink = abs(residual) / abs(residual_control)
    else:
        shrink = math.inf if residual else 2.0
    balance_ok = abs(residual) <= 3.0 * main.lhs_stderr + allowance
    shrink_ok = SHRINK_RANGE[0] <= shrink <= SHRINK_RANGE[1]
    return EnergyExperimentReport(
        main=main, control=control, gap=gap, gap_stderr=gap_se,
        bias_allowance=allowance, residual=residual,
        residual_control=residual_control, shrink_ratio=float(shrink),
        balance_ok=balance_ok, shrink_ok=shrink_ok, diverged=diverged)


def energy_defect(record: TrajectoryRecord) -> float:
    """Pathwise defect |  ||X_T||^2 + 2 int <e,tau> - ||X_0||^2  |.

    For zero noise this is the whole energy balance error of the scheme,
    first order in dt.
    """
    return abs(_energy_functional(record) - float(record.norm_l2_sq[0]))


# ---------------------------------------------------------------------------
# a priori growth
# ---------------------------------------------------------------------------


def _horizon_rows(r: TrajectoryRecord, config: SimConfig, quarters: int) -> int:
    """Number of rows of a record of config at or before the horizon
    quarters/4 of config.T, counted in steps: a recorded time k dt_eff can
    read a few ulps above the horizon that step k lands on (0.7 read as
    0.7000000000000001), so comparing times would drop the horizon's row."""
    step = config.n_steps * quarters // 4
    if step == config.n_steps:
        return len(r.times)
    return min(len(r.times), step // config.record_every + 1)


def _int_norm_p1(r: TrajectoryRecord, rows: int) -> float:
    """Left-endpoint integral of the recorded ||X||_{p,1}^p over the first
    `rows` rows."""
    if rows <= 1:
        return 0.0
    return float(np.sum(r.norm_p1_p[:rows - 1] * np.diff(r.times[:rows])))


@dataclass(frozen=True)
class AprioriReport:
    """Growth of E[sup ||X||^2] and E[int ||X||_{p,1}^p] over a horizon
    ladder T, 2T, 4T, with the affine fit stat ~ a + b T.  The statistics
    are taken over the n_paths surviving paths; n_diverged paths left the
    run."""

    horizons: Tuple[float, float, float]
    sup_energy: Tuple[float, float, float]
    int_norm: Tuple[float, float, float]
    combined: Tuple[float, float, float]
    affine_intercept: float
    affine_slope: float
    superlinearity: float
    delta_moment: float
    n_paths: int
    n_diverged: int

    def affine_ok(self, margin: float) -> bool:
        # the survivors alone could grow affinely: any divergence fails
        return self.superlinearity <= 1.0 + margin and self.n_diverged == 0


def apriori_check(config: SimConfig) -> AprioriReport:
    """Estimate the a priori statistics on horizons T, 2T and 4T.

    One ensemble is run to 4T and evaluated on nested prefixes, each
    ending at the row of its horizon, so the monotonicity of both
    statistics in T is exact by construction.  The report also carries the
    delta = p/(p+2) moment of the norm integral used by the moment bound on
    the convection term.  Diverged paths are left out of the statistics and
    counted in n_diverged.  The ensemble's finish fills the norm column in
    the process that integrated the path.
    """
    long_cfg = replace(config, T=4.0 * config.T)
    ensemble = simulate_ensemble(long_cfg, finish=lambda r: _with_norm_p1(long_cfg, r))
    records = _alive(ensemble)
    if not records:
        raise ValueError("a priori check: every path diverged")
    horizons = (config.T, 2.0 * config.T, 4.0 * config.T)
    sup_e, int_n, comb = [], [], []
    for quarters in (1, 2, 4):
        sups, ints = [], []
        for r in records:
            upto = _horizon_rows(r, long_cfg, quarters)
            sups.append(float(r.norm_l2_sq[:upto].max()))
            ints.append(_int_norm_p1(r, upto))
        sup_e.append(float(np.mean(sups)))
        int_n.append(float(np.mean(ints)))
        comb.append(sup_e[-1] + int_n[-1])
    delta = moment_exponent(config.p)
    dmom = float(np.mean([_int_norm_p1(r, _horizon_rows(r, long_cfg, 1)) ** delta
                          for r in records]))
    ts = np.array(horizons)
    ys = np.array(comb)
    slope, intercept = np.polyfit(ts, ys, 1)
    d32 = comb[2] - comb[1]
    d21 = comb[1] - comb[0]
    if d21 > 1e-300:
        superlin = d32 / (2.0 * d21)
    else:
        superlin = 0.0 if abs(d32) < 1e-300 else math.inf
    return AprioriReport(
        horizons=horizons, sup_energy=tuple(sup_e), int_norm=tuple(int_n),
        combined=tuple(comb), affine_intercept=float(intercept),
        affine_slope=float(slope), superlinearity=float(superlin),
        delta_moment=dmom, n_paths=len(records),
        n_diverged=len(ensemble) - len(records))


# ---------------------------------------------------------------------------
# quadratic variation and dissipation functional
# ---------------------------------------------------------------------------


def quadratic_variation_bound(record: TrajectoryRecord,
                              config: SimConfig) -> np.ndarray:
    """Operator-norm bound ||Gamma|| int_0^t ||X||_2^2 ds on the quadratic
    variation record.int_gamma (exact when every step is recorded)."""
    norm = operator_norm(config.gamma, config.n, config.d)
    t = record.times
    cum = np.concatenate([[0.0], np.cumsum(record.norm_l2_sq[:-1] * np.diff(t))])
    return norm * cum


def dissipation_functional(record: TrajectoryRecord,
                           config: SimConfig) -> Tuple[np.ndarray, float]:
    """The weighted dissipation functional J_t at recorded times and its
    left-endpoint time integral.

    For p >= 2, J_t = ||Lap X||_2^2 / (1 + ||grad X||_2^2)^lambda; for
    1 < p < 2 the L_p variant with the extra (1 + ||grad X||_p)^(2-p)
    denominator factor is used.  lambda is the regularity weight of the
    exponent table (zero for d = 2).
    """
    lam = regularity_weight(config.p, config.d)
    w = basis(config.d, config.n).lam_coord
    xsq = record.coords ** 2
    grad2 = xsq @ w
    lap2 = xsq @ (w ** 2)
    if config.p >= 2:
        J = lap2 / (1.0 + grad2) ** lam
    else:
        lap_p, grad_p = _lp_norms(record, config, 2), _lp_norms(record, config, 1)
        J = lap_p ** 2 / ((1.0 + grad2) ** lam * (1.0 + grad_p) ** (2.0 - config.p))
    t = record.times
    integral = float(np.sum(J[:-1] * np.diff(t))) if len(t) > 1 else 0.0
    return J, integral


# ---------------------------------------------------------------------------
# pathwise uniqueness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GronwallReport:
    """Separation of a trajectory pair against the exponential envelope
    ||Z_0||^2 exp(C int_0^t ||grad X||_p^(2p/(2p-d)) ds)."""

    times: np.ndarray
    sep_sq: np.ndarray          # ||Z_t||_2^2
    envelope: np.ndarray
    c_hat: float
    margin: float
    violations: int
    in_uniqueness_regime: bool

    @property
    def holds(self) -> bool:
        return self.violations == 0


def _lp_norms(record: TrajectoryRecord, config: SimConfig, order: int) -> np.ndarray:
    """||grad X||_{L_p} (order 1) or ||Lap X||_{L_p} (order 2) of every
    recorded row, by `grid_lp_means`.  It reads only coords, so it serves
    pair records, whose norm_p1_p is None."""
    means = grid_lp_means(record.coords, config.d, config.n, config.p,
                          basis(config.d, config.n).derivative(order))
    return means ** (1.0 / config.p)


def _grad_integral(record: TrajectoryRecord, config: SimConfig) -> np.ndarray:
    """Left-endpoint running integral of ||grad X||_p^(2p/(2p-d))."""
    q = gronwall_exponent(config.p, config.d)
    grad_p = _lp_norms(record, config, 1)
    t = record.times
    out = np.zeros_like(t)
    if len(t) > 1:
        out[1:] = np.cumsum(grad_p[:-1] ** q * np.diff(t))
    return out


def _separation(rec_a: TrajectoryRecord, rec_b: TrajectoryRecord) -> np.ndarray:
    """||Z_t||^2 at each recorded row of a pair; the pair must share one
    time grid."""
    if rec_a.times.shape != rec_b.times.shape or not np.array_equal(
            rec_a.times, rec_b.times):
        raise ValueError("paired records have mismatched time grids")
    z = rec_a.coords - rec_b.coords
    return np.einsum("rk,rk->r", z, z)


def _check_envelope_input(name: str, value: float) -> None:
    # a NaN or infinite margin or constant makes a NaN envelope (inf * 0 at
    # t = 0), which no separation exceeds
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name}: must be finite and at least 0, got {value}")


def gronwall_check(rec_a: TrajectoryRecord, rec_b: TrajectoryRecord,
                   config: SimConfig, c_hat: float, margin: float) -> GronwallReport:
    """Test ||Z_t||^2 <= ||Z_0||^2 exp(c_hat (1+margin) I_t) along a pair.

    The pair must share times (same config, same noise); outside the
    uniqueness regime p >= 1 + d/2 the report is still produced but labeled
    out of regime.  c_hat and margin must be finite and at least 0.
    """
    _check_envelope_input("c_hat", c_hat)
    _check_envelope_input("margin", margin)
    sep, I = _separation(rec_a, rec_b), _grad_integral(rec_a, config)
    env = sep[0] * np.exp(c_hat * (1.0 + margin) * I)
    tol = 1e-12 * max(1.0, float(sep[0]))
    violations = int(np.sum(sep > env + tol))
    regime = config.p >= float(uniqueness_threshold(config.d))
    return GronwallReport(times=rec_a.times.copy(), sep_sq=sep, envelope=env,
                          c_hat=c_hat, margin=margin, violations=violations,
                          in_uniqueness_regime=regime)


def calibrate_gronwall(pairs: Sequence[Tuple[TrajectoryRecord, TrajectoryRecord]],
                       config: SimConfig) -> float:
    """Smallest constant making the envelope hold on every calibration pair.

    For each pair and recorded time with positive gradient integral I_t,
    the binding constant is log(||Z_t||^2 / ||Z_0||^2) / I_t; the
    calibrated constant is the largest positive value seen (zero if the
    separation never grows).
    """
    c_max = 0.0
    for rec_a, rec_b in pairs:
        sep, I = _separation(rec_a, rec_b), _grad_integral(rec_a, config)
        if sep[0] <= 0:
            continue
        mask = I > 0
        if not mask.any():
            continue
        ratios = np.log(np.maximum(sep[mask], 1e-300) / sep[0]) / I[mask]
        c_max = max(c_max, float(ratios.max()))
    return c_max


@dataclass(frozen=True)
class GronwallExperimentReport:
    """Envelope constant calibrated on held-out pairs and its validation.

    A pair with a diverged member is not evidence either way: it is left
    out of the calibration and the validation, counted in n_diverged, and
    fails the experiment.  worst is None when no validation pair survived.
    """

    c_hat: float
    margin: float
    exponent: float
    n_calibration: int
    n_validation: int
    total_violations: int
    pairs_ok: int
    worst: Optional[GronwallReport]
    in_uniqueness_regime: bool
    n_diverged: int
    diverged: tuple = field(default=(), metadata=MANIFEST_ONLY)  # "calibration", "validation"

    @property
    def passed(self) -> bool:
        return self.total_violations == 0 and self.n_diverged == 0


def _perturbed_pairs(config: SimConfig, path_indices: Sequence[int], eps: float):
    """(rec_a, rec_b) of each pair, the one builder of common-noise pairs:
    a starts from its path's initial condition, b from a copy of it moved
    by eps along the first basis element; all pairs run in one batched
    call.  At eps = 0, b starts from a bitwise copy: adding 0.0 would turn
    a -0.0 coordinate into +0.0."""
    x0 = np.array([initial_coords(config, i) for i in path_indices])
    y0 = x0.copy()
    if eps:
        y0[:, 0] += eps
    recs = simulate_paired(config, path_indices, x0, y0)
    return list(zip(recs[::2], recs[1::2]))


def gronwall_experiment(config: SimConfig, eps: float, *, n_calibration: int,
                        n_validation: int, margin: float) -> GronwallExperimentReport:
    """Calibrate the envelope constant on n_calibration held-out pairs, then
    validate it on n_validation pairs with margin; each caller states all three.

    Calibration pairs use path indices offset by CALIBRATION_PATH_OFFSET, so
    their noise and initial data are fresh relative to the validation set;
    more validation pairs than that offset would reuse calibration streams.
    Diverged records of either set are counted and fail the experiment.
    """
    if not 1 <= n_validation <= CALIBRATION_PATH_OFFSET:
        raise ValueError(
            f"n_validation: must be from 1 to {CALIBRATION_PATH_OFFSET} pairs (more "
            f"would share streams with the calibration pairs), got {n_validation}")
    if n_calibration < 1:
        raise ValueError(f"n_calibration: must be at least 1 pair, got {n_calibration}")
    _check_envelope_input("margin", margin)
    if not math.isfinite(eps):
        raise ValueError(f"eps: must be finite, got {eps}")
    cal_pairs = _perturbed_pairs(
        config, range(CALIBRATION_PATH_OFFSET, CALIBRATION_PATH_OFFSET + n_calibration), eps)
    c_hat = calibrate_gronwall(
        [pair for pair in cal_pairs if not any(r.diverged for r in pair)], config)
    val_pairs = _perturbed_pairs(config, range(n_validation), eps)
    diverged = (_diverged("calibration", [r for pair in cal_pairs for r in pair])
                + _diverged("validation", [r for pair in val_pairs for r in pair]))
    total = 0
    ok = 0
    worst = None
    for rec_a, rec_b in val_pairs:
        if rec_a.diverged or rec_b.diverged:
            continue
        rep = gronwall_check(rec_a, rec_b, config, c_hat, margin)
        total += rep.violations
        ok += rep.holds
        if worst is None or rep.violations > worst.violations:
            worst = rep
    return GronwallExperimentReport(
        c_hat=c_hat, margin=margin,
        exponent=gronwall_exponent(config.p, config.d),
        n_calibration=n_calibration, n_validation=n_validation,
        total_violations=total, pairs_ok=ok, worst=worst,
        in_uniqueness_regime=config.p >= float(uniqueness_threshold(config.d)),
        n_diverged=len(diverged), diverged=diverged)


def identical_noise_separation(config: SimConfig, path_indices: Sequence[int],
                               diverged: Optional[list] = None) -> float:
    """Max separation ||Z_t||_2 over the pairs of a sequence of path
    indices, each pair with identical data and noise, run in one batch.

    The discrete map is deterministic given the noise, so this is zero to
    roundoff; it is the exact branch of the uniqueness statement.  If a
    pair has a diverged member the result is inf: a path that left the
    computation shows nothing about uniqueness.  A `diverged` list gets
    the manifest entry (run "exact") of each diverged record.
    """
    pairs = _perturbed_pairs(config, path_indices, 0.0)
    recs = [r for pair in pairs for r in pair]
    if diverged is not None:
        diverged.extend(_diverged("exact", recs))
    if any(r.diverged for r in recs):
        return math.inf
    return max(float(np.sqrt(_separation(a, b).max())) for a, b in pairs)
