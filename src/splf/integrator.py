"""Time discretization of the Galerkin system and trajectory simulation.

The truncated dynamics form a finite-dimensional SDE with additive noise in
the real basis coordinates.  Fixed-step explicit schemes are provided:
plain Euler-Maruyama, a tamed variant whose drift increment is bounded
(the drift grows like degree p-1, so plain Euler can explode for p > 2),
and a semi-implicit scheme where the linear Stokes part is inverted exactly
mode by mode.  All random draws are counter-based, so a trajectory is a
pure function of (config, path_index).  Paths are stepped in blocks that
share one batched drift pass per step; a path's record does not depend on
the block it ran in.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import rng
from .constitutive import FluidParams, drift_and_dissipation
from .noise import (ExplicitSpectrum, PowerLawSpectrum, gamma_vector,
                    validate_spectrum)
from .spectral import _is_real, _is_whole, basis, grid_lp_means, pairing_grid_size

__all__ = [
    "ConfigError",
    "StepFailure",
    "SingleModeInit",
    "GaussianInit",
    "SimConfig",
    "TrajectoryRecord",
    "PathOutcome",
    "step",
    "simulate",
    "simulate_paired",
    "simulate_ensemble",
    "initial_coords",
    "expected_initial_energy",
]

STEPPERS = ("euler_maruyama", "tamed", "semi_implicit")


class ConfigError(ValueError):
    """A simulation parameter violates its contract (message names the field)."""


class StepFailure(RuntimeError):
    """step() met a non-finite drift from a state of Euclidean norm `norm`
    (inf when the state itself is not finite)."""

    def __init__(self, norm: float):
        self.norm = norm
        super().__init__(f"non-finite state or drift (|X|_2 = {norm})")


@dataclass(frozen=True)
class SingleModeInit:
    """Deterministic initial state: amplitude times one basis element."""

    z: tuple
    j: int
    amplitude: float


@dataclass(frozen=True)
class GaussianInit:
    """Random initial state with independent Gaussian basis coordinates of
    variance sigma^2 (1 + 4 pi^2 |z|^2)^(-decay)."""

    sigma: float
    decay: float


InitDescriptor = Union[SingleModeInit, GaussianInit]
SpectrumDescriptor = Union[PowerLawSpectrum, ExplicitSpectrum]


@dataclass(frozen=True)
class SimConfig:
    d: int
    p: float
    nu: float
    n: int
    dt: float
    T: float
    n_paths: int
    seed: int
    init: InitDescriptor
    gamma: SpectrumDescriptor
    stepper: str = "tamed"
    record_every: int = 1
    norm_ceiling: float = 1e6

    def __post_init__(self):
        if not isinstance(self.d, numbers.Integral) or self.d < 2:
            raise ConfigError(f"d: must be an integer >= 2, got {self.d}")
        if not (_is_real(self.p) and 1 < self.p < math.inf):
            raise ConfigError(f"p: must be finite and exceed 1, got {self.p!r}")
        if not (_is_real(self.nu) and 0 < self.nu < math.inf):
            raise ConfigError(f"nu: must be positive and finite, got {self.nu!r}")
        if not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise ConfigError(f"n: must be an integer >= 1, got {self.n}")
        if not (_is_real(self.dt) and 0 < self.dt < math.inf):
            raise ConfigError(f"dt: must be positive and finite, got {self.dt!r}")
        if not (_is_real(self.T) and self.dt <= self.T < math.inf):
            raise ConfigError(f"T: must be finite and at least dt={self.dt}, got {self.T!r}")
        if not (isinstance(self.n_paths, numbers.Integral) and self.n_paths >= 1):
            raise ConfigError(f"n_paths: must be an integer >= 1, got {self.n_paths}")
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 2 ** 64):
            raise ConfigError(
                f"seed: must be an integer in [0, 2**64), got {self.seed}")
        if self.stepper not in STEPPERS:
            raise ConfigError(
                f"stepper: unknown scheme {self.stepper!r}, choose from {STEPPERS}")
        if not (isinstance(self.record_every, numbers.Integral) and self.record_every >= 1):
            raise ConfigError(f"record_every: must be an integer >= 1, got {self.record_every}")
        if not (_is_real(self.norm_ceiling) and self.norm_ceiling > 0):
            raise ConfigError(f"norm_ceiling: must be positive, got {self.norm_ceiling!r}")
        if isinstance(self.init, SingleModeInit):
            if not (_is_real(self.init.amplitude) and math.isfinite(self.init.amplitude)):
                raise ConfigError(
                    f"init.amplitude: must be finite, got {self.init.amplitude!r}")
            if len(self.init.z) != self.d:
                raise ConfigError(f"init.z: wrong dimension for d={self.d}")
            if not _is_whole(*self.init.z):
                raise ConfigError(f"init.z: components must be integers, got {self.init.z}")
            if all(c == 0 for c in self.init.z):
                raise ConfigError("init.z: must be nonzero (mean-zero space)")
            if max(abs(c) for c in self.init.z) > self.n:
                raise ConfigError(f"init.z: outside truncation n={self.n}")
            if not (_is_whole(self.init.j) and 1 <= self.init.j <= 2 * self.d - 2):
                raise ConfigError(f"init.j: must be an integer in 1..{2 * self.d - 2}, "
                                  f"got {self.init.j!r}")
        elif isinstance(self.init, GaussianInit):
            if not (_is_real(self.init.sigma) and 0 <= self.init.sigma < math.inf):
                raise ConfigError(
                    f"init.sigma: must be finite and >= 0, got {self.init.sigma!r}")
            if not (_is_real(self.init.decay) and math.isfinite(self.init.decay)):
                raise ConfigError(f"init.decay: must be finite, got {self.init.decay!r}")
        else:
            raise ConfigError(f"init: unknown descriptor {type(self.init).__name__}")
        validate_spectrum(self.gamma, self.d)

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.T / self.dt - 1e-9))

    @property
    def dt_eff(self) -> float:
        """Step actually used: T snapped to an integer number of steps."""
        return self.T / self.n_steps

    @property
    def params(self) -> FluidParams:
        return FluidParams(p=self.p, nu=self.nu)


@dataclass
class TrajectoryRecord:
    """Diagnostics of one path at the recorded times, multiples of the
    config's dt_eff; the final state is coords[-1].

    Running integrals use the left-endpoint rule matching the discrete Ito
    identity of the explicit schemes, so they are nondecreasing and the
    discrete energy balance closes up to the stepper's own bias.  The norm
    ||X||_{p,1}^p (`_norm_p1_p` of `coords`), for the `simulate` CSV, is
    None on pair records and with norm_p1=False.  With write=,
    `simulate_ensemble` returns a PathOutcome in place of each record.
    """

    path_index: int
    times: np.ndarray       # (R,)
    coords: np.ndarray      # (R, K)
    norm_l2_sq: np.ndarray  # (R,)  ||X||_2^2
    norm_p1_p: Optional[np.ndarray]  # (R,)  ||X||_{p,1}^p; None where not computed
    int_diss: np.ndarray    # (R,)  int_0^t < e(X), tau(X) > ds
    int_gamma: np.ndarray   # (R,)  int_0^t < Gamma X, X > ds
    diverged: bool = False
    diverged_step: Optional[int] = None


# What `simulate_ensemble(..., write=...)` keeps of a record, for the
# manifest: its path's divergence and what write returned for it, in
# `simulate` the (file name, sha256) of each output, hashed in the process
# that wrote the file.
PathOutcome = NamedTuple("PathOutcome", [
    ("path_index", int), ("diverged", bool), ("diverged_step", Optional[int]),
    ("written", Any)])


def initial_coords(config: SimConfig, path_index: int) -> np.ndarray:
    """Initial basis coordinates for one path (pure in (seed, path))."""
    b = basis(config.d, config.n)
    if isinstance(config.init, SingleModeInit):
        x = np.zeros(b.K)
        pos, sign = b.coord(config.init.z, config.init.j)
        x[pos] = sign * config.init.amplitude
        return x
    g = rng.stream(config.seed, path_index, 0, rng.PURPOSE_INIT)
    std = config.init.sigma * (1.0 + b.lam_coord) ** (-config.init.decay / 2.0)
    return g.standard_normal(b.K) * std


def expected_initial_energy(config: SimConfig) -> float:
    """Exact E ||X_0||_2^2 for either initial-condition family."""
    if isinstance(config.init, SingleModeInit):
        return config.init.amplitude ** 2
    lam = basis(config.d, config.n).lam_coord
    var = config.init.sigma ** 2 * (1.0 + lam) ** (-config.init.decay)
    return float(var.sum())


def _advance(x: np.ndarray, dt: float, dW: np.ndarray, b: np.ndarray,
             stepper: str, nu: float, lam: np.ndarray) -> np.ndarray:
    """One step of the scheme for a block of rows x (P, K)."""
    if stepper == "euler_maruyama":
        return x + dt * b + dW
    if stepper == "tamed":
        shrink = 1.0 + dt * np.sqrt(np.vecdot(b, b))
        return x + dt * b / shrink[:, None] + dW
    # semi-implicit: exact per-mode solve of the Stokes part
    return (x + dt * (b + nu * lam * x) + dW) / (1.0 + dt * nu * lam)


def step(x: np.ndarray, dt: float, dW: np.ndarray, d: int, n: int,
         params: FluidParams, stepper: str = "tamed") -> np.ndarray:
    """One time step of the chosen scheme from state x with increment dW."""
    if not 0 < dt < math.inf:
        raise ConfigError(f"dt: must be positive and finite, got {dt}")
    if stepper not in STEPPERS:
        raise ConfigError(f"stepper: unknown scheme {stepper!r}")
    b, _ = drift_and_dissipation(x[None], d, n, params)
    if not np.all(np.isfinite(b)):
        raise StepFailure(float(np.linalg.norm(x)))
    lam = basis(d, n).lam_coord
    return _advance(x[None], dt, dW[None], b, stepper, params.nu, lam)[0]


def _norm_p1_p(coords: np.ndarray, config: SimConfig) -> np.ndarray:
    """||X||_{p,1}^p of each row of coords (R, K), the Bessel weight of
    order 1 by `grid_lp_means`, p = 2 included.  The ensemble route
    (`_run_paths`) fills `norm_p1_p` with it."""
    return grid_lp_means(coords, config.d, config.n, config.p,
                         basis(config.d, config.n).bessel(1.0))


# Drift grid values that one block may synthesise, and the block cap.  They
# give blocks of 32 paths at d=2, n=2 (the cap) and of 4 at d=3, n=2.  2-core
# x86 host, numpy 2.4.6 with scipy-openblas 0.3.31, one BLAS thread, CPU time
# per path of one d=3, n=2 drift call (minimum of 7 alternating sets): 240 us
# alone and 219, 180, 168 and 283 us in blocks of 2, 4, 8 and 16.  Blocks of
# 16 take about 1000 minor page faults per call, against none below, as
# their temporaries leave the heap for fresh mmaps.  Blocks of 8 ran about
# as fast as 4 end to end but raised simulate-d3's peak RSS by 3.2%, against
# 0.9% for 4 (perfbench, against blocks of 2); at d=2, n=2 blocks of 64 and
# 128 were slower per path than 32.  The budget still counts the (d + d^2)
# M^d values per path of the gradient form that it was sized on; the d=3
# drift, in divergence form, synthesises d + d(d+1)/2 components, 9 of 12,
# and keeps its blocks of 4.
DRIFT_VALUES = 48_000
MAX_BLOCK = 32


def block_size(d: int, n: int) -> int:
    """Paths stepped together: the largest power of two, at most MAX_BLOCK,
    whose (d + d^2) M^d drift grid values per path, those of the gradient
    form, fit in DRIFT_VALUES."""
    per_path = (d + d * d) * pairing_grid_size(n) ** d
    return min(MAX_BLOCK, 1 << max(0, (DRIFT_VALUES // per_path).bit_length() - 1))


class _BlockStepper:
    """Integrates a block of paths together, one drift pass per step.

    Every reduction that feeds a path's record is row-wise by construction:
    `np.vecdot` over the block calls the same dot product once per row that
    `row @ row` and `np.linalg.norm(row)` call, and a mean over a row's
    contiguous last axis is that row's own pairwise sum.  So a record is
    bit-identical whatever block it was computed in; the pinned record
    digests in the tests guard this.  A path that diverges is frozen at
    that step and leaves the block.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        self.gamma = gamma_vector(config.gamma, config.n, config.d)
        self.lam = basis(config.d, config.n).lam_coord
        self.params = config.params
        self.dt = config.dt_eff
        self.n_steps = config.n_steps
        self.sqrt_gdt = np.sqrt(self.gamma * self.dt)
        self.noise = rng.Streams(config.seed, rng.PURPOSE_INCREMENT)

    def increment(self, path_index: int, k: int) -> np.ndarray:
        g = self.noise.at(path_index, k)
        return g.standard_normal(self.gamma.size) * self.sqrt_gdt

    def run(self, path_indices: Sequence[int],
            x0: np.ndarray) -> List[TrajectoryRecord]:
        """Records of the paths whose initial rows are x0 (P, K).

        Each row draws its increments from the stream of its path index;
        rows with the same index share every draw.  The live rows' state,
        buffer slot and running sums are one ledger of row-aligned arrays,
        which a divergence slices in one statement.  Recorded rows fill one
        buffer, (P, R, K) for the state and (P, R) per column, at step k a
        multiple of record_every and at the last step; a record's arrays
        are views of its slot.
        """
        c, dt, n_steps = self.config, self.dt, self.n_steps
        P, K = np.shape(x0)
        R = (n_steps - 1) // c.record_every + 2
        ledger = {"coords": np.array(x0, dtype=float), "slot": np.arange(P),
                  "int_diss": np.zeros(P), "int_gamma": np.zeros(P)}
        buf = {"coords": np.empty((P, R, K)), **{name: np.empty((P, R)) for name in (
            "times", "norm_l2_sq", "int_diss", "int_gamma")}}
        n_rec = np.full(P, R)                   # recorded rows of each slot
        diverged_step = {}
        for k in range(n_steps + 1):
            x, live = ledger["coords"], ledger["slot"]
            if k % c.record_every == 0 or k == n_steps:
                r = R - 1 if k == n_steps else k // c.record_every
                row = {"times": k * dt, "norm_l2_sq": np.vecdot(x, x), **ledger}
                for name, col in buf.items():
                    col[live, r] = row[name]
            if k == n_steps or not live.size:
                break
            b, diss = drift_and_dissipation(x, c.d, c.n, self.params)
            # a row whose drift is not finite diverges at step k; every
            # stepper then gives it a non-finite state, so it leaves the
            # block below with the rows whose norm fails at step k + 1
            fail_step = np.where(np.isfinite(b).all(axis=1), k + 1, k)
            ledger["int_diss"] += dt * diss
            ledger["int_gamma"] += dt * np.vecdot(x * x, self.gamma)
            labels = [path_indices[slot] for slot in live]
            draws = {q: self.increment(q, k) for q in set(labels)}
            dW = np.array([draws[q] for q in labels])
            x = ledger["coords"] = _advance(x, dt, dW, b, c.stepper, c.nu, self.lam)
            nrm = np.sqrt(np.vecdot(x, x))
            keep = np.isfinite(nrm) & (nrm <= c.norm_ceiling)
            if not keep.all():
                diverged_step.update(zip(live[~keep].tolist(), fail_step[~keep].tolist()))
                n_rec[live[~keep]] = k // c.record_every + 1
                ledger = {name: v[keep] for name, v in ledger.items()}
        return [TrajectoryRecord(
            path_index=q, norm_p1_p=None,
            **{name: col[s, :m] for name, col in buf.items()},
            diverged=s in diverged_step, diverged_step=diverged_step.get(s))
            for s, (q, m) in enumerate(zip(path_indices, n_rec.tolist()))]


def _run_blocks(config: SimConfig, labels: Sequence[int], x0: np.ndarray,
                rows: int, finish: Callable = lambda rec: rec) -> list:
    """finish(record) of each row of x0 (N, K), labelled by `labels`, in blocks
    of `rows` rows; a block's records are finished before the next runs."""
    stepper = _BlockStepper(config)
    out = []
    for start in range(0, len(labels), rows):
        out += map(finish, stepper.run(labels[start:start + rows],
                                       x0[start:start + rows]))
    return out


def _run_paths(config: SimConfig, indices: Sequence[int], norm_p1: bool = True,
               write: Optional[Callable] = None) -> list:
    """Records of the given paths from their own initial conditions, each
    with its ||X||_{p,1}^p if norm_p1 (else None).  With write, each record
    goes to write as soon as its block ends, and its PathOutcome is kept in
    its place: a process holds one block of records at a time."""
    def finish(rec):
        if norm_p1:
            rec.norm_p1_p = _norm_p1_p(rec.coords, config)
        if write is None:
            return rec
        return PathOutcome(rec.path_index, rec.diverged, rec.diverged_step, write(rec))

    x0 = np.array([initial_coords(config, i) for i in indices])
    return _run_blocks(config, indices, x0, block_size(config.d, config.n), finish)


def simulate(config: SimConfig, path_index: int) -> TrajectoryRecord:
    """Integrate one path from its configured initial condition to T."""
    return _run_paths(config, [path_index])[0]


def simulate_paired(config: SimConfig, path_indices: Sequence[int],
                    init_a, init_b) -> List[TrajectoryRecord]:
    """The 2N records [a_0, b_0, a_1, b_1, ...] of N trajectory pairs, the
    two members of a pair driven by one noise stream.

    Pair i starts from rows i of the (N, K) initial basis coordinates
    init_a and init_b; the increments keyed by path_indices[i] feed both
    runs step for step.  Pairs run as adjacent rows of full blocks,
    max(1, block_size // 2) pairs to a block; a record does not depend on
    which pairs share its block.  Pair records carry norm_p1_p=None.
    """
    labels = [i for i in path_indices for _ in range(2)]
    x0 = np.stack([np.asarray(init_a, dtype=float),
                   np.asarray(init_b, dtype=float)], axis=1)
    pairs = max(1, block_size(config.d, config.n) // 2)
    return _run_blocks(config, labels, x0.reshape(len(labels), -1), 2 * pairs)


def _worker(payload):
    return _run_paths(*payload)


def max_workers() -> int:
    """Worker cap from SPLF_THREADS (default 1 = sequential), at most the
    number of cores; 1 where the platform has no os.fork."""
    raw = os.environ.get("SPLF_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ConfigError(
            f"SPLF_THREADS: must be a positive integer, got {raw!r}")
    if not hasattr(os, "fork"):
        return 1
    return min(int(raw), os.cpu_count() or 1)


def simulate_ensemble(config: SimConfig, norm_p1: bool = True,
                      write: Optional[Callable[[TrajectoryRecord], None]] = None):
    """Every path of the ensemble in path-index order, whatever the
    scheduling: TrajectoryRecords without write, PathOutcomes with it.

    With SPLF_THREADS > 1 the paths are dealt round-robin to worker
    processes, one chunk each, forked by `forkjoin.fork_join`, which is
    imported only then.  The workers also compute the norm_p1_p column
    (None with norm_p1=False).  A worker inherits config and write through
    the fork, so neither need be picklable, and sends back only its
    records, or with write only their outcomes.  write gets each record
    with its norm column in the process that computed it, as soon as the
    record's block ends; an error it raises there ends the call.  Its
    return value is the record's PathOutcome.written, so a digest of what
    it wrote comes back without the file being read.
    """
    indices = list(range(config.n_paths))
    workers = max_workers()
    if workers == 1 or len(indices) < 2 * workers:
        return _run_paths(config, indices, norm_p1, write)
    from .forkjoin import fork_join

    results = fork_join(_worker, [(config, indices[i::workers], norm_p1, write)
                                  for i in range(workers)])
    by_index = {r.path_index: r for recs in results for r in recs}
    return [by_index[i] for i in indices]
