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
from typing import Any, Callable, List, Optional, Sequence, Union

import numpy as np

from . import rng
from .constitutive import (FluidParams, drift_and_dissipation, drift_workspace,
                           drift_workspace_bytes)
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
    ||X||_{p,1}^p (`_norm_p1_p` of `coords`) is None until the code that
    reads it fills it: `simulate`, the `simulate` command's writer and
    `diagnostics.apriori_check`.
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
    order 1 by `grid_lp_means`, p = 2 included: the `norm_p1_p` column."""
    return grid_lp_means(coords, config.d, config.n, config.p,
                         basis(config.d, config.n).bessel(1.0))


def _with_norm_p1(config: SimConfig, record: TrajectoryRecord) -> TrajectoryRecord:
    """The record, its norm_p1_p column filled in place by `_norm_p1_p`."""
    record.norm_p1_p = _norm_p1_p(record.coords, config)
    return record


# The block rule counts each drift form's own memory per path.  At d=2 the
# gradient form synthesises (d + d^2) M^d grid values per path, and blocks
# fit DRIFT_VALUES of them: 32 paths at d=2, n=2 (the cap); blocks of 64
# and 128 were slower per path.  At d >= 3 the divergence form runs in a
# workspace, drift_workspace_bytes per path (155 KiB at d=3, n=2), and
# blocks fit DRIFT_BYTES of it: 16 paths at d=3, n=2.  2-core x86 host,
# numpy 2.4.6 with scipy-openblas 0.3.31, one BLAS thread, CPU time per path
# of one d=3, n=2 drift call in its workspace (minimum of 15 interleaved
# sets): 224 us alone and 149, 115, 94, 91 and 94 us in blocks of 2, 4, 8,
# 16 and 32, with no page fault per call; a two-worker simulate-d3 run took
# 0.879, 0.828 and 0.797 s of child CPU in blocks of 4, 8 and 16 (medians
# of 15), and blocks of 16 raised its peak RSS by 2.7% over the blocks of 4
# that preceded the workspace, whose temporaries had taken about 1000 minor
# faults per call in blocks of 16.
DRIFT_VALUES = 48_000
DRIFT_BYTES = 4 * 2 ** 20
MAX_BLOCK = 32


def block_size(d: int, n: int) -> int:
    """Paths stepped together: the largest power of two, at most MAX_BLOCK,
    whose drift memory fits the budget of its form: (d + d^2) M^d grid
    values per path in DRIFT_VALUES at d = 2, and drift_workspace_bytes
    per path in DRIFT_BYTES at d >= 3."""
    if d == 2:
        per_path, budget = (d + d * d) * pairing_grid_size(n) ** d, DRIFT_VALUES
    else:
        per_path, budget = drift_workspace_bytes(d, n), DRIFT_BYTES
    return min(MAX_BLOCK, 1 << max(0, (budget // per_path).bit_length() - 1))


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
        # the drift's buffers, dropped when the block ends, before its
        # records are finished
        work = drift_workspace(c.d, c.n, P)
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
            b, diss = drift_and_dissipation(x, c.d, c.n, self.params, work)
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
                rows: int, finish: Optional[Callable] = None) -> list:
    """finish(record), or the record, of each row of x0 (N, K), labelled by
    `labels`, in blocks of `rows`; a block is finished before the next runs,
    and no reference to its records outlives that."""
    stepper, finish = _BlockStepper(config), finish or (lambda rec: rec)
    out = []
    for start in range(0, len(labels), rows):
        out += map(finish, stepper.run(labels[start:start + rows],
                                       x0[start:start + rows]))
    return out


def _run_paths(config: SimConfig, indices: Sequence[int],
               finish: Optional[Callable] = None) -> list:
    """finish(record), or the record without finish, of each of the given
    paths from its own initial condition.  Each record is finished as soon
    as its block ends, so with a finish that keeps little of it a process
    holds one block of records at a time."""
    x0 = np.array([initial_coords(config, i) for i in indices])
    return _run_blocks(config, indices, x0, block_size(config.d, config.n), finish)


def simulate(config: SimConfig, path_index: int) -> TrajectoryRecord:
    """Integrate one path from its configured initial condition to T; the
    record carries its norm_p1_p column."""
    return _with_norm_p1(config, _run_paths(config, [path_index])[0])


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


def simulate_ensemble(config: SimConfig,
                      finish: Optional[Callable[[TrajectoryRecord], Any]] = None) -> list:
    """finish(record) of every path of the ensemble, or the records
    themselves without finish, in path-index order whatever the scheduling.
    The records' norm_p1_p is None: a finish that reads the column fills it.

    With SPLF_THREADS > 1 the paths are dealt round-robin to worker
    processes, one chunk each, forked by `forkjoin.fork_join`, which is
    imported only then.  A worker inherits config and finish through the
    fork, so neither need be picklable, and sends back only what finish
    returned.  finish runs in the process that integrated the path, as soon
    as the path's block ends; an error it raises there ends the call.  So
    a finish that writes a record's files can return their digests, and
    they come back without the files being read.
    """
    indices = list(range(config.n_paths))
    workers = max_workers()
    if workers == 1 or len(indices) < 2 * workers:
        return _run_paths(config, indices, finish)
    from .forkjoin import fork_join

    results = fork_join(_worker, [(config, indices[i::workers], finish)
                                  for i in range(workers)])
    return [results[i % workers][i // workers] for i in indices]
