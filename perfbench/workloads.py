"""The three verdict workloads: their generated inputs and fixed work.

Each workload is a list of `splf` commands run on an INI file that the
benchmark writes from its seed.  The seed only sets the program's RNG seed
(`[ensemble] seed`), so every round of every run does the same number of
step-paths and records the same number of rows; the README gives the make-up
of each input.  A command may instead name `{fixed_ini}`: the same input
with a fixed program seed that does not depend on the benchmark seed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: Dict[str, str]
    commands: List[List[str]]          # argv after `splf`, "{ini}"/"{out}" filled in
    threads: int                       # SPLF_THREADS for the workload process
    snapshots: bool = False
    fixed_seed: Optional[int] = None   # program seed of "{fixed_ini}"

    def ini_text(self, program_seed: int) -> str:
        sections = {
            "model": ("d", "p", "nu", "n"),
            "time": ("dt", "T"),
            "ensemble": ("n_paths", "seed", "stepper", "record_every"),
            "init": ("kind", "z", "j", "amplitude", "sigma", "decay"),
            "gamma": ("gamma_kind", "c", "s"),
        }
        values = dict(self.model, seed=str(program_seed))
        lines = []
        for section, keys in sections.items():
            lines.append(f"[{section}]")
            for key in keys:
                if key in values:
                    lines.append(f"{key.replace('gamma_', '')} = {values[key]}")
            lines.append("")
        lines += ["[outputs]", f"snapshots = {str(self.snapshots).lower()}", ""]
        return "\n".join(lines)

    def argv(self, ini, fixed_ini, out_dir) -> List[List[str]]:
        """The round's commands with the INI paths and output directory filled in."""
        fill = {"{ini}": ini, "{fixed_ini}": fixed_ini, "{out}": out_dir}
        return [[str(fill.get(a, a)) for a in cmd] for cmd in self.commands]

    # numeric view of the parameters, for the independent checks
    @property
    def d(self) -> int:
        return int(self.model["d"])

    @property
    def n(self) -> int:
        return int(self.model["n"])

    @property
    def p(self) -> float:
        return float(self.model["p"])

    @property
    def T(self) -> float:
        return float(self.model["T"])

    @property
    def dt(self) -> float:
        return float(self.model["dt"])

    @property
    def n_paths(self) -> int:
        return int(self.model["n_paths"])

    def steps(self, dt: float) -> int:
        """Steps on [0, T] at step dt (T snapped to a whole number of steps)."""
        return int(math.ceil(self.T / dt - 1e-9))

    def step_paths(self) -> int:
        """Step-paths integrated by one round, over every trajectory it runs."""
        total = 0
        for argv in self.commands:
            if argv[0] == "energy-check":   # main run at dt and control at dt/2
                total += self.n_paths * (self.steps(self.dt) + self.steps(self.dt / 2))
            elif argv[0] == "uniqueness-check":
                # n_paths pairs; the Gronwall branch adds its calibration pairs
                pairs = self.n_paths
                if float(flag(argv, "--eps")) != 0.0:
                    pairs += int(flag(argv, "--calibration"))
                total += 2 * pairs * self.steps(self.dt)
            elif argv[0] == "simulate":
                total += self.n_paths * self.steps(self.dt)
        return total


def flag(argv: List[str], name: str) -> str:
    """The value that follows option `name` in an argv list."""
    return argv[argv.index(name) + 1]


WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="energy-d2",
            why="drift-bound: energy-check at d=2, 200 paths at dt and dt/2",
            model={"d": "2", "p": "3.0", "nu": "1.0", "n": "2",
                   "dt": "1e-3", "T": "0.02",
                   "n_paths": "200", "stepper": "tamed", "record_every": "100",
                   "kind": "single_mode", "z": "1 0", "j": "1", "amplitude": "0.5",
                   "gamma_kind": "power", "c": "0.1", "s": "3.0"},
            commands=[["energy-check", "--config", "{ini}"]],
            threads=1),
        Workload(
            name="uniqueness-d2",
            why="paired runs recorded every step at p=2.5: drift, L_p quadrature "
                "and per-row Gronwall diagnostics share the time",
            model={"d": "2", "p": "2.5", "nu": "0.01", "n": "2",
                   "dt": "1e-3", "T": "0.05",
                   "n_paths": "20", "stepper": "euler_maruyama", "record_every": "1",
                   "kind": "gaussian", "sigma": "5.0", "decay": "1.0",
                   "gamma_kind": "power", "c": "1e-6", "s": "3.0"},
            commands=[["uniqueness-check", "--config", "{ini}", "--eps", "0"],
                      ["uniqueness-check", "--config", "{fixed_ini}", "--eps", "1e-3",
                       "--calibration", "64", "--margin", "0.5"]],
            threads=1,
            # The Gronwall verdict depends on the program seed (see the
            # README).  It runs on this one seed, on which it fails with 38
            # violations, so the fault shows, and counts the same, in every run.
            fixed_seed=78667387195761),
        Workload(
            name="simulate-d3",
            why="output-bound: every step of 32 d=3 paths written as CSV rows "
                "and snapshots by 2 worker processes",
            model={"d": "3", "p": "1.9", "nu": "1.0", "n": "2",
                   "dt": "1e-3", "T": "0.05",
                   "n_paths": "32", "stepper": "tamed", "record_every": "1",
                   "kind": "gaussian", "sigma": "1.0", "decay": "1.0",
                   "gamma_kind": "power", "c": "0.1", "s": "3.0"},
            commands=[["simulate", "--config", "{ini}", "--out", "{out}"]],
            threads=2, snapshots=True),
    ]
}

# The reproducibility self-check: simulate-d3 cut to 6 paths of 5 steps, run
# at 1 and at 2 workers (6 >= 2 * 2 paths, so the 2-worker run fans out).
REPRO_PATHS = 6
REPRO_STEPS = 5


def repro_workload() -> Workload:
    base = WORKLOADS["simulate-d3"]
    model = dict(base.model, n_paths=str(REPRO_PATHS),
                 T=repr(REPRO_STEPS * base.dt))
    return Workload(name="simulate-d3-repro", why=base.why, model=model,
                    commands=base.commands, threads=base.threads,
                    snapshots=base.snapshots)


def program_seed(workload: str, seed: int) -> int:
    """The `[ensemble] seed` written for a workload at a benchmark seed."""
    digest = hashlib.sha256(f"splf-perfbench/{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:6], "little")
