"""splf benchmark: three verdict workloads, timed end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

NAME is energy-d2, uniqueness-d2 or simulate-d3.  The benchmark writes the
workload's INI from the seed, then runs rounds of the workload's `splf`
commands, each round in a fresh workload process, until the next round would
end after S seconds (at least one round; two with --trace 1).  Every round's
output is checked; a failed check or a diverged path makes it a failed
operation.  `correct` is false when an operation failed in any other way
than by the known program fault of checks.ProgramFault.  With --trace 0
the last line of output is a JSON object with the end-to-end metrics; with
--trace 1 the rounds alternate between untraced and traced and the JSON
holds the per-layer metrics.  `run_s` is the median untraced round's wall
time rescaled to the speed of a reference host, as measured by the speed
probe in child.py while the round ran.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import checks
import spans
from workloads import WORKLOADS, Workload, program_seed, repro_workload

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 6         # set-up-only processes per untraced run
RUN_LIMIT_S = 170.0      # a run must end within 180 s; stop starting work here
# Speed of the reference host: one child.SpeedProbe kernel takes 1 ms on it.
# Untraced wall times are rescaled to this speed (see the README).
REFERENCE_PROBE_S = 1.0e-3
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildFailed(Exception):
    pass


class Run:
    """One benchmark run of one workload: its work directory, deadline and
    operation counts."""

    def __init__(self, root: Path, workload: Workload, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.work = root / ".bench_work" / f"{workload.name}-s{seed}-p{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0      # failed operations that are not a ProgramFault
        self.env = None
        self.notes = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def write_ini(self, w: Workload, name: str, seed: Optional[int] = None) -> Path:
        """Write w's INI with program seed `seed`, by default the one derived
        from the benchmark seed."""
        if seed is None:
            seed = program_seed(self.workload.name, self.seed)
        path = self.work / name
        path.write_text(w.ini_text(seed))
        return path

    def spawn(self, spec: dict, threads: int) -> tuple:
        """Run the workload process; return (seconds from spawn to set-up
        done, its result object)."""
        spec_path = self.work / f"spec-{time.monotonic_ns()}.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ, SPLF_THREADS=str(threads),
                   PYTHONPATH=str(self.root / "src"))
        env.update({k: "1" for k in PINNED_THREADS})
        timeout = self.remaining()
        if timeout <= 0:
            raise ChildFailed("no time left in this run")
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                cwd=self.root, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)   # the process and its workers
            proc.communicate()
            raise ChildFailed(f"workload process exceeded {timeout:.0f} s")
        finally:
            spec_path.unlink(missing_ok=True)
        if proc.returncode != 0:
            raise ChildFailed(f"workload process exited {proc.returncode}: {err.strip()[-400:]}")
        result = json.loads(out.strip().splitlines()[-1])
        self.env = result["env"]
        return result["t_ready"] - t_spawn, result

    def operation(self, failures: list):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.unexpected += any(not isinstance(m, checks.ProgramFault) for m in failures)
            for msg in failures:
                print(f"FAILED {self.workload.name}: {msg}", file=sys.stderr)

    def env_failures(self, threads: int) -> list:
        mw = self.env["max_workers"]
        if self.env["SPLF_THREADS"] != str(threads) or mw != threads:
            return [f"SPLF_THREADS={threads} did not take effect "
                    f"(max_workers() = {mw})"]
        return []


def _round(run: Run, ini: Path, fixed_ini: Optional[Path], traced: bool,
           index: int) -> dict:
    """One round: every command of the workload in one workload process."""
    w = run.workload
    out_dir = run.work / f"round-{index}"
    trace_dir = run.work / f"trace-{index}"
    if traced:
        trace_dir.mkdir()
    commands = w.argv(ini, fixed_ini, out_dir)
    spec = {"mode": "round", "ini": str(ini), "commands": commands,
            "trace_dir": str(trace_dir) if traced else None}
    try:
        setup_s, res = run.spawn(spec, w.threads)
    except ChildFailed as exc:
        for _ in commands:
            run.operation([str(exc)])
        raise
    env_failures = run.env_failures(w.threads)
    for argv, text, code, diverged in zip(commands, res["outputs"], res["codes"],
                                          res["diverged_paths"]):
        failures = env_failures + checks.check_command(w, argv, text, code, out_dir)
        if diverged:
            failures.append(f"{argv[0]}: {diverged} diverged path(s)")
        run.operation(failures)
    shutil.rmtree(out_dir, ignore_errors=True)
    shutil.rmtree(trace_dir, ignore_errors=True)
    probe = res["probe_s"]
    res["wall_s"] = res["run_s"] - sum(probe)
    if not traced:
        if not probe:
            raise RuntimeError("the speed probe took no sample in an untraced round")
        res["probe_mean_s"] = statistics.fmean(probe)
        res["adjusted_s"] = res["wall_s"] * REFERENCE_PROBE_S / res["probe_mean_s"]
    workers = w.threads if res["rss_children_kb"] > 0 else 0
    res["setup_s"] = setup_s
    res["peak_rss_mb"] = (res["rss_self_kb"] + workers * res["rss_children_kb"]) / 1024.0
    notes = [f"trace: hook {hook} not found; that layer reads 0"
             for hook in res.get("missing_hooks", [])]
    if traced and workers and not res["trace"]["workers"]:
        notes.append("trace: worker processes sent no spans (not forked?); layers "
                     "inside them read 0")
    run.notes += [n for n in notes if n not in run.notes]
    return res


def _repro_check(run: Run):
    """Shortened simulate-d3 at 1 and 2 workers: CSV and snapshot digests
    must be identical, and only the 2-worker run may start workers."""
    w = repro_workload()
    ini = run.write_ini(w, "repro.ini")
    digests, failures = {}, []
    for threads in (1, 2):
        out_dir = run.work / f"repro-{threads}"
        try:
            _, res = run.spawn({"mode": "round", "ini": str(ini),
                                "commands": w.argv(ini, None, out_dir)}, threads)
        except ChildFailed as exc:
            run.operation([f"reproducibility check: {exc}"])
            return
        failures += run.env_failures(threads)
        if any(res["diverged_paths"]):
            failures.append(f"reproducibility check: diverged paths at {threads} worker(s)")
        failures += checks.check_simulate(w, res["outputs"][0], res["codes"][0], out_dir)
        if (res["rss_children_kb"] > 0) != (threads > 1):
            failures.append(f"reproducibility check: worker processes at {threads} "
                            f"worker(s): {res['rss_children_kb'] > 0}")
        digests[threads] = checks.output_digests(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
    if digests.get(1) != digests.get(2) or not digests.get(1):
        failures.append("reproducibility check: CSV or snapshot digests differ "
                        "between 1 and 2 workers")
    run.operation(failures)


CALLS, TOTAL, SELF = 0, 1, 2     # fields of a layer's totals in spans.Tracer


def _sources(r: dict, parent_only: bool = False) -> list:
    t = r["trace"]
    return [t["parent"]] if parent_only else [t["parent"]] + t["workers"]


def _layer(r: dict, name: str, field: int, parent_only: bool = False) -> float:
    return sum(s["layers"].get(name, (0, 0.0, 0.0))[field] for s in _sources(r, parent_only))


def _counter(r: dict, name: str) -> float:
    return sum(s["counters"].get(name, 0) for s in _sources(r))


def layer_metrics(untraced: list, traced: list) -> dict:
    """Per-layer metrics, as means over the traced rounds of the run.

    Layers that run inside ensemble worker processes (drift, rng, norm,
    loop on simulate-d3) are summed over the workers.
    """
    def mean(fn, rounds=traced):
        return sum(fn(r) for r in rounds) / len(rounds)

    def calls(name):
        return mean(lambda r: _layer(r, name, CALLS))

    def self_s(name, parent_only=False):
        return mean(lambda r: _layer(r, name, SELF, parent_only))

    def us_per_call(name):
        n = calls(name)
        return self_s(name) / n * 1e6 if n else 0.0

    def counter(name):
        return mean(lambda r: _counter(r, name))

    grid = traced[0]["trace"]["grid"]
    run_s = mean(lambda r: r["run_s"])
    layered = mean(lambda r: sum(v[SELF] for k, v in r["trace"]["parent"]["layers"].items()
                                 if k != spans.ROOT))
    unaccounted = run_s - layered
    # The root span's self time is the same remainder, seen from inside.
    root_self = self_s(spans.ROOT, parent_only=True)
    if abs(unaccounted - root_self) > 1e-3 * max(1.0, run_s):
        raise RuntimeError(f"trace accounting: remainder {unaccounted!r} s, "
                           f"root self time {root_self!r} s")
    return {
        "constitutive.drift.calls": (calls("constitutive.drift"), "count"),
        "constitutive.drift.self_s": (self_s("constitutive.drift"), "s"),
        "constitutive.drift.us_per_call": (us_per_call("constitutive.drift"), "us"),
        "constitutive.drift.fft_points_per_call": (grid.get("fft_points_per_call", 0), "count"),
        "rng.stream.calls": (calls("rng.stream"), "count"),
        "rng.stream.self_s": (self_s("rng.stream"), "s"),
        "rng.stream.us_per_call": (us_per_call("rng.stream"), "us"),
        "integrator.norm_p1.calls": (calls("integrator.norm_p1"), "count"),
        "integrator.norm_p1.self_s": (self_s("integrator.norm_p1"), "s"),
        "integrator.norm_p1.us_per_row": (us_per_call("integrator.norm_p1"), "us"),
        "integrator.norm_p1.grid_points": (grid.get("norm_grid_points", 0), "count"),
        "integrator.loop.self_s": (self_s("integrator.loop"), "s"),
        "integrator.step_paths": (counter("integrator.step_paths"), "count"),
        "integrator.rows_recorded": (counter("integrator.rows_recorded"), "count"),
        "integrator.diverged_paths": (counter("integrator.diverged_paths"), "count"),
        "spectral.lp_norm.calls": (calls("spectral.lp_norm"), "count"),
        "spectral.lp_norm.self_s": (self_s("spectral.lp_norm"), "s"),
        "spectral.coords_to_field.calls": (calls("spectral.coords_to_field"), "count"),
        "spectral.coords_to_field.self_s": (self_s("spectral.coords_to_field"), "s"),
        "diagnostics.self_s": (self_s("diagnostics"), "s"),
        "cli.csv.self_s": (self_s("cli.csv"), "s"),
        "cli.csv.bytes": (counter("cli.csv.bytes"), "bytes"),
        "cli.sha256.self_s": (self_s("cli.sha256"), "s"),
        "cli.manifest.self_s": (self_s("cli.manifest"), "s"),
        "snapshot.write.self_s": (self_s("snapshot.write"), "s"),
        "snapshot.write.bytes": (counter("snapshot.write.bytes"), "bytes"),
        "integrator.ensemble.wall_s": (
            mean(lambda r: _layer(r, "integrator.ensemble", TOTAL, parent_only=True)), "s"),
        "integrator.ensemble.self_s": (self_s("integrator.ensemble", parent_only=True), "s"),
        "integrator.ensemble.workers": (
            mean(lambda r: len({s["pid"] for s in r["trace"]["workers"]})), "count"),
        "integrator.ensemble.result_bytes": (counter("integrator.ensemble.result_bytes"), "bytes"),
        "trace.run_s": (run_s, "s"),
        "trace.unaccounted_s": (unaccounted, "s"),
        "trace.spans": (mean(lambda r: sum(v[CALLS] for s in _sources(r)
                                           for v in s["layers"].values())), "count"),
        "tracing.overhead_s": (run_s - mean(lambda r: r["wall_s"], untraced), "s"),
        "untraced.wall_s": (mean(lambda r: r["wall_s"], untraced), "s"),
        "host.probe_ms": (mean(lambda r: r["probe_mean_s"], untraced) * 1e3, "ms"),
    }


def run_workload(root: Path, w: Workload, seed: int, seconds: int, trace: bool) -> dict:
    run = Run(root, w, seed)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        ini = run.write_ini(w, "input.ini")
        fixed_ini = None
        if w.fixed_seed is not None:
            fixed_ini = run.write_ini(w, "fixed.ini", w.fixed_seed)
        setup_samples = []
        # untimed warm-up: compiles bytecode and fills the file cache
        run.spawn({"mode": "setup", "ini": str(ini)}, w.threads)
        if not trace:
            for _ in range(SETUP_PROBES):
                setup_samples.append(run.spawn({"mode": "setup", "ini": str(ini)},
                                               w.threads)[0])
        if w.name == "simulate-d3":
            _repro_check(run)
        untraced, traced = [], []
        t0 = time.monotonic()
        walls = []
        while True:
            is_traced = trace and len(untraced) > len(traced)
            t_round = time.monotonic()
            try:
                res = _round(run, ini, fixed_ini, is_traced, len(walls))
            except ChildFailed:
                break
            walls.append(time.monotonic() - t_round)
            (traced if is_traced else untraced).append(res)
            setup_samples.append(res["setup_s"])
            enough = untraced and (traced or not trace)
            elapsed = time.monotonic() - t0
            if enough and elapsed + walls[-1] > seconds:
                break
            if walls[-1] * 1.5 > run.remaining():
                break
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass
    if not untraced or (trace and not traced):
        raise ChildFailed("no round completed")
    if trace:
        metrics = layer_metrics(untraced, traced)
    else:
        run_s = statistics.median(r["adjusted_s"] for r in untraced)
        metrics = {
            "run_s": (run_s, "s"),
            "step_paths_per_s": (w.step_paths() / run_s, "1/s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
        }
    for note in run.notes:
        print(note)
    print(f"untraced rounds: wall {[round(r['wall_s'], 3) for r in untraced]} s, "
          f"probe {[round(r['probe_mean_s'] * 1e3, 3) for r in untraced]} ms")
    print("env: " + json.dumps(dict(run.env, workload=w.name, seed=seed,
                                    program_seed=program_seed(w.name, seed),
                                    rounds=len(untraced) + len(traced),
                                    traced_rounds=len(traced))))
    return {"correct": run.unexpected == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "splf" / "__init__.py").is_file():
        print(f"error: no splf source under {root / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            result = run_workload(root, WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace))
        except (ChildFailed, RuntimeError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(f"{name}: attempted={result['attempted']} failed={result['failed']} "
              f"correct={str(result['correct']).lower()}")
        for key, metric in result["metrics"].items():
            print(f"  {key} = {metric['value']!r} {metric['unit']}")
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
