"""The workload process: one fresh interpreter per set-up probe or round.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON names the mode ("setup" or "round"), the INI file, the `splf`
argv lists of the round and, for a traced round, the trace directory.  The
process sets up (import, config parse, noise spectrum, grid maps, one step
of one path) and stamps the monotonic clock; a round then calls
`splf.cli.main` for each argv list.  The last line of standard output is a
JSON object with the timings, the captured command output, the exit codes,
the diverged paths of each command, the peak resident memory and the
environment.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import os
import platform
import resource
import signal
import sys
import time
from pathlib import Path

import spans


def _setup(ini: str):
    import splf.cli  # noqa: F401  (imports every layer)
    from splf import integrator
    from splf.config import parse_config

    config, _ = parse_config(ini)
    integrator.simulate(dataclasses.replace(config, T=config.dt, n_paths=1), 0)
    return config


class DivergedCounter:
    """Counts the diverged records that the commands' ensembles and pairs
    return, by wrapping the names splf's commands call them through.

    The exact branch of `uniqueness-check` compares two identically
    diverged records as equal, and `energy_balance` drops diverged paths,
    so the verdict lines alone cannot show a divergence.
    """

    SITES = [("splf.cli", "simulate_ensemble"),
             ("splf.diagnostics", "simulate_ensemble"),
             ("splf.diagnostics", "simulate_paired")]

    def __init__(self):
        self.count = 0
        for module, name in self.SITES:
            owner = importlib.import_module(module)
            setattr(owner, name, self._wrap(getattr(owner, name)))

    def _wrap(self, fn):
        def counted(*args, **kwargs):
            records = fn(*args, **kwargs)
            self.count += sum(bool(rec.diverged) for rec in records)
            return records
        return counted


class SpeedProbe:
    """Samples the speed of the host while an untraced round runs.

    Other jobs share the host's cores, and its speed swings by up to 2x for
    seconds to minutes at a time; process CPU time follows wall time, so it
    swings too.  Every PERIOD_S a SIGALRM handler times KERNEL_ROUNDS of a
    fixed kernel of the kind of work the drift does (small 2-D FFTs and
    Python float sums).  The benchmark rescales the round's wall time by
    the kernel's mean duration.  The kernel is the benchmark's own code, so
    a change to splf cannot change it.
    """

    PERIOD_S = 0.2
    KERNEL_ROUNDS = 20

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._fft = np.fft
        self._a = rng.standard_normal((8, 8))
        self._k = rng.standard_normal((8, 5))
        self.samples = []
        for _ in range(10):            # untimed: first calls set up the FFT
            self._kernel()

    def _kernel(self) -> float:
        acc = 0.0
        for _ in range(self.KERNEL_ROUNDS):
            b = self._fft.irfft2(self._fft.rfft2(self._a) * self._k, s=self._a.shape)
            acc += sum(float(x) for x in b[0])
        return acc

    def _probe(self, signum, frame):
        # CPU time, not wall time: on simulate-d3 the probe shares the cores
        # with the ensemble workers, and time spent waiting for a core says
        # nothing about the host's speed.
        t0 = time.thread_time()
        self._kernel()
        self.samples.append(time.thread_time() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _environment() -> dict:
    import numpy
    from splf import integrator

    return {
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        # not platform.platform(): it starts a `uname -p` process, which
        # would count as a child in the worker memory reading
        "platform": "-".join([platform.system(), platform.release(),
                              platform.machine(), *platform.libc_ver()]),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "SPLF_THREADS": os.environ.get("SPLF_THREADS"),
        "max_workers": integrator.max_workers(),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _grid_points(config) -> dict:
    from splf import spectral

    d, n = config.d, config.n
    return {
        # one inverse pass over d + d^2 components and one forward pass back
        "fft_points_per_call": 2 * (d + d ** 2) * spectral.pairing_grid_size(n) ** d,
        "norm_grid_points": spectral.norm_grid_size(n) ** d,
    }


def _run_commands(main, commands, tracer, diverged):
    """Call `main` on each argv list; return the captured standard outputs,
    the exit codes and the diverged paths of each command."""
    outputs, codes, diverged_paths = [], [], []
    for argv in commands:
        call = main if tracer is None else tracer.wrap(spans.ROOT, main)
        diverged.count = 0
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.append(call(argv))
        outputs.append(buf.getvalue())
        diverged_paths.append(diverged.count)
    return outputs, codes, diverged_paths


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    config = _setup(spec["ini"])
    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "env": _environment()}
    if spec["mode"] == "round":
        from splf import cli

        diverged = DivergedCounter()
        tracer = None
        if spec.get("trace_dir"):
            tracer = spans.Tracer()
            result["missing_hooks"] = spans.install(tracer, Path(spec["trace_dir"]))
        # The probe runs in untraced rounds only: its handler would add its
        # time to whichever span it interrupts.
        probe = SpeedProbe() if tracer is None else None
        with probe or contextlib.nullcontext():
            t0 = time.perf_counter()
            outputs, codes, diverged_paths = _run_commands(
                cli.main, spec["commands"], tracer, diverged)
            run_s = time.perf_counter() - t0
        result["probe_s"] = probe.samples if probe is not None else []
        result.update(run_s=run_s, outputs=outputs, codes=codes,
                      diverged_paths=diverged_paths)
        if tracer is not None:
            result["trace"] = {
                "parent": tracer.snapshot(),
                "workers": spans.collect_workers(Path(spec["trace_dir"])),
                "grid": _grid_points(config),
            }
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(rss_self_kb=self_kb, rss_children_kb=child_kb)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
