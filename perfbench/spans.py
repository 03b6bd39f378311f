"""Per-layer spans for a traced round, recorded from outside the package.

`install` replaces the names that splf's modules call into each layer with
wrappers, at their call sites (for example `splf.integrator.drift_and_dissipation`
as looked up by the path loop).  Each wrapper opens a span; when the span
closes its duration is added to the layer's total, and its self time (the
duration minus the time covered by child spans) to the layer's self time.
The totals stay in memory and are written out when the round ends.

Worker processes of an ensemble are forked from the traced process, so they
inherit the wrappers.  The wrapper around `splf.integrator._worker` starts
each worker task with empty totals and writes the worker's totals to a file
in the round's trace directory; the parent merges those files.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import time
from pathlib import Path

# (layer, module, attribute) for every call site that is wrapped.
HOOKS = [
    ("constitutive.drift", "splf.integrator", "drift_and_dissipation"),
    ("rng.stream", "splf.integrator", "_PathLoop.increment"),
    ("rng.stream", "splf.integrator", "initial_coords"),
    ("rng.stream", "splf.diagnostics", "initial_coords"),
    ("integrator.norm_p1", "splf.integrator", "_NormP1.__call__"),
    ("integrator.loop", "splf.integrator", "_PathLoop.run"),
    ("integrator.ensemble", "splf.cli", "simulate_ensemble"),
    ("integrator.ensemble", "splf.diagnostics", "simulate_ensemble"),
    ("spectral.lp_norm", "splf.diagnostics", "gradient_lp_norm"),
    ("spectral.lp_norm", "splf.diagnostics", "laplacian_lp_norm"),
    ("spectral.coords_to_field", "splf.diagnostics", "coords_to_field"),
    ("spectral.coords_to_field", "splf.cli", "coords_to_field"),
    ("diagnostics", "splf.cli", "energy_experiment"),
    ("diagnostics", "splf.cli", "gronwall_experiment"),
    ("diagnostics", "splf.cli", "identical_noise_separation"),
    ("diagnostics", "splf.diagnostics", "calibrate_gronwall"),
    ("diagnostics", "splf.diagnostics", "gronwall_check"),
    ("cli.csv", "splf.cli", "_write_record_csv"),
    ("cli.sha256", "splf.cli", "_sha256"),
    ("cli.manifest", "splf.cli", "_write_manifest"),
    ("snapshot.write", "splf.cli", "write_snapshot"),
]

ROOT = "root"   # one command of a round; its self time is the unaccounted remainder


class Tracer:
    """Span stack and per-layer totals [calls, total_s, self_s]."""

    def __init__(self):
        self.reset()

    def reset(self):
        self._open = []      # time covered by the children of each open span
        self.layers = {}
        self.counters = {}

    def count(self, name: str, n: int = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, layer: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans = self._open
            open_spans.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dur
                rec = self.layers.setdefault(layer, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - children
            if after is not None:
                after(self, args, result)
            return result
        return traced

    def snapshot(self) -> dict:
        return {"layers": self.layers, "counters": self.counters}


def _after_increment(tracer, args, result):
    tracer.count("integrator.step_paths")


def _after_loop(tracer, args, record):
    tracer.count("integrator.rows_recorded", len(record.times))
    tracer.count("integrator.diverged_paths", int(bool(record.diverged)))


def _after_file_write(counter):
    def after(tracer, args, result):
        tracer.count(counter, Path(args[1]).stat().st_size)
    return after


AFTER = {
    ("splf.integrator", "_PathLoop.increment"): _after_increment,
    ("splf.integrator", "_PathLoop.run"): _after_loop,
    ("splf.cli", "_write_record_csv"): _after_file_write("cli.csv.bytes"),
    ("splf.cli", "write_snapshot"): _after_file_write("snapshot.write.bytes"),
}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *parents, name = attr.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: Tracer, trace_dir: Path) -> list:
    """Wrap every hook that exists; return the ones that were not found."""
    missing = []
    for layer, module, attr in HOOKS:
        try:
            owner, name = _resolve(module, attr)
            fn = getattr(owner, name)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{attr} ({layer})")
            continue
        setattr(owner, name, tracer.wrap(layer, fn, AFTER.get((module, attr))))
    try:
        owner, name = _resolve("splf.integrator", "_worker")
        setattr(owner, name, _wrap_worker(tracer, getattr(owner, name), trace_dir))
    except (ImportError, AttributeError):
        missing.append("splf.integrator._worker (worker spans)")
    return missing


def _wrap_worker(tracer: Tracer, fn, trace_dir: Path):
    """Worker task: fresh totals, the task, then the totals written to a file.

    result_bytes is the size of the pickled task result, which is what the
    worker sends back to the parent.
    """
    @functools.wraps(fn)
    def traced_worker(payload):
        tracer.reset()
        result = fn(payload)
        tracer.count("integrator.ensemble.result_bytes",
                     len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)))
        out = trace_dir / f"worker-{os.getpid()}-{time.monotonic_ns()}.json"
        out.write_text(json.dumps(dict(tracer.snapshot(), pid=os.getpid())))
        return result
    return traced_worker


def collect_workers(trace_dir: Path) -> list:
    """Totals written by the worker tasks of this round."""
    return [json.loads(p.read_text()) for p in sorted(trace_dir.glob("worker-*.json"))]
