"""Command line front end.

Subcommands: simulate, energy-check, uniqueness-check, exponents.  Every
run writes a manifest with the config snapshot, seed, code version, wall
times, the numpy, BLAS, Python and platform versions, and content digests
of all output files, so a run is reproducible from its manifest alone.  The
manifest of `simulate` also lists each path's divergence flag; that of a
check lists the run, path index and step of each diverged record.
Reports are strict JSON (RFC 8259): a non-finite number is written as the
string "inf", "-inf" or "nan".
SPLF_THREADS caps the worker count for ensemble runs.  In `simulate` each
ensemble worker writes its own paths' CSVs and snapshots block by block,
hashes the bytes it writes, and sends back only each path's outcome with
those digests; the parent then writes the manifest.  No output is read back.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import OutputOptions, config_to_ini, parse_config
from .diagnostics import (MANIFEST_ONLY, energy_experiment, gronwall_experiment,
                          identical_noise_separation)
from .exponents import critical_exponents, exponent_report, uniqueness_threshold
from .integrator import SimConfig, TrajectoryRecord, simulate_ensemble
from .snapshot import write_snapshot
from .spectral import coords_to_field

__all__ = ["main"]


# Floats with 17 significant digits: lossless binary64 round trip.
_FLOAT = "%.17g"


def _fmt(x: float) -> str:
    return _FLOAT % float(x)


def _sha256(data: bytes) -> str:
    """Digest of an output's bytes, taken by the writer that wrote them."""
    return hashlib.sha256(data).hexdigest()


def _write_record_csv(record: TrajectoryRecord, path: Path) -> str:
    """Write the record as CSV to path, one row at a time, and return the
    sha256 of the bytes written, hashed as they are written."""
    table = np.column_stack([record.times, record.norm_l2_sq, record.norm_p1_p,
                             record.int_diss, record.int_gamma, record.coords])
    header = ["t", "normL2sq", "normVp1_p", "int_diss", "int_gammaXX"] + [
        f"x_{k}" for k in range(record.coords.shape[1])]
    row = ",".join([_FLOAT] * table.shape[1]) + "\n"
    h = hashlib.sha256()
    with path.open("wb") as f:
        for line in itertools.chain([",".join(header) + "\n"],
                                    (row % tuple(r.tolist()) for r in table)):
            data = line.encode()
            h.update(data)
            f.write(data)
    return h.hexdigest()


def _write_path(out_dir: Path, snapshots: bool, config: SimConfig,
                record: TrajectoryRecord) -> list:
    """Write one record's outputs, its CSV, then its final snapshot if
    snapshots are on and the path did not diverge; return the (file name,
    sha256) of each, hashed from the bytes written.  `simulate` runs it in
    the ensemble worker that computed the record."""
    stem = f"path_{record.path_index:06d}"
    written = [(f"{stem}.csv", _write_record_csv(record, out_dir / f"{stem}.csv"))]
    if snapshots and not record.diverged:
        field = coords_to_field(record.final_coords, config.n, config.d)
        name = f"{stem}_final.splf"
        written.append((name, _sha256(write_snapshot(field, out_dir / name))))
    return written


def _blas() -> dict:
    """Name and version of the BLAS numpy was built with: the drift's
    matrix products, and so the digests, depend on it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas["name"], "version": blas["version"]}


def _write_manifest(out_dir: Path, config: SimConfig, outputs: OutputOptions,
                    paths, files, started: float, verdict=None) -> Path:
    """Write manifest.json to out_dir; return its path.  files lists the
    (file name, sha256) of each output, in order, as its writer hashed the
    bytes it wrote, so no output is read back here."""
    manifest = {
        "tool": "splf",
        "version": __version__,
        "seed": config.seed,
        "dt_effective": config.dt_eff,
        "n_steps": config.n_steps,
        "config_ini": config_to_ini(config, outputs),
        "started_unix": started,
        "finished_unix": time.time(),
        "numpy_version": np.__version__,
        "blas": _blas(),
        "python_version": platform.python_version(),
        # not platform.platform(): it starts a `uname -p` process
        "platform": "-".join([platform.system(), platform.release(),
                              platform.machine()]),
        "paths": paths,
        "outputs": [{"file": name, "sha256": digest} for name, digest in files],
    }
    if verdict is not None:
        manifest["verdict"] = verdict
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True,
                               allow_nan=False) + "\n")
    return path


def _jsonable(obj):
    """A report as JSON values: dataclasses as dicts, numpy arrays and
    scalars as lists and numbers, and a non-finite float as the string
    "inf", "-inf" or "nan", which RFC 8259 JSON has no number for.  Fields
    marked MANIFEST_ONLY are left out."""
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
               if f.metadata != MANIFEST_ONLY}
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _verdict(args, config: SimConfig, outputs: OutputOptions, started: float,
             passed: bool, fields, report, diverged) -> int:
    """Print `command,status,fields...`; with --out also write the report
    as `energy_report.json` or `uniqueness_report.json` and a manifest
    that lists the diverged records; return the exit code."""
    status = "pass" if passed else "fail"
    print(",".join([args.command, status, *fields]))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        rp = out_dir / f"{args.command.removesuffix('-check')}_report.json"
        data = (json.dumps(_jsonable(report), indent=2, allow_nan=False) + "\n").encode()
        rp.write_bytes(data)
        _write_manifest(out_dir, config, outputs, list(diverged),
                        [(rp.name, _sha256(data))], started, verdict=status)
    return 0 if passed else 1


def _cmd_simulate(args) -> int:
    config, outputs = parse_config(args.config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    outcomes = simulate_ensemble(config, write=functools.partial(
        _write_path, out_dir, outputs.snapshots, config))
    paths = [{"path_index": o.path_index, "diverged": o.diverged,
              "diverged_step": o.diverged_step} for o in outcomes]
    _write_manifest(out_dir, config, outputs, paths,
                    [f for o in outcomes for f in o.written], started)
    n_div = sum(o.diverged for o in outcomes)
    print(f"simulate,done,paths={len(outcomes)},diverged={n_div},out={out_dir}")
    return 0


def _cmd_energy_check(args) -> int:
    config, outputs = parse_config(args.config)
    started = time.time()
    report = energy_experiment(config)
    return _verdict(args, config, outputs, started, report.passed, [
        f"lhs={_fmt(report.main.lhs_mean)}",
        f"rhs={_fmt(report.main.rhs)}",
        f"stderr={_fmt(report.main.lhs_stderr)}",
        f"residual={_fmt(report.residual)}",
        f"bias_allowance={_fmt(report.bias_allowance)}",
        f"shrink_ratio={_fmt(report.shrink_ratio)}",
        f"paths={report.main.n_paths}",
        f"diverged={report.main.n_diverged}",
    ], report, report.diverged)


def _cmd_uniqueness_check(args) -> int:
    config, outputs = parse_config(args.config)
    started = time.time()
    if args.eps == 0.0:
        diverged = []
        worst = identical_noise_separation(config, range(config.n_paths), diverged)
        return _verdict(args, config, outputs, started, worst < 1e-12, [
            "branch=exact",
            f"max_separation={_fmt(worst)}",
            f"paths={config.n_paths}",
        ], {"branch": "exact", "max_separation": worst, "paths": config.n_paths},
            diverged)
    report = gronwall_experiment(config, eps=args.eps,
                                 n_calibration=args.calibration,
                                 n_validation=config.n_paths,
                                 margin=args.margin)
    regime = "in" if report.in_uniqueness_regime else "outside-threshold"
    return _verdict(args, config, outputs, started, report.passed, [
        "branch=gronwall",
        f"eps={_fmt(args.eps)}",
        f"c_hat={_fmt(report.c_hat)}",
        f"exponent={_fmt(report.exponent)}",
        f"margin={_fmt(report.margin)}",
        f"violations={report.total_violations}",
        f"pairs_ok={report.pairs_ok}/{report.n_validation}",
        f"regime={regime}",
    ], report, report.diverged)


def _cmd_exponents(args) -> int:
    if args.p is None:
        c = critical_exponents(args.d)
        header = ("d", "p1", "p2", "p3", "uniqueness_threshold")
        row = (args.d, c.p1, c.p2, repr(c.p3), uniqueness_threshold(args.d))
    else:
        report = exponent_report(args.d, args.p)
        header, row = report.HEADER, report.as_row()
    values = [str(v) for v in row]
    if args.csv:
        print(",".join(header))
        print(",".join(values))
    else:
        for k, v in zip(header, values):
            print(f"{k:>22}: {v}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splf",
        description="Spectral Galerkin simulation and verification of "
                    "stochastic power-law fluids on the torus.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an ensemble and write CSVs")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    en = sub.add_parser("energy-check",
                        help="Monte Carlo energy balance with dt/2 control")
    en.add_argument("--config", required=True)
    en.add_argument("--out", default=None)
    en.set_defaults(func=_cmd_energy_check)

    un = sub.add_parser("uniqueness-check",
                        help="pathwise uniqueness under common noise")
    un.add_argument("--config", required=True)
    un.add_argument("--eps", type=float, required=True,
                    help="initial separation (0 = exact branch)")
    un.add_argument("--margin", type=float, default=0.5)
    un.add_argument("--calibration", type=int, default=64)
    un.add_argument("--out", default=None)
    un.set_defaults(func=_cmd_uniqueness_check)

    ex = sub.add_parser("exponents", help="exponent table for one (d, p)")
    ex.add_argument("--d", type=int, required=True)
    ex.add_argument("--p", type=float, default=None)
    ex.add_argument("--csv", action="store_true")
    ex.set_defaults(func=_cmd_exponents)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # structured errors -> nonzero exit, named cause
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
