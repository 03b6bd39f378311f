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
forked worker inherits the writer, writes its paths' CSVs and snapshots
block by block, hashes the bytes it writes, and pipes back only each path's
outcome with those digests; the parent then writes the manifest from them.
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
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .config import OutputOptions, config_to_ini, parse_config
from .diagnostics import (MANIFEST_ONLY, energy_experiment, gronwall_experiment,
                          identical_noise_separation)
from .exponents import critical_exponents, exponent_report, uniqueness_threshold
from .integrator import SimConfig, TrajectoryRecord, _with_norm_p1, simulate_ensemble
from .snapshot import write_snapshot
from .spectral import coords_to_field

__all__ = ["main"]


# Floats with 17 significant digits: lossless binary64 round trip.
_FLOAT = "%.17g"


def _fmt(x: float) -> str:
    return _FLOAT % float(x)


# The decimal kernel of _csv_rows.  It scales |x| by an exact power of ten
# into [1e16, 1e17) and rounds that to the 17 digits of "%.17g".  10**q,
# q <= 27, is the sum hi + lo of two doubles; |x|*hi is taken exactly, as
# its rounded value and its error (Dekker 1971, "A floating-point technique
# for extending the available precision"), and |x|*lo < 16 is added to the
# error.  So the kernel covers the decimal exponents _EXP_MIN.._EXP_MAX.
_EXP_MIN, _EXP_MAX = -11, 16
# The scaled fraction is off by less than 2**-48: |x|*lo < 16 and its sum
# with the error (< 32) are rounded once each, by at most 2**-50 and
# 2**-49, and t - floor(t) by at most 2**-54 where -1 < t < 0.  A fraction
# within 16 times that of 1/2, exact ties included, goes to the fallback.
_TIE = 2.0 ** -44


def _split(a: np.ndarray):
    """Veltkamp's split of binary64 values into halves of 26 bits each,
    whose products with each other are exact."""
    c = 134217729.0 * a                         # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _pow10_parts() -> np.ndarray:
    """Rows hi, the two halves of hi, and lo, for 10**0..10**27: hi is the
    double nearest 10**q, and lo = 10**q - hi is a double too."""
    exact = [10 ** q for q in range(17 - _EXP_MIN)]
    hi = np.array([float(v) for v in exact])
    lo = np.array([float(v - int(h)) for v, h in zip(exact, hi.tolist())])
    return np.stack([hi, *_split(hi), lo])


_POW10 = _pow10_parts()

# A value's source bytes: its 17 digits, then the literals.  A layout
# lists, for one (decimal exponent, significant digits, sign, last in its
# row), which source byte goes to each of a cell's _CELL bytes; the 0 bytes
# that pad short cells are dropped at the end.
_LITERALS = np.frombuffer(b"0123456789.e-,\n\0", dtype=np.uint8)
_LIT = 17
_DOT, _E, _MINUS, _COMMA, _NL, _PAD = range(_LIT + 10, _LIT + 16)
_CELL = 25                                  # "-2.2250738585072014e-308,"
# Where each group of four digits starts among digits 1..16, less one
_QUAD_PLACE = np.array([[0], [4], [8], [12]], dtype=np.int8)
# Values formatted per pass: 16 rows of the simulate records' 253 columns
_CHUNK_VALUES = 4096


def _layout(exp: int, sig: int) -> list:
    """Source columns of the "%.17g" text of digits 0..sig-1 with decimal
    exponent exp, behind a sign slot and before a separator slot."""
    digits = list(range(sig))
    if exp < -4:
        body = digits[:1] + ([_DOT] + digits[1:] if sig > 1 else []) + [
            _E, _MINUS, _LIT + (-exp) // 10, _LIT + (-exp) % 10]
    elif exp < 0:
        body = [_LIT, _DOT] + [_LIT] * (-exp - 1) + digits
    else:
        body = list(range(exp + 1)) + (
            [_DOT] + digits[exp + 1:] if sig > exp + 1 else [])
    return [_PAD] + body + [_PAD] * (_CELL - 2 - len(body)) + [_COMMA]


# The text tables are built on a process's first CSV, so that commands
# that write none do not carry them.
@functools.cache
def _text_tables():
    """The layouts, indexed by ((exp - _EXP_MIN) * 17 + sig - 1) * 4
    + 2 * sign + last in row; the four digits of 0..9999 as one word each;
    and the place of the last significant digit in each (-32 for 0000: the
    group counts for none)."""
    layouts = np.array([_layout(e, s) for e in range(_EXP_MIN, _EXP_MAX + 1)
                        for s in range(1, 18)], dtype=np.uint8)
    layouts = np.repeat(layouts[:, None, None], 2, axis=1).repeat(2, axis=2)
    layouts[:, 1, :, 0] = _MINUS
    layouts[:, :, 1, -1] = _NL
    quad = np.arange(10_000, dtype=np.uint16)
    digits = 48 + quad[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10
    sig = np.select([quad == 0, quad % 1000 == 0, quad % 100 == 0, quad % 10 == 0],
                    [-32, 1, 2, 3], 4)
    return (layouts.reshape(-1, _CELL), digits.astype(np.uint8).view(np.uint32).ravel(),
            sig.astype(np.int8))


def _decimal17(x: np.ndarray):
    """(N, exp, ok): for each x with ok, the 17 digits N in [1e16, 1e17)
    and decimal exponent exp of "%.17g" % x, by the exact-product kernel.
    ok is false for zero, non-finite values and decimal exponents outside
    _EXP_MIN.._EXP_MAX; where the scaled fraction lies within _TIE of 1/2,
    so that the rounding could differ from the correct one; and where
    log10 missed the decade or the 17 digits round up into the next one
    (no binary64 value in the range does)."""
    a = np.abs(x)
    ok = (a >= 10.0 ** _EXP_MIN) & (a < 10.0 ** (_EXP_MAX + 1))
    a = np.where(ok, a, 1.0)
    q = (16 - np.floor(np.log10(a))).astype(np.intp).clip(0, 16 - _EXP_MIN)
    hi, hi_h, hi_l, lo = _POW10[:, q]
    a_h, a_l = _split(a)
    y = a * hi                                  # a whole number where ok
    err = ((a_h * hi_h - y) + a_h * hi_l + a_l * hi_h) + a_l * hi_l
    t = err + a * lo                            # |t| < 32
    floor = np.floor(t)
    frac = t - floor
    whole = y.astype(np.int64) + floor.astype(np.int64)
    N = whole + (frac > 0.5)
    ok &= (whole >= 10 ** 16) & (N < 10 ** 17) & (np.abs(frac - 0.5) > _TIE)
    return N, 16 - q, ok


def _csv_rows(table: np.ndarray) -> bytes:
    """The CSV rows of a 2-D float64 table: the bytes of "%.17g" joined by
    "," with "\\n" after each row, in a few numpy passes.  A value the
    decimal kernel declines goes through _FLOAT itself."""
    layouts, digits4, sig4 = _text_tables()
    cols = table.shape[1]
    x = table.ravel()
    N, exp, ok = _decimal17(x)
    lead, rest = np.divmod(N, 10 ** 16)
    hi, lo = np.divmod(rest, 10 ** 8)
    quads = np.stack(np.divmod(hi, 10 ** 4) + np.divmod(lo, 10 ** 4))
    src = np.empty((x.size, _LIT + len(_LITERALS)), dtype=np.uint8)
    src[:, 0] = 48 + lead
    src[:, 1:_LIT] = digits4[quads.T.copy()].view(np.uint8).reshape(-1, 16)
    src[:, _LIT:] = _LITERALS
    sig_end = np.maximum((sig4[quads] + _QUAD_PLACE).max(axis=0), 0)   # sig - 1
    layout = np.where(ok, ((exp - _EXP_MIN) * 17 + sig_end) * 4 + 2 * np.signbit(x), 0)
    layout[cols - 1::cols] += 1
    cells = src.ravel().take(layouts[layout] + np.arange(0, src.size, src.shape[1])[:, None])
    slow = np.flatnonzero(~ok)
    if slow.size:
        text = np.array([_FLOAT % v for v in x[slow].tolist()], dtype=f"S{_CELL - 1}")
        cells[slow, :-1] = text.view(np.uint8).reshape(-1, _CELL - 1)
    cells = cells.ravel()
    return cells[cells != 0].tobytes()


def _sha256(data: bytes) -> str:
    """Digest of an output's bytes, taken by the writer that wrote them."""
    return hashlib.sha256(data).hexdigest()


def _write_record_csv(record: TrajectoryRecord, path: Path) -> str:
    """Write the record as CSV to path, a few rows at a time, and return
    the sha256 of the bytes written, hashed as they are written."""
    table = np.column_stack([record.times, record.norm_l2_sq, record.norm_p1_p,
                             record.int_diss, record.int_gamma, record.coords])
    header = ["t", "normL2sq", "normVp1_p", "int_diss", "int_gammaXX"] + [
        f"x_{k}" for k in range(record.coords.shape[1])]
    step = max(1, _CHUNK_VALUES // table.shape[1])
    h = hashlib.sha256()
    with path.open("wb") as f:
        for data in itertools.chain(
                [(",".join(header) + "\n").encode()],
                (_csv_rows(table[i:i + step]) for i in range(0, len(table), step))):
            h.update(data)
            f.write(data)
    return h.hexdigest()


# What `simulate` keeps of a path for the manifest: its divergence and the
# (file name, sha256) of each output, hashed in the process that wrote it.
PathOutcome = NamedTuple("PathOutcome", [
    ("path_index", int), ("diverged", bool), ("diverged_step", Optional[int]),
    ("written", list)])


def _write_path(out_dir: Path, snapshots: bool, config: SimConfig,
                record: TrajectoryRecord) -> PathOutcome:
    """Fill the record's ||X||_{p,1}^p column and write its outputs, its
    CSV, then its final snapshot if snapshots are on and the path did not
    diverge; return its PathOutcome.  `simulate` runs it as the ensemble's
    finish, in the process that integrated the path."""
    _with_norm_p1(config, record)
    stem = f"path_{record.path_index:06d}"
    written = [(f"{stem}.csv", _write_record_csv(record, out_dir / f"{stem}.csv"))]
    if snapshots and not record.diverged:
        field = coords_to_field(record.coords[-1], config.n, config.d)
        name = f"{stem}_final.splf"
        written.append((name, _sha256(write_snapshot(field, out_dir / name))))
    return PathOutcome(record.path_index, record.diverged, record.diverged_step, written)


def _blas() -> dict:
    """Name and version of the BLAS numpy was built with: the drift's
    matrix products, and so the digests, depend on it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas["name"], "version": blas["version"]}


def _write_manifest(args, config: SimConfig, outputs: OutputOptions,
                    paths, files, started: float, verdict=None) -> Path:
    """Write manifest.json to the directory args.out; return its path.  The
    command's name and every option but --config and --out, which the
    config snapshot and the manifest's own place state, are recorded.
    files lists the (file name, sha256) of each output, in order, as its
    writer hashed the bytes it wrote, so no output is read back here."""
    manifest = {
        "tool": "splf",
        "version": __version__,
        "command": {"name": args.command, "options": _jsonable({
            k: v for k, v in vars(args).items()
            if k not in ("command", "func", "config", "out")})},
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
    path = Path(args.out) / "manifest.json"
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
        _write_manifest(args, config, outputs, list(diverged),
                        [(rp.name, _sha256(data))], started, verdict=status)
    return 0 if passed else 1


def _cmd_simulate(args) -> int:
    config, outputs = parse_config(args.config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    outcomes = simulate_ensemble(config, finish=functools.partial(
        _write_path, out_dir, outputs.snapshots, config))
    paths = [{"path_index": o.path_index, "diverged": o.diverged,
              "diverged_step": o.diverged_step} for o in outcomes]
    _write_manifest(args, config, outputs, paths,
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
