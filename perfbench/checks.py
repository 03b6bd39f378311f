"""Correctness checks on the outputs of one round.

Every expected value is computed here from the workload's parameters or is
a property the method must have; nothing is compared with stored output of
an earlier run.  Each check returns a list of failure messages, empty when
the output is correct.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import struct
from pathlib import Path

import numpy as np

from workloads import flag

FOUR_PI_SQ = 4.0 * math.pi ** 2


class ProgramFault(str):
    """A failure message for a known fault of the program on a fixed input.

    The operation counts as failed, but the run stays correct: the fault
    fails the same way in every run and says nothing about the outputs of
    the other operations.
    """


def half_space_modes(n: int, d: int) -> list:
    """Wave vectors of [-n,n]^d \\ {0} whose first nonzero component is
    positive, in lexicographic order (the order of the basis coordinates)."""
    def canonical(z):
        first = next((c for c in z if c != 0), 0)
        return first > 0
    return [z for z in itertools.product(range(-n, n + 1), repeat=d) if canonical(z)]


def coordinate_laplacian(n: int, d: int) -> np.ndarray:
    """4 pi^2 |z|^2 for every basis coordinate (2d-2 coordinates per mode)."""
    zsq = [sum(c * c for c in z) for z in half_space_modes(n, d)]
    return np.repeat(FOUR_PI_SQ * np.array(zsq, dtype=float), 2 * d - 2)


def parse_verdict(text: str):
    """(command, status, {key: value}) from the last line a command printed."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines:
        return None, None, {}
    parts = lines[-1].split(",")
    status = parts[1] if len(parts) > 1 else None
    fields = dict(item.split("=", 1) for item in parts[2:] if "=" in item)
    return parts[0], status, fields


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _verdict(text: str, code: int, command: str, failures: list) -> dict:
    head, status, fields = parse_verdict(text)
    if code != 0:
        failures.append(f"{command}: exit code {code}")
    if head != command:
        failures.append(f"{command}: no verdict line in output {text.strip()[-200:]!r}")
    elif status not in ("pass", "done"):
        failures.append(f"{command}: verdict {status}")
    return fields


def _number(fields: dict, key: str, failures: list) -> float:
    try:
        return float(fields[key])
    except (KeyError, ValueError):
        failures.append(f"missing or unreadable field {key}")
        return math.nan


def check_energy(w, text: str, code: int) -> list:
    failures = []
    f = _verdict(text, code, "energy-check", failures)
    m = w.model
    c, s = float(m["c"]), float(m["s"])
    trace = sum((2 * w.d - 2) * c * (1.0 + FOUR_PI_SQ * sum(x * x for x in z)) ** (-s)
                for z in half_space_modes(w.n, w.d))
    rhs = float(m["amplitude"]) ** 2 + w.T * trace
    printed = _number(f, "rhs", failures)
    if not _rel(printed, rhs) <= 1e-13:
        failures.append(f"rhs {printed!r} differs from {rhs!r}")
    if f.get("diverged") != "0":
        failures.append(f"diverged={f.get('diverged')} (a pass with dropped paths proves nothing)")
    if f.get("paths") != str(w.n_paths):
        failures.append(f"paths={f.get('paths')}, expected {w.n_paths}")
    shrink = _number(f, "shrink_ratio", failures)
    if not 1.5 <= shrink <= 2.5:
        failures.append(f"shrink_ratio {shrink!r} outside [1.5, 2.5]")
    return failures


def check_uniqueness_exact(w, text: str, code: int) -> list:
    failures = []
    f = _verdict(text, code, "uniqueness-check", failures)
    if f.get("branch") != "exact":
        failures.append(f"branch={f.get('branch')}, expected exact")
    sep = _number(f, "max_separation", failures)
    if sep != 0.0:
        failures.append(f"max_separation {sep!r} on the exact branch")
    if f.get("paths") != str(w.n_paths):
        failures.append(f"paths={f.get('paths')}, expected {w.n_paths}")
    return failures


def check_uniqueness_gronwall(w, argv: list, text: str, code: int) -> list:
    """The Gronwall branch: exponent 2p/(2p-d), regime, a finite positive
    c_hat, and a verdict that agrees with its violation count.

    A `fail` verdict with violations is the known fault of the program's
    envelope test (see the README), reported as a ProgramFault.
    """
    failures = []
    head, status, f = parse_verdict(text)
    if head != "uniqueness-check" or f.get("branch") != "gronwall":
        return [f"uniqueness-check: no Gronwall verdict line in output {text.strip()[-200:]!r}"]
    exponent = 2.0 * w.p / (2.0 * w.p - w.d)
    printed = _number(f, "exponent", failures)
    if not _rel(printed, exponent) <= 1e-15:
        failures.append(f"exponent {printed!r}, expected 2p/(2p-d) = {exponent!r}")
    if f.get("regime") != "in":
        failures.append(f"regime={f.get('regime')}, expected in")
    c_hat = _number(f, "c_hat", failures)
    if not (math.isfinite(c_hat) and c_hat > 0):
        failures.append(f"c_hat {c_hat!r} is not finite and positive")
    if _number(f, "margin", failures) != float(flag(argv, "--margin")):
        failures.append(f"margin={f.get('margin')}, expected {flag(argv, '--margin')}")
    if not f.get("pairs_ok", "").endswith(f"/{w.n_paths}"):
        failures.append(f"pairs_ok={f.get('pairs_ok')}, expected k/{w.n_paths}")
    violations = _number(f, "violations", failures)
    if (status, code) == ("pass", 0) and violations == 0:
        return failures
    if (status, code) == ("fail", 1) and violations > 0 and not failures:
        return [ProgramFault(f"uniqueness-check --eps {flag(argv, '--eps')}: verdict fail, "
                             f"{violations:.0f} envelope violations on {w.n_paths} "
                             f"validation pairs")]
    return failures + [f"uniqueness-check: verdict {status}, exit code {code}, "
                       f"violations={f.get('violations')}"]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_snapshot(path: Path):
    """(d, n, modes (Z, d), coeffs (Z, d) complex) from the binary layout."""
    blob = path.read_bytes()
    if blob[:4] != b"SPLF":
        raise ValueError("bad magic bytes")
    _version, d, n, count = struct.unpack_from("<IIII", blob, 4)
    rec = np.dtype([("z", "<i4", (d,)), ("c", "<f8", (2 * d,))])
    body = np.frombuffer(blob, dtype=rec, count=count, offset=20)
    if 20 + count * rec.itemsize != len(blob):
        raise ValueError("length does not match the mode count")
    coeffs = body["c"][:, 0::2] + 1j * body["c"][:, 1::2]
    return d, n, body["z"].astype(np.int64), coeffs


def check_csv(w, path: Path, lam: np.ndarray, dt_eff: float, steps: int) -> tuple:
    """Failures for one path's CSV, and its final normL2sq."""
    failures = []
    name = path.name
    with path.open() as fh:
        header = fh.readline().strip().split(",")
    K = lam.size
    expected = ["t", "normL2sq", "normVp1_p", "int_diss", "int_gammaXX"] + [
        f"x_{k}" for k in range(K)]
    if header != expected:
        return [f"{name}: header has {len(header)} columns, expected {len(expected)}"], math.nan
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (steps + 1, 5 + K):
        return [f"{name}: shape {rows.shape}, expected {(steps + 1, 5 + K)}"], math.nan
    t, l2, p1, diss, gam, x = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4], rows[:, 5:]
    k = np.arange(steps + 1)
    if np.max(np.abs(t - k * dt_eff)) > 1e-15 * w.T:
        failures.append(f"{name}: t is not k * dt_eff")
    sq = np.array([math.fsum(row * row) for row in x])
    if np.max(np.abs(l2 - sq) / np.maximum(sq, 1e-300)) > 1e-13:
        failures.append(f"{name}: normL2sq differs from sum x_k^2")
    for col, label in ((diss, "int_diss"), (gam, "int_gammaXX")):
        if col[0] != 0.0 or np.any(np.diff(col) < 0):
            failures.append(f"{name}: {label} does not start at 0 and never decrease")
    # Jensen, p < 2: mean |w v|^p <= (mean |w v|^2)^(p/2), the latter by Parseval
    bound = ((x * x) @ (1.0 + lam)) ** (w.p / 2.0)
    if np.any(p1 > bound * (1.0 + 1e-12)):
        failures.append(f"{name}: normVp1_p exceeds (sum (1+lambda_k) x_k^2)^(p/2)")
    return failures, float(l2[-1])


def check_simulate(w, text: str, code: int, out_dir: Path) -> list:
    failures = []
    f = _verdict(text, code, "simulate", failures)
    if f.get("paths") != str(w.n_paths) or f.get("diverged") != "0":
        failures.append(f"paths={f.get('paths')} diverged={f.get('diverged')}, "
                        f"expected {w.n_paths} and 0")
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return failures + [f"manifest.json unreadable: {exc}"]
    listed = {o["file"]: o["sha256"] for o in manifest.get("outputs", [])}
    expected = {f"path_{i:06d}.csv" for i in range(w.n_paths)}
    if w.snapshots:
        expected |= {f"path_{i:06d}_final.splf" for i in range(w.n_paths)}
    if set(listed) != expected:
        failures.append(f"manifest lists {len(listed)} outputs, expected {len(expected)}")
    for name, digest in listed.items():
        if not (out_dir / name).is_file() or sha256_file(out_dir / name) != digest:
            failures.append(f"{name}: sha256 in the manifest does not match the file")
    if any(p.get("diverged") for p in manifest.get("paths", [])):
        failures.append("manifest reports diverged paths")
    steps = w.steps(w.dt)
    dt_eff = w.T / steps
    lam = coordinate_laplacian(w.n, w.d)
    modes = np.array(half_space_modes(w.n, w.d), dtype=np.int64)
    for i in range(w.n_paths):
        csv = out_dir / f"path_{i:06d}.csv"
        if not csv.is_file():
            continue
        row_failures, final_l2 = check_csv(w, csv, lam, dt_eff, steps)
        failures += row_failures
        snap = out_dir / f"path_{i:06d}_final.splf"
        if not w.snapshots or not snap.is_file():
            continue
        try:
            d, n, z, v = read_snapshot(snap)
        except (ValueError, struct.error) as exc:
            failures.append(f"{snap.name}: unreadable ({exc})")
            continue
        if (d, n) != (w.d, w.n) or not np.array_equal(z, modes):
            failures.append(f"{snap.name}: modes do not match (d, n) = {(w.d, w.n)}")
            continue
        div = np.max(np.abs(np.einsum("zd,zd->z", z.astype(float), v)))
        if not div < 1e-12:
            failures.append(f"{snap.name}: divergence {div!r}")
        energy = 2.0 * math.fsum((np.abs(v) ** 2).ravel())
        if not _rel(energy, final_l2) <= 1e-12:
            failures.append(f"{snap.name}: 2 sum |v_z|^2 = {energy!r}, "
                            f"final normL2sq = {final_l2!r}")
    return failures


def output_digests(out_dir: Path) -> dict:
    """sha256 of every CSV and snapshot (not manifest.json: it holds clock times)."""
    return {p.name: sha256_file(p) for p in sorted(out_dir.iterdir())
            if p.suffix in (".csv", ".splf")}


def check_command(w, argv: list, text: str, code: int, out_dir: Path) -> list:
    """Failures of one command of a round, by the command's name."""
    if argv[0] == "energy-check":
        return check_energy(w, text, code)
    if argv[0] == "uniqueness-check":
        if float(flag(argv, "--eps")) == 0.0:
            return check_uniqueness_exact(w, text, code)
        return check_uniqueness_gronwall(w, argv, text, code)
    return check_simulate(w, text, code, out_dir)
