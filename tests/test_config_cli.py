"""Config parsing and the command line front end."""

import dataclasses
import decimal
import hashlib
import json
import math
import os
import pickle
import platform
import re
import signal
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from splf import cli
from splf import diagnostics as dg
from splf import integrator as it
from splf.config import (OutputOptions, config_to_ini, parse_config,
                         parse_config_string)
from splf.integrator import (ConfigError, GaussianInit, PathOutcome, SimConfig,
                             SingleModeInit, TrajectoryRecord, initial_coords,
                             simulate_ensemble, simulate_paired)
from splf.noise import ExplicitSpectrum, PowerLawSpectrum, SpectrumError

MINIMAL = """
[model]
d = 2
p = 2.0
nu = 1.0
n = 2

[time]
dt = 1e-3
T = 0.1

[ensemble]
n_paths = 10
seed = 1

[init]
kind = single_mode
z = 1 0
j = 1
amplitude = 1.0

[gamma]
kind = power
c = 0.1
s = 3.0
"""


class TestParsing:
    def test_minimal_accepted(self):
        cfg, out = parse_config_string(MINIMAL)
        assert cfg.d == 2 and cfg.n_paths == 10
        assert cfg.stepper == "tamed"  # default
        assert isinstance(cfg.init, SingleModeInit)
        assert isinstance(cfg.gamma, PowerLawSpectrum)
        assert out.snapshots is False

    def test_readme_ini_samples_parse(self):
        # a user copies these; the parser reads text after a value as part
        # of the value, so a comment must take a line of its own
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.S | re.M)
        assert blocks
        for block in blocks:
            parse_config_string(block)

    def test_p_one_rejected(self):
        with pytest.raises(ConfigError, match="p:"):
            parse_config_string(MINIMAL.replace("p = 2.0", "p = 1.0"))

    def test_outside_existence_range_warns_but_runs(self):
        # p = 2.58 sits in the d = 9 admissibility gap; the steeper decay
        # keeps the noise trace class in nine dimensions
        text = MINIMAL.replace("d = 2", "d = 9").replace("p = 2.0", "p = 2.58")
        text = text.replace("z = 1 0", "z = 1 0 0 0 0 0 0 0 0")
        text = text.replace("s = 3.0", "s = 6.0")
        with pytest.warns(UserWarning, match="existence range"):
            cfg, _ = parse_config_string(text)
        assert cfg.d == 9

    def test_missing_key_named(self):
        broken = MINIMAL.replace("nu = 1.0\n", "")
        with pytest.raises(ConfigError, match=r"\[model\] nu"):
            parse_config_string(broken)

    def test_unparsable_value_named(self):
        broken = MINIMAL.replace("dt = 1e-3", "dt = fast")
        with pytest.raises(ConfigError, match=r"\[time\] dt"):
            parse_config_string(broken)

    def test_explicit_gamma_entries(self):
        text = MINIMAL.replace(
            "kind = power\nc = 0.1\ns = 3.0",
            "kind = explicit\nentries =\n    1 0 1 0.5\n    0 1 2 0.25")
        cfg, _ = parse_config_string(text)
        assert isinstance(cfg.gamma, ExplicitSpectrum)
        assert len(cfg.gamma.entries) == 2

    def test_explicit_gamma_bad_arity(self):
        text = MINIMAL.replace(
            "kind = power\nc = 0.1\ns = 3.0",
            "kind = explicit\nentries =\n    1 0 0.5")
        with pytest.raises(ConfigError, match="entries line 1"):
            parse_config_string(text)

    @pytest.mark.parametrize("old,new,message", [
        ("c = 0.1", "c = nan", "power spectrum amplitude c=nan must be finite and >= 0"),
        ("c = 0.1", "c = inf", "power spectrum amplitude c=inf must be finite and >= 0"),
        ("c = 0.1\ns = 3.0", "c = 0.0\ns = nan", "power spectrum decay s=nan must be finite"),
        ("kind = power\nc = 0.1\ns = 3.0",
         "kind = explicit\nentries =\n    1 0 1 0.5\n    -1 0 1 0.2",
         "entries ((1, 0), 1, 0.5) and ((1, 0), 1, 0.2) fold onto one basis element"),
        ("kind = power\nc = 0.1\ns = 3.0", "kind = explicit\nentries =\n    0 0 1 0.5",
         "entry ((0, 0), 1, 0.5) is at z = 0, outside the mean-zero space"),
    ], ids=["c-nan", "c-inf", "s-nan", "explicit-fold", "explicit-zero"])
    def test_gamma_faults_named(self, old, new, message):
        # each of these used to parse: c = nan ran and every path diverged
        # at step 1; the explicit entries were dropped or overwritten
        with pytest.raises(SpectrumError) as err:
            parse_config_string(MINIMAL.replace(old, new, 1))
        assert str(err.value) == message

    def test_gaussian_init(self):
        text = MINIMAL.replace(
            "kind = single_mode\nz = 1 0\nj = 1\namplitude = 1.0",
            "kind = gaussian\nsigma = 0.5\ndecay = 2.0")
        cfg, _ = parse_config_string(text)
        assert isinstance(cfg.init, GaussianInit)

    def test_file_round_trip(self, tmp_path):
        from splf.config import config_to_ini

        cfg, out = parse_config_string(MINIMAL)
        path = tmp_path / "rt.ini"
        path.write_text(config_to_ini(cfg, out))
        cfg2, out2 = parse_config(path)
        assert cfg2 == cfg and out2 == out

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="config file"):
            parse_config("/nonexistent/run.ini")


PINNED_INI = [
    (SimConfig(d=3, p=2.5, nu=0.1, n=2, dt=1e-3, T=0.01, n_paths=3,
               seed=2 ** 64 - 1,
               init=SingleModeInit(z=(1, 0, -1), j=2, amplitude=0.3),
               gamma=ExplicitSpectrum.from_items([((1, 0, 0), 1, 0.5),
                                                  ((0, -1, 1), 4, 0.25)]),
               stepper="semi_implicit", record_every=3,
               norm_ceiling=float("inf")),
     OutputOptions(snapshots=True),
     "[model]\nd = 3\np = 2.5\nnu = 0.1\nn = 2\n\n"
     "[time]\ndt = 0.001\nT = 0.01\n\n"
     "[ensemble]\nn_paths = 3\nseed = 18446744073709551615\n"
     "stepper = semi_implicit\nrecord_every = 3\nnorm_ceiling = inf\n\n"
     "[init]\nkind = single_mode\nz = 1 0 -1\nj = 2\namplitude = 0.3\n\n"
     "[gamma]\nkind = explicit\nentries =\n    1 0 0 1 0.5\n    0 1 -1 4 0.25\n\n"
     "[outputs]\nsnapshots = true\n"),
    (SimConfig(d=2, p=3.0, nu=1.0, n=2, dt=1e-3, T=0.1, n_paths=10, seed=1,
               init=GaussianInit(sigma=0.5, decay=2.0),
               gamma=PowerLawSpectrum(c=0.1, s=3.0)),
     OutputOptions(),
     "[model]\nd = 2\np = 3.0\nnu = 1.0\nn = 2\n\n"
     "[time]\ndt = 0.001\nT = 0.1\n\n"
     "[ensemble]\nn_paths = 10\nseed = 1\nstepper = tamed\n"
     "record_every = 1\nnorm_ceiling = 1000000.0\n\n"
     "[init]\nkind = gaussian\nsigma = 0.5\ndecay = 2.0\n\n"
     "[gamma]\nkind = power\nc = 0.1\ns = 3.0\n\n"
     "[outputs]\nsnapshots = false\n"),
]


class TestSchema:
    @pytest.mark.parametrize("config,outputs,text", PINNED_INI,
                             ids=["explicit", "power"])
    def test_config_to_ini_text(self, config, outputs, text):
        assert config_to_ini(config, outputs) == text

    @pytest.mark.parametrize("config,outputs,text", PINNED_INI,
                             ids=["explicit", "power"])
    def test_text_parses_back(self, config, outputs, text):
        assert parse_config_string(text) == (config, outputs)

    def test_omitted_keys_take_dataclass_defaults(self):
        # MINIMAL leaves out stepper, record_every, norm_ceiling and [outputs]
        cfg, out = parse_config_string(MINIMAL)
        for obj in (cfg, out):
            for f in dataclasses.fields(obj):
                if f.default is not dataclasses.MISSING:
                    assert getattr(obj, f.name) == f.default, f.name

    @pytest.mark.parametrize("old,new,message", [
        ("[time]", "[timing]", "[time]: section missing"),
        ("nu = 1.0\n", "", "[model] nu: key missing"),
        ("j = 1\n", "", "[init] j: key missing"),
        ("dt = 1e-3", "dt = fast",
         "[time] dt: cannot parse 'fast' (could not convert string to float: 'fast')"),
        ("n_paths = 10", "n_paths = 1.5",
         "[ensemble] n_paths: cannot parse '1.5' "
         "(invalid literal for int() with base 10: '1.5')"),
        ("z = 1 0", "z = 1 x",
         "[init] z: cannot parse '1 x' (invalid literal for int() with base 10: 'x')"),
        ("kind = single_mode", "kind = random", "[init] kind: unknown kind 'random'"),
        ("kind = power", "kind = white", "[gamma] kind: unknown kind 'white'"),
        ("kind = power\nc = 0.1\ns = 3.0", "kind = explicit\nentries =\n    1 0 0.5",
         "[gamma] entries line 1: need d z-components, j and a value (4 tokens), got 3"),
        ("kind = power\nc = 0.1\ns = 3.0",
         "kind = explicit\nentries =\n    1 0 1 0.5\n    1 x 1 0.5",
         "[gamma] entries line 2: invalid literal for int() with base 10: 'x'"),
        ("s = 3.0", "s = 3.0\n[outputs]\nsnapshots = maybe",
         "[outputs] snapshots: cannot parse 'maybe' (not a boolean: 'maybe')"),
        ("[model]", "[model]\nd = 2\n[model]",
         "config syntax: While reading from '<string>' [line  4]: "
         "section 'model' already exists"),
        ("amplitude = 1.0", "amplitude = 50%",
         "[init] amplitude: cannot parse '50%' (could not convert string to float: '50%')"),
        ("c = 0.1", "c = %(x)s",
         "[gamma] c: cannot parse '%(x)s' (could not convert string to float: '%(x)s')"),
        ("seed = 1", "seed = 1\nrecord_evry = 100", "[ensemble] record_evry: unknown key"),
        ("s = 3.0", "s = 3.0\n[output]\nsnapshots = true", "[output]: unknown section"),
        ("s = 3.0", "s = 3.0\nsigma = 3", "[gamma] sigma: unknown key"),
        ("[model]", "[DEFAULT]\nseed = 1\n[model]", "[DEFAULT]: unknown section"),
    ], ids=["section", "key", "descriptor-key", "float", "int", "vector",
            "init-kind", "gamma-kind", "entries-arity", "entries-token", "bool",
            "syntax", "percent", "interpolation", "unknown-key",
            "unknown-section", "descriptor-unknown-key", "default-section"])
    def test_single_fault_messages(self, old, new, message):
        text = MINIMAL.replace(old, new, 1)
        with pytest.raises(ConfigError) as err:
            parse_config_string(text)
        assert str(err.value) == message


class TestCliExponents:
    def test_table_contains_p1(self, capsys):
        assert cli.main(["exponents", "--d", "3"]) == 0
        out = capsys.readouterr().out
        assert "9/5" in out

    def test_full_report_csv(self, capsys):
        assert cli.main(["exponents", "--d", "2", "--p", "3.0", "--csv"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("d,p,p1,")
        assert out[1].startswith("2,3.0,3/2,")

    def test_bad_args_exit_nonzero(self, capsys):
        assert cli.main(["exponents", "--d", "1"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["inf", "nan", "1.0"])
    def test_p_must_be_finite_and_exceed_one(self, capsys, p):
        assert cli.main(["exponents", "--d", "2", "--p", p]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: p: must be finite and exceed 1, got {float(p)}\n"


def small_ini(tmp_path, n_paths=4, record_every=5):
    text = MINIMAL.replace("n_paths = 10", f"n_paths = {n_paths}")
    text = text.replace("seed = 1", "seed = 7\nrecord_every = "
                        f"{record_every}\nstepper = euler_maruyama")
    text += "\n[outputs]\nsnapshots = true\n"
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


class TestCliSimulate:
    def test_outputs_and_manifest(self, tmp_path, capsys):
        cfg = small_ini(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        csvs = sorted(out.glob("path_*.csv"))
        snaps = sorted(out.glob("*.splf"))
        assert len(csvs) == 4 and len(snaps) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert len(manifest["outputs"]) == 8
        for entry in manifest["outputs"]:
            blob = (out / entry["file"]).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
        header = csvs[0].read_text().splitlines()[0]
        assert header.startswith("t,normL2sq,normVp1_p,int_diss,int_gammaXX,x_0")

    def test_manifest_records_environment(self, tmp_path):
        cfg = small_ini(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["numpy_version"] == np.__version__
        assert manifest["python_version"] == platform.python_version()
        assert manifest["platform"] == "-".join(
            [platform.system(), platform.release(), platform.machine()])
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["blas"] == {"name": blas["name"], "version": blas["version"]}
        # digests of the outputs from the band-matrix drift on the band pair
        # that it shares with lp_means, numpy 2.4 with scipy-openblas 0.3.31
        # on x86-64; the CSVs were re-pinned, by rounding alone (at most
        # 5.2e-16 relative in the p = 2 norm column), when p = 2 left its
        # exact weighted sum for the quadrature of every other p
        assert {e["file"]: e["sha256"] for e in manifest["outputs"]} == {
            "path_000000.csv":
                "e6d32547ee7bcab104ff2520f0349244ad14e70e057ac6ba330c72f56f3e0b86",
            "path_000000_final.splf":
                "2038cb584aba77908302574da2e1fc0821123af0707038c185ec71a9bdca5155",
            "path_000001.csv":
                "a0889596794f320682de4f17af82925fe290b603a384b43a486b2b02b3544958",
            "path_000001_final.splf":
                "160c4f0e88f5646981be3cc2a38e6f71f96a1afc452604c78ed281ef2b8a16e4",
            "path_000002.csv":
                "23b93e4494026fc26e68db0d32307175dc82f66cb60e0756b4864e841292ccab",
            "path_000002_final.splf":
                "8d64dd26692e7cff69c47e4943974bc2f4aeb5227ec785c585e1bb0a671da544",
            "path_000003.csv":
                "5cd59c19033964e0d211623fc38277f44abc609145b3fd7988c86b504683b391",
            "path_000003_final.splf":
                "634ec641c7ba57d32ce39d3a35e82ab4398d0cee59eba29f3aaa877a02091317",
        }

    def test_rerun_reproduces_digests(self, tmp_path):
        cfg = small_ini(tmp_path)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert cli.main(["simulate", "--config", str(cfg),
                             "--out", str(out)]) == 0
            man = json.loads((out / "manifest.json").read_text())
            outs.append({e["file"]: e["sha256"] for e in man["outputs"]})
        assert outs[0] == outs[1]

    def test_csv_floats_round_trip(self, tmp_path):
        cfg = small_ini(tmp_path, n_paths=1, record_every=1)
        out = tmp_path / "out"
        cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        from splf import integrator as it
        from splf.config import parse_config

        config, _ = parse_config(cfg)
        rec = it.simulate(config, 0)
        lines = (out / "path_000000.csv").read_text().splitlines()
        row = np.array([float(v) for v in lines[3].split(",")])
        assert row[1] == rec.norm_l2_sq[2]  # exact round trip through text
        assert np.array_equal(row[5:], rec.coords[2])


DIVERGING = """
[model]
d = 2
p = 4.0
nu = 1.0
n = 2

[time]
dt = 2e-3
T = 0.1

[ensemble]
n_paths = 8
seed = 20240611
stepper = euler_maruyama
record_every = 1
norm_ceiling = 40

[init]
kind = gaussian
sigma = 0.4
decay = 1.0

[gamma]
kind = power
c = 0.5
s = 3.0
"""


def test_csv_bytes_match_python_format(tmp_path):
    special = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -2.2250738585072e-308,
               1.7976931348623157e308, 0.1, -1 / 3, 1e22, 123456789.0]
    rows = np.array([special, special[::-1]])
    rec = TrajectoryRecord(
        path_index=0, times=np.array([0.0, 0.1]), coords=rows,
        norm_l2_sq=np.array([np.nan, 2.5]), norm_p1_p=np.array([-0.0, np.inf]),
        int_diss=np.array([5e-324, 1.0]), int_gamma=np.array([0.0, -np.inf]))
    path = tmp_path / "rec.csv"
    cli._write_record_csv(rec, path)
    header = "t,normL2sq,normVp1_p,int_diss,int_gammaXX," + ",".join(
        f"x_{k}" for k in range(len(special)))
    lines = [header]
    for i in range(2):
        vals = [rec.times[i], rec.norm_l2_sq[i], rec.norm_p1_p[i],
                rec.int_diss[i], rec.int_gamma[i], *rows[i]]
        lines.append(",".join(format(float(v), ".17g") for v in vals))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def python_rows(table: np.ndarray) -> bytes:
    """The CSV rows of table by format(v, ".17g"), one value at a time."""
    return "".join(",".join(format(v, ".17g") for v in row) + "\n"
                   for row in table.tolist()).encode()


def exact_ties(rng, per_exponent=40) -> np.ndarray:
    """Dyadic values m / 2**e, m odd, whose exact decimal m 5**e / 10**e has
    18 significant digits ending in 5: each lies half way between two
    17-digit values.  They run from 3e-8 (m of one or two bits) to 2e15;
    no smaller double is a tie."""
    ties = []
    for e in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** e), min(10 ** 18 // 5 ** e, 2 ** 53)
        ties += [math.ldexp(int(m), -e) for m in rng.integers(lo, hi, per_exponent)
                 if m % 2]
    for x in ties:
        digits = decimal.Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x
    return np.array(ties)


def edge_values() -> np.ndarray:
    """Both signs of: the "%g" switch points and every power of ten the
    decimal kernel meets with the three doubles below it and the one above
    (the rounding of 17 digits into the next decade), exact ties,
    subnormals, the largest double, zero, infinity and nan."""
    powers = np.array([1e-5, 9.9999999999999995e-05, 1e16, 1e17, 99999999999999999.0]
                      + [10.0 ** k for k in range(-13, 19)])
    below = [powers]
    for _ in range(3):
        below.append(np.nextafter(below[-1], 0))
    values = np.concatenate(below + [
        np.nextafter(powers, np.inf), exact_ties(np.random.default_rng(7)),
        [5e-324, 3 * 5e-324, np.nextafter(2.2250738585072014e-308, 0),
         2.2250738585072014e-308, 1.7976931348623157e308, 0.0, np.inf, np.nan]])
    return np.concatenate([values, -values])


def test_csv_rows_edges_match_python_format():
    # one value per row, and the same values as rows of seven
    values = edge_values()
    assert cli._csv_rows(values[:, None]) == python_rows(values[:, None])
    table = values[:len(values) // 7 * 7].reshape(-1, 7)
    assert cli._csv_rows(table) == python_rows(table)


def test_csv_rows_sweep_matches_python_format():
    # 2**19 random bit patterns and 2**19 values log-uniform on 1e-13..1e18
    # with random signs, 8192 at a time as rows of 256
    rng = np.random.default_rng(20251020)
    for _ in range(64):
        bits = rng.integers(0, 2 ** 64, 8192, dtype=np.uint64).view(np.float64)
        mags = 10.0 ** rng.uniform(-13, 18, 8192) * rng.choice([-1.0, 1.0], 8192)
        for table in (bits.reshape(-1, 256), mags.reshape(-1, 256)):
            assert cli._csv_rows(table) == python_rows(table)


def test_csv_rows_do_not_depend_on_their_chunk():
    rng = np.random.default_rng(3)
    values = np.concatenate([edge_values(), 10.0 ** rng.uniform(-13, 18, 1000)])
    table = rng.permutation(values)[:len(values) // 9 * 9].reshape(-1, 9)
    whole = cli._csv_rows(table)
    for step in (1, 4, 7):
        assert b"".join(cli._csv_rows(table[i:i + step])
                        for i in range(0, len(table), step)) == whole


def test_csv_fast_path_taken():
    # a guard that sent more values to the fallback would keep every byte
    # and lose the speed: at most 0.1% of a simulate-d3-like record falls
    # back (its zeros)
    config = SimConfig(d=3, p=1.9, nu=1.0, n=2, dt=1e-3, T=0.05, n_paths=2, seed=5,
                       init=GaussianInit(sigma=1.0, decay=1.0),
                       gamma=PowerLawSpectrum(c=0.1, s=3.0))
    for rec in simulate_ensemble(config):
        table = np.column_stack([rec.times, rec.norm_l2_sq, rec.norm_p1_p,
                                 rec.int_diss, rec.int_gamma, rec.coords])
        ok = cli._decimal17(table.ravel())[2]
        assert table.size > 10_000 and 1 - ok.mean() <= 0.001


class TestWorkerWrites:
    """With SPLF_THREADS=2 each ensemble worker writes its own paths' CSVs
    and snapshots, and the parent writes the manifest."""

    @pytest.fixture
    def writers(self, tmp_path, monkeypatch):
        """Two workers whatever the host's core count, and a log of the pid
        that wrote each CSV; forked workers inherit the wrapper."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        log = tmp_path / "writers.log"
        write_csv = cli._write_record_csv

        def logged(record, path):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            return write_csv(record, path)

        monkeypatch.setattr(cli, "_write_record_csv", logged)

        def read():
            lines = log.read_text().splitlines() if log.exists() else []
            log.unlink(missing_ok=True)
            return [int(line) for line in lines]
        return read

    @pytest.mark.parametrize("ini", ["small", "diverging"])
    def test_one_and_two_workers_write_the_same_outputs(
            self, tmp_path, monkeypatch, capsys, writers, ini):
        cfg = small_ini(tmp_path)
        if ini == "diverging":  # 5 of 8 paths diverge and get no snapshot
            cfg.write_text(DIVERGING + "\n[outputs]\nsnapshots = true\n")
        outs, pids = {}, {}
        for threads in (1, 2):
            monkeypatch.setenv("SPLF_THREADS", str(threads))
            outs[threads] = tmp_path / f"out{threads}"
            assert cli.main(["simulate", "--config", str(cfg),
                             "--out", str(outs[threads])]) == 0
            pids[threads] = set(writers())
        names = sorted(f.name for f in outs[1].iterdir())
        assert names == sorted(f.name for f in outs[2].iterdir())
        assert len(names) == {"small": 9, "diverging": 12}[ini]
        for name in names:
            if name != "manifest.json":
                assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes()
        one, two = (json.loads((outs[t] / "manifest.json").read_text()) for t in (1, 2))
        assert one["outputs"] == two["outputs"] and one["paths"] == two["paths"]
        # each digest was taken from the bytes its writer wrote, in the
        # process that wrote them: it must be the digest of the file
        for t, manifest in ((1, one), (2, two)):
            assert sorted(o["file"] for o in manifest["outputs"]) == [
                name for name in names if name != "manifest.json"]
            for o in manifest["outputs"]:
                assert o["sha256"] == hashlib.sha256(
                    (outs[t] / o["file"]).read_bytes()).hexdigest()
        assert pids[1] == {os.getpid()}
        assert pids[2] and os.getpid() not in pids[2]

    def test_failed_write_in_a_worker_fails_loudly(self, tmp_path, monkeypatch,
                                                   capsys, writers):
        cfg = small_ini(tmp_path)
        out = tmp_path / "out"
        (out / "path_000003.csv").mkdir(parents=True)
        monkeypatch.setenv("SPLF_THREADS", "2")
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 21] Is a directory: '{out / 'path_000003.csv'}'\n")
        assert not (out / "manifest.json").exists()
        with pytest.raises(ChildProcessError):     # every worker was reaped
            os.waitpid(-1, os.WNOHANG)
        pids = set(writers())
        assert pids and os.getpid() not in pids
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class LogWrites:
    """A `write` that appends `<pid> write <path index>` to a log file, so
    forked ensemble workers log to the same file."""

    def __init__(self, log):
        self.log = log

    def __call__(self, record):
        assert isinstance(record, TrajectoryRecord) and record.norm_p1_p is not None
        with open(self.log, "a") as f:
            f.write(f"{os.getpid()} write {record.path_index}\n")


def ini_config(tmp_path, ini, **kw):
    """The small or the diverging INI as a SimConfig."""
    if ini == "diverging":
        (tmp_path / "run.ini").write_text(DIVERGING)
        path = tmp_path / "run.ini"
    else:
        path = small_ini(tmp_path)
    return dataclasses.replace(parse_config(path)[0], **kw)


class TestOutcomeRoute:
    """simulate_ensemble(config, write=...) hands every record to write as
    soon as its block ends and returns only each path's PathOutcome."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("ini", ["small", "diverging"])
    def test_outcomes_match_records(self, tmp_path, monkeypatch, threads, ini):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        config = ini_config(tmp_path, ini)
        monkeypatch.setenv("SPLF_THREADS", "1")
        records = simulate_ensemble(config)
        monkeypatch.setenv("SPLF_THREADS", str(threads))
        log = tmp_path / "writes.log"
        outcomes = simulate_ensemble(config, write=LogWrites(log))
        assert all(isinstance(o, PathOutcome) for o in outcomes)
        assert [tuple(o) for o in outcomes] == [
            (r.path_index, r.diverged, r.diverged_step, None) for r in records]
        assert any(o.diverged for o in outcomes) == (ini == "diverging")
        written = [int(line.split()[2]) for line in log.read_text().splitlines()]
        assert sorted(written) == list(range(config.n_paths))

    @pytest.mark.parametrize("ini", ["small", "diverging"])
    def test_worker_result_is_small(self, tmp_path, ini):
        # what a worker pickles back to the parent: four fields per path
        # (write's return value last, here None), not the records (about
        # 100 KB per path of the d=3 benchmark)
        config = ini_config(tmp_path, ini)
        task = (config, list(range(config.n_paths)), True)
        outcomes = it._worker((*task, LogWrites(tmp_path / "writes.log")))
        records = it._worker((*task, None))
        size = len(pickle.dumps(outcomes, protocol=pickle.HIGHEST_PROTOCOL))
        assert size < 200 * config.n_paths
        assert len(pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL)) > 10 * size

    @pytest.mark.parametrize("threads", [1, 2])
    def test_write_gets_each_block_before_the_next_runs(self, tmp_path, monkeypatch,
                                                        threads):
        # 70 paths at d=2, n=2 run in blocks of 32; each process logs the
        # start of every block and every write, and forked workers inherit
        # the wrapped run
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("SPLF_THREADS", str(threads))
        log = tmp_path / "writes.log"
        run = it._BlockStepper.run

        def logged_run(self, labels, x0):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} run {','.join(map(str, labels))}\n")
            return run(self, labels, x0)

        monkeypatch.setattr(it._BlockStepper, "run", logged_run)
        config = ini_config(tmp_path, "small", n_paths=70)
        assert it.block_size(config.d, config.n) == 32
        simulate_ensemble(config, write=LogWrites(log))
        by_pid = {}
        for line in log.read_text().splitlines():
            pid, what, labels = line.split()
            by_pid.setdefault(pid, []).append((what, labels))
        chunks = [list(range(70))[i::threads] for i in range(threads)]
        want = []
        for chunk in chunks:
            blocks = [chunk[i:i + 32] for i in range(0, len(chunk), 32)]
            want.append([e for b in blocks for e in
                         [("run", ",".join(map(str, b)))] + [("write", str(i)) for i in b]])
        assert sorted(by_pid.values()) == sorted(want)
        assert (str(os.getpid()) in by_pid) == (threads == 1)


@contextmanager
def interrupt_after(seconds, exc_type):
    """Raise exc_type in this process after `seconds` of wall time, from a
    SIGALRM handler; forked children do not inherit the timer."""
    def handler(signum, frame):
        raise exc_type(f"interrupted after {seconds} s")

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestForkJoin:
    """A fanned-out ensemble forks one worker per chunk of paths, each with
    its own pipe, and reaps every worker whether the call returns, raises or
    is interrupted.  Each `write` here is a closure: a worker inherits it
    through the fork, so it need not be picklable."""

    @pytest.fixture
    def fan_out(self, tmp_path, monkeypatch):
        """The small config at two workers, and a log of the pids of the
        workers that wrote."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("SPLF_THREADS", "2")
        log = tmp_path / "pids.log"

        def logged_pids():
            return [int(line) for line in log.read_text().splitlines()]
        return ini_config(tmp_path, "small"), log, logged_pids

    @pytest.mark.parametrize("end", ["exit", "sigkill"])
    def test_worker_that_ends_without_a_result_is_named(self, fan_out, end):
        config, log, logged_pids = fan_out
        parent = os.getpid()

        def write(record):
            if os.getpid() != parent and record.path_index == 1:
                with open(log, "a") as f:
                    f.write(f"{os.getpid()}\n")
                if end == "exit":
                    os._exit(3)
                os.kill(os.getpid(), signal.SIGKILL)

        with interrupt_after(60, TimeoutError):   # a hang fails, not blocks
            with pytest.raises(RuntimeError) as err:
                simulate_ensemble(config, write=write)
        [pid] = logged_pids()
        status = 3 << 8 if end == "exit" else signal.SIGKILL
        assert str(err.value) == (f"ensemble worker {pid} ended without a result "
                                  f"(wait status {status})")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_exception_keeps_type_message_and_traceback(self, fan_out):
        config, log, logged_pids = fan_out
        parent = os.getpid()

        def failing_write(record):
            if os.getpid() != parent and record.path_index == 2:
                with open(log, "a") as f:
                    f.write(f"{os.getpid()}\n")
                raise KeyError(f"no room for path {record.path_index}")

        with interrupt_after(60, TimeoutError):
            with pytest.raises(KeyError) as err:
                simulate_ensemble(config, write=failing_write)
        assert type(err.value) is KeyError
        assert err.value.args == ("no room for path 2",)
        [pid] = logged_pids()
        cause = str(err.value.__cause__)
        assert cause.startswith(f"in ensemble worker {pid}:\nTraceback (most recent call last):")
        assert "in failing_write" in cause
        assert cause.rstrip().endswith("KeyError: 'no room for path 2'")

    def test_result_that_cannot_be_pickled_is_named(self, fan_out):
        # write's return value goes back to the parent in PathOutcome.written;
        # Python 3.11 raises AttributeError here; a later one may raise PicklingError
        config, _, _ = fan_out
        with interrupt_after(60, TimeoutError):
            with pytest.raises((AttributeError, pickle.PicklingError),
                               match="Can't pickle local object") as err:
                simulate_ensemble(config, write=lambda record: lambda: None)
        assert "in ensemble worker" in str(err.value.__cause__)

    def test_interrupted_parent_kills_and_reaps_its_workers(self, fan_out):
        config, log, logged_pids = fan_out

        def stalled_write(record):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            time.sleep(60)

        t0 = time.monotonic()
        with interrupt_after(2.0, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                simulate_ensemble(config, write=stalled_write)
        assert time.monotonic() - t0 < 30
        pids = logged_pids()
        assert len(pids) == 2 and os.getpid() not in pids
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def reject_constant(token):
    raise ValueError(f"not RFC 8259 JSON: {token}")


class TestCliChecks:
    def test_uniqueness_exact_branch(self, tmp_path, capsys):
        cfg = small_ini(tmp_path, n_paths=3)
        code = cli.main(["uniqueness-check", "--config", str(cfg),
                         "--eps", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("uniqueness-check,pass,branch=exact")

    def test_uniqueness_gronwall_branch(self, tmp_path, capsys):
        cfg = small_ini(tmp_path, n_paths=3, record_every=1)
        code = cli.main(["uniqueness-check", "--config", str(cfg),
                         "--eps", "1e-4", "--calibration", "4",
                         "--out", str(tmp_path / "rep")])
        out = capsys.readouterr().out
        assert code == 0
        assert "branch=gronwall" in out
        report = json.loads((tmp_path / "rep" / "uniqueness_report.json").read_text())
        assert report["n_validation"] == 3

    @pytest.mark.parametrize("args", [["--eps", "0"],
                                      ["--eps", "1e-3", "--calibration", "8"]])
    def test_uniqueness_fails_on_diverged_pairs(self, tmp_path, capsys, args):
        # 5 of the 8 paths cross the norm ceiling
        path = tmp_path / "diverging.ini"
        path.write_text(DIVERGING)
        out = tmp_path / "rep"
        code = cli.main(["uniqueness-check", "--config", str(path), *args,
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().out.startswith("uniqueness-check,fail,")
        # strict JSON: no bare Infinity or NaN, even for max_separation=inf
        report, _ = (json.loads((out / name).read_text(), parse_constant=reject_constant)
                     for name in ("uniqueness_report.json", "manifest.json"))
        if args[1] == "0":
            assert report["max_separation"] == "inf"

    @pytest.mark.parametrize("args", [["energy-check"],
                                      ["uniqueness-check", "--eps", "0"],
                                      ["uniqueness-check", "--eps", "1e-3",
                                       "--calibration", "8"]],
                             ids=["energy", "exact", "gronwall"])
    def test_check_manifest_names_diverged_paths(self, tmp_path, capsys, args):
        path = tmp_path / "diverging.ini"
        path.write_text(DIVERGING)
        out = tmp_path / "rep"
        assert cli.main([*args, "--config", str(path), "--out", str(out)]) == 1
        line = capsys.readouterr().out
        listed = json.loads((out / "manifest.json").read_text())["paths"]
        # the runs again, apart from the check
        config, _ = parse_config(path)
        if args[0] == "energy-check":
            runs = [("main", config), ("control", dataclasses.replace(config, dt=config.dt / 2))]
            records = [(run, r) for run, c in runs for r in simulate_ensemble(c)]
            main = records[:config.n_paths]
            assert line.endswith(f",diverged={sum(r.diverged for _, r in main)}\n")
        elif args[2] == "0":
            indices = range(config.n_paths)
            x0 = np.array([initial_coords(config, i) for i in indices])
            records = [("exact", r) for r in simulate_paired(config, indices, x0, x0.copy())]
        else:
            report = json.loads((out / "uniqueness_report.json").read_text())
            assert report["n_diverged"] == len(listed)
            pairs = dg._perturbed_pairs(config, range(config.n_paths), 1e-3)
            records = [("validation", r) for pair in pairs for r in pair]
            listed = [p for p in listed if p["run"] != "calibration"]
        want = [{"run": run, "path_index": r.path_index, "diverged_step": r.diverged_step}
                for run, r in records if r.diverged]
        assert want and listed == want

    def test_non_finite_report_values_are_strings(self):
        report = {"x": np.array([np.inf, -np.inf, np.nan, 0.5]), "y": (np.float64(-np.inf),)}
        assert cli._jsonable(report) == {"x": ["inf", "-inf", "nan", 0.5], "y": ["-inf"]}

    def test_uniqueness_calibration_count_named(self, tmp_path, capsys):
        cfg = small_ini(tmp_path, n_paths=3, record_every=1)
        code = cli.main(["uniqueness-check", "--config", str(cfg),
                         "--eps", "1e-3", "--calibration", "0"])
        assert code == 2
        assert "n_calibration" in capsys.readouterr().err

    @pytest.mark.parametrize("args,name", [
        (["--eps", "1e-3", "--margin", "nan"], "margin"),
        (["--eps", "1e-3", "--margin", "inf"], "margin"),
        (["--eps", "1e-3", "--margin", "-0.1"], "margin"),
        (["--eps", "nan"], "eps"),
        (["--eps", "inf"], "eps"),
    ])
    def test_uniqueness_margin_and_eps_named(self, tmp_path, capsys, monkeypatch,
                                             args, name):
        # a NaN envelope holds for every separation: the check must refuse
        # the input before any pair runs, not print pass
        from splf import diagnostics

        def no_pairs(*a, **kw):
            raise AssertionError("pairs were run before the check")

        monkeypatch.setattr(diagnostics, "simulate_paired", no_pairs)
        cfg = small_ini(tmp_path, n_paths=3, record_every=1)
        code = cli.main(["uniqueness-check", "--config", str(cfg), *args,
                         "--calibration", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"error: {name}: must be" in captured.err

    @pytest.mark.parametrize("args,name,digest", [
        (["energy-check"], "energy_report.json",
         "e6a89328f621d05337cdca991f11706d87fc68917455e2dc497fae38b073991a"),
        (["uniqueness-check", "--eps", "0"], "uniqueness_report.json",
         "6c98cd40a4b15f570ecfb6286985c8391547bc8e3b8c24005190568b9566eb08"),
        (["uniqueness-check", "--eps", "1e-4", "--calibration", "4"],
         "uniqueness_report.json",
         "e643dc320783900a09ca6bcca1ed1330ce6eea5795d1ac263f348d7b2e29baf5"),
    ], ids=["energy", "exact", "gronwall"])
    def test_report_bytes_pinned(self, tmp_path, capsys, args, name, digest):
        cfg = small_ini(tmp_path, n_paths=3, record_every=1)
        out = tmp_path / "rep"
        assert cli.main([*args, "--config", str(cfg), "--out", str(out)]) == 0
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["verdict"] == "pass"
        assert manifest["outputs"] == [{"file": name, "sha256": digest}]

    @pytest.mark.parametrize("args,options", [
        (["simulate"], {}),
        (["energy-check"], {}),
        (["uniqueness-check", "--eps", "0"],
         {"eps": 0.0, "margin": 0.5, "calibration": 64}),
        (["uniqueness-check", "--eps", "1e-4", "--calibration", "4", "--margin", "0.25"],
         {"eps": 1e-4, "margin": 0.25, "calibration": 4}),
    ], ids=["simulate", "energy", "exact", "gronwall"])
    def test_manifest_reruns_the_command(self, tmp_path, capsys, args, options):
        # --eps, --margin and --calibration set the verdict, and neither the
        # report nor the config snapshot held them; --config and --out are
        # the manifest's config_ini and its own directory
        cfg = small_ini(tmp_path, n_paths=3, record_every=1)
        out = tmp_path / "rep"
        code = cli.main([*args, "--config", str(cfg), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == {"name": args[0], "options": options}
        # the manifest alone reruns it to the same output bytes
        ini = tmp_path / "again.ini"
        ini.write_text(manifest["config_ini"])
        again = tmp_path / "again"
        argv = [args[0], *(a for k, v in options.items() for a in (f"--{k}", repr(v)))]
        assert cli.main([*argv, "--config", str(ini), "--out", str(again)]) == code
        assert json.loads((again / "manifest.json").read_text())["outputs"] == (
            manifest["outputs"])

    def test_energy_check_emits_verdict(self, tmp_path, capsys):
        # small ensemble: only the verdict wiring is under test here
        cfg = small_ini(tmp_path, n_paths=32, record_every=100)
        code = cli.main(["energy-check", "--config", str(cfg),
                         "--out", str(tmp_path / "rep")])
        out = capsys.readouterr().out
        assert out.startswith("energy-check,")
        assert code in (0, 1)
        report = json.loads((tmp_path / "rep" / "energy_report.json").read_text())
        assert "shrink_ratio" in report


# The names that perfbench/spans.py and perfbench/child.py replace with
# wrappers on splf.cli: the commands must look them up there at call time.
PERFBENCH_HOOKS = ["simulate_ensemble", "energy_experiment", "gronwall_experiment",
                   "identical_noise_separation", "coords_to_field", "write_snapshot",
                   "_write_record_csv", "_sha256", "_write_manifest"]


def test_commands_call_hooked_names_through_module(tmp_path, monkeypatch, capsys):
    calls = dict.fromkeys(PERFBENCH_HOOKS, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in PERFBENCH_HOOKS:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    cfg = small_ini(tmp_path, n_paths=2, record_every=50)
    for i, argv in enumerate([["simulate"], ["energy-check"],
                              ["uniqueness-check", "--eps", "0"],
                              ["uniqueness-check", "--eps", "1e-3",
                               "--calibration", "2"]]):
        code = cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / str(i))])
        assert code in (0, 1)
    assert all(calls.values()), calls


def test_pair_and_ensemble_hooks_see_every_record(tmp_path, monkeypatch, capsys):
    # perfbench/child.py's DivergedCounter sums `rec.diverged` over whatever
    # these two names return, so every record of a check must pass through
    # them, as an iterable of records
    from splf import diagnostics

    seen = {"simulate_paired": [], "simulate_ensemble": []}

    def wrapped(name, fn):
        def wrapper(*args, **kwargs):
            records = fn(*args, **kwargs)
            assert all(isinstance(rec, TrajectoryRecord) for rec in records)
            seen[name] += [rec.path_index for rec in records]
            return records
        return wrapper

    for name in seen:
        monkeypatch.setattr(diagnostics, name, wrapped(name, getattr(diagnostics, name)))
    cfg = small_ini(tmp_path, n_paths=3, record_every=50)
    expected = {
        ("energy-check",): {"simulate_paired": [],
                            "simulate_ensemble": [0, 1, 2] * 2},
        ("uniqueness-check", "--eps", "0"): {
            "simulate_paired": [0, 0, 1, 1, 2, 2], "simulate_ensemble": []},
        ("uniqueness-check", "--eps", "1e-3", "--calibration", "2"): {
            "simulate_paired": [1_000_000] * 2 + [1_000_001] * 2 + [0, 0, 1, 1, 2, 2],
            "simulate_ensemble": []},
    }
    for argv, want in expected.items():
        for name in seen:
            seen[name] = []
        assert cli.main([*argv, "--config", str(cfg)]) in (0, 1)
        assert seen == want, argv
