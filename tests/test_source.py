"""Checks on the package source itself."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import splf
from splf import cli


def test_no_assert_statements():
    # python -O strips assert statements, so input checks must raise
    found = []
    for path in sorted(Path(splf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def modules_but_spectral():
    """(file name, syntax tree) of every package module but spectral.py."""
    for path in sorted(Path(splf.__file__).parent.glob("*.py")):
        if path.name != "spectral.py":
            yield path.name, ast.parse(path.read_text(), filename=str(path))


def named(node):
    """The names a node states: a name, an attribute or an imported name."""
    return {getattr(node, f, None) for f in ("id", "attr", "name")}


# The tables of the band transform pair of spectral._GridMap
BAND_TABLES = {"F", "W", "Wa", "Fa", "half", "flip", "box_pos", "box_neg",
               "plane", "plane_partner"}


def test_band_layout_stays_in_spectral():
    # the drift and the quadrature call synthesize and analyse; no other
    # module may depend on how the band is laid out
    found = []
    for name, tree in modules_but_spectral():
        found += [f"{name}:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in BAND_TABLES]
    assert not found, found


def test_quadrature_grid_is_picked_in_spectral():
    # spectral.grid_lp_means is the one L_p route: no other module names
    # norm_grid_size or calls lp_means, so none picks a quadrature grid
    found = []
    for name, tree in modules_but_spectral():
        for node in ast.walk(tree):
            if "norm_grid_size" in named(node):
                found.append(f"{name}:{node.lineno}: norm_grid_size")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "lp_means"):
                found.append(f"{name}:{node.lineno}: .lp_means()")
    assert not found, found


# The functions whose grid a caller sets: the oracle fields sampled on a
# grid of the caller's choosing, and the pairing grid they share
GRID_OVERRIDES = {"_common_map", "rate_of_strain", "stress", "convection",
                  "to_grid"}


def test_grid_override_only_where_a_caller_sets_it():
    # every other quadrature takes its grid from one rule, the pairing grid
    # or norm_grid_size; an M=None that no caller sets is a second rule
    found = []
    for path in sorted(Path(splf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            pairs = (list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
                     + list(zip(a.kwonlyargs, a.kw_defaults)))
            found += [node.name for arg, default in pairs
                      if arg.arg == "M" and isinstance(default, ast.Constant)
                      and default.value is None]
    assert sorted(found) == sorted(GRID_OVERRIDES), found


def test_coordinate_layout_stays_in_spectral():
    # spectral.basis(d, n) states where a basis element sits among the
    # coordinates (`coord`); no other module indexes the modes itself
    found = []
    for name, tree in modules_but_spectral():
        found += [f"{name}:{node.lineno}: {hit}" for node in ast.walk(tree)
                  for hit in named(node) & {"_mode_index", "half_space_modes"}]
    assert not found, found


def test_pairs_are_built_in_one_place():
    # both uniqueness branches take their common-noise pairs from
    # diagnostics._perturbed_pairs, the one call site of simulate_paired
    sites = []
    for path in sorted(Path(splf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        sites += [(path.name, getattr(top, "name", None)) for top in tree.body
                  for node in ast.walk(top) if isinstance(node, ast.Call)
                  and "simulate_paired" in named(node.func)]
    assert sites == [("diagnostics.py", "_perturbed_pairs")], sites


# The helpers of constitutive's oracle routes (stress, pairing_stress,
# convection, pairing_convection and the tests' full-grid drift)
ORACLE_HELPERS = {"_strain_from_gradient", "_stress_from_strain",
                  "_grid_and_gradient", "convection", "pairing_stress",
                  "pairing_convection"}


def test_drift_kernel_shares_no_oracle_helper():
    # the identity tests compare the drift with the oracle routes, so the
    # two must stay independent: _drift_core, and every function of
    # constitutive that it reaches, names none of the oracles' helpers
    path = Path(splf.__file__).parent / "constitutive.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    found, todo, seen = [], ["_drift_core"], set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(functions[name]):
            found += [f"constitutive.py:{node.lineno}: {hit} (in {name})"
                      for hit in named(node) & ORACLE_HELPERS]
            todo += [hit for hit in named(node) & set(functions) - seen - {name}]
    assert not found, found


def library_names():
    """{qualified name: function} of the library's public names: each
    module-level function in a module's __all__, and each method that a
    class in an __all__ defines in its module's source, public or dunder.
    Methods that dataclass generates are not in the source, and an alias
    (`__rmul__ = __mul__`) counts once, under the name it was defined with."""
    names = {}
    for path in sorted(Path(splf.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"splf.{path.stem}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and not attr.endswith("__"):
                        continue
                    member = getattr(member, "__func__", getattr(member, "fget", member))
                    if (inspect.isfunction(member) and member.__name__ == attr
                            and member.__code__.co_filename == str(path)):
                        names[f"{path.stem}.{name}.{attr}"] = member
            elif inspect.isfunction(inspect.unwrap(obj)):       # lru_cache too
                names[f"{path.stem}.{name}"] = inspect.unwrap(obj)
    return names


COMMAND_CONFIGS = {
    # a single mode, a power-law spectrum and the tamed stepper, with snapshots
    "a.ini": """
[model]
d = 2
p = 2.5
nu = 1.0
n = 1
[time]
dt = 0.01
T = 0.03
[ensemble]
n_paths = 2
seed = 1
[init]
kind = single_mode
z = 1 0
j = 1
amplitude = 0.5
[gamma]
kind = power
c = 0.1
s = 3.0
[outputs]
snapshots = true
""",
    # Gaussian coordinates, an explicit spectrum and Euler-Maruyama
    "b.ini": """
[model]
d = 2
p = 2.5
nu = 0.1
n = 1
[time]
dt = 0.01
T = 0.03
[ensemble]
n_paths = 2
seed = 2
stepper = euler_maruyama
[init]
kind = gaussian
sigma = 1.0
decay = 1.0
[gamma]
kind = explicit
entries =
    1 0 1 0.5
    0 1 2 0.25
""",
}


def command_argvs(tmp_path):
    """The five commands, each as `splf` runs it: energy-check, both
    uniqueness-check branches, simulate with snapshots, and exponents
    with and without --p."""
    for name, text in COMMAND_CONFIGS.items():
        (tmp_path / name).write_text(text)
    a, b = str(tmp_path / "a.ini"), str(tmp_path / "b.ini")
    return [["energy-check", "--config", a, "--out", str(tmp_path / "energy")],
            ["uniqueness-check", "--config", b, "--eps", "0",
             "--out", str(tmp_path / "exact")],
            ["uniqueness-check", "--config", b, "--eps", "1e-3",
             "--calibration", "2", "--out", str(tmp_path / "gronwall")],
            ["simulate", "--config", a, "--out", str(tmp_path / "simulate")],
            ["exponents", "--d", "3"],
            ["exponents", "--d", "3", "--p", "2.5", "--csv"]]


def readme_library_layer():
    """The names in the first column of the README's "Library layer" table."""
    readme = (Path(splf.__file__).resolve().parents[2] / "README.md").read_text()
    section = readme.split("\n## Library layer\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([\w.]+)` \|", section, re.M)


def unreached_names(out_dir):
    """The library_names that none of the command_argvs reaches, each run
    through splf.cli.main in this process under sys.setprofile."""
    names = library_names()
    by_code = {f.__code__: name for name, f in names.items()}
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in by_code:
            reached.add(by_code[frame.f_code])

    argvs = command_argvs(Path(out_dir))
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in argvs]
    finally:
        sys.setprofile(None)
    if codes != [0] * len(argvs):
        raise RuntimeError(f"exit codes {codes} of {argvs}")
    return sorted(set(names) - reached)


def test_library_layer_is_the_readme_table(tmp_path):
    # every public name that no command reaches has a row, and a stated
    # job, in the README's "Library layer" table; a name no command needs
    # and no job keeps is deleted, not listed.  The commands run in a
    # fresh interpreter: a name that runs only on a cold lru_cache (the
    # basis builds half_space_modes once per (d, n)) would otherwise be
    # reached or not by the order of the tests.
    tests = Path(__file__).resolve().parent
    src = str(Path(splf.__file__).resolve().parents[1])
    code = ("import json, sys, test_source; "
            "print(json.dumps(test_source.unreached_names(sys.argv[1])))")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(tests)]),
                                  SPLF_THREADS="1"),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    table = readme_library_layer()
    assert len(table) == len(set(table)), "a name is listed twice"
    assert json.loads(out.stdout.splitlines()[-1]) == sorted(table)


def test_single_worker_run_loads_no_process_pool(tmp_path):
    # the process pool and the multiprocessing modules under it add about
    # 2 MB to a fresh process's peak RSS; only an ensemble that fans out
    # imports them
    (tmp_path / "a.ini").write_text(COMMAND_CONFIGS["a.ini"])
    code = ("import json, sys; from splf import cli; "
            "code = cli.main(['energy-check', '--config', sys.argv[1], '--out', sys.argv[2]]); "
            "print(json.dumps([code, [m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules]]))")
    src = str(Path(splf.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "a.ini"),
                          str(tmp_path / "energy")],
                         env=dict(os.environ, PYTHONPATH=src, SPLF_THREADS="1"),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == [0, []]
