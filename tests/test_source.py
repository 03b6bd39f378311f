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
    # 2 MB to a fresh process's peak RSS.  A run that stays in one process
    # never needs them, and a fanned-out one forks its workers by os.fork
    # (forkjoin.fork_join), so neither fresh interpreter loads them; only
    # the second loads splf.forkjoin.  It patches os.cpu_count so that it
    # forks two workers on any host, and whether it forked shows in the
    # children's peak RSS.
    (tmp_path / "a.ini").write_text(COMMAND_CONFIGS["a.ini"].replace(
        "n_paths = 2", "n_paths = 4"))      # 2 workers need at least 4 paths
    code = ("import json, os, resource, sys; os.cpu_count = lambda: 2; "
            "from splf import cli; "
            "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]; "
            "print(json.dumps([codes, [m for m in ('concurrent.futures', 'multiprocessing', "
            "'splf.forkjoin') if m in sys.modules], "
            "resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss > 0]))")
    src = str(Path(splf.__file__).resolve().parents[1])

    def run(threads, *argvs):
        out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                             env=dict(os.environ, PYTHONPATH=src, SPLF_THREADS=threads),
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout.splitlines()[-1])

    ini = str(tmp_path / "a.ini")
    simulate = [["simulate", "--config", ini, "--out", str(tmp_path / f"sim{t}")]
                for t in (1, 2)]
    assert run("1", ["energy-check", "--config", ini, "--out", str(tmp_path / "energy")],
               simulate[0]) == [[0, 0], [], False]
    assert run("2", simulate[1]) == [[0], ["splf.forkjoin"], True]
    one, two = (json.loads((tmp_path / f"sim{t}" / "manifest.json").read_text())
                for t in (1, 2))
    assert len(one["outputs"]) == 8 and one["outputs"] == two["outputs"]


def test_no_module_imports_a_process_pool():
    # an ensemble fans out by os.fork with one pipe per worker; nothing in
    # the package imports concurrent.futures or multiprocessing
    found = []
    for path in sorted(Path(splf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in ("concurrent", "multiprocessing")]
    assert not found, found


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# The hooks of perfbench/spans.py that name code no longer in splf; their
# layers and counters read 0 in every traced run (ROADMAP item 8).  Any
# other hook that stops resolving is a seam a change broke.
STALE_HOOKS = {("splf.integrator", "_PathLoop.increment"),
               ("splf.integrator", "_PathLoop.run"),
               ("splf.integrator", "_NormP1.__call__"),
               ("splf.diagnostics", "gradient_lp_norm"),
               ("splf.diagnostics", "laplacian_lp_norm"),
               ("splf.diagnostics", "coords_to_field")}


def resolve(qualified):
    """The object a dotted name of splf names, as perfbench reaches it: the
    longest importable module prefix, then attributes; None if missing."""
    parts = qualified.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
        return obj
    return None


def perfbench_source(name):
    """Syntax tree of a perfbench module, read as text: nothing is imported."""
    path = PERFBENCH / name
    return ast.parse(path.read_text(), filename=str(path))


def splf_references(tree):
    """(dotted name, call or None) of each use, in a function of tree, of a
    name the function imports from splf; call is the ast.Call that calls it."""
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        imported = {}
        for node in ast.walk(function):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("splf"):
                imported.update({a.asname or a.name: f"{node.module}.{a.name}"
                                 for a in node.names})
        calls = {id(node.func): node for node in ast.walk(function)
                 if isinstance(node, ast.Call)}
        for node in ast.walk(function):
            if isinstance(node, ast.Name) and node.id in imported:
                name = imported[node.id]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in imported):
                name = f"{imported[node.value.id]}.{node.attr}"
            else:
                continue
            found.append((name, calls.get(id(node))))
    return found


def test_perfbench_seams_resolve():
    # perfbench/child.py and perfbench/spans.py reach into splf by name;
    # a name they call that no longer resolves, or no longer takes their
    # arguments, ends every benchmark round, and a hook that no longer
    # resolves silently empties its layer
    child, spans = perfbench_source("child.py"), perfbench_source("spans.py")
    refs = splf_references(child)
    missing = [name for name, _ in refs if resolve(name) is None]
    for name, call in refs:
        if call is not None and resolve(name) is not None:
            try:
                inspect.signature(resolve(name)).bind(
                    *call.args, **{k.arg: None for k in call.keywords})
            except TypeError as exc:
                missing.append(f"{name}: {exc}")
    called = {(name, len(call.args)) for name, call in refs if call is not None}
    assert {("splf.integrator.simulate", 2), ("splf.config.parse_config", 1),
            ("splf.integrator.max_workers", 0), ("splf.spectral.pairing_grid_size", 1),
            ("splf.spectral.norm_grid_size", 1)} <= called
    assert ("splf.cli.main", None) in refs
    [counter] = [node for node in child.body
                 if isinstance(node, ast.ClassDef) and node.name == "DivergedCounter"]
    [sites] = [ast.literal_eval(node.value) for node in counter.body
               if isinstance(node, ast.Assign) and named(node.targets[0]) & {"SITES"}]
    assert len(sites) == 3
    missing += [f"{m}.{n}" for m, n in sites if resolve(f"{m}.{n}") is None]
    resolved = [f"{node.args[0].value}.{node.args[1].value}" for node in ast.walk(spans)
                if isinstance(node, ast.Call) and "_resolve" in named(node.func)
                and all(isinstance(a, ast.Constant) for a in node.args)]
    assert resolved == ["splf.integrator._worker"]
    missing += [name for name in resolved if resolve(name) is None]
    # traced rounds stat args[1] of these two, the file just written
    for name in ("splf.cli._write_record_csv", "splf.cli.write_snapshot"):
        fn = resolve(name)
        if fn is None or list(inspect.signature(fn).parameters)[1:2] != ["path"]:
            missing.append(f"{name}(record, path)")
    [hooks] = [ast.literal_eval(node.value) for node in spans.body
               if isinstance(node, ast.Assign) and named(node.targets[0]) & {"HOOKS"}]
    stale = {(m, a) for _, m, a in hooks if resolve(f"{m}.{a}") is None}
    missing += sorted(f"hook {m}.{a}" for m, a in stale - STALE_HOOKS)
    assert not missing, missing
    assert stale == STALE_HOOKS


def test_ensemble_finds_its_worker_at_call_time(tmp_path, monkeypatch):
    # perfbench replaces integrator._worker with a traced wrapper before a
    # round; simulate_ensemble must look the name up when it fans out, so
    # that each forked worker runs the wrapper
    from splf import integrator as it
    from splf import noise

    log, worker = tmp_path / "workers.log", it._worker

    def traced(payload):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return worker(payload)

    monkeypatch.setattr(it, "_worker", traced)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("SPLF_THREADS", "2")
    config = it.SimConfig(d=2, p=2.0, nu=1.0, n=1, dt=0.01, T=0.02, n_paths=4, seed=1,
                          init=it.SingleModeInit(z=(1, 0), j=1, amplitude=0.5),
                          gamma=noise.ExplicitSpectrum(entries=()))
    assert [r.path_index for r in it.simulate_ensemble(config)] == [0, 1, 2, 3]
    pids = log.read_text().split()
    assert len(set(pids)) == 2 and str(os.getpid()) not in pids


def test_ensembles_have_one_per_record_hook():
    # finish is simulate_ensemble's one option: the norm column is filled by
    # the code that reads it, so no function takes a norm_p1 switch, and the
    # manifest row of `simulate` is the command's own
    switches, outcome = [], []
    for path in sorted(Path(splf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                switches += [f"{path.name}:{node.lineno}" for arg in
                             a.posonlyargs + a.args + a.kwonlyargs if arg.arg == "norm_p1"]
            if (isinstance(node, ast.ClassDef) and node.name == "PathOutcome") or (
                    isinstance(node, ast.Assign)
                    and any("PathOutcome" in named(t) for t in node.targets)):
                outcome.append(path.name)
    assert not switches, switches
    assert outcome == ["cli.py"]
    assert "PathOutcome" not in splf.integrator.__all__
    assert list(inspect.signature(splf.integrator.simulate_ensemble).parameters) == [
        "config", "finish"]
