"""Checks on the package source itself."""

import ast
from pathlib import Path

import splf


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


def test_coordinate_layout_stays_in_spectral():
    # spectral.basis(d, n) states where a basis element sits among the
    # coordinates (`coord`); no other module indexes the modes itself
    found = []
    for name, tree in modules_but_spectral():
        found += [f"{name}:{node.lineno}: {hit}" for node in ast.walk(tree)
                  for hit in named(node) & {"_mode_index", "half_space_modes"}]
    assert not found, found
