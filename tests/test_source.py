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


# The tables of the band transform pair of spectral._GridMap
BAND_TABLES = {"F", "W", "Wa", "Fa", "half", "flip", "box_pos", "box_neg",
               "plane", "plane_partner"}


def test_band_layout_stays_in_spectral():
    # the drift and the quadrature call synthesize and analyse; no other
    # module may depend on how the band is laid out
    found = []
    for path in sorted(Path(splf.__file__).parent.glob("*.py")):
        if path.name == "spectral.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in BAND_TABLES]
    assert not found, found


def test_quadrature_grid_is_picked_in_spectral():
    # spectral.grid_lp_means is the one L_p route: no other module names
    # norm_grid_size or calls lp_means, so none picks a quadrature grid
    found = []
    for path in sorted(Path(splf.__file__).parent.glob("*.py")):
        if path.name == "spectral.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            # a name, an attribute or an imported name
            if "norm_grid_size" in {getattr(node, f, None) for f in ("id", "attr", "name")}:
                found.append(f"{path.name}:{node.lineno}: norm_grid_size")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "lp_means"):
                found.append(f"{path.name}:{node.lineno}: .lp_means()")
    assert not found, found
