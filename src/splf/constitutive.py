"""Nonlinear operators of the power-law fluid and their weak-form pairings.

The stress law is tau(v) = 2 nu (1 + |e(v)|^2)^((p-2)/2) e(v) with e(v) the
symmetrized velocity gradient and |.| the Frobenius norm.  Nonlinearities
are evaluated pseudo-spectrally: derivatives in coefficient space, products
pointwise on a grid oversampled to twice the one-sided mode count per axis,
which keeps quadratic products and all cubic pairings alias-free.  The
non-polynomial stress for p != 2 is evaluated on the same grid; its residual
aliasing is part of the quadrature error budget at small truncations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (
    BasisIndex,
    GridTensorField,
    GridVectorField,
    SpectralField,
    _aligned_modes,
    _GridMap,
    basis_function,
    field_to_coords,
    grid_map,
    pairing_grid_size,
)

__all__ = [
    "FluidParams",
    "rate_of_strain",
    "rate_of_strain_modes",
    "stress",
    "pairing_stress",
    "convection",
    "pairing_convection",
    "drift_coord",
    "drift",
    "drift_and_dissipation",
    "dissipation_pairing",
]


@dataclass(frozen=True)
class FluidParams:
    """Power-law exponent p > 1 and kinematic viscosity nu > 0."""

    p: float
    nu: float

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError(f"power-law exponent must exceed 1, got p={self.p}")
        if not self.nu > 0:
            raise ValueError(f"viscosity must be positive, got nu={self.nu}")


def _common_map(*fields: SpectralField, M: int | None = None) -> _GridMap:
    d = fields[0].d
    for f in fields:
        if f.d != d:
            raise ValueError("fields live in different dimensions")
    n = max(f.n for f in fields)
    return grid_map(d, n, pairing_grid_size(n) if M is None else M)


def _grid_and_gradient(field: SpectralField, gm: _GridMap):
    """Physical samples V[i] and gradient G[i, j] = d_j v_i on gm's grid."""
    vhat = _aligned_modes(field, gm.n)
    grad = vhat[:, :, None] * gm.basis.derivative(1).T[:, None]  # (Z, i, j)
    G = gm.modes_to_grid(grad.reshape(len(vhat), -1))
    return gm.modes_to_grid(vhat), G.reshape((gm.d, gm.d) + gm.shape)


def _strain_from_gradient(G: np.ndarray, axis: int = 0) -> np.ndarray:
    """Symmetric part of G over its tensor axes (axis, axis + 1)."""
    return 0.5 * (G + np.swapaxes(G, axis, axis + 1))


def _stress_from_strain(e: np.ndarray, params: FluidParams,
                        axis: int = 0) -> np.ndarray:
    esq = np.sum(e ** 2, axis=(axis, axis + 1), keepdims=True)
    return 2.0 * params.nu * (1.0 + esq) ** ((params.p - 2.0) / 2.0) * e


def rate_of_strain(v: SpectralField, M: int | None = None) -> GridTensorField:
    """Symmetrized velocity gradient (d_i v_j + d_j v_i) / 2 on the grid.

    Derivatives are exact (spectral); the trace vanishes identically for
    divergence-free input.
    """
    gm = _common_map(v, M=M)
    _, G = _grid_and_gradient(v, gm)
    return GridTensorField(d=v.d, M=gm.M, values=_strain_from_gradient(G))


def rate_of_strain_modes(v: SpectralField):
    """Spectral form of the strain: (modes, tensor coefficients (Z, d, d))."""
    z = v.modes.astype(float)
    strain = 1j * np.pi * (z[:, :, None] * v.coeffs[:, None, :] +
                           z[:, None, :] * v.coeffs[:, :, None])
    return v.modes, strain


def stress(v: SpectralField, params: FluidParams, M: int | None = None) -> GridTensorField:
    """Power-law extra stress 2 nu (1 + |e|^2)^((p-2)/2) e on the grid."""
    gm = _common_map(v, M=M)
    _, G = _grid_and_gradient(v, gm)
    e = _strain_from_gradient(G)
    return GridTensorField(d=v.d, M=gm.M, values=_stress_from_strain(e, params))


def pairing_stress(phi: SpectralField, v: SpectralField, params: FluidParams,
                   M: int | None = None) -> float:
    """< e(phi), tau(v) > by grid quadrature of the tensor contraction.

    Equals minus the weak divergence pairing < phi, div tau(v) >.
    """
    gm = _common_map(phi, v, M=M)
    _, Gv = _grid_and_gradient(v, gm)
    _, Gp = _grid_and_gradient(phi, gm)
    tau = _stress_from_strain(_strain_from_gradient(Gv), params)
    ephi = _strain_from_gradient(Gp)
    return float(np.mean(np.sum(tau * ephi, axis=(0, 1))))


def convection(v: SpectralField, w: SpectralField, M: int | None = None) -> GridVectorField:
    """Advection (v . grad) w sampled on the oversampled grid."""
    gm = _common_map(v, w, M=M)
    Vv, _ = _grid_and_gradient(v, gm)
    _, Gw = _grid_and_gradient(w, gm)
    vals = np.einsum("j...,ij...->i...", Vv, Gw)
    return GridVectorField(d=v.d, M=gm.M, values=vals)


def pairing_convection(w: SpectralField, v: SpectralField, phi: SpectralField,
                       M: int | None = None) -> float:
    """Trilinear pairing < w, (v . grad) phi > by alias-free quadrature.

    Antisymmetric under swapping w and phi for divergence-free v, with the
    self-pairing < w, (v . grad) w > vanishing.
    """
    gm = _common_map(w, v, phi, M=M)
    Vw, _ = _grid_and_gradient(w, gm)
    Vv, _ = _grid_and_gradient(v, gm)
    _, Gp = _grid_and_gradient(phi, gm)
    adv = np.einsum("j...,ij...->i...", Vv, Gp)
    return float(np.mean(np.sum(Vw * adv, axis=0)))


def dissipation_pairing(v: SpectralField, params: FluidParams,
                        M: int | None = None) -> float:
    """< e(v), tau(v) >, the (nonnegative) viscous dissipation rate."""
    return pairing_stress(v, v, params, M=M)


# ---------------------------------------------------------------------------
# Galerkin drift
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _symmetric_components(d: int):
    """Row and column of the d(d+1)/2 components i <= j of a symmetric
    tensor, and the (d, d) table of each (i, j)'s position among them."""
    i, j = np.triu_indices(d)
    sym = np.empty((d, d), dtype=np.int64)
    sym[i, j] = sym[j, i] = np.arange(len(i))
    return i, j, sym


def _drift_core(x: np.ndarray, gm: _GridMap, params: FluidParams):
    """Drift coordinates and dissipation < e, tau > in one grid pass.

    x is one coordinate vector (K,) or a block of paths (P, K); the block
    gives drift rows (P, K) and one dissipation per row.  Down: the field v
    and its gradient v_i(z) 2 pi i z_j, formed at the modes, go through
    gm.synthesize, which gives real grid values.  Up: the advection and the
    d(d+1)/2 stress components tau_ij with i <= j (e, and so tau, is exactly
    symmetric) go through gm.analyse, the adjoint, to the modes, where the
    divergence 2 pi i z_j tau_ij(z) and the subtraction of the advection
    are taken.  The pointwise stage keeps the components before the grid
    axes, with one transposing copy from the pair's layout, and works in
    place so that few block-sized arrays are alive at once: the advection
    goes straight into the pair's layout, the synthesised values are
    dropped once the strain is formed, the dissipation density overwrites
    the strain, each tau_ij is copied into the layout on its own, and the
    strain and stress are dropped before the analysis.  One call at d=3,
    n=2 peaks at 270-290 kB per path (tracemalloc), so the memory grows
    slowly with the block.  The values are those of the oracle routes'
    _strain_from_gradient, _stress_from_strain and sum(e * tau), byte for
    byte.  The pair acts on each row alone, einsum sums each point alone
    and the dissipation is a mean over each row's contiguous grid axis,
    that row's own pairwise sum; so a row's result does not depend on the
    block it was computed in.
    """
    d, M = gm.d, gm.M
    block = x.reshape(-1, x.shape[-1])
    P = block.shape[0]
    ik = gm.basis.derivative(1).T                         # (Z, d)
    vhat = gm.basis.coords_to_modes(block)                # (P, Z, d)
    grad = (vhat[..., None] * ik[:, None]).reshape(P, -1, d * d)
    spec = np.concatenate([vhat, grad], axis=2)           # (P, Z, d + d^2)
    # one expression, so the synthesized values are freed before the
    # pointwise steps: kept alive, they made those steps 1.6x slower at d=2
    # in blocks of 32
    down = np.ascontiguousarray(gm.synthesize(spec).swapaxes(1, 2)).reshape(
        (P, -1) + gm.shape)
    G = down[:, d:].reshape((P, d, d) + gm.shape)
    i, j, sym = _symmetric_components(d)
    # the advection and tau_ij, i <= j, written straight into the pair's layout
    c = d + len(i)
    values = np.empty((P,) + gm.shape[:-1] + (c, M))
    up = np.moveaxis(values, -2, 1)                       # a view, (P, c, M, .., M)
    np.einsum("pj...,pij...->pi...", down[:, :d], G, out=up[:, :d])
    e = np.add(G, G.swapaxes(1, 2))
    e *= 0.5
    del down, G
    tau = _stress_from_strain(e, params, axis=1)
    density = np.sum(np.multiply(e, tau, out=e), axis=(1, 2))
    diss = density.reshape(P, -1).mean(axis=1)
    for k, (a, b) in enumerate(zip(i, j)):
        up[:, d + k] = tau[:, a, b]
    del e, tau
    band = gm.analyse(values.reshape(P, -1, c, M))        # (P, Z, c)
    div_tau = np.einsum("zj,pzij->pzi", ik, band[:, :, d + sym])
    b = gm.basis.modes_to_coords(div_tau - band[:, :, :d])
    if x.ndim == 1:
        return b[0], float(diss[0])
    return b, diss


def drift_and_dissipation(x: np.ndarray, d: int, n: int, params: FluidParams):
    """Drift coordinates together with < e(X), tau(X) > (shared grid pass)."""
    return _drift_core(x, grid_map(d, n, pairing_grid_size(n)), params)


def drift(X: SpectralField, n: int, params: FluidParams) -> np.ndarray:
    """Drift coordinate vector over make_basis(n, d) for a state of order <= n."""
    x = field_to_coords(X, n=n)
    return drift_and_dissipation(x, X.d, n, params)[0]


def drift_coord(X: SpectralField, idx: BasisIndex, params: FluidParams) -> float:
    """Single drift coordinate < X, (X . grad) psi > - < tau(X), e(psi) >.

    Quadrature grid matches the vectorized drift at the covering truncation,
    so the two routes agree to roundoff.
    """
    n = max(X.n, max(abs(c) for c in idx.z))
    psi = basis_function(idx, n=n)
    M = pairing_grid_size(n)
    return (pairing_convection(X, X, psi, M=M)
            - pairing_stress(psi, X, params, M=M))
