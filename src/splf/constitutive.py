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


def _drift_core(x: np.ndarray, gm: _GridMap, params: FluidParams):
    """Drift coordinates and dissipation < e, tau > in one grid pass.

    x is one coordinate vector (K,) or a block of paths (P, K); the block
    gives drift rows (P, K) and one dissipation per row.  The drift is
    P_n (div tau(e) - (v . grad) v): _drift_divergence at d >= 3 and
    _drift_gradient at d = 2.  The values of both are within rounding of
    the oracle routes (convection, pairing_stress and the full-grid FFT
    drift of the tests), which share none of their code.  Each row's result
    is the same alone and in any block.
    """
    block = x.reshape(-1, x.shape[-1])
    kernel = _drift_gradient if gm.d == 2 else _drift_divergence
    b, diss = kernel(block, gm, params)
    if x.ndim == 1:
        return b[0], float(diss[0])
    return b, diss


def _drift_divergence(block: np.ndarray, gm: _GridMap, params: FluidParams):
    """The drift of a block (P, K) in divergence form,
    b = P_n div(tau(e) - v (x) v), which is the drift because
    (v . grad) v = div(v (x) v) for divergence-free v.

    Down: one matmul with the first of basis.drift_tables takes the
    coordinates to the coefficients of v and of its d(d+1)/2 strain
    components e_ij, i <= j, and gm.synthesize gives their grid values.
    Pointwise, with the components before the grid axes (one transposing
    copy): |e|^2 = sum e_ii^2 + 2 sum_{i<j} e_ij^2,
    f = 2 nu (1 + |e|^2)^((p-2)/2), the dissipation density f |e|^2, and
    tau_ij - v_i v_j = f e_ij - v_i v_j, written straight into the layout of
    gm.analyse.  Up: the analysis of those d(d+1)/2 components and one
    matmul with the second table give the drift coordinates.  The stage
    works in place: one call at d=3, n=2 peaks at 185 KiB per path
    (tracemalloc).  The matmuls act on each row's slice alone, einsum sums
    each point alone and the dissipation is a mean over each row's
    contiguous grid axis, that row's own pairwise sum; so no row depends on
    its block.
    """
    d, M = gm.d, gm.M
    P = block.shape[0]
    down, up = gm.basis.drift_tables
    c = d * (d + 1) // 2
    spec = (block.reshape(P, -1, 1, 2 * d - 2) @ down).reshape(P, -1, 2 * (d + c))
    # one expression, so the synthesized values are freed before the
    # pointwise steps
    g = np.ascontiguousarray(gm.synthesize(spec.view(np.complex128)).swapaxes(1, 2))
    v, e = g[:, :d], g[:, d:]                             # (P, ., M^(d-1), M)
    esq = np.einsum("pcxm,pcxm->pxm", e, e)
    esq += np.einsum("pcxm,pcxm->pxm", e[:, d:], e[:, d:])    # i < j twice
    f = esq + 1.0
    np.power(f, (params.p - 2.0) / 2.0, out=f)
    f *= 2.0 * params.nu
    diss = np.multiply(f, esq, out=esq).reshape(P, -1).mean(axis=1)
    e *= f[:, None]                                       # tau
    del f, esq
    # v_i v_j in the order of the tables: i < j row by row, then the
    # diagonal over v itself
    vv = np.empty((P, c - d) + v.shape[2:])
    k = 0
    for a in range(d - 1):
        np.multiply(v[:, a:a + 1], v[:, a + 1:], out=vv[:, k:k + d - 1 - a])
        k += d - 1 - a
    np.multiply(v, v, out=v)
    values = np.empty((P, M ** (d - 1), c, M))
    S = np.moveaxis(values, 2, 1)                         # a view, (P, c, M^(d-1), M)
    np.subtract(e[:, :d], v, out=S[:, :d])
    np.subtract(e[:, d:], vv, out=S[:, d:])
    del g, v, e, vv
    band = gm.analyse(values)                             # (P, Z, c)
    return (band.view(np.float64)[:, :, None] @ up).reshape(P, -1), diss


@lru_cache(maxsize=None)
def _symmetric_components(d: int):
    """Row and column of the d(d+1)/2 components i <= j of a symmetric
    tensor, and the (d, d) table of each (i, j)'s position among them."""
    i, j = np.triu_indices(d)
    sym = np.empty((d, d), dtype=np.int64)
    sym[i, j] = sym[j, i] = np.arange(len(i))
    return i, j, sym


def _drift_gradient(block: np.ndarray, gm: _GridMap, params: FluidParams):
    """The drift of a block (P, K) in gradient form, the kernel that
    preceded the divergence form, byte for byte; it stays at d = 2 until
    perfbench's speed probe can time a round shorter than its 0.2 s period
    (ROADMAP item 5).  The divergence form runs a d=2, n=2 call in blocks
    of 32 in 0.69x the time, and energy-d2's commands in about 0.77x
    (0.248 -> 0.190 s median), so their rounds would end before the
    probe's first sample.

    Down: the field v and its gradient v_i(z) 2 pi i z_j, formed at the
    modes, go through gm.synthesize.  Up: the advection and the d(d+1)/2
    stress components tau_ij, i <= j, go through gm.analyse, and the
    divergence 2 pi i z_j tau_ij(z) and the subtraction of the advection
    are taken at the modes.  The pointwise stage works in place, as in
    _drift_divergence; a d=2, n=2 block of 32 peaks at 0.59 MB.
    """
    d, M = gm.d, gm.M
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
    esq = np.sum(e ** 2, axis=(1, 2), keepdims=True)
    tau = 2.0 * params.nu * (1.0 + esq) ** ((params.p - 2.0) / 2.0) * e
    del esq
    density = np.sum(np.multiply(e, tau, out=e), axis=(1, 2))
    diss = density.reshape(P, -1).mean(axis=1)
    for k, (a, b) in enumerate(zip(i, j)):
        up[:, d + k] = tau[:, a, b]
    del e, tau
    band = gm.analyse(values.reshape(P, -1, c, M))        # (P, Z, c)
    div_tau = np.einsum("zj,pzij->pzi", ik, band[:, :, d + sym])
    return gm.basis.modes_to_coords(div_tau - band[:, :, :d]), diss


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
