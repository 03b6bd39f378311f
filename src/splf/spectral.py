"""Divergence-free Fourier fields on the torus [0,1)^d.

Real, mean-zero, divergence-free vector fields are stored through their
complex Fourier coefficients on a canonical half of the integer lattice;
the conjugate partner of every stored mode is implicit, so reality of the
field is structural.  On top of the coefficient representation this module
provides the real orthonormal cos/sin basis of the divergence-free subspace,
sampling on uniform physical-space grids, Bessel-potential Sobolev norms
and the truncation projection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

TWO_PI_SQ = 4.0 * np.pi ** 2

__all__ = [
    "BasisIndex",
    "SpectralField",
    "GridVectorField",
    "GridTensorField",
    "half_space_modes",
    "hyperplane_basis",
    "make_basis",
    "basis",
    "basis_function",
    "field_to_coords",
    "coords_to_field",
    "to_grid",
    "truncate_modes",
    "sobolev_norm",
    "gradient_lp_norm",
    "laplacian_lp_norm",
    "grid_lp_means",
    "structural_defects",
    "pairing_grid_size",
    "norm_grid_size",
    "NORM_RTOL",
]


class DimensionError(ValueError):
    """Incompatible dimensions or truncation orders."""


class AliasingError(ValueError):
    """Grid too coarse to represent the requested modes."""


class StructureError(ValueError):
    """A field is not divergence free or not finite, or a tensor field not
    symmetric."""


# Grid values that one batched `synthesize` of `lp_means` may return: the
# d c components of a chunk of rows (two d=3 rows of 3 x 20^3 on the
# simulate-d3 grid; ten d=2 gradient rows of 4 x 34^2 on the uniqueness-d2
# grid).  2-core x86 host, numpy 2.4.6 with scipy-openblas 0.3.31, one BLAS
# thread, CPU time of one simulate-d3 record's norm column (51 rows, minimum
# of 40 alternating sets): 4.9-5.0 ms at one row per batch, 4.4-4.5 ms at two
# and 4.3-4.4 ms at four.  Four rows would also give twenty d=2 gradient
# rows, and a 51-row uniqueness-d2 record then took 1.14 ms against 0.68 ms
# at ten (both uniqueness-d2 commands: 0.27 -> 0.31-0.36 s).  With each
# batch's grid values freed before the next, a simulate-d3 worker's peak RSS
# is the same at one and two d=3 rows (33.5-33.7 MB) and 0.3-0.4 MB higher
# at four.  The drift's blocks have their own budget, integrator.DRIFT_VALUES.
BLOCK_VALUES = 48_000


def pairing_grid_size(n: int) -> int:
    """Grid resolution used for nonlinear pairings at truncation n.

    Twice the one-sided mode count per axis, which makes the uniform
    rectangle rule exact for cubic products of order-n fields.
    """
    return 2 * (2 * n + 1)


# Relative error budget of a recorded L_p quadrature.  The rectangle rule
# converges only algebraically, because |w|^p has a kink where w = 0
# (Trefethen & Weideman 2014, SIAM Rev. 56:385), so norm_grid_size measures
# its error rather than assuming it.
NORM_RTOL = 1e-5

# The references of that measurement.  The first is the finest multiple of
# the pairing grid with at most NORM_REFERENCE_POINTS points and at least
# three times it per axis.  While no grid below a reference meets the
# budget, the next multiple of the pairing grid is tried, up to
# NORM_REFERENCE_MAX_POINTS points; at d=3, n=2 the references are 30, 40,
# 50 and 60 per axis.
NORM_REFERENCE_POINTS = 30 ** 3
NORM_REFERENCE_MAX_POINTS = 60 ** 3


def _norm_references(d: int, n: int):
    P = pairing_grid_size(n)
    R = P * max(3, round(NORM_REFERENCE_POINTS ** (1.0 / d)) // P)
    yield R
    while (R + P) ** d <= NORM_REFERENCE_MAX_POINTS:
        R += P
        yield R


@lru_cache(maxsize=None)
def _norm_probe(d: int, n: int, p: float, R: int):
    """The fixed probe of norm_grid_size: two seeded Gaussian rows whose
    basis coordinates have variance (1 + 4 pi^2 |z|^2)^-1 (a GaussianInit
    with decay 1), the symbols whose L_p means the program takes (the V_p^1
    Bessel weight, the gradient and the Laplacian), and each symbol's grid
    means on the R^d reference grid."""
    b, gm = basis(d, n), grid_map(d, n, R)
    x = np.random.default_rng(0).standard_normal((2, b.K))
    vhat = b.coords_to_modes(x * (1.0 + b.lam_coord) ** -0.5)
    symbols = (b.derivative(2), b.bessel(1.0), b.derivative(1))
    refs = [gm.lp_means(vhat, m, p) for m in symbols]
    for a in (vhat, *symbols, *refs):
        a.setflags(write=False)
    return vhat, symbols, refs


def _norm_grid_errors(d: int, n: int, p: float, M: int, R: int):
    """Per symbol, the costliest last, the largest relative error of the
    M^d rectangle rule against the R^d reference grid over the probe rows."""
    vhat, symbols, refs = _norm_probe(d, n, p, R)
    gm = grid_map(d, n, M)
    for m, ref in zip(symbols, refs):
        yield float(np.max(np.abs(gm.lp_means(vhat, m, p) - ref) / ref))


@lru_cache(maxsize=None)
def _norm_grid(d: int, n: int, p: float):
    """(M, R): the grid that norm_grid_size returns and the reference grid
    its errors were measured against."""
    for R in _norm_references(d, n):
        for M in range(pairing_grid_size(n), R, 2):
            if all(e <= NORM_RTOL / 2 for e in _norm_grid_errors(d, n, p, M, R)):
                return M, R
    raise ValueError(
        f"norm_grid_size: no grid meets NORM_RTOL / 2 at (d, n, p) = "
        f"({d}, {n}, {p}) against references of up to {R}^{d} points")


def norm_grid_size(n: int, d: int = 2, p: float = 2.0) -> int:
    """Grid resolution of the L_p quadrature at truncation n, dimension d
    and exponent p: the smallest even M from pairing_grid_size(n) whose
    errors on the probe, against a finer reference grid, are at most
    NORM_RTOL / 2.  If no grid below a reference qualifies, the next,
    finer reference is tried; past NORM_REFERENCE_MAX_POINTS this raises
    ValueError, so the grid returned has always been measured.

    Half the budget, because two probe rows under-read the largest error
    over the many rows of a run: on the simulate-d3 benchmark rows at
    d=3, n=2, p=1.9 it was 1.6-2.2 times the probe's.  A pure function of
    (d, n, p), cached per process.  p = 2 and p = 4 give the pairing grid,
    on which |w|^p is a trigonometric polynomial the rule integrates exactly;
    so does a call with n alone.
    """
    return _norm_grid(d, n, p)[0]


def canonical_rep(z):
    """Canonical half-space representative of {z, -z} with its sign: the one
    above 0 in lexicographic order (first nonzero component positive)."""
    z = tuple(int(c) for c in z)
    if z > (0,) * len(z):
        return z, 1
    return tuple(-c for c in z), -1


def half_space_modes(n: int, d: int) -> np.ndarray:
    """All canonical half-space wave vectors of [-n,n]^d \\ {0}, lex sorted."""
    if n < 1 or d < 2:
        raise DimensionError(f"need n >= 1 and d >= 2, got n={n}, d={d}")
    modes = [z for z in itertools.product(range(-n, n + 1), repeat=d)
             if z > (0,) * d]
    return np.array(modes, dtype=np.int64)


def _mode_index(z, n: int, d: int) -> np.ndarray:
    """Positions of wave vectors z (..., d) in half_space_modes(n, d); -1
    for the zero vector, a non-canonical one or one outside [-n,n]^d."""
    z = np.asarray(z, dtype=np.int64)
    if z.shape[-1:] != (d,):
        raise DimensionError(f"wave vectors need {d} components, got shape {z.shape}")
    inside = np.all(np.abs(z) <= n, axis=-1)
    pos = basis(d, n).table[tuple(np.moveaxis(np.clip(z, -n, n) + n, -1, 0))]
    return np.where(inside, pos, -1)


def hyperplane_basis(z) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to z, shape (d-1, d).

    Deterministic construction: drop the canonical unit vector with the
    largest |component along z| (ties to the lowest index), then run
    modified Gram-Schmidt on the remaining canonical vectors against z.
    """
    z = np.asarray(z, dtype=float)
    d = z.size
    nz = np.linalg.norm(z)
    if nz == 0.0:
        raise DimensionError("zero wave vector has no hyperplane basis")
    zhat = z / nz
    drop = int(np.argmax(np.abs(z)))
    vecs = []
    for i in range(d):
        if i == drop:
            continue
        v = np.zeros(d)
        v[i] = 1.0
        v -= (v @ zhat) * zhat
        for e in vecs:
            v -= (v @ e) * e
        v /= np.linalg.norm(v)
        vecs.append(v)
    return np.array(vecs)


@dataclass(frozen=True)
class BasisIndex:
    """One element of the real divergence-free basis.

    j in 1..d-1 tags the cosine branch, j in d..2d-2 the sine branch; both
    use the hyperplane vector e_vec = e_{z, 1 + (j-1) mod (d-1)}.
    """

    z: tuple
    j: int
    e_vec: np.ndarray

    @property
    def is_sine(self) -> bool:
        d = len(self.z)
        return self.j >= d

    def __post_init__(self):
        self.e_vec.setflags(write=False)


class _Basis:
    """The order-n real divergence-free basis in dimension d, and everything
    about it that depends on (d, n) alone: the canonical half-space modes,
    their hyperplane vectors E, the coordinate layout (`coord`), the maps
    between coordinates and mode coefficients, and the Fourier symbols at
    the modes.  A symbol m(z) has shape (c, Z); each is the symbol of a real
    operator, m(-z) = conj(m(z)), so partners need none.  Its arrays are
    read-only; `basis` builds one per (d, n)."""

    def __init__(self, d: int, n: int):
        self.d, self.n = d, n
        self.modes = half_space_modes(n, d)                           # (Z, d)
        self.E = np.array([hyperplane_basis(z) for z in self.modes])  # (Z, d-1, d)
        self.K = len(self.modes) * (2 * d - 2)
        # over the (2n+1)^d box offset by n: each mode's position, -1 elsewhere
        self.table = np.full((2 * n + 1,) * d, -1, dtype=np.int64)
        self.table[tuple((self.modes + n).T)] = np.arange(len(self.modes))
        # |z|^2 per mode, and 4 pi^2 |z|^2 per basis coordinate
        self.zsq = np.einsum("zd,zd->z", self.modes, self.modes).astype(float)
        self.lam_coord = np.repeat(TWO_PI_SQ * self.zsq, 2 * d - 2)
        for a in (self.modes, self.E, self.table, self.zsq, self.lam_coord):
            a.setflags(write=False)

    def coord(self, z, j: int):
        """(position, sign) of the basis element (z, j) for any wave vector z.
        The position is k (2d-2) + j - 1, the order of make_basis, where k is
        the place in `modes` of the canonical one of z and -z; it is -1 for
        z = 0 or z outside [-n,n]^d.  The sign is -1 for a sine branch
        (j >= d) at a non-canonical z, the sine being odd under z -> -z."""
        d = self.d
        if not 1 <= j <= 2 * d - 2:
            raise DimensionError(f"branch index j={j} outside 1..{2 * d - 2}")
        zc, sign = canonical_rep(z)
        k = int(_mode_index(zc, self.n, d))
        return (k * (2 * d - 2) + j - 1 if k >= 0 else -1), (sign if j >= d else 1)

    # coords <-> half-space mode coefficients.  Both maps also take leading
    # batch axes (a block of paths) and act on each row alone.

    def coords_to_modes(self, x: np.ndarray) -> np.ndarray:
        """(..., K) basis coordinates to (..., Z, d) half-space coefficients."""
        d = self.d
        c = x.reshape(x.shape[:-1] + (-1, 2 * d - 2))
        cplx = c[..., : d - 1] - 1j * c[..., d - 1:]
        return np.einsum("...zj,zjd->...zd", cplx, self.E) / np.sqrt(2.0)

    def modes_to_coords(self, vhat: np.ndarray) -> np.ndarray:
        proj = np.einsum("...zd,zjd->...zj", vhat, self.E) * np.sqrt(2.0)
        return np.concatenate([proj.real, -proj.imag], axis=-1).reshape(
            vhat.shape[:-2] + (-1,))

    @cached_property
    def drift_tables(self):
        """(down, up): the two tables of the Galerkin drift in divergence
        form, b = P_n div S for a symmetric tensor field S, as float arrays
        for one batched matmul on each side of the band.  A symmetric
        tensor is carried by its c = d(d+1)/2 components (i, j), i <= j:
        the diagonal, then i < j row by row.

        down (Z, 2d-2, 2(d+c)) is the float view of a complex table: a row's
        coordinates at a mode, (2d-2,) in the layout of `coord`, times it
        give the coefficients (d+c,) of the field v and of its strain
        e_ij = (d_j v_i + d_i v_j)/2, those of coords_to_modes and of the
        gradient symbol.  up (Z, 2c, 2d-2) takes S's coefficients at a mode,
        as (real, imaginary) float pairs, to the coordinates that
        modes_to_coords gives of (div S)_i = sum_j 2 pi i z_j S_ij: its rows
        are the real parts and minus the imaginary parts of the complex
        table, so the float product is the real part of the complex one."""
        d, Z = self.d, len(self.modes)
        i, j = (np.append(np.arange(d), a) for a in np.triu_indices(d, 1))
        ik = self.derivative(1).T                                    # (Z, d)
        E = self.E[:, np.arange(2 * d - 2) % (d - 1)]                # (Z, 2d-2, d)
        # cos coordinates are the real parts, sin ones minus the imaginary
        branch = np.where(np.arange(2 * d - 2) < d - 1, 1.0, 1j)[:, None]
        v = np.conj(branch) * E / np.sqrt(2.0)
        e = 0.5 * (v[..., i] * ik[:, None, j] + v[..., j] * ik[:, None, i])
        down = np.concatenate([v, e], axis=2).view(np.float64)
        # div S at the modes: S_ij, i < j, enters (div S)_i and (div S)_j
        unit = np.eye(d)
        div = ik[:, j, None] * unit[i] + ik[:, i, None] * unit[j] * (i != j)[:, None]
        U = np.sqrt(2.0) * np.einsum("zca,zka->zck", div, E) * branch.T
        up = np.stack([U.real, -U.imag], axis=2).reshape(Z, -1, 2 * d - 2)
        for a in (down, up):
            a.setflags(write=False)
        return down, up

    def bessel(self, alpha: float) -> np.ndarray:
        """Symbol (1, Z) of (1 - Laplacian)^{alpha/2}: (1 + 4 pi^2 |z|^2)^{alpha/2}."""
        return ((1.0 + TWO_PI_SQ * self.zsq) ** (alpha / 2.0))[None]

    def derivative(self, order: int) -> np.ndarray:
        """Symbol of the gradient (order 1, (d, Z): 2 pi i z) or the
        Laplacian (order 2, (1, Z): -4 pi^2 |z|^2)."""
        if order == 1:
            return 2j * np.pi * self.modes.T.astype(float)
        return (-TWO_PI_SQ * self.zsq)[None]


@lru_cache(maxsize=None)
def basis(d: int, n: int) -> _Basis:
    return _Basis(d, n)


@lru_cache(maxsize=None)
def _basis_cached(n: int, d: int):
    b = basis(d, n)
    return tuple(BasisIndex(z=tuple(int(c) for c in z), j=j, e_vec=E[(j - 1) % (d - 1)])
                 for z, E in zip(b.modes, b.E) for j in range(1, 2 * d - 1))


def make_basis(n: int, d: int):
    """Ordered real orthonormal basis of the order-n divergence-free space.

    Ordering is lexicographic in the canonical half-space wave vector, then
    increasing j, so coordinate vectors are reproducible across runs.
    """
    return list(_basis_cached(n, d))


def _check_finite(modes: np.ndarray, values: np.ndarray) -> None:
    """Raise StructureError at the first mode whose values (Z, ...), its
    coefficients or its basis coordinates, are not all finite."""
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise StructureError(
            f"mode {tuple(int(c) for c in modes[k])}: coefficients must "
            f"be finite, got {tuple(values[k].tolist())}")


@dataclass(frozen=True)
class SpectralField:
    """Mean-zero, divergence-free real vector field in coefficient form.

    coeffs[k] is the complex coefficient vector of mode modes[k]; the
    coefficient of -modes[k] is its conjugate and is not stored.
    """

    d: int
    n: int
    modes: np.ndarray   # (Z, d) int64, canonical half-space, lex sorted
    coeffs: np.ndarray  # (Z, d) complex128

    def __post_init__(self):
        modes = np.ascontiguousarray(self.modes, dtype=np.int64)
        coeffs = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "coeffs", coeffs)
        if modes.shape != coeffs.shape or modes.ndim != 2 or modes.shape[1] != self.d:
            raise DimensionError("modes and coeffs must both have shape (Z, d)")
        if modes.size:
            # from the modes alone, at a cost that does not grow with the
            # (2n+1)^d box: inside it, first nonzero component positive
            outside = np.abs(modes).max(axis=1) > self.n
            lead = modes[np.arange(len(modes)), np.argmax(modes != 0, axis=1)]
            bad = outside | (lead <= 0)
            if bad.any():
                k = int(np.argmax(bad))
                why = (f"outside the truncation box n={self.n}"
                       if outside[k] else "not canonical")
                raise DimensionError(f"mode {tuple(int(c) for c in modes[k])} is {why}")
            # not np.unique: numpy 2 imports numpy.ma on its first call,
            # about 1 MB in every ensemble worker that writes a snapshot
            rows = modes[np.lexsort(modes.T)]
            if (rows[1:] == rows[:-1]).all(axis=1).any():
                raise DimensionError("a mode is stored twice")
            # a NaN would pass the divergence comparison below
            _check_finite(modes, coeffs)
            if np.max(np.abs(np.einsum("zd,zd->z", modes, coeffs))) >= 1e-13 * max(
                    1.0, self.n * np.abs(coeffs).max()):
                raise StructureError("field is not divergence free")
        modes.setflags(write=False)
        coeffs.setflags(write=False)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(d: int, n: int) -> "SpectralField":
        modes = basis(d, n).modes
        return SpectralField(d=d, n=n, modes=modes,
                             coeffs=np.zeros_like(modes, dtype=np.complex128))

    @staticmethod
    def from_coeff_map(coeff_map: dict, d: int, n: int) -> "SpectralField":
        """Build a field from {wave vector: complex d-vector}.

        Entries at non-canonical z are folded onto the canonical partner by
        conjugation; inconsistent duplicates are averaged.
        """
        modes = basis(d, n).modes
        coeffs = np.zeros((len(modes), d), dtype=np.complex128)
        counts = np.zeros(len(modes))
        for z, v in coeff_map.items():
            zc, sign = canonical_rep(z)
            k = int(_mode_index(zc, n, d))
            if k < 0:
                raise DimensionError(f"mode {z} outside truncation n={n}")
            v = np.asarray(v, dtype=np.complex128)
            coeffs[k] += v if sign == 1 else np.conj(v)
            counts[k] += 1
        coeffs[counts > 1] /= counts[counts > 1, None]
        return SpectralField(d=d, n=n, modes=modes, coeffs=coeffs)

    # -- lookups and algebra ------------------------------------------

    def coeff(self, z) -> np.ndarray:
        """Coefficient vector of an arbitrary wave vector (zero if absent)."""
        zc, sign = canonical_rep(z)
        k = int(_mode_index(zc, self.n, self.d))
        if k < 0:
            return np.zeros(self.d, dtype=np.complex128)
        v = _aligned_modes(self, self.n)[k]
        return v if sign == 1 else np.conj(v)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.d, self.n, self.modes, self.coeffs * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class GridVectorField:
    """Real d-vector samples on the uniform M^d grid of [0,1)^d."""

    d: int
    M: int
    values: np.ndarray  # (d, M, ..., M)

    def __post_init__(self):
        self.values.setflags(write=False)


@dataclass(frozen=True)
class GridTensorField:
    """Real symmetric d x d tensor samples on the uniform M^d grid."""

    d: int
    M: int
    values: np.ndarray  # (d, d, M, ..., M)

    def __post_init__(self):
        self.values.setflags(write=False)
        if not np.allclose(self.values, np.swapaxes(self.values, 0, 1),
                           atol=1e-12 * max(1.0, np.abs(self.values).max())):
            raise StructureError("tensor field is not symmetric")


def basis_function(idx: BasisIndex, n: int | None = None) -> SpectralField:
    """The basis element as a SpectralField of order n (default: its own)."""
    d = len(idx.z)
    if n is None:
        n = int(max(abs(c) for c in idx.z))
    v = idx.e_vec / np.sqrt(2.0)
    if idx.is_sine:
        v = -1j * v
    return SpectralField.from_coeff_map({idx.z: v}, d=d, n=n)


# ---------------------------------------------------------------------------
# grid transform machinery
# ---------------------------------------------------------------------------


class _GridMap:
    """Precomputed tables between the half-space modes of `basis` and an
    M^d grid: the scatter/gather of the FFT routes and the band transform
    pair `synthesize` and `analyse` that `lp_means` and the drift share.
    Only this class reads the band tables."""

    def __init__(self, d: int, n: int, M: int):
        if M < 2 * n + 1:
            raise AliasingError(f"grid M={M} cannot hold modes of order n={n}")
        self.d, self.n, self.M = d, n, M
        self.basis = basis(d, n)
        modes = self.basis.modes
        self.shape = (M,) * d
        strides = np.array([M ** (d - 1 - a) for a in range(d)], dtype=np.int64)
        self.pos_flat = (np.mod(modes, M) @ strides).astype(np.int64)
        self.neg_flat = (np.mod(-modes, M) @ strides).astype(np.int64)
        # the band pair.  `synthesize` fills the (2n+1)^d box offset by n,
        # modes at `box_pos` and partners at `box_neg`; W (2n+2, M) has rows
        # c_k cos and -c_k sin, for the real and imaginary parts of a complex
        # value, with c_0 = 1 and c_k = 2 for the pair k, -k
        box = (2 * n + 1) ** np.arange(d - 1, -1, -1)
        self.box_pos, self.box_neg = (n + modes) @ box, (n - modes) @ box
        phase = 2.0 * np.pi / M * (np.outer(np.arange(M), np.arange(-n, n + 1)) % M)
        self.F = np.exp(1j * phase)                                 # (M, 2n+1)
        c = np.where(np.arange(n + 1) == 0, 1.0, 2.0)
        self.W = (c * np.exp(-1j * phase[:, n:])).view(np.float64).T
        self.vol = M ** d
        # `analyse`, the adjoint: Wa (M, 2n+2) is W's rows over c_k and M^d,
        # the columns of the real and imaginary parts of k >= 0 on the last
        # axis, and Fa = conj(F)^T (2n+1, M).  It reads the half box, axes
        # 0..d-2 over -n..n and the last over 0..n, at `half`: a mode with
        # z_last < 0 at -z, as its conjugate (`flip`)
        self.Wa = np.exp(-1j * phase[:, n:]).view(np.float64) / self.vol
        self.Fa = np.ascontiguousarray(np.conj(self.F).T)
        half = np.append((n + 1) * (2 * n + 1) ** np.arange(d - 2, -1, -1), 1)
        offset = np.append(np.full(d - 1, n), 0)
        self.flip = modes[:, -1] < 0
        self.half = (offset + np.where(self.flip[:, None], -modes, modes)) @ half

    # mode coefficients <-> spectral FFT array.  Every map below also takes
    # leading batch axes (a block of paths) and acts on each row alone.

    def scatter(self, vhat: np.ndarray) -> np.ndarray:
        """Half-space coefficients (..., Z, comp) to a full conjugate-symmetric
        FFT array (..., comp, M, ..., M); a 1-D input is one component."""
        if vhat.ndim == 1:
            vhat = vhat[:, None]
        cols = np.swapaxes(vhat, -1, -2)
        A = np.zeros(cols.shape[:-1] + (self.vol,), dtype=np.complex128)
        A[..., self.pos_flat] = cols
        A[..., self.neg_flat] = np.conj(cols)
        return A.reshape(cols.shape[:-1] + self.shape)

    def gather(self, A: np.ndarray) -> np.ndarray:
        """Inverse of scatter: (..., comp, M, ..., M) to (..., Z, comp)."""
        flat = A.reshape(A.shape[: A.ndim - self.d] + (self.vol,))
        return np.swapaxes(flat[..., self.pos_flat], -1, -2).copy()

    # physical-space evaluation

    @property
    def grid_axes(self) -> tuple:
        """The trailing d axes of an FFT array, whatever its batch axes."""
        return tuple(range(-self.d, 0))

    def modes_to_grid(self, vhat: np.ndarray) -> np.ndarray:
        A = self.scatter(vhat)
        return np.fft.ifftn(A, axes=self.grid_axes).real * self.vol

    def grid_to_modes(self, values: np.ndarray) -> np.ndarray:
        A = np.fft.fftn(values, axes=self.grid_axes) / self.vol
        return self.gather(A)

    # the band transform pair.  Both act on each row alone.  Every complex
    # matmul calls BLAS once per row's slice; synthesize's real last pass is
    # one matmul over the whole batch, whose values are each one dot product
    # of 2n+2 terms, as the tests hold byte for byte.  Rows folded into the
    # columns of the complex passes instead moved a d=3 batch of 4 by up to
    # 2e-16 of its largest value, so they are not folded.

    def synthesize(self, spec: np.ndarray) -> np.ndarray:
        """Real grid values (P, M^(d-1), c, M) of band coefficients spec
        (P, Z, c), with the components between grid axes 0..d-2 (flattened)
        and the last.

        Separable synthesis on the band: each row fills the (2n+1)^d box of
        wave vectors, spec at the modes and its conjugate at their partners;
        grid axes 0..d-2 are contracted with the complex DFT matrix F and
        the last, over k >= 0 alone, with the real cos/sin matrix W.  The
        values are within 1e-15 relative of np.fft.ifftn."""
        d, n, L, M = self.d, self.n, 2 * self.n + 1, self.M
        P, c = len(spec), spec.shape[-1]
        A = np.zeros((P, L ** d, c), dtype=np.complex128)
        A[:, self.box_pos] = spec
        A[:, self.box_neg] = np.conj(spec)
        A = A.reshape(P, -1, L, c)[:, :, n:].swapaxes(-1, -2)   # k_last >= 0
        for a in range(d - 1):               # (P, M^a, L, ...) -> (P, M^a, M, ...)
            A = self.F @ A.reshape(P, M ** a, L, -1)
        return (A.reshape(-1, n + 1).view(np.float64) @ self.W).reshape(P, -1, c, M)

    def analyse(self, values: np.ndarray) -> np.ndarray:
        """Band coefficients (P, Z, c) of real grid values (P, M^(d-1), c, M)
        in the layout of synthesize: the DFT over M^d at the modes.

        The adjoint pass: the last grid axis is contracted with the real
        Wa, which gives k_last >= 0, and axes d-2..0 with Fa = conj(F)^T;
        the half box is read at `half`, conjugated where z_last < 0
        (`flip`).  For M >= 2n+1 the band is unaliased, so
        analyse(synthesize(spec)) is spec up to rounding."""
        d, n, M = self.d, self.n, self.M
        P, c = len(values), values.shape[2]
        U = (values.reshape(P, -1, M) @ self.Wa).view(np.complex128)
        for a in range(d - 2, -1, -1):       # (P, M^a, M, ...) -> (P, M^a, L, ...)
            U = self.Fa @ U.reshape(P, M ** a, M, -1)
        band = U.reshape(P, -1, c, n + 1).swapaxes(-1, -2).reshape(P, -1, c)[:, self.half]
        np.conjugate(band, out=band, where=self.flip[:, None])
        return band

    def lp_means(self, vhat: np.ndarray, multiplier: np.ndarray,
                 p: float) -> np.ndarray:
        """Grid mean of |m(D) v|^p for each row of vhat (R, Z, d), where |.|
        is the Frobenius norm over the (d, c) values of the symbol m (c, Z)
        applied to each component.

        The multiplied coefficients v m go through synthesize; the squares
        are summed over the components and raised to p/2.  The cost is
        about linear in the M^d grid points: a Bessel row at d=3, n=2 takes
        about 0.1 ms on the 20^3 grid that norm_grid_size picks at p = 1.9,
        and 0.27-0.36 ms on 32^3 (2 cores, numpy 2.4, one BLAS thread).
        Rows go in batches of at most BLOCK_VALUES grid values, two at d=3
        on 20^3; synthesize acts on each row alone, einsum sums each point
        alone and a mean over a row's contiguous grid axis is that row's
        pairwise sum, so no row depends on its batch.  Other modules reach it through grid_lp_means,
        which picks the grid."""
        d, c = self.d, len(multiplier)
        m = multiplier.T[:, None]                                    # (Z, 1, c)
        rows = max(1, BLOCK_VALUES // (d * c * self.vol))
        means = []
        for start in range(0, len(vhat), rows):
            v = vhat[start:start + rows, :, :, None]                 # (r, Z, d, 1)
            r = len(v)
            values = self.synthesize((v * m).reshape(r, -1, d * c))
            sq = np.einsum("...cx,...cx->...x", values, values)
            del values      # not alive beside the next batch's grid values
            means.append(np.power(sq, p / 2.0, out=sq).reshape(r, -1).mean(axis=1))
        return np.concatenate(means)


@lru_cache(maxsize=None)
def grid_map(d: int, n: int, M: int) -> _GridMap:
    return _GridMap(d, n, M)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def field_to_coords(field: SpectralField, n: int | None = None) -> np.ndarray:
    """Real coordinate vector of the field over make_basis(n, d)."""
    if n is None:
        n = field.n
    if field.modes.size:
        active = np.abs(field.coeffs).max(axis=1) > 0
        if active.any() and np.abs(field.modes[active]).max() > n:
            raise DimensionError(
                f"field carries modes beyond basis truncation {n}")
    return basis(field.d, n).modes_to_coords(_aligned_modes(truncate_modes(field, n), n))


def coords_to_field(coords: np.ndarray, n: int, d: int) -> SpectralField:
    """Inverse of field_to_coords."""
    b = basis(d, n)
    coords = np.asarray(coords, dtype=float)
    if coords.size != b.K:
        raise DimensionError(
            f"coordinate vector has length {coords.size}, basis has {b.K}")
    # before coords_to_modes, whose complex products of an inf warn
    _check_finite(b.modes, coords.reshape(len(b.modes), -1))
    return SpectralField(d=d, n=n, modes=b.modes, coeffs=b.coords_to_modes(coords))


def to_grid(field: SpectralField, M: int | None = None) -> GridVectorField:
    """Sample the field on the uniform M^d grid (exact for M >= 2n+1)."""
    if M is None:
        M = pairing_grid_size(field.n)
    gm = grid_map(field.d, field.n, M)
    vhat = _aligned_modes(field, field.n)
    return GridVectorField(d=field.d, M=M, values=gm.modes_to_grid(vhat))


def truncate_modes(field: SpectralField, n: int) -> SpectralField:
    """Orthogonal projection onto modes with z in [-n,n]^d (sup-norm box).

    n = 0 lands in the mean-zero space, hence returns the zero field.
    """
    if n <= 0:
        return SpectralField.zero(field.d, 1)
    keep = np.abs(field.modes).max(axis=1) <= n
    return SpectralField(field.d, n, field.modes[keep].copy(),
                         field.coeffs[keep].copy())


def _aligned_modes(field: SpectralField, n: int) -> np.ndarray:
    """Field coefficients on half_space_modes(n, d), zero where not stored."""
    pos = _mode_index(field.modes, n, field.d)
    if (pos < 0).any():
        raise DimensionError("field mode outside target truncation")
    vhat = np.zeros((((2 * n + 1) ** field.d - 1) // 2, field.d),
                    dtype=np.complex128)
    vhat[pos] = field.coeffs
    return vhat


def grid_lp_means(coords: np.ndarray, d: int, n: int, p: float, symbol,
                  M: int | None = None) -> np.ndarray:
    """Grid mean of |m(D) v|^p for each row of basis coordinates coords
    (R, K) of order n in dimension d, where symbol is a symbol m (c, Z) at
    the modes of basis(d, n): the L_p quadrature of every norm.

    The rectangle rule of `_GridMap.lp_means` on the M^d grid, by default
    norm_grid_size(n, d, p), the grid that meets the NORM_RTOL budget; for
    p = 2 and p = 4 that is the pairing grid, on which the rule is exact.
    This is the one place that picks the grid."""
    if not p >= 1:
        raise ValueError(f"L_p norm needs p >= 1, got p={p}")
    gm = grid_map(d, n, norm_grid_size(n, d, p) if M is None else M)
    return gm.lp_means(gm.basis.coords_to_modes(coords), symbol, p)


def _field_lp_norm(field: SpectralField, p: float, symbol, M: int | None) -> float:
    """|| m(D) v ||_{L_p} of one field by grid_lp_means."""
    coords = field_to_coords(field)[None]
    return float(grid_lp_means(coords, field.d, field.n, p, symbol, M)[0] ** (1.0 / p))


def sobolev_norm(field: SpectralField, p: float, alpha: float,
                 M: int | None = None) -> float:
    """Bessel-potential Sobolev norm || (1-Laplacian)^{alpha/2} v ||_{L_p},
    multiplier (1 + 4 pi^2 |z|^2)^{alpha/2}, by grid_lp_means on M points
    per axis (default norm_grid_size(n, d, p))."""
    return _field_lp_norm(field, p, basis(field.d, field.n).bessel(alpha), M)


def gradient_lp_norm(field: SpectralField, p: float, M: int | None = None) -> float:
    """|| |grad v|_F ||_{L_p} by grid_lp_means."""
    return _field_lp_norm(field, p, basis(field.d, field.n).derivative(1), M)


def laplacian_lp_norm(field: SpectralField, p: float, M: int | None = None) -> float:
    """|| Laplacian v ||_{L_p} by grid_lp_means."""
    return _field_lp_norm(field, p, basis(field.d, field.n).derivative(2), M)


def structural_defects(field: SpectralField, M: int | None = None):
    """Measured (divergence, conjugate-symmetry) defects of a field.

    Divergence defect is max_z |z . v_z| over stored modes.  The conjugate
    defect is measured on the full DFT of the sampled field, so it reflects
    the actual realness of the physical samples rather than the storage
    convention.
    """
    if field.modes.size == 0:
        return 0.0, 0.0
    div = float(np.max(np.abs(np.einsum("zd,zd->z", field.modes, field.coeffs))))
    if M is None:
        M = pairing_grid_size(field.n)
    g = to_grid(field, M)
    axes = tuple(range(1, field.d + 1))
    A = np.fft.fftn(g.values, axes=axes) / (M ** field.d)
    flip = (slice(None),) + (slice(None, None, -1),) * field.d
    Aneg = np.roll(np.conj(A[flip]), 1, axis=axes)
    conj_defect = float(np.max(np.abs(A - Aneg)))
    return div, conj_defect
