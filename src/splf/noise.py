"""Covariance spectra and increment sampling for the driving Wiener process.

The covariance operator is diagonal in the divergence-free basis: each basis
element (z, j) carries a nonnegative eigenvalue gamma.  Diagonality makes the
operator commute with the Laplacian automatically, keeps truncated traces
finite sums, and lets increments be sampled coordinatewise as independent
Gaussians of variance gamma * dt.  Mapping sampled coordinates back to a
field yields divergence-free noise by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .spectral import TWO_PI_SQ, _is_real, _is_whole, basis, canonical_rep

__all__ = [
    "SpectrumError",
    "PowerLawSpectrum",
    "ExplicitSpectrum",
    "validate_spectrum",
    "gamma_vector",
    "trace_truncated",
    "operator_norm",
    "sample_increment",
]


class SpectrumError(ValueError):
    """Covariance descriptor fails nonnegativity or trace-class conditions."""


@dataclass(frozen=True)
class PowerLawSpectrum:
    """Parametric family gamma_(z,j) = c (1 + 4 pi^2 |z|^2)^(-s).

    Trace class on the full lattice needs s > d/2; the strengthened
    condition s > (d+2)/2 keeps the Laplacian-weighted trace finite as well
    and is what validate_spectrum enforces.
    """

    c: float
    s: float


@dataclass(frozen=True)
class ExplicitSpectrum:
    """Finite list of (z, j, gamma) eigenvalue assignments.

    Wave vectors are canonicalized to the stored half-space, where each
    (z, j) may be listed once and z = 0 not at all; all unlisted basis
    elements carry gamma = 0.
    """

    entries: Tuple[Tuple[tuple, int, float], ...]

    @staticmethod
    def from_items(items) -> "ExplicitSpectrum":
        return ExplicitSpectrum(entries=tuple(
            (*_canonical_entry((z, j, g)), float(g)) for z, j, g in items))


def _canonical_entry(entry) -> tuple:
    """canonical_rep of an explicit entry's wave vector and its branch index
    as an int, if both are whole and its eigenvalue is a number."""
    z, j, g = entry
    if not _is_whole(*z):
        raise SpectrumError(f"entry {entry} has a non-integer wave vector")
    if not _is_whole(j):
        raise SpectrumError(f"entry {entry} has a non-integer branch index")
    if not _is_real(g):
        raise SpectrumError(f"entry {entry} has a non-numeric eigenvalue")
    return canonical_rep(z)[0], int(j)


def validate_spectrum(spectrum, d: int):
    """Check finiteness, nonnegativity and (strengthened) trace-class
    conditions, and that each explicit entry is its own basis element.

    Returns the spectrum unchanged on success; raises SpectrumError naming
    the field, the entries or the divergent sum otherwise.
    """
    if isinstance(spectrum, PowerLawSpectrum):
        if not (_is_real(spectrum.c) and 0 <= spectrum.c < np.inf):
            raise SpectrumError(
                f"power spectrum amplitude c={spectrum.c!r} must be finite and >= 0")
        if not (_is_real(spectrum.s) and np.isfinite(spectrum.s)):
            raise SpectrumError(f"power spectrum decay s={spectrum.s!r} must be finite")
        if spectrum.c > 0 and not spectrum.s > (d + 2) / 2:
            raise SpectrumError(
                f"sum over Z^{d} of |z|^2 (1 + 4 pi^2 |z|^2)^(-s) diverges for "
                f"s={spectrum.s} <= (d+2)/2 = {(d + 2) / 2}")
        return spectrum
    if isinstance(spectrum, ExplicitSpectrum):
        seen = {}
        for z, j, g in spectrum.entries:
            if len(z) != d:
                raise SpectrumError(f"entry {z} has wrong dimension (d={d})")
            zc = _canonical_entry((z, j, g))[0]
            if not np.isfinite(g) or g < 0:
                raise SpectrumError(f"eigenvalue at (z={z}, j={j}) is {g}, must be >= 0")
            if not 1 <= j <= 2 * d - 2:
                raise SpectrumError(f"branch index j={j} outside 1..{2 * d - 2}")
            if not any(zc):
                raise SpectrumError(
                    f"entry {(z, j, g)} is at z = 0, outside the mean-zero space")
            if (zc, j) in seen:
                raise SpectrumError(
                    f"entries {seen[zc, j]} and {(z, j, g)} fold onto one basis element")
            seen[zc, j] = (z, j, g)
        return spectrum
    raise SpectrumError(f"unknown covariance descriptor {type(spectrum).__name__}")


def gamma_vector(spectrum, n: int, d: int) -> np.ndarray:
    """Eigenvalues over make_basis(n, d) in basis order (length Z*(2d-2))."""
    b = basis(d, n)
    if isinstance(spectrum, PowerLawSpectrum):
        per_mode = spectrum.c * (1.0 + TWO_PI_SQ * b.zsq) ** (-spectrum.s)
        return np.repeat(per_mode, 2 * d - 2)
    if isinstance(spectrum, ExplicitSpectrum):
        out = np.zeros(b.K)
        for z, j, g in spectrum.entries:
            pos, _ = b.coord(z, j)
            if pos >= 0:
                out[pos] = g
        return out
    raise SpectrumError(f"unknown covariance descriptor {type(spectrum).__name__}")


def trace_truncated(spectrum, n: int, d: int) -> float:
    """Trace of the covariance restricted to the order-n basis."""
    return float(gamma_vector(spectrum, n, d).sum())


def operator_norm(spectrum, n: int, d: int) -> float:
    """Largest eigenvalue on the order-n basis (diagonal operator)."""
    g = gamma_vector(spectrum, n, d)
    return float(g.max()) if g.size else 0.0


def sample_increment(spectrum, n: int, d: int, dt: float,
                     rng: np.random.Generator,
                     gamma: np.ndarray | None = None) -> np.ndarray:
    """One Wiener increment over dt in basis coordinates.

    Components are independent Normal(0, gamma * dt) draws in basis order.
    Pass a precomputed gamma_vector to skip recomputation in tight loops.
    """
    if not 0 < dt < np.inf:
        raise ValueError(f"time step must be positive and finite, got dt={dt}")
    if gamma is None:
        gamma = gamma_vector(spectrum, n, d)
    return rng.standard_normal(gamma.size) * np.sqrt(gamma * dt)
