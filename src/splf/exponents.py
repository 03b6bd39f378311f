"""Closed-form exponent tables and admissibility conditions for the
power-law fluid: critical exponents, existence and uniqueness thresholds,
and the auxiliary exponents of the energy and uniqueness estimates.

Rational thresholds are kept as exact fractions so table lookups can be
asserted without tolerance; only the one irrational exponent is a float.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

Number = Union[int, float, Fraction]

__all__ = [
    "CriticalExponents",
    "ExponentReport",
    "critical_exponents",
    "admissible_existence",
    "weak_space_exponent",
    "regularity_weight",
    "moment_exponent",
    "interpolation_exponent",
    "uniqueness_threshold",
    "gronwall_exponent",
    "exponent_report",
]


def _check_dim(d: int) -> None:
    if not isinstance(d, numbers.Integral) or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d}")


def _check_p(p: Number) -> None:
    if not 1 < p < math.inf:
        raise ValueError(f"p: must be finite and exceed 1, got {p}")


@dataclass(frozen=True)
class CriticalExponents:
    p1: Fraction
    p2: Union[Fraction, float]  # +inf for d = 2
    p3: float


def critical_exponents(d: int) -> CriticalExponents:
    """The three critical exponents governing existence in dimension d.

    p1 = max(3d/(d+2), (3d-4)/d), p2 = 2d/(d-2) (infinite for d = 2),
    p3 = (3d - 8 + sqrt(9 d^2 + 64)) / (2d).
    """
    _check_dim(d)
    p1 = max(Fraction(3 * d, d + 2), Fraction(3 * d - 4, d))
    p2 = math.inf if d == 2 else Fraction(2 * d, d - 2)
    p3 = (3 * d - 8 + math.sqrt(9 * d * d + 64)) / (2 * d)
    return CriticalExponents(p1=p1, p2=p2, p3=p3)


def admissible_existence(p: Number, d: int) -> bool:
    """Whether (p, d) lies in the range where a weak solution exists.

    Piecewise in d: (p1, inf) for 2 <= d <= 8, the split range
    (p1, p2) union (p3, inf) for d = 9, and (p3, inf) for d >= 10.
    """
    _check_dim(d)
    _check_p(p)
    c = critical_exponents(d)
    if d <= 8:
        return p > c.p1
    if d == 9:
        return (c.p1 < p < c.p2) or p > c.p3
    return p > c.p3


def weak_space_exponent(p: float, d: int, alpha: float = 1.0) -> float:
    """Test-space regularity exponent for the trilinear convection bound.

    Returns 1 + (2/p - 1/2) d - alpha when p < 4d/(d + 2 alpha), else 1;
    the default alpha = 1 is the variant entering the weak formulation.
    Defined for alpha in (0, 1] and p > 2d/(d + 2 alpha); the endpoint
    triple (d, p, alpha) = (2, 2, 1) is covered by the interpolation branch
    of the underlying estimate but still computes here.
    """
    _check_dim(d)
    _check_p(p)
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not p > 2 * d / (d + 2 * alpha):
        raise ValueError(
            f"need p > 2d/(d+2a) = {2 * d / (d + 2 * alpha)}, got p={p}")
    if p < 4 * d / (d + 2 * alpha):
        return 1.0 + (2.0 / p - 0.5) * d - alpha
    return 1.0


def weak_space_exponent_flagged(p: float, d: int, alpha: float = 1.0) -> bool:
    """True on the endpoint triple (2, 2, 1) excluded from the direct bound."""
    return (d, p, alpha) == (2, 2, 1)


def regularity_weight(p: float, d: int) -> float:
    """Weight of the gradient-energy denominator in the dissipation functional.

    Zero for d = 2 and for p >= 3; otherwise 2 (3 - p) / (d p - 3 d + 4),
    which requires p > (3d - 4)/d so the denominator is positive.
    """
    _check_dim(d)
    _check_p(p)
    if d == 2:
        return 0.0
    denom = d * p - 3 * d + 4
    if denom <= 0:
        raise ValueError(
            f"need p > (3d-4)/d = {(3 * d - 4) / d} for d={d}, got p={p}")
    return 2.0 * max(3.0 - p, 0.0) / denom


def moment_exponent(p: float) -> float:
    """Exponent p/(p+2) of the convection moment bound."""
    _check_p(p)
    return p / (p + 2.0)


def interpolation_exponent(q: float, d: int) -> float:
    """Interpolation weight theta = (2d - q(d-2)) / (2q) of the
    Gagliardo-Nirenberg bound ||v||_q <= c ||v||_2^theta ||grad v||_2^(1-theta).

    Admissible q: (2, inf) for d = 2 and [2, 2d/(d-2)] for d >= 3, on which
    theta lies in [0, 1] and decreases in q.
    """
    _check_dim(d)
    if d == 2:
        if not q > 2:
            raise ValueError(f"need q > 2 for d=2, got q={q}")
    else:
        if not 2 <= q <= 2 * d / (d - 2):
            raise ValueError(
                f"need 2 <= q <= 2d/(d-2) = {2 * d / (d - 2)}, got q={q}")
    return (2 * d - q * (d - 2)) / (2 * q)


def uniqueness_threshold(d: int) -> Fraction:
    """Pathwise uniqueness holds for p >= 1 + d/2."""
    _check_dim(d)
    return 1 + Fraction(d, 2)


def gronwall_exponent(p: float, d: int) -> float:
    """Exponent 2p/(2p - d) on the gradient norm in the uniqueness envelope."""
    _check_dim(d)
    _check_p(p)
    if not 2 * p > d:
        raise ValueError(f"need 2p > d, got p={p}, d={d}")
    return 2.0 * p / (2.0 * p - d)


@dataclass(frozen=True)
class ExponentReport:
    """Every exponent and admissibility verdict for one (d, p) pair."""

    d: int
    p: float
    p1: Fraction
    p2: Union[Fraction, float]
    p3: float
    admissible_existence: bool
    lam: float
    beta_p1: float
    delta: float
    uniqueness_threshold: Fraction
    uniqueness_ok: bool
    flags: tuple = field(default_factory=tuple)

    HEADER = ("d", "p", "p1", "p2", "p3", "admissible_existence", "lambda",
              "beta_p1", "delta", "uniqueness_threshold", "uniqueness_ok",
              "flags")

    def as_row(self) -> tuple:
        return (self.d, self.p, str(self.p1), str(self.p2), repr(self.p3),
                self.admissible_existence, repr(self.lam), repr(self.beta_p1),
                repr(self.delta), str(self.uniqueness_threshold),
                self.uniqueness_ok, ";".join(self.flags))


def exponent_report(d: int, p: float) -> ExponentReport:
    """Assemble the full exponent report for one (d, p) pair.

    p must be finite and exceed 1 (admissible_existence raises otherwise).
    Exponents whose hypotheses fail at this (d, p) are reported as NaN with
    a named flag rather than raising, so the report is total over those p.
    """
    c = critical_exponents(d)
    flags = []
    try:
        lam = regularity_weight(p, d)
    except ValueError:
        lam = math.nan
        flags.append("lambda-undefined")
    try:
        beta1 = weak_space_exponent(p, d)
    except ValueError:
        beta1 = math.nan
        flags.append("beta-undefined")
    if weak_space_exponent_flagged(p, d):
        flags.append("beta-endpoint-(2,2,1)")
    thresh = uniqueness_threshold(d)
    return ExponentReport(
        d=d, p=p, p1=c.p1, p2=c.p2, p3=c.p3,
        admissible_existence=admissible_existence(p, d),
        lam=lam, beta_p1=beta1, delta=moment_exponent(p),
        uniqueness_threshold=thresh, uniqueness_ok=p >= thresh,
        flags=tuple(flags),
    )
