"""Rudder/heading relation: correlation, polynomial fit, inversion.

The planner needs the map between commanded rudder and the heading change a
trajectory cell delivers, in both directions. A cubic polynomial carries
that map; a Pearson coefficient reports how strongly the two are related.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InsufficientSamples,
    LengthMismatch,
    MonotonicityViolation,
    OutOfRange,
    ZeroVariance,
)

# invert_relation stops within this of the request (deg) or after this many halvings
_INVERT_TOL_DEG = 1e-6
_INVERT_MAX_ITER = 200


@dataclass(frozen=True)
class RelationSample:
    rudder_deg: float
    heading_change_deg: float


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation Cov(X,Y) / sqrt(Var[X] Var[Y])."""
    n = len(xs)
    if len(ys) != n:
        raise LengthMismatch(f"{n} xs vs {len(ys)} ys")
    if n < 2:
        raise LengthMismatch("need at least 2 samples")
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sxx = syy = 0.0
    for x, y in zip(xs, ys):
        dx = x - mx
        dy = y - my
        cov += dx * dy
        sxx += dx * dx
        syy += dy * dy
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVariance("correlation undefined for a constant variable")
    r = cov / math.sqrt(sxx * syy)
    # guard rounding at the exact-linear ends
    return max(-1.0, min(1.0, r))


@dataclass(frozen=True)
class CubicRelation:
    """heading = a*delta^3 + b*delta^2 + c*delta + d, valid on [domain_lo, domain_hi].

    Strict monotonicity (d heading / d delta > 0 on the domain) is enforced
    at construction, which is what makes inversion single-valued.
    """

    a: float
    b: float
    c: float
    d: float
    domain_lo_deg: float
    domain_hi_deg: float

    def __post_init__(self):
        if not self._monotone_increasing():
            raise MonotonicityViolation(
                "cubic relation is not strictly increasing on "
                f"[{self.domain_lo_deg}, {self.domain_hi_deg}]"
            )

    def _monotone_increasing(self) -> bool:
        # derivative 3a x^2 + 2b x + c is a parabola: its minimum over the
        # domain sits at an endpoint or at the vertex, so the check is exact
        lo, hi = self.domain_lo_deg, self.domain_hi_deg
        candidates = [lo, hi]
        if self.a != 0.0:
            vertex = -self.b / (3.0 * self.a)
            if lo < vertex < hi:
                candidates.append(vertex)
        return all(self.slope_at(x) > 0.0 for x in candidates)

    def __call__(self, delta_deg: float) -> float:
        x = delta_deg
        return ((self.a * x + self.b) * x + self.c) * x + self.d

    def slope_at(self, delta_deg: float) -> float:
        x = delta_deg
        return (3.0 * self.a * x + 2.0 * self.b) * x + self.c

    @property
    def range_lo_deg(self) -> float:
        return self(self.domain_lo_deg)

    @property
    def range_hi_deg(self) -> float:
        return self(self.domain_hi_deg)


def fit_poly(samples: Sequence[RelationSample], degree: int):
    """Ordinary least squares in the monomial basis.

    Returns (coefficients low-to-high, residual_stddev) for degrees other
    than 3, and (CubicRelation, residual_stddev) for degree 3.
    residual_stddev is the root-mean-square fit residual. The solve runs on
    rudder values scaled to [-1, 1] for conditioning and the coefficients
    are mapped back to the raw monomial basis.
    """
    if not 1 <= degree <= 6:
        raise ValueError(f"degree must be in [1, 6], got {degree}")
    if len(samples) <= degree:
        raise InsufficientSamples(
            f"{len(samples)} samples cannot determine a degree-{degree} fit"
        )
    xs = np.array([s.rudder_deg for s in samples], dtype=float)
    ys = np.array([s.heading_change_deg for s in samples], dtype=float)

    scale = float(np.max(np.abs(xs))) or 1.0
    design = np.vander(xs / scale, degree + 1, increasing=True)
    coef_scaled, *_ = np.linalg.lstsq(design, ys, rcond=None)
    coefs = [float(coef_scaled[k]) / scale**k for k in range(degree + 1)]

    fitted = design @ coef_scaled
    residual_stddev = float(np.sqrt(np.mean((ys - fitted) ** 2)))

    if degree == 3:
        rel = CubicRelation(
            a=coefs[3], b=coefs[2], c=coefs[1], d=coefs[0],
            domain_lo_deg=float(xs.min()), domain_hi_deg=float(xs.max()),
        )
        return rel, residual_stddev
    return coefs, residual_stddev


def invert_relation(rel: CubicRelation, heading_change_deg: float) -> float:
    """Unique rudder angle whose relation value equals heading_change_deg.

    Bracketed bisection over the relation domain; uniqueness comes from the
    monotonicity invariant. Raises OutOfRange when the requested heading
    change is not reachable inside the domain; CellSet.command_for clamps
    its request into the fitted range first, so the planners never see it.
    """
    lo, hi = rel.domain_lo_deg, rel.domain_hi_deg
    f_lo = rel(lo) - heading_change_deg
    f_hi = rel(hi) - heading_change_deg
    if f_lo > 0.0 or f_hi < 0.0:
        raise OutOfRange(
            f"heading change {heading_change_deg:.3f} outside "
            f"[{rel(lo):.3f}, {rel(hi):.3f}]"
        )
    for _ in range(_INVERT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = rel(mid) - heading_change_deg
        if abs(f_mid) < _INVERT_TOL_DEG:
            return mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
