"""Correlation and polynomial-fit tests, including the published 12-row table."""

import functools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgtc.cells import build_cell_set
from cgtc.errors import (
    InsufficientSamples,
    LengthMismatch,
    MonotonicityViolation,
    OutOfRange,
    ZeroVariance,
)
from cgtc.relation import CubicRelation, RelationSample, fit_poly, invert_relation, pearson
from cgtc.ship import ShipParams

from conftest import RUDDER_HEADING_TABLE

TABLE_SAMPLES = [RelationSample(d, t) for d, t in RUDDER_HEADING_TABLE]
TABLE_X = [d for d, _ in RUDDER_HEADING_TABLE]
TABLE_Y = [t for _, t in RUDDER_HEADING_TABLE]


def normal_equations_fit(xs, ys, degree):
    """Independent oracle: assemble and solve the normal equations directly."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    scale = np.max(np.abs(xs))
    v = np.vander(xs / scale, degree + 1, increasing=True)
    coef_scaled = np.linalg.solve(v.T @ v, v.T @ ys)
    coefs = [coef_scaled[k] / scale**k for k in range(degree + 1)]
    resid = ys - v @ coef_scaled
    return coefs, float(np.sqrt(np.mean(resid**2)))


class TestPearson:
    def test_exact_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == 1.0

    def test_published_table_value(self):
        assert pearson(TABLE_X, TABLE_Y) == pytest.approx(0.9957, abs=0.0005)

    def test_constant_variable_rejected(self):
        with pytest.raises(ZeroVariance):
            pearson([1, 2, 3], [5, 5, 5])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(LengthMismatch):
            pearson([1], [2])

    def test_affine_invariance_and_sign_flip(self):
        rng = random.Random(42)
        for _ in range(20):
            xs = [rng.uniform(-10, 10) for _ in range(15)]
            ys = [x + rng.uniform(-3, 3) for x in xs]
            r = pearson(xs, ys)
            a, b = rng.uniform(0.1, 5), rng.uniform(-10, 10)
            assert pearson([a * x + b for x in xs], ys) == pytest.approx(r, abs=1e-12)
            assert pearson([-x for x in xs], ys) == pytest.approx(-r, abs=1e-12)


class TestFitPoly:
    def test_exact_cubic_interpolated(self):
        samples = [RelationSample(d, d**3) for d in (-3, -2, -1, 0, 1, 2, 3)]
        rel, resid = fit_poly(samples, 3)
        assert rel.a == pytest.approx(1.0, abs=1e-9)
        assert rel.b == pytest.approx(0.0, abs=1e-9)
        assert rel.c == pytest.approx(0.0, abs=1e-9)
        assert rel.d == pytest.approx(0.0, abs=1e-9)
        assert resid == pytest.approx(0.0, abs=1e-9)

    def test_table_matches_normal_equations_oracle(self):
        rel, resid = fit_poly(TABLE_SAMPLES, 3)
        coefs, resid_oracle = normal_equations_fit(TABLE_X, TABLE_Y, 3)
        got = [rel.d, rel.c, rel.b, rel.a]
        scale = max(abs(c) for c in coefs)
        for mine, ref in zip(got, coefs):
            assert abs(mine - ref) <= 1e-9 * scale
        assert resid == pytest.approx(resid_oracle, rel=1e-9)

    def test_residual_stddev_non_increasing_and_stabilizes(self):
        resid = [fit_poly(TABLE_SAMPLES, deg)[1] for deg in range(1, 6)]
        assert all(b <= a + 1e-12 for a, b in zip(resid, resid[1:]))
        drop_23 = resid[1] - resid[2]
        drop_34 = resid[2] - resid[3]
        assert drop_34 < 0.2 * drop_23

    def test_residual_orthogonal_to_basis(self):
        rel, _ = fit_poly(TABLE_SAMPLES, 3)
        res = np.array([t - rel(d) for d, t in RUDDER_HEADING_TABLE])
        scale = float(np.linalg.norm(res)) or 1.0
        for k in range(4):
            basis = np.array([(d / 35.0) ** k for d, _ in RUDDER_HEADING_TABLE])
            assert abs(float(res @ basis)) / (scale * float(np.linalg.norm(basis))) < 1e-8

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            fit_poly(TABLE_SAMPLES[:3], 3)

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            fit_poly(TABLE_SAMPLES, 0)
        with pytest.raises(ValueError):
            fit_poly(TABLE_SAMPLES, 7)

    def test_monotonicity_violation_raises(self):
        # heading falls back down over the sample hull: no monotone cubic fits
        samples = [RelationSample(d, -(d**3)) for d in (-3, -1, 0, 1, 2, 3)]
        with pytest.raises(MonotonicityViolation):
            fit_poly(samples, 3)
        with pytest.raises(MonotonicityViolation):
            CubicRelation(a=-1.0, b=0.0, c=0.0, d=0.0,
                          domain_lo_deg=-3.0, domain_hi_deg=3.0)

    @pytest.mark.parametrize("unit, degree", [(1e103, 3), (1e61, 5), (1e-160, 3)])
    def test_coefficients_past_float_range_rejected(self, unit, degree):
        """A power of the rudder scale that overflows, or underflows to
        zero, leaves the raw-basis coefficients no float to hold them."""
        samples = [RelationSample(d * unit, d ** 3 + d) for d in range(7)]
        with pytest.raises(ValueError, match="finite coefficients"):
            fit_poly(samples, degree)

    def test_non_cubic_degree_returns_coefficients(self):
        coefs, resid = fit_poly(TABLE_SAMPLES, 1)
        assert len(coefs) == 2
        assert resid > 0.0


class TestInvertRelation:
    def test_odd_cubic_zero(self):
        samples = [RelationSample(d, d**3) for d in (-3, -2, -1, 0, 1, 2, 3)]
        rel, _ = fit_poly(samples, 3)
        assert invert_relation(rel, 0.0) == pytest.approx(0.0, abs=1e-6)

    def test_table_inversion_near_full_starboard(self):
        rel, _ = fit_poly(TABLE_SAMPLES, 3)
        assert invert_relation(rel, 89.38) == pytest.approx(31.0, abs=2.0)

    def test_round_trip_identity(self):
        rel, _ = fit_poly(TABLE_SAMPLES, 3)
        lo, hi = rel.domain_lo_deg, rel.domain_hi_deg
        for i in range(50):
            delta = lo + (hi - lo) * i / 49.0
            assert invert_relation(rel, rel(delta)) == pytest.approx(delta, abs=1e-5)

    def test_out_of_range(self):
        rel, _ = fit_poly(TABLE_SAMPLES, 3)
        with pytest.raises(OutOfRange):
            invert_relation(rel, rel.range_hi_deg + 5.0)
        with pytest.raises(OutOfRange):
            invert_relation(rel, rel.range_lo_deg - 5.0)


def reference_invert(rel, heading_change_deg):
    """invert_relation's bisection with each probe evaluated through rel()."""
    lo, hi = rel.domain_lo_deg, rel.domain_hi_deg
    if rel(lo) - heading_change_deg > 0.0 or rel(hi) - heading_change_deg < 0.0:
        raise OutOfRange(heading_change_deg)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = rel(mid) - heading_change_deg
        if abs(f_mid) < 1e-6:
            return mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.cache
def default_cells(resolution):
    return build_cell_set(ShipParams(), 600.0, resolution)


@settings(max_examples=300, deadline=None)
@given(resolution=st.sampled_from([5.0, 2.0]),
       change=st.floats(-100.0, 100.0) | st.sampled_from([-90.0, 0.0, 90.0]))
@example(resolution=5.0, change=-1e9)
@example(resolution=2.0, change=1e9)
# 1e-6 off the relation at an early probe, so the last bit of each probe's
# value decides whether the bisection stops there
@example(resolution=5.0, change=-40.043446355272245)
@example(resolution=2.0, change=-75.90228052828814)
def test_inversion_is_bit_equal_to_evaluating_through_the_relation(resolution, change):
    cells = default_cells(resolution)
    rel = cells.relation
    lo, hi = rel.range_lo_deg, rel.range_hi_deg
    span = hi - lo
    target = max(lo + 1e-9 * span, min(hi - 1e-9 * span, change))  # command_for's clamp
    expected = reference_invert(rel, target).hex()
    assert invert_relation(rel, target).hex() == expected
    assert cells.command_for(change).hex() == expected
    if lo <= change <= hi:
        assert invert_relation(rel, change).hex() == reference_invert(rel, change).hex()
