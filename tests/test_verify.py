"""Invariant-suite tests: the checks pass on the real library and, crucially,
fail when a deliberately broken operation is injected (mutation check); and
the identities hold up to 0.999 of the radius, beyond verify's 0.75."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gyroshot import verify
from gyroshot.geometry import BallConfig, conformal_factor
from gyroshot.verify import (CURVATURE_GRID, PropertyCheck, check_geometry_identities,
                             sample_ball_points)
from test_geometry import BOUNDARY, EPS, SEEDS, points_at_radius

LEFT_INVERSE = "mobius left inverse: (-x) (+) x = 0"
RIGHT_IDENTITY = "mobius right identity: x (+) 0 = x"


def _sign_flipped_mobius(x, y, cfg):
    """Ball addition with the inner-product term negated in the numerator."""
    c = cfg.c
    xy = np.sum(x * y, axis=-1, keepdims=True)
    xx = np.sum(x * x, axis=-1, keepdims=True)
    yy = np.sum(y * y, axis=-1, keepdims=True)
    num = (1.0 - 2.0 * c * xy + c * yy) * x + (1.0 - c * xx) * y
    den = 1.0 + 2.0 * c * xy + c**2 * xx * yy
    return num / den


class TestPropertyCheck:
    def test_line_format(self):
        ok = PropertyCheck(name="thing", tolerance=1e-9, worst=5e-10,
                           passed=True, detail="(n=3)")
        assert ok.line() == "[PASS] thing (tol 1e-09, worst 5e-10) (n=3)"
        bad = PropertyCheck(name="thing", tolerance=1e-9, worst=2.0, passed=False)
        assert bad.line() == "[FAIL] thing (tol 1e-09, worst 2)"


class TestGeometryIdentities:
    def test_clean_library_passes(self):
        checks = check_geometry_identities(n_triples=200)
        assert len(checks) == 7
        assert all(c.passed for c in checks)

    def test_sign_flipped_addition_is_caught(self, monkeypatch):
        monkeypatch.setattr(verify, "mobius_add", _sign_flipped_mobius)
        checks = {c.name: c for c in check_geometry_identities(n_triples=500)}
        # the flipped term vanishes at y = 0, so the right-identity check alone
        # cannot see the mutation; the left-inverse identity must catch it
        assert checks[RIGHT_IDENTITY].passed
        assert not checks[LEFT_INVERSE].passed
        assert checks[LEFT_INVERSE].worst > 1e-3
        # distances are computed by the unmutated library and stay green
        assert checks["distance symmetry: d(x, y) = d(y, x)"].passed

    def test_mutation_is_scoped_to_the_fixture(self):
        # after the monkeypatched test, the real addition is back in place
        checks = {c.name: c for c in check_geometry_identities(n_triples=100)}
        assert checks[LEFT_INVERSE].passed


class TestSampler:
    def test_points_stay_well_inside_ball(self):
        cfg = BallConfig(c=0.7)
        pts = sample_ball_points(np.random.default_rng(0), 1000, 5, cfg)
        norms = np.linalg.norm(pts, axis=-1)
        assert np.all(norms <= 0.75 * cfg.radius + 1e-12)
        assert np.all(norms > 0)


# ---------------------------------------------------------------------------
# the identities at the boundary (derandomized property tests)


@st.composite
def point_pairs(draw):
    """(ball, x, y): c on CURVATURE_GRID and 1 to 8 pairs of 8-wide points,
    verify's width, each point at a drawn fraction of the radius up to 0.999
    in a seeded uniform direction."""
    cfg = BallConfig(c=draw(st.sampled_from(CURVATURE_GRID)))
    n = draw(st.integers(1, 8))
    fracs = np.array([[draw(st.floats(0.0, 0.999))] for _ in range(2 * n)])
    pts = points_at_radius(np.random.default_rng(draw(SEEDS)), (2 * n, 8), fracs, cfg)
    return cfg, pts[:n], pts[n:]


#: identity name -> its bound from λ = max(λ_x, λ_y) per pair, where rounding
#: grows like λ² toward the boundary; the other five keep verify's tolerance
SCALED_BOUNDS = {
    "exp/log roundtrip: exp_x(log_x(y)) = y": lambda lam, cfg: 8.0 * EPS * lam ** 2 * cfg.radius,
    "conformal relation: lambda_x ||log_x(y)|| = d(x, y)": lambda lam, cfg: 8.0 * EPS * lam ** 2,
}


def test_scaled_bounds_name_identities_of_verify():
    assert set(SCALED_BOUNDS) < {name for name, _, _ in verify._IDENTITIES}


@pytest.mark.parametrize("name,tol,error", verify._IDENTITIES,
                         ids=[name.split(":")[0] for name, _, _ in verify._IDENTITIES])
@BOUNDARY
@given(point_pairs())
def test_identity_holds_up_to_0999_of_the_radius(name, tol, error, case):
    cfg, x, y = case
    err = np.abs(error(x, y, cfg)).reshape(len(x), -1)
    if name in SCALED_BOUNDS:
        lam = np.maximum(conformal_factor(x, cfg, keepdims=True),
                         conformal_factor(y, cfg, keepdims=True))
        bound = SCALED_BOUNDS[name](lam, cfg)
    else:
        bound = tol
    assert np.all(err <= bound), np.max(err / bound)
