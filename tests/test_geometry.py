"""Ball operations against frozen scalar oracles and algebraic identities.

Frozen values were computed once from the scalar closed forms (1-D Mobius
addition, arctanh/tanh expressions) at 50-digit precision and pasted here.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyroshot import autodiff as ad
from gyroshot.autodiff import Tape, backward, finite_diff_check, val
from gyroshot.errors import ConfigError, DomainError, ShapeError
from gyroshot.geometry import (
    BallConfig,
    clip_to_ball,
    conformal_factor,
    einstein_midpoint,
    exp_map,
    flat_distance,
    geodesic_distance,
    in_ball,
    klein_to_poincare,
    log_map,
    mobius_add,
)
from gyroshot.verify import CURVATURE_GRID

import _refops as ref

CURVATURES = (0.01, 0.05, 0.1, 0.5, 0.7)
EPS = np.finfo(np.float64).eps


def sample_points(rng, n, dim, cfg, frac=0.75):
    """Uniform directions, radii up to frac * ball radius (volume-ish law)."""
    v = rng.normal(size=(n, dim))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    r = frac * cfg.radius * rng.uniform(size=(n, 1)) ** (1.0 / dim)
    return v * r


def to_klein(x, cfg):
    """Ball -> Klein, x_K = 2 x / (1 + c ||x||^2); the package has no
    forward Klein map, so this is the reference side."""
    return 2.0 * x / (1.0 + cfg.c * np.sum(x * x, axis=-1, keepdims=True))


def klein_midpoint(points, cfg):
    """The Klein-coordinate definition of the Einstein midpoint of (..., P, C)
    points: the Lorentz-factor-weighted mean of their Klein points, mapped
    back to the ball."""
    k = to_klein(points, cfg)
    gamma = 1.0 / np.sqrt(1.0 - cfg.c * np.sum(k * k, axis=-1, keepdims=True))
    return klein_to_poincare(np.sum(gamma * k, axis=-2) / np.sum(gamma, axis=-2), cfg)


# ---------------------------------------------------------------------------
# frozen oracles


def test_conformal_factor_frozen_value():
    cfg = BallConfig(c=0.7)
    out = conformal_factor(np.array([0.5, 0.5]), cfg)
    assert abs(float(out) - 3.0769230769230769) < 1e-12


def test_mobius_add_frozen_values():
    out = mobius_add(np.array([0.3, 0.0]), np.array([0.4, 0.0]), BallConfig(c=1.0))
    assert np.allclose(out, [0.625, 0.0], atol=1e-15)
    out2 = mobius_add(np.array([0.3, -0.2]), np.array([0.1, 0.4]), BallConfig(c=0.5))
    assert np.allclose(out2, [0.42280421757672484, 0.17477303053295309], atol=1e-15)


def test_geodesic_distance_frozen_values():
    d = geodesic_distance(np.array([0.3, 0.0]), np.array([-0.4, 0.0]), BallConfig(c=1.0))
    assert abs(float(d) - 1.466337068793427) < 1e-13
    d2 = geodesic_distance(np.array([0.1, 0.2]), np.array([-0.3, 0.4]), BallConfig(c=0.7))
    assert abs(float(d2) - 0.97515820930409844) < 1e-13


def test_klein_transform_frozen_value():
    cfg = BallConfig(c=0.25)
    k = to_klein(np.array([0.6, 0.0]), cfg)
    assert np.allclose(k, [1.1009174311926606, 0.0], atol=1e-15)
    assert np.allclose(klein_to_poincare(k, cfg), [0.6, 0.0], atol=1e-14)


def test_einstein_midpoint_frozen_value():
    cfg = BallConfig(c=0.5)
    pts = np.array([[0.4, 0.1], [-0.2, 0.3], [0.1, -0.5]])
    mid = einstein_midpoint(pts, cfg)
    assert np.allclose(mid, [0.093815532679869607, -0.040102834888361864], atol=1e-14)


def test_log_map_frozen_value():
    cfg = BallConfig(c=0.7)
    t = log_map(np.array([0.1, 0.2]), np.array([-0.3, 0.4]), cfg)
    assert np.allclose(t, [-0.43496115233910117, 0.17942147533987923], atol=1e-14)


# ---------------------------------------------------------------------------
# config and input validation


def test_ball_config_validation():
    with pytest.raises(ConfigError):
        BallConfig(c=0.0)
    with pytest.raises(ConfigError):
        BallConfig(c=-1.0)
    with pytest.raises(ConfigError):
        BallConfig(c=1.0, eps=0.0)
    cfg = BallConfig(c=0.25)
    assert cfg.radius == 2.0
    assert abs(cfg.max_norm - (1.0 - 1e-5) * 2.0) < 1e-15


def test_width_mismatch_rejected():
    with pytest.raises(ShapeError):
        mobius_add(np.zeros(2), np.zeros(3), BallConfig(c=1.0))


def test_geodesic_domain_error_on_boundary():
    cfg = BallConfig(c=1.0)
    with pytest.raises(DomainError):
        geodesic_distance(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), cfg)


def test_conformal_factor_outside_ball_rejected():
    with pytest.raises(DomainError):
        conformal_factor(np.array([2.0, 0.0]), BallConfig(c=1.0))


@pytest.mark.parametrize("taped", (False, True), ids=("array", "taped"))
def test_midpoint_rejects_points_on_or_outside_the_ball(taped):
    """A point outside the ball is not read as its inversion x / (c ||x||^2),
    which has the same Klein point, and one on the boundary does not divide
    by zero."""
    for far in (2.0, 1.0):
        pts = np.array([[0.5, 0.0], [far, 0.0]])
        with pytest.raises(DomainError):
            einstein_midpoint(Tape().var(pts) if taped else pts, BallConfig(c=1.0))


def test_midpoint_empty_set_rejected():
    with pytest.raises(ShapeError):
        einstein_midpoint([], BallConfig(c=1.0))
    with pytest.raises(ShapeError):
        einstein_midpoint(np.zeros((0, 3)), BallConfig(c=1.0))


# ---------------------------------------------------------------------------
# algebraic identities (randomized, seeded)


@pytest.mark.parametrize("c", CURVATURES)
def test_mobius_identities(c):
    cfg = BallConfig(c=c)
    rng = np.random.default_rng(int(c * 1000))
    x = sample_points(rng, 400, 8, cfg)
    zero = np.zeros_like(x)
    assert np.max(np.abs(mobius_add(x, zero, cfg) - x)) < 1e-12
    assert np.max(np.abs(mobius_add(-x, x, cfg))) < 1e-12


def test_mobius_add_is_not_commutative():
    cfg = BallConfig(c=1.0)
    x = np.array([0.3, 0.1])
    y = np.array([-0.2, 0.4])
    assert not np.allclose(mobius_add(x, y, cfg), mobius_add(y, x, cfg), atol=1e-6)


@pytest.mark.parametrize("c", CURVATURES)
def test_left_cancellation(c):
    cfg = BallConfig(c=c)
    rng = np.random.default_rng(7 + int(c * 100))
    x = sample_points(rng, 200, 6, cfg)
    y = sample_points(rng, 200, 6, cfg)
    back = mobius_add(-x, mobius_add(x, y, cfg), cfg)
    assert np.max(np.abs(back - y)) < 1e-10


@pytest.mark.parametrize("c", CURVATURES)
def test_distance_symmetry_and_identity(c):
    cfg = BallConfig(c=c)
    rng = np.random.default_rng(11 + int(c * 100))
    x = sample_points(rng, 400, 8, cfg)
    y = sample_points(rng, 400, 8, cfg)
    assert np.max(np.abs(geodesic_distance(x, x, cfg))) < 1e-12
    assert np.max(np.abs(geodesic_distance(x, y, cfg) - geodesic_distance(y, x, cfg))) < 1e-12
    assert np.all(geodesic_distance(x, y, cfg) >= 0.0)


@pytest.mark.parametrize("c", CURVATURES)
def test_klein_roundtrip(c):
    cfg = BallConfig(c=c)
    rng = np.random.default_rng(13 + int(c * 100))
    x = sample_points(rng, 400, 8, cfg, frac=0.98)
    back = klein_to_poincare(to_klein(x, cfg), cfg)
    assert np.max(np.abs(back - x)) < 1e-10


@pytest.mark.parametrize("c", CURVATURES)
def test_exp_log_roundtrip_and_lambda_relation(c):
    cfg = BallConfig(c=c)
    rng = np.random.default_rng(17 + int(c * 100))
    x = sample_points(rng, 300, 8, cfg)
    y = sample_points(rng, 300, 8, cfg)
    t = log_map(x, y, cfg)
    back = exp_map(x, t, cfg)
    assert np.max(np.abs(back - y)) < 1e-8
    lam = conformal_factor(x, cfg)
    d = geodesic_distance(x, y, cfg)
    rel = np.abs(lam * np.linalg.norm(t, axis=-1) - d) / np.maximum(d, 1e-30)
    assert np.max(rel) < 1e-9


def test_log_map_at_coincident_points_is_zero():
    cfg = BallConfig(c=0.5)
    x = np.array([0.3, -0.2, 0.1])
    t = log_map(x, x.copy(), cfg)
    assert np.all(np.isfinite(t))
    assert np.max(np.abs(t)) < 1e-12
    assert np.allclose(exp_map(x, np.zeros(3), cfg), x, atol=1e-15)


def test_euclidean_limit_small_curvature():
    cfg = BallConfig(c=1e-8)
    rng = np.random.default_rng(23)
    x = rng.uniform(-1, 1, (200, 8))
    y = rng.uniform(-1, 1, (200, 8))
    d = geodesic_distance(x, y, cfg)
    ref = 2.0 * np.linalg.norm(x - y, axis=-1)
    assert np.max(np.abs(d - ref) / ref) < 1e-4
    assert np.max(np.abs(mobius_add(x, y, cfg) - (x + y))) < 1e-6
    assert np.allclose(flat_distance(x, y), ref, atol=1e-12)


# ---------------------------------------------------------------------------
# Einstein midpoint


def test_midpoint_permutation_invariance_bit_for_bit():
    cfg = BallConfig(c=0.7)
    rng = np.random.default_rng(29)
    pts = sample_points(rng, 7, 5, cfg)
    perm = rng.permutation(7)
    a = einstein_midpoint(pts, cfg)
    b = einstein_midpoint(pts[perm], cfg)
    assert np.array_equal(a, b)


def test_midpoint_idempotent_on_constant_sets():
    cfg = BallConfig(c=0.5)
    x = np.array([0.4, -0.3, 0.2])
    for k in (1, 2, 5):
        mid = einstein_midpoint(np.broadcast_to(x, (k, 3)).copy(), cfg)
        assert np.max(np.abs(mid - x)) < 1e-10


def test_midpoint_stays_in_ball_and_batches():
    cfg = BallConfig(c=0.1)
    rng = np.random.default_rng(31)
    pts = sample_points(rng, 24, 4, cfg, frac=0.97).reshape(2, 3, 4, 4)
    mid = einstein_midpoint(pts, cfg)
    assert mid.shape == (2, 3, 4)
    assert in_ball(mid, cfg)


# ---------------------------------------------------------------------------
# clip


def test_clip_interior_points_untouched_bitwise():
    cfg = BallConfig(c=1.0)
    rng = np.random.default_rng(37)
    x = sample_points(rng, 50, 4, cfg, frac=0.9)
    assert np.array_equal(clip_to_ball(x, cfg), x)


def test_clip_pulls_outside_points_to_the_bound():
    cfg = BallConfig(c=0.5, eps=1e-5)
    x = np.array([[3.0, 4.0], [0.1, 0.0], [-10.0, 0.0]])
    out = clip_to_ball(x, cfg)
    norms = np.linalg.norm(out, axis=-1)
    mu = cfg.max_norm
    assert abs(norms[0] - mu) < 1e-12
    assert np.array_equal(out[1], x[1])
    assert abs(norms[2] - mu) < 1e-12
    # direction preserved
    assert np.allclose(out[0] / norms[0], x[0] / 5.0, atol=1e-12)
    assert in_ball(out, cfg)


# ---------------------------------------------------------------------------
# gradients through the ball ops


@pytest.mark.parametrize("c", (0.1, 0.7))
def test_geometry_gradients_match_finite_differences(c):
    cfg = BallConfig(c=c)
    rng = np.random.default_rng(41)
    x0 = sample_points(rng, 1, 5, cfg)[0]
    y0 = sample_points(rng, 1, 5, cfg)[0]

    assert finite_diff_check(lambda x: geodesic_distance(x, y0, cfg), x0).passed
    assert finite_diff_check(lambda y: geodesic_distance(x0, y, cfg), y0, tol=2e-4).passed
    assert finite_diff_check(
        lambda x: ad.sum(ad.mul(log_map(x, y0, cfg), np.arange(5.0))), x0
    ).passed


def test_midpoint_gradient_matches_finite_differences():
    cfg = BallConfig(c=0.5)
    rng = np.random.default_rng(43)
    pts = sample_points(rng, 4, 3, cfg)
    u = rng.normal(size=3)

    def f(p):
        return ad.sum(ad.mul(einstein_midpoint(p, cfg), u))

    assert finite_diff_check(f, pts).passed


def points_at_radius(rng, shape, frac, cfg):
    """Points of norm exactly frac * ball radius, uniform directions."""
    v = rng.normal(size=shape)
    return frac * cfg.radius * v / np.linalg.norm(v, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Einstein midpoint up to 0.999 of the radius (derandomized property tests)

BOUNDARY = settings(derandomize=True, database=None, deadline=None, max_examples=100)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def point_sets(draw, frac=st.floats(0.0, 0.999)):
    """(ball, (P, C) points): c on CURVATURE_GRID, each point at a drawn
    fraction of the radius in a seeded uniform direction."""
    cfg = BallConfig(c=draw(st.sampled_from(CURVATURE_GRID)))
    p, dim = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    fracs = np.array([[draw(frac)] for _ in range(p)])
    return cfg, points_at_radius(np.random.default_rng(draw(SEEDS)), (p, dim), fracs, cfg)


def longdouble_midpoint(points, c):
    """Einstein midpoint of float64 points evaluated in np.longdouble."""
    x, c = points.astype(np.longdouble), np.longdouble(c)
    lam = 2.0 / (1.0 - c * np.sum(x * x, axis=-1, keepdims=True))
    q = np.sum(lam * x, axis=-2) / np.sum(lam - 1.0, axis=-2)
    return q / (1.0 + np.sqrt(1.0 - c * np.sum(q * q, axis=-1, keepdims=True)))


@BOUNDARY
@given(point_sets())
def test_midpoint_equals_the_klein_coordinate_definition(case):
    """Within a few ulps of the radius times max lambda^2: the reference's
    Lorentz factors 1 / sqrt(1 - c ||x_K||^2) amplify rounding by that."""
    cfg, pts = case
    lam = np.max(conformal_factor(pts, cfg))
    err = np.max(np.abs(einstein_midpoint(pts, cfg) - klein_midpoint(pts, cfg)))
    assert err <= 4.0 * EPS * lam ** 2 * cfg.radius


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS,
                    reason="np.longdouble is float64 here, so it is no more precise than the code")
@BOUNDARY
@given(point_sets(frac=st.just(0.999)))
def test_midpoint_error_at_the_boundary_against_longdouble(case):
    """With every point at 0.999 of the radius the error is at most 1e-13 of
    the radius (the Klein-coordinate form reaches 2e-11), plus a few ulps
    times the midpoint's own conformal factor: mapping the Klein average
    back divides by 1 + sqrt(1 - c ||q||^2), which loses that much when the
    midpoint itself lies near the boundary (a single point: 2.3e-13)."""
    cfg, pts = case
    ref = longdouble_midpoint(pts, cfg.c)
    lam_mid = float(2.0 / (1.0 - cfg.c * np.sum(ref * ref)))
    err = float(np.max(np.abs(einstein_midpoint(pts, cfg) - ref)) / cfg.radius)
    assert err <= 1e-13 + 4.0 * EPS * lam_mid


@BOUNDARY
@given(point_sets(frac=st.just(0.999)), SEEDS)
def test_midpoint_gradient_at_the_boundary(case, seed):
    cfg, pts = case
    u = np.random.default_rng(seed).normal(size=pts.shape[-1])
    report = finite_diff_check(lambda p: ad.sum(ad.mul(einstein_midpoint(p, cfg), u)), pts,
                               step=1e-7)
    assert report.passed, report.max_rel_error


def composite_midpoint(points, cfg):
    """The 17-op taped midpoint whose reverse sweep the fused adjoint
    replays: 5 ops for the conformal factors, 5 for the two weighted sums
    and their quotient, and 7 for the map back to the ball."""
    sq = ad.sum(ad.mul(points, points), axis=-1, keepdims=True)
    lam = ad.div(2.0, ref.sub(1.0, ad.mul(cfg.c, sq)))
    weighted, gamma = ad.mul(lam, points), ref.sub(lam, 1.0)
    k = ad.div(ad.sum(weighted, axis=-2), ad.sum(gamma, axis=-2))
    inside = ref.sub(1.0, ad.mul(cfg.c, ad.sum(ad.mul(k, k), axis=-1, keepdims=True)))
    return ad.div(k, ad.add(1.0, ref.sqrt(inside)))


@pytest.mark.parametrize("shape", [(1, 3), (5, 5, 16), (2, 3, 4, 4)],
                         ids=["one_point", "prototype_set", "two_leading_axes"])
@pytest.mark.parametrize("frac", (0.5, 0.999))
@pytest.mark.parametrize("c", CURVATURE_GRID)
def test_fused_midpoint_equals_the_composite_bit_for_bit(shape, frac, c):
    """One node whose value and gradient equal the 17-op composite's bits,
    the gradient taken through random weights of the midpoint."""
    cfg = BallConfig(c=c)
    rng = np.random.default_rng(int(1000 * frac) + shape[-2])
    pts = points_at_radius(rng, shape, rng.uniform(0.0, frac, size=shape[:-1] + (1,)), cfg)
    u = rng.normal(size=shape[:-2] + shape[-1:])
    runs = []
    for midpoint in (einstein_midpoint, composite_midpoint):
        tape = Tape()
        x = tape.var(pts)
        mid = midpoint(x, cfg)
        runs.append((len(tape) - 1, mid.value, x))
        backward(ad.sum(ad.mul(mid, u)))
    (nodes, value, x), (ref_nodes, ref_value, ref_x) = runs
    assert (nodes, ref_nodes) == (1, 17)
    np.testing.assert_array_equal(value, ref_value)
    np.testing.assert_array_equal(x.grad, ref_x.grad)


@BOUNDARY
@given(point_sets(), SEEDS)
def test_fused_midpoint_gradient_matches_finite_differences(case, seed):
    """Points up to 0.999 of the radius, c on CURVATURE_GRID, through the
    one midpoint node."""
    cfg, pts = case
    u = np.random.default_rng(seed).normal(size=pts.shape[-1])
    tape = Tape()
    einstein_midpoint(tape.var(pts), cfg)
    assert [n.op for n in tape.nodes] == ["leaf", "midpoint"]
    report = finite_diff_check(lambda p: ad.sum(ad.mul(einstein_midpoint(p, cfg), u)), pts,
                               step=1e-7)
    assert report.passed, report.max_rel_error


# the two broadcast layouts the models use: pairwise_matrix's query patches
# (NQ, 1, 1, HW, 1, C) against support patches (1, N, K, 1, HW, C), and the
# prototype's query embeddings (NQ, 1, C) against class prototypes (1, N, C)
GEODESIC_LAYOUTS = {
    "pairwise": ((2, 1, 1, 3, 1, 4), (1, 2, 2, 1, 3, 4)),
    "prototype": ((3, 1, 4), (1, 2, 4)),
}


@pytest.mark.parametrize("layout", sorted(GEODESIC_LAYOUTS))
@pytest.mark.parametrize("frac", (0.5, 0.999))
@pytest.mark.parametrize("c", (0.1, 0.7))
def test_fused_geodesic_gradients_in_model_layouts(layout, frac, c):
    cfg = BallConfig(c=c)
    xs, ys = GEODESIC_LAYOUTS[layout]
    rng = np.random.default_rng(int(1000 * frac) + int(10 * c))
    x0 = points_at_radius(rng, xs, frac, cfg)
    y0 = points_at_radius(rng, ys, frac, cfg)
    # one pair coincides: its distance is 0 and its gradient the zero subgradient
    x0.reshape(-1, 4)[0] = y0.reshape(-1, 4)[0]
    w = rng.uniform(0.5, 1.5, size=np.broadcast_shapes(xs, ys)[:-1])

    def check(f, point):
        # the coincident pair is a kink: central differences straddle it with
        # an error that grows like h times the squared conformal factor
        # (~1e6 at 0.999 of the radius), hence the small step
        report = finite_diff_check(f, point, step=1e-7)
        assert report.passed, f"max rel err {report.max_rel_error} at {report.flagged}"
        assert np.all(np.isfinite(report.analytic))

    check(lambda x: ad.sum(ad.mul(geodesic_distance(x, y0, cfg), w)), x0)
    check(lambda y: ad.sum(ad.mul(geodesic_distance(x0, y, cfg), w)), y0)


@pytest.mark.parametrize("frac", (0.5, 0.999))
def test_fused_geodesic_gradient_same_whichever_operand_is_taped(frac):
    """Pairwise layout: with only x taped and with only y taped the gradient
    matches central differences, and it is the same bits when both operands
    are taped and share one adjoint call."""
    cfg = BallConfig(c=0.7)
    xs, ys = GEODESIC_LAYOUTS["pairwise"]
    rng = np.random.default_rng(int(1000 * frac) + 3)
    x0 = points_at_radius(rng, xs, frac, cfg)
    y0 = points_at_radius(rng, ys, frac, cfg)
    w = rng.uniform(0.5, 1.5, size=np.broadcast_shapes(xs, ys)[:-1])
    tape = Tape()
    x, y = tape.var(x0), tape.var(y0)
    backward(ad.sum(ad.mul(geodesic_distance(x, y, cfg), w)))
    only_x = finite_diff_check(lambda x: ad.sum(ad.mul(geodesic_distance(x, y0, cfg), w)), x0,
                               step=1e-7)
    only_y = finite_diff_check(lambda y: ad.sum(ad.mul(geodesic_distance(x0, y, cfg), w)), y0,
                               step=1e-7)
    for report, both in ((only_x, x.grad), (only_y, y.grad)):
        assert report.passed, f"max rel err {report.max_rel_error} at {report.flagged}"
        np.testing.assert_array_equal(report.analytic, both)


@pytest.mark.parametrize("frac", (0.0, 0.5, 0.999))
def test_fused_geodesic_zero_distance_has_zero_gradient(frac):
    cfg = BallConfig(c=0.7)
    p = points_at_radius(np.random.default_rng(5), (4,), frac, cfg)
    tape = Tape()
    x, y = tape.var(p), tape.var(p.copy())
    d = geodesic_distance(x, y, cfg)
    backward(d)
    assert float(val(d)) == 0.0
    assert np.array_equal(x.grad, np.zeros(4)) and np.array_equal(y.grad, np.zeros(4))


def test_fused_geodesic_matches_mobius_form_near_the_boundary():
    cfg = BallConfig(c=0.7)
    rng = np.random.default_rng(6)
    for frac in (0.5, 0.9, 0.999):
        x = points_at_radius(rng, (200, 5), frac, cfg)
        y = points_at_radius(rng, (200, 5), frac, cfg)
        m = mobius_add(-x, y, cfg)
        mobius_form = (2.0 / cfg.sqrt_c) * np.arctanh(cfg.sqrt_c * np.linalg.norm(m, axis=-1))
        np.testing.assert_allclose(geodesic_distance(x, y, cfg), mobius_form, rtol=1e-9)


def test_untaped_geodesic_holds_one_array_of_the_broadcast_size():
    """The default pairwise layout: x - y is squared in place, so the
    forward never holds x - y and its square at once (3.9 MB each)."""
    cfg = BallConfig(c=0.7)
    rng = np.random.default_rng(10)
    x = points_at_radius(rng, (15, 1, 1, 9, 1, 16), 0.5, cfg)
    y = points_at_radius(rng, (1, 5, 5, 1, 9, 16), 0.5, cfg)
    full = 15 * 5 * 5 * 9 * 9 * 16 * 8
    tracemalloc.start()
    try:
        geodesic_distance(x, y, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * full


def test_taped_distance_matches_untaped():
    cfg = BallConfig(c=0.7)
    rng = np.random.default_rng(47)
    x = sample_points(rng, 10, 4, cfg)
    y = sample_points(rng, 10, 4, cfg)
    plain = geodesic_distance(x, y, cfg)
    tape = Tape()
    taped = geodesic_distance(tape.var(x), tape.var(y), cfg)
    assert np.array_equal(plain, val(taped))


# ---------------------------------------------------------------------------
# the fused flat distance


def _composite_flat_distance(x, y):
    """The three-op flat distance that the fused node replaces."""
    return ad.mul(2.0, ref.norm(ref.sub(x, y)))


def _flat_points(seed):
    """Query and support patches in pairwise_matrix's layout, one pair
    coincident, and weights of the distances."""
    xs, ys = GEODESIC_LAYOUTS["pairwise"]
    rng = np.random.default_rng(seed)
    x0, y0 = rng.uniform(-0.5, 0.5, size=xs), rng.uniform(-0.5, 0.5, size=ys)
    x0.reshape(-1, 4)[0] = y0.reshape(-1, 4)[0]
    return x0, y0, rng.uniform(0.5, 1.5, size=np.broadcast_shapes(xs, ys)[:-1])


@pytest.mark.parametrize("seed", range(3))
def test_fused_flat_distance_equals_the_composite_bit_for_bit(seed):
    """One node whose value, taped and untaped, and both operand gradients
    carry the bits of 2 * norm(x - y), the coincident pair included."""
    x0, y0, w = _flat_points(seed)
    runs = []
    for f in (flat_distance, _composite_flat_distance):
        tape = Tape()
        x, y = tape.var(x0), tape.var(y0)
        d = f(x, y)
        runs.append([len(tape) - 2])
        backward(ad.sum(ad.mul(d, w)))
        runs[-1] += [d.value, x.grad, y.grad]
    (nodes, *fused), (ref_nodes, *composite) = runs
    assert nodes == 1 and ref_nodes == 3
    for a, b in zip(fused + [flat_distance(x0, y0)], composite + [composite[0]]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_fused_flat_distance_gradients_match_finite_differences():
    x0, y0, w = _flat_points(3)
    for point, f in ((x0, lambda x: flat_distance(x, y0)), (y0, lambda y: flat_distance(x0, y))):
        report = finite_diff_check(lambda p: ad.sum(ad.mul(f(p), w)), point)
        assert report.passed, f"max rel err {report.max_rel_error} at {report.flagged}"


def test_fused_flat_distance_of_coincident_points_has_zero_gradient():
    """The norm is floored at 1e-15 in the adjoint, so x == y gives a zero
    gradient rather than 0/0."""
    p = np.array([0.3, -0.2, 0.0, 0.5])
    tape = Tape()
    x, y = tape.var(p), tape.var(p.copy())
    d = flat_distance(x, y)
    backward(d)
    assert float(val(d)) == 0.0
    assert np.array_equal(x.grad, np.zeros(4)) and np.array_equal(y.grad, np.zeros(4))


# ---------------------------------------------------------------------------
# the fused log map


def _composite_log_map(x, y, cfg):
    """The unfused log map: Mobius addition, floored norm, conformal factor
    and arctanh as separate ops."""
    m = mobius_add(-1.0 * x, y, cfg)
    n = ref.norm(m, keepdims=True)
    n_safe = np.where(n > 1e-15, n, np.ones_like(n))
    lam = conformal_factor(x, cfg, keepdims=True)
    coef = (2.0 / (cfg.sqrt_c * lam)) * np.arctanh(cfg.sqrt_c * n) / n_safe
    return coef * m


# the tangent projection's layout: one base point per query (NQ, 1, 1, 1, C)
# against the support patches (1, N, K, HW, C)
TANGENT_LAYOUT = ((2, 1, 1, 1, 4), (1, 2, 2, 3, 4))


def _tangent_points(frac, cfg, seed):
    rng = np.random.default_rng(seed)
    x0 = points_at_radius(rng, TANGENT_LAYOUT[0], frac, cfg)
    y0 = points_at_radius(rng, TANGENT_LAYOUT[1], frac, cfg)
    y0[0, 0, 0, 0] = x0[0, 0, 0, 0]  # one coincident pair
    w = rng.uniform(-1.5, 1.5, size=np.broadcast_shapes(*TANGENT_LAYOUT))
    return x0, y0, w


@pytest.mark.parametrize("frac", (0.3, 0.75, 0.999))
@pytest.mark.parametrize("c", CURVATURES + (1.3,))
def test_untaped_log_map_equals_composite_bit_for_bit(frac, c):
    cfg = BallConfig(c=c)
    x0, y0, _ = _tangent_points(frac, cfg, seed=int(1000 * frac))
    scale = np.random.default_rng(1).uniform(0.1, 1.0, size=y0.shape[:-1] + (1,))
    for y in (y0, y0 * scale):
        np.testing.assert_array_equal(log_map(x0, y, cfg), _composite_log_map(x0, y, cfg))


def test_log_map_keeps_the_composite_checks():
    cfg = BallConfig(c=1.0)
    with pytest.raises(ShapeError):
        log_map(np.zeros(2), np.zeros(3), cfg)
    with pytest.raises(DomainError, match="mobius_add"):
        log_map(np.array([1.0, 0.0]), np.array([1.0, 0.0]), cfg)
    with pytest.raises(DomainError, match="conformal_factor"):
        log_map(np.array([1.0, 0.0]), np.array([0.0, 0.5]), cfg)
    with pytest.raises(DomainError, match="arctanh"):
        log_map(np.array([0.0, 0.0]), np.array([1.0, 0.0]), cfg)


@pytest.mark.parametrize("frac", (0.5, 0.999))
@pytest.mark.parametrize("c", (0.1, 0.7))
def test_fused_log_map_gradients_in_model_layout(frac, c):
    """Both operands against central differences, with one coincident pair:
    the log map is smooth there, and the adjoint takes arctanh(u)/u at its
    limit 1 where ||(-x) (+) y|| <= 1e-15."""
    cfg = BallConfig(c=c)
    x0, y0, w = _tangent_points(frac, cfg, seed=int(1000 * frac) + int(10 * c))
    for f, point in ((lambda x: ad.sum(ad.mul(log_map(x, y0, cfg), w)), x0),
                     (lambda y: ad.sum(ad.mul(log_map(x0, y, cfg), w)), y0)):
        report = finite_diff_check(f, point, step=1e-7)
        assert report.passed, f"max rel err {report.max_rel_error} at {report.flagged}"


@pytest.mark.parametrize("frac", (0.5, 0.999))
def test_fused_log_map_same_bits_whichever_operand_is_taped(frac):
    cfg = BallConfig(c=0.7)
    x0, y0, w = _tangent_points(frac, cfg, seed=7)
    grads = {}
    for taped in ("x", "y", "xy"):
        tape = Tape()
        x = tape.var(x0) if "x" in taped else x0
        y = tape.var(y0) if "y" in taped else y0
        out = log_map(x, y, cfg)
        assert len(tape) == len(taped) + 1
        np.testing.assert_array_equal(val(out), log_map(x0, y0, cfg))
        backward(ad.sum(ad.mul(out, w)))
        grads[taped] = [v.grad for v in (x, y) if isinstance(v, ad.Var)]
    np.testing.assert_array_equal(grads["x"][0], grads["xy"][0])
    np.testing.assert_array_equal(grads["y"][0], grads["xy"][1])


@pytest.mark.parametrize("frac", (0.0, 0.5, 0.999))
def test_fused_log_map_at_coincident_points(frac):
    """A zero tangent whose gradient is finite: the Jacobian of log_x(y) at
    y = x, which is the identity in y and its negative in x."""
    cfg = BallConfig(c=0.7)
    p = points_at_radius(np.random.default_rng(8), (4,), frac, cfg)
    u = np.array([0.3, -1.1, 0.7, 0.2])
    tape = Tape()
    x, y = tape.var(p), tape.var(p.copy())
    t = log_map(x, y, cfg)
    backward(ad.sum(ad.mul(t, u)))
    assert np.array_equal(val(t), np.zeros(4))
    np.testing.assert_allclose(y.grad, u, rtol=1e-9)
    np.testing.assert_allclose(x.grad, -u, rtol=1e-9)


def test_taped_log_map_keeps_one_array_of_the_broadcast_size():
    """Beside its output, a taped log map holds m = (-x) (+) y and per-row
    scalars (C = 16, so each is 1/16 of m), not the dozens of intermediates
    of the composite."""
    cfg = BallConfig(c=0.7)
    rng = np.random.default_rng(9)
    x0 = points_at_radius(rng, (15, 1, 1, 1, 16), 0.5, cfg)
    y0 = points_at_radius(rng, (1, 5, 5, 9, 16), 0.5, cfg)
    tape = Tape()
    x, y = tape.var(x0), tape.var(y0)
    full = 15 * 5 * 5 * 9 * 16 * 8
    tracemalloc.start()
    try:
        out = log_map(x, y, cfg)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held - out.value.nbytes < 1.5 * full
