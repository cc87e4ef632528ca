"""Poincare-ball gyrovector operations and Einstein-midpoint averaging.

Conventions
-----------
The ball of curvature magnitude c > 0 is {x : sqrt(c) * ||x|| < 1}, radius
1/sqrt(c). Coordinates live on the last axis; every function broadcasts over
leading axes. The distances, the midpoint and the log map accept plain
float64 arrays or autodiff Vars (the same code records onto the tape when
any operand is a Var); the other functions take plain arrays only.

Core formulas:

    lambda_x   = 2 / (1 - c ||x||^2)                        (conformal factor)
    x (+) y    = ((1 + 2c<x,y> + c||y||^2) x + (1 - c||x||^2) y)
                 / (1 + 2c<x,y> + c^2 ||x||^2 ||y||^2)      (Mobius addition)
    d_c(x, y)  = (2/sqrt(c)) arctanh(sqrt(c) ||(-x) (+) y||)
               = arcosh(1 + z) / sqrt(c) = log1p(z + sqrt(z (z + 2))) / sqrt(c),
                 z = 2c ||x - y||^2 / ((1 - c||x||^2)(1 - c||y||^2))
                 (the computed form; its adjoint divides by
                 sinh(sqrt(c) d) = sqrt(z (z + 2)), floored at 1e-15, so
                 d(x, x) = 0 has a zero gradient)
    x_D        = x_K / (1 + sqrt(1 - c ||x_K||^2))          (Klein -> ball)
    midpoint   = 1/2 (x) (sum_i lambda_i x_i / sum_i (lambda_i - 1)),
                 1/2 (x) v being the Klein -> ball map      (Einstein midpoint)
                 (x_i's Klein point has Lorentz factor lambda_i - 1 and
                 weighted point lambda_i x_i; no ball -> Klein map is formed)
    log_x(y)   = (2 / (sqrt(c) lambda_x)) arctanh(sqrt(c) ||m||) m / ||m||,
                 m = (-x) (+) y
    exp_x(v)   = x (+) (tanh(sqrt(c) lambda_x ||v|| / 2) v / (sqrt(c) ||v||))

As c -> 0 the distance tends to 2||x - y|| and Mobius addition to x + y;
`flat_distance` implements that limit for the euclidean_ap2s variant.

`geodesic_distance`, `flat_distance`, `log_map` and `einstein_midpoint` are
fused: each records one tape node with a hand-written adjoint, and its
forward runs the arithmetic of the composite form, so untaped results are
the composite's bits. None keeps an array of the broadcast (..., C) size but
one: the two distances rebuild x - y in their adjoints, the log map keeps
m = (-x) (+) y, and the midpoint keeps its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import val
from .errors import ConfigError, DomainError, ShapeError

_TINY = 1e-15


@dataclass(frozen=True)
class BallConfig:
    """Curvature magnitude and the clip margin that keeps points strictly inside."""

    c: float
    eps: float = 1e-5

    def __post_init__(self):
        if not (self.c > 0.0) or not math.isfinite(self.c):
            raise ConfigError(f"curvature magnitude must be positive and finite, got {self.c}")
        if not (0.0 < self.eps < 1.0):
            raise ConfigError(f"eps must lie in (0, 1), got {self.eps}")

    @property
    def sqrt_c(self) -> float:
        return math.sqrt(self.c)

    @property
    def radius(self) -> float:
        return 1.0 / math.sqrt(self.c)

    @property
    def max_norm(self) -> float:
        """Clip bound mu = (1 - eps) / sqrt(c)."""
        return (1.0 - self.eps) / math.sqrt(self.c)


def _check_same_width(x, y, op: str) -> None:
    xs, ys = np.shape(val(x)), np.shape(val(y))
    if xs and ys and xs[-1] != ys[-1]:
        raise ShapeError(f"{op}: coordinate widths differ ({xs[-1]} vs {ys[-1]})")


def _sq_dist(x, y):
    """||x - y||^2 over the last axis of plain arrays, squaring x - y in
    place so that one array of the broadcast (..., C) size exists at a time."""
    diff = x - y
    diff *= diff
    return np.sum(diff, axis=-1, keepdims=True)


def in_ball(x, cfg: BallConfig, slack: float = 0.0) -> bool:
    """True when every point satisfies sqrt(c) ||x|| < 1 (+ slack on the norm)."""
    norms = np.sqrt(np.sum(np.asarray(val(x), dtype=np.float64) ** 2, axis=-1))
    return bool(np.all(cfg.sqrt_c * norms < 1.0 + slack))


def conformal_factor(x, cfg: BallConfig, keepdims: bool = False):
    """lambda_x = 2 / (1 - c ||x||^2) of plain arrays; unbounded at the boundary."""
    denom = 1.0 - cfg.c * np.sum(x * x, axis=-1, keepdims=keepdims)
    if np.any(denom <= 0.0):
        raise DomainError("conformal_factor: point on or outside the ball")
    return 2.0 / denom


def mobius_add(x, y, cfg: BallConfig):
    """Mobius addition x (+) y of plain arrays. Not commutative; (-x) (+) x = 0."""
    _check_same_width(x, y, "mobius_add")
    c = cfg.c
    x2 = np.sum(x * x, axis=-1, keepdims=True)
    y2 = np.sum(y * y, axis=-1, keepdims=True)
    xy = np.sum(x * y, axis=-1, keepdims=True)
    denom = 1.0 + 2.0 * c * xy + c * c * x2 * y2
    if np.any(np.abs(denom) < cfg.eps ** 2):
        raise DomainError("mobius_add: denominator vanished (operands too close to the boundary)")
    num = (1.0 + 2.0 * c * xy + c * y2) * x + (1.0 - c * x2) * y
    return num / denom


def geodesic_distance(x, y, cfg: BallConfig):
    """d_c(x, y) in the arcosh form, recorded as one tape node.

    With a = 1 - c||x||^2, b = 1 - c||y||^2 and s = ||x - y||^2, the adjoint
    is dd/dx = 4 sqrt(c) (x - y + (c s / a) x) / (a b sinh(sqrt(c) d)), and
    dd/dy the same with x and y swapped. The sinh is floored at 1e-15, as
    `flat_distance` floors its norm, so x == y yields a zero gradient.
    The node keeps no array of the broadcast (..., C) size: the adjoint
    rebuilds x - y once per call and shares w (x - y) between both operands.
    Symmetric bit for bit, zero iff x == y. Raises DomainError when an
    operand lies on or outside the ball.
    """
    _check_same_width(x, y, "geodesic_distance")
    c = cfg.c
    xv, yv = val(x), val(y)
    a = 1.0 - c * np.sum(xv * xv, axis=-1, keepdims=True)
    b = 1.0 - c * np.sum(yv * yv, axis=-1, keepdims=True)
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise DomainError("geodesic_distance: operand on or outside the ball")
    sq = _sq_dist(xv, yv)
    ab = a * b
    z = 2.0 * c * sq / ab
    sinh = np.sqrt(z * (z + 2.0))
    out = np.log1p(z + sinh)[..., 0] / cfg.sqrt_c

    def adjoint(g):  # the radial terms are summed before they meet their operand
        w = g[..., None] * (4.0 * cfg.sqrt_c / (ab * np.maximum(sinh, _TINY)))
        wd = xv - yv
        wd *= w
        return [ad._unbroadcast(w * (c * sq / r), np.shape(v)[:-1] + (1,)) * v
                + sign * ad._unbroadcast(wd, np.shape(v))
                for v, r, sign in ((xv, a, 1.0), (yv, b, -1.0))]

    return ad._node(out, "geodesic", (x, y), adjoint)


def flat_distance(x, y):
    """2 ||x - y||, the c -> 0 limit of the geodesic distance, as one tape
    node. Its adjoint rebuilds x - y and forms w = (2 g) (x - y) / ||x - y||
    in the sweep order of the composite 2 * norm(x - y), the norm floored at
    1e-15 so that x == y yields a zero gradient; x gets w and y gets -w."""
    _check_same_width(x, y, "flat_distance")
    xv, yv = val(x), val(y)
    n = np.sqrt(_sq_dist(xv, yv))

    def adjoint(g):
        w = xv - yv
        w *= (g * 2.0)[..., None]
        w /= np.maximum(n, _TINY)
        return ad._unbroadcast(w, np.shape(xv)), ad._unbroadcast(-w, np.shape(yv))

    return ad._node(2.0 * n[..., 0], "flat", (x, y), adjoint)


def klein_to_poincare(k, cfg: BallConfig):
    """x_D = x_K / (1 + sqrt(1 - c ||x_K||^2)) of plain arrays."""
    inside = 1.0 - cfg.c * np.sum(k * k, axis=-1, keepdims=True)
    if np.any(inside < 0.0):
        raise DomainError("klein_to_poincare: point outside the Klein disk")
    return k / (1.0 + np.sqrt(inside))


def einstein_midpoint(points, cfg: BallConfig):
    """Einstein midpoint of (..., P, C) points over the set axis -2.

    The Klein mean k = sum_i lambda_i x_i / sum_i (lambda_i - 1), mapped back
    to the ball. Raises DomainError when a point lies on or outside the ball,
    which the Klein map would read as its inversion x / (c ||x||^2). In the
    plain-array path both summands are sorted per coordinate before
    reduction, so any permutation of the inputs yields a bit-identical
    result; the taped path keeps evaluation order.

    Recorded as one node, whose adjoint replays the composite's reverse
    sweep op for op (its negations, which are exact, folded), so gradients
    keep its bits. With g = dL/d(out), out = k / t, t = 1 + s,
    s = sqrt(1 - c ||k||^2) and d_i = 1 - c ||x_i||^2, each sum over the C
    coordinates is formed first and each bracket is added left to right:
        dk = (g / t + b k) + b k,  b = (sum_C g k / t^2) * 0.5 / s * c,
        dlam_i = sum_C (dk / den) x_i - sum_C dk num / den^2,
        dx_i = (lambda_i dk / den + e_i x_i) + e_i x_i,  e_i = dlam_i * 2 / d_i^2 * c.
    """
    shape = np.shape(val(points))
    if len(shape) < 2 or shape[-2] == 0:
        raise ShapeError(f"einstein_midpoint: point set must be (..., P>=1, C), got {shape}")
    x, c = val(points), cfg.c
    lam = conformal_factor(x, cfg, keepdims=True)
    weighted, gamma = lam * x, lam - 1.0
    if isinstance(points, ad.Var):
        num, den = np.sum(weighted, axis=-2), np.sum(gamma, axis=-2)
    else:
        num = np.sort(weighted, axis=-2).sum(axis=-2)
        den = np.sort(gamma, axis=-2).sum(axis=-2)
    k = num / den

    def adjoint(g):
        s = np.sqrt(1.0 - c * np.sum(k * k, axis=-1, keepdims=True))
        t = 1.0 + s
        bk = ad._unbroadcast(g * k / (t * t), t.shape) * 0.5 / s * c * k
        gk = (g / t + bk) + bk
        gw = (gk / den)[..., None, :]  # d(loss)/d(lambda_i x_i)
        gden = ad._unbroadcast(gk * num / (den * den), den.shape)
        glam = ad._unbroadcast(gw * x, lam.shape) - gden[..., None, :]
        d = 1.0 - c * np.sum(x * x, axis=-1, keepdims=True)
        ex = glam * 2.0 / (d * d) * c * x
        return ((gw * lam + ex) + ex,)

    return ad._node(klein_to_poincare(k, cfg), "midpoint", (points,), adjoint)


def log_map(x, y, cfg: BallConfig):
    """Tangent vector at x pointing to y; zero when y == x.

    Returns the raw coordinates (an array, or a Var when an operand is one),
    broadcast over the leading axes of x and y. Satisfies
    lambda_x * ||log_x(y)|| = d_c(x, y) and exp_x(log_x(y)) = y.

    Recorded as one node. The forward runs the arithmetic of the composite
    (2 / (sqrt(c) lambda_x)) arctanh(sqrt(c) ||m||) m / ||m||, m = (-x) (+) y,
    with ||m|| <= 1e-15 replaced by 1 in the last division, and raises the
    errors of `mobius_add` and `conformal_factor`, and DomainError for an
    arctanh argument sqrt(c) ||m|| >= 1. With u = -x that is B h(||m||) m,
    where m = (A u + B y) / D, A = 1 + 2c<u, y> + c||y||^2, B = 1 - c||x||^2,
    D = 1 + 2c<u, y> + c^2 ||x||^2 ||y||^2 and h(n) = arctanh(sqrt(c) n) /
    (sqrt(c) n). The hand-written adjoint differentiates that form, taking h
    at its limit 1 where ||m|| <= 1e-15, so coincident points get the
    Jacobian of log_x at x (the identity in y). The node keeps m, its one
    array of the broadcast (..., C) size.
    """
    _check_same_width(x, y, "log_map")
    c, sqrt_c = cfg.c, cfg.sqrt_c
    xv, yv = val(x), val(y)
    u = -xv
    x2 = np.sum(u * u, axis=-1, keepdims=True)
    y2 = np.sum(yv * yv, axis=-1, keepdims=True)
    shared = 1.0 + 2.0 * c * np.sum(u * yv, axis=-1, keepdims=True)
    denom = shared + c * c * x2 * y2
    if np.any(np.abs(denom) < cfg.eps ** 2):
        raise DomainError("mobius_add: denominator vanished (operands too close to the boundary)")
    a = shared + c * y2
    b = 1.0 - c * x2
    m = a * u
    m += b * yv
    m /= denom
    n = np.sqrt(np.sum(m * m, axis=-1, keepdims=True))
    nz = n > _TINY
    n_safe = np.where(nz, n, np.ones_like(n))
    if np.any(b <= 0.0):
        raise DomainError("conformal_factor: point on or outside the ball")
    lam = 2.0 / b  # lambda_x, kept in the product for the composite's bits
    arg = sqrt_c * n
    if np.any(arg >= 1.0):
        raise DomainError(f"arctanh argument magnitude {float(np.max(arg))} >= 1")
    at = np.arctanh(arg)
    out = (2.0 / (sqrt_c * lam)) * at / n_safe * m

    def adjoint(g):
        h = np.where(nz, at / (sqrt_c * n_safe), 1.0)
        dh_over_n = np.where(nz, (1.0 / (1.0 - c * n * n) - h) / (n_safe * n_safe), 0.0)
        s = np.sum(g * m, axis=-1, keepdims=True)
        gn = g * h  # B * this is dL/dm; divided by D it is dL/d(A u + B y)
        gn += (s * dh_over_n) * m
        gn *= b / denom
        gd = -np.sum(gn * m, axis=-1, keepdims=True)
        ga = np.sum(gn * u, axis=-1, keepdims=True)
        gb = h * s + np.sum(gn * yv, axis=-1, keepdims=True)
        cross = 2.0 * c * (ga + gd)
        gy = gn * b
        gy += cross * u
        gy += (2.0 * c * ga + 2.0 * c * c * x2 * gd) * yv
        gn *= a
        gn += cross * yv
        gn += (2.0 * c * c * y2 * gd - 2.0 * c * gb) * u
        return [-ad._unbroadcast(gn, np.shape(xv)), ad._unbroadcast(gy, np.shape(yv))]

    return ad._node(out, "log_map", (x, y), adjoint)


def exp_map(x, v, cfg: BallConfig):
    """Point reached from x along v, raw tangent coordinates at x such as
    log_map returns; inverse of log_map. Plain arrays only."""
    _check_same_width(x, v, "exp_map")
    n = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
    n_safe = np.where(n > _TINY, n, 1.0)
    lam = conformal_factor(x, cfg, keepdims=True)
    second = np.tanh(cfg.sqrt_c * lam * n / 2.0) * v / (cfg.sqrt_c * n_safe)
    return mobius_add(x, second, cfg)


def clip_to_ball(s, cfg: BallConfig):
    """Radial clip of plain arrays onto the closed ball of radius
    mu = (1 - eps)/sqrt(c): a point of norm n > mu is scaled by mu / n, and
    any other by mu / mu = 1.0, which leaves its bits unchanged."""
    s, mu = np.asarray(s, dtype=np.float64), cfg.max_norm
    return s * (mu / np.maximum(np.sqrt(np.sum(s * s, axis=-1, keepdims=True)), mu))
