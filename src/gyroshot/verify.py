"""Invariant suite: geometry identities, gradient oracles, metric oracles.

Each check returns PropertyCheck records with the worst observed error
against a pinned tolerance. The CLI `verify` command prints one line per
property; the acceptance tests call the same functions with the same
default sizes.

Sampling note: identity checks draw radii up to 0.75 of the ball radius,
where every tolerance is flat. Up to 0.999 (tests/test_verify.py) five keep
them, but the rounding of the exp/log round trip and of the conformal
relation grows like lambda^2, so there they are bounded by 8 ulps * lambda^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import metrics
from .autodiff import finite_diff_check
from .episodes import SyntheticConfig, generate_synthetic, sample_episode
from .geometry import (
    BallConfig,
    conformal_factor,
    einstein_midpoint,
    exp_map,
    geodesic_distance,
    log_map,
    mobius_add,
)
from .netmods import ModelBundle, ModelConfig
from .train import TrainConfig, episode_forward, train

CURVATURE_GRID = (0.01, 0.05, 0.1, 0.5, 0.7)


@dataclass
class PropertyCheck:
    name: str
    tolerance: float
    worst: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = f" {self.detail}" if self.detail else ""
        return f"[{tag}] {self.name} (tol {self.tolerance:g}, worst {self.worst:.3g}){extra}"


def sample_ball_points(rng, n: int, dim: int, cfg: BallConfig, frac: float = 0.75):
    v = rng.normal(size=(n, dim))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    r = frac * cfg.radius * rng.uniform(size=(n, 1)) ** (1.0 / dim)
    return v * r


def _check(name: str, tol: float, worst: float, detail: str = "") -> PropertyCheck:
    return PropertyCheck(name=name, tolerance=tol, worst=float(worst),
                         passed=bool(worst < tol), detail=detail)


def _conformal_error(x, y, cfg):
    d = geodesic_distance(x, y, cfg)
    lam_norm = conformal_factor(x, cfg) * np.linalg.norm(log_map(x, y, cfg), axis=-1)
    return np.abs(lam_norm - d) / np.maximum(d, 1e-30)


def _midpoint_error(x, y, cfg):
    m = einstein_midpoint(np.stack([x, y], axis=-2), cfg)
    d = geodesic_distance(x, y, cfg)
    err = np.maximum(np.abs(geodesic_distance(x, m, cfg) - d / 2.0),
                     np.abs(geodesic_distance(m, y, cfg) - d / 2.0))
    return err / np.maximum(d, 1e-30)


#: (name, tolerance, elementwise error of a point batch x, y at curvature cfg)
_IDENTITIES = (
    ("mobius right identity: x (+) 0 = x", 1e-12,
     lambda x, y, cfg: mobius_add(x, np.zeros_like(x), cfg) - x),
    ("mobius left inverse: (-x) (+) x = 0", 1e-12,
     lambda x, y, cfg: mobius_add(-x, x, cfg)),
    ("distance identity: d(x, x) = 0", 1e-12,
     lambda x, y, cfg: geodesic_distance(x, x, cfg)),
    ("distance symmetry: d(x, y) = d(y, x)", 1e-12,
     lambda x, y, cfg: geodesic_distance(x, y, cfg) - geodesic_distance(y, x, cfg)),
    ("midpoint: d(x, m) = d(m, y) = d(x, y) / 2 (relative)", 1e-10, _midpoint_error),
    ("exp/log roundtrip: exp_x(log_x(y)) = y", 1e-8,
     lambda x, y, cfg: exp_map(x, log_map(x, y, cfg), cfg) - y),
    ("conformal relation: lambda_x ||log_x(y)|| = d(x, y)", 1e-9, _conformal_error),
)


def check_geometry_identities(n_triples: int = 10_000,
                              curvatures=CURVATURE_GRID,
                              dim: int = 8, seed: int = 0) -> list[PropertyCheck]:
    """Ball identities over random (x, y, c) triples, split across curvatures."""
    rng = np.random.default_rng(seed)
    per = max(1, n_triples // len(curvatures))
    worst = [0.0] * len(_IDENTITIES)
    for c in curvatures:
        cfg = BallConfig(c=float(c))
        x = sample_ball_points(rng, per, dim, cfg)
        y = sample_ball_points(rng, per, dim, cfg)
        for i, (_, _, error) in enumerate(_IDENTITIES):
            worst[i] = max(worst[i], np.max(np.abs(error(x, y, cfg))))
    return [_check(name, tol, w) for (name, tol, _), w in zip(_IDENTITIES, worst)]


def check_euclidean_limit(n_pairs: int = 1000, dim: int = 8, seed: int = 1) -> list[PropertyCheck]:
    """At c = 1e-8 the ball ops reduce to their flat-space forms."""
    cfg = BallConfig(c=1e-8)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (n_pairs, dim))
    y = rng.uniform(-1.0, 1.0, (n_pairs, dim))
    ref = 2.0 * np.linalg.norm(x - y, axis=-1)
    d = geodesic_distance(x, y, cfg)
    rel = np.max(np.abs(d - ref) / ref)
    add_err = np.max(np.abs(mobius_add(x, y, cfg) - (x + y)))
    return [
        _check("euclidean limit: d_c -> 2||x - y|| (relative)", 1e-4, rel),
        _check("euclidean limit: mobius_add -> x + y", 1e-6, add_err),
    ]


def _tiny_episode_setup(seed: int):
    """A 2-way 2-shot episode on a 2x2 grid with a small model, for FD checks."""
    ball = BallConfig(c=0.5)
    synth = SyntheticConfig(
        n_classes=4, samples_per_class=6, patch_dim=3, grid=(2, 2),
        n_modes=1, class_spread=0.9, mode_spread=0.0, within_spread=0.3, seed=seed,
    )
    dataset = generate_synthetic(synth, ball)
    cfg = TrainConfig(ball=ball, n_way=2, k_shot=2, n_query=1, temperature=1.0,
                      val_fraction=0.0, seed=seed)
    model_cfg = ModelConfig(in_dim=3, grid=(2, 2), feat_dim=4, enc_hidden=6,
                            relation_filters=4)
    bundle = ModelBundle(model_cfg, seed=seed)
    episode = sample_episode(dataset, cfg.episode_spec(), index=0)
    return episode, bundle, cfg


def check_gradient_oracles(seed: int = 2) -> list[PropertyCheck]:
    """Tape gradients vs central finite differences (step 1e-5, tol 1e-3).

    Covers the geodesic distance, the Einstein midpoint, the log map (both
    arguments), and the full episode objective parameter by parameter.
    Dropout is off; BN uses batch statistics, so the objective is
    deterministic and smooth almost everywhere. No op on the tape clips: the
    encoder's tanh output is scaled strictly below the clip radius.
    """
    tol = 1e-3
    rng = np.random.default_rng(seed)
    out = []

    cfg = BallConfig(c=0.7)
    worst = 0.0
    for _ in range(5):
        x0 = sample_ball_points(rng, 1, 6, cfg)[0]
        y0 = sample_ball_points(rng, 1, 6, cfg)[0]
        r1 = finite_diff_check(lambda x: geodesic_distance(x, y0, cfg), x0, tol=tol)
        r2 = finite_diff_check(lambda y: geodesic_distance(x0, y, cfg), y0, tol=tol)
        worst = max(worst, r1.max_rel_error, r2.max_rel_error)
    out.append(_check("gradient: geodesic_distance vs finite differences", tol, worst))

    worst = 0.0
    for _ in range(3):
        pts = sample_ball_points(rng, 5, 4, cfg)
        u = rng.normal(size=4)
        r = finite_diff_check(lambda p: ad.sum(ad.mul(einstein_midpoint(p, cfg), u)), pts, tol=tol)
        worst = max(worst, r.max_rel_error)
    out.append(_check("gradient: einstein_midpoint vs finite differences", tol, worst))

    worst = 0.0
    for _ in range(5):
        x0 = sample_ball_points(rng, 1, 6, cfg)[0]
        y0 = sample_ball_points(rng, 1, 6, cfg)[0]
        u = rng.normal(size=6)
        r1 = finite_diff_check(lambda x: ad.sum(ad.mul(log_map(x, y0, cfg), u)), x0, tol=tol)
        r2 = finite_diff_check(lambda y: ad.sum(ad.mul(log_map(x0, y, cfg), u)), y0, tol=tol)
        worst = max(worst, r1.max_rel_error, r2.max_rel_error)
    out.append(_check("gradient: log_map vs finite differences", tol, worst))

    episode, bundle, tcfg = _tiny_episode_setup(seed)
    modules = bundle.modules()
    worst = 0.0
    worst_name = ""
    for mod_name, mod in modules.items():
        for pname, pval in mod.params.items():
            def f(v, mod_name=mod_name, pname=pname):
                params = {mod_name: dict(mod.params)}
                params[mod_name][pname] = v
                return episode_forward(episode, bundle, tcfg, params=params, train=True)[0]
            r = finite_diff_check(f, pval, tol=tol)
            if r.max_rel_error > worst:
                worst, worst_name = r.max_rel_error, f"{mod_name}.{pname}"
    out.append(_check("gradient: episode loss over all parameters", tol, worst,
                      detail=f"(worst at {worst_name})" if worst_name else ""))
    return out


def check_metric_oracles(n_sets: int = 500, seed: int = 3) -> list[PropertyCheck]:
    """The vectorized pairwise matrix vs a brute-force loop; equality must be exact."""
    rng = np.random.default_rng(seed)
    pair_bad = 0
    for trial in range(n_sets):
        c = float(rng.choice(CURVATURE_GRID))
        cfg = BallConfig(c=c)
        dim = int(rng.integers(2, 6))
        na, nb = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        A = sample_ball_points(rng, na, dim, cfg)
        B = sample_ball_points(rng, nb, dim, cfg)

        D = metrics.pairwise_matrix(A, B, cfg)
        brute = np.empty((na, nb))
        for i in range(na):
            for j in range(nb):
                brute[i, j] = geodesic_distance(A[i], B[j], cfg)
        if not np.array_equal(D, brute):
            pair_bad += 1

    return [
        _check("metric oracle: pairwise_matrix == per-pair loop (exact)", 1, pair_bad,
               detail=f"on {n_sets} random set pairs"),
    ]


def check_adaptive_bounds(seed: int = 4, tasks: int = 20) -> PropertyCheck:
    """During a real 1-epoch run, every adaptive class distance must lie in
    [min, max] of that class's per-sample distances (1e-9 float slack on the
    exact convex-combination bound)."""
    ball = BallConfig(c=0.7)
    synth = SyntheticConfig(n_classes=8, samples_per_class=10, patch_dim=4,
                            grid=(2, 2), seed=seed)
    dataset = generate_synthetic(synth, ball)
    cfg = TrainConfig(ball=ball, n_way=3, k_shot=3, n_query=2, epochs=1,
                      tasks_per_epoch=tasks, val_fraction=0.0, seed=seed)
    model_cfg = ModelConfig(in_dim=4, grid=(2, 2), feat_dim=8, enc_hidden=12,
                            relation_filters=8)
    worst = 0.0
    episodes_seen = 0

    def audit(info):
        nonlocal worst, episodes_seen
        episodes_seen += 1
        svals = info["s2s"]
        d = info["distances"]
        viol = np.maximum(svals.min(axis=-1) - d, d - svals.max(axis=-1))
        worst = max(worst, float(viol.max()))

    train(dataset, cfg, model_cfg, on_episode=audit)
    return _check("adaptive distance inside per-sample [min, max] during training",
                  1e-9, worst, detail=f"({episodes_seen} episodes audited)")


def run_all() -> list[PropertyCheck]:
    """The full invariant suite (CLI `verify`)."""
    checks = []
    checks += check_geometry_identities()
    checks += check_euclidean_limit()
    checks += check_gradient_oracles()
    checks += check_metric_oracles()
    checks.append(check_adaptive_bounds())
    return checks
