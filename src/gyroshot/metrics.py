"""Distances between patch sets on the ball.

A feature map is an array (or tape Var) of shape (..., HW, C): a set of HW
patch embeddings, one point each. The adaptive point-to-set distance is three
stages, which `train.episode_forward` calls in turn: `pairwise_matrix` (all
patch distances), `s2s_learned` (one set-to-set distance per support map; a
variant without the s2s network takes the plain matrix mean instead) and
`adaptive_combine` (the weighted average over a class's support maps). They
run through the generic autodiff ops, so the same functions serve untaped
inference and taped training.

Shape conventions: patches are (..., HW, C); `pairwise_matrix` broadcasts
leading axes of the two sides against each other, so a (NQ, 1, 1, HW, C)
query block against a (1, N, K, HW, C) support block yields the full
(NQ, N, K, HW, HW) distance tensor in one call.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import val
from .errors import DomainError, ShapeError
from .geometry import BallConfig, geodesic_distance


def _check_set(S):
    """Check that a set argument is (..., P>=1, C)."""
    shape = np.shape(val(S))
    if len(shape) < 2 or shape[-2] == 0:
        raise ShapeError(f"point set must be (..., P>=1, C), got {shape}")
    return S


def pairwise_matrix(q, s, cfg: BallConfig, dist_fn=None):
    """All geodesic distances between the patches of `q` and of `s`.

    Returns (..., HWq, HWs); entry [h, w] is the distance from query patch h
    to support patch w. `dist_fn` overrides the metric (the flat distance of
    the euclidean_ap2s variant).
    """
    qp, sp = _check_set(q), _check_set(s)
    qs, ss = np.shape(val(qp)), np.shape(val(sp))
    q_e = ad.reshape(qp, qs[:-1] + (1, qs[-1]))
    s_e = ad.reshape(sp, ss[:-2] + (1,) + ss[-2:])
    if dist_fn is None:
        return geodesic_distance(q_e, s_e, cfg)
    return dist_fn(q_e, s_e)


def s2s_learned(D, net, train: bool = False, rng=None, params=None):
    """Learned set-to-set distance: the network reads the flattened matrix.

    D is (..., HWq, HWs); rows are flattened row-major to HWq*HWs, which must
    match the network input width. Returns shape (...,).
    """
    shape = np.shape(val(D))
    if len(shape) < 2:
        raise ShapeError(f"distance matrix must be (..., HWq, HWs), got {shape}")
    width = shape[-2] * shape[-1]
    if width != net.in_width:
        raise ShapeError(
            f"distance matrix flattens to {width}, network expects {net.in_width}"
        )
    flat = ad.reshape(D, (-1, width))
    out = net(flat, train=train, rng=rng, params=params)
    return ad.reshape(out, shape[:-2])


def adaptive_combine(s2s_vals, weights):
    """Weighted average sum_j w_j * d_j / sum_j w_j over the last axis."""
    wv = np.asarray(val(weights), dtype=np.float64)
    if np.any(wv < 0.0):
        raise DomainError("adaptive weights must be nonnegative")
    if np.any(np.sum(wv, axis=-1) <= 0.0):
        raise DomainError("adaptive weights must not all vanish")
    return ad.div(ad.sum(ad.mul(weights, s2s_vals), axis=-1), ad.sum(weights, axis=-1))
