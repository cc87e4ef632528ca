"""Network modules: patch encoder, signature refiner, relation and s2s nets.

All parameters are float64 numpy arrays held in each module's `params` dict
(BN running statistics live in `buffers`). A forward pass uses those arrays
directly, or a caller-supplied dict mapping the same keys to tape Vars when
gradients are wanted. Dropout draws from an explicit Generator and is off
whenever `rng` is None, so evaluation and gradient checks are deterministic.

The four modules, and the call that runs each:

  Encoder            per-patch 2-layer MLP, tanh-bounded output scaled to
  (called)           feature_scale * ball radius, inside the ball.
  SignatureGenerator one single-head transformer encoder block (post-LN,
  (.refine)          feed-forward width 4*C) over all support descriptors
                     jointly, with fixed sinusoidal 2-D positional encodings.
  RelationGenerator  conv(k1) -> BN -> relu -> dropout(0.5) -> conv(k2) -> BN,
  (relation_scores)  collapsing the grid to one score per sample, as one node.
                     The first conv reads a map beside its class signature;
                     conv is linear in its input channels, so it runs as
                     conv(map, W_map) + conv(signature, W_sig) with the two
                     halves of its kernel stored apart, and the signature
                     half once per (query, class) pair rather than per map.
  S2SNetwork         linear(HW^2 -> HW) -> BN -> relu -> dropout(0.5) ->
  (called)           linear(HW -> 1) -> BN, reading a flattened distance
                     matrix and emitting a scalar set-to-set distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import val
from .errors import ConfigError, DataFormatError, ShapeError
from .fileio import check_names, load_tensors, save_tensors
from .geometry import BallConfig, in_ball, log_map

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions shared by the module stack."""

    in_dim: int
    grid: tuple[int, int]
    feat_dim: int = 16
    enc_hidden: int = 32
    feature_scale: float = 0.8
    relation_filters: int = 64

    def __post_init__(self):
        if self.in_dim < 1 or self.feat_dim < 1 or self.enc_hidden < 1:
            raise ConfigError("model dimensions must be positive")
        if self.feat_dim % 2 != 0:
            raise ConfigError("feat_dim must be even (positional encoding splits it)")
        h, w = self.grid
        if h < 1 or w < 1:
            raise ConfigError(f"grid must be positive, got {self.grid}")
        if not (0.0 < self.feature_scale < 1.0):
            raise ConfigError("feature_scale must lie in (0, 1)")
        if self.relation_filters < 1:
            raise ConfigError("relation_filters must be positive")

    @property
    def hw(self) -> int:
        return self.grid[0] * self.grid[1]


def _linear_init(rng, fan_in: int, fan_out: int):
    bound = np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, (fan_in, fan_out))


def _conv_init(rng, kh: int, kw: int, cin: int, cout: int):
    bound = np.sqrt(3.0 / (kh * kw * cin))
    return rng.uniform(-bound, bound, (kh, kw, cin, cout))


def dropout(shape, p: float, rng):
    """Inverted-dropout mask of `shape` for `batch_norm`, zeros and 1/(1 - p);
    None when `rng` is None or p <= 0 (eval / checks)."""
    if rng is None or p <= 0.0:
        return None
    return (rng.random(shape) >= p) / (1.0 - p)


def layer_norm(x, gamma, beta=None, eps: float = 1e-5):
    """Normalize over the last axis, scale by gamma and shift by beta as one
    `ad.normalize` node; beta=None leaves out the shift."""
    return ad.normalize(x, -1, eps, gamma, beta)[0]


def batch_norm(x, gamma, beta, mean_buf, var_buf, train: bool, act=None, keep=None):
    """Normalize over all axes but the last; running buffers updated in train mode.

    One `ad.normalize` node over the batch statistics (train) or the running
    buffers (eval). beta=None leaves out the shift; act="relu" adds a relu,
    then the dropout mask `keep`. A bias that feeds straight into batch norm
    is cancelled by its mean subtraction, so the layers before it have none.
    """
    return _batch_norm(x, gamma, beta, mean_buf, var_buf, train, act, keep)[0]


def _batch_norm(x, gamma, beta, mean_buf, var_buf, train, act=None, keep=None):
    """`batch_norm`'s output with the μ and var it normalized by."""
    out, mu, var = ad.normalize(x, tuple(range(np.ndim(val(x)) - 1)), _BN_EPS, gamma, beta,
                                act=act, keep=keep,
                                stats=None if train else (mean_buf, var_buf))
    if train:
        mean_buf *= 1.0 - _BN_MOMENTUM
        mean_buf += _BN_MOMENTUM * mu.reshape(-1)
        var_buf *= 1.0 - _BN_MOMENTUM
        var_buf += _BN_MOMENTUM * var.reshape(-1)
    return out, mu, var


def sinusoidal_grid_encoding(h: int, w: int, c: int) -> np.ndarray:
    """Fixed 2-D positional table (H*W, C): half the channels encode the row
    index, half the column, each with the standard sin/cos frequency ladder."""
    if c % 2 != 0:
        raise ConfigError("positional encoding needs an even channel count")

    def table(n_pos: int, d: int) -> np.ndarray:
        pos = np.arange(n_pos, dtype=np.float64)[:, None]
        i = np.arange((d + 1) // 2, dtype=np.float64)[None, :]
        ang = pos * 10000.0 ** (-2.0 * i / d)
        out = np.zeros((n_pos, d))
        out[:, 0::2] = np.sin(ang)
        out[:, 1::2] = np.cos(ang[:, : d // 2])
        return out

    half = c // 2
    rows = table(h, half)
    cols = table(w, c - half)
    pe = np.concatenate(
        [
            np.broadcast_to(rows[:, None, :], (h, w, half)),
            np.broadcast_to(cols[None, :, :], (h, w, c - half)),
        ],
        axis=-1,
    )
    return pe.reshape(h * w, c)


class Encoder:
    """Per-patch MLP embedding raw patches into the ball.

    Both layers, their tanhs and the output scale are one `ad.mlp` node.
    The last tanh bounds the output norm by feature_scale / sqrt(c), so
    arctanh arguments downstream stay well away from 1. A call raises
    ConfigError unless feature_scale < 1 - eps, so no output reaches the
    clip bound.
    """

    def __init__(self, cfg: ModelConfig, rng):
        self.cfg = cfg
        self.params = {
            "w1": _linear_init(rng, cfg.in_dim, cfg.enc_hidden),
            "b1": np.zeros(cfg.enc_hidden),
            "w2": _linear_init(rng, cfg.enc_hidden, cfg.feat_dim),
            "b2": np.zeros(cfg.feat_dim),
        }
        self.buffers: dict[str, np.ndarray] = {}

    def __call__(self, x, ball: BallConfig, params=None):
        p = params if params is not None else self.params
        shape = np.shape(val(x))
        if shape[-1] != self.cfg.in_dim:
            raise ShapeError(f"encoder expects patch width {self.cfg.in_dim}, got {shape[-1]}")
        if self.cfg.feature_scale >= 1.0 - ball.eps:
            raise ConfigError(f"feature_scale {self.cfg.feature_scale} must lie below 1 - eps")
        out = ad.mlp(x, p["w1"], p["b1"], p["w2"], p["b2"], act=("tanh", "tanh"),
                     scale=self.cfg.feature_scale * ball.radius / np.sqrt(self.cfg.feat_dim))
        if __debug__ and not isinstance(out, ad.Var):
            assert in_ball(out, ball, slack=1e-12)
        return out


class SignatureGenerator:
    """Single-head transformer encoder block over support descriptors.

    The attention sublayer (projections, attention, output layer and
    residual) is one `ad.self_attention` node, its layer norm one
    `ad.normalize` node, and the feed-forward sublayer with its residual and
    layer norm one `feed_forward` node; both sublayers recompute. The key
    projection has no bias (softmax over the keys is invariant to it), and
    the output layer norm has no shift: the signature only reaches the
    relation net's first conv, whose batch norm cancels it.
    """

    def __init__(self, cfg: ModelConfig, rng):
        self.cfg = cfg
        c = cfg.feat_dim
        ff = 4 * c
        self.pos = sinusoidal_grid_encoding(cfg.grid[0], cfg.grid[1], c)
        self.params = {}
        for name in ("wq", "wk", "wv", "wo"):
            self.params[name] = _linear_init(rng, c, c)
            if name != "wk":
                self.params[name.replace("w", "b")] = np.zeros(c)
        self.params.update(
            ln1_g=np.ones(c), ln1_b=np.zeros(c),
            ffw1=_linear_init(rng, c, ff), ffb1=np.zeros(ff),
            ffw2=_linear_init(rng, ff, c), ffb2=np.zeros(c),
            ln2_g=np.ones(c),
        )
        self.buffers: dict[str, np.ndarray] = {}

    def refine(self, proj, params=None):
        """One post-LN block attending jointly over all support maps.

        proj is (..., M, HW, C): M support maps of HW descriptors each. The
        positional table is added per grid position, the M*HW tokens attend
        in one block, and the output is reshaped back. Permuting the M maps
        permutes the output the same way.
        """
        p = params if params is not None else self.params
        shape = np.shape(val(proj))
        if len(shape) < 3 or shape[-2] != self.cfg.hw or shape[-1] != self.cfg.feat_dim:
            raise ShapeError(
                f"refine expects (..., M, {self.cfg.hw}, {self.cfg.feat_dim}), got {shape}"
            )
        t = ad.reshape(ad.add(proj, self.pos), shape[:-3] + (shape[-3] * shape[-2], shape[-1]))
        att = ad.self_attention(t, p["wq"], p["bq"], p["wk"], p["wv"], p["bv"], p["wo"], p["bo"])
        h = layer_norm(att, p["ln1_g"], p["ln1_b"])
        return ad.reshape(feed_forward(h, p["ffw1"], p["ffb1"], p["ffw2"], p["ffb2"], p["ln2_g"]),
                          shape)


def feed_forward(h, w1, b1, w2, b2, gamma):
    """LN(h + relu(h w1 + b1) w2 + b2), LN without a shift, as one node that
    keeps its operands and LN's μ and σ: the adjoint recomputes the hidden
    and output layers once each for the unfused chain's LN and affine adjoints."""
    hv, w1v, b1v, w2v, b2v, gv = (val(a) for a in (h, w1, b1, w2, b2, gamma))

    def residual():  # the hidden layer, its relu's derivative map, and h + output
        hidden = ad._affine(hv, w1v, b1v)
        relu = ad._activate(hidden, "relu")
        return hidden, relu, hv + ad._affine(hidden, w2v, b2v)

    out, mu, var = ad.normalize(residual()[2], -1, 1e-5, gv)
    sigma = np.sqrt(var + 1e-5)

    def adjoint(g):
        hidden, relu, r = residual()
        dr, dg, _ = ad._normalize_adjoint(g, (r - mu) / sigma, sigma, gv, None, (-1,), True)
        dhidden, dw2, db2 = ad._affine_adjoint(dr, hidden, w2v, b2v)
        dh, dw1, db1 = ad._affine_adjoint(relu(dhidden), hv, w1v, b1v)
        return dr + dh, dw1, db1, dw2, db2, dg

    return ad._node(out, "feed_forward", (h, w1, b1, w2, b2, gamma), adjoint)


def project_support(support, qbar, cfg: BallConfig):
    """Tangent maps of support patches at the mean query point.

    support (..., HW, C) against base qbar (..., C); the base is expanded on
    the patch axis and the two broadcast. Returns raw tangent coordinates.
    """
    qshape = np.shape(val(qbar))
    base = ad.reshape(qbar, qshape[:-1] + (1, qshape[-1]))
    return log_map(base, support, cfg)


class RelationGenerator:
    """Parameters and BN buffers of the convolutional scorer of (projected
    map, class signature) agreement; `relation_scores` runs it as one node
    that keeps its first conv's output and the dropout mask as bools.

    The first conv reads a map and its signature side by side, which it
    computes as conv(map, conv1_map_w) with conv(signature, conv1_sig_w) as
    its bias: its (kh, kw, 2C, F) kernel is drawn whole and stored as its two
    channel halves, so the signature half runs once per signature rather
    than once per map. No conv has a learned bias: each feeds straight into
    batch norm, and the first batch norm applies the relu and the dropout
    mask. The last batch norm has no shift: the scores go straight into a
    softmax over the K maps, which cancels a shift shared by all K, so its
    scale bn2_g is the softmax's learned inverse temperature.
    """

    def __init__(self, cfg: ModelConfig, rng):
        self.cfg = cfg
        h, w = cfg.grid
        # two valid convs must collapse the grid to 1x1: k1 + k2 = side + 1
        self.k1 = ((h + 2) // 2, (w + 2) // 2)
        self.k2 = (h - self.k1[0] + 1, w - self.k1[1] + 1)
        c, f = cfg.feat_dim, cfg.relation_filters
        conv1 = _conv_init(rng, self.k1[0], self.k1[1], 2 * c, f)
        self.params = {
            "conv1_map_w": conv1[:, :, :c].copy(),
            "conv1_sig_w": conv1[:, :, c:].copy(),
            "bn1_g": np.ones(f),
            "bn1_b": np.zeros(f),
            "conv2_w": _conv_init(rng, self.k2[0], self.k2[1], f, 1),
            "bn2_g": np.ones(1),
        }
        self.buffers = {
            "bn1_mean": np.zeros(f),
            "bn1_var": np.ones(f),
            "bn2_mean": np.zeros(1),
            "bn2_var": np.ones(1),
        }


def relation_scores(proj, signature, relation: RelationGenerator,
                    train: bool = False, rng=None, params=None):
    """Adaptive weights for one class (or a batch of classes).

    proj (..., K, HW, C) are the class's projected support maps, `signature`
    (..., HW, C) its signature, with the same leading axes. The relation net
    scores each map against the signature on the grid, as (B, K, H, W, C)
    maps against (B, 1, H, W, C) signatures with the leading axes flattened
    to B, and the K scores softmax to weights that sum to 1.

    One node: the forward runs on plain arrays, updating the BN buffers and
    drawing the mask once; the adjoint rebuilds the first BN's output in
    place and runs each layer's adjoint, last to first, with unfused bits.
    """
    p = params if params is not None else relation.params
    buf, (h, w), c = relation.buffers, relation.cfg.grid, relation.cfg.feat_dim
    shape, sig_shape = np.shape(val(proj)), np.shape(val(signature))
    if len(shape) < 3 or shape[-2:] != (h * w, c) or sig_shape != shape[:-3] + (h * w, c):
        raise ShapeError(f"relation_scores expects maps (..., K, {h * w}, {c}) and signatures "
                         f"(..., {h * w}, {c}) alike in their leading axes, got {shape} and "
                         f"{sig_shape}")
    names = ("conv1_map_w", "conv1_sig_w", "bn1_g", "bn1_b", "conv2_w", "bn2_g")
    km, ks, g1, b1, k2, g2 = (val(p[n]) for n in names)
    maps = np.reshape(val(proj), (-1, shape[-3], h, w, c))
    sig = np.reshape(val(signature), (-1, 1, h, w, c))
    x1 = ad._conv(maps, km)
    x1 += ad._conv(sig, ks)
    keep = dropout(x1.shape, 0.5, rng if train else None)
    y1, mu1, var1 = _batch_norm(x1, g1, b1, buf["bn1_mean"], buf["bn1_var"], train, "relu", keep)
    x2 = ad._conv(y1, k2)
    scores, mu2, var2 = _batch_norm(x2, g2, None, buf["bn2_mean"], buf["bn2_var"], train)
    out = ad._softmax(np.reshape(scores, shape[:-2]), axis=-1)
    sig1, sig2 = np.sqrt(var1 + _BN_EPS), np.sqrt(var2 + _BN_EPS)
    mask, scale = (None, None) if keep is None else (keep > 0, np.max(keep))

    def adjoint(g):
        d2, dg2, _ = ad._normalize_adjoint(np.reshape(ad._softmax_adjoint(g, out), x2.shape),
                                           (x2 - mu2) / sig2, sig2, g2, None, (0, 1, 2, 3), train)
        xhat1 = x1 - mu1
        xhat1 /= sig1
        y1 = xhat1 * g1  # the first batch norm's output, rebuilt in place
        y1 += b1
        pre1 = ad._activate(y1, "relu", None if mask is None else mask * scale)
        dy1, dk2 = ad._conv_adjoint(d2, y1, k2)
        d1, dg1, db1 = ad._normalize_adjoint(pre1(dy1), xhat1, sig1, g1, b1, (0, 1, 2, 3), train)
        dm, dkm = ad._conv_adjoint(d1, maps, km)
        ds, dks = ad._conv_adjoint(ad._unbroadcast(d1, sig.shape[:2] + x1.shape[2:]), sig, ks)
        return np.reshape(dm, shape), np.reshape(ds, sig_shape), dkm, dks, dg1, db1, dk2, dg2

    return ad._node(out, "relation", (proj, signature) + tuple(p[n] for n in names), adjoint)


class S2SNetwork:
    """Two-layer scorer of flattened pairwise-distance matrices.

    The linears have no bias (each feeds straight into batch norm), and the
    last batch norm has no shift: it would move every per-sample distance by
    the same amount, which the convex combination passes on to every class
    and the log-softmax over classes cancels.
    """

    def __init__(self, cfg: ModelConfig, rng):
        self.cfg = cfg
        hw = cfg.hw
        self.in_width = hw * hw
        self.params = {
            "w1": _linear_init(rng, self.in_width, hw),
            "bn1_g": np.ones(hw),
            "bn1_b": np.zeros(hw),
            "w2": _linear_init(rng, hw, 1),
            "bn2_g": np.ones(1),
        }
        self.buffers = {
            "bn1_mean": np.zeros(hw),
            "bn1_var": np.ones(hw),
            "bn2_mean": np.zeros(1),
            "bn2_var": np.ones(1),
        }

    def __call__(self, d, train: bool = False, rng=None, params=None):
        """d: (B, HW^2) flattened matrices -> (B,) distances."""
        p = params if params is not None else self.params
        shape = np.shape(val(d))
        if len(shape) != 2 or shape[-1] != self.in_width:
            raise ShapeError(f"s2s input must be (B, {self.in_width}), got {shape}")
        x = ad.linear(d, p["w1"])
        x = batch_norm(x, p["bn1_g"], p["bn1_b"], self.buffers["bn1_mean"],
                       self.buffers["bn1_var"], train, act="relu",
                       keep=dropout(np.shape(val(x)), 0.5, rng if train else None))
        x = ad.linear(x, p["w2"])
        x = batch_norm(x, p["bn2_g"], None, self.buffers["bn2_mean"],
                       self.buffers["bn2_var"], train)
        return ad.reshape(x, (shape[0],))


class ModelBundle:
    """The four modules plus deterministic init, deep copy, and checkpoint IO."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        streams = np.random.SeedSequence(seed).spawn(4)
        self.encoder = Encoder(cfg, np.random.default_rng(streams[0]))
        self.signature = SignatureGenerator(cfg, np.random.default_rng(streams[1]))
        self.relation = RelationGenerator(cfg, np.random.default_rng(streams[2]))
        self.s2s = S2SNetwork(cfg, np.random.default_rng(streams[3]))

    def modules(self) -> dict:
        return {
            "encoder": self.encoder,
            "signature": self.signature,
            "relation": self.relation,
            "s2s": self.s2s,
        }

    def named_params(self) -> dict[str, np.ndarray]:
        return {
            f"{m}.{k}": v for m, mod in self.modules().items() for k, v in mod.params.items()
        }

    def named_buffers(self) -> dict[str, np.ndarray]:
        return {
            f"{m}.{k}": v for m, mod in self.modules().items() for k, v in mod.buffers.items()
        }

    def state_dict(self) -> dict[str, np.ndarray]:
        out = self.named_params()
        out.update(self.named_buffers())
        return out

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        check_names(state, self.state_dict(), "state mismatch")
        for mod_name, mod in self.modules().items():
            for store in (mod.params, mod.buffers):
                for k in store:
                    new = np.asarray(state[f"{mod_name}.{k}"])
                    if new.dtype != np.float64 or new.shape != store[k].shape:
                        raise DataFormatError(
                            f"tensor {mod_name}.{k} is {new.dtype} of shape {new.shape}, "
                            f"expected float64 of shape {store[k].shape}"
                        )
                    store[k] = new.copy()

    def copy_state(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.state_dict().items()}

    def save(self, path) -> None:
        save_tensors(path, self.state_dict())

    @classmethod
    def load(cls, path, cfg: ModelConfig, seed: int = 0) -> "ModelBundle":
        bundle, state = cls(cfg, seed=seed), load_tensors(path)
        try:
            bundle.load_state(state)
        except DataFormatError as e:
            raise DataFormatError(f"{path}: {e}") from None
        return bundle
