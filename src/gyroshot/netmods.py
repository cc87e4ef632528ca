"""Network modules: patch encoder, signature refiner, relation and s2s nets.

All parameters are float64 numpy arrays held in each module's `params` dict
(BN running statistics live in `buffers`). A forward pass uses those arrays
directly, or a caller-supplied dict mapping the same keys to tape Vars when
gradients are wanted. Dropout draws from an explicit Generator and is off
whenever `rng` is None, so evaluation and gradient checks are deterministic.

The four modules:

  Encoder            per-patch 2-layer MLP, tanh-bounded output scaled to
                     feature_scale * ball radius, then clipped into the ball.
  SignatureGenerator one single-head transformer encoder block (post-LN,
                     feed-forward width 4*C) over all support descriptors
                     jointly, with fixed sinusoidal 2-D positional encodings.
  RelationGenerator  conv(k1) -> BN -> relu -> dropout(0.5) -> conv(k2) -> BN
                     -> sigmoid, collapsing the grid to one score per sample.
                     The first conv reads a map beside its class signature;
                     conv is linear in its input channels, so it runs as
                     conv(map, W_map) + conv(signature, W_sig) with the two
                     halves of its kernel stored apart, and the signature
                     half once per (query, class) pair rather than per map.
  S2SNetwork         linear(HW^2 -> HW) -> BN -> relu -> dropout(0.5) ->
                     linear(HW -> 1) -> BN, reading a flattened distance
                     matrix and emitting a scalar set-to-set distance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import val
from .errors import ConfigError, DataFormatError, ShapeError
from .fileio import atomic_write
from .geometry import BallConfig, clip_to_ball, in_ball, log_map

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1
#: checkpoint header version; 3 is the first with the relation net's first
#: kernel stored as its two halves
CHECKPOINT_FORMAT = 3


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


def dropout(x, p: float, rng):
    """Inverted dropout; identity when `rng` is None (eval / checks)."""
    if rng is None or p <= 0.0:
        return x
    mask = (rng.random(np.shape(val(x))) >= p) / (1.0 - p)
    return x * mask


def _shift(x, beta):
    """x + beta; beta=None records no node."""
    return x if beta is None else x + beta


def layer_norm(x, gamma, beta=None, eps: float = 1e-5):
    """Normalize over the last axis with one `ad.normalize` node, then scale
    by gamma; beta=None leaves out the shift."""
    xhat, _, _ = ad.normalize(x, -1, eps)
    return _shift(gamma * xhat, beta)


def batch_norm(x, gamma, beta, mean_buf, var_buf, train: bool):
    """Normalize over all axes but the last; running buffers updated in train mode.

    Train mode normalizes with one `ad.normalize` node over the batch
    statistics; eval mode reads the running buffers. beta=None leaves out
    the shift. A bias that feeds straight into batch norm is cancelled by its
    mean subtraction, so the layers before it have none.
    """
    if train:
        xhat, mu, var = ad.normalize(x, tuple(range(np.ndim(val(x)) - 1)), _BN_EPS)
        mean_buf *= 1.0 - _BN_MOMENTUM
        mean_buf += _BN_MOMENTUM * mu.reshape(-1)
        var_buf *= 1.0 - _BN_MOMENTUM
        var_buf += _BN_MOMENTUM * var.reshape(-1)
        return _shift(gamma * xhat, beta)
    return _shift(gamma * ((x - mean_buf) / np.sqrt(var_buf + _BN_EPS)), beta)


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

    tanh bounds the output inside radius feature_scale / sqrt(c) before the
    clip, so arctanh arguments downstream stay well away from 1.
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
        h = ad.tanh(ad.matmul(x, p["w1"]) + p["b1"])
        z = ad.tanh(ad.matmul(h, p["w2"]) + p["b2"])
        scale = self.cfg.feature_scale * ball.radius / np.sqrt(self.cfg.feat_dim)
        out = clip_to_ball(z * scale, ball)
        if __debug__ and not isinstance(out, ad.Var):
            assert in_ball(out, ball, slack=1e-12)
        return out


class SignatureGenerator:
    """Single-head transformer encoder block over support descriptors.

    Attention is one fused `ad.attention` node that keeps no T×T array, and
    each layer norm one `ad.normalize` node plus its scale (and shift). The
    key projection has no bias (softmax over the keys is invariant to it),
    and the output layer norm has no shift: the signature only reaches the
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

    def __call__(self, tokens, params=None):
        """One post-LN block on (..., T, C) token stacks."""
        p = params if params is not None else self.params
        q = ad.matmul(tokens, p["wq"]) + p["bq"]
        k = ad.matmul(tokens, p["wk"])
        v = ad.matmul(tokens, p["wv"]) + p["bv"]
        att = ad.matmul(ad.attention(q, k, v), p["wo"]) + p["bo"]
        h = layer_norm(tokens + att, p["ln1_g"], p["ln1_b"])
        f = ad.matmul(ad.relu(ad.matmul(h, p["ffw1"]) + p["ffb1"]), p["ffw2"]) + p["ffb2"]
        return layer_norm(h + f, p["ln2_g"])

    def refine(self, proj, params=None):
        """Attend jointly over all support maps.

        proj is (..., M, HW, C): M support maps of HW descriptors each. The
        positional table is added per grid position, the M*HW tokens attend
        in one block, and the output is reshaped back. Permuting the M maps
        permutes the output the same way.
        """
        shape = np.shape(val(proj))
        if len(shape) < 3 or shape[-2] != self.cfg.hw or shape[-1] != self.cfg.feat_dim:
            raise ShapeError(
                f"refine expects (..., M, {self.cfg.hw}, {self.cfg.feat_dim}), got {shape}"
            )
        x = proj + self.pos
        t = ad.reshape(x, shape[:-3] + (shape[-3] * shape[-2], shape[-1]))
        y = self(t, params=params)
        return ad.reshape(y, shape)


def project_support(support, qbar, cfg: BallConfig):
    """Tangent maps of support patches at the mean query point.

    support (..., HW, C) against base qbar (..., C); the base is expanded on
    the patch axis and the two broadcast. Returns raw tangent coordinates.
    """
    qshape = np.shape(val(qbar))
    base = ad.reshape(qbar, qshape[:-1] + (1, qshape[-1]))
    return log_map(base, support, cfg)


class RelationGenerator:
    """Convolutional scorer of (projected map, class signature) agreement.

    The first conv reads a map and its signature side by side, which it
    computes as conv(map, conv1_map_w) + conv(signature, conv1_sig_w): its
    (kh, kw, 2C, F) kernel is drawn whole and stored as its two channel
    halves, so the signature half runs once per signature rather than once
    per map. The convs have no bias: each feeds straight into batch norm.
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
            "bn2_b": np.zeros(1),
        }
        self.buffers = {
            "bn1_mean": np.zeros(f),
            "bn1_var": np.ones(f),
            "bn2_mean": np.zeros(1),
            "bn2_var": np.ones(1),
        }

    def __call__(self, maps, signature, train: bool = False, rng=None, params=None):
        """maps (..., H, W, C) and signatures (..., H, W, C) -> scores (...)
        in (0, 1), one per map.

        The leading axes of `signature` broadcast against those of `maps`
        (a class's signature as (B, 1, H, W, C) against its maps as
        (B, K, H, W, C)); the scores have the leading shape of `maps`.
        """
        p = params if params is not None else self.params
        shape, sig_shape = np.shape(val(maps)), np.shape(val(signature))
        c = self.cfg.feat_dim
        cell = self.cfg.grid + (c,)
        lead, sig_lead = shape[:-3], sig_shape[:-3]
        if (len(shape) < 4 or shape[-3:] != cell or sig_shape[-3:] != cell
                or len(sig_lead) > len(lead)
                or any(n not in (1, m) for n, m in zip(sig_lead[::-1], lead[::-1]))):
            raise ShapeError(
                f"relation inputs must be maps (..., {cell[0]}, {cell[1]}, {c}) and "
                f"signatures broadcasting against them, got {shape} and {sig_shape}"
            )
        x = ad.conv2d(maps, p["conv1_map_w"]) + ad.conv2d(signature, p["conv1_sig_w"])
        x = batch_norm(x, p["bn1_g"], p["bn1_b"], self.buffers["bn1_mean"],
                       self.buffers["bn1_var"], train)
        x = dropout(ad.relu(x), 0.5, rng if train else None)
        x = ad.conv2d(x, p["conv2_w"])
        x = batch_norm(x, p["bn2_g"], p["bn2_b"], self.buffers["bn2_mean"],
                       self.buffers["bn2_var"], train)
        s = ad.sigmoid(x)
        return ad.reshape(s, lead)


def relation_scores(proj, signature, relation: RelationGenerator,
                    train: bool = False, rng=None, params=None):
    """Adaptive weights for one class (or a batch of classes).

    proj (..., K, HW, C) are the class's projected support maps, `signature`
    (..., HW, C) its signature. The relation net scores each map against the
    signature on the grid, as (B, K, H, W, C) maps against (B, 1, H, W, C)
    signatures with the leading axes flattened to B, and the K scores
    softmax to weights that sum to 1.
    """
    shape = np.shape(val(proj))
    h, w = relation.cfg.grid
    k, c = shape[-3], shape[-1]
    maps = ad.reshape(proj, (-1, k, h, w, c))
    sig = ad.reshape(signature, (-1, 1, h, w, c))
    scores = relation(maps, sig, train=train, rng=rng, params=params)
    scores = ad.reshape(scores, shape[:-2])
    return ad.softmax(scores, axis=-1)


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
        x = ad.matmul(d, p["w1"])
        x = batch_norm(x, p["bn1_g"], p["bn1_b"], self.buffers["bn1_mean"],
                       self.buffers["bn1_var"], train)
        x = dropout(ad.relu(x), 0.5, rng if train else None)
        x = ad.matmul(x, p["w2"])
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
        own = self.state_dict()
        if set(state) != set(own):
            missing = sorted(set(own) - set(state))
            extra = sorted(set(state) - set(own))
            raise DataFormatError(f"state mismatch: missing {missing}, unexpected {extra}")
        for mod_name, mod in self.modules().items():
            for store in (mod.params, mod.buffers):
                for k in store:
                    new = np.asarray(state[f"{mod_name}.{k}"], dtype=np.float64)
                    if new.shape != store[k].shape:
                        raise DataFormatError(
                            f"tensor {mod_name}.{k} has shape {new.shape}, expected {store[k].shape}"
                        )
                    store[k] = new.copy()

    def copy_state(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.state_dict().items()}

    def save(self, path) -> None:
        save_checkpoint(path, self.state_dict())

    @classmethod
    def load(cls, path, cfg: ModelConfig, seed: int = 0) -> "ModelBundle":
        bundle = cls(cfg, seed=seed)
        bundle.load_state(load_checkpoint(path))
        return bundle


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """One JSON header line (format version, names, shapes, dtype) then raw
    little-endian blocks, written atomically."""
    header = {
        "format_version": CHECKPOINT_FORMAT,
        "tensors": [
            {"name": k, "shape": list(np.shape(v)), "dtype": "<f8"} for k, v in tensors.items()
        ]
    }
    with atomic_write(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8") + b"\n")
        for v in tensors.values():
            f.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    path = Path(path)
    raw = path.read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise DataFormatError(f"{path}: missing header line")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
        version = header.get("format_version")
        entries = header["tensors"]
    except (ValueError, KeyError, AttributeError, UnicodeDecodeError) as e:
        raise DataFormatError(f"{path}: bad checkpoint header ({e})") from e
    if version != CHECKPOINT_FORMAT:
        raise DataFormatError(
            f"{path}: checkpoint format_version {version}, expected {CHECKPOINT_FORMAT}"
        )
    if not isinstance(entries, list):
        raise DataFormatError(f"{path}: bad checkpoint header ('tensors' is not a list: {entries!r})")
    out = {}
    offset = nl + 1
    for entry in entries:
        try:
            name, shape, dtype = entry["name"], entry["shape"], entry["dtype"]
        except (KeyError, TypeError) as e:
            raise DataFormatError(f"{path}: malformed tensor entry {entry}") from e
        if not isinstance(name, str) or not isinstance(shape, list) or not all(
            type(n) is int and n >= 0 for n in shape
        ):
            raise DataFormatError(
                f"{path}: bad checkpoint header (tensor entry {entry} needs a string "
                f"name and a list of non-negative integer dimensions)"
            )
        if name in out:
            raise DataFormatError(f"{path}: bad checkpoint header (duplicate tensor name {name!r})")
        if dtype != "<f8":
            raise DataFormatError(f"{path}: tensor {name} has unsupported dtype {dtype}")
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(raw):
            raise DataFormatError(f"{path}: truncated at byte {len(raw)} reading {name}")
        out[name] = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(raw):
        raise DataFormatError(f"{path}: {len(raw) - offset} trailing bytes after tensor data")
    return out
