"""Reverse-mode automatic differentiation on an explicit tape.

A `Tape` is a Wengert list: every operation appends one `Var` node holding the
primal value, references to its operand nodes, and a local adjoint rule.
`backward(root)` seeds the scalar root with 1 and walks the list in reverse.
Because nodes are appended in evaluation order, the reversed list is a valid
topological order and the walk is deterministic: identical tapes produce
identical gradients bit for bit.

Every public op accepts either `Var` operands or plain numpy arrays / scalars
(treated as constants), so the same code path serves taped training and
untaped evaluation. A `Var` has no arithmetic operators: every taped
expression names its op (`add`, `mul`, `div`, `sum`, ...), so `v * 2.0`,
`2.0 * v` and `np.ones(3) * v` all raise TypeError; `__array_ufunc__ = None`
keeps numpy from absorbing a `Var` into an object array instead.

An op computes its value and returns `_node(value, op, operands, adjoint)`,
where `adjoint(g)` maps the node's output adjoint to one contribution per
operand, in order. `_node` returns the plain value when no operand is a
Var; otherwise it checks that the Var operands share one tape (`TapeError`
if not) and calls `record`, the only place a node is made, which hands each
Var operand its contribution and drops the constants'. Adjoints run only in
`backward`, so work that only an adjoint needs (a mask, a floored
denominator) sits inside them and untaped calls compute the primal value
only.

Gradients are allocated lazily. A node's first adjoint contribution becomes
its `.grad` (copied to C order when it is a strided view, such as the
broadcast view `sum` pulls back, so that downstream reductions run in the
same order as over a freshly allocated array); later contributions are
added out of place, so a node used several times collects the sum of its
downstream adjoints and no stored gradient is ever written through an
alias. A node that no contribution reached runs no adjoint and ends the
sweep with a zero gradient.

`linear` (product and bias), the two-layer perceptron `mlp` (with its
activations and output scale), the single-head `self_attention` sublayer
(projections, attention, output layer and residual), normalization (with
its scale, shift, relu and dropout mask) and the episode loss
`cross_entropy` are fused: each is one node with a hand-written adjoint
whose forward runs the composite form's arithmetic, so untaped results are
unchanged. `mlp` and `self_attention` keep only their operands and
`normalize` only μ and σ; the adjoints recompute what they need per call
(the hidden layer; q, k, v and each attention block's P and output;
normalize's x̂) and keep nothing after, and an activation's adjoint reads
its derivative off the node's own value, so no pre-activation array or
mask is kept. The convolution and the softmax are no tape ops: `_conv`,
`_softmax` and their adjoints serve the relation net's node in `netmods`.

A Tape and its Vars reference each other. Clearing `tape.nodes` once the
gradients have been read breaks that cycle, so the arrays are freed by
reference counting as soon as the last outside reference goes instead of
waiting for the cyclic GC; `train()` does so at the end of every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, TapeError


class Tape:
    """Append-only list of recorded operations."""

    __slots__ = ("nodes",)

    def __init__(self) -> None:
        self.nodes: list[Var] = []

    def var(self, value) -> "Var":
        """Wrap `value` as a leaf variable on this tape."""
        return Var(value, self)

    def __len__(self) -> int:
        return len(self.nodes)


class Var:
    """One tape node: primal value, gradient slot, and local adjoint rule."""

    # Refuse numpy's ufunc protocol so `ndarray <op> Var` raises TypeError
    # instead of building an object array.
    __array_ufunc__ = None

    __slots__ = ("value", "grad", "tape", "op", "parents", "_backward")

    def __init__(self, value, tape: Tape, op: str = "leaf", parents=(), _backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.tape = tape
        self.op = op
        self.parents = tuple(parents)
        self._backward = _backward
        tape.nodes.append(self)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self) -> str:
        return f"Var(op={self.op!r}, shape={self.value.shape})"


def val(x):
    """Primal value of `x`: unwraps a Var, passes arrays/scalars through."""
    return x.value if isinstance(x, Var) else x


def record(value, pulls, tape: Tape, op: str = "op") -> Var:
    """Append a node with primal `value` and the adjoint rule `pulls`.

    `pulls` is (operands, adjoint): `adjoint(g)` maps the node's output
    adjoint to one gradient contribution per operand, in order. Only the
    operands that are Vars become parents and receive theirs; the others'
    are dropped.
    """
    operands, adjoint = pulls
    out = Var(value, tape, op=op, parents=[v for v in operands if isinstance(v, Var)])

    def _bw(g):
        for v, contrib in zip(operands, adjoint(g)):
            if isinstance(v, Var):
                _accumulate(v, contrib, op)

    out._backward = _bw
    return out


def _node(out, op: str, operands, adjoint):
    """`out` as an `op` node over `operands`, or `out` itself when none of
    them is a Var; the Var operands must share a tape. `adjoint(g)` returns
    one contribution per operand (see `record`). `record` is looked up when
    called, so a wrapper installed as `autodiff.record` (perfbench's stage
    tracing) sees every node.
    """
    tape = None
    for v in operands:
        if isinstance(v, Var):
            if tape is not None and v.tape is not tape:
                raise TapeError(f"{op}: operands live on different tapes")
            tape = v.tape
    return out if tape is None else record(out, (operands, adjoint), tape, op)


def _accumulate(v: Var, contrib, op: str) -> None:
    """Add one adjoint contribution, produced by an `op` node, to `v.grad`."""
    shape = np.shape(contrib)
    if shape != v.value.shape:
        raise TapeError(
            f"{op}: gradient contribution of shape {shape} for an operand "
            f"of shape {v.value.shape}"
        )
    if v.grad is None:
        v.grad = np.asarray(contrib, order="C")
    else:
        # out of place: a first contribution may be another node's gradient
        # or a view of it, which an in-place add would change too
        v.grad = v.grad + contrib


def backward(root: Var) -> None:
    """Reverse sweep from scalar `root`; sets `.grad` on every tape node.

    Gradients are allocated lazily (see the module docstring): only nodes the
    root depends on run their adjoint. After the sweep every node holds an
    ndarray gradient of its value's shape, zeros where nothing reached it,
    and every leaf gradient owns writable memory. Forward values are kept.
    A second call on the same tape recomputes every gradient from scratch.
    """
    if not isinstance(root, Var):
        raise TapeError("backward root must be a Var")
    if np.size(root.value) != 1:
        raise TapeError(f"backward root must be scalar, got shape {root.value.shape}")
    nodes = root.tape.nodes
    for node in nodes:
        node.grad = None
    root.grad = np.ones_like(root.value)
    for node in reversed(nodes):
        if node.grad is not None and node._backward is not None:
            node._backward(node.grad)
    for node in nodes:
        if node.grad is None:
            node.grad = np.zeros_like(node.value)
        elif node.op == "leaf" and not (node.grad.flags.owndata and node.grad.flags.writeable):
            node.grad = node.grad.copy()


def _unbroadcast(g, shape):
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    g = np.asarray(g)
    shape = tuple(shape)
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b):
    av, bv = val(a), val(b)
    return _node(av + bv, "add", (a, b), lambda g: (
        _unbroadcast(g, np.shape(av)), _unbroadcast(g, np.shape(bv))))


def mul(a, b):
    av, bv = val(a), val(b)
    return _node(av * bv, "mul", (a, b), lambda g: (
        _unbroadcast(g * bv, np.shape(av)), _unbroadcast(g * av, np.shape(bv))))


def div(a, b):
    av, bv = val(a), val(b)
    return _node(av / bv, "div", (a, b), lambda g: (
        _unbroadcast(g / bv, np.shape(av)), _unbroadcast(-g * av / (bv * bv), np.shape(bv))))


# ---------------------------------------------------------------------------
# elementwise


def _activate(out, act, keep=None):
    """Apply a fused node's epilogue to its fresh value `out` in place: `act`
    (None, "tanh" or "relu"), then, after a relu, the inverted-dropout mask
    `keep` (zeros and one scale s = 1/(1 − p)). Returns the map of the
    node's adjoint g to the pre-activation adjoint, read off `out` alone with
    the unfused adjoints' bits: g · (1 − out²), g · (out > 0) or, with the
    mask, (g · s) · (out > 0)."""
    if act is None and keep is None:
        return lambda g: g
    if act == "tanh" and keep is None:
        np.tanh(out, out=out)
        return lambda g: g * (1.0 - out * out)
    if act != "relu":
        raise ConfigError(f"no epilogue act={act!r}"
                          + ("" if keep is None else " with a dropout mask"))
    np.maximum(out, 0.0, out=out)
    if keep is None:
        return lambda g: g * (out > 0)
    out *= keep
    scale = np.max(keep, initial=0.0)
    return lambda g: (g * scale) * (out > 0)


# ---------------------------------------------------------------------------
# reductions


def _normalize_axes(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(sorted(a % ndim for a in axis))


def sum(x, axis=None, keepdims=False):  # noqa: A001 - mirrors numpy naming
    xv = val(x)

    def adjoint(g):
        axes = _normalize_axes(axis, np.ndim(xv))
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, xv.shape),)

    return _node(np.sum(xv, axis=axis, keepdims=keepdims), "sum", (x,), adjoint)


def mean(x, axis=None, keepdims=False):
    xv = val(x)
    n = xv.size if axis is None else np.prod(
        [xv.shape[a] for a in _normalize_axes(axis, xv.ndim)]
    )
    return mul(sum(x, axis=axis, keepdims=keepdims), 1.0 / float(n))


# ---------------------------------------------------------------------------
# shape


def reshape(x, shape):
    xv = val(x)
    return _node(np.reshape(xv, shape), "reshape", (x,), lambda g: (np.reshape(g, xv.shape),))


# ---------------------------------------------------------------------------
# linear maps


def _affine(x, w, b=None):
    """x @ w, then `out += b` when b is given: the forward of every affine
    layer a fused node runs."""
    out = x @ w
    if b is not None:
        out += b
    return out


def _affine_adjoint(g, x, w, b=None, dx=True):
    """dx, dw and db of x @ w + b for the output adjoint g; dx is None
    unless asked for, db None without a bias."""
    return (_unbroadcast(g @ np.swapaxes(w, -1, -2), np.shape(x)) if dx else None,
            _unbroadcast(np.swapaxes(x, -1, -2) @ g, np.shape(w)),
            None if b is None else _unbroadcast(g, np.shape(b)))


def linear(x, w, b=None):
    """x @ w, plus the bias b when given, as one node."""
    xv, wv, bv = val(x), val(w), val(b)
    if np.ndim(xv) < 2 or np.ndim(wv) < 2:
        raise ShapeError("linear operands must have ndim >= 2")
    return _node(_affine(xv, wv, bv), "linear", (x, w, b),
                 lambda g: _affine_adjoint(g, xv, wv, bv, isinstance(x, Var)))


def mlp(x, w1, b1, w2, b2, act=(None, None), scale=None):
    """act[1](act[0](x @ w1 + b1) @ w2 + b2), times the number `scale` when
    given, as one node (`act` entries as `_activate`'s; a bias may be None).

    The node keeps only its operands: the adjoint recomputes the hidden
    layer (and, for act[1], the output) and runs the two affine adjoints
    with the unfused chain's bits; a constant x gets None.
    """
    xv, w1v, b1v, w2v, b2v = val(x), val(w1), val(b1), val(w2), val(b2)
    if np.ndim(xv) < 2 or np.ndim(w1v) != 2 or np.ndim(w2v) != 2:
        raise ShapeError("mlp expects an input of ndim >= 2 and two 2-D weights")

    def layer(v, w, b, a):  # (the activated layer, its derivative map)
        out = _affine(v, w, b)
        return out, _activate(out, a)

    out = layer(layer(xv, w1v, b1v, act[0])[0], w2v, b2v, act[1])[0]
    if scale is not None:
        out *= scale

    def adjoint(g):
        if scale is not None:
            g = g * scale
        h, pre1 = layer(xv, w1v, b1v, act[0])
        if act[1] is not None:
            g = layer(h, w2v, b2v, act[1])[1](g)
        dh, dw2, db2 = _affine_adjoint(g, h, w2v, b2v)
        return _affine_adjoint(pre1(dh), xv, w1v, b1v, isinstance(x, Var)) + (dw2, db2)

    return _node(out, "mlp", (x, w1, b1, w2, b2), adjoint)


def _conv(x, k):
    """Valid stride-1 convolution, channels last: x (..., H, W, Cin) with k
    (kh, kw, Cin, Cout) -> (..., H-kh+1, W-kw+1, Cout); leading axes are batch axes."""
    ho, wo = x.shape[-3] - k.shape[0] + 1, x.shape[-2] - k.shape[1] + 1
    out = np.zeros(x.shape[:-3] + (ho, wo, k.shape[-1]))
    for di in range(k.shape[0]):
        for dj in range(k.shape[1]):
            out += x[..., di:di + ho, dj:dj + wo, :] @ k[di, dj]
    return out


def _conv_adjoint(g, x, k):
    """dx and dk of `_conv(x, k)` for the output adjoint g."""
    gx, gk = np.zeros_like(x), np.zeros_like(k)
    (kh, kw), (ho, wo), axes = k.shape[:2], g.shape[-3:-1], list(range(x.ndim - 1))
    for di in range(kh):
        for dj in range(kw):
            gx[..., di:di + ho, dj:dj + wo, :] += g @ k[di, dj].T
            gk[di, dj] = np.tensordot(x[..., di:di + ho, dj:dj + wo, :], g, axes=(axes, axes))
    return gx, gk


# ---------------------------------------------------------------------------
# composites


def _softmax(x, axis=-1):
    """Softmax along `axis`, shifted by the max so that exp stays finite."""
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return e / np.sum(e, axis=axis, keepdims=True)


def _softmax_adjoint(g, out, axis=-1):
    """The adjoint of out = softmax(x): out * (g - sum(g * out, axis))."""
    return out * (g - np.sum(g * out, axis=axis, keepdims=True))


def _attend(q, k, v):
    """softmax(q kᵀ / √C) v of one (T, C) block and its P, one T×T buffer."""
    p = q @ k.T
    p *= 1.0 / np.sqrt(q.shape[-1])
    p -= np.max(p, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= np.sum(p, axis=-1, keepdims=True)
    return p @ v, p


def _attend_adjoint(q, k, v, g):
    """The output and dq, dk, dv of one (T, C) block; its P, rebuilt with the
    output from q, k and v, and dS are freed on return, so the adjoint holds
    two T×T arrays at most."""
    out, p = _attend(q, k, v)
    gs = g * (1.0 / np.sqrt(q.shape[-1]))
    ds = gs @ v.T
    ds -= np.sum(gs * out, axis=-1, keepdims=True)
    ds *= p
    return out, ds @ k, ds.T @ q, p.T @ g


def self_attention(x, wq, bq, wk, wv, bv, wo, bo):
    """x + softmax(q kᵀ / √C) v wo + bo over (..., T, C) token stacks, with
    q = x wq + bq, k = x wk and v = x wv + bv, recorded as one node that
    keeps only its operands (bq, bv and bo may be None).

    Forward and adjoint attend one (T, C) block at a time through `_attend`
    with the composite's arithmetic, so no T×T stack is ever held. The
    adjoint recomputes q, k and v, rebuilds each block's P and output, and
    with a = the attention output and g_a = g woᵀ forms the score adjoint
    dS = P ⊙ (g_a vᵀ − rowsum(g_a ⊙ a)) / √C, as rowsum(g_a ⊙ a) equals
    rowsum((g_a vᵀ) ⊙ P); dq = dS k, dk = dSᵀ q and dv = Pᵀ g_a. x collects
    ((g + dx_v) + dx_k) + dx_q, the unfused sweep's order.
    """
    xv, wqv, bqv, wkv, wvv, bvv, wov, bov = (val(a) for a in (x, wq, bq, wk, wv, bv, wo, bo))
    shapes = [np.shape(a) for a in (xv, wqv, wkv, wvv, wov)]
    if (np.ndim(xv) < 2 or any(len(s) != 2 for s in shapes[1:]) or shapes[1] != shapes[2]
            or {shapes[1][0], shapes[3][0], shapes[4][1]} != {shapes[0][-1]}
            or shapes[3][1] != shapes[4][0]):
        raise ShapeError(
            f"self_attention expects x (..., T, C), wq and wk (C, D), wv (C, E) and wo (E, C), "
            f"got {', '.join(map(str, shapes))}"
        )

    def qkv():
        return _affine(xv, wqv, bqv), _affine(xv, wkv), _affine(xv, wvv, bvv)

    def blocks(*arrays):  # zip of the (T, C) blocks of each array
        return zip(*(np.reshape(a, (-1,) + np.shape(a)[-2:]) for a in arrays))

    q, k, v = qkv()
    a_shape = np.shape(q)[:-1] + np.shape(v)[-1:]
    out = _affine(np.reshape([_attend(*b)[0] for b in blocks(q, k, v)], a_shape), wov, bov)
    out += xv

    def adjoint(g):
        q, k, v = qkv()
        outs, dq, dk, dv = zip(*(_attend_adjoint(*b) for b in blocks(
            q, k, v, g @ np.swapaxes(wov, -1, -2))))
        _, dwo, dbo = _affine_adjoint(g, np.reshape(outs, a_shape), wov, bov, dx=False)
        dxq, dwq, dbq = _affine_adjoint(np.reshape(dq, np.shape(q)), xv, wqv, bqv)
        dxk, dwk, _ = _affine_adjoint(np.reshape(dk, np.shape(k)), xv, wkv)
        dxv, dwv, dbv = _affine_adjoint(np.reshape(dv, np.shape(v)), xv, wvv, bvv)
        return ((g + dxv) + dxk) + dxq, dwq, dbq, dwk, dwv, dbv, dwo, dbo

    return _node(out, "self_attention", (x, wq, bq, wk, wv, bv, wo, bo), adjoint)


def normalize(x, axes, eps, gamma, beta=None, act=None, keep=None, stats=None):
    """γ · x̂ + β over `axes` as one node; beta=None leaves out the shift.

    Returns (γ · x̂ + β, μ, var): x̂ = (x − μ) / σ, σ = sqrt(var + eps), μ and
    var the (biased) mean and variance as plain arrays of the reduced shape
    with kept dimensions, by the composite form's arithmetic; `stats` =
    (mean, var) takes copies of those instead. `act` and `keep` add
    `_activate`'s epilogue. The node keeps μ and σ; the adjoint maps g
    through the epilogue and rebuilds x̂ from x for `_normalize_adjoint`.
    """
    xv, gv, bv = val(x), val(gamma), val(beta)
    axes = _normalize_axes(axes, np.ndim(xv))
    inv_n = 1.0 / float(np.prod([xv.shape[a] for a in axes]))
    if stats is None:
        mu = np.sum(xv, axis=axes, keepdims=True) * inv_n
        out = xv - mu
        var = np.sum(out * out, axis=axes, keepdims=True) * inv_n
    else:  # copies: a later update of the buffers must not reach the adjoint
        mu, var = (np.array(s, dtype=np.float64) for s in stats)
        out = xv - mu
    sigma = np.sqrt(var + eps)
    out = gv * (out / sigma)
    if beta is not None:
        out += bv
    pre = _activate(out, act, keep)

    return _node(out, "normalize", (x, gamma, beta), lambda g: _normalize_adjoint(
        pre(g), (xv - mu) / sigma, sigma, gv, bv, axes, stats is None)), mu, var


def _normalize_adjoint(g, xhat, sigma, gamma, beta, axes, batch):
    """With gx = g ⊙ γ: dx = (gx − mean(gx) − x̂ · mean(gx ⊙ x̂)) / σ when
    μ and σ are x's own `batch` statistics, else gx / σ; dγ = Σ g ⊙ x̂ and
    dβ = Σ g (None without a shift)."""
    gx = g * gamma
    if batch:
        inv_n = 1.0 / float(np.prod([xhat.shape[a] for a in axes]))
        mean_g = np.sum(gx, axis=axes, keepdims=True) * inv_n
        mean_gx = np.sum(gx * xhat, axis=axes, keepdims=True) * inv_n
        dx = (gx - mean_g - xhat * mean_gx) / sigma
    else:
        dx = gx / sigma
    return (dx, _unbroadcast(g * xhat, np.shape(gamma)),
            None if beta is None else _unbroadcast(g, np.shape(beta)))


def cross_entropy(x, labels, scale):
    """The episode loss as one node: -1/n times the sum of log softmax(x *
    scale) along the last axis times the one-hot rows of `labels`, one label
    for each of the n rows, by the arithmetic of those five ops. It keeps the
    shifted exp e and its row sums s; with h = g * (-1/n) * onehot, the
    adjoint is (h + (sum(-h) / s) * e) * scale, each row's sum formed first.
    """
    xv = val(x)
    onehot = np.eye(np.shape(xv)[-1])[labels]
    z = xv * scale
    centered = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(centered)
    s = np.sum(e, axis=-1, keepdims=True)
    inv_n = -1.0 / len(labels)

    def adjoint(g):
        h = g * inv_n * onehot
        return ((h + (np.sum(-h, axis=-1, keepdims=True) / s) * e) * scale,)

    return _node(np.asarray(np.sum((centered - np.log(s)) * onehot) * inv_n), "cross_entropy",
                 (x,), adjoint)


# ---------------------------------------------------------------------------
# finite-difference oracle


@dataclass
class FiniteDiffReport:
    """Outcome of comparing tape gradients against central differences.

    `flagged` lists flat indices whose relative error exceeded the tolerance;
    at a kink the two estimates legitimately disagree, and those coordinates
    show up here.
    """

    max_rel_error: float
    tolerance: float
    passed: bool
    analytic: np.ndarray
    numeric: np.ndarray
    flagged: list = field(default_factory=list)


def finite_diff_check(f, point, step: float = 1e-5, tol: float = 1e-4) -> FiniteDiffReport:
    """Check d f / d point against central finite differences.

    `f` maps a Var (or array) to a scalar. The analytic gradient comes from
    one taped evaluation at `point`; the numeric one from 2 * point.size
    untaped evaluations that step a private C-ordered copy of `point`, so
    the caller's array stays unchanged even when `f` raises. Relative error
    per coordinate is |a - n| / max(|a|, |n|, 1).
    """
    point = np.array(point, dtype=np.float64, order="C")
    tape = Tape()
    x = tape.var(point)
    out = f(x)
    if not isinstance(out, Var):
        raise TapeError("finite_diff_check: f must return a Var")
    backward(out)
    analytic = np.array(x.grad, copy=True)

    numeric = np.zeros_like(point)
    flat = point.ravel()
    nflat = numeric.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = float(val(f(point)))
        flat[i] = orig - step
        f_minus = float(val(f(point)))
        flat[i] = orig
        nflat[i] = (f_plus - f_minus) / (2.0 * step)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    rel = np.abs(analytic - numeric) / denom
    flagged = [int(i) for i in np.flatnonzero(rel.ravel() > tol)]
    max_rel = float(rel.max()) if rel.size else 0.0
    return FiniteDiffReport(
        max_rel_error=max_rel,
        tolerance=tol,
        passed=not flagged,
        analytic=analytic,
        numeric=numeric,
        flagged=flagged,
    )
