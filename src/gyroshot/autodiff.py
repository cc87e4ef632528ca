"""Reverse-mode automatic differentiation on an explicit tape.

A `Tape` is a Wengert list: every operation appends one `Var` node holding the
primal value, references to its operand nodes, and a local adjoint rule.
`backward(root)` seeds the scalar root with 1 and walks the list in reverse.
Because nodes are appended in evaluation order, the reversed list is a valid
topological order and the walk is deterministic: identical tapes produce
identical gradients bit for bit.

Every public op accepts either `Var` operands or plain numpy arrays / scalars
(treated as constants), so the same code path serves taped training and
untaped evaluation. Mixed expressions work through the `+ - * /` operator
overloads (a matrix product is `matmul`); `__array_ufunc__ = None` keeps
numpy from absorbing a `Var` into an object array.

An op computes its value and returns `_node(value, op, (operand, pull), ...)`
with one pair per operand. `_node` drops the pairs whose operand is a
constant and returns the plain value when none is left; otherwise it checks
that the kept operands share one tape (`TapeError` if not) and calls
`record`, the only place a node is made. Pulls run only in `backward`, so
work that only an adjoint needs (a mask, a floored denominator) sits inside
them and untaped calls compute the primal value only.

Gradients are allocated lazily. A node's first adjoint contribution becomes
its `.grad` (copied to C order when it is a strided view, such as the
broadcast view `sum` pulls back, so that downstream reductions run in the
same order as over a freshly allocated array); later contributions are
added out of place, so a node used several times collects the sum of its
downstream adjoints and no stored gradient is ever written through an
alias. A node that no contribution reached runs no adjoint and ends the
sweep with a zero gradient.

Softmax, single-head attention and normalization are fused: each is one
node with a hand-written adjoint, whose forward runs the arithmetic of the
composite form so that untaped results are unchanged. `attention` keeps no
T×T array and `normalize` only its output and σ; the adjoints rebuild what
they need per call (attention's P block by block) and keep nothing after.
`conv2d` treats the leading axes of its input as batch axes.

A Tape and its Vars reference each other. Clearing `tape.nodes` once the
gradients have been read breaks that cycle, so the arrays are freed by
reference counting as soon as the last outside reference goes instead of
waiting for the cyclic GC; `train()` does so at the end of every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError, TapeError

_SAFE_NORM_FLOOR = 1e-15


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

    # Refuse numpy's ufunc protocol so `ndarray <op> Var` falls back to our
    # reflected operators instead of building an object array.
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

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)


def val(x):
    """Primal value of `x`: unwraps a Var, passes arrays/scalars through."""
    return x.value if isinstance(x, Var) else x


def record(value, pulls, tape: Tape, op: str = "op") -> Var:
    """Append a node with primal `value` and adjoint rules `pulls`.

    `pulls` is a list of (operand Var, pull fn) pairs; each pull maps the
    node's output adjoint to that operand's gradient contribution.
    """
    out = Var(value, tape, op=op, parents=tuple(v for v, _ in pulls))

    def _bw(g):
        for v, pull in pulls:
            _accumulate(v, pull(g), op)

    out._backward = _bw
    return out


def _node(out, op: str, *pulls):
    """`out` as an `op` node, or `out` itself when no operand is a Var.

    `pulls` holds one (operand, pull fn) pair per operand; pairs whose
    operand is a constant are dropped. The kept operands must share a tape.
    `record` is looked up when called, so a wrapper installed as
    `autodiff.record` (perfbench's stage tracing) sees every node.
    """
    kept = [p for p in pulls if isinstance(p[0], Var)]
    if not kept:
        return out
    tape = kept[0][0].tape
    for v, _ in kept:
        if v.tape is not tape:
            raise TapeError(f"{op}: operands live on different tapes")
    return record(out, kept, tape, op)


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
    return _node(av + bv, "add",
                 (a, lambda g: _unbroadcast(g, np.shape(av))),
                 (b, lambda g: _unbroadcast(g, np.shape(bv))))


def sub(a, b):
    av, bv = val(a), val(b)
    return _node(av - bv, "sub",
                 (a, lambda g: _unbroadcast(g, np.shape(av))),
                 (b, lambda g: _unbroadcast(-g, np.shape(bv))))


def mul(a, b):
    av, bv = val(a), val(b)
    return _node(av * bv, "mul",
                 (a, lambda g: _unbroadcast(g * bv, np.shape(av))),
                 (b, lambda g: _unbroadcast(g * av, np.shape(bv))))


def div(a, b):
    av, bv = val(a), val(b)
    return _node(av / bv, "div",
                 (a, lambda g: _unbroadcast(g / bv, np.shape(av))),
                 (b, lambda g: _unbroadcast(-g * av / (bv * bv), np.shape(bv))))


# ---------------------------------------------------------------------------
# elementwise


def sqrt(x):
    out = np.sqrt(val(x))
    return _node(out, "sqrt", (x, lambda g: g * 0.5 / out))


def exp(x):
    out = np.exp(val(x))
    return _node(out, "exp", (x, lambda g: g * out))


def log(x):
    xv = val(x)
    return _node(np.log(xv), "log", (x, lambda g: g / xv))


def tanh(x):
    out = np.tanh(val(x))
    return _node(out, "tanh", (x, lambda g: g * (1.0 - out * out)))


def arctanh(x):
    xv = val(x)
    if np.any(np.abs(xv) >= 1.0):
        worst = float(np.max(np.abs(xv)))
        raise DomainError(f"arctanh argument magnitude {worst} >= 1")
    return _node(np.arctanh(xv), "arctanh", (x, lambda g: g / (1.0 - xv * xv)))


def sigmoid(x):
    xv = val(x)
    # exp only of non-positive numbers: stable for large |x|
    z = np.exp(-np.abs(xv))
    out = np.where(xv >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    return _node(out, "sigmoid", (x, lambda g: g * out * (1.0 - out)))


def relu(x):
    xv = val(x)
    return _node(np.maximum(xv, 0.0), "relu", (x, lambda g: g * (xv > 0)))


def where(cond, a, b):
    """Elementwise select by a plain boolean mask (the mask is not traced)."""
    cond = np.asarray(cond, dtype=bool)
    av, bv = val(a), val(b)
    return _node(np.where(cond, av, bv), "where",
                 (a, lambda g: _unbroadcast(np.where(cond, g, 0.0), np.shape(av))),
                 (b, lambda g: _unbroadcast(np.where(cond, 0.0, g), np.shape(bv))))


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

    def pull(g):
        axes = _normalize_axes(axis, np.ndim(xv))
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, xv.shape)

    return _node(np.sum(xv, axis=axis, keepdims=keepdims), "sum", (x, pull))


def mean(x, axis=None, keepdims=False):
    xv = val(x)
    n = xv.size if axis is None else np.prod(
        [xv.shape[a] for a in _normalize_axes(axis, xv.ndim)]
    )
    return mul(sum(x, axis=axis, keepdims=keepdims), 1.0 / float(n))


def norm(x, keepdims=False):
    """Euclidean norm over the last axis, with a gradient safe at zero.

    d||x||/dx = x/||x||; the denominator is floored at 1e-15 so a zero vector
    yields a zero (sub)gradient instead of NaN.
    """
    xv = val(x)
    out_keep = np.sqrt(np.sum(xv * xv, axis=-1, keepdims=True))

    def pull(g):
        if not keepdims:
            g = np.asarray(g)[..., None]
        return g * xv / np.maximum(out_keep, _SAFE_NORM_FLOOR)

    return _node(out_keep if keepdims else out_keep[..., 0], "norm", (x, pull))


# ---------------------------------------------------------------------------
# shape


def reshape(x, shape):
    xv = val(x)
    return _node(np.reshape(xv, shape), "reshape", (x, lambda g: np.reshape(g, xv.shape)))


# ---------------------------------------------------------------------------
# linear maps


def matmul(a, b):
    av, bv = val(a), val(b)
    if np.ndim(av) < 2 or np.ndim(bv) < 2:
        raise ShapeError("matmul operands must have ndim >= 2")
    return _node(av @ bv, "matmul",
                 (a, lambda g: _unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape)),
                 (b, lambda g: _unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape)))


def conv2d(x, k):
    """Valid-padding stride-1 convolution, channels last.

    x: (..., H, W, Cin), k: (kh, kw, Cin, Cout) -> (..., H-kh+1, W-kw+1, Cout);
    the leading axes of x are batch axes.
    """
    xv, kv = val(x), val(k)
    if np.ndim(xv) < 3 or np.ndim(kv) != 4:
        raise ShapeError("conv2d expects a (..., H, W, Cin) input and a 4-D kernel")
    *lead, H, W, Ci = xv.shape
    kh, kw, Ck, Co = kv.shape
    if Ck != Ci:
        raise ShapeError(f"conv2d channel mismatch: input {Ci}, kernel {Ck}")
    Ho, Wo = H - kh + 1, W - kw + 1
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"conv2d kernel ({kh},{kw}) larger than input ({H},{W})")
    out = np.zeros((*lead, Ho, Wo, Co))
    for di in range(kh):
        for dj in range(kw):
            out += xv[..., di:di + Ho, dj:dj + Wo, :] @ kv[di, dj]

    def pull_x(g):
        gx = np.zeros_like(xv)
        for di in range(kh):
            for dj in range(kw):
                gx[..., di:di + Ho, dj:dj + Wo, :] += g @ kv[di, dj].T
        return gx

    def pull_k(g):
        gk = np.zeros_like(kv)
        axes = list(range(xv.ndim - 1))
        for di in range(kh):
            for dj in range(kw):
                gk[di, dj] = np.tensordot(xv[..., di:di + Ho, dj:dj + Wo, :], g, axes=(axes, axes))
        return gk

    return _node(out, "conv2d", (x, pull_x), (k, pull_k))


# ---------------------------------------------------------------------------
# composites


def softmax(x, axis=-1):
    """Softmax along `axis`, recorded as one node that keeps only the output.

    The max shift keeps exp finite and does not change the result. The
    adjoint of P = softmax(x) is P * (g - sum(g * P, axis)), so no
    intermediate of the forward pass stays on the tape.
    """
    xv = val(x)
    e = np.exp(xv - np.max(xv, axis=axis, keepdims=True))
    out = e / np.sum(e, axis=axis, keepdims=True)
    return _node(out, "softmax",
                 (x, lambda g: out * (g - np.sum(g * out, axis=axis, keepdims=True))))


def _joint_pulls(operands, grads):
    """(operand, pull) pairs for the Var operands, whose contributions all
    come from one call of `grads(g)`, which returns one per operand in order.

    `record` runs a node's pulls in order within one adjoint call: the first
    makes every contribution, each hands out its own, and the last drops the
    rest, so nothing computed for one call is kept for the next.
    """
    held = []
    wanted = [i for i, o in enumerate(operands) if isinstance(o, Var)]

    def pull(i):
        def hand_out(g):
            if i == wanted[0]:
                held[:] = grads(g)
            contrib = held[i]
            if i == wanted[-1]:
                held.clear()
            return contrib
        return hand_out

    return [(operands[i], pull(i)) for i in wanted]


def _attend(q, k, v):
    """softmax(q kᵀ / √C) v of one (T, C) block and its P, one T×T buffer."""
    p = q @ k.T
    p *= 1.0 / np.sqrt(q.shape[-1])
    p -= np.max(p, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= np.sum(p, axis=-1, keepdims=True)
    return p @ v, p


def _attend_adjoint(q, k, v, out, g):
    """dq, dk, dv of one (T, C) block; its P, rebuilt from q and k, and dS
    are freed on return, so the adjoint holds two T×T arrays at most."""
    p = _attend(q, k, v)[1]
    gs = g * (1.0 / np.sqrt(q.shape[-1]))
    ds = gs @ v.T
    ds -= np.sum(gs * out, axis=-1, keepdims=True)
    ds *= p
    return ds @ k, ds.T @ q, p.T @ g


def attention(q, k, v):
    """softmax(q kᵀ / √C) v over (..., T, C) stacks, recorded as one node.

    Forward and adjoint run one (T, C) block at a time with the composite's
    arithmetic, and the node keeps no T×T array: the adjoint rebuilds each
    block's P from q and k. With g = dL/d(out), the score adjoint is
    dS = P ⊙ (g vᵀ − rowsum(g ⊙ out)) / √C, as rowsum(g ⊙ out) equals
    rowsum((g vᵀ) ⊙ P); dq = dS k, dk = dSᵀ q and dv = Pᵀ g.
    """
    qv, kv, vv = val(q), val(k), val(v)
    if np.ndim(qv) < 2 or np.shape(qv) != np.shape(kv) or np.shape(kv)[:-1] != np.shape(vv)[:-1]:
        raise ShapeError(
            f"attention expects q, k of one shape (..., T, C) and v of (..., T, Cv), "
            f"got {np.shape(qv)}, {np.shape(kv)}, {np.shape(vv)}"
        )

    def blocks(*arrays):  # zip of the (T, C) blocks of each array
        return zip(*(np.reshape(a, (-1,) + np.shape(a)[-2:]) for a in arrays))

    out = np.reshape([_attend(*b)[0] for b in blocks(qv, kv, vv)],
                     np.shape(qv)[:-1] + np.shape(vv)[-1:])

    def grads(g):
        per_block = zip(*(_attend_adjoint(*b) for b in blocks(qv, kv, vv, out, g)))
        return [np.reshape(d, np.shape(a)) for d, a in zip(per_block, (qv, kv, vv))]

    return _node(out, "attention", *_joint_pulls((q, k, v), grads))


def normalize(x, axes, eps):
    """Standardize `x` over `axes`, recorded as one node.

    Returns (x̂, μ, var): x̂ = (x − μ) / σ with σ = sqrt(var + eps), μ and
    var the (biased) mean and variance as plain arrays of the reduced shape
    with kept dimensions. The forward is the arithmetic of the composite
    form; the adjoint is (g − mean(g) − x̂ · mean(g ⊙ x̂)) / σ, means over
    `axes`.
    """
    xv = val(x)
    axes = _normalize_axes(axes, np.ndim(xv))
    inv_n = 1.0 / float(np.prod([xv.shape[a] for a in axes]))
    mu = np.sum(xv, axis=axes, keepdims=True) * inv_n
    out = xv - mu
    var = np.sum(out * out, axis=axes, keepdims=True) * inv_n
    sigma = np.sqrt(var + eps)
    out /= sigma

    def pull(g):
        mean_g = np.sum(g, axis=axes, keepdims=True) * inv_n
        mean_gx = np.sum(g * out, axis=axes, keepdims=True) * inv_n
        return (g - mean_g - out * mean_gx) / sigma

    return _node(out, "normalize", (x, pull)), mu, var


def log_softmax(x, axis=-1):
    shift = np.max(val(x), axis=axis, keepdims=True)
    centered = sub(x, shift)
    return sub(centered, log(sum(exp(centered), axis=axis, keepdims=True)))


# ---------------------------------------------------------------------------
# finite-difference oracle


@dataclass
class FiniteDiffReport:
    """Outcome of comparing tape gradients against central differences.

    `flagged` lists flat indices whose relative error exceeded the tolerance;
    at a kink or clip boundary the two estimates legitimately disagree, and
    those coordinates show up here.
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
    untaped evaluations. Relative error per coordinate is
    |a - n| / max(|a|, |n|, 1).
    """
    point = np.asarray(point, dtype=np.float64)
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
