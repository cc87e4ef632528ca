"""Tape, primitive ops, and the finite-difference oracle."""

import inspect
import itertools
import tracemalloc

import numpy as np
import pytest

from gyroshot import autodiff as ad
from gyroshot.autodiff import Tape, backward, finite_diff_check, val
from gyroshot.errors import ConfigError, ShapeError, TapeError
from gyroshot.geometry import (BallConfig, einstein_midpoint, flat_distance, geodesic_distance,
                               log_map)
from gyroshot.metrics import adaptive_combine, pairwise_matrix, s2s_learned
from gyroshot.netmods import (Encoder, ModelConfig, RelationGenerator, S2SNetwork,
                              SignatureGenerator, batch_norm, dropout, feed_forward, layer_norm,
                              project_support, relation_scores)

import _refops as ref


def _activated(x, act):
    """act(x) of a 1-D x as the model records it, the hidden activation of
    a fused mlp node: x @ I and act(x) @ I are exact, so the value is act(x)
    bit for bit."""
    n = np.shape(val(x))[-1]
    eye = np.eye(n)
    return ad.reshape(ad.mlp(ad.reshape(x, (1, n)), eye, None, eye, None, act=(act, None)), (n,))


def test_hand_worked_gradient():
    # f(a, b) = (a*b + a)^2 at a=3, b=2 -> f=81, df/da=2*9*(b+1)=54, df/db=2*9*a=54
    tape = Tape()
    a = tape.var(3.0)
    b = tape.var(2.0)
    u = ad.add(ad.mul(a, b), a)
    f = ad.mul(u, u)
    backward(f)
    assert float(val(f)) == 81.0
    assert float(a.grad) == 54.0
    assert float(b.grad) == 54.0


def test_gradient_accumulates_on_reuse():
    # y = x*x + x uses x twice: dy/dx = 2x + 1
    tape = Tape()
    x = tape.var(4.0)
    y = ad.add(ad.mul(x, x), x)
    backward(y)
    assert float(x.grad) == 9.0


def test_reverse_order_is_topological_and_deterministic():
    def build():
        tape = Tape()
        x = tape.var(np.array([0.3, -0.2, 0.9]))
        y = ad.sum(ad.div(_activated(ad.mul(x, 2.0), "tanh"), ad.add(ref.exp(ad.mul(-1.0, x)), 1.0)))
        backward(y)
        return x.grad.copy()

    g1, g2 = build(), build()
    assert np.array_equal(g1, g2)


def test_backward_requires_scalar_root():
    tape = Tape()
    x = tape.var(np.ones(3))
    y = ad.mul(x, 2.0)
    with pytest.raises(TapeError):
        backward(y)


#: op name -> (operand shape, call with both operands); every op that
#: takes more than one operand that may be a Var
_MULTI_OPERAND = {
    "add": ((2, 2), ad.add),
    "mul": ((2, 2), ad.mul),
    "div": ((2, 2), ad.div),
    "linear": ((2, 2), lambda a, b: ad.linear(a, a, b)),
    "mlp": ((2, 2), lambda a, b: ad.mlp(a, a, a, a, b)),
    "feed_forward": ((2, 2), lambda a, b: feed_forward(a, b, None, b, None, b)),
    "self_attention": ((2, 2), lambda a, b: ad.self_attention(a, a, a, a, a, a, a, b)),
    "normalize": ((2, 2), lambda a, b: ad.normalize(a, -1, 1e-5, b)[0]),
    "geodesic_distance": ((2, 2), lambda a, b: geodesic_distance(a, b, BallConfig(c=1.0))),
    "flat_distance": ((2, 2), flat_distance),
    "log_map": ((2, 2), lambda a, b: log_map(a, b, BallConfig(c=1.0))),
    "relation_scores": ((1, 4, 2), lambda a, b: relation_scores(
        a, ad.reshape(b, (4, 2)), RelationGenerator(_NET_CFG, np.random.default_rng(9)))),
}


@pytest.mark.parametrize("op", sorted(_MULTI_OPERAND))
def test_mixed_tapes_rejected(op):
    shape, fn = _MULTI_OPERAND[op]
    a = Tape().var(np.full(shape, 0.1))
    b = Tape().var(np.full(shape, 0.2))
    with pytest.raises(TapeError):
        fn(a, b)


_X = np.array([[0.2, 0.5], [0.3, 0.1]])
#: an inverted-dropout mask for _X's shape, p = 0.5
_KEEP = np.array([[2.0, 0.0], [2.0, 2.0]])
#: the activation epilogues of mlp and normalize, which the table covers
#: under their own names
_EPILOGUES = {"tanh", "relu"}

#: public op name -> call on constant operands only
_CONSTANT_CALLS = {
    "add": lambda: ad.add(_X, _X),
    "mul": lambda: ad.mul(2.0, _X),
    "div": lambda: ad.div(_X, _X),
    "tanh": lambda: ad.mlp(_X, _X, _X[0], _X, None, act=("tanh", None)),
    "relu": lambda: ad.normalize(_X - 0.25, -1, 1e-5, _X[0], act="relu", keep=_KEEP,
                                 stats=(_X[1], _X[0]))[0],
    "sum": lambda: ad.sum(_X, axis=0),
    "mean": lambda: ad.mean(_X, axis=-1),
    "reshape": lambda: ad.reshape(_X, (4,)),
    "linear": lambda: ad.linear(_X, _X, _X[0]),
    "mlp": lambda: ad.mlp(_X, _X, _X[0], _X, _X[1], act=("tanh", "relu"), scale=0.5),
    "cross_entropy": lambda: ad.cross_entropy(_X, [1, 0], -1.0),
    "self_attention": lambda: ad.self_attention(_X, _X, _X[0], _X, _X, _X[1], _X, _X[0]),
    "normalize": lambda: ad.normalize(_X, -1, 1e-5, _X[0], _X[1])[0],
    "geodesic_distance": lambda: geodesic_distance(_X, _X[::-1], BallConfig(c=1.0)),
    "flat_distance": lambda: flat_distance(_X, _X[::-1]),
    "log_map": lambda: log_map(_X, _X[::-1], BallConfig(c=1.0)),
    "relation_scores": lambda: relation_scores(
        np.full((1, 4, 2), 0.3), np.full((4, 2), 0.1),
        RelationGenerator(_NET_CFG, np.random.default_rng(9)), train=True,
        rng=np.random.default_rng(0)),
    "feed_forward": lambda: feed_forward(_X, _X, _X[0], _X, _X[1], _X[0]),
}


@pytest.mark.parametrize("op", sorted(_CONSTANT_CALLS))
def test_constants_pass_through_untaped(op, monkeypatch):
    def no_record(*args, **kwargs):
        raise AssertionError("a node was recorded")

    monkeypatch.setattr(ad, "record", no_record)
    assert isinstance(_CONSTANT_CALLS[op](), np.ndarray)


def test_contract_tables_cover_every_public_op():
    public = {
        name for name, f in vars(ad).items()
        if inspect.isfunction(f) and f.__module__ == ad.__name__ and not name.startswith("_")
    }
    not_ops = {"val", "record", "backward", "finite_diff_check"}
    elsewhere = {"geodesic_distance", "flat_distance", "log_map", "relation_scores",
                 "feed_forward"}
    assert public - not_ops == set(_CONSTANT_CALLS) - elsewhere - _EPILOGUES


def test_broadcast_gradients_have_operand_shapes():
    tape = Tape()
    x = tape.var(np.ones((2, 3)))
    w = tape.var(np.arange(3.0))
    y = ad.sum(ad.add(ad.mul(x, w), w))
    backward(y)
    assert x.grad.shape == (2, 3)
    assert w.grad.shape == (3,)
    # w broadcasts over 2 rows in the product and again in the addition
    assert np.array_equal(w.grad, np.array([4.0, 4.0, 4.0]))
    assert np.array_equal(x.grad, np.broadcast_to(np.arange(3.0), (2, 3)))


@pytest.mark.parametrize(
    "name,fn,low,high",
    [
        ("tanh", lambda x: ad.sum(_activated(x, "tanh")), -2.0, 2.0),
        ("relu", lambda x: ad.sum(_activated(x, "relu")), 0.1, 2.0),
        ("mean", lambda x: ad.mean(ad.mul(x, x)), -2.0, 2.0),
        ("softmax", lambda x: ad.sum(ref.square(ref.softmax(x, axis=-1))), -2.0, 2.0),
        ("softmax_axis0",
         lambda x: ad.sum(ad.mul(ref.softmax(x, axis=0), np.arange(8.0).reshape(2, 4))),
         -2.0, 2.0),
        ("cross_entropy", lambda x: ad.mul(ad.cross_entropy(x, [3, 0], -1.7), 0.3), -2.0, 2.0),
        ("div", lambda x: ad.sum(ad.div(x, ad.add(x, 2.0))), -1.0, 1.0),
        ("reshape",
         lambda x: ad.sum(ad.mul(ref.square(ad.reshape(x, (2, 3))), np.arange(6.0).reshape(2, 3))),
         -1.0, 1.0),
    ],
)
def test_primitive_gradients_match_finite_differences(name, fn, low, high):
    rng = np.random.default_rng(sum(name.encode()))
    shape = (2, 4) if name in ("softmax", "softmax_axis0", "cross_entropy") else (6,)
    point = rng.uniform(low, high, shape)
    report = finite_diff_check(fn, point)
    assert report.passed, f"{name}: max rel err {report.max_rel_error} flagged {report.flagged}"


def test_linear_gradients_and_broadcasting():
    """x of shape (2, 3, 4) against w (4, 5) and b (5,): the pulls of w and
    b sum over the leading axes they broadcast across."""
    rng = np.random.default_rng(0)
    args = (rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5))
    for wrt, name in enumerate("xwb"):
        def f(t):
            return ad.sum(ref.square(ad.linear(*(t if i == wrt else a for i, a in enumerate(args)))))

        report = finite_diff_check(f, args[wrt].copy())
        assert report.passed, f"{name}: max rel err {report.max_rel_error}"
    with pytest.raises(ShapeError):
        ad.linear(np.ones(3), np.ones((3, 2)))


def test_conv2d_matches_loop_oracle():
    """The relation net's convolution, `ad._conv`."""
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 4, 5, 3))
    k = rng.normal(size=(2, 3, 3, 4))
    out = ad._conv(x, k)
    expect = np.zeros((2, 3, 3, 4))
    for b in range(2):
        for i in range(3):
            for j in range(3):
                for co in range(4):
                    acc = 0.0
                    for di in range(2):
                        for dj in range(3):
                            for ci in range(3):
                                acc += x[b, i + di, j + dj, ci] * k[di, dj, ci, co]
                    expect[b, i, j, co] = acc
    assert np.allclose(out, expect, atol=1e-12)


def test_conv2d_gradients_match_finite_differences():
    """`ad._conv_adjoint`, through the taped reference conv."""
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(2, 3, 3, 2))
    k0 = rng.normal(size=(2, 2, 2, 3))
    assert finite_diff_check(lambda x: ad.sum(ref.square(ref.conv2d(x, k0))), x0).passed
    assert finite_diff_check(lambda k: ad.sum(ref.square(ref.conv2d(x0, k))), k0).passed


def test_conv2d_leading_axes_are_batch_axes():
    rng = np.random.default_rng(13)
    x0 = rng.normal(size=(2, 3, 3, 4, 2))
    k0 = rng.normal(size=(2, 3, 2, 3))
    w = rng.normal(size=(2, 3, 2, 2, 3))
    out = ad._conv(x0, k0)
    np.testing.assert_allclose(out.reshape(6, 2, 2, 3), ad._conv(x0.reshape(6, 3, 4, 2), k0),
                               rtol=0, atol=1e-15)
    assert finite_diff_check(lambda x: ad.sum(ad.mul(ref.conv2d(x, k0), w)), x0).passed
    assert finite_diff_check(lambda k: ad.sum(ad.mul(ref.conv2d(x0, k), w)), k0).passed


def test_softmax_rows_sum_to_one():
    """The relation net's softmax, `ad._softmax`."""
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 7)) * 50.0  # large logits: max-shift keeps exp finite
    s = ad._softmax(x, axis=-1)
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(s >= 0.0)


def test_finite_diff_report_flags_kink():
    # relu has no two-sided derivative at 0: central difference sees 0.5, tape says 0
    report = finite_diff_check(lambda x: ad.sum(_activated(x, "relu")), np.zeros(1), tol=1e-4)
    assert not report.passed
    assert report.flagged == [0]


def test_finite_diff_requires_var_result():
    with pytest.raises(TapeError):
        finite_diff_check(lambda x: float(np.sum(val(x))), np.ones(2))


def test_finite_diff_steps_a_non_contiguous_point():
    """A transposed point, whose ravel() is a copy, is stepped through a
    private C-ordered copy, so every step reaches f."""
    point = np.arange(6.0).reshape(2, 3).T
    report = finite_diff_check(lambda x: ad.sum(ad.mul(x, x)), point)
    assert report.passed, report.max_rel_error
    np.testing.assert_allclose(report.numeric, 2.0 * point, rtol=1e-8, atol=1e-6)


def test_finite_diff_leaves_the_point_unchanged_when_f_raises():
    """An f that raises between the +step and the -step evaluation of a
    coordinate leaves the caller's array as it was."""
    point = np.full(3, 0.5)
    calls = []

    def f(x):
        calls.append(x)
        if len(calls) == 3:  # taped call, +step call, then the -step call
            raise RuntimeError("f failed")
        return ad.sum(ad.mul(x, x))

    with pytest.raises(RuntimeError, match="f failed"):
        finite_diff_check(f, point)
    assert np.array_equal(point, np.full(3, 0.5))


# ---------------------------------------------------------------------------
# the lazy backward sweep


def test_gradient_contribution_of_wrong_shape_names_the_op():
    tape = Tape()
    x = tape.var(np.ones(3))
    y = ad.record(2.0 * x.value, ((x,), lambda g: (np.sum(g),)), tape, "badpull")
    with pytest.raises(TapeError, match="badpull"):
        backward(ad.sum(y))
    tape = Tape()
    x = tape.var(np.ones(3))
    y = ad.record(2.0 * x.value, ((x,), lambda g: (g[None, :],)), tape, "badpull")
    with pytest.raises(TapeError, match=r"badpull.*\(1, 3\)"):
        backward(ad.sum(y))


def test_leaf_gradients_own_writable_memory_of_the_leaf_shape():
    tape = Tape()
    viewed = tape.var(np.arange(6.0))        # reached only through a reshape view
    summed = tape.var(np.ones((2, 3)))       # reached only through sum's broadcast view
    shared = tape.var(np.ones((2, 3)))       # an add hands both operands one array
    unused = tape.var(np.ones(4))
    y = ad.add(ad.reshape(viewed, (2, 3)), shared)
    loss = ad.add(ad.sum(ad.mul(y, 3.0)), ad.sum(summed))
    backward(loss)
    for leaf, expect in ((viewed, 3.0), (summed, 1.0), (shared, 3.0), (unused, 0.0)):
        assert leaf.grad.shape == leaf.value.shape
        assert leaf.grad.flags.owndata and leaf.grad.flags.writeable
        assert leaf.grad.flags.c_contiguous
        assert np.array_equal(leaf.grad, np.full(leaf.value.shape, expect))


def test_unreached_nodes_run_no_adjoint_and_end_with_zero_gradients():
    def never(g):
        raise AssertionError("adjoint of an unreached node ran")

    tape = Tape()
    x = tape.var(np.array([1.0, 2.0]))
    side = ad.record(x.value * 5.0, ((x,), never), tape, "side")
    loss = ad.sum(ad.mul(x, x))
    after = ad.record(np.ones(2), ((loss,), never), tape, "after")
    backward(loss)
    assert np.array_equal(x.grad, [2.0, 4.0])
    for node in (side, after):
        assert isinstance(node.grad, np.ndarray)
        assert np.array_equal(node.grad, np.zeros(2))
    assert all(isinstance(n.grad, np.ndarray) and n.grad.shape == n.value.shape
               for n in tape.nodes)


def test_repeated_backward_recomputes_instead_of_accumulating():
    tape = Tape()
    x = tape.var(np.array([0.5, -1.0, 2.0]))
    y = ad.sum(ad.add(ad.mul(_activated(x, "tanh"), x), x))
    backward(y)
    first = x.grad.copy()
    backward(y)
    assert np.array_equal(x.grad, first)


# ---------------------------------------------------------------------------
# fused attention and normalization


def _attention_inputs(seed=5):
    """x of shape (2, 4, 3) and wq, bq, wk, wv, bv, wo, bo of a 3-wide
    self-attention sublayer. x's first channel reaches neither k nor v, and
    k's first channel is x's second, so x[0, 1, 0] = 400 saturates query
    row (0, 1): each of its scores is more than 745 below the row's largest,
    so the shifted exp underflows to exactly 0 everywhere but there."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 4, 3))
    wq, wk, wv, wo = (rng.normal(size=(3, 3)) for _ in range(4))
    bq, bv, bo = (rng.normal(size=3) for _ in range(3))
    wk[0] = wv[0] = 0.0
    wq[0], wk[1], wk[2, 0] = [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0.0
    x[0, :, 1] = [-2.0, -1.0, 3.0, -1.5]
    x[0, 1, 0] = 400.0
    return x, wq, bq, wk, wv, bv, wo, bo


def _composite_attention(q, k, v):
    """The unfused forward: scaled scores, shifted exp, row sums, product."""
    s = (q @ np.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(q.shape[-1]))
    e = np.exp(s - np.max(s, axis=-1, keepdims=True))
    return (e / np.sum(e, axis=-1, keepdims=True)) @ v


def _composite_sublayer(x, wq, bq, wk, wv, bv, wo, bo):
    """The unfused sublayer on arrays: projections, attention, output layer
    and residual."""
    q, k, v = x @ wq + bq, x @ wk, x @ wv + bv
    return x + (_composite_attention(q, k, v) @ wo + bo)


def _blocks(*arrays):
    return zip(*(np.reshape(a, (-1,) + np.shape(a)[-2:]) for a in arrays))


def _attention_node(q, k, v):
    """softmax(q kᵀ / √C) v as the one node the unfused sublayer recorded:
    the value one (T, C) block at a time through `ad._attend`, and an
    adjoint that rebuilds each block's P and forms dS = P ⊙ (g vᵀ −
    rowsum(g ⊙ out)) / √C, dq = dS k, dk = dSᵀ q and dv = Pᵀ g."""
    qv, kv, vv = val(q), val(k), val(v)
    out = np.reshape([ad._attend(*b)[0] for b in _blocks(qv, kv, vv)],
                     np.shape(qv)[:-1] + np.shape(vv)[-1:])

    def block_adjoint(q, k, v, out, g):
        p = ad._attend(q, k, v)[1]
        gs = g * (1.0 / np.sqrt(q.shape[-1]))
        ds = gs @ v.T
        ds -= np.sum(gs * out, axis=-1, keepdims=True)
        ds *= p
        return ds @ k, ds.T @ q, p.T @ g

    def adjoint(g):
        per_block = zip(*(block_adjoint(*b) for b in _blocks(qv, kv, vv, out, g)))
        return [np.reshape(d, np.shape(a)) for d, a in zip(per_block, (qv, kv, vv))]

    return ad._node(out, "attention", (q, k, v), adjoint)


def _taped_sublayer(x, wq, bq, wk, wv, bv, wo, bo):
    """The sublayer as six nodes: three linears, the attention node, the
    output linear and the residual add; x feeds four of them."""
    att = _attention_node(ad.linear(x, wq, bq), ad.linear(x, wk), ad.linear(x, wv, bv))
    return ad.add(x, ad.linear(att, wo, bo))


def test_attention_test_inputs_saturate_one_row():
    x, wq, bq, wk, *_ = _attention_inputs()
    q, k = x @ wq + bq, x @ wk
    s = (q[0, 1] @ k[0].T) / np.sqrt(3.0)
    gaps = np.delete(s.max() - s, np.argmax(s))
    assert np.all(gaps > 745.0) and np.all(np.exp(-gaps) == 0.0)


#: gradient group -> indices into self_attention's operands: the input and
#: each projection with its bias
_ATTENTION_GROUPS = {"x": (0,), "q": (1, 2), "k": (3,), "v": (4, 5), "o": (6, 7)}


@pytest.mark.parametrize("wrt", list(_ATTENTION_GROUPS))
def test_attention_gradients_match_finite_differences(wrt):
    """With x and each weight and bias of the sublayer taped in turn, the
    saturated row included."""
    args = _attention_inputs()
    w = np.random.default_rng(6).normal(size=(2, 4, 3))
    for i in _ATTENTION_GROUPS[wrt]:
        def f(t):
            out = ad.self_attention(*(t if j == i else a for j, a in enumerate(args)))
            return ad.sum(ad.mul(out, w))

        with np.errstate(over="raise", divide="raise", invalid="raise"):
            report = finite_diff_check(f, args[i].copy())
        assert report.passed, f"{i}: max rel err {report.max_rel_error} flagged {report.flagged}"
        assert np.all(np.isfinite(report.analytic))


@pytest.mark.parametrize("axes,shape", [(-1, (3, 5)), ((0, 1), (4, 3, 2))],
                         ids=["last_axis", "leading_axes"])
def test_normalize_gradients_match_finite_differences(axes, shape):
    """With each of x, γ and β taped in turn."""
    rng = np.random.default_rng(7)
    args = (rng.normal(size=shape) * 2.0 + 1.0, rng.normal(size=shape[-1:]),
            rng.normal(size=shape[-1:]))
    w = rng.normal(size=shape)
    for wrt, name in enumerate(("x", "gamma", "beta")):
        def f(t):
            x, gamma, beta = (t if i == wrt else a for i, a in enumerate(args))
            return ad.sum(ad.mul(ad.normalize(x, axes, 1e-5, gamma, beta)[0], w))

        report = finite_diff_check(f, args[wrt].copy())
        assert report.passed, f"{name}: max rel err {report.max_rel_error} flagged {report.flagged}"


def test_untaped_attention_equals_composite_bit_for_bit():
    args = _attention_inputs()
    np.testing.assert_array_equal(ad.self_attention(*args), _composite_sublayer(*args))


def _sublayer_args(rng, shape, width=5):
    """x of `shape` (..., T, C) and sublayer weights with q and k of width
    C + 1, v of `width`."""
    c = shape[-1]
    return (rng.normal(size=shape), rng.normal(size=(c, c + 1)), rng.normal(size=c + 1),
            rng.normal(size=(c, c + 1)), rng.normal(size=(c, width)), rng.normal(size=width),
            rng.normal(size=(width, c)), rng.normal(size=c))


@pytest.mark.parametrize("shape", [(4, 3), (2, 3, 4, 3)], ids=["one_block", "two_leading_axes"])
def test_untaped_attention_blocks_equal_the_taped_stack_bit_for_bit(shape):
    """Taped or not, P is formed one T×T block at a time, and the stacked
    output equals the composite's batched arithmetic."""
    x, *weights = _sublayer_args(np.random.default_rng(10), shape)
    taped = ad.self_attention(Tape().var(x), *weights).value
    np.testing.assert_array_equal(taped, _composite_sublayer(x, *weights))
    np.testing.assert_array_equal(ad.self_attention(x, *weights), taped)


def test_untaped_attention_never_holds_the_whole_score_stack():
    """T = 128 keeps the projections, which the sublayer forms itself,
    small beside one T×T block."""
    args = _sublayer_args(np.random.default_rng(11), (8, 128, 4), width=4)
    stack_bytes = 8 * 128 * 128 * 8
    tracemalloc.start()
    try:
        ad.self_attention(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes / 2


def test_taped_attention_and_its_backward_never_hold_the_whole_score_stack():
    """The adjoint recomputes q, k and v and rebuilds P block by block, so a
    taped forward and backward hold at most two T×T blocks at once. Sixteen
    blocks and C = 2 keep the O(T·C) arrays (projections, output,
    gradients) small beside one block."""
    rng = np.random.default_rng(12)
    tape = Tape()
    args = [tape.var(a) for a in _sublayer_args(rng, (16, 128, 2), width=2)]
    w = rng.normal(size=(16, 128, 2))
    stack_bytes = 16 * 128 * 128 * 8
    tracemalloc.start()
    try:
        backward(ad.sum(ad.mul(ad.self_attention(*args), w)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes / 2


def test_normalize_returns_batch_statistics():
    r = np.random.default_rng(8)
    x, gamma, beta = r.normal(size=(6, 3)), r.normal(size=3), r.normal(size=3)
    out, mu, var = ad.normalize(x, (0,), 1e-5, gamma, beta)
    np.testing.assert_allclose(mu, x.mean(axis=0, keepdims=True), rtol=1e-14)
    np.testing.assert_allclose(var, x.var(axis=0, keepdims=True), rtol=1e-14)
    np.testing.assert_array_equal(out, gamma * ((x - mu) / np.sqrt(var + 1e-5)) + beta)


def test_attention_rejects_mismatched_shapes():
    x, *weights = _sublayer_args(np.random.default_rng(16), (4, 3))
    bad = (
        (np.ones((4, 2)), *weights),                                  # x's width
        (np.ones(3), *weights),                                       # x below 2-D
        (x, weights[0], weights[1], np.ones((3, 3)), *weights[3:]),   # wk unlike wq
        (x, *weights[:5], np.ones((4, 3)), weights[6]),               # wo against wv
        (x, *weights[:5], np.ones((5, 2)), weights[6]),               # wo's output width
    )
    for args in bad:
        with pytest.raises(ShapeError):
            ad.self_attention(*args)


def test_mlp_rejects_operands_below_two_dimensions():
    w = np.ones((3, 3))
    for args in ((np.ones(3), w, None, w, None), (np.ones((2, 3)), np.ones(3), None, w, None),
                 (np.ones((2, 3)), w, None, np.ones(3), None)):
        with pytest.raises(ShapeError):
            ad.mlp(*args)


def test_a_constant_input_gets_no_contribution(monkeypatch):
    """linear and mlp on a constant x, as the encoder's first layer reads
    its data, return None as x's contribution, so g @ wᵀ is never formed;
    every taped operand gets its own."""
    adjoints, record = [], ad.record

    def capturing(value, pulls, tape, op="op"):
        adjoints.append(pulls[1])
        return record(value, pulls, tape, op)

    monkeypatch.setattr(ad, "record", capturing)
    rng = np.random.default_rng(17)
    x, b = rng.normal(size=(2, 4, 3)), rng.normal(size=3)
    w = Tape().var(rng.normal(size=(3, 3)))
    outs = [ad.linear(x, w, b), ad.mlp(x, w, b, w, b, act=("tanh", None))]
    for adjoint, out in zip(adjoints, outs, strict=True):
        first, *rest = adjoint(np.ones_like(out.value))
        assert first is None and all(isinstance(c, np.ndarray) for c in rest)


def _log_softmax(x):
    """Taped log-softmax along the last axis for the reference composite:
    the one node the episode loss took for it before the whole loss was
    fused."""
    xv = val(x)
    centered = xv - np.max(xv, axis=-1, keepdims=True)
    e = np.exp(centered)
    s = np.sum(e, axis=-1, keepdims=True)
    return ad._node(centered - np.log(s), "log_softmax", (x,),
                    lambda g: (g + (np.sum(-g, axis=-1, keepdims=True) / s) * e,))


def _composite_cross_entropy(x, labels, scale):
    """The 5-op episode loss: scale, log-softmax, one-hot pick, sum, -1/n."""
    onehot = np.eye(np.shape(val(x))[-1])[labels]
    return ad.mul(ad.sum(ad.mul(_log_softmax(ad.mul(x, scale)), onehot)), -1.0 / len(labels))


@pytest.mark.parametrize("temperature", (1.0, 0.3, 2.0))
def test_fused_cross_entropy_equals_the_composite_bit_for_bit(temperature):
    """One node whose value, taped and untaped, and whose gradient equal the
    5-op composite's bits, on (NQ, N) = (15, 5) distances like a default
    episode's, with the loss as the root and scaled by 0.37 before it."""
    labels = np.repeat(np.arange(5), 3)
    scale = -1.0 / temperature
    for seed, root_scale in itertools.product(range(4), (1.0, 0.37)):
        d0 = np.random.default_rng(seed).uniform(0.0, 6.0, size=(15, 5))
        runs = []
        for loss_fn in (ad.cross_entropy, _composite_cross_entropy):
            tape = Tape()
            d = tape.var(d0)
            loss = loss_fn(d, labels, scale)
            runs.append((len(tape) - 1, loss.value, d))
            backward(loss if root_scale == 1.0 else ad.mul(loss, root_scale))
        (nodes, value, d), (ref_nodes, ref_value, ref_d) = runs
        assert (nodes, ref_nodes) == (1, 5)
        np.testing.assert_array_equal(value, ref_value)
        np.testing.assert_array_equal(ad.cross_entropy(d0, labels, scale), ref_value)
        np.testing.assert_array_equal(d.grad, ref_d.grad)


def _fused_tape():
    """Every fused op and epilogue on one tape: the self-attention
    sublayer; a relu perceptron; relu with a dropout mask after a
    normalize; the feed-forward sublayer; a normalize over running
    statistics; a tanh perceptron with an output scale; the relation net
    in train mode, with a dropout mask, on a fresh net each call."""
    tape = Tape()
    sublayer = [tape.var(a) for a in _attention_inputs()]
    gamma, beta, w, b = (tape.var(a) for a in _affine_params())
    net = RelationGenerator(_NET_CFG, np.random.default_rng(9))
    relation = {k: tape.var(v) for k, v in net.params.items()}
    keep, mean, var = _epilogue_inputs()
    h = ad.normalize(ad.self_attention(*sublayer), -1, 1e-5, gamma, beta)[0]
    y = ad.normalize(ad.mlp(h, w, b, w, b, act=("relu", None)), (0, 1), 1e-5, gamma,
                     act="relu", keep=keep)[0]
    s = ad.normalize(feed_forward(h, w, b, w, b, gamma), (0, 1), 1e-5, gamma, beta,
                     stats=(mean, var))[0]
    maps = ad.reshape(y, (1, 3, 4, 2))
    r = relation_scores(maps, ad.mean(maps, axis=-3), net, train=True,
                        rng=np.random.default_rng(3), params=relation)
    # every pair of rows, both operands taped, well inside the c = 0.7 ball
    d = geodesic_distance(
        ad.reshape(ad.mlp(y, w, None, w, b, act=("tanh", "tanh"), scale=0.3), (2, 4, 1, 3)),
        ad.reshape(ad.mlp(s, w, b, w, None, act=("relu", "tanh"), scale=0.3), (2, 1, 4, 3)),
        BallConfig(c=0.7))
    rng = np.random.default_rng(9)
    losses = [ad.add(ad.add(ad.sum(ad.mul(y, rng.normal(size=(2, 4, 3)))),
                            ad.sum(ad.mul(d, rng.normal(size=(2, 4, 4))))),
                     ad.sum(ad.mul(r, rng.normal(size=(1, 3)))))
              for _ in range(2)]
    return (*sublayer, gamma, beta, w, b, *relation.values()), losses


def _affine_params():
    """γ and β of a 3-wide normalization, w and b of a 3 → 3 linear."""
    rng = np.random.default_rng(14)
    return rng.normal(size=3), rng.normal(size=3), rng.normal(size=(3, 3)), rng.normal(size=3)


def _epilogue_inputs():
    """An inverted-dropout mask (p = 0.5) for a (2, 4, 3) value, and the
    running mean and variance of a 3-wide normalization."""
    rng = np.random.default_rng(15)
    return ((rng.random((2, 4, 3)) >= 0.5) / 0.5, rng.normal(size=3),
            rng.uniform(0.5, 2.0, size=3))


def test_fused_ops_keep_nothing_between_backward_calls():
    """A second sweep, from another root on the same tape, gives the
    gradients a fresh tape gives: no adjoint reuses what an earlier call
    computed."""
    leaves, (first, second) = _fused_tape()
    backward(first)
    grads_first = [x.grad.copy() for x in leaves]
    backward(second)
    fresh_leaves, (_, fresh_second) = _fused_tape()
    backward(fresh_second)
    for x, fresh in zip(leaves, fresh_leaves):
        np.testing.assert_array_equal(x.grad, fresh.grad)
    backward(first)
    for x, g in zip(leaves, grads_first):
        np.testing.assert_array_equal(x.grad, g)


def test_fused_ops_do_not_write_through_their_inputs():
    sublayer, affine, epilogue = _attention_inputs(), _affine_params(), _epilogue_inputs()
    case = _epilogue_case(0)
    net = RelationGenerator(_NET_CFG, np.random.default_rng(9))
    arrays = sublayer + affine + epilogue + (case["maps"], case["sig"], *net.params.values())
    saved = [a.copy() for a in arrays]
    x = sublayer[0]
    gamma, beta, w, b = affine
    keep, mean, var = epilogue
    ad.self_attention(*sublayer)
    ad.normalize(x, -1, 1e-5, gamma, beta)
    ad.normalize(x, -1, 1e-5, gamma, beta, act="relu", keep=keep, stats=(mean, var))
    ad.linear(x, w, b)
    for act, scale in (((None, None), None), (("tanh", "tanh"), 0.3), (("relu", None), None)):
        ad.mlp(x, w, b, w, b, act=act, scale=scale)
    feed_forward(x, w, b, w, b, gamma)
    relation_scores(case["maps"], case["sig"], net, train=True, rng=np.random.default_rng(3))
    leaves, (loss, _) = _fused_tape()
    values = [x.value.copy() for x in leaves]
    backward(loss)
    for a, s in zip(arrays, saved):
        np.testing.assert_array_equal(a, s)
    for x, s in zip(leaves, values):
        np.testing.assert_array_equal(x.value, s)


# ---------------------------------------------------------------------------
# fused perceptrons and sublayer, activation epilogues, conv bias and
# running statistics


def _masked(x, keep):
    """Taped inverted dropout for the reference composites: x times its
    mask, one node whose adjoint multiplies by the mask."""
    return ad.mul(x, keep)


def _stats_composite(x, gamma, beta, mean, var, eps=1e-5):
    """Batch norm over running statistics as four ops: shift, scale by the
    running σ, γ and β."""
    return ad.add(ad.mul(gamma, ad.div(ref.sub(x, mean), np.sqrt(var + eps))), beta)


def _epilogue_case(seed):
    """Operands of every fused form, and positive weights `p` for
    `adaptive_combine`: w, b, w2 and b2 make a 3 → 4 → 3 perceptron, and
    the self-attention weights have q and k of width 4 and v of width 2,
    and `maps` and `sig` are 4×5 classes of 3 support maps and their
    signatures on a 2×2 grid of 2 channels for `relation_scores` (and
    `refine`), with the six parameters of a 3-filter relation net and
    nontrivial running statistics for it, and `d` 4×5 distance matrices
    of those 2×2 grids for `s2s_learned`.
    The (4, 5, 3) normalize input drops all of its
    channel 0, where γ is positive and the weights of the loss are negative,
    so the relu-and-mask adjoint meets negative adjoints at dropped
    positions."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 5, 3)) * 1.5 + 0.3
    keep = (rng.random((4, 5, 3)) >= 0.5) / 0.5
    keep[..., 0] = 0.0
    weights = rng.normal(size=(4, 5, 3))
    weights[..., 0] = -np.abs(weights[..., 0]) - 0.1
    gamma = rng.normal(size=3)
    gamma[0] = np.abs(gamma[0]) + 0.1
    case = dict(
        x=x, keep=keep, weights=weights,
        w=rng.normal(size=(3, 4)), b=rng.normal(size=4), gamma=gamma,
        beta=rng.normal(size=3), mean=rng.normal(size=3), var=rng.uniform(0.5, 2.0, size=3),
        p=rng.uniform(0.5, 2.0, size=(4, 5, 3)))
    case.update(
        w2=rng.normal(size=(4, 3)), b2=rng.normal(size=3),
        wq=rng.normal(size=(3, 4)), bq=rng.normal(size=4), wk=rng.normal(size=(3, 4)),
        wv=rng.normal(size=(3, 2)), bv=rng.normal(size=2), wo=rng.normal(size=(2, 3)),
        bo=rng.normal(size=3))
    case.update(maps=rng.normal(size=(4, 5, 3, 4, 2)) * 0.3,
                sig=rng.normal(size=(4, 5, 4, 2)) * 0.3)
    case.update(d=rng.uniform(0.0, 2.0, size=(4, 5, 4, 4)))
    case.update(conv1_map_w=rng.normal(size=(2, 2, 2, 3)),
                conv1_sig_w=rng.normal(size=(2, 2, 2, 3)),
                bn1_g=rng.normal(size=3), bn1_b=rng.normal(size=3),
                conv2_w=rng.normal(size=(1, 1, 3, 1)), bn2_g=rng.normal(size=1) * 3.0)
    case.update(relation_buffers=dict(
        bn1_mean=rng.normal(size=3) * 0.5, bn1_var=rng.uniform(0.5, 2.0, size=3),
        bn2_mean=rng.normal(size=1) * 0.5, bn2_var=rng.uniform(0.5, 2.0, size=1)))
    return case


#: the relation net's parameters in the order of its node's operands
_RELATION_PARAMS = ("conv1_map_w", "conv1_sig_w", "bn1_g", "bn1_b", "conv2_w", "bn2_g")


def _taped_relation(maps, sig, net, train, rng, params):
    """The relation net as the nine nodes it recorded before it was one:
    the two reshapes, the signature conv as the map conv's bias, the first
    batch norm with its relu and dropout mask, the second conv, the last
    batch norm, the reshape of the scores and their softmax."""
    p, buf = params, net.buffers
    shape, (h, w), c = np.shape(val(maps)), net.cfg.grid, net.cfg.feat_dim
    x = ref.conv2d(ad.reshape(maps, (-1, shape[-3], h, w, c)), p["conv1_map_w"],
                   ref.conv2d(ad.reshape(sig, (-1, 1, h, w, c)), p["conv1_sig_w"]))
    x = batch_norm(x, p["bn1_g"], p["bn1_b"], buf["bn1_mean"], buf["bn1_var"], train, act="relu",
                   keep=dropout(np.shape(val(x)), 0.5, rng if train else None))
    x = batch_norm(ref.conv2d(x, p["conv2_w"]), p["bn2_g"], None, buf["bn2_mean"],
                   buf["bn2_var"], train)
    return ref.softmax(ad.reshape(x, shape[:-2]), axis=-1)


def _relation_form(run, train):
    """A form over the case's maps, signatures and relation parameters:
    `run` on a fresh relation net, in train mode with one fixed dropout
    draw, or in eval mode on the case's running statistics."""
    def form(c, maps, sig, *weights):
        net = RelationGenerator(_NET_CFG, np.random.default_rng(9))
        if not train:
            net.buffers.update({k: v.copy() for k, v in c["relation_buffers"].items()})
        return run(maps, sig, net, train=train, rng=np.random.default_rng(4) if train else None,
                   params=dict(zip(_RELATION_PARAMS, weights)))

    return form


#: name -> (operand names, fused form, composite form); each form maps the
#: case and the operands, Vars or arrays, to one output
_FUSED_FORMS = {
    # the encoder's perceptron
    "mlp_tanh": (
        ("x", "w", "b", "w2", "b2"),
        lambda c, x, w, b, w2, b2: ad.mlp(x, w, b, w2, b2, act=("tanh", "tanh"), scale=0.3),
        lambda c, x, w, b, w2, b2: ad.mul(ref.tanh(ad.linear(ref.tanh(ad.linear(x, w, b)), w2, b2)),
                                          0.3)),
    # a relu perceptron
    "mlp_relu": (
        ("x", "w", "b", "w2", "b2"),
        lambda c, x, w, b, w2, b2: ad.mlp(x, w, b, w2, b2, act=("relu", None)),
        lambda c, x, w, b, w2, b2: ad.linear(ref.relu(ad.linear(x, w, b)), w2, b2)),
    "self_attention": (("x", "wq", "bq", "wk", "wv", "bv", "wo", "bo"),
                       lambda c, *args: ad.self_attention(*args),
                       lambda c, *args: _taped_sublayer(*args)),
    # the signature's feed-forward sublayer
    "feed_forward": (
        ("x", "w", "b", "w2", "b2", "gamma"),
        lambda c, *args: feed_forward(*args),
        lambda c, x, w, b, w2, b2, g: layer_norm(ad.add(x, ad.mlp(x, w, b, w2, b2,
                                                                  act=("relu", None))), g)),
    "relation_train": (("maps", "sig") + _RELATION_PARAMS, _relation_form(relation_scores, True),
                       _relation_form(_taped_relation, True)),
    "relation_eval": (("maps", "sig") + _RELATION_PARAMS, _relation_form(relation_scores, False),
                      _relation_form(_taped_relation, False)),
    "normalize_relu_keep": (
        ("x", "gamma", "beta"),
        lambda c, x, g, b: ad.normalize(x, (0, 1), 1e-5, g, b, act="relu", keep=c["keep"])[0],
        lambda c, x, g, b: _masked(ref.relu(ad.normalize(x, (0, 1), 1e-5, g, b)[0]), c["keep"])),
    "normalize_stats": (
        ("x", "gamma", "beta"),
        lambda c, x, g, b: ad.normalize(x, (0, 1), 1e-5, g, b, stats=(c["mean"], c["var"]))[0],
        lambda c, x, g, b: _stats_composite(x, g, b, c["mean"], c["var"])),
    "normalize_stats_relu": (
        ("x", "gamma", "beta"),
        lambda c, x, g, b: ad.normalize(x, (0, 1), 1e-5, g, b, act="relu",
                                        stats=(c["mean"], c["var"]))[0],
        lambda c, x, g, b: ref.relu(_stats_composite(x, g, b, c["mean"], c["var"]))),
}


def _assert_same_bits(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes(), what


def _taped_run(form, case, names, taped):
    """Value, node count and the gradients of the taped operands of
    sum(form(...) * weights), the operands in `taped` as Vars."""
    tape = Tape()
    args = [tape.var(case[n]) if n in taped else case[n] for n in names]
    out = form(case, *args)
    if not isinstance(out, ad.Var):
        return out, 0, {}
    n_nodes = len(tape) - len(taped)
    w = case["weights"] if np.shape(out.value) == case["weights"].shape else 0.7
    backward(ad.sum(ad.mul(out, w)))
    return out.value, n_nodes, {n: a.grad for n, a in zip(names, args) if n in taped}


@pytest.mark.parametrize("form", sorted(_FUSED_FORMS))
def test_fused_epilogue_forms_equal_their_composites_bit_for_bit(form):
    """One node whose value, taped and untaped, and whose every operand
    gradient carry the composite's bits, signed zeros included."""
    names, fused, composite = _FUSED_FORMS[form]
    for seed in range(3):
        case = _epilogue_case(seed)
        value, nodes, grads = _taped_run(fused, case, names, set(names))
        ref_value, ref_nodes, ref_grads = _taped_run(composite, case, names, set(names))
        assert nodes == 1 and ref_nodes > 1
        _assert_same_bits(value, ref_value, "value")
        _assert_same_bits(fused(case, *(case[n] for n in names)), ref_value, "untaped value")
        for n in names:
            _assert_same_bits(grads[n], ref_grads[n], n)


def test_dropped_positions_carry_the_sign_of_their_adjoint():
    """The bit-for-bit comparison above sees signed zeros: channel 0 is
    dropped everywhere, its adjoints are negative and its γ positive, so the
    relu-and-mask adjoint hands normalize -0 there, and dx of that channel
    is zero with both signs, in the fused form as in the composite."""
    names, fused, composite = _FUSED_FORMS["normalize_relu_keep"]
    for form in (fused, composite):
        _, _, grads = _taped_run(form, _epilogue_case(0), names, set(names))
        dx0 = grads["x"][..., 0]
        assert np.all(dx0 == 0.0) and 0 < np.sum(np.signbit(dx0)) < dx0.size


@pytest.mark.parametrize("form", sorted(_FUSED_FORMS))
def test_fused_epilogue_gradients_match_finite_differences(form):
    """With each operand taped in turn; no pre-activation lies within a step
    of the relu's kink."""
    names, fused, _ = _FUSED_FORMS[form]
    case = _epilogue_case(5)
    for name in names:
        def f(t):
            out = fused(case, *(t if n == name else case[n] for n in names))
            w = case["weights"] if np.shape(val(out)) == case["weights"].shape else 0.7
            return ad.sum(ad.mul(out, w))

        report = finite_diff_check(f, case[name].copy())
        assert report.passed, f"{name}: max rel err {report.max_rel_error} flagged {report.flagged}"


def test_epilogue_rejects_unknown_activations_and_a_mask_without_relu():
    """linear has no epilogue left; mlp's activations are checked as
    normalize's are."""
    x, w = np.ones((2, 3)), np.ones((3, 3))
    with pytest.raises(TypeError, match="act"):
        ad.linear(x, w, act="tanh")
    for act in (("sigmoid", None), (None, "sigmoid")):
        with pytest.raises(ConfigError, match="sigmoid"):
            ad.mlp(x, w, None, w, None, act=act)
    with pytest.raises(ConfigError, match="dropout mask"):
        ad.normalize(x, -1, 1e-5, np.ones(3), keep=np.ones((2, 3)))


def test_normalize_over_running_statistics_keeps_its_own_copies():
    """A buffer updated in place after the forward (as batch norm's next
    train-mode call does) changes neither the value nor the gradient."""
    case = _epilogue_case(6)
    mean, var = case["mean"].copy(), case["var"].copy()
    tape = Tape()
    x = tape.var(case["x"])
    out, mu, v = ad.normalize(x, (0, 1), 1e-5, case["gamma"], case["beta"], stats=(mean, var))
    np.testing.assert_array_equal(mu, case["mean"])
    np.testing.assert_array_equal(v, case["var"])
    mean += 1.0
    var *= 3.0
    backward(ad.sum(ad.mul(out, case["weights"])))
    np.testing.assert_array_equal(
        x.grad, (case["weights"] * case["gamma"]) / np.sqrt(case["var"] + 1e-5))


# ---------------------------------------------------------------------------
# every array/Var pattern of an op's operands


#: name -> (operands, op); the operands lie inside the c = 0.7 ball where
#: the op needs it. The point-to-set stages take (4, 5, 3) operands: 4×5
#: sets of 3-wide points for pairwise_matrix, 4 maps of 5 support patches
#: against 4×5 query bases for project_support, and 4×5 rows of 3
#: set-to-set values and their weights for adaptive_combine (constant
#: weights are the p2s_uniform path). The network rows draw a fresh module
#: and run it in eval mode: relation_scores scores the case's maps against
#: its signatures, and the encoder, refine and s2s_learned each take their
#: input and one parameter passed through `params`.
_NET_CFG = ModelConfig(in_dim=3, grid=(2, 2), feat_dim=2, enc_hidden=4, relation_filters=3)


def _encoder_row(c, x, w):
    enc = Encoder(_NET_CFG, np.random.default_rng(10))
    return enc(x, BallConfig(c=0.7), params={**enc.params, "w1": w})


def _refine_row(c, maps, bv):
    sg = SignatureGenerator(_NET_CFG, np.random.default_rng(11))
    return sg.refine(maps, params={**sg.params, "bv": bv})


def _s2s_row(c, d, b):
    net = S2SNetwork(_NET_CFG, np.random.default_rng(12))
    return s2s_learned(d, net, params={**net.params, "bn1_g": b})


_CONTRACT = {
    "flat_distance": (("x", "y"), lambda c, x, y: flat_distance(x, y)),
    "geodesic_distance": (("x", "y"), lambda c, x, y: geodesic_distance(x, y, BallConfig(c=0.7))),
    "log_map": (("x", "y"), lambda c, x, y: log_map(x, y, BallConfig(c=0.7))),
    "pairwise_matrix": (("x", "y"), lambda c, x, y: pairwise_matrix(x, y, BallConfig(c=0.7))),
    "project_support": (("x", "y"), lambda c, x, y: project_support(
        ad.reshape(x, (4, 1, 5, 3)), y, BallConfig(c=0.7))),
    "adaptive_combine": (("x", "p"), lambda c, x, p: adaptive_combine(x, p)),
    "relation_scores": (("maps", "sig"), lambda c, m, s: relation_scores(
        m, s, RelationGenerator(_NET_CFG, np.random.default_rng(9)))),
    "Encoder.__call__": (("x", "w"), _encoder_row),
    "SignatureGenerator.refine": (("maps", "bv"), _refine_row),
    "s2s_learned": (("d", "b"), _s2s_row),
    **{op.__name__: (("x", "y"), lambda c, x, y, op=op: op(x, y))
       for op in (ad.add, ad.mul, ad.div)},
    **{name: _FUSED_FORMS[name][:2] for name in
       ("mlp_tanh", "mlp_relu", "self_attention", "feed_forward", "relation_train",
        "normalize_relu_keep", "normalize_stats")},
}
#: the rows that record more than one node
_COMPOSITES = {"pairwise_matrix", "project_support", "adaptive_combine",
               "SignatureGenerator.refine", "s2s_learned"}


@pytest.mark.parametrize("op", sorted(_CONTRACT))
def test_every_array_var_pattern_matches_the_all_var_call(op):
    """Each pattern of plain arrays and Vars among an op's operands gives the
    all-array value and the all-Var call's gradients of its Var operands,
    bit for bit."""
    names, fn = _CONTRACT[op]
    case = _epilogue_case(7)
    if names == ("x", "y"):
        rng = np.random.default_rng(8)
        case["x"], case["y"] = (rng.uniform(-0.3, 0.3, size=(4, 5, 3)) for _ in range(2))
    plain = fn(case, *(case[n] for n in names))
    assert isinstance(plain, np.ndarray)
    _, _, all_grads = _taped_run(fn, case, names, set(names))
    for pattern in itertools.product((False, True), repeat=len(names)):
        taped = {n for n, is_var in zip(names, pattern) if is_var}
        value, nodes, grads = _taped_run(fn, case, names, taped)
        _assert_same_bits(value, plain, f"{sorted(taped)}: value")
        assert nodes == (1 if taped else 0) or op in _COMPOSITES
        for n in taped:
            _assert_same_bits(grads[n], all_grads[n], f"{sorted(taped)}: d{n}")


def test_taped_midpoint_value_is_within_ulps_of_the_untaped_one():
    """The one exception to the contract above: the untaped Einstein
    midpoint sorts each coordinate's summands before it sums them, so that
    permuting the points cannot change its bits, and the taped one sums them
    in order. The two values agree to within 4 ulps of the radius."""
    cfg = BallConfig(c=0.7)
    pts = np.random.default_rng(8).uniform(-0.3, 0.3, size=(3, 4, 5))
    taped = einstein_midpoint(Tape().var(pts), cfg).value
    plain = einstein_midpoint(pts, cfg)
    assert np.max(np.abs(taped - plain)) <= 4.0 * np.finfo(np.float64).eps * cfg.radius
