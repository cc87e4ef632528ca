"""Tape, primitive ops, and the finite-difference oracle."""

import inspect
import tracemalloc

import numpy as np
import pytest

from gyroshot import autodiff as ad
from gyroshot.autodiff import Tape, backward, finite_diff_check, val
from gyroshot.errors import DomainError, ShapeError, TapeError
from gyroshot.geometry import BallConfig, geodesic_distance, log_map


def _square(x):
    return x * x


def test_hand_worked_gradient():
    # f(a, b) = (a*b + a)^2 at a=3, b=2 -> f=81, df/da=2*9*(b+1)=54, df/db=2*9*a=54
    tape = Tape()
    a = tape.var(3.0)
    b = tape.var(2.0)
    u = a * b + a
    f = u * u
    backward(f)
    assert float(val(f)) == 81.0
    assert float(a.grad) == 54.0
    assert float(b.grad) == 54.0


def test_gradient_accumulates_on_reuse():
    # y = x*x + x uses x twice: dy/dx = 2x + 1
    tape = Tape()
    x = tape.var(4.0)
    y = x * x + x
    backward(y)
    assert float(x.grad) == 9.0


def test_reverse_order_is_topological_and_deterministic():
    def build():
        tape = Tape()
        x = tape.var(np.array([0.3, -0.2, 0.9]))
        y = ad.sum(ad.tanh(x * 2.0) / (1.0 + ad.exp(-1.0 * x)))
        backward(y)
        return x.grad.copy()

    g1, g2 = build(), build()
    assert np.array_equal(g1, g2)


def test_backward_requires_scalar_root():
    tape = Tape()
    x = tape.var(np.ones(3))
    y = x * 2.0
    with pytest.raises(TapeError):
        backward(y)


#: op name -> (operand shape, call with both operands); every op that
#: takes more than one operand that may be a Var
_MULTI_OPERAND = {
    "add": ((2, 2), lambda a, b: a + b),
    "sub": ((2, 2), ad.sub),
    "mul": ((2, 2), ad.mul),
    "div": ((2, 2), ad.div),
    "where": ((2, 2), lambda a, b: ad.where(np.eye(2, dtype=bool), a, b)),
    "matmul": ((2, 2), ad.matmul),
    "conv2d": ((1, 1, 1, 1), ad.conv2d),
    "attention": ((2, 2), lambda a, b: ad.attention(a, b, b)),
    "geodesic_distance": ((2, 2), lambda a, b: geodesic_distance(a, b, BallConfig(c=1.0))),
    "log_map": ((2, 2), lambda a, b: log_map(a, b, BallConfig(c=1.0))),
}


@pytest.mark.parametrize("op", sorted(_MULTI_OPERAND))
def test_mixed_tapes_rejected(op):
    shape, fn = _MULTI_OPERAND[op]
    a = Tape().var(np.full(shape, 0.1))
    b = Tape().var(np.full(shape, 0.2))
    with pytest.raises(TapeError):
        fn(a, b)


_X = np.array([[0.2, 0.5], [0.3, 0.1]])

#: public op name -> call on constant operands only
_CONSTANT_CALLS = {
    "add": lambda: ad.add(_X, _X),
    "sub": lambda: ad.sub(_X, 1.0),
    "mul": lambda: ad.mul(2.0, _X),
    "div": lambda: ad.div(_X, _X),
    "sqrt": lambda: ad.sqrt(_X),
    "exp": lambda: ad.exp(_X),
    "log": lambda: ad.log(_X),
    "tanh": lambda: ad.tanh(_X),
    "arctanh": lambda: ad.arctanh(_X),
    "sigmoid": lambda: ad.sigmoid(_X),
    "relu": lambda: ad.relu(_X - 0.25),
    "where": lambda: ad.where(_X > 0.25, _X, 0.0),
    "sum": lambda: ad.sum(_X, axis=0),
    "mean": lambda: ad.mean(_X, axis=-1),
    "norm": lambda: ad.norm(_X),
    "reshape": lambda: ad.reshape(_X, (4,)),
    "matmul": lambda: ad.matmul(_X, _X),
    "conv2d": lambda: ad.conv2d(_X[None, :, :, None], np.ones((1, 2, 1, 3))),
    "softmax": lambda: ad.softmax(_X),
    "log_softmax": lambda: ad.log_softmax(_X),
    "attention": lambda: ad.attention(_X, _X, _X),
    "normalize": lambda: ad.normalize(_X, -1, 1e-5)[0],
    "geodesic_distance": lambda: geodesic_distance(_X, _X[::-1], BallConfig(c=1.0)),
    "log_map": lambda: log_map(_X, _X[::-1], BallConfig(c=1.0)),
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
    assert public - not_ops == set(_CONSTANT_CALLS) - {"geodesic_distance", "log_map"}


def test_broadcast_gradients_have_operand_shapes():
    tape = Tape()
    x = tape.var(np.ones((2, 3)))
    w = tape.var(np.arange(3.0))
    y = ad.sum(x * w + w)
    backward(y)
    assert x.grad.shape == (2, 3)
    assert w.grad.shape == (3,)
    # w broadcasts over 2 rows in the product and again in the addition
    assert np.array_equal(w.grad, np.array([4.0, 4.0, 4.0]))
    assert np.array_equal(x.grad, np.broadcast_to(np.arange(3.0), (2, 3)))


@pytest.mark.parametrize(
    "name,fn,low,high",
    [
        ("sqrt", lambda x: ad.sum(ad.sqrt(x)), 0.2, 2.0),
        ("exp", lambda x: ad.sum(ad.exp(x)), -1.0, 1.0),
        ("log", lambda x: ad.sum(ad.log(x)), 0.2, 2.0),
        ("tanh", lambda x: ad.sum(ad.tanh(x)), -2.0, 2.0),
        ("arctanh", lambda x: ad.sum(ad.arctanh(x)), -0.9, 0.9),
        ("sigmoid", lambda x: ad.sum(ad.sigmoid(x)), -3.0, 3.0),
        ("relu", lambda x: ad.sum(ad.relu(x)), 0.1, 2.0),
        ("norm", lambda x: ad.sum(ad.norm(x)), 0.2, 1.0),
        ("mean", lambda x: ad.mean(x * x), -2.0, 2.0),
        ("softmax", lambda x: ad.sum(_square(ad.softmax(x, axis=-1))), -2.0, 2.0),
        ("softmax_axis0", lambda x: ad.sum(ad.softmax(x, axis=0) * np.arange(8.0).reshape(2, 4)),
         -2.0, 2.0),
        ("log_softmax", lambda x: ad.sum(ad.log_softmax(x, axis=-1) * 0.3), -2.0, 2.0),
        ("div", lambda x: ad.sum(x / (2.0 + x)), -1.0, 1.0),
        ("where", lambda x: ad.sum(ad.where(val(x) > 0.5, x * 2.0, x * x)), 0.0, 1.0),
        ("reshape",
         lambda x: ad.sum(_square(ad.reshape(x, (2, 3))) * np.arange(6.0).reshape(2, 3)),
         -1.0, 1.0),
    ],
)
def test_primitive_gradients_match_finite_differences(name, fn, low, high):
    rng = np.random.default_rng(sum(name.encode()))
    shape = (2, 4) if name in ("softmax", "softmax_axis0", "log_softmax") else (6,)
    point = rng.uniform(low, high, shape)
    report = finite_diff_check(fn, point)
    assert report.passed, f"{name}: max rel err {report.max_rel_error} flagged {report.flagged}"


def test_matmul_gradient_and_broadcasting():
    rng = np.random.default_rng(0)
    a0 = rng.normal(size=(2, 3, 4))
    b0 = rng.normal(size=(4, 5))

    ra = finite_diff_check(lambda a: ad.sum(_square(ad.matmul(a, b0))), a0)
    assert ra.passed
    rb = finite_diff_check(lambda b: ad.sum(_square(ad.matmul(a0, b))), b0)
    assert rb.passed
    with pytest.raises(ShapeError):
        ad.matmul(np.ones(3), np.ones((3, 2)))


def test_conv2d_matches_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 4, 5, 3))
    k = rng.normal(size=(2, 3, 3, 4))
    out = ad.conv2d(x, k)
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
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(2, 3, 3, 2))
    k0 = rng.normal(size=(2, 2, 2, 3))
    assert finite_diff_check(lambda x: ad.sum(_square(ad.conv2d(x, k0))), x0).passed
    assert finite_diff_check(lambda k: ad.sum(_square(ad.conv2d(x0, k))), k0).passed


def test_conv2d_leading_axes_are_batch_axes():
    rng = np.random.default_rng(13)
    x0 = rng.normal(size=(2, 3, 3, 4, 2))
    k0 = rng.normal(size=(2, 3, 2, 3))
    w = rng.normal(size=(2, 3, 2, 2, 3))
    out = ad.conv2d(x0, k0)
    np.testing.assert_allclose(out.reshape(6, 2, 2, 3), ad.conv2d(x0.reshape(6, 3, 4, 2), k0),
                               rtol=0, atol=1e-15)
    assert finite_diff_check(lambda x: ad.sum(ad.conv2d(x, k0) * w), x0).passed
    assert finite_diff_check(lambda k: ad.sum(ad.conv2d(x0, k) * w), k0).passed


def test_conv2d_shape_errors():
    with pytest.raises(ShapeError):
        ad.conv2d(np.ones((1, 2, 2, 3)), np.ones((1, 1, 4, 2)))
    with pytest.raises(ShapeError):
        ad.conv2d(np.ones((1, 2, 2, 3)), np.ones((3, 3, 3, 2)))
    with pytest.raises(ShapeError):
        ad.conv2d(np.ones((2, 3)), np.ones((1, 1, 3, 2)))


def test_norm_zero_vector_has_safe_gradient():
    tape = Tape()
    x = tape.var(np.zeros(4))
    y = ad.sum(ad.norm(ad.reshape(x, (1, 4))))
    backward(y)
    assert np.all(np.isfinite(x.grad))
    assert np.array_equal(x.grad, np.zeros(4))


def test_arctanh_rejects_arguments_outside_domain():
    with pytest.raises(DomainError):
        ad.arctanh(np.array([0.2, 1.0]))
    tape = Tape()
    with pytest.raises(DomainError):
        ad.arctanh(tape.var(np.array([-1.5])))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 7)) * 50.0  # large logits: max-shift keeps exp finite
    s = ad.softmax(x, axis=-1)
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(s >= 0.0)


def test_sigmoid_stable_for_extreme_inputs():
    out = ad.sigmoid(np.array([-1e4, 0.0, 1e4]))
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[2] == 1.0 and out[1] == 0.5


def test_finite_diff_report_flags_kink():
    # relu has no two-sided derivative at 0: central difference sees 0.5, tape says 0
    report = finite_diff_check(lambda x: ad.sum(ad.relu(x)), np.zeros(1), tol=1e-4)
    assert not report.passed
    assert report.flagged == [0]


def test_finite_diff_requires_var_result():
    with pytest.raises(TapeError):
        finite_diff_check(lambda x: float(np.sum(val(x))), np.ones(2))


# ---------------------------------------------------------------------------
# the lazy backward sweep


def test_gradient_contribution_of_wrong_shape_names_the_op():
    tape = Tape()
    x = tape.var(np.ones(3))
    y = ad.record(2.0 * x.value, [(x, lambda g: np.sum(g))], tape, "badpull")
    with pytest.raises(TapeError, match="badpull"):
        backward(ad.sum(y))
    tape = Tape()
    x = tape.var(np.ones(3))
    y = ad.record(2.0 * x.value, [(x, lambda g: g[None, :])], tape, "badpull")
    with pytest.raises(TapeError, match=r"badpull.*\(1, 3\)"):
        backward(ad.sum(y))


def test_leaf_gradients_own_writable_memory_of_the_leaf_shape():
    tape = Tape()
    viewed = tape.var(np.arange(6.0))        # reached only through a reshape view
    summed = tape.var(np.ones((2, 3)))       # reached only through sum's broadcast view
    shared = tape.var(np.ones((2, 3)))       # an add hands both operands one array
    unused = tape.var(np.ones(4))
    y = ad.reshape(viewed, (2, 3)) + shared
    loss = ad.sum(y * 3.0) + ad.sum(summed)
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
    side = ad.record(x.value * 5.0, [(x, never)], tape, "side")
    loss = ad.sum(x * x)
    after = ad.record(np.ones(2), [(loss, never)], tape, "after")
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
    y = ad.sum(ad.tanh(x) * x + x)
    backward(y)
    first = x.grad.copy()
    backward(y)
    assert np.array_equal(x.grad, first)


# ---------------------------------------------------------------------------
# fused attention and normalization


def _attention_inputs(seed=5):
    """q, k, v of shape (2, 4, 3); query row (0, 1) is saturated: each of
    its scores is more than 745 below the row's largest, so the shifted exp
    underflows to exactly 0 everywhere but there."""
    rng = np.random.default_rng(seed)
    q, k, v = (rng.normal(size=(2, 4, 3)) for _ in range(3))
    q[0, 1] = [400.0, 0.0, 0.0]
    k[0, :, 0] = [-2.0, -1.0, 3.0, -1.5]
    return q, k, v


def _composite_attention(q, k, v):
    """The unfused forward: scaled scores, shifted exp, row sums, product."""
    s = (q @ np.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(q.shape[-1]))
    e = np.exp(s - np.max(s, axis=-1, keepdims=True))
    return (e / np.sum(e, axis=-1, keepdims=True)) @ v


def test_attention_test_inputs_saturate_one_row():
    q, k, _ = _attention_inputs()
    s = (q[0, 1] @ k[0].T) / np.sqrt(3.0)
    gaps = np.delete(s.max() - s, np.argmax(s))
    assert np.all(gaps > 745.0) and np.all(np.exp(-gaps) == 0.0)


@pytest.mark.parametrize("wrt", [0, 1, 2], ids=["q", "k", "v"])
def test_attention_gradients_match_finite_differences(wrt):
    args = _attention_inputs()
    w = np.random.default_rng(6).normal(size=(2, 4, 3))

    def f(x):
        return ad.sum(ad.attention(*(x if i == wrt else a for i, a in enumerate(args))) * w)

    with np.errstate(over="raise", divide="raise", invalid="raise"):
        report = finite_diff_check(f, args[wrt].copy())
    assert report.passed, f"max rel err {report.max_rel_error} flagged {report.flagged}"
    assert np.all(np.isfinite(report.analytic))


@pytest.mark.parametrize("axes,shape", [(-1, (3, 5)), ((0, 1), (4, 3, 2))],
                         ids=["last_axis", "leading_axes"])
def test_normalize_gradients_match_finite_differences(axes, shape):
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=shape) * 2.0 + 1.0
    w = rng.normal(size=shape)
    report = finite_diff_check(lambda x: ad.sum(ad.normalize(x, axes, 1e-5)[0] * w), x0)
    assert report.passed, f"max rel err {report.max_rel_error} flagged {report.flagged}"


def test_untaped_attention_equals_composite_bit_for_bit():
    q, k, v = _attention_inputs()
    np.testing.assert_array_equal(ad.attention(q, k, v), _composite_attention(q, k, v))


@pytest.mark.parametrize("shape", [(4, 3), (2, 3, 4, 3)], ids=["one_block", "two_leading_axes"])
def test_untaped_attention_blocks_equal_the_taped_stack_bit_for_bit(shape):
    """Taped or not, P is formed one T×T block at a time, and the stacked
    output equals the composite's batched arithmetic."""
    rng = np.random.default_rng(10)
    q, k = rng.normal(size=shape), rng.normal(size=shape)
    v = rng.normal(size=shape[:-1] + (5,))
    taped = ad.attention(Tape().var(q), k, v).value
    np.testing.assert_array_equal(taped, _composite_attention(q, k, v))
    np.testing.assert_array_equal(ad.attention(q, k, v), taped)


def test_untaped_attention_never_holds_the_whole_score_stack():
    rng = np.random.default_rng(11)
    q, k, v = (rng.normal(size=(8, 64, 4)) for _ in range(3))
    stack_bytes = 8 * 64 * 64 * 8
    tracemalloc.start()
    try:
        ad.attention(q, k, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes / 2


def test_taped_attention_and_its_backward_never_hold_the_whole_score_stack():
    """The adjoint rebuilds P block by block, so a taped forward and backward
    hold at most two T×T blocks at once. Sixteen blocks and C = 2 keep the
    O(T·C) arrays (output, gradients) small beside one block."""
    rng = np.random.default_rng(12)
    tape = Tape()
    q, k, v = (tape.var(rng.normal(size=(16, 128, 2))) for _ in range(3))
    w = rng.normal(size=(16, 128, 2))
    stack_bytes = 16 * 128 * 128 * 8
    tracemalloc.start()
    try:
        backward(ad.sum(ad.attention(q, k, v) * w))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes / 2


def test_normalize_returns_batch_statistics():
    x = np.random.default_rng(8).normal(size=(6, 3))
    xhat, mu, var = ad.normalize(x, (0,), 1e-5)
    np.testing.assert_allclose(mu, x.mean(axis=0, keepdims=True), rtol=1e-14)
    np.testing.assert_allclose(var, x.var(axis=0, keepdims=True), rtol=1e-14)
    np.testing.assert_allclose(xhat, (x - mu) / np.sqrt(var + 1e-5), rtol=1e-14)


def test_attention_rejects_mismatched_shapes():
    q = np.ones((4, 3))
    with pytest.raises(ShapeError):
        ad.attention(q, np.ones((5, 3)), np.ones((5, 3)))
    with pytest.raises(ShapeError):
        ad.attention(q, q, np.ones((5, 3)))


def _fused_tape():
    tape = Tape()
    q, k, v = (tape.var(a) for a in _attention_inputs())
    h = ad.normalize(ad.attention(q, k, v), -1, 1e-5)[0]
    y = ad.normalize(h, (0, 1), 1e-5)[0]
    # every pair of rows, both operands taped, well inside the c = 0.7 ball
    d = geodesic_distance(ad.reshape(0.3 * ad.tanh(y), (2, 4, 1, 3)),
                          ad.reshape(0.3 * ad.tanh(h), (2, 1, 4, 3)), BallConfig(c=0.7))
    rng = np.random.default_rng(9)
    losses = [ad.sum(y * rng.normal(size=(2, 4, 3))) + ad.sum(d * rng.normal(size=(2, 4, 4)))
              for _ in range(2)]
    return (q, k, v), losses


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
    arrays = _attention_inputs()
    saved = [a.copy() for a in arrays]
    ad.attention(*arrays)
    ad.normalize(arrays[0], -1, 1e-5)
    leaves, (loss, _) = _fused_tape()
    values = [x.value.copy() for x in leaves]
    backward(loss)
    for a, s in zip(arrays, saved):
        np.testing.assert_array_equal(a, s)
    for x, s in zip(leaves, values):
        np.testing.assert_array_equal(x.value, s)
