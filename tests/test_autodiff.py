"""Tape, primitive ops, and the finite-difference oracle."""

import numpy as np
import pytest

from gyroshot import autodiff as ad
from gyroshot.autodiff import Tape, backward, finite_diff_check, val
from gyroshot.errors import DomainError, ShapeError, TapeError


def test_hand_worked_gradient():
    # f(a, b) = (a*b + a)^2 at a=3, b=2 -> f=81, df/da=2*9*(b+1)=54, df/db=2*9*a=54
    tape = Tape()
    a = tape.var(3.0)
    b = tape.var(2.0)
    f = (a * b + a) ** 2
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
        y = ad.sum(ad.tanh(x * 2.0) / (1.0 + ad.exp(-x)))
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


def test_mixed_tapes_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.var(1.0)
    b = t2.var(2.0)
    with pytest.raises(TapeError):
        a + b


def test_constants_pass_through_untaped():
    x = np.array([1.0, 2.0])
    out = ad.tanh(x) + ad.sqrt(x)
    assert isinstance(out, np.ndarray)


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
        ("softmax", lambda x: ad.sum(ad.softmax(x, axis=-1) ** 2), -2.0, 2.0),
        ("softmax_axis0", lambda x: ad.sum(ad.softmax(x, axis=0) * np.arange(8.0).reshape(2, 4)),
         -2.0, 2.0),
        ("log_softmax", lambda x: ad.sum(ad.log_softmax(x, axis=-1) * 0.3), -2.0, 2.0),
        ("div", lambda x: ad.sum(x / (2.0 + x)), -1.0, 1.0),
        ("pow", lambda x: ad.sum(x ** 3), 0.5, 1.5),
        ("where", lambda x: ad.sum(ad.where(val(x) > 0.5, x * 2.0, x * x)), 0.0, 1.0),
        ("swapaxes", lambda x: ad.sum(ad.swapaxes(x, -1, -2) ** 2) if val(x).ndim > 1 else ad.sum(x), -1.0, 1.0),
    ],
)
def test_primitive_gradients_match_finite_differences(name, fn, low, high):
    rng = np.random.default_rng(sum(name.encode()))
    shape = (2, 4) if name in ("softmax", "softmax_axis0", "log_softmax", "swapaxes") else (6,)
    point = rng.uniform(low, high, shape)
    report = finite_diff_check(fn, point)
    assert report.passed, f"{name}: max rel err {report.max_rel_error} flagged {report.flagged}"


def test_matmul_gradient_and_broadcasting():
    rng = np.random.default_rng(0)
    a0 = rng.normal(size=(2, 3, 4))
    b0 = rng.normal(size=(4, 5))

    ra = finite_diff_check(lambda a: ad.sum(ad.matmul(a, b0) ** 2), a0)
    assert ra.passed
    rb = finite_diff_check(lambda b: ad.sum(ad.matmul(a0, b) ** 2), b0)
    assert rb.passed
    with pytest.raises(ShapeError):
        ad.matmul(np.ones(3), np.ones((3, 2)))


def test_concat_and_reshape_gradients():
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=(3, 2))

    def f(x):
        y = ad.concat([x, x * 2.0], axis=-1)
        return ad.sum(ad.reshape(y, (-1,)) ** 2)

    assert finite_diff_check(f, x0).passed


def test_broadcast_to_gradient():
    x0 = np.array([1.5, -0.5])

    def f(x):
        y = ad.broadcast_to(ad.reshape(x, (1, 2)), (3, 2))
        return ad.sum(y * np.arange(6.0).reshape(3, 2))

    rep = finite_diff_check(f, x0)
    assert rep.passed


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
    assert finite_diff_check(lambda x: ad.sum(ad.conv2d(x, k0) ** 2), x0).passed
    assert finite_diff_check(lambda k: ad.sum(ad.conv2d(x0, k) ** 2), k0).passed


def test_conv2d_shape_errors():
    with pytest.raises(ShapeError):
        ad.conv2d(np.ones((1, 2, 2, 3)), np.ones((1, 1, 4, 2)))
    with pytest.raises(ShapeError):
        ad.conv2d(np.ones((1, 2, 2, 3)), np.ones((3, 3, 3, 2)))


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
