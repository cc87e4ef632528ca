"""Taped reference primitives for the tests' composite forms.

The package records only the ops the model needs and fuses the rest into
larger nodes (the distances, the midpoint, the log map, normalize, mlp, the
relation net, ...). The tests check each fused node against the composite of small
ops it replaces, bit for bit where they can; these are the small ops the
package does not export. Each is one `ad._node` with the arithmetic and the
adjoint that the package's own op of that name had, so a composite built
from them keeps its bits.
"""

import numpy as np

from gyroshot import autodiff as ad
from gyroshot.autodiff import val


def square(x):
    return ad.mul(x, x)


def exp(x):
    out = np.exp(val(x))
    return ad._node(out, "exp", (x,), lambda g: (g * out,))


def sqrt(x):
    out = np.sqrt(val(x))
    return ad._node(out, "sqrt", (x,), lambda g: (g * 0.5 / out,))


def tanh(x):
    out = np.tanh(val(x))
    return ad._node(out, "tanh", (x,), lambda g: (g * (1.0 - out * out),))


def relu(x):
    xv = val(x)
    return ad._node(np.maximum(xv, 0.0), "relu", (x,), lambda g: (g * (xv > 0),))


def arctanh(x):
    xv = val(x)
    return ad._node(np.arctanh(xv), "arctanh", (x,), lambda g: (g / (1.0 - xv * xv),))


def sub(a, b):
    av, bv = val(a), val(b)
    return ad._node(av - bv, "sub", (a, b), lambda g: (
        ad._unbroadcast(g, np.shape(av)), ad._unbroadcast(-g, np.shape(bv))))


def norm(x, keepdims=False):
    """Euclidean norm over the last axis; d||x||/dx = x / ||x|| with the
    norm floored at 1e-15, so a zero vector gets a zero gradient."""
    xv = val(x)
    out_keep = np.sqrt(np.sum(xv * xv, axis=-1, keepdims=True))

    def adjoint(g):
        if not keepdims:
            g = np.asarray(g)[..., None]
        return (g * xv / np.maximum(out_keep, 1e-15),)

    return ad._node(out_keep if keepdims else out_keep[..., 0], "norm", (x,), adjoint)


def conv2d(x, k, b=None):
    """Valid-padding stride-1 convolution, channels last, plus b when given,
    as one node over the package's conv helpers; b, which may be another
    conv's output, broadcasts against the kernel sum."""
    xv, kv, bv = val(x), val(k), val(b)
    out = ad._conv(xv, kv)
    if b is not None:
        out += bv
    return ad._node(out, "conv2d", (x, k, b), lambda g: ad._conv_adjoint(g, xv, kv) + (
        None if b is None else ad._unbroadcast(g, np.shape(bv)),))


def softmax(x, axis=-1):
    """Softmax along `axis` as one node that keeps only its output."""
    out = ad._softmax(val(x), axis=axis)
    return ad._node(out, "softmax", (x,), lambda g: (ad._softmax_adjoint(g, out, axis=axis),))
