"""Tape ops that only the test references record.

``unrolled_lstm`` (``test_nn``) and ``unrolled_sinkhorn`` (``test_perm``)
write the fused LSTM and Sinkhorn as compositions of tape ops, which the
fused ops must match bit for bit in value and gradient.  Besides the
engine's ops the compositions need these five, recorded through
``spanlab.tensor._record``.  They trust their arguments: ``slice_axis``
takes a non-negative axis and bounds within it, and ``concat`` operands
that agree off ``axis``.
"""

import numpy as np

from spanlab import tensor
from spanlab.nn import _sigmoid_values


def sigmoid(x):
    out = _sigmoid_values(x.data)
    return tensor._record("sigmoid", (x,), out, (lambda g: out * (1.0 - out) * g,))


def tanh(x):
    out = np.tanh(x.data)
    return tensor._record("tanh", (x,), out, (lambda g: (1.0 - out * out) * g,))


def exp(x):
    out = np.exp(x.data)
    return tensor._record("exp", (x,), out, (lambda g: out * g,))


def slice_axis(x, axis, start, stop):
    """Entries ``start:stop`` along ``axis``."""
    index = (slice(None),) * axis + (slice(start, stop),)
    out = x.data[index].copy()

    def vjp(g):
        grad = np.zeros(x.shape)
        grad[index] = g
        return grad

    return tensor._record("slice", (x,), out, (vjp,))


def concat(tensors, axis):
    """The tensors side by side along an existing axis."""
    tensors = tuple(tensors)
    bounds = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def piece(lo, hi):
        return lambda g: np.ascontiguousarray(np.split(g, (lo, hi), axis=axis)[1])

    return tensor._record("concat", tensors,
                          np.concatenate([t.data for t in tensors], axis=axis),
                          tuple(piece(*ends) for ends in zip(bounds[:-1], bounds[1:])))
