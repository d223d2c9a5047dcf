"""Property tests for the tape's broadcasting rule."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import array_shapes, mutually_broadcastable_shapes  # noqa: E402

from spanlab.tensor import ShapeMismatch, Tensor, finite_difference_check  # noqa: E402

OPS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
}


def operand(rng, shape):
    # magnitudes in [0.5, 2] keep every divisor away from zero
    return rng.uniform(0.5, 2.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(OPS)),
    shapes=mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_binary_gradients_match_finite_differences(name, shapes, seed):
    (shape_a, shape_b), out_shape = shapes
    rng = np.random.default_rng(seed)
    a = Tensor(operand(rng, shape_a), trainable=True)
    b = Tensor(operand(rng, shape_b), trainable=True)
    wout = Tensor(rng.normal(size=out_shape))
    op = OPS[name]
    assert op(a, b).shape == out_shape
    assert finite_difference_check(lambda t: (op(t, b) * wout).sum(), a) <= 1e-6
    assert finite_difference_check(lambda t: (op(a, t) * wout).sum(), b) <= 1e-6


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(OPS)),
    shape_a=array_shapes(min_dims=1, max_dims=3, max_side=4),
    shape_b=array_shapes(min_dims=1, max_dims=3, max_side=4),
)
def test_incompatible_shapes_raise(name, shape_a, shape_b):
    try:
        np.broadcast_shapes(shape_a, shape_b)
    except ValueError:
        pass
    else:
        assume(False)
    with pytest.raises(ShapeMismatch) as info:
        OPS[name](Tensor(np.ones(shape_a)), Tensor(np.ones(shape_b)))
    assert info.value.op == name
    assert info.value.shapes == (shape_a, shape_b)
