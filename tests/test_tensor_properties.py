"""Property tests for the tape's broadcasting rule, the backward rules of its
reductions and shape ops, gradient pruning and the fused Sinkhorn and LSTM
ops, Sinkhorn's invariants, and the hardening functions."""

import itertools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import array_shapes, mutually_broadcastable_shapes  # noqa: E402

from spanlab.nn import LSTMCell  # noqa: E402
from spanlab.perm import apply_soft, greedy_round, hard_match, sinkhorn  # noqa: E402
from spanlab.tensor import (  # noqa: E402
    GradTape,
    ShapeMismatch,
    Tensor,
    concat,
    finite_difference_check,
)
from test_nn import fused_lstm, lstm_value_and_gradients, unrolled_lstm  # noqa: E402
from test_perm import unrolled_sinkhorn, value_and_gradient  # noqa: E402

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
    a = Tensor(operand(rng, shape_a))
    b = Tensor(operand(rng, shape_b))
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


def spread(rng, shape):
    """Distinct entries in [-2, 2], at least 4/size apart, in random order:
    every max is strict far beyond the finite-difference step, and no
    softmax weight falls below exp(-4)."""
    size = int(np.prod(shape, dtype=np.int64))
    return (rng.permutation(size) / size - 0.5).reshape(shape) * 4.0


def weighted_sum_check(op, x, rng):
    """Finite-difference error of sum(op(x) * w) for weights w of magnitude
    0.5 to 2, so that no output's gradient is near zero by chance."""
    weights = Tensor(operand(rng, op(x).shape))
    return finite_difference_check(lambda t: (op(t) * weights).sum(), x)


REDUCTIONS = {
    "sum": Tensor.sum,
    "mean": Tensor.mean,
    "max": Tensor.max,
    "logsumexp": Tensor.logsumexp,
}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(REDUCTIONS)),
    shape=array_shapes(min_dims=1, max_dims=3, max_side=4),
    keepdims=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_reduction_gradients_match_finite_differences(name, shape, keepdims,
                                                      seed, data):
    # logsumexp always reduces one axis; the others also reduce over all
    axes = list(range(-len(shape), len(shape)))
    axis = data.draw(st.sampled_from(axes if name == "logsumexp" else [None, *axes]))
    rng = np.random.default_rng(seed)
    x = Tensor(spread(rng, shape))
    reduce = REDUCTIONS[name]
    op = lambda t: reduce(t, axis=axis, keepdims=keepdims)  # noqa: E731
    assert op(x).shape == np.sum(x.data, axis=axis, keepdims=keepdims).shape
    assert weighted_sum_check(op, x, rng) <= 1e-6


@settings(max_examples=40, deadline=None)
@given(
    shape=array_shapes(min_dims=2, max_dims=3, max_side=4),
    target=st.sampled_from(["flat", "reversed", "leading-one"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_reshape_and_transpose_gradients_match_finite_differences(shape, target,
                                                                  seed):
    size = int(np.prod(shape))
    new_shape = {"flat": (size,), "reversed": shape[::-1],
                 "leading-one": (1, size)}[target]
    rng = np.random.default_rng(seed)
    x = Tensor(operand(rng, shape))
    assert weighted_sum_check(lambda t: t.reshape(new_shape), x, rng) <= 1e-6
    assert weighted_sum_check(lambda t: t.transpose(), x, rng) <= 1e-6


@settings(max_examples=40, deadline=None)
@given(
    batch=st.sampled_from([None, 1, 3]),
    n=st.integers(1, 5),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_permute_rows_gradients_match_finite_differences(batch, n, d, seed):
    rng = np.random.default_rng(seed)
    shape = (n, d) if batch is None else (batch, n, d)
    x = Tensor(operand(rng, shape))
    perm = (rng.permutation(n) if batch is None
            else np.stack([rng.permutation(n) for _ in range(batch)]))
    assert weighted_sum_check(lambda t: t.permute_rows(perm), x, rng) <= 1e-6


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 5),
    d=st.integers(1, 3),
    count=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_gather_rows_gradients_with_repeated_indices(n, d, count, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(operand(rng, (n, d)))
    picks = rng.integers(0, n, size=count)
    index = np.concatenate([picks, picks[:1]])  # at least one row twice
    assert weighted_sum_check(lambda t: t.gather_rows(index), x, rng) <= 1e-6


def pruning_graph(rng):
    """Leaves and intermediates of one loss that reuses tensors and takes
    every op kind the models use; returns (sources, loss)."""
    x = Tensor(rng.normal(size=(3, 4)))
    w = Tensor(rng.normal(size=(4, 5)))
    b = Tensor(rng.normal(size=(5,)))
    c = Tensor(rng.uniform(0.5, 2.0, size=(2, 5)))
    h = (x @ w + b).tanh()
    z = concat([h, c.sigmoid()], axis=0).permute_rows([4, 0, 3, 1, 2])
    s = z.logsumexp(axis=1) - z.max(axis=1)
    u = (h / c.sum(axis=0)).relu().exp().slice(1, 0, 3).gather_rows([2, 0, 2])
    v = (x.transpose() @ h).reshape((20,)).mean(axis=0, keepdims=True)
    loss = (s * s).sum() + u.mean() - v.sum() * x.sum()
    return [x, w, b, c, h, z], loss


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    subset=st.lists(st.integers(0, 5), min_size=1, max_size=6),
)
def test_pruned_gradients_match_the_full_set_bit_for_bit(seed, subset):
    rng = np.random.default_rng(seed)
    with GradTape() as tape:
        sources, loss = pruning_graph(rng)
    full = tape.gradient(loss, sources)
    pruned = tape.gradient(loss, [sources[i] for i in subset])
    for i, g in zip(subset, pruned):
        assert g.data.tobytes() == full[i].data.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    batch=st.sampled_from([None, 1, 2, 3]),
    n=st.integers(1, 5),
    temperature=st.sampled_from([0.05, 0.1, 0.5, 1.0, 2]),
    iterations=st.integers(1, 103),
    scale=st.sampled_from([2.0, 0.5, 0.05]),
    relu=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_sinkhorn_is_the_unrolled_composition_bit_for_bit(
        batch, n, temperature, iterations, scale, relu, seed):
    """Also where sets repeat and leave the batch: small and relu logits
    converge within tens of rounds."""
    shape = (n, n) if batch is None else (batch, n, n)
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=scale, size=shape)
    if relu:
        logits = np.maximum(logits, 0.0)
    probe = rng.normal(size=shape)
    fused = value_and_gradient(sinkhorn, logits, probe, temperature, iterations)
    reference = value_and_gradient(unrolled_sinkhorn, logits, probe,
                                   temperature, iterations)
    assert fused[0].tobytes() == reference[0].tobytes()
    assert fused[1].tobytes() == reference[1].tobytes()


@settings(max_examples=40, deadline=None)
@given(
    batch=st.integers(1, 3),
    steps=st.integers(1, 8),
    width=st.integers(1, 3),
    hidden=st.integers(1, 5),
    forget_bias=st.sampled_from([0.0, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_lstm_is_the_unrolled_composition_bit_for_bit(
        batch, steps, width, hidden, forget_bias, seed):
    rng = np.random.default_rng(seed)
    cell = LSTMCell(width, hidden, seed=seed, forget_bias=forget_bias)
    sequence = rng.normal(scale=2.0, size=(batch, steps, width))
    probe = rng.normal(size=(batch, hidden))
    probe[rng.random(probe.shape) < 0.25] = -0.0
    fused = lstm_value_and_gradients(fused_lstm, cell, sequence, probe)
    reference = lstm_value_and_gradients(unrolled_lstm, cell, sequence, probe)
    for got, want in zip(fused, reference):
        assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    batch=st.sampled_from([None, 1, 3]),
    n=st.integers(1, 6),
    temperature=st.sampled_from([0.05, 0.1, 0.5, 1.0, 2]),
    iterations=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_sinkhorn_invariants(batch, n, temperature, iterations, seed):
    """Nonnegative entries, unit column sums, and equivariance:
    sinkhorn(Q L R) = Q sinkhorn(L) R for permutation matrices Q and R."""
    shape = (n, n) if batch is None else (batch, n, n)
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=2.0, size=shape)
    out = sinkhorn(logits, temperature, iterations).data
    assert np.all(out >= 0.0)
    assert np.max(np.abs(out.sum(axis=-2) - 1.0)) <= 1e-12
    q = np.eye(n)[rng.permutation(n)]
    r = np.eye(n)[rng.permutation(n)]
    moved = sinkhorn(q @ logits @ r, temperature, iterations).data
    assert np.max(np.abs(moved - q @ out @ r)) <= 1e-12


def is_permutation(pi, n):
    return pi.dtype == np.int64 and np.array_equal(np.sort(pi), np.arange(n))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    high=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_hardening_invariants(n, high, seed):
    """On small-integer scores, where ties are common, ``hard_match`` returns
    the lexicographically smallest permutation of maximum slot-order weight
    and ``greedy_round`` a permutation; a one-hot ``np.eye(n)[pi]`` hardens
    back to ``pi`` and applies as ``x[pi]``, bit for bit."""
    rng = np.random.default_rng(seed)
    score = rng.integers(0, high + 1, size=(n, n)).astype(np.float64)

    def weight(pi):
        return sum(score[i, pi[i]] for i in range(n))

    pi = hard_match(score)
    assert is_permutation(pi, n)
    perms = list(itertools.permutations(range(n)))  # lexicographic order
    weights = [weight(p) for p in perms]
    best = max(weights)
    assert weight(pi) == best
    assert tuple(pi) == perms[weights.index(best)]
    assert is_permutation(greedy_round(score), n)

    orders = [rng.permutation(n) for _ in range(3)]
    x = rng.normal(size=(3, n, 2))
    for order, rows in zip(orders, x):
        one_hot = np.eye(n)[order]
        assert apply_soft(one_hot, rows).data.tobytes() == rows[order].tobytes()
        assert np.array_equal(hard_match(one_hot), order)
        assert np.array_equal(greedy_round(one_hot), order)
    batched = apply_soft(np.stack([np.eye(n)[o] for o in orders]), x).data
    assert batched.tobytes() == np.stack(
        [rows[o] for o, rows in zip(orders, x)]).tobytes()
