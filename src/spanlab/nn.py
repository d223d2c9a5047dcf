"""Neural building blocks: fully-connected layers, an LSTM cell, Xavier
initialization, dropout, the Adam step and global-norm gradient clipping."""

from __future__ import annotations

import functools

import numpy as np

from spanlab.tensor import (
    ShapeMismatch,
    Tensor,
    _active_tape,
    _record,
    _unbroadcast,
)

__all__ = [
    "LSTMCell",
    "LinearLayer",
    "OptimizerState",
    "Seed",
    "adam_step",
    "clip_global_norm",
    "dropout",
    "seed_chain",
    "xavier_init",
]

_ACTIVATIONS = ("none", "relu")

# the type of a configured seed: an int, or an int list as seed_chain returns
Seed = int | list[int]


def seed_chain(seed, *tags):
    """Flatten a seed (int or int sequence) plus tags into one entropy list."""
    parts = [int(s) for s in seed] if isinstance(seed, (list, tuple)) else [int(seed)]
    return parts + [int(t) for t in tags]


def xavier_init(shape, seed):
    """Rank-2 tensor with entries uniform on +-sqrt(6/(fan_in+fan_out))."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != 2:
        raise ShapeMismatch("xavier_init", shape)
    rng = np.random.default_rng(seed)
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    return Tensor(rng.uniform(-bound, bound, size=shape))


class LinearLayer:
    """Affine map plus optional ReLU, batch-first: (B,in) -> (B,out)."""

    def __init__(self, in_dim, out_dim, activation="none", seed=0):
        if activation not in _ACTIVATIONS:
            raise ValueError(f"LinearLayer: unknown activation {activation!r}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.weight = xavier_init((in_dim, out_dim), seed)
        self.bias = Tensor(np.zeros(out_dim))

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeMismatch("linear_forward", x.shape, (None, self.in_dim))
        out = x @ self.weight + self.bias
        return out.relu() if self.activation == "relu" else out

    def parameters(self):
        return {"weight": self.weight, "bias": self.bias}


class LSTMCell:
    """Single LSTM cell; gate weights are (in+hidden, hidden) blocks.

    The step input is concat([x_t, h_{t-1}]).  The forget-gate bias starts at
    1.0 so memories survive the first updates; configurable.

    ``run`` is one taped op, ``lstm``, with a hand-written backpropagation
    through time.  It and ``spanlab.perm.sinkhorn`` are the two fused ops:
    a span-desk forward and loss (n=20, hidden 48) record 15 tape entries,
    where the step-by-step composition of 20 ops per step, which the tests
    keep as the reference ``unrolled_lstm``, records 414.
    """

    GATES = ("i", "f", "o", "g")

    def __init__(self, input_dim, hidden_dim, seed=0, forget_bias=1.0):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weights = {}
        self.biases = {}
        for k, gate in enumerate(self.GATES):
            self.weights[gate] = xavier_init(
                (input_dim + hidden_dim, hidden_dim), seed_chain(seed, k)
            )
            init = forget_bias if gate == "f" else 0.0
            self.biases[gate] = Tensor(np.full(hidden_dim, init))

    def run(self, sequence):
        """Full recurrence over a batch of sequences (B,n,in) -> h_n (B,hidden).

        Per step: z = concat([x_t, h]), one matmul and bias add per gate,
        sigmoid for i, f, o and tanh for g, c = f*c + i*g, h = o*tanh(c).
        The op's inputs are the sequence and the gate weights and biases.
        Their VJPs share one reverse sweep, run once per output gradient, and
        add every contribution in the order the tape would for that
        composition of ops, so values and gradients are bit-identical to it.
        The per-step state is kept only while a tape is recording.
        """
        if sequence.ndim != 3 or sequence.shape[2] != self.input_dim \
                or sequence.shape[1] == 0:
            raise ShapeMismatch("lstm_run", sequence.shape,
                                (None, None, self.input_dim))
        seq = sequence.data
        batch, steps, width = seq.shape
        params = [p for gate in self.GATES
                  for p in (self.weights[gate], self.biases[gate])]
        ws = [w.data for w in params[0::2]]
        bs = [b.data for b in params[1::2]]
        h = np.zeros((batch, self.hidden_dim))
        c = np.zeros((batch, self.hidden_dim))
        taped = _active_tape() is not None
        states = []  # per step: z, the gate activations, c_{t-1}, tanh(c_t)
        for t in range(steps):
            z = np.concatenate([seq[:, t], h], axis=1)
            i, f, o = (_sigmoid_values(z @ w + b) for w, b in zip(ws[:3], bs[:3]))
            g = np.tanh(z @ ws[3] + bs[3])
            c_prev, c = c, f * c + i * g
            tanh_c = np.tanh(c)
            h = o * tanh_c
            if taped:
                states.append((z, (i, f, o, g), c_prev, tanh_c))

        cache = []  # [output gradient, its sweep]

        def sweep(dh):
            if not cache or cache[0] is not dh:
                cache[:] = [dh, _lstm_sweep(states, ws, width, dh)]
            return cache[1]

        def sequence_vjp(dh):
            grad = np.zeros(seq.shape)
            for t, (_dp, dx) in enumerate(sweep(dh)):
                grad[:, t] = dx
            return grad

        def weight_vjp(k):
            return lambda dh: functools.reduce(np.add, (
                np.swapaxes(state[0], -1, -2) @ dp[k]
                for state, (dp, _dx) in zip(reversed(states), reversed(sweep(dh)))))

        def bias_vjp(k):
            return lambda dh: functools.reduce(np.add, (
                _unbroadcast(dp[k], bs[k].shape) for dp, _dx in reversed(sweep(dh))))

        vjps = [sequence_vjp]
        for k in range(len(self.GATES)):
            vjps += [weight_vjp(k), bias_vjp(k)]
        return _record("lstm", (sequence, *params), h, tuple(vjps))

    def parameters(self):
        params = {}
        for gate in self.GATES:
            params[f"w_{gate}"] = self.weights[gate]
            params[f"b_{gate}"] = self.biases[gate]
        return params


def _sigmoid_values(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _lstm_sweep(states, weights, width, dh):
    """Backpropagation through time for ``LSTMCell.run``: per step, oldest
    first, the gate pre-activation gradients (in ``GATES`` order) and the
    gradient of the step's input slab.

    Sums add their terms in the tape's order for the step-by-step ops: dc_t
    is the next step's forget path plus this step's tanh path, and dz adds
    the gates' terms as g, o, f, i.  Weight and bias gradients are summed
    over steps by the caller, in reverse time.
    """
    weights_t = [np.swapaxes(w, -1, -2) for w in weights]
    out = [None] * len(states)
    dc_next = None
    for t in reversed(range(len(states))):
        _z, (i, f, o, g), c_prev, tanh_c = states[t]
        dc = (1.0 - tanh_c * tanh_c) * (dh * o)
        if dc_next is not None:
            dc = dc_next + dc
        dp = (i * (1.0 - i) * (dc * g),
              f * (1.0 - f) * (dc * c_prev),
              o * (1.0 - o) * (dh * tanh_c),
              (1.0 - g * g) * (dc * i))
        dz = ((dp[3] @ weights_t[3] + dp[2] @ weights_t[2])
              + dp[1] @ weights_t[1]) + dp[0] @ weights_t[0]
        out[t] = (dp, dz[:, :width])
        dh = dz[:, width:]
        dc_next = dc * f
    return out


def dropout(x, rate, rng, training):
    """Inverted dropout: scales survivors by 1/(1-rate); identity at inference."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate {rate} outside [0, 1)")
    if not training or rate == 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * Tensor(mask)


class OptimizerState:
    """Adam over a named parameter group: the learning rate, the step count
    and the per-parameter moments."""

    def __init__(self, lr):
        self.lr = lr
        self.step_count = 0
        self.m = {}
        self.v = {}

    def state_arrays(self):
        """Moment buffers keyed for checkpointing."""
        out = {}
        for name, arr in self.m.items():
            out[f"m.{name}"] = arr
        for name, arr in self.v.items():
            out[f"v.{name}"] = arr
        return out

    def load_state_arrays(self, arrays, step_count):
        self.step_count = int(step_count)
        self.m = {k[2:]: np.asarray(v) for k, v in arrays.items() if k.startswith("m.")}
        self.v = {k[2:]: np.asarray(v) for k, v in arrays.items() if k.startswith("v.")}


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def adam_step(state, params, grads):
    """Bias-corrected Adam descent (beta1=0.9, beta2=0.999, eps=1e-8) on a
    named dict of gradient arrays; parameters are replaced, not mutated."""
    for name, p in params.items():
        if grads[name].shape != p.data.shape:
            raise ShapeMismatch("adam_step", grads[name].shape, p.data.shape)
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - _BETA1 ** t
    bc2 = 1.0 - _BETA2 ** t
    for name, p in params.items():
        g = grads[name]
        m = _BETA1 * state.m.get(name, 0.0) + (1.0 - _BETA1) * g
        v = _BETA2 * state.v.get(name, 0.0) + (1.0 - _BETA2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        step = state.lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)
        p.data = p.data - step


def clip_global_norm(grads, max_norm):
    """Scale a named dict of gradient arrays so its global L2 norm is at most
    max_norm; (clipped dict, norm before clipping)."""
    total = np.sqrt(sum(float(np.sum(a * a)) for a in grads.values()))
    if total <= max_norm:
        return grads, total
    scale = max_norm / total
    return {k: a * scale for k, a in grads.items()}, total
