import tracemalloc

import numpy as np
import pytest

from spanlab import nn as nn_module
from spanlab.models import SpanModel
from spanlab.nn import (
    LSTMCell,
    LinearLayer,
    OptimizerState,
    adam_step,
    clip_global_norm,
    dropout,
    xavier_init,
)
from spanlab.tensor import (
    GradTape,
    ShapeMismatch,
    Tensor,
    finite_difference_check,
)
from spanlab.train import batch_loss

from reference_ops import concat, sigmoid, sigmoid_values, slice_axis, tanh


class TestXavierInit:
    def test_bound_for_square_shape(self):
        t = xavier_init((3, 3), seed=0)
        assert np.all(np.abs(t.data) <= 1.0)  # sqrt(6/6) == 1

    def test_deterministic_per_seed(self):
        a = xavier_init((4, 7), seed=123)
        b = xavier_init((4, 7), seed=123)
        assert a.data.tobytes() == b.data.tobytes()

    def test_mean_close_to_zero(self):
        t = xavier_init((100, 100), seed=5)
        # bound is sqrt(6/200) ~= 0.173; the sample mean of 10^4 draws has
        # std bound/sqrt(3)/100 ~= 1e-3, so a Monte-Carlo band of 3e-3 holds
        assert abs(float(t.data.mean())) < 3e-3

    def test_large_sample_mean(self):
        draws = np.concatenate(
            [xavier_init((100, 100), seed=s).data.reshape(-1) for s in range(100)]
        )
        assert draws.size == 10**6
        assert abs(float(draws.mean())) < 0.001

    def test_rejects_non_rank2(self):
        with pytest.raises(ShapeMismatch):
            xavier_init((3,), seed=0)
        with pytest.raises(ShapeMismatch):
            xavier_init((2, 2, 2), seed=0)


class TestLinearLayer:
    def test_forward_shape_and_activation(self):
        layer = LinearLayer(3, 2, activation="relu", seed=1)
        out = layer.forward(Tensor(np.ones((5, 3))))
        assert out.shape == (5, 2)
        assert np.all(out.data >= 0.0)

    def test_input_dim_checked(self):
        layer = LinearLayer(3, 2, seed=1)
        with pytest.raises(ShapeMismatch):
            layer.forward(Tensor(np.ones((5, 4))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        layer = LinearLayer(4, 3, activation="relu", seed=2)
        x = Tensor(rng.normal(size=(2, 4)))

        def f(w):
            return (layer.forward(x) * layer.forward(x)).sum()

        assert finite_difference_check(f, layer.weight) <= 1e-5
        assert finite_difference_check(f, layer.bias) <= 1e-5


class TestLSTM:
    def test_zero_weights_give_zero_state(self):
        cell = LSTMCell(3, 4, seed=0, forget_bias=0.0)
        for p in cell.parameters().values():
            p.data = np.zeros_like(p.data)
        rng = np.random.default_rng(0)
        h = cell.run(Tensor(rng.normal(size=(1, 6, 3))))
        np.testing.assert_array_equal(h.data, np.zeros((1, 4)))

    def test_length_one_equals_single_step(self):
        cell = LSTMCell(3, 5, seed=4)
        x = Tensor(np.random.default_rng(1).normal(size=(1, 1, 3)))
        assert cell.run(x).data.tobytes() == unrolled_lstm(cell, x).data.tobytes()

    def test_order_sensitivity(self):
        cell = LSTMCell(2, 6, seed=7)
        readout = LinearLayer(6, 1, seed=8)
        rng = np.random.default_rng(9)
        seq = rng.normal(size=(5, 2))

        def predict(x):
            return readout.forward(cell.run(Tensor(x[None]))).item()

        assert predict(seq) != predict(seq[::-1].copy())

    def test_gradient_through_ten_steps(self):
        cell = LSTMCell(2, 3, seed=11)
        readout = LinearLayer(3, 1, seed=12)
        seq = Tensor(np.random.default_rng(13).normal(size=(1, 10, 2)))

        def f(_):
            return readout.forward(cell.run(seq)).sum()

        for p in list(cell.parameters().values()) + [readout.weight]:
            err = finite_difference_check(lambda t, p=p: f(t), p)
            assert err <= 1e-5, f"grad mismatch {err} for a {p.shape} parameter"

    def test_input_dim_mismatch(self):
        cell = LSTMCell(3, 4, seed=0)
        with pytest.raises(ShapeMismatch):
            cell.run(Tensor(np.zeros((1, 5, 2))))

    def test_empty_sequence_rejected(self):
        with pytest.raises(ShapeMismatch):
            LSTMCell(3, 4, seed=0).run(Tensor(np.zeros((2, 0, 3))))

    def test_batched_matches_loop(self):
        cell = LSTMCell(2, 4, seed=3)
        rng = np.random.default_rng(8)
        batch = rng.normal(size=(3, 6, 2))
        stacked = cell.run(Tensor(batch)).data
        for b in range(3):
            single = cell.run(Tensor(batch[b][None])).data
            np.testing.assert_allclose(stacked[b], single[0], rtol=0, atol=1e-14)


def unrolled_lstm(cell, sequence):
    """The LSTM as a composition of tape ops, 20 per step: the reference the
    fused ``LSTMCell.run`` must match bit for bit, in value and in the
    gradient of every input."""
    batch, steps, _ = sequence.shape
    h = Tensor(np.zeros((batch, cell.hidden_dim)))
    c = Tensor(np.zeros((batch, cell.hidden_dim)))
    for t in range(steps):
        x_t = slice_axis(sequence, 1, t, t + 1).reshape((batch, cell.input_dim))
        z = concat([x_t, h], axis=1)

        def gate(name):
            return z @ cell.weights[name] + cell.biases[name]

        i = sigmoid(gate("i"))
        f = sigmoid(gate("f"))
        o = sigmoid(gate("o"))
        g = tanh(gate("g"))
        c = f * c + i * g
        h = o * tanh(c)
    return h


def lstm_value_and_gradients(run, cell, sequence, probe):
    """Output of ``run(cell, sequence)`` and the gradients of
    sum(output * probe) w.r.t. the sequence and each cell parameter."""
    x = Tensor(sequence)
    sources = [x, *cell.parameters().values()]
    with GradTape() as tape:
        out = run(cell, x)
        loss = (out * Tensor(probe)).sum()
    return [out.data] + [g.data for g in tape.gradient(loss, sources)]


def fused_lstm(cell, sequence):
    return cell.run(sequence)


def spy_lstm_vjps(monkeypatch):
    """For every lstm op recorded from here on: the input index of each VJP
    the tape runs, in run order, and the number of reverse sweeps."""
    runs, sweeps = [], []
    record, sweep = nn_module._record, nn_module._lstm_sweep

    def spied(k, vjp):
        def run(g):
            runs.append(k)
            return vjp(g)
        return run

    def recording(name, inputs, out_data, vjps):
        return record(name, inputs, out_data,
                      tuple(spied(k, vjp) for k, vjp in enumerate(vjps)))

    def counting(*args):
        sweeps.append(True)
        return sweep(*args)

    monkeypatch.setattr(nn_module, "_record", recording)
    monkeypatch.setattr(nn_module, "_lstm_sweep", counting)
    return runs, sweeps


def assert_fused_lstm_is_unrolled(batch, steps, width, hidden, forget_bias=1.0,
                                  seed=0):
    rng = np.random.default_rng([batch, steps, hidden])
    cell = LSTMCell(width, hidden, seed=seed, forget_bias=forget_bias)
    sequence = rng.normal(size=(batch, steps, width))
    probe = rng.normal(size=(batch, hidden))
    probe[0] = -0.0  # signed zeros reach every gradient of one set
    fused = lstm_value_and_gradients(fused_lstm, cell, sequence, probe)
    reference = lstm_value_and_gradients(unrolled_lstm, cell, sequence, probe)
    assert len(fused) == 10
    for got, want in zip(fused, reference):
        assert got.tobytes() == want.tobytes()


class TestSigmoidValues:
    """The fused LSTM's gate sigmoid against the reference's two-branch
    masked formula, bit for bit."""

    EDGES = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
             1e-300, -1e-300, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0, 7.3, -7.3,
             36.0, -36.0, 37.5, -37.5,
             *(s * v for s in (1.0, -1.0)
               for v in (708.0, 709.0, 709.5, 709.78, 710.0, 744.0, 744.44,
                         745.0, 745.13, 745.2, 746.0, 800.0, 1e308))]

    def assert_same(self, x):
        got, want = nn_module._sigmoid_values(x), sigmoid_values(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_edge_values(self):
        self.assert_same(np.array(self.EDGES))

    @pytest.mark.parametrize("scale", [1e-3, 0.1, 1.0, 5.0, 30.0, 800.0])
    def test_normal_draws(self, scale):
        rng = np.random.default_rng(int(scale * 1000))
        self.assert_same(rng.normal(scale=scale, size=(64, 48)))

    @pytest.mark.parametrize("length", range(1, 18))
    def test_every_simd_tail_length(self, length):
        rng = np.random.default_rng(length)
        values = np.concatenate([self.EDGES, rng.normal(scale=10.0, size=64)])
        rng.shuffle(values)
        for start in range(0, len(values) - length + 1, length):
            self.assert_same(values[start:start + length])

    def test_strided_column_view(self):
        rng = np.random.default_rng(3)
        block = rng.normal(scale=8.0, size=(33, 7))
        block[:, 2] = self.EDGES[:len(block)]
        column = block[:, 2]
        assert not column.flags.c_contiguous
        self.assert_same(column)

    def test_nan_stays_nan(self):
        x = np.array([np.nan, -np.nan, 1.0, np.nan, -2.0])
        got = nn_module._sigmoid_values(x)
        assert np.isnan(got).tolist() == [True, True, False, True, False]
        assert got[[2, 4]].tobytes() == sigmoid_values(x[[2, 4]]).tobytes()


class TestFusedLSTM:
    @pytest.mark.parametrize("forget_bias", [0.0, 1.0])
    @pytest.mark.parametrize("hidden", [1, 4])
    @pytest.mark.parametrize("steps", [1, 2, 6])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_bit_identical_to_the_unrolled_composition(self, batch, steps, hidden,
                                                      forget_bias):
        assert_fused_lstm_is_unrolled(batch, steps, 2, hidden, forget_bias,
                                      seed=steps)

    @pytest.mark.parametrize("steps, width, hidden", [
        (20, 1, 48),   # the desk percentile model
        (20, 1, 128),  # the paper-default percentile model
        (4, 16, 32),   # the max-digit model
    ])
    def test_bit_identical_at_workload_shapes(self, steps, width, hidden):
        """Batch 32, where BLAS and the SIMD loops take their wide paths."""
        assert_fused_lstm_is_unrolled(32, steps, width, hidden)

    def test_sequence_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        cell = LSTMCell(2, 3, seed=15)
        probe = Tensor(rng.normal(size=(2, 3)))
        sequence = Tensor(rng.normal(size=(2, 5, 2)))

        def f(x):
            return (cell.run(x) * probe).sum()

        assert finite_difference_check(f, sequence, h=1e-5) <= 1e-6

    def test_each_gradient_runs_only_the_vjps_it_needs(self, monkeypatch):
        runs, sweeps = spy_lstm_vjps(monkeypatch)
        rng = np.random.default_rng(17)
        model = SpanModel(n=4, d=2, L=1, hidden=5, tau=0.5, sinkhorn_iters=10, seed=3)
        x, y = Tensor(rng.normal(size=(3, 4, 2))), Tensor(rng.normal(size=(3, 1)))
        with GradTape() as tape:
            loss = batch_loss("mse", model.forward(x), y)
        # the learner: every gate weight and bias, never the sequence
        tape.gradient(loss, list(model.learner_parameters().values()))
        assert sorted(runs) == list(range(1, 9)) and len(sweeps) == 1
        # the adversary: the sequence alone, from one more sweep
        runs.clear()
        tape.gradient(loss, list(model.adversary_parameters().values()))
        assert runs == [0] and len(sweeps) == 2

    def test_without_a_tape_keeps_no_per_step_state(self):
        batch, steps, width, hidden = 16, 40, 8, 32
        cell = LSTMCell(width, hidden, seed=1)
        sequence = Tensor(np.random.default_rng(16).normal(size=(batch, steps, width)))
        # z, four gate activations, c_{t-1} and tanh(c_t)
        step_bytes = 8 * batch * ((width + hidden) + 6 * hidden)

        def peak(forward):
            """Most bytes allocated at once while ``forward()`` runs."""
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                forward()
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        def taped():
            with GradTape():
                cell.run(sequence)

        assert peak(lambda: cell.run(sequence)) < 5 * step_bytes
        assert peak(taped) > steps * step_bytes

    def test_span_desk_forward_records_one_lstm_op(self):
        rng = np.random.default_rng(18)
        model = SpanModel(n=20, d=1, L=1, hidden=48, tau=0.1, sinkhorn_iters=20,
                          input_scale=0.05, seed=0)
        x = Tensor(rng.uniform(0.0, 100.0, size=(32, 20, 1)))
        y = Tensor(rng.uniform(0.0, 100.0, size=(32, 1)))
        with GradTape() as tape:
            batch_loss("mse", model.forward(x), y)
        names = [op.name for op in tape._ops]
        assert len(names) <= 20 and names.count("lstm") == 1


class TestAdam:
    def test_first_step_is_minus_lr(self):
        p = Tensor(np.array([1.0, 1.0]))
        state = OptimizerState(lr=0.01)
        adam_step(state, {"p": p}, {"p": np.ones(2)})
        np.testing.assert_allclose(p.data, 1.0 - 0.01, rtol=1e-7)

    def test_maximize_flips_sign(self):
        # ascent is descent on the negated gradient: the first step is +lr
        p = Tensor(np.array([1.0]))
        state = OptimizerState(lr=0.01)
        adam_step(state, {"p": p}, {"p": -np.ones(1)})
        np.testing.assert_allclose(p.data, 1.0 + 0.01, rtol=1e-7)

    def test_maximize_equals_minimize_of_negated(self):
        # Adam is odd in its gradients: ascending on g (descent on -g)
        # mirrors descending on g step for step
        rng = np.random.default_rng(21)
        grads = [rng.normal(size=(3,)) for _ in range(50)]
        start = np.array([0.5, -0.2, 0.1])

        def run(sign):
            p = Tensor(start.copy())
            state = OptimizerState(lr=0.05)
            for g in grads:
                adam_step(state, {"p": p}, {"p": sign * g})
            return p.data

        np.testing.assert_allclose(run(-1.0) - start, start - run(1.0),
                                   rtol=0, atol=1e-12)

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([1.0]))
        state = OptimizerState(lr=0.1)
        for _ in range(200):
            adam_step(state, {"p": p}, {"p": 2.0 * p.data})
        assert abs(p.data[0]) < 0.05

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.ones(2))
        state = OptimizerState(lr=0.1)
        with pytest.raises(ShapeMismatch):
            adam_step(state, {"p": p}, {"p": np.ones(3)})


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.ones((3, 3)))
        out = dropout(x, 0.0, np.random.default_rng(0), training=True)
        np.testing.assert_array_equal(out.data, x.data)

    def test_inference_identity(self):
        x = Tensor(np.ones((3, 3)))
        out = dropout(x, 0.5, np.random.default_rng(0), training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_survivor_fraction(self):
        x = Tensor(np.ones(10**5))
        out = dropout(x, 0.5, np.random.default_rng(42), training=True)
        frac = float(np.count_nonzero(out.data)) / x.size
        assert abs(frac - 0.5) <= 0.01
        survivors = out.data[out.data != 0.0]
        np.testing.assert_allclose(survivors, 2.0)

    def test_rate_out_of_range(self):
        x = Tensor(np.ones(3))
        with pytest.raises(ValueError):
            dropout(x, 1.0, np.random.default_rng(0), training=True)
        with pytest.raises(ValueError):
            dropout(x, -0.1, np.random.default_rng(0), training=True)

    def test_gradient_scales_by_mask(self):
        x = Tensor(np.ones(100))
        rng_state = np.random.default_rng(3)
        with GradTape() as tape:
            out = dropout(x, 0.5, rng_state, training=True)
            loss = out.sum()
        g = tape.gradient(loss, [x])[0].data
        assert set(np.unique(g)) <= {0.0, 2.0}


class TestClipGlobalNorm:
    def test_no_clip_below_threshold(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        clipped, norm = clip_global_norm(grads, 10.0)
        assert norm == 5.0
        np.testing.assert_array_equal(clipped["a"], [3.0])

    def test_clips_to_max_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        clipped, norm = clip_global_norm(grads, 1.0)
        total = np.sqrt(sum(float(np.sum(g * g)) for g in clipped.values()))
        assert total == pytest.approx(1.0, rel=1e-12)
