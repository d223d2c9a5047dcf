import operator

import numpy as np
import pytest

import spanlab.tensor as tensor_module
from spanlab.tensor import (
    BlobFormatError,
    DomainError,
    GradTape,
    ShapeMismatch,
    TapeError,
    Tensor,
    finite_difference_check,
    read_tensor_blob,
    write_tensor_blob,
)

from reference_ops import concat, exp, sigmoid, slice_axis, tanh


def scalar_loss(fn):
    """Wrap an op so the finite-difference check sees a scalar objective."""

    def f(x):
        return fn(x).sum()

    return f


class TestForwardValues:
    def test_relu(self):
        x = Tensor([[-1.0, 2.0], [0.0, -3.0]])
        np.testing.assert_array_equal(x.relu().data, [[0.0, 2.0], [0.0, 0.0]])

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        out = Tensor(np.eye(3)) @ Tensor(a)
        np.testing.assert_array_equal(out.data, a)

    def test_logsumexp_two_zeros(self):
        out = Tensor([0.0, 0.0]).logsumexp(axis=0)
        assert out.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_elementwise(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 5.0])
        np.testing.assert_array_equal((a + b).data, [4.0, 7.0])
        np.testing.assert_array_equal((a - b).data, [-2.0, -3.0])
        np.testing.assert_array_equal((a * b).data, [3.0, 10.0])
        np.testing.assert_array_equal((b / a).data, [3.0, 2.5])

    def test_scalar_operands(self):
        a = Tensor([1.0, 2.0])
        np.testing.assert_array_equal((a * 2.0).data, [2.0, 4.0])
        np.testing.assert_array_equal((3.0 - a).data, [2.0, 1.0])
        np.testing.assert_array_equal((-a).data, [-1.0, -2.0])

    def test_reductions(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert x.sum().item() == 10.0
        np.testing.assert_array_equal(x.sum(axis=0).data, [4.0, 6.0])
        np.testing.assert_array_equal(x.mean(axis=1).data, [1.5, 3.5])
        np.testing.assert_array_equal(x.max(axis=0).data, [3.0, 4.0])

    def test_concat_slice_transpose(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0, 4.0]])
        cat = concat([a, b], axis=0)
        np.testing.assert_array_equal(cat.data, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(slice_axis(cat, 0, 1, 2).data, [[3.0, 4.0]])
        np.testing.assert_array_equal(cat.transpose().data, [[1.0, 3.0], [2.0, 4.0]])

    def test_reshape(self):
        x = Tensor([[1.0, 2.0]])
        np.testing.assert_array_equal(x.reshape((2,)).data, [1.0, 2.0])

    def test_elementwise_broadcasts(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal((a + Tensor([10.0, 20.0])).data,
                                      [[11.0, 22.0], [13.0, 24.0]])
        np.testing.assert_array_equal((Tensor([[2.0], [4.0]]) / a).data,
                                      [[2.0, 1.0], [4.0 / 3.0, 1.0]])

    def test_permute_and_gather(self):
        x = Tensor([[0.0], [1.0], [2.0]])
        np.testing.assert_array_equal(
            x.permute_rows([2, 0, 1]).data, [[2.0], [0.0], [1.0]]
        )
        np.testing.assert_array_equal(
            x.gather_rows([1, 1, 0]).data, [[1.0], [1.0], [0.0]]
        )


class TestShapeAndDomainErrors:
    def test_elementwise_mismatch(self):
        with pytest.raises(ShapeMismatch) as info:
            Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])
        assert "add" in str(info.value)
        assert "(2,)" in str(info.value) and "(3,)" in str(info.value)

    def test_matmul_mismatch(self):
        with pytest.raises(ShapeMismatch):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))

    def test_div_by_zero(self):
        with pytest.raises(DomainError):
            Tensor([1.0]) / Tensor([0.0])

    def test_div_by_zero_scalar(self):
        with pytest.raises(DomainError):
            Tensor([1.0]) / 0.0
        with pytest.raises(DomainError):
            Tensor([1.0]) / np.float64(-0.0)

    def test_reshape_size_mismatch(self):
        with pytest.raises(ShapeMismatch):
            Tensor([1.0, 2.0]).reshape((3,))


class TestBackward:
    def test_square_sum(self):
        x = Tensor([1.0, 2.0, 3.0])
        with GradTape() as tape:
            loss = (x * x).sum()
        (g,) = tape.gradient(loss, [x])
        np.testing.assert_allclose(g.data, [2.0, 4.0, 6.0])

    def test_relu_subgradient(self):
        x = Tensor([-1.0, 2.0])
        with GradTape() as tape:
            loss = x.relu().sum()
        (g,) = tape.gradient(loss, [x])
        np.testing.assert_array_equal(g.data, [0.0, 1.0])

    def test_max_ties_go_to_first(self):
        x = Tensor([[2.0, 2.0, 1.0]])
        with GradTape() as tape:
            loss = x.max(axis=1).sum()
        (g,) = tape.gradient(loss, [x])
        np.testing.assert_array_equal(g.data, [[1.0, 0.0, 0.0]])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0])
        with GradTape() as tape:
            y = x * x
        with pytest.raises(TapeError):
            tape.gradient(y, [x])

    def test_off_tape_source_rejected(self):
        x = Tensor([1.0])
        other = Tensor([1.0])
        with GradTape() as tape:
            loss = x.sum()
        with pytest.raises(TapeError):
            tape.gradient(loss, [other])

    def test_unused_leaf_gets_zeros(self):
        x = Tensor([1.0, 2.0])
        unused = Tensor([5.0])
        with GradTape() as tape:
            loss = (x * x).sum() + unused.sum() * 0.0
        (g,) = tape.gradient(loss, [unused])
        np.testing.assert_array_equal(g.data, [0.0])

    def test_backward_is_linear(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4,)))
        a, b = 0.6, -1.3

        def loss1(t):
            return (t * t).sum()

        def loss2(t):
            return tanh(t).sum()

        with GradTape() as tape1:
            g1 = tape1.gradient(loss1(x), [x])[0].data
        with GradTape() as tape2:
            g2 = tape2.gradient(loss2(x), [x])[0].data
        with GradTape() as tape3:
            combined = loss1(x) * a + loss2(x) * b
            g3 = tape3.gradient(combined, [x])[0].data
        np.testing.assert_allclose(g3, a * g1 + b * g2, rtol=0, atol=1e-12)

    def test_value_only_outside_tape(self):
        x = Tensor([1.0])
        y = x * x  # no active tape: nothing recorded
        with GradTape() as tape:
            loss = x.sum()
        assert tape.gradient(loss, [x])[0].data[0] == 1.0
        with pytest.raises(TapeError):
            tape.gradient(loss, [y])


# (case, op on a Tensor x and a scalar c, the NumPy arithmetic it must match,
#  analytic d/dx as a function of c, op names it records)
SCALAR_CASES = [
    ("x+c", lambda x, c: x + c, lambda x, c: x + c, lambda c: 1.0, ["add"]),
    ("c+x", lambda x, c: c + x, lambda x, c: c + x, lambda c: 1.0, ["add"]),
    ("x-c", lambda x, c: x - c, lambda x, c: x - c, lambda c: 1.0, ["sub"]),
    ("c-x", lambda x, c: c - x, lambda x, c: c - x, lambda c: -1.0, ["sub"]),
    ("x*c", lambda x, c: x * c, lambda x, c: x * c, lambda c: c, ["mul"]),
    ("c*x", lambda x, c: c * x, lambda x, c: c * x, lambda c: c, ["mul"]),
    ("x/c", lambda x, c: x / c, lambda x, c: x / c, lambda c: 1.0 / c, ["div"]),
    ("-x", lambda x, c: -x, lambda x, c: -x, lambda c: -1.0, ["sub"]),
]


@pytest.mark.parametrize("const", [-1.7, np.float64(0.3)], ids=["float", "float64"])
@pytest.mark.parametrize("name,op,reference,slope,recorded", SCALAR_CASES,
                         ids=[case[0] for case in SCALAR_CASES])
def test_scalar_operand_is_a_constant_tensor(name, op, reference, slope, recorded,
                                             const):
    """A scalar goes through the elementwise rule as a constant 0-d operand:
    NumPy's bits, the analytic gradient and one add/sub/mul/div on the tape."""
    data = np.random.default_rng(21).normal(size=(3, 4))
    x = Tensor(data)
    with GradTape() as tape:
        y = op(x, const)
        loss = y.sum()
    assert y.data.tobytes() == reference(data, const).tobytes()
    assert [o.name for o in tape._ops] == recorded + ["sum"]
    (g,) = tape.gradient(loss, [x])
    assert g.data.tobytes() == np.full(data.shape, slope(const)).tobytes()


def test_non_scalar_array_operand_rejected():
    with pytest.raises(ShapeMismatch):
        Tensor([1.0, 2.0]) + np.array([1.0, 2.0])


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul],
                         ids=["add", "sub", "mul"])
def test_array_operand_on_the_left_rejected(op):
    """NumPy defers to the Tensor's reflected operator instead of building
    an object array of Tensors.  A NumPy scalar on the left stays a constant
    operand: see ``test_scalar_operand_is_a_constant_tensor``."""
    with pytest.raises(ShapeMismatch):
        op(np.array([1.0, 2.0]), Tensor([1.0, 2.0]))


class TestPruning:
    @staticmethod
    def spy_vjps(monkeypatch):
        """Record (op name, input index) for every VJP the tape runs."""
        calls = []
        real = tensor_module._record

        def spy(name, i, vjp):
            def run(g):
                calls.append((name, i))
                return vjp(g)

            return run

        def recording(name, inputs, out_data, vjps):
            return real(name, inputs, out_data,
                        tuple(spy(name, i, v) for i, v in enumerate(vjps)))

        monkeypatch.setattr(tensor_module, "_record", recording)
        return calls

    def test_op_that_cannot_reach_a_source_runs_no_vjp(self, monkeypatch):
        calls = self.spy_vjps(monkeypatch)
        x = Tensor([0.5, -1.0])
        frozen = Tensor([2.0, 3.0])
        with GradTape() as tape:
            loss = (x * tanh(frozen)).sum()
        (g,) = tape.gradient(loss, [x])
        np.testing.assert_array_equal(g.data, np.tanh([2.0, 3.0]))
        assert calls == [("sum", 0), ("mul", 0)]

    def test_matmul_forms_only_the_source_side_product(self, monkeypatch):
        calls = self.spy_vjps(monkeypatch)
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(4, 2)))
        with GradTape() as tape:
            loss = (x @ w).sum()
        tape.gradient(loss, [x])
        assert calls == [("sum", 0), ("matmul", 0)]
        del calls[:]
        tape.gradient(loss, [w])
        assert calls == [("sum", 0), ("matmul", 1)]


FD_CASES = [
    ("add", lambda x, y: x + y, 2),
    ("sub", lambda x, y: x - y, 2),
    ("mul", lambda x, y: x * y, 2),
    ("div", lambda x, y: x / (y * y + 1.0), 2),
    ("matmul", None, 2),
    ("relu", lambda x: x.relu(), 1),
    ("sigmoid", sigmoid, 1),
    ("tanh", tanh, 1),
    ("exp", exp, 1),
    ("sum_axis", lambda x: x.sum(axis=1), 1),
    ("mean_axis", lambda x: x.mean(axis=0), 1),
    ("max_axis", lambda x: x.max(axis=1), 1),
    ("logsumexp", lambda x: x.logsumexp(axis=0), 1),
    ("transpose", lambda x: x.transpose(), 1),
    ("reshape", lambda x: x.reshape((x.size,)), 1),
    ("slice", lambda x: slice_axis(x, 1, 1, 3), 1),
]


@pytest.mark.parametrize("name,fn,arity", FD_CASES, ids=[c[0] for c in FD_CASES])
def test_primitive_gradients_match_finite_differences(name, fn, arity):
    rng = np.random.default_rng(hash(name) % 2**32)
    x = Tensor(rng.uniform(-2.0, 2.0, size=(4, 5)))
    # keep relu/max kink points out of reach of the probe step
    if name in ("relu", "max_axis"):
        data = x.data
        data[np.abs(data) < 1e-3] = 0.5
        flat = data.reshape(-1)
        for k in range(1, flat.size):
            if np.min(np.abs(flat[k] - flat[:k])) < 1e-3:
                flat[k] += 0.1 + 0.01 * k
    weights = rng.normal(size=(4, 5))

    if name == "matmul":
        other = Tensor(rng.uniform(-2.0, 2.0, size=(5, 3)))
        wout = Tensor(rng.normal(size=(4, 3)))

        def f(t):
            return ((t @ other) * wout).sum()

    else:
        if arity == 2:
            other = Tensor(rng.uniform(-2.0, 2.0, size=(4, 5)))
            base = fn

            def applied(t):
                return base(t, other)

        else:
            applied = fn

        # weight the outputs so every coordinate influences the scalar loss
        wout = Tensor(np.random.default_rng(9).normal(size=applied(x).shape))

        def f(t):
            return (applied(t) * wout).sum()

    err = finite_difference_check(f, x, h=1e-5)
    limit = 1e-4 if name in ("relu", "max_axis") else 1e-6
    assert err <= limit, f"{name}: finite-difference mismatch {err}"


BROADCAST_OPS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
}


@pytest.mark.parametrize("full_first", [True, False], ids=["full-first", "full-second"])
@pytest.mark.parametrize("small_shape", [(5,), (1, 5), (4, 1)], ids=str)
@pytest.mark.parametrize("name", sorted(BROADCAST_OPS))
def test_broadcast_gradients_match_finite_differences(name, small_shape, full_first):
    """Both operands' gradients, including the one summed over the axes it
    was broadcast along, agree with central differences."""
    rng = np.random.default_rng(17)

    def values(shape):
        # magnitudes in [0.5, 2] keep every divisor away from zero
        return rng.uniform(0.5, 2.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)

    full = Tensor(values((4, 5)))
    small = Tensor(values(small_shape))
    wout = Tensor(rng.normal(size=(4, 5)))
    op = BROADCAST_OPS[name]

    def loss(a, b):
        return ((op(a, b) if full_first else op(b, a)) * wout).sum()

    assert finite_difference_check(lambda t: loss(t, small), full) <= 1e-6
    assert finite_difference_check(lambda t: loss(full, t), small) <= 1e-6


def test_batched_matmul_gradient_reaches_shared_weight():
    rng = np.random.default_rng(18)
    x = Tensor(rng.normal(size=(3, 4, 2)))
    w = Tensor(rng.normal(size=(2, 4)))
    wout = Tensor(rng.normal(size=(3, 4, 4)))
    assert finite_difference_check(lambda t: ((x @ t) * wout).sum(), w) <= 1e-6
    assert finite_difference_check(lambda t: ((t @ w) * wout).sum(), x) <= 1e-6


class TestFiniteDifferenceCheck:
    def test_quadratic_is_nearly_exact(self):
        x = Tensor([1.0, 2.0])
        err = finite_difference_check(lambda t: (t * t).sum(), x, h=1e-5)
        assert err <= 1e-8

    def test_sigmoid_sum(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(4,)))
        err = finite_difference_check(lambda t: sigmoid(t).sum(), x, h=1e-5)
        assert err <= 1e-6

    def test_detects_wrong_backward_rule(self):
        from spanlab.tensor import _record

        def doubled_square(t):
            # deliberately wrong backward: reports 4x instead of 2x
            return _record("bad_square", (t,), t.data * t.data,
                           (lambda g: 4.0 * t.data * g,))

        x = Tensor([1.0, -2.0])
        err = finite_difference_check(lambda t: doubled_square(t).sum(), x)
        assert err >= 1e-2

    def test_concat_gradient(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(2, 3)))

        def f(t):
            return tanh(concat([t, b], axis=0)).sum()

        assert finite_difference_check(f, a) <= 1e-6

    def test_permute_and_gather_gradient(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(4, 2)))

        def f(t):
            p = t.permute_rows([3, 1, 0, 2])
            g = p.gather_rows([0, 0, 2, 3, 1])
            return (g * g).sum()

        assert finite_difference_check(f, x) <= 1e-6


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        def run():
            rng = np.random.default_rng(77)
            x = Tensor(rng.normal(size=(6, 6)))
            w = Tensor(rng.normal(size=(6, 6)))
            with GradTape() as tape:
                loss = (tanh(x @ w) * sigmoid(x @ w)).sum()
            g = tape.gradient(loss, [w])[0].data
            return loss.item(), g.tobytes()

        first = run()
        second = run()
        assert first[0] == second[0]
        assert first[1] == second[1]


class TestBlobFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        arr = rng.normal(size=(3, 4, 2))
        path = tmp_path / "t.sptn"
        write_tensor_blob(path, arr)
        back = read_tensor_blob(path)
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.sptn"
        write_tensor_blob(path, np.array([1.0, 2.0]))
        raw = path.read_bytes()
        assert raw[:4] == b"SPTN"
        assert raw[4:8] == (1).to_bytes(4, "little")
        assert raw[8:12] == (1).to_bytes(4, "little")
        assert raw[12:20] == (2).to_bytes(8, "little")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.sptn"
        path.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(BlobFormatError):
            read_tensor_blob(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.sptn"
        write_tensor_blob(path, np.arange(4.0))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(BlobFormatError):
            read_tensor_blob(path)
