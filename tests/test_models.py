import copy
import pickle

import numpy as np
import pytest

from spanlab.models import (
    DeepSetsModel,
    JanossyModel,
    PiSgdModel,
    SpanFcModel,
    SpanModel,
    SpanNoApnModel,
    build_model,
    load_checkpoint,
    save_checkpoint,
    tuple_index_array,
)
from spanlab.nn import seed_chain
from spanlab.tensor import (
    GradTape,
    ShapeMismatch,
    Tensor,
    finite_difference_check,
)
from spanlab.train import batch_loss


def rng_set(seed, n=5, d=3):
    return np.random.default_rng(seed).normal(size=(n, d))


class TestSpanModel:
    def test_single_element_set(self):
        m = SpanModel(n=1, d=3, L=2, hidden=4, sinkhorn_iters=5, seed=0)
        x = rng_set(0, n=1)
        direct_h = m.lstm.run(Tensor(x.reshape(1, 1, 3)))
        expected = m.readout.forward(direct_h).data.reshape(2)
        np.testing.assert_allclose(m.predict(x), expected, atol=1e-12)

    def test_zero_pn_weight_bit_invariant(self):
        m = SpanModel(n=6, d=3, L=1, hidden=8, sinkhorn_iters=20, seed=1)
        m.pn.weight.data = np.zeros((3, 6))
        x = rng_set(1, n=6)
        ref = m.predict(x).tobytes()
        rng = np.random.default_rng(2)
        for _ in range(20):
            assert m.predict(x[rng.permutation(6)]).tobytes() == ref

    def test_gradient_flows_to_pn_weight(self):
        m = SpanModel(n=5, d=2, L=1, hidden=4, tau=1.0, sinkhorn_iters=10, seed=3)
        x = Tensor(rng_set(3, n=5, d=2))

        def f(_):
            return m.forward(x).sum()

        err = finite_difference_check(f, m.pn.weight, h=1e-5)
        assert err <= 1e-4
        with GradTape() as tape:
            loss = m.forward(x).sum()
        g = tape.gradient(loss, [m.pn.weight])[0].data
        assert np.any(g != 0.0)

    def test_batched_forward_matches_single(self):
        m = SpanModel(n=4, d=2, L=1, hidden=6, sinkhorn_iters=15, seed=4)
        batch = np.random.default_rng(5).normal(size=(3, 4, 2))
        stacked = m.forward(Tensor(batch)).data
        for b in range(3):
            np.testing.assert_allclose(
                stacked[b], m.predict(batch[b]), rtol=0, atol=1e-12
            )

    def test_learner_adversary_split(self):
        m = SpanModel(n=3, d=2, L=1, hidden=4, seed=5)
        adversary = m.adversary_parameters()
        learner = m.learner_parameters()
        assert set(adversary) == {"pn.weight"}
        assert "pn.weight" not in learner
        assert set(adversary) | set(learner) == set(m.parameters())


class TestAblations:
    def test_no_apn_is_order_sensitive(self):
        m = SpanNoApnModel(n=5, d=3, L=1, hidden=8, seed=6)
        x = rng_set(6)
        assert m.predict(x)[0] != m.predict(x[::-1].copy())[0]

    def test_no_apn_equals_span_with_identity_perm(self):
        class IdentityPn:
            def forward(self, x):
                batch, n = x.shape[0], x.shape[1]
                eye = np.tile(np.eye(n), (batch, 1, 1))
                return Tensor(eye)

        span = SpanModel(n=4, d=2, L=1, hidden=6, seed=7)
        plain = SpanNoApnModel(n=4, d=2, L=1, hidden=6, seed=7)
        span.pn = IdentityPn()
        # canonical reordering inside apply_soft cancels against a hard
        # identity permutation only in exact arithmetic; compare values
        x = np.sort(rng_set(7, n=4, d=2), axis=0)  # already canonical order
        np.testing.assert_allclose(span.predict(x), plain.predict(x), atol=1e-12)

    def test_span_fc_zero_pn_invariant(self):
        m = SpanFcModel(n=4, d=2, L=1, width=8, sinkhorn_iters=10, seed=8)
        m.pn.weight.data = np.zeros((2, 4))
        x = rng_set(8, n=4, d=2)
        ref = m.predict(x).tobytes()
        rng = np.random.default_rng(9)
        for _ in range(10):
            assert m.predict(x[rng.permutation(4)]).tobytes() == ref

    def test_span_fc_random_pn_is_order_sensitive(self):
        # with random permutation-network weights the input order must reach
        # the learner; invariance is left for the adversarial game to teach
        m = SpanFcModel(n=4, d=2, L=1, width=8, sinkhorn_iters=10, seed=8)
        x = rng_set(8, n=4, d=2)
        assert abs(m.predict(x)[0] - m.predict(x[::-1].copy())[0]) > 1e-2


class TestDeepSets:
    def test_bitwise_permutation_invariance(self):
        m = DeepSetsModel(d=3, L=2, width=16, seed=10)
        x = rng_set(10, n=7)
        ref = m.predict(x).tobytes()
        rng = np.random.default_rng(11)
        for _ in range(20):
            assert m.predict(x[rng.permutation(7)]).tobytes() == ref

    def test_max_pooling_variant(self):
        m = DeepSetsModel(d=2, L=1, width=8, pooling="max", seed=12)
        x = rng_set(12, n=5, d=2)
        ref = m.predict(x).tobytes()
        rng = np.random.default_rng(13)
        for _ in range(10):
            assert m.predict(x[rng.permutation(5)]).tobytes() == ref

    def test_single_element(self):
        m = DeepSetsModel(d=3, L=1, width=4, seed=14)
        x = rng_set(14, n=1)
        out = m.predict(x)
        assert out.shape == (1,)

    def test_identity_embedding_sums(self):
        # with phi = identity and sigma = identity the model is sum(x)
        m = DeepSetsModel(d=2, L=2, width=2, seed=15)
        m.embed.weight.data = np.eye(2)
        m.embed.bias.data = np.zeros(2)
        m.embed.activation = "none"
        m.post.weight.data = np.eye(2)
        m.post.bias.data = np.zeros(2)
        m.post.activation = "none"
        m.readout.weight.data = np.eye(2)
        m.readout.bias.data = np.zeros(2)
        x = rng_set(15, n=6, d=2)
        np.testing.assert_allclose(m.predict(x), x.sum(axis=0), atol=1e-12)

    def test_gradients_match_finite_differences(self):
        m = DeepSetsModel(d=2, L=1, width=5, seed=16)
        x = Tensor(rng_set(16, n=4, d=2))

        def f(_):
            return m.forward(x).sum()

        for name, p in m.parameters().items():
            err = finite_difference_check(lambda t, p=p: f(t), p)
            assert err <= 1e-5, f"{name}: {err}"


class TestJanossy:
    def test_tuple_count_formula(self):
        assert tuple_index_array(3, 2).shape == (3, 2)
        assert tuple_index_array(200, 3).shape[0] == 1_313_400

    def test_enumeration_small(self):
        np.testing.assert_array_equal(
            tuple_index_array(3, 2), [[0, 1], [0, 2], [1, 2]]
        )

    def test_k1_equals_deepsets(self):
        seed = 17
        deepsets = DeepSetsModel(d=3, L=2, width=8, seed=seed)
        janossy = JanossyModel(d=3, L=2, k=1, width=8, seed=seed)
        rng = np.random.default_rng(18)
        for _ in range(5):
            x = rng.normal(size=(6, 3))
            np.testing.assert_allclose(
                janossy.predict(x), deepsets.predict(x), rtol=0, atol=1e-12
            )

    def test_bitwise_permutation_invariance(self):
        m = JanossyModel(d=2, L=1, k=2, width=8, seed=19)
        x = rng_set(19, n=6, d=2)
        ref = m.predict(x).tobytes()
        rng = np.random.default_rng(20)
        for _ in range(20):
            assert m.predict(x[rng.permutation(6)]).tobytes() == ref

    def test_requires_enough_elements(self):
        m = JanossyModel(d=2, L=1, k=3, width=4, seed=21)
        with pytest.raises(ShapeMismatch):
            m.predict(rng_set(21, n=2, d=2))

    def test_tape_ops_do_not_grow_with_the_batch(self):
        # one gather builds the tuples of the whole batch
        m = JanossyModel(d=1, L=1, k=2, width=8, seed=22)
        rng = np.random.default_rng(22)

        def op_names(batch):
            x = Tensor(rng.normal(size=(batch, 20, 1)))
            y = Tensor(rng.normal(size=(batch, 1)))
            with GradTape() as tape:
                batch_loss("mse", m.forward(x), y)
            return [op.name for op in tape._ops]

        single = op_names(1)
        assert op_names(32) == single
        assert len(single) <= 20 and single.count("gather_rows") == 1


def ordered_forward(model, x):
    """The model's plain forward on one (n,d) set in the order given."""
    return model.forward(Tensor(x[None])).data.reshape(model.out_dim)


class TestPiSgd:
    def test_single_element_trivial(self):
        m = PiSgdModel(n=1, d=2, L=1, hidden=4, seed=22)
        x = rng_set(22, n=1, d=2)
        np.testing.assert_allclose(m.predict(x), ordered_forward(m, x), atol=1e-12)

    def test_constant_rows_average_equals_single(self):
        m = PiSgdModel(n=4, d=2, L=1, hidden=4, seed=23)
        x = np.tile(np.array([[0.3, -0.2]]), (4, 1))
        np.testing.assert_allclose(m.predict(x), ordered_forward(m, x), atol=1e-12)

    def test_predict_averages_samples_from_the_model_seed(self):
        m = PiSgdModel(n=6, d=2, L=1, hidden=8, permutations=7, seed=26)
        x = rng_set(26, n=6, d=2)
        rng = np.random.default_rng(seed_chain(26, 9901))
        samples = m.predict_samples(x, rng)
        assert samples.shape == (7, 1)
        assert m.predict(x).tobytes() == samples.mean(axis=0).tobytes()

    def test_sample_spread_diagnostic(self):
        m = PiSgdModel(n=6, d=2, L=1, hidden=8, seed=24)
        x = rng_set(24, n=6, d=2)
        samples = m.predict_samples(x, np.random.default_rng(2))
        assert samples.shape == (20, 1)
        assert samples.std(axis=0)[0] > 0.0

    def test_training_forward_reads_an_order_drawn_from_rng(self):
        m = PiSgdModel(n=3, d=2, L=1, hidden=4, seed=25)
        x = rng_set(25, n=3, d=2)
        perm = np.random.default_rng(7).permutation(3)
        out = m.forward(x.reshape(1, 3, 2), training=True,
                        rng=np.random.default_rng(7)).data
        np.testing.assert_allclose(
            out.reshape(1), ordered_forward(m, x[perm]), atol=1e-12
        )


# one small model of every kind
MODEL_FACTORIES = [
    lambda: SpanModel(n=4, d=2, L=1, hidden=6, sinkhorn_iters=10, seed=26),
    lambda: SpanNoApnModel(n=4, d=2, L=1, hidden=6, seed=27),
    lambda: SpanFcModel(n=4, d=2, L=1, width=6, sinkhorn_iters=10, seed=28),
    lambda: DeepSetsModel(d=2, L=1, width=6, seed=29),
    lambda: JanossyModel(d=2, L=1, k=2, width=6, seed=30),
    lambda: PiSgdModel(n=4, d=2, L=1, hidden=6, seed=31),
]
MODEL_FACTORY_IDS = ["span", "span-no-apn", "span-fc", "deepsets", "janossy", "pisgd"]


class TestGroupGradients:
    @pytest.mark.parametrize("factory", MODEL_FACTORIES, ids=MODEL_FACTORY_IDS)
    def test_group_gradients_match_full_gradient_bytes(self, factory):
        # the tape prunes backward work to the requested group; the bits
        # must be those of the gradient over every parameter
        model = factory()
        x = np.stack([rng_set(40 + k, n=4, d=2) for k in range(3)])
        with GradTape() as tape:
            pred = model.forward(Tensor(x))
            loss = (pred * pred).sum()
        params = model.parameters()
        full = dict(zip(params, tape.gradient(loss, list(params.values()))))
        assert any(np.any(g.data != 0.0) for g in full.values())
        groups = [model.learner_parameters(), model.adversary_parameters()]
        assert sorted(k for group in groups for k in group) == sorted(params)
        for group in groups:
            grads = tape.gradient(loss, list(group.values()))
            for name, g in zip(group, grads):
                assert g.data.tobytes() == full[name].data.tobytes(), name


class TestCheckpoints:
    @pytest.mark.parametrize("factory", MODEL_FACTORIES)
    def test_round_trip_bit_exact(self, tmp_path, factory):
        model = factory()
        # move parameters off their init values so loading is a real test
        for p in model.parameters().values():
            p.data = p.data + 0.01 * np.random.default_rng(0).normal(size=p.shape)
        x = rng_set(32, n=4, d=2)
        before = model.predict(x)
        save_checkpoint(tmp_path / "ckpt", model, extra={"note": 1})
        loaded, extra = load_checkpoint(tmp_path / "ckpt")
        assert extra == {"note": 1}
        after = loaded.predict(x)
        assert before.tobytes() == after.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        model = SpanModel(n=3, d=2, L=1, hidden=4, sinkhorn_iters=5, seed=33)
        save_checkpoint(tmp_path / "a", model)
        save_checkpoint(tmp_path / "b", model)
        for name in ["manifest.json"] + [f"{k}.sptn" for k in model.parameters()]:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("factory", MODEL_FACTORIES, ids=MODEL_FACTORY_IDS)
    @pytest.mark.parametrize("clone", [
        copy.deepcopy,
        lambda m: pickle.loads(pickle.dumps(m)),
    ], ids=["deepcopy", "pickle"])
    def test_copy_round_trip(self, factory, clone):
        model = factory()
        for p in model.parameters().values():
            p.data = p.data + 0.01 * np.random.default_rng(1).normal(size=p.shape)
        copied = clone(model)
        assert copied.spec() == model.spec()
        params = model.parameters()
        copied_params = copied.parameters()
        assert list(copied_params) == list(params)
        for name, p in params.items():
            assert copied_params[name] is not p
            assert copied_params[name].data.tobytes() == p.data.tobytes()
        x = np.stack([rng_set(35 + k, n=4, d=2) for k in range(3)])
        assert copied.predict_batch(x).tobytes() == model.predict_batch(x).tobytes()

    def test_build_model_round_trip(self):
        model = DeepSetsModel(d=3, L=2, width=8, pooling="max", seed=34)
        rebuilt = build_model(model.spec())
        assert rebuilt.spec() == model.spec()
