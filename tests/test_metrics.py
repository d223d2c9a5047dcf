import csv

import numpy as np
import pytest

from spanlab.cli import model_from_config
from spanlab.metrics import (
    MetricError,
    MetricRow,
    ablation_fractions,
    aggregate_report,
    average_relative_error,
    cosine_metric,
    invariance_delta,
    relative_error,
    write_results_csv,
)
from spanlab.models import DeepSetsModel, SpanModel
from spanlab.tasks import SetInstance, gen_biased_maxdigit, synthetic_digits


class TestRelativeError:
    def test_basic(self):
        assert relative_error(2.0, 1.0) == 0.5
        assert relative_error(2.0, 2.0) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y, y_hat = rng.uniform(0.5, 5.0, size=2)
            c = float(rng.uniform(0.1, 100.0))
            assert relative_error(c * y, c * y_hat) == pytest.approx(
                relative_error(y, y_hat), rel=1e-12
            )

    def test_near_zero_reference_rejected(self):
        with pytest.raises(MetricError):
            relative_error(1e-12, 1.0)

    def test_average_over_instances(self):
        class Doubler:
            def predict_batch(self, x):
                return 2.0 * x.sum(axis=(1, 2))[:, None]

        data = [SetInstance(np.ones((2, 1)), np.array([2.0]))]
        assert average_relative_error(Doubler(), data) == 1.0


class TestInvarianceDelta:
    def test_deepsets_exactly_zero(self):
        model = DeepSetsModel(d=3, L=2, width=8, seed=0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.normal(size=(6, 3))
            res = invariance_delta(model, x, rng=np.random.default_rng(2))
            assert res.value == 0.0
            assert res.max_component_std == 0.0

    def test_span_uniform_pn_exactly_zero(self):
        model = SpanModel(n=5, d=2, L=1, hidden=6, sinkhorn_iters=10, seed=1)
        model.pn.weight.data = np.zeros((2, 5))
        x = np.random.default_rng(3).normal(size=(5, 2))
        res = invariance_delta(model, x, rng=np.random.default_rng(4))
        assert res.value == 0.0

    def test_untrained_span_noise_floor(self):
        # an untrained adversarial model sits well above the float rounding
        # floor: with random permutation-network weights the order the LSTM
        # reads still depends on the input order, so invariance has to be
        # learnt through the min-max game rather than hold by algebra
        model = SpanModel(n=6, d=3, L=1, hidden=8, tau=0.1,
                          sinkhorn_iters=20, seed=2)
        x = np.random.default_rng(5).normal(size=(6, 3)) * 3.0
        res = invariance_delta(model, x, rng=np.random.default_rng(6))
        assert res.value > 1e-2

    def test_untrained_plain_lstm_is_order_sensitive(self):
        # the metric is not vacuous: without the permutation network an
        # untrained LSTM readout swings wildly across input orders
        from spanlab.models import SpanNoApnModel

        model = SpanNoApnModel(n=6, d=3, L=1, hidden=8, seed=7)
        x = np.random.default_rng(5).normal(size=(6, 3)) * 3.0
        res = invariance_delta(model, x, rng=np.random.default_rng(8))
        assert res.value > 1e-2

    def test_zero_mean_fallback_flagged(self):
        class Alternating:
            def predict_batch(self, x):
                return np.where(np.arange(len(x)) % 2, -1.0, 1.0)[:, None]

        x = np.zeros((3, 1))
        res = invariance_delta(Alternating(), x, num_perms=10,
                               rng=np.random.default_rng(7))
        assert res.absolute_fallback
        assert res.value == pytest.approx(1.0)


class TestAblationFractions:
    class FixedDigit:
        def __init__(self, digit):
            self.digit = digit

        def predict_batch(self, x):
            return np.tile(np.eye(10)[self.digit], (len(x), 1))

    class LastDigit:
        def __init__(self, instances):
            self.lookup = {i.elements.tobytes(): i.digits[-1] for i in instances}

        def predict_batch(self, x):
            return np.eye(10)[[self.lookup[s.tobytes()] for s in x]]

    def test_fractions_sum_to_one(self):
        images, labels = synthetic_digits(per_class=10, seed=8)
        ds = gen_biased_maxdigit(images, labels, 4, 50, seed=9, biased=False)
        fractions = ablation_fractions(self.FixedDigit(3), ds.instances)
        assert sum(fractions) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_max_classifier(self):
        images, labels = synthetic_digits(per_class=10, seed=10)
        ds = gen_biased_maxdigit(images, labels, 4, 50, seed=11, biased=False)

        class Oracle:
            def __init__(self, instances):
                self.lookup = {i.elements.tobytes(): max(i.digits)
                               for i in instances}

            def predict_batch(self, x):
                return np.eye(10)[[self.lookup[s.tobytes()] for s in x]]

        max_f, last_f, other_f = ablation_fractions(Oracle(ds.instances),
                                                    ds.instances)
        assert max_f == 1.0 and last_f == 0.0 and other_f == 0.0

    def test_last_predictor_counts_ties_as_max(self):
        images, labels = synthetic_digits(per_class=10, seed=12)
        ds = gen_biased_maxdigit(images, labels, 4, 400, seed=13, biased=False)
        max_f, last_f, other_f = ablation_fractions(
            self.LastDigit(ds.instances), ds.instances
        )
        # the last element is the max in about 1/4 of unbiased sets
        assert other_f == 0.0
        assert 0.15 <= max_f <= 0.35
        assert last_f == pytest.approx(1.0 - max_f, abs=1e-12)


class TestBatchedEvaluation:
    """Each metric predicts in one batch; a per-set forward is the reference."""

    N, D, L = 5, 3, 10
    CONFIGS = {
        "span": {"hidden": 6, "tau": 0.5, "sinkhorn_iters": 5},
        "span-fc": {"width": 8, "tau": 0.5, "sinkhorn_iters": 5},
        "span-no-apn": {"hidden": 6},
        "deepsets": {"width": 8},
        "janossy": {"k": 2, "width": 8},
        "pisgd": {"hidden": 6},
    }

    class PerSet:
        def __init__(self, model):
            self.model = model

        def predict_batch(self, x):
            return np.stack([self.model.predict(s) for s in x])

    def predictor(self, kind):
        # pi-SGD's predict_batch is its permutation-averaged predictor
        return model_from_config(dict(self.CONFIGS[kind], kind=kind, seed=3),
                                 self.N, self.D, self.L)

    def instances(self):
        rng = np.random.default_rng(40)
        return [
            SetInstance(rng.normal(size=(self.N, self.D)),
                        rng.uniform(0.5, 2.0, size=self.L),
                        digits=[int(v) for v in rng.integers(0, 10, self.N)])
            for _ in range(20)
        ]

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_matches_per_set_forward(self, kind):
        predictor, insts = self.predictor(kind), self.instances()
        reference = self.PerSet(predictor)
        assert average_relative_error(predictor, insts) == pytest.approx(
            average_relative_error(reference, insts), rel=1e-12)
        assert ablation_fractions(predictor, insts) == pytest.approx(
            ablation_fractions(reference, insts), rel=1e-12)
        for i, inst in enumerate(insts):
            got = invariance_delta(predictor, inst.elements,
                                   rng=np.random.default_rng(i))
            want = invariance_delta(reference, inst.elements,
                                    rng=np.random.default_rng(i))
            assert got.value == pytest.approx(want.value, rel=1e-12)
            assert got.max_component_std == pytest.approx(
                want.max_component_std, rel=1e-12)

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_delta_one_forward_same_permutations(self, kind):
        model = self.predictor(kind)
        forward, calls = model.forward, []
        model.forward = lambda *a, **k: calls.append(1) or forward(*a, **k)
        for i, inst in enumerate(self.instances()):
            rng = np.random.default_rng(i)
            invariance_delta(model, inst.elements, rng=rng)
            assert len(calls) == i + 1
            drawn = np.random.default_rng(i)
            for _ in range(20):
                drawn.permutation(self.N)
            assert rng.bit_generator.state == drawn.bit_generator.state


class TestCosine:
    def test_negated_vector(self):
        v = np.array([0.6, 0.8])
        assert cosine_metric(v, -v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_metric([1.0, 0.0], [0.0, 2.0]) == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(MetricError):
            cosine_metric([0.0, 0.0], [1.0, 0.0])


def read_results_csv(path):
    with open(path, newline="") as fh:
        return [MetricRow(
            task=rec["task"], model=rec["model"], seed=int(rec["seed"]),
            n=int(rec["n"]), d=int(rec["d"]), metric=rec["metric"],
            value=float(rec["value"]), std=float(rec["std"]),
        ) for rec in csv.DictReader(fh)]


class TestReports:
    def rows(self):
        return [
            MetricRow("percentile", "span", 1, 20, 1, "rel_error", 0.05, 0.0),
            MetricRow("percentile", "span", 2, 20, 1, "rel_error", 0.07, 0.0),
            MetricRow("percentile", "deepsets", 1, 20, 1, "rel_error", 0.11, 0.0),
        ]

    def test_csv_round_trip_exact(self, tmp_path):
        rows = self.rows()
        rows[0].value = 0.1234567890123456789  # exercise repr round-trip
        path = tmp_path / "results.csv"
        write_results_csv(path, rows)
        assert read_results_csv(path) == rows

    def test_aggregate_means_and_stds(self, tmp_path):
        agg = aggregate_report(self.rows(), tmp_path)
        span = [r for r in agg if r.model == "span"][0]
        assert span.seed == -1
        assert span.value == pytest.approx(0.06)
        assert span.std == pytest.approx(np.std([0.05, 0.07]))
        stored = read_results_csv(tmp_path / "results.csv")
        assert len(stored) == len(self.rows()) + len(agg)

    def test_plot_data_table(self, tmp_path):
        aggregate_report(self.rows(), tmp_path)
        table = (tmp_path / "plot_percentile_rel_error.dat").read_text()
        lines = table.splitlines()
        assert lines[0].split() == ["n", "deepsets", "span"]
        cells = lines[1].split()
        assert cells[0] == "20"
        assert float(cells[1]) == pytest.approx(0.11)
        assert float(cells[2]) == pytest.approx(0.06)
