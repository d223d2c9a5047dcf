"""Negative controls for the benchmark's checks: each accepts the program's
real output and rejects a corrupted copy of it.

    python3 -m pytest bench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from spanlab.models import SpanModel, load_checkpoint, save_checkpoint  # noqa: E402
from spanlab.tasks import gen_biased_maxdigit, gen_percentile, synthetic_digits  # noqa: E402
from spanlab.tensor import GradTape, Tensor  # noqa: E402
from spanlab.train import batch_loss  # noqa: E402


def test_percentile_label_check_rejects_a_corrupted_label():
    instances = gen_percentile(n=9, r=50, count=20, seed=4).instances
    assert checks.check_percentile_labels(instances, 50) == []
    instances[7].label = instances[7].label + 1.0
    failures = checks.check_percentile_labels(instances, 50)
    assert len(failures) == 1 and failures[0].startswith("set 7:")


def test_maxdigit_label_check_rejects_a_wrong_label_and_an_unbiased_order():
    images, labels = synthetic_digits(per_class=5, seed=1)
    instances = gen_biased_maxdigit(images, labels, 4, 10, seed=2,
                                    biased=True).instances
    assert checks.check_maxdigit_labels(instances, biased=True) == []
    instances[3].label = np.roll(instances[3].label, 1)
    instances[5].digits = instances[5].digits[::-1]
    failures = checks.check_maxdigit_labels(instances, biased=True)
    assert [f.split(":")[0] for f in failures] == ["set 3", "biased set 5"]


def test_history_check_rejects_nonfinite_and_rising_losses():
    falling = [("learner", 10.0 - i) for i in range(10)]
    assert checks.check_history(falling) == []
    assert checks.check_history(falling[:4] + [("adversary", float("nan"))])
    assert checks.check_history(falling[::-1])


def _model_and_batch():
    model = SpanModel(n=5, d=2, L=1, hidden=6, tau=0.5, sinkhorn_iters=10, seed=3)
    rng = np.random.default_rng(8)
    return model, rng.normal(size=(4, 5, 2)), rng.normal(size=(4, 1))


def test_soft_permutation_check_rejects_matrices_that_are_not_the_sinkhorn_output():
    model, x, _ = _model_and_batch()
    pn = model.pn
    p = pn.forward(Tensor(x)).data
    reference = checks.unrolled_sinkhorn(np.maximum(x @ pn.weight.data, 0.0),
                                         pn.temperature, pn.iterations)
    assert checks.check_soft_permutation(p, reference) == []

    negative = p.copy()
    negative[0, 0, 0] = -1e-3
    assert checks.check_soft_permutation(negative, reference)
    rescaled = p.copy()
    rescaled[1, :, 2] *= 1.01  # column 2 of set 1 no longer sums to 1
    assert checks.check_soft_permutation(rescaled, reference)
    swapped = p[:, :, ::-1].copy()  # still doubly stochastic, but not P
    assert checks.check_soft_permutation(swapped, reference)


def test_gradient_check_rejects_a_perturbed_gradient():
    model, x, y = _model_and_batch()
    weight = model.pn.weight

    def loss_value():
        return batch_loss("mse", model.forward(Tensor(x)), Tensor(y)).item()

    with GradTape() as tape:
        loss = batch_loss("mse", model.forward(Tensor(x)), Tensor(y))
    analytic = tape.gradient(loss, [weight])[0].data
    numeric = checks.central_differences(loss_value, weight.data)
    assert checks.check_gradient(analytic, numeric) == []

    perturbed = analytic.copy()
    perturbed.flat[np.argmax(np.abs(perturbed))] *= 1.001
    assert checks.check_gradient(perturbed, numeric)


def test_checkpoint_blob_with_one_flipped_bit_is_rejected(tmp_path):
    model, x, _ = _model_and_batch()
    save_checkpoint(tmp_path / "ckpt", model)
    before = checks.hash_tree(tmp_path / "ckpt")
    reference = [model.predict(s) for s in x]

    blob = tmp_path / "ckpt" / "readout.weight.sptn"
    raw = bytearray(blob.read_bytes())
    header = 12 + 8 * 2  # magic, version, rank, two u64 extents
    raw[header + 6] ^= 0x10  # lowest exponent bit of the first weight
    blob.write_bytes(bytes(raw))

    assert checks.check_same_hashes([before, checks.hash_tree(tmp_path / "ckpt")])
    loaded, _ = load_checkpoint(tmp_path / "ckpt")
    assert checks.check_bit_identical(reference, [loaded.predict(s) for s in x])


def test_metric_checks_reject_a_mismatch():
    assert checks.check_metric_values({"rel_error": 0.25}, {"rel_error": 0.25}) == []
    assert checks.check_metric_values({"rel_error": 0.25}, {"rel_error": 0.2500001})
    assert checks.check_metric_values({}, {"frac_max": 0.5})
    assert checks.check_fractions([0.5, 0.25, 0.25]) == []
    assert checks.check_fractions([0.5, 0.25, 0.2])


@pytest.mark.parametrize("values, r, want", [
    ([3, 1, 2], 50, 2.0), ([4, 1, 3, 2], 50, 2.0), ([5, 1], 100, 5.0),
])
def test_nearest_rank_percentile(values, r, want):
    assert checks.nearest_rank_percentile(values, r) == want
