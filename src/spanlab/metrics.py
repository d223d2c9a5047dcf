"""Evaluation metrics and report files.

Includes the permutation-invariance statistic: the ratio of the standard
deviation to the mean of a frozen model's predictions across random row
permutations of one input set (max over output coordinates, with a flagged
absolute-std fallback when the mean vanishes).

Evaluation is batched: a metric predicts its whole instance list, and the
invariance statistic all permuted copies of its set, with one
``model.predict_batch`` call on a ``(B, n, d)`` stack.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DeltaResult",
    "MetricError",
    "MetricRow",
    "ablation_fractions",
    "aggregate_report",
    "average_relative_error",
    "cosine_metric",
    "invariance_delta",
    "predict_instances",
    "relative_error",
    "write_results_csv",
]


class MetricError(ValueError):
    """Metric undefined for the given inputs."""


_EPS = 1e-9


def relative_error(y, y_hat):
    """|y - y_hat| / |y|; rejects near-zero references."""
    y = float(y)
    y_hat = float(y_hat)
    if abs(y) <= _EPS:
        raise MetricError(f"relative_error: reference {y} too close to zero")
    return abs(y - y_hat) / abs(y)


def predict_instances(model, instances):
    """(len(instances), L) predictions for equal-shape sets, in one batch."""
    return model.predict_batch(np.stack([inst.elements for inst in instances]))


def average_relative_error(model, instances):
    """Mean relative error of scalar predictions over a dataset."""
    preds = predict_instances(model, instances)
    errors = [
        relative_error(inst.label[0], pred[0])
        for inst, pred in zip(instances, preds)
    ]
    return float(np.mean(errors))


@dataclass
class DeltaResult:
    value: float               # max over coordinates of std/|mean|
    max_component_std: float   # max per-coordinate std (vector diagnostics)
    absolute_fallback: bool    # true when a coordinate mean was ~0


def invariance_delta(model, x, num_perms=20, rng=None):
    """Prediction spread across random row permutations of one set.

    Per output coordinate: std/|mean| over ``num_perms`` permuted copies,
    predicted as one batch; coordinates whose mean is within 1e-12 of zero
    report the absolute std instead and set the fallback flag.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    x = np.asarray(x, dtype=np.float64)
    perms = np.stack([rng.permutation(x.shape[0]) for _ in range(num_perms)])
    preds = model.predict_batch(x[perms])
    # anchor on the first prediction so bit-identical passes give std == 0
    # exactly instead of picking up rounding from the mean
    shifted = preds - preds[0]
    means = preds[0] + shifted.mean(axis=0)
    stds = shifted.std(axis=0)
    ratios = np.empty_like(means)
    fallback = False
    for i, (m, s) in enumerate(zip(means, stds)):
        if abs(m) <= 1e-12:
            ratios[i] = s
            fallback = True
        else:
            ratios[i] = s / abs(m)
    return DeltaResult(
        value=float(ratios.max()),
        max_component_std=float(stds.max()),
        absolute_fallback=fallback,
    )


def ablation_fractions(model, instances):
    """Fractions of sets whose predicted digit equals the max digit, the
    last element's digit, or anything else.  Max wins exact ties."""
    if any(inst.digits is None for inst in instances):
        raise MetricError("ablation_fractions: instance lacks digit labels")
    counts = np.zeros(3)
    for inst, scores in zip(instances, predict_instances(model, instances)):
        pred = int(np.argmax(scores))
        top = max(inst.digits)
        last = inst.digits[-1]
        if pred == top:
            counts[0] += 1
        elif pred == last:
            counts[1] += 1
        else:
            counts[2] += 1
    fractions = counts / len(instances)
    return float(fractions[0]), float(fractions[1]), float(fractions[2])


def cosine_metric(v, v_hat):
    """Absolute cosine similarity in [0, 1]."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    v_hat = np.asarray(v_hat, dtype=np.float64).reshape(-1)
    nv = np.linalg.norm(v)
    nh = np.linalg.norm(v_hat)
    if nv == 0.0 or nh == 0.0:
        raise MetricError("cosine_metric: zero vector")
    return float(abs(v @ v_hat) / (nv * nh))


# ---------------------------------------------------------------------------
# report files


@dataclass
class MetricRow:
    task: str
    model: str
    seed: int
    n: int
    d: int
    metric: str
    value: float
    std: float = 0.0


_CSV_FIELDS = ["task", "model", "seed", "n", "d", "metric", "value", "std"]


def write_results_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_FIELDS)
        for r in rows:
            writer.writerow(
                [r.task, r.model, r.seed, r.n, r.d, r.metric,
                 repr(r.value), repr(r.std)]
            )


AGGREGATE_SEED = -1  # seed column sentinel for rows averaged across runs


def aggregate_report(rows, out_dir):
    """Write results.csv (per-run rows plus mean/std rows aggregated over
    seeds) and one whitespace-separated plot-data table per metric with an
    x column (set size) and one y column per model."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    groups = {}
    for r in rows:
        groups.setdefault((r.task, r.model, r.n, r.d, r.metric), []).append(r)
    aggregated = []
    for (task, model, n, d, metric), members in sorted(groups.items()):
        values = np.array([m.value for m in members])
        aggregated.append(MetricRow(
            task=task, model=model, seed=AGGREGATE_SEED, n=n, d=d,
            metric=metric, value=float(values.mean()),
            std=float(values.std()),
        ))
    write_results_csv(out_dir / "results.csv", list(rows) + aggregated)

    by_metric = {}
    for r in aggregated:
        by_metric.setdefault((r.task, r.metric), {}).setdefault(
            r.n, {}
        )[r.model] = r.value
    for (task, metric), table in sorted(by_metric.items()):
        models = sorted({m for row in table.values() for m in row})
        name = f"plot_{task}_{metric}.dat".replace(" ", "_")
        with open(out_dir / name, "w") as fh:
            fh.write("n " + " ".join(models) + "\n")
            for n in sorted(table):
                cells = [str(n)]
                for m in models:
                    value = table[n].get(m)
                    cells.append("nan" if value is None else repr(value))
                fh.write(" ".join(cells) + "\n")
    return aggregated
