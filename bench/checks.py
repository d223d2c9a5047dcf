"""Correctness checks for the benchmark, made apart from the program.

Labels are recomputed here in plain Python, gradients are compared against
this module's own central differences, and soft permutations against this
module's own unrolled Sinkhorn.  Every check returns a list of failure
messages; an empty list means the check passed.  None of these functions
imports ``spanlab``, so a fault in the program cannot hide in its own check.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np


def nearest_rank_percentile(values, r):
    """Sorted value at 1-based rank ceil(r * n / 100)."""
    ordered = sorted(float(v) for v in values)
    rank = math.ceil(r * len(ordered) / 100.0)
    return ordered[rank - 1]


def max_digit_one_hot(digits):
    label = [0.0] * 10
    label[max(digits)] = 1.0
    return label


def check_percentile_labels(instances, r):
    failures = []
    for i, inst in enumerate(instances):
        want = nearest_rank_percentile(np.ravel(inst.elements), r)
        got = [float(v) for v in np.ravel(inst.label)]
        if got != [want]:
            failures.append(f"set {i}: label {got}, nearest-rank {r}th "
                            f"percentile is {want}")
    return failures


def check_maxdigit_labels(instances, biased):
    """One-hot of the max digit; biased sets hold their max digit last."""
    failures = []
    for i, inst in enumerate(instances):
        digits = [int(d) for d in inst.digits]
        got = [float(v) for v in np.ravel(inst.label)]
        if got != max_digit_one_hot(digits):
            failures.append(f"set {i}: label {got} is not the one-hot of "
                            f"max digit {max(digits)}")
        if biased and digits[-1] != max(digits):
            failures.append(f"biased set {i}: digits {digits} do not end "
                            f"with their max")
    return failures


def check_history(rows):
    """rows: (phase, loss) pairs in step order.  Every loss is finite and the
    mean learner loss over the last tenth of learner steps is below the mean
    over the first tenth."""
    failures = [f"step {i}: loss {loss!r} is not finite"
                for i, (_, loss) in enumerate(rows) if not math.isfinite(loss)]
    learner = [loss for phase, loss in rows if phase == "learner"]
    if not learner:
        return failures + ["history has no learner steps"]
    tenth = max(1, len(learner) // 10)
    first = sum(learner[:tenth]) / tenth
    last = sum(learner[-tenth:]) / tenth
    if not last < first:
        failures.append(f"mean learner loss over the last tenth ({last:.6g}) "
                        f"is not below the first tenth ({first:.6g})")
    return failures


def central_differences(loss_of, weight, h=1e-5):
    """Central-difference gradient of ``loss_of()`` with respect to every
    entry of the float64 array ``weight``, which is perturbed in place and
    restored."""
    if not weight.flags.c_contiguous:
        raise ValueError("central_differences: weight must be C-contiguous")
    flat = weight.reshape(-1)
    grad = np.empty(flat.size)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        up = loss_of()
        flat[k] = orig - h
        down = loss_of()
        flat[k] = orig
        grad[k] = (up - down) / (2.0 * h)
    return grad.reshape(weight.shape)


def gradient_rel_error(analytic, numeric):
    """max_k |a_k - n_k| / max(1e-8, |a_k| + |n_k|)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradient(analytic, numeric, tol=1e-4):
    err = gradient_rel_error(analytic, numeric)
    if not err <= tol:
        return [f"tape gradient differs from central differences by "
                f"{err:.3e} (limit {tol:g})"]
    return []


def unrolled_sinkhorn(logits, temperature, iterations):
    """exp of ``iterations`` rounds of log-space row then column
    normalisation of logits / temperature, over the last two axes."""
    log_p = np.asarray(logits, dtype=np.float64) / temperature
    for _ in range(iterations):
        for axis in (-1, -2):
            top = log_p.max(axis=axis, keepdims=True)
            log_p = log_p - (top + np.log(np.exp(log_p - top).sum(axis=axis, keepdims=True)))
    return np.exp(log_p)


def row_residual(p):
    """Largest deviation of a row sum of ``p`` (..., n, n) from 1."""
    return float(np.max(np.abs(np.asarray(p).sum(axis=-1) - 1.0)))


def check_soft_permutation(p, reference, tol=1e-6, ref_tol=1e-9):
    """``p`` is nonnegative, its columns sum to 1 (each Sinkhorn round ends
    with the column normalisation) and it matches ``reference``, the same
    number of Sinkhorn rounds computed apart from the program.  Row sums are
    not required to be 1: with a fixed number of rounds they are only as
    close as the rounds bring them, which ``row_residual`` reports."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != np.shape(reference) or p.shape[-1] != p.shape[-2]:
        return [f"soft permutation shape {p.shape} does not match the "
                f"reference {np.shape(reference)}"]
    failures = []
    if not np.all(p >= 0.0):
        failures.append(f"min entry {p.min():.3e} is negative")
    col = float(np.max(np.abs(p.sum(axis=-2) - 1.0)))
    if not col <= tol:
        failures.append(f"column sums deviate from 1 by {col:.3e} (limit {tol:g})")
    diff = float(np.max(np.abs(p - reference)))
    if not diff <= ref_tol:
        failures.append(f"differs from the unrolled Sinkhorn reference by "
                        f"{diff:.3e} (limit {ref_tol:g})")
    return failures


def check_bit_identical(expected, got):
    """Two lists of prediction arrays agree bit for bit."""
    if len(expected) != len(got):
        return [f"{len(got)} predictions, expected {len(expected)}"]
    return [f"set {i}: prediction {b!r} differs from {a!r}"
            for i, (a, b) in enumerate(zip(expected, got))
            if np.asarray(a).tobytes() != np.asarray(b).tobytes()]


def relative_error_mean(labels, predictions):
    errors = [abs(y - p) / abs(y) for y, p in zip(labels, predictions)]
    return sum(errors) / len(errors)


def ablation_split(predicted, digit_lists):
    """Fractions of sets predicted as their max digit, their last digit, or
    anything else; max wins ties."""
    counts = [0, 0, 0]
    for pred, digits in zip(predicted, digit_lists):
        if pred == max(digits):
            counts[0] += 1
        elif pred == digits[-1]:
            counts[1] += 1
        else:
            counts[2] += 1
    return [c / len(digit_lists) for c in counts]


def check_metric_values(reported, recomputed, rel_tol=1e-12):
    """reported, recomputed: metric name -> value."""
    failures = []
    for name, want in recomputed.items():
        got = reported.get(name)
        if got is None:
            failures.append(f"results.csv has no {name} row")
        elif not abs(got - want) <= rel_tol * max(1.0, abs(want)):
            failures.append(f"results.csv {name} = {got!r}, recomputed {want!r}")
    return failures


def check_fractions(fractions, tol=1e-12):
    total = sum(fractions)
    if not abs(total - 1.0) <= tol:
        return [f"ablation fractions {fractions} sum to {total!r}"]
    return []


def hash_tree(root):
    """Relative path -> sha256 of every file under ``root``."""
    root = Path(root)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def check_same_hashes(trees):
    """trees: hash_tree results of runs that must be byte-identical."""
    failures = []
    for i, tree in enumerate(trees[1:], start=1):
        if tree != trees[0]:
            changed = sorted(
                k for k in set(tree) | set(trees[0])
                if tree.get(k) != trees[0].get(k)
            )
            failures.append(f"round {i + 1} differs from round 1 in "
                            f"{', '.join(changed)}")
    return failures
