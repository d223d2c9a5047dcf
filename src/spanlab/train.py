"""Training loops.

The adversarial learner alternates block coordinate steps: freeze the
permutation network and descend the learner parameters, then freeze the
learner and ascend the permutation-network weight on the same loss, with
gradients flowing through the unrolled Sinkhorn normalization.  Every step
is one Adam step; an ascent step is descent on the negated gradient.
Baselines train by plain minimization; every model through one call,
``model.forward(x, training=True, rng=rng)``.  Runs are bit-reproducible:
the batch order comes from stream 7901 of the config seed and the epoch, and
each step's ``rng`` (dropout masks, pi-SGD's sampled orders) from stream 5501
and the global batch index, so a checkpoint plus counters resumes exactly,
and the history.csv beside it supplies the rows trained so far.

``has_type`` is the one rule that judges the type of a config value, for
``TrainConfig.validate`` and for every block the CLI reads.
"""

from __future__ import annotations

import csv
import shutil
from dataclasses import dataclass
from pathlib import Path
from types import GenericAlias, UnionType
from typing import get_type_hints

import numpy as np

from spanlab.models import CheckpointError, load_checkpoint, save_checkpoint
from spanlab.nn import OptimizerState, adam_step, clip_global_norm, seed_chain
from spanlab.tensor import GradTape, Tensor, read_tensor_blob, write_tensor_blob

__all__ = [
    "HistoryRow",
    "TrainConfig",
    "TrainingDiverged",
    "batch_loss",
    "batch_loss_value",
    "has_type",
    "load_history",
    "load_train_checkpoint",
    "save_history",
    "train_span",
    "train_standard",
    "type_error",
]

_LOSS_KINDS = ("mse", "eigvec-cosine", "cross-entropy")


class TrainingDiverged(RuntimeError):
    """Loss became non-finite or exceeded the divergence limit."""


def has_type(value, kind):
    """Whether a config value has the annotated type ``kind``: ``float``
    takes an int but not NaN or an infinity, no number is a bool and no bool
    a number, and ``X | Y``, ``list[X]`` and ``None`` read as they do in an
    annotation."""
    if isinstance(kind, UnionType):
        return any(has_type(value, option) for option in kind.__args__)
    if isinstance(kind, GenericAlias):
        return isinstance(value, kind.__origin__) and all(
            has_type(item, kind.__args__[0]) for item in value)
    if isinstance(value, bool):
        return kind is bool
    if isinstance(value, float) and not np.isfinite(value):
        return False  # JSON's NaN and Infinity
    return isinstance(value, (int, float) if kind is float else kind)


def type_error(owner, values, types):
    """``"<owner>: <key> must be <type>, not <value!r>"`` for the first of
    the ``values`` (a dict) that lacks its type in ``types``, or None."""
    for key, value in values.items():
        kind = types[key]
        if not has_type(value, kind):
            name = kind.__name__ if isinstance(kind, type) else kind
            return f"{owner}: {key} must be {name}, not {value!r}"
    return None


@dataclass
class TrainConfig:
    loss: str = "mse"
    learner_lr: float = 1e-4
    adversary_lr: float = 1e-4
    batch_size: int = 32
    outer_iters: int = 100
    learner_steps: int = 1
    adversary_steps: int = 1
    grad_clip: float = 5.0
    seed: int = 0
    checkpoint_every: int = 0
    divergence_limit: float = 1e6

    def validate(self, example_count=None):
        if error := type_error("TrainConfig", vars(self), get_type_hints(TrainConfig)):
            raise ValueError(error)
        if self.loss not in _LOSS_KINDS:
            raise ValueError(f"TrainConfig: unknown loss {self.loss!r}")
        if self.learner_lr < 0 or self.adversary_lr < 0:
            raise ValueError("TrainConfig: learning rates must be nonnegative")
        if self.batch_size < 1 or self.outer_iters < 0:
            raise ValueError("TrainConfig: bad batch size or iteration count")
        if self.learner_steps < 0 or self.adversary_steps < 0:
            raise ValueError("TrainConfig: step counts must be nonnegative")
        for key in ("grad_clip", "seed", "checkpoint_every"):
            if getattr(self, key) < 0:
                raise ValueError(f"TrainConfig: {key} must be nonnegative")
        if self.divergence_limit <= 0:
            raise ValueError("TrainConfig: divergence_limit must be positive")
        if example_count is not None and example_count < self.batch_size:
            raise ValueError(
                f"TrainConfig: batch size {self.batch_size} exceeds "
                f"dataset size {example_count}"
            )


# ---------------------------------------------------------------------------
# losses


def batch_loss(kind, preds, labels):
    """Mean loss over a batch: preds and labels are (B,L) tensors."""
    if kind == "mse":
        diff = preds - labels
        return (diff * diff).mean()
    if kind == "eigvec-cosine":
        # 1 - cos^2(angle) is sign-invariant and avoids a square root
        num = (preds * labels).sum(axis=1)
        den = (preds * preds).sum(axis=1) * (labels * labels).sum(axis=1)
        return ((num * num) / den * -1.0 + 1.0).mean()
    if kind == "cross-entropy":
        lse = preds.logsumexp(axis=1)
        picked = (preds * labels).sum(axis=1)
        return (lse - picked).mean()
    raise ValueError(f"batch_loss: unknown kind {kind!r}")


def batch_loss_value(model, instances, kind):
    """Value-only loss of a frozen model over ``instances`` as one batch."""
    x, y = _stack_instances(instances)
    return batch_loss(kind, model.forward(Tensor(x)), Tensor(y)).item()


# ---------------------------------------------------------------------------
# history


@dataclass
class HistoryRow:
    outer_iter: int
    phase: str
    step: int
    batch_loss: float


def save_history(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["outer_iter", "phase", "step", "batch_loss"])
        for row in rows:
            writer.writerow([row.outer_iter, row.phase, row.step,
                             repr(row.batch_loss)])


def load_history(path):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append(HistoryRow(int(rec["outer_iter"]), rec["phase"],
                                   int(rec["step"]), float(rec["batch_loss"])))
    return rows


# ---------------------------------------------------------------------------
# deterministic batch stream


class _BatchStream:
    """Maps a global batch counter to instance indices: data order is
    reshuffled per epoch from the run seed; partial batches are dropped."""

    def __init__(self, count, batch_size, seed):
        if count < batch_size:
            raise ValueError("_BatchStream: dataset smaller than one batch")
        self.count = count
        self.batch_size = batch_size
        self.seed = seed
        self.per_epoch = count // batch_size
        self._cached_epoch = -1
        self._cached_order = None

    def batch(self, global_index):
        epoch, pos = divmod(global_index, self.per_epoch)
        if epoch != self._cached_epoch:
            rng = np.random.default_rng(seed_chain(self.seed, 7901, epoch))
            self._cached_order = rng.permutation(self.count)
            self._cached_epoch = epoch
        lo = pos * self.batch_size
        return self._cached_order[lo: lo + self.batch_size]


def _stack_instances(instances):
    x = np.stack([inst.elements for inst in instances]).astype(np.float64)
    y = np.stack([np.asarray(inst.label, dtype=np.float64).reshape(-1)
                  for inst in instances])
    return x, y


# ---------------------------------------------------------------------------
# core steps


def _gradient_step(model, xb, yb, cfg, opt, params, phase, outer, global_batch):
    """One Adam step on ``params`` over one batch: descent for the learner,
    ascent (descent on the negated clipped gradient) for the adversary."""
    rng = np.random.default_rng(seed_chain(cfg.seed, 5501, global_batch))
    with GradTape() as tape:
        preds = model.forward(Tensor(xb), training=True, rng=rng)
        loss = batch_loss(cfg.loss, preds, Tensor(yb))
    value = loss.item()
    if not np.isfinite(value) or abs(value) > cfg.divergence_limit:
        raise TrainingDiverged(
            f"diverged at outer iteration {outer}, phase {phase}, "
            f"batch {global_batch}: loss {value}"
        )
    names = list(params.keys())
    grads = tape.gradient(loss, [params[k] for k in names])
    named = {k: g.data for k, g in zip(names, grads)}
    if cfg.grad_clip > 0:
        named, _ = clip_global_norm(named, cfg.grad_clip)
    if phase == "adversary":
        named = {k: -g for k, g in named.items()}
    adam_step(opt, params, named)
    return value


# ---------------------------------------------------------------------------
# checkpointing with optimizer state


def _optimizer(cfg, group):
    """A fresh optimizer for a parameter group, at the group's learning rate."""
    return OptimizerState(cfg.learner_lr if group == "learner" else cfg.adversary_lr)


def _save_train_checkpoint(directory, model, counters, optimizers):
    """Write the checkpoint into a sibling staging directory, then swap it
    into place, so a save cut short leaves the previous checkpoint whole.

    The swap is two renames: the old checkpoint out of the way, then the
    staging directory in.  A partial staging directory left by an
    interrupted save never loads, because its manifest is written last, and
    the next save removes it.  A save stopped between the two renames
    leaves only the retired checkpoint; the next save renames it back first.
    """
    directory = Path(directory)
    staging = directory.with_name(f".{directory.name}.partial")
    retired = directory.with_name(f".{directory.name}.old")
    if retired.exists() and not directory.exists():
        retired.rename(directory)
    for leftover in (staging, retired):
        shutil.rmtree(leftover, ignore_errors=True)
    staging.mkdir(parents=True)
    opt_meta = {}
    for group, opt in optimizers.items():
        arrays = opt.state_arrays()
        opt_meta[group] = {
            "kind": "adam",
            "step_count": opt.step_count,
            "tensors": sorted(arrays.keys()),
        }
        for key, arr in arrays.items():
            write_tensor_blob(staging / f"optimizer.{group}.{key}.sptn", arr)
    save_checkpoint(staging, model,
                    extra={"counters": counters, "optimizers": opt_meta})
    if directory.exists():
        directory.rename(retired)
    staging.rename(directory)
    shutil.rmtree(retired, ignore_errors=True)


def load_train_checkpoint(directory, cfg, model=None):
    """(model, counters, optimizers) of a training checkpoint, its parameters
    loaded into ``model`` as ``load_checkpoint`` does.  Every optimizer must
    be Adam: a checkpoint of another kind cannot resume."""
    directory = Path(directory)
    model, extra = load_checkpoint(directory, model)
    counters = extra["counters"]
    optimizers = {}
    for group, meta in extra["optimizers"].items():
        if meta.get("kind") != "adam":
            raise CheckpointError(f"{directory}: optimizer {group} is "
                                  f"{meta.get('kind')!r}, not 'adam'")
        opt = _optimizer(cfg, group)
        arrays = {
            key: read_tensor_blob(directory / f"optimizer.{group}.{key}.sptn")
            for key in meta["tensors"]
        }
        opt.load_state_arrays(arrays, meta["step_count"])
        optimizers[group] = opt
    return model, counters, optimizers


def _resumed_history(directory, steps):
    """The rows of the ``steps`` steps a training checkpoint was saved after,
    from the history.csv beside it."""
    path = Path(directory).parent / "history.csv"
    try:
        rows = load_history(path)
    except (OSError, ValueError, KeyError) as exc:
        raise CheckpointError(f"{path}: cannot resume: {exc}") from exc
    if len(rows) < steps:
        raise CheckpointError(f"{path}: {len(rows)} rows for {steps} steps")
    return rows[:steps]


# ---------------------------------------------------------------------------
# training loops


def _train(model, instances, cfg, out_dir, resume_from, phases):
    """Block coordinate training.  Per outer iteration, each phase
    (group, steps) takes ``steps`` optimizer steps on the model's
    ``<group>_parameters()`` while the other groups stay frozen; the
    adversary ascends, the learner descends.  All phases draw from one
    reshuffled batch stream.  With ``resume_from``, ``model`` (None: the
    checkpoint's own) goes on from it."""
    cfg.validate(len(instances))
    x_all, y_all = _stack_instances(instances)
    stream = _BatchStream(len(instances), cfg.batch_size, cfg.seed)

    start_iter = 0
    global_batch = 0
    history = []
    if resume_from is not None:
        model, counters, optimizers = load_train_checkpoint(resume_from, cfg, model)
        start_iter = counters["outer_iter"]
        global_batch = counters["global_batch"]
        history = _resumed_history(resume_from, global_batch)
    else:
        optimizers = {group: _optimizer(cfg, group) for group, _steps in phases}
    params = {}
    for group, _steps in phases:
        params[group] = getattr(model, f"{group}_parameters")()
        if not params[group]:
            raise ValueError(f"model has no {group} parameters")
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)

    def checkpoint(outer_iter):
        # the history first, so that a checkpoint is never ahead of it
        save_history(Path(out_dir) / "history.csv", history)
        _save_train_checkpoint(
            Path(out_dir) / "checkpoint", model,
            {"outer_iter": outer_iter, "global_batch": global_batch}, optimizers,
        )

    try:
        for outer in range(start_iter, cfg.outer_iters):
            for group, steps in phases:
                for step in range(steps):
                    idx = stream.batch(global_batch)
                    value = _gradient_step(
                        model, x_all[idx], y_all[idx], cfg, optimizers[group],
                        params[group], group, outer + 1, global_batch,
                    )
                    global_batch += 1
                    history.append(HistoryRow(outer + 1, group, step + 1, value))
            if out_dir is not None and cfg.checkpoint_every > 0 \
                    and (outer + 1) % cfg.checkpoint_every == 0:
                checkpoint(outer + 1)
        if out_dir is not None:
            checkpoint(cfg.outer_iters)
    finally:
        # also keeps the rows that led up to a divergence
        if out_dir is not None:
            save_history(Path(out_dir) / "history.csv", history)
    return history


def train_span(model, instances, cfg, out_dir=None, resume_from=None):
    """Alternating min-max training: per outer iteration, ``learner_steps``
    descent steps on the learner with the permutation network frozen, then
    ``adversary_steps`` ascent steps on the permutation network with the
    learner frozen.  Raises ValueError for a model without an adversary."""
    return _train(model, instances, cfg, out_dir, resume_from, [
        ("learner", cfg.learner_steps), ("adversary", cfg.adversary_steps),
    ])


def train_standard(model, instances, cfg, out_dir=None, resume_from=None):
    """Plain minimization for the baselines: ``outer_iters`` x
    ``learner_steps`` optimizer steps on the learner group."""
    return _train(model, instances, cfg, out_dir, resume_from, [
        ("learner", cfg.learner_steps),
    ])
