"""Training loops.

The adversarial learner alternates block coordinate steps: freeze the
permutation network and descend the learner parameters, then freeze the
learner and ascend the permutation-network weight on the same loss, with
gradients flowing through the unrolled Sinkhorn normalization.  Baselines
train by plain minimization.  Runs are bit-reproducible: every stochastic
stream (batch order, dropout masks, sampled permutations) is derived from
the config seed and step counters, so a checkpoint plus counters resumes
exactly, and the history.csv beside it supplies the rows trained so far.
"""

from __future__ import annotations

import csv
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spanlab.models import CheckpointError, load_checkpoint, save_checkpoint
from spanlab.nn import OptimizerState, clip_global_norm, optimizer_step, seed_chain
from spanlab.tensor import GradTape, Tensor, read_tensor_blob, write_tensor_blob

__all__ = [
    "HistoryRow",
    "TrainConfig",
    "TrainingDiverged",
    "batch_loss",
    "batch_loss_value",
    "load_history",
    "load_train_checkpoint",
    "loss_eval",
    "save_history",
    "train_span",
    "train_standard",
]

_LOSS_KINDS = ("mse", "eigvec-cosine", "cross-entropy")


class TrainingDiverged(RuntimeError):
    """Loss became non-finite or exceeded the divergence limit."""


@dataclass
class TrainConfig:
    loss: str = "mse"
    learner_lr: float = 1e-4
    adversary_lr: float = 1e-4
    batch_size: int = 32
    outer_iters: int = 100
    learner_steps: int = 1
    adversary_steps: int = 1
    weight_decay: float = 0.0
    grad_clip: float = 5.0
    optimizer: str = "adam"
    adversary_optimizer: str = "adam"
    seed: int = 0
    checkpoint_every: int = 0
    divergence_limit: float = 1e6

    def validate(self, example_count=None):
        if self.loss not in _LOSS_KINDS:
            raise ValueError(f"TrainConfig: unknown loss {self.loss!r}")
        if self.learner_lr < 0 or self.adversary_lr < 0:
            raise ValueError("TrainConfig: learning rates must be nonnegative")
        if self.batch_size < 1 or self.outer_iters < 0:
            raise ValueError("TrainConfig: bad batch size or iteration count")
        if self.learner_steps < 0 or self.adversary_steps < 0:
            raise ValueError("TrainConfig: step counts must be nonnegative")
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


def loss_eval(kind, prediction, label):
    """Value-only loss for one prediction/label pair."""
    pred = Tensor(np.asarray(prediction, dtype=np.float64).reshape(1, -1))
    lab = Tensor(np.asarray(label, dtype=np.float64).reshape(1, -1))
    return batch_loss(kind, pred, lab).item()


def batch_loss_value(model, x, y, kind):
    """Value-only batch loss for a frozen model."""
    preds = model.forward(Tensor(np.asarray(x, dtype=np.float64)))
    return batch_loss(kind, preds, Tensor(np.asarray(y, dtype=np.float64))).item()


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


def _gradient_step(model, xb, yb, cfg, opt, params, sign, phase,
                   outer, global_batch):
    rng = np.random.default_rng(seed_chain(cfg.seed, 5501, global_batch))
    with GradTape() as tape:
        if hasattr(model, "forward_train"):
            # the sampled-permutation model reads each instance in a fresh
            # uniform order at every step
            perms = _sampled_perms(cfg, global_batch, *xb.shape[:2])
            preds = model.forward_train(Tensor(xb), perms)
        else:
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
    named = dict(zip(names, grads))
    if cfg.grad_clip > 0:
        named, _ = clip_global_norm(named, cfg.grad_clip)
    optimizer_step(opt, params, named, sign)
    return value


def _sampled_perms(cfg, global_batch, batch, n):
    rng = np.random.default_rng(seed_chain(cfg.seed, 6601, global_batch))
    return np.stack([rng.permutation(n) for _ in range(batch)])


# ---------------------------------------------------------------------------
# checkpointing with optimizer state


def _optimizer(cfg, group, kind=None):
    """A fresh optimizer for a parameter group; weight decay is a learner
    term only."""
    if group == "learner":
        return OptimizerState(kind or cfg.optimizer, lr=cfg.learner_lr,
                              weight_decay=cfg.weight_decay)
    return OptimizerState(kind or cfg.adversary_optimizer, lr=cfg.adversary_lr)


def _save_train_checkpoint(directory, model, counters, optimizers):
    """Write the checkpoint into a sibling staging directory, then swap it
    into place, so a save cut short leaves the previous checkpoint whole.

    The swap is two renames: the old checkpoint out of the way, then the
    staging directory in.  A partial staging directory left by an
    interrupted save never loads, because its manifest is written last, and
    the next save removes it.
    """
    directory = Path(directory)
    staging = directory.with_name(f".{directory.name}.partial")
    retired = directory.with_name(f".{directory.name}.old")
    for leftover in (staging, retired):
        shutil.rmtree(leftover, ignore_errors=True)
    staging.mkdir(parents=True)
    opt_meta = {}
    for group, opt in optimizers.items():
        arrays = opt.state_arrays()
        opt_meta[group] = {
            "kind": opt.kind,
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


def load_train_checkpoint(directory, cfg):
    """Rebuild (model, counters, optimizers) from a training checkpoint."""
    directory = Path(directory)
    model, extra = load_checkpoint(directory)
    counters = extra["counters"]
    optimizers = {}
    for group, meta in extra["optimizers"].items():
        opt = _optimizer(cfg, group, meta["kind"])
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
    (group, parameter method, sign, steps) takes ``steps`` optimizer steps
    on the model's group in the direction ``sign`` while the other groups
    stay frozen.  All phases draw from one reshuffled batch stream."""
    cfg.validate(len(instances))
    x_all, y_all = _stack_instances(instances)
    stream = _BatchStream(len(instances), cfg.batch_size, cfg.seed)

    start_iter = 0
    global_batch = 0
    history = []
    if resume_from is not None:
        model, counters, optimizers = load_train_checkpoint(resume_from, cfg)
        start_iter = counters["outer_iter"]
        global_batch = counters["global_batch"]
        history = _resumed_history(resume_from, global_batch)
    else:
        optimizers = {group: _optimizer(cfg, group) for group, *_ in phases}
    params = {}
    for group, method, _sign, _steps in phases:
        params[group] = getattr(model, method)()
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
            for group, _method, sign, steps in phases:
                for step in range(steps):
                    idx = stream.batch(global_batch)
                    value = _gradient_step(
                        model, x_all[idx], y_all[idx], cfg, optimizers[group],
                        params[group], sign, group, outer + 1, global_batch,
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
        ("learner", "learner_parameters", "minimize", cfg.learner_steps),
        ("adversary", "adversary_parameters", "maximize", cfg.adversary_steps),
    ])


def train_standard(model, instances, cfg, out_dir=None, resume_from=None):
    """Plain minimization for the baselines: ``outer_iters`` x
    ``learner_steps`` optimizer steps on the learner group."""
    return _train(model, instances, cfg, out_dir, resume_from, [
        ("learner", "learner_parameters", "minimize", cfg.learner_steps),
    ])
