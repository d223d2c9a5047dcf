"""Command-line entry point.

Subcommands: ``gen`` (write datasets), ``train`` (fit a model and checkpoint
it), ``eval`` (metrics for a checkpoint on the test split), ``oracle-verify``
(re-derive every label in a dataset file), ``gradcheck`` (finite-difference
check through a model's full loss), and ``sweep`` (grid search selected on
validation loss).  Every run writes a manifest embedding the fully resolved
config, and identical config+seed reruns produce byte-identical outputs.
Training and evaluation treat every model kind alike: they call its
``forward`` and ``predict_batch``, and know no kind by name.

Experiment configs are flat JSON with three blocks (task, model, train) plus
optional ``split``, ``sweep`` and ``out_dir``.  The keys of a block are the
annotated arguments of the function that consumes it, with their defaults and
types; an unknown key, a missing required key and a value of the wrong type
(by ``spanlab.train.has_type``, the one rule for every block) are hard errors.
"""

from __future__ import annotations

import argparse
import copy
import inspect
import itertools
import json
import os
import sys
from pathlib import Path
from typing import get_type_hints

import numpy as np

from spanlab import __version__, tasks
from spanlab.metrics import (
    MetricRow,
    ablation_fractions,
    aggregate_report,
    average_relative_error,
    cosine_metric,
    invariance_delta,
    predict_instances,
)
from spanlab.models import (
    MODEL_KINDS,
    CheckpointError,
    constructor_args,
    load_checkpoint,
)
from spanlab.nn import Seed, seed_chain
from spanlab.tasks import (
    TASK_KINDS,
    TaskError,
    load_dataset,
    oracle_verify,
    save_dataset,
)
from spanlab.tensor import BlobFormatError, Tensor, finite_difference_check
from spanlab.train import (
    TrainConfig,
    TrainingDiverged,
    batch_loss,
    batch_loss_value,
    has_type,
    train_span,
    train_standard,
    type_error,
)

__all__ = ["main", "ConfigError", "load_config", "validate_config"]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# ---------------------------------------------------------------------------
# config schema

_TOP_KEYS = {"task": dict, "model": dict, "train": dict, "split": dict,
             "sweep": dict, "gradcheck": dict, "out_dir": str | None}

# model constructor arguments set by the data, not by the model block
_DATA_DIMS = ("n", "d", "L")


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not has_type(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def _task_generator(kind):
    # looked up as a module attribute, so a wrapper bound there sees the call
    if not (has_type(kind, str) and kind in TASK_KINDS):
        raise ConfigError(f"unknown task kind {kind!r}")
    return getattr(tasks, TASK_KINDS[kind])


def _block_keys(name, block):
    """The name of the function that consumes config block ``name``, and the
    block's keys as {key: (type, required)}: that function's annotated
    arguments, required where they have no default."""
    keys, exclude = {}, ("model",)  # gradcheck's model is the config's model block
    if name == "task":
        consumer, keys = _task_generator(block.get("kind")), {"kind": (str, True)}
        if block["kind"] == "maxdigit":
            keys["test_count"] = (int, False)  # read by _unbiased_test_split
    elif name == "model":
        kind = block.get("kind")
        if not (has_type(kind, str) and kind in MODEL_KINDS):
            raise ConfigError(f"unknown model kind {kind!r}")
        consumer, keys = MODEL_KINDS[kind].__init__, {"kind": (str, True)}
        exclude = ("self", *_DATA_DIMS)
    else:
        consumer = {"train": TrainConfig, "split": split_fractions,
                    "gradcheck": gradcheck}[name]
    types = get_type_hints(consumer)
    for param in inspect.signature(consumer).parameters.values():
        if param.name not in exclude:
            keys[param.name] = (types[param.name], param.default is param.empty)
    return consumer.__qualname__.split(".")[0], keys


def _check_keys(block, keys, where, owner=None):
    """Check the config ``block`` against ``keys``, {key: (type, required)}.
    Unknown and missing keys are reported for ``where``, and a value of the
    wrong type as ``<owner>: <key> must be <type>, not <value>``."""
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")
    missing = sorted(key for key, (_type, required) in keys.items()
                     if required and key not in block)
    if missing:
        raise ConfigError(f"{where} is missing keys: {', '.join(missing)}")
    types = {key: kind for key, (kind, _required) in keys.items()}
    if error := type_error(owner or where, block, types):
        raise ConfigError(error)


def validate_config(cfg, require=("task",)):
    _check_keys(cfg, {key: (kind, key in require) for key, kind in _TOP_KEYS.items()},
                "config")
    for name in ("task", "model", "train", "split", "gradcheck"):
        if name in cfg:
            owner, keys = _block_keys(name, cfg[name])
            kind = f" ({cfg[name]['kind']})" if "kind" in keys else ""
            _check_keys(cfg[name], keys, name + kind, f"{name}: {owner}")
    return cfg


# ---------------------------------------------------------------------------
# experiment assembly


def dataset_from_task(task, **overrides):
    """The dataset of a task block; ``overrides`` replace its generator
    arguments."""
    args = {k: v for k, v in task.items() if k not in ("kind", "test_count")}
    return _configured("task", _task_generator(task["kind"]), **{**args, **overrides})


def split_fractions(train: float = 0.8, val: float = 0.1, test: float = 0.1):
    if min(train, val, test) < 0 or abs(train + val + test - 1.0) > 1e-9:
        raise ConfigError("split fractions must be nonnegative and sum to 1")
    return train, val, test


def _unbiased_test_split(task, dataset):
    """The unbiased test set of a biased digit task, or None."""
    if not dataset.header.get("biased"):
        return None
    return dataset_from_task(
        task, count=task.get("test_count", max(1, len(dataset) // 4)),
        seed=seed_chain(dataset.header["seed"], 1), biased=False,
    )


def prepare_splits(cfg):
    """Dataset plus (train, val, test) instance lists.

    The biased digit task trains on biased sets but is always tested on the
    unbiased distribution, matching the ablation protocol.
    """
    task = cfg["task"]
    dataset = dataset_from_task(task)
    f_train, f_val, _ = split_fractions(**cfg.get("split", {}))
    count = len(dataset)
    n_train = int(count * f_train)
    n_val = int(count * f_val)
    test_ds = _unbiased_test_split(task, dataset)
    if test_ds is not None:
        return (dataset, dataset.instances[:n_train],
                dataset.instances[n_train: n_train + n_val], test_ds.instances)
    order = np.random.default_rng(
        seed_chain(dataset.header["seed"], 8801)
    ).permutation(count)
    pick = lambda idx: [dataset.instances[i] for i in idx]
    return (
        dataset,
        pick(order[:n_train]),
        pick(order[n_train: n_train + n_val]),
        pick(order[n_train + n_val:]),
    )


def model_from_config(model_cfg, n, d, label_dim):
    """The configured model, given the data's dimensions where its
    constructor takes them."""
    if model_cfg["kind"] == "janossy" and model_cfg["k"] > n:
        raise ConfigError(f"model: JanossyModel: k {model_cfg['k']} exceeds "
                          f"the set size n {n}")
    cls = MODEL_KINDS[model_cfg["kind"]]
    dims = dict(zip(_DATA_DIMS, (n, d, label_dim)))
    args = {k: v for k, v in dims.items() if k in constructor_args(cls)}
    args.update((k, v) for k, v in model_cfg.items() if k != "kind")
    return _configured("model", cls, **args)


def _data_model(cfg, dataset):
    """The model block of ``cfg`` built for the dimensions of ``dataset``."""
    header = dataset.header
    return model_from_config(cfg["model"], header["n"], header["d"], header["L"])


def train_config_from(cfg, example_count=None):
    """The validated ``TrainConfig`` of the train block; ``example_count``
    is the size of the training split, when known."""
    train = TrainConfig(**cfg.get("train", {}))
    _configured("train", train.validate, example_count=example_count)
    return train


def _configured(block, consumer, /, **kwargs):
    """``consumer(**kwargs)``, where a plain ``ValueError`` (the consumer
    rejecting a value of config block ``block``) becomes a ``ConfigError``.
    Its subclasses, such as ``ShapeMismatch`` and ``DomainError``, pass
    through: they report faults of shape or arithmetic, not of a value."""
    try:
        return consumer(**kwargs)
    except ValueError as exc:
        if type(exc) is not ValueError:
            raise
        raise ConfigError(f"{block}: {exc}") from exc


def write_manifest(out_dir, command, cfg):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"command": command, "config": cfg, "version": __version__}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )


# ---------------------------------------------------------------------------
# evaluation


def evaluate_model(model, dataset, instances, eval_seed):
    """Metric rows for a frozen model on held-out instances, predicted
    through its own ``predict_batch``.  ``eval_seed`` labels the rows and
    seeds the orders of the invariance probe."""
    if not instances:
        raise ConfigError("eval: empty test split")
    task = dataset.header["task"]
    rows = []
    common = dict(
        task=task, model=model.kind, seed=eval_seed,
        n=dataset.header["n"], d=dataset.header["d"],
    )
    if task in ("kary", "percentile", "maxflow"):
        rows.append(MetricRow(metric="rel_error",
                              value=average_relative_error(model, instances),
                              **common))
    elif task == "spiked":
        cosines = [
            cosine_metric(inst.label, pred)
            for inst, pred in zip(instances, predict_instances(model, instances))
        ]
        rows.append(MetricRow(metric="abs_cosine",
                              value=float(np.mean(cosines)), **common))
    elif task == "maxdigit":
        max_f, last_f, other_f = ablation_fractions(model, instances)
        rows.append(MetricRow(metric="frac_max", value=max_f, **common))
        rows.append(MetricRow(metric="frac_last", value=last_f, **common))
        rows.append(MetricRow(metric="frac_other", value=other_f, **common))
    else:
        raise ConfigError(f"no evaluation defined for task {task!r}")

    deltas = []
    rng = np.random.default_rng(seed_chain(eval_seed, 9902))
    probe = instances[: min(50, len(instances))]
    for inst in probe:
        deltas.append(invariance_delta(model, inst.elements, rng=rng).value)
    deltas = np.array(deltas)
    rows.append(MetricRow(metric="delta_median",
                          value=float(np.median(deltas)), **common))
    rows.append(MetricRow(metric="delta_frac_le_1e-2",
                          value=float(np.mean(deltas <= 1e-2)), **common))
    return rows


def _evaluate_checkpoint(cfg, checkpoint, out_dir):
    """Metric rows for a checkpoint of the model block of ``cfg`` on its test
    split, also written to ``out_dir``.  The evaluation seed is the training
    seed."""
    dataset, _train, _val, test_insts = prepare_splits(cfg)
    model, _extra = load_checkpoint(checkpoint, _data_model(cfg, dataset))
    rows = evaluate_model(model, dataset, test_insts, train_config_from(cfg).seed)
    aggregate_report(rows, out_dir)
    return rows


def run_training(cfg, out_dir):
    """Train the configured model; returns it, its history and the
    validation split."""
    dataset, train_insts, val_insts, _test = prepare_splits(cfg)
    model = _data_model(cfg, dataset)
    train = train_span if model.adversary_parameters() else train_standard
    history = train(model, train_insts, train_config_from(cfg, len(train_insts)),
                    out_dir=out_dir)
    return model, history, val_insts


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(cfg, out_dir, args):
    validate_config(cfg, require=("task",))
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = dataset_from_task(cfg["task"])
    save_dataset(out_dir / "dataset.jsonl", dataset)
    written = ["dataset.jsonl"]
    test_ds = _unbiased_test_split(cfg["task"], dataset)
    if test_ds is not None:
        save_dataset(out_dir / "dataset_test.jsonl", test_ds)
        written.append("dataset_test.jsonl")
    write_manifest(out_dir, "gen", cfg)
    print(f"gen: wrote {', '.join(written)} ({len(dataset)} instances) to {out_dir}")
    return 0


def cmd_train(cfg, out_dir, args):
    validate_config(cfg, require=("task", "model", "train"))
    write_manifest(out_dir, "train", cfg)
    model, history, _val = run_training(cfg, out_dir)
    final = history[-1].batch_loss if history else float("nan")
    print(f"train: {len(history)} steps, final batch loss {final:.6g}, "
          f"checkpoint in {out_dir / 'checkpoint'}")
    return 0


def cmd_eval(cfg, out_dir, args):
    validate_config(cfg, require=("task", "model"))
    if args.checkpoint is None:
        raise ConfigError("eval needs --checkpoint")
    rows = _evaluate_checkpoint(cfg, args.checkpoint, out_dir)
    write_manifest(out_dir, "eval", cfg)
    for row in rows:
        print(f"eval: {row.metric} = {row.value:.6g}")
    return 0


def cmd_oracle_verify(cfg_path, out_dir, args):
    # the config argument points straight at a dataset file
    dataset = load_dataset(cfg_path)
    failures = oracle_verify(dataset, cfg_path)
    if failures:
        for f in failures[:10]:
            print(f"oracle-verify: FAIL {f}", file=sys.stderr)
        return 1
    print(f"oracle-verify: pass ({len(dataset)} instances, "
          f"task {dataset.header.get('task')})")
    return 0


def gradcheck(model: dict, n: int, d: int, L: int = 1, h: float = 1e-5,
              loss: str = "mse", seed: Seed = 0, batch: int = 1):
    """Worst relative error between central differences with step ``h`` and
    the tape gradient, over every parameter of the model block ``model``
    built for (n, d, L) data, through its ``loss`` on one random batch."""
    if h <= 0:
        raise ConfigError(f"gradcheck: step h {h} must be positive")
    for key, size in (("n", n), ("d", d), ("L", L), ("batch", batch)):
        if size < 1:
            raise ConfigError(f"gradcheck: {key} {size} must be positive")
    _configured("gradcheck", TrainConfig(loss=loss).validate)
    net = model_from_config(model, n, d, L)
    rng = np.random.default_rng(seed_chain(seed, 31))
    x = Tensor(rng.normal(size=(batch, n, d)))
    y = Tensor(rng.normal(size=(batch, L)))

    def objective(_param):
        return batch_loss(loss, net.forward(x), y)

    return max([0.0] + [finite_difference_check(objective, param, h=h)
                        for _name, param in sorted(net.parameters().items())])


def cmd_gradcheck(cfg, out_dir, args):
    validate_config(cfg, require=("model", "gradcheck"))
    worst = gradcheck(cfg["model"], **cfg["gradcheck"])
    print(f"gradcheck: max relative error {worst:.3e}")
    return 0 if worst <= 1e-4 else 1


def _set_path(cfg, dotted, value):
    *parents, last = dotted.split(".")
    node = cfg
    for p in parents:
        node = node.get(p)
        if not has_type(node, dict):
            raise ConfigError(f"sweep grid path {dotted!r} is not a key of a "
                              f"config block")
    node[last] = value


def _sweep_assignments(cfg):
    """Every ((path, value), ...) assignment of the sweep grid, in order,
    each checked to give a valid trial config."""
    sweep = cfg["sweep"]
    _check_keys(sweep, {"grid": (dict, True)}, "sweep")
    grid = sweep["grid"]
    if not grid:
        raise ConfigError("sweep needs a non-empty grid")
    for path, values in grid.items():
        if not has_type(values, list) or not values:
            raise ConfigError(f"sweep grid {path!r} must be a non-empty list "
                              f"of values")
    paths = sorted(grid)
    assignments = [tuple(zip(paths, combo))
                   for combo in itertools.product(*[grid[p] for p in paths])]
    for assignment in assignments:
        trial = validate_config(_trial_config(cfg, assignment),
                                require=("task", "model", "train"))
        # prepare_splits keeps int(count * val) validation sets and trains on
        # int(count * train)
        train, val, _test = split_fractions(**trial.get("split", {}))
        count = trial["task"]["count"]
        if int(count * val) < 1:
            raise ConfigError("sweep: empty validation split")
        train_config_from(trial, example_count=int(count * train))
    return assignments


def _trial_config(cfg, assignment):
    """The sweep config with one grid assignment applied and no sweep block."""
    trial = copy.deepcopy(cfg)
    trial.pop("sweep", None)
    for path, value in assignment:
        _set_path(trial, path, value)
    return trial


def _run_sweep_trial(payload):
    cfg, assignment, out_root = payload
    trial = _trial_config(cfg, assignment)
    label = "_".join(f"{p.split('.')[-1]}={v}" for p, v in assignment) or "base"
    out_dir = Path(out_root) / f"trial_{label}"
    write_manifest(out_dir, "sweep-trial", trial)
    model, _history, val_insts = run_training(trial, out_dir)
    val_loss = batch_loss_value(model, val_insts, train_config_from(trial).loss)
    return {"assignment": assignment, "val_loss": val_loss,
            "out_dir": str(out_dir)}


def sweep_workers():
    """Parallel trial processes: ``SPANLAB_THREADS`` (default 1), capped at
    the CPU count."""
    raw = os.environ.get("SPANLAB_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers <= 0:
        raise ConfigError(
            f"SPANLAB_THREADS must be a positive integer, got {raw!r}")
    return min(workers, os.cpu_count() or 1)


def cmd_sweep(cfg, out_dir, args):
    validate_config(cfg, require=("task", "model", "train", "sweep"))
    workers = sweep_workers()
    payloads = [(cfg, assignment, str(out_dir))
                for assignment in _sweep_assignments(cfg)]
    out_dir.mkdir(parents=True, exist_ok=True)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_sweep_trial, payloads))
    else:
        results = [_run_sweep_trial(p) for p in payloads]

    best = min(results, key=lambda r: r["val_loss"])
    listed = lambda r: {**r, "assignment": [list(a) for a in r["assignment"]]}
    summary = {"trials": [listed(r) for r in results], "best": listed(best)}
    (out_dir / "sweep_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )

    # test metrics for the winner
    _evaluate_checkpoint(_trial_config(cfg, best["assignment"]),
                         Path(best["out_dir"]) / "checkpoint", out_dir)
    write_manifest(out_dir, "sweep", cfg)
    print(f"sweep: {len(results)} trials, best val loss {best['val_loss']:.6g} "
          f"at {best['assignment']}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spanlab",
        description="Set-function learning lab: adversarial permutation "
                    "training, baselines, exact task oracles.",
    )
    parser.add_argument("command",
                        choices=["gen", "train", "eval", "oracle-verify",
                                 "gradcheck", "sweep"])
    parser.add_argument("--config", required=True,
                        help="experiment config JSON (for oracle-verify: "
                             "the dataset file)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--checkpoint", default=None,
                        help="checkpoint directory (eval)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the training seed")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "oracle-verify":
            return cmd_oracle_verify(args.config, None, args)
        cfg = load_config(args.config)
        if args.seed is not None and has_type(cfg.get("train", {}), dict):
            # a train block of another type is reported by validate_config
            cfg.setdefault("train", {})["seed"] = args.seed
        # created by the subcommands that write to it
        out_dir = Path(args.out or cfg.get("out_dir") or "spanlab-out")
        handler = {
            "gen": cmd_gen,
            "train": cmd_train,
            "eval": cmd_eval,
            "gradcheck": cmd_gradcheck,
            "sweep": cmd_sweep,
        }[args.command]
        return handler(cfg, out_dir, args)
    except (ConfigError, TaskError, FileNotFoundError, CheckpointError,
            BlobFormatError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
