import inspect
import json
import os
import typing

import numpy as np
import pytest

from spanlab.cli import (
    ConfigError,
    dataset_from_task,
    gradcheck,
    load_config,
    main,
    model_from_config,
    prepare_splits,
    split_fractions,
    sweep_workers,
    validate_config,
)
from spanlab import tasks
from spanlab.models import MODEL_KINDS
from spanlab.tasks import TASK_KINDS, load_dataset
from spanlab.train import has_type, load_history


def write_config(path, cfg):
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


# a small model block of every kind, for the percentile config below
MODEL_BLOCKS = {
    "span": {"hidden": 6, "tau": 0.5, "sinkhorn_iters": 6, "input_scale": 0.1},
    "span-fc": {"width": 8, "tau": 0.5, "sinkhorn_iters": 6, "input_scale": 0.1},
    "span-no-apn": {"hidden": 6, "input_scale": 0.1},
    "deepsets": {"width": 8, "dropout_rate": 0.2},
    "janossy": {"k": 2, "width": 8, "dropout_rate": 0.1},
    "pisgd": {"hidden": 6, "permutations": 5, "input_scale": 0.1},
}


# a small task block of every kind
TASK_BLOCKS = {
    "kary": {"kind": "kary", "n": 5, "d": 2, "k": 2, "count": 4, "seed": 1},
    "percentile": {"kind": "percentile", "n": 6, "r": 70, "count": 4, "seed": 1},
    "maxflow": {"kind": "maxflow", "vertices": 10, "edges": 25, "subset_size": 3,
                "count": 4, "seed": 1},
    "spiked": {"kind": "spiked", "n": 12, "d": 4, "sigma": 0.1, "count": 4,
               "seed": 1},
    "maxdigit": {"kind": "maxdigit", "set_size": 3, "count": 4, "seed": 1,
                 "per_class": 5, "biased": False},
}


def signature_params(fn, exclude=()):
    return [p for p in inspect.signature(fn).parameters.values()
            if p.name not in exclude]


def task_generator(kind):
    return getattr(tasks, TASK_KINDS[kind])


# (block, kind, key) for every required key of every task and model kind
REQUIRED_KEYS = [
    ("task", kind, p.name)
    for kind in sorted(TASK_KINDS)
    for p in signature_params(task_generator(kind)) if p.default is p.empty
] + [
    ("model", kind, p.name)
    for kind in sorted(MODEL_KINDS)
    for p in signature_params(MODEL_KINDS[kind].__init__, ("self", "n", "d", "L"))
    if p.default is p.empty
]


def percentile_config(tmp_path, **train_overrides):
    train = {
        "loss": "mse", "learner_lr": 1e-3, "adversary_lr": 1e-3,
        "batch_size": 8, "outer_iters": 2, "learner_steps": 1,
        "adversary_steps": 1, "seed": 11,
    }
    train.update(train_overrides)
    return {
        "task": {"kind": "percentile", "n": 8, "r": 50, "count": 40, "seed": 5},
        "model": {"kind": "span", "hidden": 6, "tau": 0.5,
                  "sinkhorn_iters": 6, "input_scale": 0.1, "seed": 1},
        "train": train,
        "out_dir": str(tmp_path / "run"),
    }


def small_sweep_config():
    return {
        "task": {"kind": "percentile", "n": 6, "r": 50, "count": 40, "seed": 5},
        "model": {"kind": "deepsets", "width": 8, "seed": 1},
        "train": {"loss": "mse", "batch_size": 8, "outer_iters": 1},
        "sweep": {"grid": {"model.width": [8, 16]}},
    }


class TestConfigValidation:
    def test_round_trip_identity(self, tmp_path):
        cfg = percentile_config(tmp_path)
        path = tmp_path / "cfg.json"
        write_config(path, cfg)
        parsed = load_config(path)
        assert parsed == cfg
        re_serialized = json.loads(json.dumps(parsed))
        assert re_serialized == parsed

    def test_unknown_top_key_rejected(self, tmp_path):
        cfg = percentile_config(tmp_path)
        cfg["notes"] = "hello"
        with pytest.raises(ConfigError, match="notes"):
            validate_config(cfg)

    def test_unknown_task_key_rejected(self, tmp_path):
        cfg = percentile_config(tmp_path)
        cfg["task"]["sigma"] = 0.1
        with pytest.raises(ConfigError, match="sigma"):
            validate_config(cfg)

    def test_unknown_model_kind_rejected(self, tmp_path):
        cfg = percentile_config(tmp_path)
        cfg["model"]["kind"] = "transformer"
        with pytest.raises(ConfigError, match="transformer"):
            validate_config(cfg)

    def test_unknown_train_key_rejected(self, tmp_path):
        cfg = percentile_config(tmp_path)
        cfg["train"]["momentum"] = 0.9
        with pytest.raises(ConfigError, match="momentum"):
            validate_config(cfg)

    def test_split_fractions_checked(self, tmp_path):
        cfg = percentile_config(tmp_path)
        cfg["split"] = {"train": 0.9, "val": 0.3, "test": 0.1}
        with pytest.raises(ConfigError):
            prepare_splits(validate_config(cfg))


class TestSchema:
    """Every consumer of a config block annotates each argument, and each
    default has the type its annotation names."""

    CONSUMERS = ([cls.__init__ for cls in MODEL_KINDS.values()]
                 + [task_generator(kind) for kind in sorted(TASK_KINDS)]
                 + [split_fractions, gradcheck])

    @pytest.mark.parametrize("consumer", CONSUMERS,
                             ids=[c.__qualname__ for c in CONSUMERS])
    def test_every_argument_is_annotated(self, consumer):
        types = typing.get_type_hints(consumer)
        for param in signature_params(consumer, ("self",)):
            assert param.name in types
            if param.default is not param.empty:
                assert has_type(param.default, types[param.name]), param.name


class TestPrepareSplits:
    def test_default_80_10_10(self, tmp_path):
        cfg = percentile_config(tmp_path)
        dataset, train, val, test = prepare_splits(cfg)
        assert len(dataset) == 40
        assert (len(train), len(val), len(test)) == (32, 4, 4)
        # split is a partition
        ids = {id(i) for i in train} | {id(i) for i in val} | {id(i) for i in test}
        assert len(ids) == 40

    def test_biased_maxdigit_tests_unbiased(self, tmp_path):
        cfg = {
            "task": {"kind": "maxdigit", "set_size": 4, "count": 40,
                     "seed": 3, "biased": True, "per_class": 10},
        }
        _, train, _val, test = prepare_splits(cfg)
        assert all(i.digits[-1] == max(i.digits) for i in train)
        # unbiased test split: max not always in last position
        assert any(i.digits[-1] != max(i.digits) for i in test)

    def test_model_from_config_dims(self, tmp_path):
        model = model_from_config(
            {"kind": "deepsets", "width": 16, "seed": 0}, n=5, d=3, label_dim=2
        )
        assert model.out_dim == 2
        out = model.predict(np.zeros((5, 3)))
        assert out.shape == (2,)


class TestCommands:
    def test_gen_and_oracle_verify(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, {
            "task": {"kind": "kary", "n": 6, "d": 2, "k": 2,
                     "count": 12, "seed": 7},
        })
        out = tmp_path / "data"
        assert main(["gen", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "dataset.jsonl").exists()
        assert (out / "manifest.json").exists()
        assert main(["oracle-verify", "--config",
                     str(out / "dataset.jsonl")]) == 0

    def test_oracle_verify_catches_corruption(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, {
            "task": {"kind": "percentile", "n": 6, "r": 50,
                     "count": 5, "seed": 2},
        })
        out = tmp_path / "data"
        main(["gen", "--config", str(cfg_path), "--out", str(out)])
        lines = (out / "dataset.jsonl").read_text().splitlines()
        rec = json.loads(lines[2])
        rec["label"] = [rec["label"][0] + 1.0]
        lines[2] = json.dumps(rec, sort_keys=True)
        (out / "dataset.jsonl").write_text("\n".join(lines) + "\n")
        assert main(["oracle-verify", "--config",
                     str(out / "dataset.jsonl")]) == 1

    def test_train_writes_artifacts(self, tmp_path):
        cfg = percentile_config(tmp_path)
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["train", "--config", cfg_path]) == 0
        run = tmp_path / "run"
        assert (run / "checkpoint" / "manifest.json").exists()
        assert (run / "history.csv").exists()
        assert (run / "manifest.json").exists()

    @pytest.mark.parametrize("kind", sorted(MODEL_BLOCKS))
    def test_train_deterministic_across_runs(self, tmp_path, kind):
        cfg = percentile_config(tmp_path, checkpoint_every=1)
        cfg["model"] = dict(MODEL_BLOCKS[kind], kind=kind, seed=1)
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        for run in ("r1", "r2"):
            assert main(["train", "--config", cfg_path,
                         "--out", str(tmp_path / run)]) == 0
        a = sorted((tmp_path / "r1" / "checkpoint").iterdir())
        b = sorted((tmp_path / "r2" / "checkpoint").iterdir())
        assert [f.name for f in a] == [f.name for f in b]
        for fa, fb in zip(a, b):
            assert fa.read_bytes() == fb.read_bytes(), fa.name
        assert (tmp_path / "r1" / "history.csv").read_bytes() == \
            (tmp_path / "r2" / "history.csv").read_bytes()

    def test_train_then_eval(self, tmp_path):
        cfg = percentile_config(tmp_path)
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        main(["train", "--config", cfg_path])
        out = tmp_path / "evalout"
        code = main(["eval", "--config", cfg_path,
                     "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                     "--out", str(out)])
        assert code == 0
        results = (out / "results.csv").read_text().splitlines()
        assert results[0] == "task,model,seed,n,d,metric,value,std"
        assert any("rel_error" in line for line in results[1:])

    def test_gradcheck_span(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.json", {
            "model": {"kind": "span", "hidden": 4, "tau": 1.0,
                      "sinkhorn_iters": 5, "seed": 0},
            "gradcheck": {"n": 3, "d": 2, "L": 1, "seed": 1},
        })
        assert main(["gradcheck", "--config", str(cfg_path)]) == 0

    def test_gradcheck_creates_no_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path / "cfg.json", {
            "model": {"kind": "deepsets", "width": 4, "seed": 0},
            "gradcheck": {"n": 3, "d": 2, "L": 1, "seed": 1},
        })
        assert main(["gradcheck", "--config", "cfg.json"]) == 0
        assert not (tmp_path / "spanlab-out").exists()

    def test_seed_override(self, tmp_path):
        cfg = percentile_config(tmp_path)
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        main(["train", "--config", cfg_path, "--out", str(tmp_path / "s1"),
              "--seed", "99"])
        manifest = json.loads((tmp_path / "s1" / "manifest.json").read_text())
        assert manifest["config"]["train"]["seed"] == 99

    def test_error_is_one_line_and_nonzero(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "cfg.json", {
            "task": {"kind": "nosuch", "count": 1},
        })
        code = main(["gen", "--config", str(cfg_path)])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err

    def test_sweep_selects_best_by_validation(self, tmp_path):
        cfg = {
            "task": {"kind": "percentile", "n": 6, "r": 50,
                     "count": 40, "seed": 5},
            "model": {"kind": "deepsets", "width": 8, "seed": 1},
            "train": {"loss": "mse", "learner_lr": 1e-3, "batch_size": 8,
                      "outer_iters": 2, "learner_steps": 2, "seed": 11},
            "sweep": {"grid": {"train.learner_lr": [1e-3, 1e-2],
                               "model.width": [8, 16]}},
        }
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "sweepout"
        assert main(["sweep", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert len(summary["trials"]) == 4
        vals = [t["val_loss"] for t in summary["trials"]]
        assert summary["best"]["val_loss"] == min(vals)
        assert (out / "results.csv").exists()

    def test_sweep_with_empty_test_split_exits_2(self, tmp_path, capsys):
        cfg = small_sweep_config()
        cfg["split"] = {"train": 0.8, "val": 0.2, "test": 0.0}
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["sweep", "--config", cfg_path,
                     "--out", str(tmp_path / "sweepout")]) == 2
        assert "empty test split" in capsys.readouterr().err

    def test_sweep_with_empty_validation_split_exits_2_before_any_trial(
            self, tmp_path, capsys):
        cfg = small_sweep_config()
        cfg["split"] = {"train": 0.9, "val": 0.0, "test": 0.1}
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "sweepout"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: sweep: empty validation split\n"
        assert not out.exists()

    def test_sweep_with_a_training_split_below_the_batch_exits_2_before_any_trial(
            self, tmp_path, capsys):
        cfg = small_sweep_config()
        cfg["split"] = {"train": 0.4, "val": 0.5, "test": 0.1}
        cfg["sweep"] = {"grid": {"task.count": [40, 12]}}
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "sweepout"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: train: TrainConfig: batch size 8 exceeds dataset size 4\n")
        assert not out.exists()


# (command, block, key, value, message) for a value of the wrong type in each
# kind of block
WRONG_TYPES = [
    ("train", "model", "seed", 1.5,
     "model: DeepSetsModel: seed must be int | list[int], not 1.5"),
    ("train", "model", "seed", True,
     "model: DeepSetsModel: seed must be int | list[int], not True"),
    ("train", "model", "width", 6.5, "model: DeepSetsModel: width must be int, not 6.5"),
    ("train", "task", "count", 40.5, "task: gen_percentile: count must be int, not 40.5"),
    ("gen", "task", "count", 40.5, "task: gen_percentile: count must be int, not 40.5"),
    ("train", "task", "seed", 1.5,
     "task: gen_percentile: seed must be int | list[int], not 1.5"),
    ("train", "task", "r", "50", "task: gen_percentile: r must be float, not '50'"),
    ("train", "split", "train", "0.8",
     "split: split_fractions: train must be float, not '0.8'"),
    ("gradcheck", "gradcheck", "batch", 1.5,
     "gradcheck: gradcheck: batch must be int, not 1.5"),
    ("sweep", "sweep", "model.width", [4, 6.5],
     "model: DeepSetsModel: width must be int, not 6.5"),
    ("train", "config", "task", 5, "config: task must be dict, not 5"),
]


class TestUserErrorsExit2:
    """A bad config, dataset or checkpoint and a diverged run each exit 2
    with a single ``error:`` line."""

    def run_main(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err, err
        return code, err

    def test_removed_dropout_train_key(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "cfg.json",
                                percentile_config(tmp_path, dropout=0.9))
        code, err = self.run_main(["train", "--config", cfg_path], capsys)
        assert code == 2 and "dropout" in err

    def test_task_missing_required_key(self, tmp_path, capsys):
        cfg = percentile_config(tmp_path)
        del cfg["task"]["n"]
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        code, err = self.run_main(["gen", "--config", cfg_path], capsys)
        assert code == 2 and "missing keys: n" in err

    @pytest.mark.parametrize("block,kind,key", REQUIRED_KEYS,
                             ids=["-".join(case) for case in REQUIRED_KEYS])
    def test_missing_required_key(self, tmp_path, capsys, block, kind, key):
        if block == "task":
            cfg, command = {"task": dict(TASK_BLOCKS[kind])}, "gen"
        else:
            cfg, command = percentile_config(tmp_path), "train"
            cfg["model"] = dict(MODEL_BLOCKS[kind], kind=kind, seed=1)
        del cfg[block][key]
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        code, err = self.run_main([command, "--config", cfg_path,
                                   "--out", str(tmp_path / "out")], capsys)
        assert code == 2 and err.endswith(f"missing keys: {key}")

    @pytest.mark.parametrize("source", [
        {"source": "mnsit"},
        {"source": "mnist"},
        {"source": "mnist", "images_path": "images.idx"},
    ])
    def test_bad_maxdigit_source(self, tmp_path, capsys, source):
        cfg = percentile_config(tmp_path)
        cfg["task"] = dict(TASK_BLOCKS["maxdigit"], count=40, **source)
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        code, err = self.run_main(["train", "--config", cfg_path], capsys)
        assert code == 2 and "source" in err
        assert not (tmp_path / "run" / "checkpoint").exists()

    def test_truncated_idx_file(self, tmp_path, capsys):
        (tmp_path / "img.idx").write_bytes(b"\x00\x00\x08\x03")
        (tmp_path / "lbl.idx").write_bytes(b"\x00\x00\x08\x01")
        cfg_path = write_config(tmp_path / "cfg.json", {
            "task": dict(TASK_BLOCKS["maxdigit"], source="mnist",
                         images_path=str(tmp_path / "img.idx"),
                         labels_path=str(tmp_path / "lbl.idx")),
        })
        code, err = self.run_main(["gen", "--config", cfg_path,
                                   "--out", str(tmp_path / "out")], capsys)
        assert code == 2 and err.endswith("img.idx: truncated header")

    def test_unknown_pooling(self, tmp_path, capsys):
        cfg = percentile_config(tmp_path)
        cfg["model"] = {"kind": "deepsets", "width": 8, "pooling": "mean"}
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        code, err = self.run_main(["train", "--config", cfg_path], capsys)
        assert code == 2 and err == (
            "error: model: DeepSetsModel: unknown pooling 'mean'")
        assert not (tmp_path / "run" / "checkpoint").exists()

    def test_unknown_loss(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "cfg.json",
                                percentile_config(tmp_path, loss="mae"))
        code, err = self.run_main(["train", "--config", cfg_path], capsys)
        assert code == 2 and err == "error: train: TrainConfig: unknown loss 'mae'"
        assert not (tmp_path / "run" / "checkpoint").exists()

    @pytest.mark.parametrize("key, kind", [("optimizer", "sgdd"),
                                           ("adversary_optimizer", "adamw"),
                                           ("weight_decay", 0.01)])
    def test_unknown_optimizer(self, tmp_path, capsys, key, kind):
        # every group trains with Adam: there is no optimizer key to set
        cfg_path = write_config(tmp_path / "cfg.json",
                                percentile_config(tmp_path, **{key: kind}))
        code, err = self.run_main(["train", "--config", cfg_path], capsys)
        assert code == 2 and err == f"error: unknown keys in train: {key}"
        assert not (tmp_path / "run" / "history.csv").exists()

    @pytest.mark.parametrize("key, value", [("seed", -1), ("grad_clip", -3.0),
                                            ("checkpoint_every", -1)])
    def test_negative_train_value(self, tmp_path, capsys, key, value):
        cfg_path = write_config(tmp_path / "cfg.json",
                                percentile_config(tmp_path, **{key: value}))
        code, err = self.run_main(["train", "--config", cfg_path], capsys)
        assert code == 2 and err == (
            f"error: train: TrainConfig: {key} must be nonnegative")
        assert not (tmp_path / "run" / "history.csv").exists()

    @pytest.mark.parametrize("key, value, kind", [
        ("seed", 1.5, "int"), ("batch_size", 8.5, "int"),
        ("outer_iters", 1.5, "int"), ("learner_lr", "0.1", "float"),
    ])
    def test_train_value_of_the_wrong_type(self, tmp_path, capsys, key, value,
                                           kind):
        cfg_path = write_config(tmp_path / "cfg.json",
                                percentile_config(tmp_path, **{key: value}))
        code, err = self.run_main(["train", "--config", cfg_path], capsys)
        assert code == 2 and err == (
            f"error: train: TrainConfig: {key} must be {kind}, not {value!r}")
        assert not (tmp_path / "run" / "history.csv").exists()

    @pytest.mark.parametrize("command, block, key, value, message", WRONG_TYPES,
                             ids=[f"{c}-{b}-{k}-{v!r}" for c, b, k, v, _ in WRONG_TYPES])
    def test_a_value_of_the_wrong_type_in_any_block(self, tmp_path, capsys, command,
                                                    block, key, value, message):
        cfg = dict(small_sweep_config(), split={"train": 0.8, "val": 0.1, "test": 0.1},
                   gradcheck={"n": 3, "d": 2})
        if command != "sweep":
            del cfg["sweep"]
        if command != "gradcheck":
            del cfg["gradcheck"]
        if block == "sweep":
            cfg["sweep"]["grid"] = {key: value}
        elif block == "config":
            cfg[key] = value
        else:
            cfg[block][key] = value
        out = tmp_path / "out"
        code, err = self.run_main([command, "--config",
                                   write_config(tmp_path / "cfg.json", cfg),
                                   "--out", str(out)], capsys)
        assert code == 2 and err == f"error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("block, key, value", [
        ("model", "seed", [1, 2]), ("task", "seed", [5, 3]), ("task", "r", 50),
        ("model", "dropout_rate", 0), ("split", "train", 1),
    ])
    def test_values_that_worked_before_still_work(self, tmp_path, block, key, value):
        cfg = small_sweep_config()
        del cfg["sweep"]
        cfg["split"] = {"train": 0.8, "val": 0.2, "test": 0.0}
        cfg[block][key] = value
        if block == "split":
            cfg["split"].update(val=0, test=0)
        assert main(["train", "--config", write_config(tmp_path / "cfg.json", cfg),
                     "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("block", ["task", "model"])
    def test_a_kind_that_is_not_a_string(self, tmp_path, capsys, block):
        cfg = percentile_config(tmp_path)
        cfg[block]["kind"] = ["percentile"]
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        code, err = self.run_main(["train", "--config", cfg_path], capsys)
        assert code == 2 and err == f"error: unknown {block} kind ['percentile']"

    def test_a_config_that_is_not_an_object(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "cfg.json", ["task"])
        code, err = self.run_main(["gen", "--config", cfg_path], capsys)
        assert code == 2 and err == f"error: config {cfg_path} must be a JSON object"

    @pytest.mark.parametrize("kind, key, message", [
        ("span", "tau", "temperature 0 must be positive"),
        ("span", "sinkhorn_iters", "iterations 0 must be >= 1"),
        ("span-fc", "tau", "temperature 0 must be positive"),
        ("span-fc", "sinkhorn_iters", "iterations 0 must be >= 1"),
    ])
    def test_permutation_network_setting_out_of_range(self, tmp_path, capsys, kind,
                                                      key, message):
        cfg = percentile_config(tmp_path)
        cfg["model"] = dict(MODEL_BLOCKS[kind], kind=kind, **{key: 0})
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        code, err = self.run_main(["train", "--config", cfg_path], capsys)
        assert code == 2 and err == f"error: model: PermutationNetwork: {message}"
        assert not (tmp_path / "run" / "history.csv").exists()

    def test_pisgd_without_orders(self, tmp_path, capsys):
        cfg = percentile_config(tmp_path)
        cfg["model"] = dict(MODEL_BLOCKS["pisgd"], kind="pisgd", permutations=0)
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        code, err = self.run_main(["train", "--config", cfg_path], capsys)
        assert code == 2 and err == (
            "error: model: PiSgdModel: permutations 0 must be >= 1")
        assert not (tmp_path / "run" / "history.csv").exists()

    @pytest.mark.parametrize("kind, key", [
        ("span", "hidden"), ("span-no-apn", "hidden"), ("pisgd", "hidden"),
        ("span-fc", "width"), ("deepsets", "width"), ("janossy", "width"),
        ("janossy", "k"),
    ])
    @pytest.mark.parametrize("size", [0, -1])
    def test_model_size_below_one(self, tmp_path, capsys, kind, key, size):
        cfg = percentile_config(tmp_path)
        cfg["model"] = dict(MODEL_BLOCKS[kind], kind=kind, **{key: size})
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        code, err = self.run_main(["train", "--config", cfg_path], capsys)
        owner = MODEL_KINDS[kind].__name__
        assert code == 2 and err == f"error: model: {owner}: {key} {size} must be >= 1"
        assert not (tmp_path / "run" / "history.csv").exists()

    def test_seed_flag_with_a_train_block_that_is_not_an_object(self, tmp_path,
                                                                capsys):
        cfg = percentile_config(tmp_path)
        cfg["train"] = 5
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        code, err = self.run_main(["train", "--config", cfg_path, "--seed", "3"],
                                  capsys)
        assert code == 2 and err == "error: config: train must be dict, not 5"
        assert not (tmp_path / "run").exists()

    def test_negative_seed_flag(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "cfg.json", percentile_config(tmp_path))
        code, err = self.run_main(["train", "--config", cfg_path, "--seed", "-1"],
                                  capsys)
        assert code == 2 and err == (
            "error: train: TrainConfig: seed must be nonnegative")

    @pytest.mark.parametrize("command", ["gen", "train"])
    def test_negative_task_seed(self, tmp_path, capsys, command):
        cfg = percentile_config(tmp_path)
        cfg["task"]["seed"] = -2
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        code, err = self.run_main([command, "--config", cfg_path], capsys)
        assert code == 2 and err.startswith("error: task: ")
        assert not (tmp_path / "run" / "dataset.jsonl").exists()
        assert not (tmp_path / "run" / "history.csv").exists()

    @pytest.mark.parametrize("kind", ["deepsets", "janossy"])
    def test_dropout_rate_outside_unit_interval(self, tmp_path, capsys, kind):
        cfg = percentile_config(tmp_path)
        cfg["model"] = dict(MODEL_BLOCKS[kind], kind=kind, dropout_rate=1.5)
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        code, err = self.run_main(["train", "--config", cfg_path], capsys)
        assert code == 2 and err == "error: model: dropout: rate 1.5 outside [0, 1)"
        assert not (tmp_path / "run" / "history.csv").exists()

    def test_batch_larger_than_the_training_split(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "cfg.json",
                                percentile_config(tmp_path, batch_size=33))
        code, err = self.run_main(["train", "--config", cfg_path], capsys)
        assert code == 2 and err.endswith("batch size 33 exceeds dataset size 32")

    @pytest.mark.parametrize("block, message", [
        ({"h": 0}, "error: gradcheck: step h 0 must be positive"),
        ({"loss": "mae"}, "error: gradcheck: TrainConfig: unknown loss 'mae'"),
        ({"batch": 0}, "error: gradcheck: batch 0 must be positive"),
        ({"n": 0}, "error: gradcheck: n 0 must be positive"),
        ({"d": 0}, "error: gradcheck: d 0 must be positive"),
        ({"L": 0}, "error: gradcheck: L 0 must be positive"),
    ])
    def test_gradcheck_bad_value(self, tmp_path, capsys, block, message):
        cfg_path = write_config(tmp_path / "cfg.json", {
            "model": {"kind": "deepsets", "width": 4, "seed": 0},
            "gradcheck": {"n": 3, "d": 2, "L": 1, **block},
        })
        code, err = self.run_main(["gradcheck", "--config", cfg_path], capsys)
        assert code == 2 and err == message

    def test_gradcheck_empty_set_on_a_span_model(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "cfg.json", {
            "model": {"kind": "span", "hidden": 4, "tau": 1.0, "sinkhorn_iters": 5},
            "gradcheck": {"n": 0, "d": 2},
        })
        code, err = self.run_main(["gradcheck", "--config", cfg_path], capsys)
        assert code == 2 and err == "error: gradcheck: n 0 must be positive"

    def test_diverged_run(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "cfg.json",
                                percentile_config(tmp_path, divergence_limit=1e-9))
        code, err = self.run_main(["train", "--config", cfg_path], capsys)
        assert code == 2 and "outer iteration 1" in err

    def test_diverged_run_keeps_its_history(self, tmp_path, capsys):
        # with lr 1e-3 the third batch loss (21.4) is the first above 21
        full_cfg = percentile_config(tmp_path / "full")
        assert main(["train", "--config",
                     write_config(tmp_path / "full.json", full_cfg)]) == 0
        full = load_history(tmp_path / "full" / "run" / "history.csv")
        tripped = next(k for k, row in enumerate(full) if row.batch_loss > 21.0)
        assert 0 < tripped < len(full)

        cfg_path = write_config(tmp_path / "cfg.json",
                                percentile_config(tmp_path, divergence_limit=21.0))
        capsys.readouterr()
        code, err = self.run_main(["train", "--config", cfg_path], capsys)
        assert code == 2 and f"outer iteration {full[tripped].outer_iter}" in err
        kept = load_history(tmp_path / "run" / "history.csv")
        assert kept == full[:tripped]

    def test_eval_checkpoint_without_manifest(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "cfg.json", percentile_config(tmp_path))
        (tmp_path / "empty").mkdir()
        code, err = self.run_main(["eval", "--config", cfg_path, "--checkpoint",
                                   str(tmp_path / "empty")], capsys)
        assert code == 2 and "manifest.json" in err

    def test_eval_checkpoint_with_bad_blob(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "cfg.json", percentile_config(tmp_path))
        assert main(["train", "--config", cfg_path]) == 0
        ckpt = tmp_path / "run" / "checkpoint"
        (ckpt / "readout.weight.sptn").write_bytes(b"not a blob")
        capsys.readouterr()
        code, err = self.run_main(["eval", "--config", cfg_path,
                                   "--checkpoint", str(ckpt)], capsys)
        assert code == 2 and "readout.weight.sptn" in err

    def test_eval_with_another_model_block(self, tmp_path, capsys):
        cfg = percentile_config(tmp_path)
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        assert main(["train", "--config", cfg_path]) == 0
        cfg["model"] = {"kind": "deepsets", "width": 8, "seed": 3}
        eval_path = write_config(tmp_path / "eval.json", cfg)
        capsys.readouterr()
        out = tmp_path / "evalout"
        code, err = self.run_main(["eval", "--config", eval_path, "--checkpoint",
                                   str(tmp_path / "run" / "checkpoint"),
                                   "--out", str(out)], capsys)
        assert code == 2 and "holds a {'kind': 'span'" in err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("sweep, message", [
        ({"grid": {"model.width": 4}},
         "sweep grid 'model.width' must be a non-empty list of values"),
        ({"grid": {"model.width": []}},
         "sweep grid 'model.width' must be a non-empty list of values"),
        ({"grid": {"model.width.x": [4]}},
         "sweep grid path 'model.width.x' is not a key of a config block"),
        ({"grid": {"model.width": [4]}, "foo": 1}, "unknown keys in sweep: foo"),
    ], ids=["scalar", "empty", "through-a-value", "unknown-key"])
    def test_bad_sweep_block(self, tmp_path, capsys, sweep, message):
        cfg = dict(small_sweep_config(), sweep=sweep)
        cfg_path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "sweepout"
        code, err = self.run_main(["sweep", "--config", cfg_path,
                                   "--out", str(out)], capsys)
        assert code == 2 and err == f"error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("manifest", [
        '{"format": 1, "model": {"kind": "span"',
        '{"format": 1, "model": {"kind": "span", "n": 8, "d": 1, "L": 1, "hiden": 3}}',
    ])
    def test_eval_checkpoint_with_bad_manifest(self, tmp_path, capsys, manifest):
        cfg_path = write_config(tmp_path / "cfg.json", percentile_config(tmp_path))
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "manifest.json").write_text(manifest)
        code, err = self.run_main(["eval", "--config", cfg_path,
                                   "--checkpoint", str(ckpt)], capsys)
        assert code == 2 and "manifest.json" in err

    def test_oracle_verify_malformed_jsonl(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "cfg.json", {
            "task": {"kind": "percentile", "n": 6, "r": 50, "count": 3, "seed": 2},
        })
        out = tmp_path / "data"
        assert main(["gen", "--config", cfg_path, "--out", str(out)]) == 0
        data = out / "dataset.jsonl"
        lines = data.read_text().splitlines()
        lines[2] = lines[2][:-5]  # truncate the second record
        data.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code, err = self.run_main(["oracle-verify", "--config", str(data)], capsys)
        assert code == 2 and f"{data}:3:" in err


class TestSweepWorkers:
    @pytest.mark.parametrize("value", ["0", "-1", "abc"])
    def test_rejected_before_any_trial(self, value, tmp_path, monkeypatch,
                                       capsys):
        monkeypatch.setenv("SPANLAB_THREADS", value)
        cfg_path = write_config(tmp_path / "cfg.json", small_sweep_config())
        out = tmp_path / "sweepout"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err
        assert "SPANLAB_THREADS" in err
        assert not out.exists()

    def test_capped_at_cpu_count(self, monkeypatch):
        cpus = os.cpu_count() or 1
        monkeypatch.setenv("SPANLAB_THREADS", str(cpus + 1))
        assert sweep_workers() == cpus


class TestDatasetFromTask:
    def test_every_kind_has_a_block(self):
        assert set(TASK_BLOCKS) == set(TASK_KINDS)

    @pytest.mark.parametrize("task", list(TASK_BLOCKS.values()))
    def test_all_kinds_generate_and_verify(self, task, tmp_path):
        from spanlab.tasks import oracle_verify, save_dataset

        ds = dataset_from_task(task)
        assert len(ds) == 4
        assert oracle_verify(ds) == []
        save_dataset(tmp_path / "d.jsonl", ds)
        assert oracle_verify(load_dataset(tmp_path / "d.jsonl")) == []

    @pytest.mark.parametrize("kind", sorted(TASK_BLOCKS))
    def test_signature_defaults_written_out_change_nothing(self, kind, tmp_path):
        block = dict(TASK_BLOCKS[kind])
        if kind == "maxdigit":
            block["biased"] = True  # so that it also writes its test split
        spelled = {p.name: p.default for p in
                   signature_params(task_generator(kind)) if p.default is not p.empty}
        written = {}
        for name, task in (("short", block), ("spelled", {**spelled, **block})):
            cfg_path = write_config(tmp_path / f"{name}.json", {"task": task})
            assert main(["gen", "--config", cfg_path,
                         "--out", str(tmp_path / name)]) == 0
            written[name] = {f.name: f.read_bytes()
                             for f in (tmp_path / name).glob("dataset*.jsonl")}
        assert len(written["short"]) == (2 if kind == "maxdigit" else 1)
        assert written["spelled"] == written["short"]


class TestBenchmarkNames:
    """The benchmark times the program through these names: ``bench/run.py``
    wraps the six ``spanlab.cli`` names in ``Boundaries.install``; its tracer
    reads ``nn.optimizer_ms`` and ``nn.clip_ms`` from the two ``spanlab.nn``
    exports, the ``perm.*_ms`` figures from ``sinkhorn``, ``apply_soft`` and
    ``PermutationNetwork.forward``, and ``models.checkpoint_save_ms`` per
    ``save_checkpoint`` call; ``bench/test_checks.py`` saves and loads a
    checkpoint.  A rename fails here before it fails there."""

    def test_cli_keeps_every_name_the_benchmark_wraps(self):
        from spanlab import cli

        for name in ("train_span", "train_standard", "load_checkpoint",
                     "average_relative_error", "ablation_fractions",
                     "invariance_delta"):
            assert callable(getattr(cli, name, None)), name

    def test_nn_exports_the_optimizer_step_and_the_clip(self):
        from spanlab import nn

        for name in ("adam_step", "clip_global_norm"):
            assert name in nn.__all__ and callable(getattr(nn, name)), name

    def test_perm_keeps_the_names_the_tracer_times(self):
        from spanlab import perm

        for name in ("sinkhorn", "apply_soft", "PermutationNetwork"):
            assert name in perm.__all__, name
        assert callable(perm.sinkhorn) and callable(perm.apply_soft)
        assert callable(perm.PermutationNetwork.forward)

    def test_checkpoint_save_and_load_keep_their_shape(self, tmp_path):
        from spanlab.models import SpanModel, load_checkpoint, save_checkpoint

        model = SpanModel(n=4, d=2, L=1, hidden=3, sinkhorn_iters=2, seed=1)
        save_checkpoint(directory=tmp_path / "ckpt", model=model)
        loaded, extra = load_checkpoint(tmp_path / "ckpt")
        assert loaded.spec() == model.spec() and extra == {}

    def test_span_forward_and_loss_record_fifteen_ops(self):
        from spanlab.models import SpanModel
        from spanlab.tensor import GradTape, Tensor
        from spanlab.train import batch_loss

        model = SpanModel(n=4, d=2, L=1, hidden=3, sinkhorn_iters=2,
                          input_scale=0.1, seed=1)
        rng = np.random.default_rng(0)
        with GradTape() as tape:
            batch_loss("mse", model.forward(Tensor(rng.normal(size=(3, 4, 2)))),
                       Tensor(rng.normal(size=(3, 1))))
        assert [op.name for op in tape._ops] == [
            "mul", "matmul", "relu", "sinkhorn", "transpose", "permute_rows",
            "transpose", "permute_rows", "matmul", "lstm", "matmul", "add",
            "sub", "mul", "mean"]
