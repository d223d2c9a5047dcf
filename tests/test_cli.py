import inspect
import json
import os

import numpy as np
import pytest

from spanlab.cli import (
    ConfigError,
    dataset_from_task,
    load_config,
    main,
    model_from_config,
    prepare_splits,
    sweep_workers,
    validate_config,
)
from spanlab import tasks
from spanlab.models import MODEL_KINDS
from spanlab.tasks import TASK_KINDS, load_dataset
from spanlab.train import load_history


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
