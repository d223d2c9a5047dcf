import numpy as np
import pytest

from spanlab.models import DeepSetsModel, PiSgdModel, SpanModel
from spanlab.tasks import SetInstance, gen_percentile
from spanlab.tensor import DomainError
from spanlab.train import (
    HistoryRow,
    TrainConfig,
    TrainingDiverged,
    batch_loss,
    batch_loss_value,
    load_history,
    loss_eval,
    save_history,
    train_span,
    train_standard,
)
from spanlab.tensor import Tensor


def sum_task_instances(count, n=10, seed=0):
    """Toy regression: the label is the sum of the (scalar) elements."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        x = rng.uniform(0.0, 1.0, size=(n, 1))
        out.append(SetInstance(x, np.array([float(x.sum())])))
    return out


def tiny_span_model(seed=0, n=6):
    return SpanModel(n=n, d=1, L=1, hidden=6, tau=0.5, sinkhorn_iters=8,
                     input_scale=0.2, seed=seed)


def percentile_instances(count, n=6, seed=0):
    return gen_percentile(n=n, r=50, count=count, seed=seed).instances


class TestLosses:
    def test_mse_zero_on_match(self):
        y = Tensor(np.array([[1.0, 2.0]]))
        assert batch_loss("mse", y, y).item() == 0.0

    def test_mse_positive(self):
        a = Tensor(np.array([[1.0]]))
        b = Tensor(np.array([[3.0]]))
        assert batch_loss("mse", a, b).item() == 4.0

    def test_cosine_sign_invariance(self):
        v = np.array([[0.6, 0.8]])
        assert loss_eval("eigvec-cosine", -v[0], v[0]) == pytest.approx(0.0, abs=1e-12)

    def test_cosine_orthogonal(self):
        assert loss_eval("eigvec-cosine", [1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_cosine_zero_norm_rejected(self):
        with pytest.raises(DomainError):
            loss_eval("eigvec-cosine", [0.0, 0.0], [1.0, 0.0])

    def test_cross_entropy_nonnegative_and_minimal_on_confident(self):
        logits = np.array([[10.0, -10.0]])
        onehot = np.array([[1.0, 0.0]])
        good = batch_loss("cross-entropy", Tensor(logits), Tensor(onehot)).item()
        bad = batch_loss("cross-entropy", Tensor(-logits), Tensor(onehot)).item()
        assert 0.0 <= good < 1e-6 < bad

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            batch_loss("huber", Tensor(np.ones((1, 1))), Tensor(np.ones((1, 1))))


class TestAlternation:
    def test_learner_phase_freezes_adversary_and_vice_versa(self):
        model = tiny_span_model(seed=1)
        data = percentile_instances(12, seed=1)
        cfg = TrainConfig(batch_size=4, outer_iters=1, learner_steps=2,
                          adversary_steps=0, learner_lr=1e-3, seed=1)
        pn_before = model.pn.weight.data.tobytes()
        theta_before = model.lstm.weights["i"].data.tobytes()
        train_span(model, data, cfg)
        assert model.pn.weight.data.tobytes() == pn_before  # K=0: frozen
        assert model.lstm.weights["i"].data.tobytes() != theta_before

        cfg = TrainConfig(batch_size=4, outer_iters=1, learner_steps=0,
                          adversary_steps=2, adversary_lr=1e-3, seed=2)
        pn_before = model.pn.weight.data.tobytes()
        theta_before = model.lstm.weights["i"].data.tobytes()
        train_span(model, data, cfg)
        assert model.pn.weight.data.tobytes() != pn_before
        assert model.lstm.weights["i"].data.tobytes() == theta_before

    def test_adversary_ascent_does_not_decrease_fixed_batch_loss(self):
        # first-order check: plain gradient ascent with a tiny step
        for trial in range(10):
            model = tiny_span_model(seed=100 + trial)
            data = percentile_instances(8, seed=200 + trial)
            x = np.stack([inst.elements for inst in data])
            y = np.stack([inst.label for inst in data])
            before = batch_loss_value(model, x, y, "mse")
            cfg = TrainConfig(
                batch_size=8, outer_iters=1, learner_steps=0,
                adversary_steps=1, adversary_optimizer="sgd",
                adversary_lr=1e-6, grad_clip=0.0, seed=300 + trial,
            )
            train_span(model, data, cfg)
            after = batch_loss_value(model, x, y, "mse")
            assert after >= before - 1e-15

    def test_zero_learning_rate_keeps_parameters(self):
        model = tiny_span_model(seed=3)
        data = percentile_instances(12, seed=3)
        snapshot = {k: v.data.tobytes() for k, v in model.parameters().items()}
        cfg = TrainConfig(batch_size=4, outer_iters=3, learner_steps=1,
                          adversary_steps=1, learner_lr=0.0,
                          adversary_lr=0.0, seed=3)
        train_span(model, data, cfg)
        for k, v in model.parameters().items():
            assert v.data.tobytes() == snapshot[k], k

    def test_divergence_guard_reports_location(self):
        model = tiny_span_model(seed=4)
        data = percentile_instances(12, seed=4)
        cfg = TrainConfig(batch_size=4, outer_iters=1, learner_steps=1,
                          divergence_limit=1e-12, seed=4)
        with pytest.raises(TrainingDiverged) as info:
            train_span(model, data, cfg)
        msg = str(info.value)
        assert "outer iteration 1" in msg and "learner" in msg


class TestDeterminismAndResume:
    def test_identical_runs_byte_identical_checkpoints(self, tmp_path):
        def run(where):
            model = tiny_span_model(seed=5)
            data = percentile_instances(16, seed=5)
            cfg = TrainConfig(batch_size=4, outer_iters=3, learner_steps=1,
                              adversary_steps=1, learner_lr=1e-3,
                              adversary_lr=1e-3, seed=5)
            train_span(model, data, cfg, out_dir=tmp_path / where)

        run("a")
        run("b")
        files_a = sorted((tmp_path / "a" / "checkpoint").iterdir())
        files_b = sorted((tmp_path / "b" / "checkpoint").iterdir())
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes(), fa.name
        assert (tmp_path / "a" / "history.csv").read_bytes() == \
            (tmp_path / "b" / "history.csv").read_bytes()

    def test_torn_periodic_checkpoint_does_not_load(self, tmp_path, monkeypatch):
        import spanlab.models
        import spanlab.train
        from spanlab.models import CheckpointError, load_checkpoint
        from spanlab.tensor import write_tensor_blob

        model = tiny_span_model(seed=8)
        # one blob per parameter plus its two Adam moments
        per_save = 3 * len(model.parameters())
        calls = []

        first_save = {}

        def failing_write(path, arr):
            calls.append(path)
            if len(calls) == per_save + 1:  # the second save begins
                first_save.update(
                    (f.name, f.read_bytes())
                    for f in (tmp_path / "checkpoint").iterdir())
            if len(calls) == per_save + 5:  # partway through the second save
                raise OSError("disk full")
            write_tensor_blob(path, arr)

        monkeypatch.setattr(spanlab.models, "write_tensor_blob", failing_write)
        monkeypatch.setattr(spanlab.train, "write_tensor_blob", failing_write)
        cfg = TrainConfig(batch_size=4, outer_iters=2, learner_lr=1e-3,
                          adversary_lr=1e-3, checkpoint_every=1, seed=8)
        with pytest.raises(OSError, match="disk full"):
            train_span(model, percentile_instances(16, seed=8), cfg,
                       out_dir=tmp_path)
        (torn,) = [p for p in tmp_path.iterdir()
                   if p.is_dir() and p.name != "checkpoint"]
        with pytest.raises(CheckpointError):
            load_checkpoint(torn)
        # the first save is still in place, whole, and loads
        assert "manifest.json" in first_save
        kept = tmp_path / "checkpoint"
        assert {f.name: f.read_bytes() for f in kept.iterdir()} == first_save
        load_checkpoint(kept)

    def test_periodic_saves_leave_no_staging_directory(self, tmp_path):
        cfg = TrainConfig(batch_size=4, outer_iters=3, learner_lr=1e-3,
                          adversary_lr=1e-3, checkpoint_every=1, seed=9)
        train_span(tiny_span_model(seed=9), percentile_instances(16, seed=9),
                   cfg, out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["checkpoint", "history.csv"]

    def test_resume_matches_uninterrupted(self, tmp_path):
        data = percentile_instances(16, seed=6)

        model_full = tiny_span_model(seed=6)
        cfg_full = TrainConfig(batch_size=4, outer_iters=6, learner_steps=1,
                               adversary_steps=1, learner_lr=1e-3,
                               adversary_lr=1e-3, seed=6)
        train_span(model_full, data, cfg_full, out_dir=tmp_path / "full")

        model_half = tiny_span_model(seed=6)
        cfg_half = TrainConfig(batch_size=4, outer_iters=3, learner_steps=1,
                               adversary_steps=1, learner_lr=1e-3,
                               adversary_lr=1e-3, seed=6)
        train_span(model_half, data, cfg_half, out_dir=tmp_path / "half")

        cfg_rest = TrainConfig(batch_size=4, outer_iters=6, learner_steps=1,
                               adversary_steps=1, learner_lr=1e-3,
                               adversary_lr=1e-3, seed=6)
        train_span(None, data, cfg_rest, out_dir=tmp_path / "resumed",
                   resume_from=tmp_path / "half" / "checkpoint")

        full = sorted((tmp_path / "full" / "checkpoint").glob("*.sptn"))
        resumed = sorted((tmp_path / "resumed" / "checkpoint").glob("*.sptn"))
        assert [f.name for f in full] == [f.name for f in resumed]
        for fa, fb in zip(full, resumed):
            assert fa.read_bytes() == fb.read_bytes(), fa.name

    def test_resumed_history_matches_uninterrupted(self, tmp_path):
        data = percentile_instances(16, seed=12)

        def run(iters, out, resume_from=None):
            cfg = TrainConfig(batch_size=4, outer_iters=iters, learner_steps=2,
                              adversary_steps=1, learner_lr=1e-3,
                              adversary_lr=1e-3, seed=12)
            model = None if resume_from else tiny_span_model(seed=12)
            return train_span(model, data, cfg, out_dir=tmp_path / out,
                              resume_from=resume_from)

        full = run(4, "full")
        run(2, "half")
        resumed = run(4, "resumed", resume_from=tmp_path / "half" / "checkpoint")
        assert len(full) == 12 and resumed == full
        assert (tmp_path / "resumed" / "history.csv").read_bytes() == \
            (tmp_path / "full" / "history.csv").read_bytes()

    def test_resume_in_place_from_a_periodic_checkpoint(self, tmp_path,
                                                        monkeypatch):
        # a run stopped right after its first periodic save, with no chance
        # to write its history at exit, still resumes to the full history
        import spanlab.train

        data = percentile_instances(16, seed=13)
        cfg = TrainConfig(batch_size=4, outer_iters=4, learner_lr=1e-3,
                          adversary_lr=1e-3, checkpoint_every=2, seed=13)
        train_span(tiny_span_model(seed=13), data, cfg, out_dir=tmp_path / "full")

        class Killed(BaseException):
            pass

        killed = []

        def kill_after_first_save(*args, **kwargs):
            save_train_checkpoint(*args, **kwargs)
            killed.append(True)
            raise Killed

        save_train_checkpoint = spanlab.train._save_train_checkpoint
        monkeypatch.setattr(spanlab.train, "_save_train_checkpoint",
                            kill_after_first_save)
        monkeypatch.setattr(spanlab.train, "save_history",
                            lambda *a: None if killed else save_history(*a))
        with pytest.raises(Killed):
            train_span(tiny_span_model(seed=13), data, cfg,
                       out_dir=tmp_path / "run")
        monkeypatch.undo()
        assert len(load_history(tmp_path / "run" / "history.csv")) == 4

        train_span(None, data, cfg, out_dir=tmp_path / "run",
                   resume_from=tmp_path / "run" / "checkpoint")
        assert (tmp_path / "run" / "history.csv").read_bytes() == \
            (tmp_path / "full" / "history.csv").read_bytes()

    @pytest.mark.parametrize("damage", ["missing", "short"])
    def test_resume_without_its_history_raises(self, tmp_path, damage):
        from spanlab.models import CheckpointError

        data = percentile_instances(16, seed=14)
        cfg = TrainConfig(batch_size=4, outer_iters=2, learner_lr=1e-3,
                          adversary_lr=1e-3, seed=14)
        rows = train_span(tiny_span_model(seed=14), data, cfg,
                          out_dir=tmp_path / "half")
        history = tmp_path / "half" / "history.csv"
        if damage == "missing":
            history.unlink()
        else:
            save_history(history, rows[:-1])
        with pytest.raises(CheckpointError, match="history.csv"):
            train_span(None, data, TrainConfig(**{**vars(cfg), "outer_iters": 4}),
                       out_dir=tmp_path / "rest",
                       resume_from=tmp_path / "half" / "checkpoint")

    def test_standard_resume_matches(self, tmp_path):
        data = sum_task_instances(32, seed=7)

        def cfg(iters):
            return TrainConfig(loss="mse", batch_size=8, outer_iters=iters,
                               learner_steps=2, learner_lr=1e-3, seed=7)

        full = DeepSetsModel(d=1, L=1, width=8, seed=7)
        train_standard(full, data, cfg(4), out_dir=tmp_path / "full")
        half = DeepSetsModel(d=1, L=1, width=8, seed=7)
        train_standard(half, data, cfg(2), out_dir=tmp_path / "half")
        train_standard(None, data, cfg(4), out_dir=tmp_path / "resumed",
                       resume_from=tmp_path / "half" / "checkpoint")
        for fa, fb in zip(
            sorted((tmp_path / "full" / "checkpoint").glob("*.sptn")),
            sorted((tmp_path / "resumed" / "checkpoint").glob("*.sptn")),
        ):
            assert fa.read_bytes() == fb.read_bytes(), fa.name


class TestStandardTraining:
    def test_deepsets_learns_sums(self):
        data = sum_task_instances(256, n=10, seed=8)
        model = DeepSetsModel(d=1, L=1, width=32, seed=8)
        cfg = TrainConfig(loss="mse", batch_size=32, outer_iters=400,
                          learner_steps=1, learner_lr=5e-3, seed=8)
        train_standard(model, data, cfg)
        errors = []
        for inst in data[:64]:
            pred = model.predict(inst.elements)[0]
            errors.append(abs(pred - inst.label[0]) / inst.label[0])
        assert float(np.mean(errors)) < 0.02

    def test_pisgd_training_runs_and_uses_fresh_perms(self):
        data = sum_task_instances(32, n=6, seed=9)
        model = PiSgdModel(n=6, d=1, L=1, hidden=8, seed=9)
        cfg = TrainConfig(loss="mse", batch_size=8, outer_iters=10,
                          learner_steps=1, learner_lr=1e-3, seed=9)
        history = train_standard(model, data, cfg)
        assert len(history) == 10
        assert all(np.isfinite(r.batch_loss) for r in history)

    def test_history_is_finite_on_all_losses(self):
        rng = np.random.default_rng(10)
        # classification-style toy data for cross-entropy
        data = []
        for _ in range(16):
            x = rng.normal(size=(4, 2))
            label = np.zeros(3)
            label[int(rng.integers(3))] = 1.0
            data.append(SetInstance(x, label))
        model = DeepSetsModel(d=2, L=3, width=8, seed=10)
        cfg = TrainConfig(loss="cross-entropy", batch_size=8, outer_iters=5,
                          learner_steps=1, learner_lr=1e-3, seed=10)
        history = train_standard(model, data, cfg)
        assert all(np.isfinite(r.batch_loss) for r in history)


class TestHistoryIO:
    def test_round_trip(self, tmp_path):
        rows = [
            HistoryRow(1, "learner", 1, 0.123456789012345),
            HistoryRow(1, "adversary", 1, 2.5e-17),
            HistoryRow(2, "learner", 1, 1e6),
        ]
        path = tmp_path / "history.csv"
        save_history(path, rows)
        back = load_history(path)
        assert back == rows

    def test_header_line(self, tmp_path):
        path = tmp_path / "history.csv"
        save_history(path, [HistoryRow(1, "learner", 1, 0.5)])
        first = path.read_text().splitlines()[0]
        assert first == "outer_iter,phase,step,batch_loss"
