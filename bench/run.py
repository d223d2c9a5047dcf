"""Training and evaluation throughput of spanlab, end to end and per layer.

    python3 bench/run.py --workload span-desk --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Run from the repository root; the program is imported from ``./src``.  Each
round drives the program the way a user does, in-process through
``spanlab.cli.main``: ``train`` on a config, then ``eval`` on the checkpoint
it wrote.  Rounds repeat until ``--seconds`` have passed (at least two), and
every round does the same work, so its outputs must be byte-identical.
``--seed`` sets the task data.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, medians over rounds; with
``--trace 1`` the public functions of every spanlab module are wrapped and
the per-layer split is reported instead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# The program's matrices are at most 32x129x128.  With two BLAS threads on a
# 2-core machine, training throughput fell eightfold while another process
# ran, so the benchmark measures one BLAS thread (the set-up probes inherit
# this).  Set before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import checks  # noqa: E402
from layertrace import LAYERS, Tracer

SETUP_PROBES = 7
DELTA_PROBE_SETS = 50  # evaluate_model computes Δ on at most this many sets


# ---------------------------------------------------------------------------
# workloads: each is a list of experiment configs run in order every round


def _percentile_task(seed, count):
    return {"kind": "percentile", "n": 20, "r": 50, "count": count, "seed": seed}


def _span_desk(seed):
    # the criterion-6 model and optimiser, with periodic checkpoints
    return [{
        "task": _percentile_task(seed, 1280),
        "model": {"kind": "span", "hidden": 48, "tau": 0.1, "sinkhorn_iters": 20,
                  "input_scale": 0.05, "seed": 0},
        "train": {"loss": "mse", "learner_lr": 2e-3, "adversary_lr": 2e-3,
                  "batch_size": 32, "outer_iters": 30, "checkpoint_every": 10,
                  "seed": 0},
    }]


def _span_paper(seed):
    # span-desk with the paper's hidden size, Sinkhorn rounds and rate
    return [{
        "task": _percentile_task(seed, 200),
        "model": {"kind": "span", "hidden": 128, "tau": 0.1,
                  "sinkhorn_iters": 100, "input_scale": 0.05, "seed": 0},
        "train": {"loss": "mse", "learner_lr": 1e-4, "adversary_lr": 1e-4,
                  "batch_size": 32, "outer_iters": 40, "seed": 0},
    }]


def _maxdigit_ablation(seed):
    # the criterion-8 pipeline at a shorter schedule
    task = {"kind": "maxdigit", "count": 320, "seed": seed, "set_size": 4,
            "biased": True, "source": "synthetic", "per_class": 200,
            "digit_dim": 16, "noise": 0.6, "corpus_seed": seed, "test_count": 128}
    train = {"loss": "cross-entropy", "learner_lr": 2e-3, "batch_size": 32,
             "outer_iters": 100, "seed": 3}
    return [
        {"task": task, "model": {"kind": "span-no-apn", "hidden": 32, "seed": 3},
         "train": train},
        {"task": task,
         "model": {"kind": "span", "hidden": 32, "tau": 0.1, "sinkhorn_iters": 20,
                   "seed": 3},
         "train": dict(train, adversary_lr=2e-3)},
    ]


WORKLOADS = {
    "span-desk": _span_desk,
    "span-paper": _span_paper,
    "maxdigit-ablation": _maxdigit_ablation,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_sets_per_s": "sets/s",
    "eval_sets_per_s": "sets/s",
    "delta_sets_per_s": "sets/s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# timing boundaries around the calls spanlab.cli makes into the layers


class Boundaries:
    """Times training, scoring and Δ by wrapping the names ``spanlab.cli``
    calls them by.  One wrapper per call, so the cost is a few microseconds
    per training run or evaluated set.  With a tracer, each boundary also
    sets the tracer's phase."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.record = None
        self._saved = {}

    def _timed(self, fn, phase, on_return):
        bounds = self

        def wrapper(*args, **kwargs):
            outer = bounds.tracer.phase if bounds.tracer else None
            if bounds.tracer:
                bounds.tracer.phase = phase
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if bounds.tracer:
                    bounds.tracer.phase = outer
            on_return(bounds.record, elapsed, args, result)
            return result

        return wrapper

    def install(self):
        def trained(rec, dt, args, history):
            rec["train_s"] += dt
            rec["steps"] += len(history)
            rec["train_sets"] += len(history) * args[2].batch_size
            rec["trained"].append(args[0])

        def loaded(rec, dt, args, result):
            rec["eval_s"] += dt
            rec["loaded"].append(result[0])

        def scored(rec, dt, args, result):
            rec["eval_s"] += dt
            rec["eval_sets"] += len(args[1])

        def delta(rec, dt, args, result):
            rec["delta_s"] += dt
            rec["delta_sets"] += 1

        hooks = {
            "train_span": ("train", trained),
            "train_standard": ("train", trained),
            "load_checkpoint": ("eval", loaded),
            "average_relative_error": ("eval", scored),
            "ablation_fractions": ("eval", scored),
            "invariance_delta": ("delta", delta),
        }
        for name, (phase, on_return) in hooks.items():
            self._saved[name] = getattr(self.cli, name)
            setattr(self.cli, name, self._timed(self._saved[name], phase, on_return))

    def uninstall(self):
        for name, fn in self._saved.items():
            setattr(self.cli, name, fn)
        self._saved.clear()

    def new_round(self):
        self.record = {
            "train_s": 0.0, "steps": 0, "train_sets": 0, "eval_s": 0.0,
            "eval_sets": 0, "delta_s": 0.0, "delta_sets": 0,
            "trained": [], "loaded": [], "main_calls": 0,
            "trees": [], "checkpoint_bytes": [], "failed": [],
        }
        return self.record


# ---------------------------------------------------------------------------
# measurement


def planned_operations(cfg, test_count):
    """Training steps, scored sets and Δ sets one round of ``cfg`` attempts."""
    tcfg = cfg["train"]
    per_outer = tcfg.get("learner_steps", 1)
    if cfg["model"]["kind"] in ("span", "span-fc"):
        per_outer += tcfg.get("adversary_steps", 1)
    return tcfg["outer_iters"] * per_outer + test_count \
        + min(DELTA_PROBE_SETS, test_count)


def _cli_main(cli, argv):
    """Exit code of ``spanlab.cli.main``, with its report kept off stdout;
    an escaping exception is printed and counts as a failure."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception:  # a failed operation is counted, and the run goes on
        traceback.print_exc()
        return 1


def run_round(cli, bounds, config_paths, work):
    """One train+eval pass over every config.  The record holds the timings
    and, under "failed", the indices of configs whose commands failed."""
    rec = bounds.new_round()
    for i, path in enumerate(config_paths):
        out = work / f"run{i}"
        shutil.rmtree(out, ignore_errors=True)
        rc = _cli_main(cli, ["train", "--config", str(path), "--out", str(out)])
        if rc == 0:
            rc = _cli_main(cli, ["eval", "--config", str(path), "--out", str(out),
                                 "--checkpoint", str(out / "checkpoint")])
        rec["main_calls"] += 2
        if rc != 0:
            rec["failed"].append(i)
            continue
        rec["trees"].append(checks.hash_tree(out))
        rec["checkpoint_bytes"].append(
            sum(p.stat().st_size for p in (out / "checkpoint").iterdir()))
    return rec


def time_setup(config_paths, work, root):
    """Median seconds of ``SETUP_PROBES`` cold set-ups, each in a fresh
    interpreter (see setup_probe.py)."""
    probe = Path(__file__).with_name("setup_probe.py")
    samples = []
    for k in range(SETUP_PROBES):
        out = work / f"setup{k}"
        proc = subprocess.run(
            [sys.executable, str(probe), str(out), *map(str, config_paths)],
            cwd=root, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
        shutil.rmtree(out, ignore_errors=True)
    return statistics.median(samples)


def layer_metrics(tracer, rounds):
    """Per-layer figures from a traced run: self time per training step
    unless the name or the README says otherwise."""
    t = tracer
    steps = sum(r["steps"] for r in rounds)
    eval_sets = sum(r["eval_sets"] for r in rounds)
    delta_sets = sum(r["delta_sets"] for r in rounds)
    main_calls = sum(r["main_calls"] for r in rounds)

    def step_ms(layer, *names, table=t.self_time):
        return 1000.0 * t.total(table, "train", layer, set(names)) / steps

    def call_ms(layer, name):
        return 1000.0 * t.total(t.inclusive, None, layer, {name}) \
            / t.total(t.calls, None, layer, {name})

    def per_set(table, phase, layer, names, sets, scale=1.0):
        return scale * t.total(table, phase, layer, names) / sets

    scoring = {"average_relative_error", "ablation_fractions"}
    values = {
        "tensor.backward_ms": (step_ms("tensor", "GradTape.gradient", "GradTape.backward"), "ms"),
        "tensor.tape_ops": (sum(t.tape_ops.values()) / steps, "ops/step"),
        "tensor.tape_ops.tile": (t.tape_ops["tile"] / steps, "ops/step"),
        "tensor.tape_ops.logsumexp": (t.tape_ops["logsumexp"] / steps, "ops/step"),
        "tensor.tape_ops.matmul": (t.tape_ops["matmul"] / steps, "ops/step"),
        "perm.sinkhorn_ms": (step_ms("perm", "sinkhorn"), "ms"),
        "perm.pn_forward_ms": (step_ms("perm", "PermutationNetwork.forward"), "ms"),
        "perm.apply_soft_ms": (step_ms("perm", "apply_soft"), "ms"),
        "nn.lstm_ms": (step_ms("nn", "LSTMCell.run", "LSTMCell.step"), "ms"),
        "nn.linear_ms": (step_ms("nn", "LinearLayer.forward"), "ms"),
        "nn.optimizer_ms": (step_ms("nn", "optimizer_step", "adam_step", "sgd_step"), "ms"),
        "nn.clip_ms": (step_ms("nn", "clip_global_norm"), "ms"),
        "train.loss_ms": (step_ms("train", "batch_loss"), "ms"),
        "train.loop_self_ms": (step_ms("train", "train_span", "train_standard"), "ms"),
        "models.forward_ms": (step_ms("models", "forward", table=t.inclusive), "ms"),
        "models.checkpoint_save_ms": (call_ms("models", "save_checkpoint"), "ms"),
        "models.checkpoint_bytes": (
            statistics.mean(b for r in rounds for b in r["checkpoint_bytes"]), "bytes"),
        "models.checkpoint_load_ms": (call_ms("models", "load_checkpoint"), "ms"),
        "metrics.eval_ms_per_set": (
            per_set(t.inclusive, "eval", "metrics", scoring, eval_sets, 1000.0), "ms"),
        "models.forwards_per_eval_set": (
            per_set(t.calls, "eval", "models", {"forward"}, eval_sets), "count"),
        "metrics.delta_ms_per_set": (
            per_set(t.inclusive, "delta", "metrics", {"invariance_delta"}, delta_sets,
                    1000.0), "ms"),
        "models.forwards_per_delta_set": (
            per_set(t.calls, "delta", "models", {"forward"}, delta_sets), "count"),
        "tasks.gen_s": (per_set(t.self_time, None, "tasks", None, main_calls), "s"),
        "cli.self_s": (per_set(t.self_time, None, "cli", None, main_calls), "s"),
        "trace.step_ms": (1000.0 * sum(r["train_s"] for r in rounds) / steps, "ms"),
    }
    return {name: {"value": float(v), "unit": u} for name, (v, u) in values.items()}


# ---------------------------------------------------------------------------
# correctness, checked after the timed rounds


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def verify(configs, splits, rounds, work):
    """Failure messages from every check in checks.py on the outputs of the
    last round (which must have succeeded) and the hashes of all rounds,
    and the largest Sinkhorn row-sum residual on the test sets."""
    from spanlab.tensor import GradTape, Tensor
    from spanlab.train import batch_loss

    if rounds[-1]["failed"]:
        return ["the last round failed, so its outputs cannot be checked"], 0.0
    ok_rounds = [r for r in rounds if not r["failed"]]
    failures = []
    residuals = []
    last = rounds[-1]
    for i, cfg in enumerate(configs):
        where = f"config {i} ({cfg['model']['kind']})"
        _dataset, train_insts, val_insts, test_insts = splits[i]
        out = work / f"run{i}"
        found = checks.check_same_hashes([r["trees"][i] for r in ok_rounds])

        task = cfg["task"]
        if task["kind"] == "percentile":
            found += checks.check_percentile_labels(
                train_insts + val_insts + test_insts, task["r"])
        else:
            found += checks.check_maxdigit_labels(train_insts + val_insts,
                                                  biased=task["biased"])
            found += checks.check_maxdigit_labels(test_insts, biased=False)

        found += checks.check_history(
            [(row["phase"], float(row["batch_loss"]))
             for row in _read_csv(out / "history.csv")])

        trained, loaded = last["trained"][i], last["loaded"][i]
        test_x = [inst.elements for inst in test_insts]
        preds = [loaded.predict(x) for x in test_x]
        found += checks.check_bit_identical([trained.predict(x) for x in test_x],
                                            preds)

        eval_seed = str(cfg["train"]["seed"])
        reported = {row["metric"]: float(row["value"])
                    for row in _read_csv(out / "results.csv")
                    if row["seed"] == eval_seed}
        if task["kind"] == "percentile":
            labels = [checks.nearest_rank_percentile(np.ravel(x), task["r"])
                      for x in test_x]
            recomputed = {"rel_error": checks.relative_error_mean(
                labels, [float(p[0]) for p in preds])}
        else:
            fractions = checks.ablation_split(
                [int(np.argmax(p)) for p in preds],
                [[int(d) for d in inst.digits] for inst in test_insts])
            found += checks.check_fractions(fractions)
            recomputed = dict(zip(("frac_max", "frac_last", "frac_other"),
                                  fractions))
        found += checks.check_metric_values(reported, recomputed)

        if hasattr(trained, "pn"):
            x = np.stack(test_x)
            if trained.input_scale != 1.0:
                x = x * trained.input_scale
            pn = trained.pn
            p = pn.forward(Tensor(x)).data
            logits = np.maximum(x @ pn.weight.data, 0.0)
            found += checks.check_soft_permutation(
                p, checks.unrolled_sinkhorn(logits, pn.temperature, pn.iterations))
            residuals.append(checks.row_residual(p))

            batch = train_insts[: cfg["train"]["batch_size"]]
            xb = np.stack([inst.elements for inst in batch])
            yb = np.stack([np.ravel(inst.label) for inst in batch])

            def batch_loss_tensor():
                return batch_loss(cfg["train"]["loss"], trained.forward(Tensor(xb)),
                                  Tensor(yb))

            with GradTape() as tape:
                loss = batch_loss_tensor()
            analytic = tape.gradient(loss, [pn.weight])[0].data
            numeric = checks.central_differences(
                lambda: batch_loss_tensor().item(), pn.weight.data)
            found += checks.check_gradient(analytic, numeric)
        failures += [f"{where}: {msg}" for msg in found]
    return failures, max(residuals, default=0.0)


# ---------------------------------------------------------------------------
# one workload


def run_workload(name, seed, seconds, trace, root, work):
    from spanlab import cli, metrics, models, nn, perm, tasks, tensor, train

    configs = WORKLOADS[name](seed)
    paths = []
    for i, cfg in enumerate(configs):
        paths.append(work / f"config{i}.json")
        paths[-1].write_text(json.dumps(cfg, indent=2))
    splits = [cli.prepare_splits(cfg) for cfg in configs]
    planned = [planned_operations(cfg, len(split[3]))
               for cfg, split in zip(configs, splits)]

    setup_s = None if trace else time_setup(paths, work, root)
    tracer = None
    if trace:
        tracer = Tracer()
        modules = dict(tensor=tensor, nn=nn, perm=perm, models=models,
                       train=train, metrics=metrics, tasks=tasks, cli=cli)
        tracer.install({layer: modules[layer] for layer in LAYERS})
    bounds = Boundaries(cli, tracer)
    bounds.install()
    rounds = []
    start = time.perf_counter()
    try:
        while len(rounds) < 2 or time.perf_counter() - start < seconds:
            rounds.append(run_round(cli, bounds, paths, work))
    finally:
        bounds.uninstall()
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(rounds) * sum(planned)
    failed = sum(planned[i] for r in rounds for i in r["failed"])
    ok = [r for r in rounds if not r["failed"]]
    if not ok:
        raise SystemExit(f"{name}: no round completed")
    if trace:
        metrics_out = layer_metrics(tracer, ok)
    else:
        values = {
            "setup_s": setup_s,
            "train_sets_per_s": statistics.median(r["train_sets"] / r["train_s"] for r in ok),
            "eval_sets_per_s": statistics.median(r["eval_sets"] / r["eval_s"] for r in ok),
            "delta_sets_per_s": statistics.median(r["delta_sets"] / r["delta_s"] for r in ok),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics_out = {k: {"value": float(v), "unit": END_TO_END_UNITS[k]}
                       for k, v in values.items()}

    failures, residual = verify(configs, splits, rounds, work)
    if trace:
        metrics_out["perm.sinkhorn_row_residual"] = {"value": residual, "unit": "1"}
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    outputs = hashlib.sha256(json.dumps(ok[-1]["trees"], sort_keys=True).encode())
    print(f"{name}: seed {seed}, {len(rounds)} rounds in "
          f"{time.perf_counter() - start:.1f} s, {attempted} operations, "
          f"{failed} failed, checks {'passed' if not failures else 'FAILED'}, "
          f"outputs sha256 {outputs.hexdigest()[:16]}", file=sys.stderr)
    for metric, entry in metrics_out.items():
        print(f"  {metric:32s} {entry['value']:12.6g} {entry['unit']}",
              file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics_out}


def run_all(args, root):
    """Every workload in its own process, so each reports its own peak RSS."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=root, stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, entry in res["metrics"].items():
            print(f"  {metric:32s} {entry['value']:12.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "spanlab" / "__init__.py").is_file():
        print("error: run from the repository root; ./src/spanlab not found",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    sys.path.insert(0, str(root / "src"))
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=root))
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
