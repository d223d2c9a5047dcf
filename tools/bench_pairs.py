"""Paired benchmark runs of two checkouts, summarised into BENCH_<tag>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --tag fused-sinkhorn --pairs 10 --seeds 0 5 --trace span-paper

For each seed, runs the unmodified ``python3 bench/run.py --workload all``
of each checkout, from that checkout's root and at its own default run
length, ``--pairs`` times in
alternating order (even pairs run the parent first, odd pairs the change),
so that drift of the host's speed falls on both sides alike.  Each run's
result is the JSON object ``bench/run.py`` prints last; the outputs sha256
of each workload is read from its standard error.  ``--trace WORKLOAD`` adds
one ``--trace 1`` run of that workload per side, parent first, at the first
seed.

The file written (``BENCH_<tag>.json`` in the current directory unless
``--out`` is given) holds every run, and per seed, workload and end-to-end
metric: the median and quartiles of each side
(``statistics.quantiles(n=4, method="inclusive")``), the pairs the change
won (a strictly better value; ties count for neither side), the gap between
the medians and the parent's interquartile spread.  Which direction is
better comes from ``BENCHMARK.json`` of the change.  A run that exits
nonzero stops the tool with exit code 1 and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
_SHA_LINE = re.compile(r"^(\S+): seed .* outputs sha256 ([0-9a-f]+)$", re.M)


def bench(root, seed, workload="all", trace=0):
    """(result, outputs sha256 by workload) of one ``bench/run.py`` run."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(argv[1:])} in {root} exited "
                 f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, dict(_SHA_LINE.findall(proc.stderr))


def revision(root):
    """Short commit of a git checkout, marked when its tracked files differ
    from that commit; None outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args],
                              capture_output=True, text=True)

    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + (" with uncommitted changes" if dirty else "")


def side_stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarise(runs, better):
    """seed -> workload -> metric -> paired comparison of the two sides."""
    summary = {}
    for seed in sorted({r["seed"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["seed"] == seed:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        pairs = [pairs[k] for k in sorted(pairs)]
        per_workload = summary[f"seed {seed}"] = {}
        for workload, res in pairs[0]["parent"].items():
            per_metric = per_workload[workload] = {}
            for metric in res["metrics"]:
                value = {side: [p[side][workload]["metrics"][metric]["value"]
                                for p in pairs] for side in SIDES}
                sign = 1.0 if better[metric] == "higher" else -1.0
                gains = [sign * (c - p) for p, c in zip(value["parent"], value["change"])]
                parent, change = side_stats(value["parent"]), side_stats(value["change"])
                per_metric[metric] = {
                    "better": better[metric],
                    "parent": parent,
                    "change": change,
                    "change_wins": sum(g > 0 for g in gains),
                    "ties": sum(g == 0 for g in gains),
                    "pairs": len(pairs),
                    "median_diff": change["median"] - parent["median"],
                    "parent_iqr": parent["q3"] - parent["q1"],
                    "change_vs_parent": change["median"] / parent["median"] - 1.0,
                }
    return summary


def checks(runs):
    """Correctness over every run: all correct, failures, and the distinct
    outputs sha256 of each side per workload."""
    sha = {side: {} for side in SIDES}
    for r in runs:
        for workload, digest in r["outputs_sha256"].items():
            sha[r["side"]].setdefault(workload, set()).add(digest)
    return {
        "all_correct": all(res["correct"] for r in runs for res in r["result"].values()),
        "failed": sum(res["failed"] for r in runs for res in r["result"].values()),
        "outputs_sha256": {side: {w: sorted(d) for w, d in sorted(by_w.items())}
                           for side, by_w in sha.items()},
        "sides_agree": sha["parent"] == sha["change"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="root of the parent checkout")
    parser.add_argument("--change", type=Path, required=True,
                        help="root of the changed checkout")
    parser.add_argument("--tag", required=True, help="names BENCH_<tag>.json")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--trace", default=None, metavar="WORKLOAD",
                        help="also one traced run of WORKLOAD per side")
    parser.add_argument("--describe", default="", help="what the change does")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 2 or min(args.seeds) < 0:
        parser.error("--pairs must be >= 2 (quartiles need two) and seeds >= 0")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better = {m["name"]: m["better"] for m in json.loads(
        (roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]}

    runs = []
    for seed in args.seeds:
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result, sha = bench(roots[side], seed)
                runs.append({"seed": seed, "pair": pair, "side": side,
                             "ran_first": side == order[0],
                             "outputs_sha256": sha, "result": result})
                print(f"bench_pairs: seed {seed} pair {pair} {side} done",
                      file=sys.stderr)

    report = {
        "command": "python3 bench/run.py --workload all --seed <seed>",
        "seeds": args.seeds,
        "pairs_per_seed": args.pairs,
        "parent": revision(roots["parent"]),
        "change": revision(roots["change"]),
        "describe": args.describe,
        "host": f"{os.cpu_count()} cores, Python {platform.python_version()}; "
                f"bench/run.py sets OPENBLAS_NUM_THREADS=1",
        "protocol": "pairs alternate which side runs first (even pair: parent "
                    "first); quartiles by statistics.quantiles(n=4, "
                    "method='inclusive'); a win is a strictly better value, "
                    "ties count for neither side",
        "checks": checks(runs),
        "summary": summarise(runs, better),
    }
    if args.trace is not None:
        traced = {"command": f"python3 bench/run.py --workload {args.trace} "
                             f"--seed {args.seeds[0]} --trace 1",
                  "order": "parent, then change"}
        for side in SIDES:
            result, sha = bench(roots[side], args.seeds[0], args.trace, trace=1)
            traced[side] = {"outputs_sha256": sha.get(args.trace), "result": result}
        report["traced"] = traced
    report["runs"] = runs
    out = args.out or Path(f"BENCH_{args.tag}.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"bench_pairs: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
