"""Criteria 6 and 7 of the acceptance suite over training seeds.

    python3 tools/seed_spread.py [--seeds 0 1 2 3 4]

For each seed s, trains the span model of criteria 6 and 7 with
``train_percentile_span(s)`` from ``tests/test_acceptance.py`` (model seed s,
coarse stream seed s, fine stream seed s+1, so s = 0 is the acceptance
fixture) and prints its test error, how many of the 200 criterion-7 test sets
have Δ ≤ 1e-2 (criterion 7 needs 180) and the median Δ, from
``criterion_7_deltas``.  A seed takes about 110 s on one core, which keeps
this out of the test suite.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from spanlab.metrics import average_relative_error  # noqa: E402
from test_acceptance import criterion_7_deltas, train_percentile_span  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    args = parser.parse_args(argv)
    print("seed  test error  sets with Δ ≤ 1e-2  median Δ  seconds")
    for s in args.seeds:
        start = time.time()
        span, _train, test = train_percentile_span(s)
        error = average_relative_error(span, test.instances)
        deltas = criterion_7_deltas(span, test.instances)
        print(f"{s:>4}  {error:10.4f}  {int(np.sum(deltas <= 1e-2)):>11} of "
              f"{len(deltas)}  {np.median(deltas):8.2e}  {time.time() - start:7.0f}",
              flush=True)


if __name__ == "__main__":
    main()
