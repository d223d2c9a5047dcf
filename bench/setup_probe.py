"""Time one cold set-up of a workload, in a fresh interpreter.

    python3 bench/setup_probe.py <out_dir> <config.json> [<config.json> ...]

Run from the repository root.  For each config it calls
``spanlab.cli.main(["train", ...])`` and stops at the first training step;
it prints the seconds from before ``import spanlab.cli`` to that point, so
import, data generation and model construction are all counted.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, "src")
import spanlab.cli as cli  # noqa: E402  (the import is part of what is timed)


class _FirstStep(Exception):
    pass


def _stop(*args, **kwargs):
    raise _FirstStep


cli.train_span = cli.train_standard = _stop
out_dir = sys.argv[1]
for i, config in enumerate(sys.argv[2:]):
    try:
        cli.main(["train", "--config", config, "--out", f"{out_dir}/probe{i}"])
    except _FirstStep:
        continue
    sys.exit(f"setup probe: {config} finished without reaching training")
print(time.perf_counter() - start)
