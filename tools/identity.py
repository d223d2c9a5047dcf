"""Byte-identity fixtures: run every config in tools/identity/ and print the
sha256 of everything it writes.

    python3 tools/identity.py [--src DIR] [--out DIR]

``--src`` names the spanlab source tree to import (default: the ``src``
directory of this checkout), so the same fixtures can be run against two
checkouts and the tables compared line by line:

    python3 tools/identity.py --src ../parent/src --out /tmp/identity-parent
    python3 tools/identity.py --out /tmp/identity-change

A config named ``gen-*.json`` runs ``gen``; ``gradcheck-*.json`` runs
``gradcheck``, whose printed line is hashed; every other config runs
``train`` and then ``eval`` on its checkpoint, into the same directory.
Each run writes into ``--out``/<config name>.  For each run the table gives
the number of files written, the sha256 of the sorted (file, sha256) list,
which covers every dataset, checkpoint blob, manifest.json, history.csv and
results.csv, and the sha256 of its main output files on their own.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

CONFIGS = Path(__file__).resolve().with_name("identity")
# the files each kind of run is also reported by, one column each
COLUMNS = {
    "gen": ("dataset.jsonl", "dataset_test.jsonl"),
    "train": ("history.csv", "results.csv"),
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def file_hashes(root):
    """Relative path -> sha256 of every file under ``root``."""
    return {str(p.relative_to(root)): sha256(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def run(main, argv):
    """stdout of ``spanlab.cli.main(argv)``; a nonzero exit code is fatal."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = main(argv)
    if code != 0:
        sys.exit(f"identity: {' '.join(argv)} exited {code}")
    return captured.getvalue()


def run_config(main, config, out):
    """(kind, files hashed, printed line or None) of one fixture."""
    name = config.stem
    if name.startswith("gradcheck-"):
        line = run(main, ["gradcheck", "--config", str(config)]).strip()
        return "gradcheck", {}, line
    if name.startswith("gen-"):
        run(main, ["gen", "--config", str(config), "--out", str(out)])
        return "gen", file_hashes(out), None
    run(main, ["train", "--config", str(config), "--out", str(out)])
    run(main, ["eval", "--config", str(config), "--out", str(out),
               "--checkpoint", str(out / "checkpoint")])
    return "train", file_hashes(out), None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (default: a temporary one, "
                             "removed afterwards)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from spanlab.cli import main as spanlab_main

    out_root = args.out or Path(tempfile.mkdtemp(prefix="spanlab-identity-"))
    try:
        print("| run | files | file list | main outputs |")
        print("|---|---|---|---|")
        for config in sorted(CONFIGS.glob("*.json")):
            out = out_root / config.stem
            shutil.rmtree(out, ignore_errors=True)
            kind, hashes, line = run_config(spanlab_main, config, out)
            if line is not None:
                print(f"| {config.stem} | 0 | - | `{sha256(line.encode())[:12]}` "
                      f"{line} |")
                continue
            listing = "".join(f"{k} {v}\n" for k, v in sorted(hashes.items()))
            main_outputs = ", ".join(f"{f} `{hashes[f][:12]}`"
                                     for f in COLUMNS[kind] if f in hashes)
            print(f"| {config.stem} | {len(hashes)} | "
                  f"`{sha256(listing.encode())[:16]}` | {main_outputs} |")
    finally:
        if args.out is None:
            shutil.rmtree(out_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
