"""The byte-identity fixtures of ``tools/identity.py`` run, and a rerun
writes the same table and the same files."""

import hashlib
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity.py"


def run_identity(out):
    """The printed table of one run into ``out``, and the sha256 of every
    file it wrote, by relative path."""
    done = subprocess.run([sys.executable, str(TOOL), "--out", str(out)],
                          capture_output=True, text=True, check=True)
    files = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return done.stdout, files


def test_identity_fixtures_rerun_byte_identical(tmp_path):
    table, files = run_identity(tmp_path / "first")
    again, files_again = run_identity(tmp_path / "second")
    configs = sorted(TOOL.with_name("identity").glob("*.json"))
    assert len(table.splitlines()) == 2 + len(configs)
    assert "gradcheck: max relative error" in table
    assert files
    assert again == table
    assert files_again == files
