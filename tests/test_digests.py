"""Smoke test of tools/digests.py, the bitwise-equality check between commits."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "digests.py"


def test_prints_one_digest_per_distinct_label(tmp_path):
    # Run from an unrelated directory: the script finds the package itself.
    proc = subprocess.run([sys.executable, str(SCRIPT)], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) >= 24
    labels = []
    for line in lines:
        m = re.fullmatch(r"[0-9a-f]{64} (\S.*)", line)
        assert m, line
        labels.append(m.group(1))
    assert len(set(labels)) == len(labels)
