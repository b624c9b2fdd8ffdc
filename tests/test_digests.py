"""Smoke tests of tools/digests.py, the bitwise-equality check between commits."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "digests.py"

# Every bitwise check the script makes, with a trailing "=value" (a figure
# the check computed) dropped; a refactor of the script must not lose one.
LABELS = {
    "synthesis O-10/cube27 kappa 0 n=512 seed=3 attempts",
    "synthesis O-10/cube27 kappa 0.05 n=512 seed=3 attempts",
    "synthesis O-6/cube8 radius 0.7 kappa 0.2 n=48 seed=7 attempts",
    "synthesis O-6/cube8 radius 0.7 kappa 0.2 n=48 seed=1267650600228229401496703205387 "
    "attempts",
    "synthesis O-6/cube8 zero distortion kappa 0.05 n=64 seed=5 attempts",
    "stall message: sample 9: no visible pose in 1000 attempts (rig=O-6, object=cube8, "
    "radius=0.7)",
    "train records",
    "train weights",
    "train adam m",
    "train adam v",
    "checkpoint bytes",
    "checkpoint load",
    "checkpoint bytes model-only",
    "checkpoint load model-only",
    "evaluate re_avg",
    "loss_reproj behind cameras value",
    "model init O-6/cube8 d_model 64 seed 1",
    "model init O-10/cube27 d_model 512 seed 1",
    "checkpoint bytes paper width model-only",
    "encoder paper width",
    "encoder paper width float32",
    "heads and loss gradients O-10/cube27 phase 1",
    "heads and loss gradients O-10/cube27 phase 2",
    "losses at ground truth",
    "losses at ground truth rotations scaled by 1 - 4 eps",
    "reference_params O-10",
    "reference_params O-6",
    "reference_params U-7",
    "reference_params T-4",
    "split pullback O-10/cube27 batch 1639 float32 phase 1",
    "blocked jacobian O-10/cube27 batch 40 float32 phase 2",
    "split adam O-10/cube27 d_model 128 values 274066 two steps",
    "deployed predict O-10/cube27 d_model 512 batch 32, one capture and its drift distances",
}


def test_prints_one_digest_per_distinct_label(tmp_path):
    # Run from an unrelated directory: the script finds the package itself.
    proc = subprocess.run([sys.executable, str(SCRIPT)], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(LABELS)
    labels = []
    for line in lines:
        m = re.fullmatch(r"[0-9a-f]{64} (\S.*)", line)
        assert m, line
        labels.append(m.group(1))
    assert len(set(labels)) == len(labels)
    assert {re.sub(r"=[-+.\w]+$", "", label) for label in labels} == LABELS


def test_write_then_check_names_each_moved_label(tmp_path):
    # --write prints the lines and writes them under a stamped header;
    # --check against that file then names exactly the labels whose line
    # differs or is missing, and fails. Labels only: the values hold for
    # one machine's BLAS kernels, so tier-1 does not pin them.
    path = tmp_path / "DIGESTS.txt"
    proc = subprocess.run([sys.executable, str(SCRIPT), "--write", str(path)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, body = [], []
    for line in path.read_text().splitlines():
        (header if line.startswith("# ") else body).append(line)
    assert body == proc.stdout.splitlines() and len(body) == len(LABELS)
    assert re.search(r"python \S+, numpy \S+, blas .+, nproc \d+", header[-1])
    # Change the first hex digit of one line's hash and drop another line.
    first = body[0]
    body[0] = ("1" if first[0] == "0" else "0") + first[1:]
    dropped = body.pop()
    path.write_text("\n".join(header + body) + "\n")
    proc = subprocess.run([sys.executable, str(SCRIPT), "--check", str(path)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    named = [line[len("moved: "):] for line in proc.stdout.splitlines()
             if line.startswith("moved: ")]
    strip = re.compile(r"=[-+.\w]+$")
    assert named == [strip.sub("", line.split(" ", 1)[1]) for line in (first, dropped)]
    assert set(named) <= LABELS
