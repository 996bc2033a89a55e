"""Every demo runs to exit 0 at a small size, so a renamed public name
breaks the suite and not only the demos. None needs matplotlib."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


DEMOS = {
    "fluid_curves.py": ["--out", "{tmp}"],
    "trajectory_vs_fluid.py": ["--out", "{tmp}", "--runs", "1"],
    "policy_faceoff.py": ["--n", "500", "--runs", "2"],
    "capacity_effects.py": ["--n", "500", "--runs", "1"],
}


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_exits_zero(tmp_path, script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script),
         *(a.format(tmp=tmp_path) for a in DEMOS[script])],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout
