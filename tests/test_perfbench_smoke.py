"""The benchmark harness still runs against the library.

``perfbench/child.py`` reads library API the tests do not otherwise pin
(``Multigraph.adjacency`` and ``real_edges()``, ``run_policy``'s
``checkpoint_every`` and ``Trajectory.checkpoints``,
``DegreeSequencePair.total_u_half_edges``, and the ``system=`` and
``step=`` keywords of ``verify_characteristics``, which the ``fluid-solve``
trace hook reads). One traced round of each workload that touches it must
exit 0 with every output check passing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["offline-ratio", "mc-bulk", "fluid-solve"])
def test_traced_round_passes_its_checks(tmp_path, workload):
    inputs, out, result = tmp_path / "inputs", tmp_path / "out", tmp_path / "result.json"
    inputs.mkdir()
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", workload,
         "--seed", "0", "--inputs", str(inputs), "--out", str(out),
         "--result", str(result), "--trace", "1"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(result.read_text())
    assert report["failures"] == {}
    assert report["layers"]
