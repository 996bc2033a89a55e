"""The benchmark harness still runs against the library.

``perfbench/child.py`` reads library API the tests do not otherwise pin
(``Multigraph.adjacency`` and ``real_edges()``, ``run_policy``'s
``checkpoint_every`` and ``Trajectory.checkpoints``,
``DegreeSequencePair.total_u_half_edges``, the ``system=`` and ``step=``
keywords of ``verify_characteristics``, which the ``fluid-solve`` trace
hook reads, and ``cmatch-bench simulate`` end to end, with the fluid
solvers it calls wrapped by name). One traced round of each workload must
exit 0 with every output check passing. As ``perfbench/run.py`` does, the
workload writes its input files first, in a separate interpreter, since
``perfbench/oracles.py`` and ``tests/oracles.py`` share a module name.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


WRITE_INPUTS = ("import pathlib, sys, workloads; workloads.WORKLOADS[sys.argv[1]]"
                ".write_inputs(pathlib.Path(sys.argv[2]), 0)")


@pytest.mark.parametrize("workload", ["offline-ratio", "mc-bulk", "fluid-solve",
                                      "cli-simulate"])
def test_traced_round_passes_its_checks(tmp_path, workload):
    inputs, out, result = tmp_path / "inputs", tmp_path / "out", tmp_path / "result.json"
    inputs.mkdir()
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-c", WRITE_INPUTS, workload, str(inputs)],
                   env=env, cwd=ROOT / "perfbench", check=True, timeout=60)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", workload,
         "--seed", "0", "--inputs", str(inputs), "--out", str(out),
         "--result", str(result), "--trace", "1"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(result.read_text())
    assert report["failures"] == {}
    assert report["layers"]
