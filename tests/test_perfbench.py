"""The benchmark's tracer reaches the engine.

`perfbench/spans.py` wraps engine names from outside: `start`,
`spawn_sub_instance` and `dispatch` looked up on the engine's class at
call time, `Network.send` returning the `Message`, and the chain
functions as module globals. A refactor that bypasses one of them
leaves a layer with no calls, and the traced run then fails its own
checks.

`audit` reaches the readers, and `wide` (L=2048) the engine layers at a
long vector length. A traced run fails unless every engine layer records
calls and tracing leaves each op's results and export bytes unchanged.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["audit", "wide"])
def test_traced_audit_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
