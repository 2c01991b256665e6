"""The benchmark's tracer reaches the engine.

`perfbench/spans.py` wraps engine names from outside: `start`,
`spawn_sub_instance` and `dispatch` looked up on the engine's class at
call time, `Network.send` returning the `Message`, and the chain
functions as module globals. A refactor that bypasses one of them
leaves a layer with no calls, and the traced run then fails its own
checks.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_audit_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
