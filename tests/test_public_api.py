import os
import subprocess
import sys

import npscalar

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_every_export_resolves():
    missing = [name for name in npscalar.__all__ if not hasattr(npscalar, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(set(npscalar.__all__)) == len(npscalar.__all__)


def test_star_import():
    namespace = {}
    exec("from npscalar import *", namespace)
    assert set(npscalar.__all__) <= namespace.keys()


def test_import_leaves_numpy_scipy_and_yaml_out():
    """Importing the package pulls in none of numpy, scipy and PyYAML
    (scipy is imported by `uniformity_pvalue`, PyYAML by `parse_config`,
    when called): each would add its import time and memory to every
    process that only runs the protocol."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = (
        "import sys, npscalar; "
        "print(sorted({'numpy', 'scipy', 'yaml'} & sys.modules.keys()))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
