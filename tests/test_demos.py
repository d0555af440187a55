"""Smoke test: every demo script runs to completion.

Each demo is copied into a temporary directory and run there, since a
demo may write output next to its own file.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import swarmtopo

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert {path.name for path in DEMOS} >= {
        "death_model.py", "desk_sweep.py", "spectrum_metrics.py",
    }


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    # the package as this test imports it, wherever that is
    package_root = str(Path(swarmtopo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    ))
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
