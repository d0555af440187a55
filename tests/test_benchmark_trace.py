"""The benchmark's traced path runs on the current program.

A traced benchmark run wraps ``step``, ``randomized_death``,
``make_rand_source`` and other names by attribute and reads the
arguments they are called with, so a change to those functions can
break it.  Each workload runs here at its tiny size, from a copy of the
checkout so that the run's output files land in a temporary directory.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    skip = shutil.ignore_patterns("out", "tests", "__pycache__", "*.egg-info")
    for part in ("perfbench", "src"):
        shutil.copytree(REPO / part, root / part, ignore=skip)
    return root


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_tiny_run_is_correct(checkout, workload):
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--size", "tiny", "--seconds", "0.2", "--trace", "1",
        ],
        cwd=checkout, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is True
