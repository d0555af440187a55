"""Smoke tests: every demo script runs to completion, and the README's
quick start prints what the README says it prints.

Each demo is copied into a temporary directory and run there, since a
demo may write output next to its own file.
"""

import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import swarmtopo

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_readme_quick_start_prints_its_comments():
    # the first python block of the README; each print line ends in a
    # comment holding the line it prints
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    expected = re.findall(r"^print\(.*\)\s+# (.+)$", block, re.MULTILINE)
    assert expected == ["87", "100 100"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
