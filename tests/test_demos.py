import os
import subprocess
import sys
from pathlib import Path

import pytest

import spacings as sp

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _python(args, cwd):
    """A new interpreter run on ``args``, importing this package's source."""
    src = str(Path(sp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    proc = _python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs(quickstart, tmp_path):
    proc = _python(["-c", quickstart], tmp_path)
    assert proc.returncode == 0, proc.stderr
