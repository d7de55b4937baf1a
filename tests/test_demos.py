from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path, fresh_python):
    proc = fresh_python([str(demo)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs(quickstart, tmp_path, fresh_python):
    proc = fresh_python(["-c", quickstart], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
