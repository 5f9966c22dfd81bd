"""Every demo script runs to completion from a checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, str(path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    if path.name == "04_verifier_reports.py":
        lines = result.stdout.splitlines()
        assert sum(line.lstrip().startswith("[pass]") for line in lines) == 23
        assert "unique solutions: 525/525" in result.stdout
