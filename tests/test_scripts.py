"""The experiment scripts run end to end at a small budget."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args", [
    ("lambda_path_demo.py", []),
    ("representer_check.py", ["--instances", "20"]),
    ("run_certification.py", ["--trials", "10"]),
], ids=["lambda_path_demo", "representer_check", "run_certification"])
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
