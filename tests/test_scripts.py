"""The experiment scripts run end to end at a small budget, and the
benchmark tracer still finds every library name it wraps."""

import importlib
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
    ("fit_sweep.py", ["--fits", "5", "--tols", "1e-10"]),
], ids=["lambda_path_demo", "representer_check", "run_certification", "fit_sweep"])
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_bench_tracer_wraps_existing_names(tmp_path, monkeypatch):
    # perfbench/tracer.py wraps library functions by attribute name, so
    # deleting or renaming one breaks `perfbench/run.py --trace 1`
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer")
    t = tracer.Tracer()
    t.install_all()
    patched = list(t.patched)
    try:
        (tmp_path / "data.csv").write_text("x,y1\n0.2,1.0\n0.5,0.3\n0.8,-0.4\n")
        kernel = ["--kernel", "wendland", "--coupling", "identity:1", "--data",
                  str(tmp_path / "data.csv")]
        (tmp_path / "points.csv").write_text("x\n0.3\n0.6\n")
        codes, _ = tracer.run_pass([["interpolate", *kernel, "--out", str(tmp_path / "i.json")],
                                    ["fit", *kernel, "--lambda", "0.1",
                                     "--out", str(tmp_path / "f.json")],
                                    ["certify", *kernel[:4], "--max-centers", "3",
                                     "--trials", "10", "--out", str(tmp_path / "c.json")],
                                    ["predict", "--model", str(tmp_path / "i.json"),
                                     "--points", str(tmp_path / "points.csv"),
                                     "--out", str(tmp_path / "p.csv")]], t)
    finally:
        t.uninstall_all()
    assert codes == [0, 0, 0, 0]
    calls = t.summary()["calls"]
    assert calls["blocklinalg.gram_assemble"] == 1 and calls["solvers.prox"] > 0
    # cli looks these up through the module attribute that the tracer patches
    assert calls["admissibility.certify"] == 1 and calls["solvers.predict_many"] == 1
    assert t.counts["solvers.fista.iterations"] > 0
    assert all(getattr(mod, attr) is original for mod, attr, original in patched)
