import argparse
import contextlib
import dataclasses
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import groupkernels as gk
from groupkernels.blocklinalg import BlockVector
from groupkernels.admissibility import CertificationConfig
from groupkernels.cli import build_parser, run
from groupkernels.solvers import (
    LearnConfig,
    group_basis_pursuit,
    min_norm_interpolant,
    model_from_dict,
    predict_many,
)

from helpers import scale_data


@pytest.fixture
def train_csv(tmp_path):
    path = tmp_path / "train.csv"
    path.write_text("x,y1\n0.5,1.0\n")
    return str(path)


def test_interpolate_single_sample(tmp_path, train_csv):
    out = str(tmp_path / "model.json")
    rc = run(["interpolate", "--data", train_csv, "--kernel", "tfamily", "--t", "1.0",
              "--p", "2", "--coupling", "identity:1", "--out", out])
    assert rc == 0
    data = json.loads(Path(out).read_text())
    assert data["coeffs"] == [[4.0]]
    assert data["norm_lp1"] == 4.0
    assert data["kernel"]["family"] == "tfamily"


def test_predict_round_trip_bitwise(tmp_path):
    train = tmp_path / "train.csv"
    rows = ["x,y1,y2"]
    xs = [0.15, 0.35, 0.62, 0.81]
    rng = np.random.default_rng(2)
    ys = rng.standard_normal((4, 2))
    for x, row in zip(xs, ys):
        rows.append(f"{x!r},{float(row[0])!r},{float(row[1])!r}")
    train.write_text("\n".join(rows) + "\n")
    model_path = tmp_path / "model.json"
    rc = run(["interpolate", "--data", str(train), "--kernel", "combination",
              "--weights", "1.0,1.0", "--p", "2", "--coupling", "identity:2",
              "--out", str(model_path)])
    assert rc == 0

    pts = tmp_path / "pts.csv"
    pts.write_text("x\n" + "\n".join(repr(v) for v in xs) + "\n")
    preds = tmp_path / "preds.csv"
    rc = run(["predict", "--model", str(model_path), "--points", str(pts),
              "--out", str(preds)])
    assert rc == 0

    # in-process reference: fit the same model directly, CSV must match bitwise
    K = gk.OperatorKernel(gk.combination(1.0, 1.0), gk.TaskCoupling.identity(2), p=2)
    ref_model = min_norm_interpolant(K, np.array(xs), BlockVector(ys, 2))
    ref = predict_many(ref_model, np.array(xs))
    lines = preds.read_text().strip().splitlines()
    assert lines[0] == "x,y1,y2"
    for line, x, row in zip(lines[1:], xs, ref):
        assert line == f"{x!r},{float(row[0])!r},{float(row[1])!r}"
    # predictions reproduce training values
    loaded = model_from_dict(json.loads(Path(model_path).read_text()))
    assert np.abs(predict_many(loaded, np.array(xs)) - ys).max() <= 1e-8


def test_fit_big_lambda_zeroes(tmp_path):
    train = tmp_path / "train.csv"
    train.write_text("x,y1\n0.2,1.0\n0.5,-2.0\n0.8,0.5\n")
    out = str(tmp_path / "model.json")
    rc = run(["fit", "--data", str(train), "--kernel", "tfamily", "--t", "1.0",
              "--p", "2", "--coupling", "identity:1", "--lambda", "1e9",
              "--out", out])
    assert rc == 0
    data = json.loads(Path(out).read_text())
    assert all(v == 0.0 for block in data["coeffs"] for v in block)
    assert data["meta"]["solver"] == "working-set-newton"
    assert data["meta"]["gap"] == 0.0


def test_fit_lambda_grid_path(tmp_path):
    train = tmp_path / "train.csv"
    train.write_text("x,y1\n0.2,1.0\n0.5,-2.0\n0.8,0.5\n")
    path_out = tmp_path / "path.csv"
    rc = run(["fit", "--data", str(train), "--kernel", "tfamily", "--t", "1.0",
              "--p", "2", "--coupling", "identity:1",
              "--lambda-grid", "1e-3,1e-2,1e-1", "--path-out", str(path_out)])
    assert rc == 0
    lines = path_out.read_text().strip().splitlines()
    assert lines[0] == "lambda,norm_lp1,objective"
    assert len(lines) == 4
    norms = [float(l.split(",")[1]) for l in lines[1:]]
    assert norms[0] >= norms[-1]  # heavier penalty, smaller coefficients


def test_fit_absolute_loss(tmp_path):
    train = tmp_path / "train.csv"
    train.write_text("x,y1\n0.2,1.0\n0.5,-2.0\n0.8,0.5\n")
    out = str(tmp_path / "model.json")
    rc = run(["fit", "--data", str(train), "--kernel", "tfamily", "--t", "0.5",
              "--p", "1", "--coupling", "identity:1", "--lambda", "0.1",
              "--loss", "absolute", "--out", out])
    assert rc == 0
    assert json.loads(Path(out).read_text())["meta"]["solver"] == "working-set-newton"


def _scaled_train_csv(path, m, s):
    x, y = scale_data(m)
    path.write_text("x,y1,y2\n" + "".join(
        f"{float(a)!r},{float(b)!r},{float(c)!r}\n" for a, (b, c) in zip(x, s * y)))
    return x, s * y


def test_fit_of_micro_units_keeps_its_support(tmp_path):
    # lam = 0.01 of the zero threshold, so the optimum keeps 7 blocks at any
    # scale; at Y * 1e-6 the gap stop was absolute, and fit wrote C = 0
    train, out = tmp_path / "train.csv", tmp_path / "model.json"
    x, y = _scaled_train_csv(train, 60, 1e-6)
    g = gk.kernels.scalar_values(gk.wendland(), x[:, None], x[None, :])
    lam = 0.01 * float(np.linalg.norm(g @ y, axis=1).max())
    rc = run(["fit", "--data", str(train), "--kernel", "wendland", "--p", "2",
              "--coupling", "identity:2", "--lambda", repr(lam), "--out", str(out)])
    assert rc == 0
    coeffs = np.array(json.loads(out.read_text())["coeffs"])
    assert int((np.abs(coeffs).max(axis=1) > 0.0).sum()) == 7


def test_pursuit_of_mega_units_converges(tmp_path):
    # tfamily t = -1 is not admissible, so ADMM iterates; with an absolute
    # primal stop it ran out of 200,000 iterations at Y * 1e6
    train, out = tmp_path / "train.csv", tmp_path / "model.json"
    _scaled_train_csv(train, 40, 1e6)
    extras = ",".join(repr(float(v)) for v in np.linspace(0.03, 0.97, 25))
    rc = run(["pursuit", "--data", str(train), "--kernel", "tfamily", "--t", "-1",
              "--p", "2", "--coupling", "identity:2", "--extra-centers", extras,
              "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["meta"]["iterations"] < 1000


def test_pursuit_command(tmp_path):
    train = tmp_path / "train.csv"
    train.write_text("x,y1\n0.3,1.0\n0.6,0.5\n")
    out = str(tmp_path / "model.json")
    rc = run(["pursuit", "--data", str(train), "--kernel", "tfamily", "--t", "1.0",
              "--p", "2", "--coupling", "identity:1", "--extra-centers", "0.45",
              "--out", out])
    assert rc == 0
    data = json.loads(Path(out).read_text())
    assert data["centers"] == [0.3, 0.6, 0.45]
    assert data["meta"]["solver"] == "admm-basis-pursuit"
    assert data["meta"]["primal_residual"] <= 1e-9


def test_certify_deterministic_and_csv(tmp_path):
    args = ["certify", "--kernel", "tfamily", "--t", "1.0", "--p", "2",
            "--coupling", "identity:2", "--max-centers", "3", "--grid", "64",
            "--trials", "10", "--seed", "42", "--deterministic"]
    r1, r2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    csv1 = str(tmp_path / "rows.csv")
    assert run(args + ["--out", r1, "--csv", csv1]) == 0
    assert run(args + ["--out", r2]) == 0
    assert Path(r1).read_bytes() == Path(r2).read_bytes()
    report = json.loads(Path(r1).read_text())
    assert set(report) == {"kernel", "config", "a1", "a2", "a4", "verdict", "meta"}
    assert report["verdict"]["overall"] == "pass"
    assert "generated_at" not in report["meta"]
    rows = Path(csv1).read_text().strip().splitlines()
    assert rows[0] == "m,trial,worst_lambda"
    assert len(rows) == 1 + 3 * 10


def test_certify_documented_invocation_full_budget(tmp_path):
    out = str(tmp_path / "report.json")
    rc = run(["certify", "--kernel", "tfamily", "--t", "1.0", "--p", "2",
              "--coupling", "identity:2", "--max-centers", "6", "--grid", "512",
              "--trials", "200", "--seed", "42", "--out", out])
    assert rc == 0
    verdict = json.loads(Path(out).read_text())["verdict"]
    assert verdict["a1"] == "pass"
    assert verdict["a2"] == "pass"
    assert verdict["a4"] == "pass"
    assert verdict["overall"] == "pass"


def test_certify_nondeterministic_has_timestamp(tmp_path):
    out = str(tmp_path / "r.json")
    rc = run(["certify", "--kernel", "wendland", "--p", "2", "--coupling", "identity:1",
              "--max-centers", "2", "--grid", "32", "--trials", "5", "--seed", "1",
              "--out", out])
    assert rc == 0
    assert "generated_at" in json.loads(Path(out).read_text())["meta"]


def test_certify_strict_exit_code(tmp_path):
    # the t=-1 member fails the stability bound, observed directly by scan
    out = str(tmp_path / "r.json")
    rc = run(["certify", "--kernel", "tfamily", "--t", "-1.0", "--p", "2",
              "--coupling", "identity:1", "--max-centers", "2", "--grid", "64",
              "--trials", "10", "--seed", "0", "--strict", "--out", out])
    assert rc == 2
    assert json.loads(Path(out).read_text())["verdict"]["a4"] == "fail"


def test_lebesgue_scan_command(tmp_path):
    out, csv_out = str(tmp_path / "scan.json"), str(tmp_path / "scan.csv")
    # note the = form: a leading minus sign would otherwise parse as a flag
    rc = run(["lebesgue-scan", "--kernel", "exponential", "--domain=-2,2",
              "--p", "2", "--coupling", "identity:1", "--max-centers", "3",
              "--grid", "64", "--trials", "10", "--seed", "3",
              "--out", out, "--csv", csv_out])
    assert rc == 0
    data = json.loads(Path(out).read_text())
    assert data["verdict"]["a4"] == "pass"
    assert data["a4"]["worst"] <= 1.0 + 1e-8
    assert os.path.exists(csv_out)


def test_malformed_csv_fails_before_solving(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y1\n0.5,1.0\n0.7,notanumber\n")
    out = str(tmp_path / "model.json")
    rc = run(["interpolate", "--data", str(bad), "--kernel", "wendland", "--p", "2",
              "--coupling", "identity:1", "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert "row 3" in err and "column y1" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command,bad_file,text,where", [
    ("interpolate", "data", "x,y1\n0.2,1.0\n\n0.7,nan\n", "row 4, column y1: non-finite value"),
    ("fit", "data", "x,y1\n0.2,1.0\n-inf,0.5\n", "row 3, column x: non-finite value"),
    ("interpolate", "coupling", "1.0,0.0\n0.0,inf\n", "row 2, column 2: non-finite value"),
    ("predict", "points", "x\n0.3\ninf\n", "row 3, column x: non-finite value"),
    ("predict", "points", "x\n0.3\n\n5.0\n",
     "row 4, column x: value 5.0 outside open domain (0.0, 1.0)"),
    ("interpolate", "data", "x,y1\n0.2,1.0\n5.0,0.5\n",
     "row 3, column x: value 5.0 outside open domain (0.0, 1.0)"),
    ("fit", "data", "x,y1\n0.2,1.0\n\n5.0,0.5\n",
     "row 4, column x: value 5.0 outside open domain (0.0, 1.0)"),
    ("pursuit", "data", "x,y1\n5.0,1.0\n0.2,0.5\n",
     "row 2, column x: value 5.0 outside open domain (0.0, 1.0)"),
], ids=["training nan y", "training -inf x", "coupling inf", "points inf", "points out of domain",
        "training x out of domain (interpolate)", "training x out of domain (fit)",
        "training x out of domain (pursuit)"])
def test_non_finite_values_rejected_at_read(tmp_path, capsys, command, bad_file, text, where):
    files = {"data": "x,y1,y2\n0.2,1.0,0.0\n0.7,0.5,1.0\n",
             "coupling": "2.0,0.5\n0.5,1.0\n", "points": "x\n0.3\n0.6\n"}
    files[bad_file] = text
    if bad_file == "data":
        files["coupling"] = "1.0\n"
    for name, body in files.items():
        (tmp_path / f"{name}.csv").write_text(body)
    model, out = tmp_path / "model.json", tmp_path / "out"
    kernel = ["--kernel", "wendland", "--p", "2", "--coupling", str(tmp_path / "coupling.csv")]
    if command == "predict":
        assert run(["interpolate", *kernel, "--data", str(tmp_path / "data.csv"),
                    "--out", str(model)]) == 0
        argv = ["predict", "--model", str(model), "--points", str(tmp_path / "points.csv")]
    else:
        argv = [command, *kernel, "--data", str(tmp_path / "data.csv")]
        argv += ["--lambda", "0.1"] if command == "fit" else []
    capsys.readouterr()
    assert run(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{bad_file}.csv: {where}" in err
    assert not out.exists()


@pytest.mark.parametrize("text,where", [
    ("1.0,0.0\n0.0,abc\n", "row 2, column 2: non-numeric value 'abc'"),
    ("1.0,0.0\n\n0.0\n", "row 3: expected 2 values, one per row (n rows of n values), got 1"),
    ("1.0,0.0,0.0\n0.0,1.0,0.0\n",
     "row 1: expected 2 values, one per row (n rows of n values), got 3"),
], ids=["non-numeric cell", "short row", "rows longer than the row count"])
def test_coupling_csv_errors_name_row_and_column(tmp_path, capsys, text, where):
    (tmp_path / "data.csv").write_text("x,y1,y2\n0.2,1.0,0.0\n0.7,0.5,1.0\n")
    (tmp_path / "coupling.csv").write_text(text)
    out = tmp_path / "model.json"
    capsys.readouterr()
    assert run(["interpolate", "--kernel", "wendland", "--coupling", str(tmp_path / "coupling.csv"),
                "--data", str(tmp_path / "data.csv"), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].endswith(f"coupling.csv: {where}"), err
    assert not out.exists()


def test_kernel_json_without_domain_gets_the_family_default(tmp_path):
    # exponential defaults to (-inf, inf) whether it comes from --kernel or
    # from a kernel JSON with no domain
    (tmp_path / "data.csv").write_text("x,y1\n1.5,1.0\n-0.5,2.0\n")
    kpath = tmp_path / "kernel.json"
    kpath.write_text(json.dumps({"family": "exponential", "coupling": {"n": 1, "A": [[1.0]]}}))
    written = []
    for flags in (["--kernel-json", str(kpath)],
                  ["--kernel", "exponential", "--coupling", "identity:1"]):
        out = tmp_path / f"model{len(written)}.json"
        assert run(["interpolate", *flags, "--data", str(tmp_path / "data.csv"),
                    "--deterministic", "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert json.loads(written[0])["kernel"]["domain"] == [None, None]


def test_near_duplicate_sites_exit_2(tmp_path, capsys):
    # exponential sites 1e-14 apart: the parent wrote a model with residual
    # 5.5e-3 and norm 1e14 and exited 0
    train = tmp_path / "train.csv"
    train.write_text("x,y1\n0.3,1.0\n0.30000000000001,2.0\n0.9,0.5\n")
    out = tmp_path / "model.json"
    rc = run(["interpolate", "--data", str(train), "--kernel", "exponential", "--p", "2",
              "--coupling", "identity:1", "--out", str(out)])
    assert rc == 2
    assert "SingularError" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tamper,fragment", [
    (lambda d: d["centers"].__setitem__(1, 5.0), "model center 2 (5.0) is not a finite point"),
    (lambda d: d["centers"].__setitem__(0, float("nan")), "model center 1 (nan)"),
    (lambda d: d["centers"].__setitem__(2, d["centers"][0]), "pairwise distinct"),
    (lambda d: d["coeffs"].pop(), "coefficients have shape (2, 2), expected (3, 2)"),
    (lambda d: [row.pop() for row in d["coeffs"]], "shape (3, 1), expected (3, 2)"),
], ids=["center out of domain", "center nan", "duplicate center", "missing block", "short blocks"])
def test_predict_rejects_invalid_model(tmp_path, capsys, tamper, fragment):
    train, pts = tmp_path / "train.csv", tmp_path / "pts.csv"
    train.write_text("x,y1,y2\n-1.0,1.0,0.0\n0.2,0.5,1.0\n1.5,0.0,2.0\n")
    pts.write_text("x\n0.0\n")
    model = tmp_path / "model.json"
    assert run(["interpolate", "--data", str(train), "--kernel", "exponential",
                "--domain=-2,2", "--p", "2", "--coupling", "identity:2",
                "--out", str(model)]) == 0
    data = json.loads(model.read_text())
    tamper(data)
    model.write_text(json.dumps(data))
    out = tmp_path / "preds.csv"
    capsys.readouterr()
    assert run(["predict", "--model", str(model), "--points", str(pts), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "DataFormatError" in err and fragment in err
    assert not out.exists()


def test_model_p_must_match_the_kernel(tmp_path, capsys):
    # one exponent per model: coefficients stored with p = 1 under a p = 2
    # kernel, with a matching 1-norm, used to load and predict with exit 0
    train, pts = tmp_path / "train.csv", tmp_path / "pts.csv"
    train.write_text("x,y1,y2\n0.2,1.0,0.0\n0.5,0.5,1.0\n0.8,0.0,2.0\n")
    pts.write_text("x\n0.3\n")
    model = tmp_path / "model.json"
    assert run(["interpolate", "--data", str(train), "--kernel", "wendland", "--p", "2",
                "--coupling", "identity:2", "--out", str(model)]) == 0
    data = json.loads(model.read_text())
    data.update(p=1.0, norm_lp1=float(np.abs(data["coeffs"]).sum()))
    model.write_text(json.dumps(data))
    out = tmp_path / "preds.csv"
    capsys.readouterr()
    assert run(["predict", "--model", str(model), "--points", str(pts), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: DataFormatError: model JSON: field 'p'")
    assert not out.exists()


@pytest.mark.parametrize("command", [["interpolate"], ["fit", "--lambda", "0.1"]])
def test_repeated_training_site_exits_1_naming_both_rows(tmp_path, capsys, command):
    # a repeated x used to surface only as "DuplicateCenterError: centers must
    # be pairwise distinct"; data rows 2 and 4 are records 3 and 5 (header is 1)
    train = tmp_path / "train.csv"
    train.write_text("x,y1\n0.1,1.0\n0.2,2.0\n0.5,3.0\n0.2,4.0\n")
    out = tmp_path / "model.json"
    assert run([*command, "--data", str(train), "--kernel", "wendland", "--p", "2",
                "--coupling", "identity:1", "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: DataFormatError: {train}: rows 3 and 5, column x: repeated value 0.2"]
    assert not out.exists()
    # repeated query points stay accepted
    model, preds = tmp_path / "ok.json", tmp_path / "preds.csv"
    train.write_text("x,y1\n0.1,1.0\n0.2,2.0\n")
    assert run(["interpolate", "--data", str(train), "--kernel", "wendland", "--p", "2",
                "--coupling", "identity:1", "--out", str(model)]) == 0
    pts = tmp_path / "pts.csv"
    pts.write_text("x\n0.3\n0.3\n")
    assert run(["predict", "--model", str(model), "--points", str(pts), "--out", str(preds)]) == 0
    assert len(preds.read_text().splitlines()) == 3


_KERNEL = {"family": "tfamily", "t": 1.0, "coupling": {"n": 1, "A": [[1.0]]}}
_MODEL = {"kernel": _KERNEL, "centers": [0.5], "coeffs": [[1.0]]}


@pytest.mark.parametrize("command,text,fragment", [
    ("predict", '{"centers": [0.5]}', "model JSON: missing field 'kernel'"),
    ("predict", "[1, 2]", "model JSON: no object holds field 'kernel'"),
    ("predict", json.dumps({**_MODEL, "kernel": {k: v for k, v in _KERNEL.items() if k != "t"}}),
     "kernel JSON: missing field 't'"),
    ("predict", json.dumps({**_MODEL, "coeffs": [[1.0, 2.0], [3.0]]}),
     "model JSON: field 'coeffs' is malformed"),
    ("predict", json.dumps({**_MODEL, "kernel": {**_KERNEL, "t": "1"}}),
     "kernel JSON: field 't' is malformed"),
    ("interpolate", '{"family": "wendland"}', "kernel JSON: missing field 'coupling.A'"),
    ("interpolate", json.dumps({**_KERNEL, "coupling": {"n": 2, "A": [[1.0]]}}),
     "coupling n does not match matrix shape"),
    # json.load accepts NaN
    ("predict", json.dumps({**_MODEL, "coeffs": [[float("nan")]]}),
     "model coefficients must be finite"),
], ids=["model without kernel", "model not an object", "tfamily without t", "ragged coeffs",
        "t a string", "kernel without coupling", "coupling n against A", "coeffs NaN"])
def test_malformed_json_exits_1_naming_the_field(tmp_path, capsys, command, text, fragment):
    bad, data = tmp_path / "bad.json", tmp_path / "data.csv"
    bad.write_text(text)
    data.write_text("x,y1\n0.5,1.0\n")
    out = tmp_path / "out"
    if command == "predict":
        argv = ["predict", "--model", str(bad), "--points", str(data)]
    else:
        argv = ["interpolate", "--kernel-json", str(bad), "--data", str(data)]
    assert run([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: DataFormatError: ")
    assert fragment in err[0]
    assert not out.exists()


# a valid file of every kind a command reads; each case below replaces one
_GOOD_INPUTS = {"data.csv": "x,y1\n0.2,1.0\n0.6,2.0\n", "coupling.csv": "1.0\n",
                "points.csv": "x\n0.3\n0.9\n", "model.json": json.dumps(_MODEL),
                "kernel.json": json.dumps(_KERNEL)}


def _run_reading(tmp_path, name, text, fit_loss=None):
    """Run the command that reads the file `name` holding text, the other
    files valid: interpolate for data, coupling and kernel, or, given
    fit_loss, fit for data and coupling at 20 Newton steps; predict for
    points and model.  Returns (exit code, stderr, output path)."""
    paths = {}
    for file, body in dict(_GOOD_INPUTS, **{name: text}).items():
        (tmp_path / file).write_bytes(body if isinstance(body, bytes) else body.encode())
        paths[file] = str(tmp_path / file)
    if name in ("points.csv", "model.json"):
        argv = ["predict", "--model", paths["model.json"], "--points", paths["points.csv"]]
    elif name == "kernel.json":
        argv = ["interpolate", "--kernel-json", paths["kernel.json"], "--data", paths["data.csv"]]
    else:
        argv = ["interpolate", "--kernel", "tfamily", "--t", "1", "--coupling",
                paths["coupling.csv"], "--data", paths["data.csv"]]
        if fit_loss is not None:
            argv = ["fit", *argv[1:], "--lambda", "0.1", "--loss", fit_loss, "--max-iters", "20"]
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = run([*argv, "--out", str(out)])
    return rc, err.getvalue(), out


def _assert_clean_exit(rc, err, out):
    assert rc in (0, 1, 2)
    if rc == 0:
        assert err == ""
    else:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert not out.exists()


_DEEP_JSON = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("name,text,fragment", [
    ("data.csv", "x,y1\n0.5," + "1" * 131_073 + "\n", "row 2: field larger than field limit"),
    ("coupling.csv", "1" * 131_073 + "\n", "row 1: field larger than field limit"),
    ("points.csv", "x\n0.5\n" + "1" * 131_073 + "\n", "row 3: field larger than field limit"),
    ("model.json", _DEEP_JSON, "JSON nested too deeply to parse"),
    ("kernel.json", _DEEP_JSON, "JSON nested too deeply to parse"),
    ("data.csv", b"x,y1\n0.5,1\xff\n", "not UTF-8 text (invalid start byte)"),
    ("points.csv", b"x\n0.5\n\xc3\n", "not UTF-8 text"),
    ("model.json", '{"centers":\n', "not JSON: Expecting value: line 2 column 1"),
    ("kernel.json", b'{"family": "\xff"}', "not JSON: 'utf-8' codec can't decode"),
], ids=["training cell past the field limit", "coupling cell past the field limit",
        "points cell past the field limit", "deep model JSON", "deep kernel JSON",
        "training CSV not UTF-8", "points CSV not UTF-8", "truncated model JSON",
        "kernel JSON not UTF-8"])
def test_parser_failures_exit_1_naming_the_file(tmp_path, name, text, fragment):
    # each parser error (_csv.Error, RecursionError, UnicodeDecodeError,
    # JSONDecodeError) is reported as a DataFormatError naming the file
    rc, err, out = _run_reading(tmp_path, name, text)
    assert rc == 1, err
    assert err.startswith(f"error: DataFormatError: {tmp_path / name}: {fragment}"), err
    _assert_clean_exit(rc, err, out)


def test_training_header_error_is_one_line(tmp_path):
    # the header was printed raw, so its form feed split the error in two
    rc, err, out = _run_reading(tmp_path, "data.csv", "0\x0c0")
    assert rc == 1 and "header must be x,y1,...,yn, got '0\\x0c0'" in err
    _assert_clean_exit(rc, err, out)


def test_certify_90_centers_exits_0(tmp_path, capsys):
    # rejection at separation 1/900 accepts about e^-9 of the draws of 90
    # centers, so this command exited 1 after 1,000 attempts at m = 63; the
    # rank-shift draw always succeeds
    out = tmp_path / "c.json"
    assert run(["certify", "--kernel", "wendland", "--coupling", "identity:1",
                "--max-centers", "90", "--trials", "1", "--grid", "16", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert report["verdict"]["evidence"]["center_sets"] == 90
    assert report["verdict"]["overall"] == "pass"


_CSV_CELLS = st.sampled_from(["x", "y1", "y2", "0.5", "0.25", "-1", "5", "1e999", "nan", "",
                              " ", '"', "a"]) | st.text(max_size=4)
_CSV_TEXT = st.text() | st.lists(st.lists(_CSV_CELLS, max_size=4), max_size=5).map(
    lambda rows: "\n".join(",".join(row) for row in rows))


@settings(max_examples=200)
@given(name=st.sampled_from(["data.csv", "coupling.csv", "points.csv"]), text=_CSV_TEXT,
       fit_loss=st.sampled_from([None, "squared", "absolute"]))
@example(name="data.csv", text="0\x0c0", fit_loss=None)
@example(name="data.csv", text="x,y1\n0.2,1\n0.5,-2\n0.8,0.5", fit_loss="absolute")
def test_any_csv_text_exits_cleanly(name, text, fit_loss):
    # a fit may also exit 2, on its small Newton budget
    with tempfile.TemporaryDirectory() as tmp:
        _assert_clean_exit(*_run_reading(Path(tmp), name, text, fit_loss))


_JSON_FIELDS = ["kernel", "centers", "coeffs", "p", "norm_lp1", "meta", "family", "t",
                "weights", "domain", "coupling", "A", "n"]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["inf", "tfamily", "wendland", "exponential", "combination", "custom"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_JSON_FIELDS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=12)
_KERNEL_PATHS = [("family",), ("t",), ("domain",), ("weights",), ("p",), ("coupling",),
                 ("coupling", "A"), ("coupling", "n")]
_FIELD_PATHS = {"kernel.json": _KERNEL_PATHS,
                "model.json": [("centers",), ("coeffs",), ("p",), ("norm_lp1",), ("meta",),
                               ("kernel",), *[("kernel", *path) for path in _KERNEL_PATHS]]}


def _with_field(name, path, value):
    """The valid model or kernel JSON with the field at path set to value."""
    doc = json.loads(_GOOD_INPUTS[name])
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _json_documents(name):
    edited = st.tuples(st.sampled_from(_FIELD_PATHS[name]), _JSON_VALUES).map(
        lambda pv: _with_field(name, *pv))
    return st.tuples(st.just(name), _JSON_VALUES | edited)


@settings(max_examples=200)
@given(case=st.sampled_from(["model.json", "kernel.json"]).flatmap(_json_documents))
@example(case=("model.json", _with_field("model.json", ("p",), 10**400)))
@example(case=("kernel.json", _with_field("kernel.json", ("coupling", "A"), [[10**400]])))
def test_any_json_value_exits_cleanly(case):
    # an int past the float range raised OverflowError out of cli.run at the parent
    name, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        _assert_clean_exit(*_run_reading(Path(tmp), name, json.dumps(doc)))


@pytest.fixture(scope="module")
def command_loads(tmp_path_factory):
    # the package loads its modules on first access and cli imports them
    # inside its functions, so a command compiles only what it runs.  Each
    # fresh interpreter runs one command kind, since a module once loaded
    # stays loaded; it reports the modules loaded after `import groupkernels`,
    # after `import groupkernels.cli` and parsing alone (--help and a usage
    # error), and after the commands
    tmp_path = tmp_path_factory.mktemp("loads")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    (tmp_path / "data.csv").write_text("x,y1\n0.2,1.0\n0.5,0.3\n0.8,-0.4\n")
    (tmp_path / "points.csv").write_text("x\n0.3\n0.6\n")
    budget = ["--coupling", "identity:1", "--max-centers", "4", "--trials", "20", "--grid", "32"]
    scans = [["certify", "--kernel", "wendland", *budget, "--out", str(tmp_path / "c.json")],
             ["lebesgue-scan", "--kernel", "tfamily", "--t", "0.5", *budget,
              "--out", str(tmp_path / "s.json")]]
    model = str(tmp_path / "m.json")
    models = [["interpolate", "--kernel", "wendland", "--coupling", "identity:1",
               "--data", str(tmp_path / "data.csv"), "--out", model],
              ["predict", "--model", model, "--points", str(tmp_path / "points.csv"),
               "--out", str(tmp_path / "p.csv")],
              ["fit", "--kernel", "wendland", "--coupling", "identity:1", "--lambda", "0.01",
               "--data", str(tmp_path / "data.csv"), "--out", str(tmp_path / "f.json")],
              ["pursuit", "--kernel", "wendland", "--coupling", "identity:1",
               "--extra-centers", "0.35", "--data", str(tmp_path / "data.csv"),
               "--out", str(tmp_path / "u.json")]]
    parsing = [["--help"], ["certify", "--kernel", "wendland", "--weights", "1", *budget,
                            "--out", str(tmp_path / "x.json")]]
    loads = {}
    for kind, commands in (("scans", scans), ("models", models)):
        code = ("import json, sys\n"
                "def loaded():\n"
                "    return sorted(m for m in sys.modules\n"
                "                  if m in ('numpy', 'numpy.ma', 'numpy.random')\n"
                "                  or m.partition('.')[0] in ('groupkernels', 'scipy'))\n"
                "import groupkernels\nstages = [loaded()]\n"
                "import contextlib, io, groupkernels.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()), "
                "contextlib.redirect_stderr(io.StringIO()):\n"
                f"    assert [groupkernels.cli.run(argv) for argv in {parsing!r}] == [0, 1]\n"
                "stages.append(loaded())\n"
                f"assert [groupkernels.cli.run(argv) for argv in {commands!r}]"
                f" == [0] * {len(commands)}\n"
                "stages.append(loaded())\n"
                "print(groupkernels.cli.__file__)\nprint(json.dumps(stages))")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        where, stages = proc.stdout.strip().splitlines()
        loads[kind] = (Path(where).resolve(), json.loads(stages))
    return root, loads


def test_cli_import_leaves_scipy_out(command_loads):
    # scipy is a test-only oracle: no stage of any command loads it
    root, loads = command_loads
    for where, stages in loads.values():
        assert where.is_relative_to(root / "src")
        assert not any(m.startswith("scipy") for stage in stages for m in stage)


def test_certify_and_scan_leave_numpy_random_out(command_loads):
    # numpy loads numpy.random on first use only.  Loading it raises a
    # command's peak RSS by about 5.4 MB (VmHWM 31.0 -> 36.4 MB after
    # importing groupkernels.cli; certify-pinned peak_rss_mb 35.9 -> 41.3 MB
    # when the center sets were drawn through np.random.default_rng) and
    # costs about 14 ms of import; the counter hash in admissibility needs
    # no generator
    _, loads = command_loads
    assert "numpy.random" not in loads["scans"][1][-1]


def test_each_command_loads_only_its_modules(command_loads):
    _, loads = command_loads
    for _, (package, cli, _) in loads.values():
        assert package == ["groupkernels"]
        # after the import, --help and a usage error: neither loads numpy
        assert cli == ["groupkernels", "groupkernels.cli", "groupkernels.errors"]
    scans, models = loads["scans"][1][-1], loads["models"][1][-1]
    assert "groupkernels.solvers" not in scans
    assert "groupkernels.admissibility" not in models
    assert "groupkernels.solvers" in models


def test_commands_leave_numpy_ma_out(command_loads):
    # np.unique and np.isin load numpy.ma on first call (numpy's _unique1d
    # calls np.ma.is_masked), 9-14 ms of import in every interpolate,
    # fit, pursuit and predict; the distinctness and subset checks sort instead
    _, loads = command_loads
    for _, stages in loads.values():
        assert "numpy.ma" not in stages[-1]


@pytest.mark.parametrize("loss", ["squared", "absolute"])
def test_overflowing_fit_prints_one_error_line(tmp_path, loss):
    # squares of values near 1e200 overflow: numpy printed three RuntimeWarnings
    # (six lines) before the error line.  pytest records warnings instead of
    # printing them, so the command runs in a fresh interpreter.  The squared
    # objective still overflows; the absolute fit, solved on Y 2^-e, certifies
    data = tmp_path / "train.csv"
    data.write_text("x,y1\n0.2,1e200\n0.5,-3e200\n0.8,2e200\n")
    out = tmp_path / "fit.json"
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    argv = ["fit", "--kernel", "tfamily", "--t", "0.5", "--coupling", "identity:1",
            "--lambda", "0.1", "--loss", loss, "--data", str(data), "--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "groupkernels.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == (2 if loss == "squared" else 0)
    assert out.exists() == (loss == "absolute")
    _assert_clean_exit(proc.returncode, proc.stderr, out)


_TFAMILY = ["--kernel", "tfamily", "--t", "1.0", "--coupling", "identity:1"]


@pytest.mark.parametrize("argv,fragment", [
    # a4 fails on t = -1 (worst 1.898 at the full budget), but an infinite
    # tolerance reported pass and exited 0
    (["certify", "--kernel", "tfamily", "--t", "-1", "--coupling", "identity:1", "--strict",
      "--max-centers", "2", "--grid", "16", "--trials", "5", "--tolerance", "inf"],
     "ValueError: tolerance must be positive and finite, got inf"),
    # exited 1 with "expected non-negative integer", which names no flag
    (["certify", "--kernel", "wendland", "--coupling", "identity:1", "--seed", "-1"],
     "ValueError: seed must be >= 0, got -1"),
    # a budget below one iteration exited 2 with "residuals inf/inf after -5 iterations"
    (["pursuit", *_TFAMILY, "--data", "{data}", "--extra-centers", "0.45", "--max-iters", "0"],
     "ValueError: max_iters must be >= 1, got 0"),
    (["pursuit", *_TFAMILY, "--data", "{data}", "--extra-centers", "0.45", "--max-iters", "-5"],
     "ValueError: max_iters must be >= 1, got -5"),
    # exited 2 with "newton gap nan", and with "above tolerance inf"
    (["fit", *_TFAMILY, "--data", "{data}", "--lambda", "inf"],
     "ValueError: lam must be positive and finite, got inf"),
    (["fit", *_TFAMILY, "--data", "{data}", "--lambda", "0.1", "--tol", "inf"],
     "ValueError: max_iters must be >= 1 and tol positive and finite"),
    # an infinite weight exited 2 with SingularError, from the flag or from kernel JSON
    (["interpolate", "--kernel", "combination", "--weights", "inf,1", "--coupling", "identity:1",
      "--data", "{data}"],
     "ValueError: weights must be finite and nonnegative with C1 + C2 > 0, got (inf, 1.0)"),
    (["interpolate", "--kernel-json", "{kernel}", "--data", "{data}"],
     "ValueError: weights must be finite and nonnegative with C1 + C2 > 0, got (inf, 1.0)"),
    (["interpolate", "--kernel", "wendland", "--domain", "0.5,0.2", "--coupling", "identity:1",
      "--data", "{data}"],
     "ValueError: domain must satisfy lo < hi, got (0.5, 0.2)"),
    (["interpolate", "--kernel", "wendland", "--coupling", "identity:0", "--data", "{data}"],
     "ValueError: coupling dimension must be >= 1"),
    (["fit", *_TFAMILY, "--p", "inf", "--data", "{data}", "--lambda", "0.1"],
     "ValueError: regularized fitting implemented for p in {1, 2}, got inf"),
], ids=["certify tolerance inf", "certify seed -1", "pursuit max-iters 0", "pursuit max-iters -5",
        "fit lambda inf", "fit tol inf", "combination weights inf", "kernel JSON weights inf",
        "domain reversed", "coupling identity:0", "fit p inf"])
def test_bad_numeric_setting_exits_1_when_read(tmp_path, capsys, argv, fragment):
    data, kernel, out = tmp_path / "train.csv", tmp_path / "kernel.json", tmp_path / "out.json"
    data.write_text("x,y1\n0.3,1.0\n0.6,0.5\n")
    kernel.write_text(json.dumps({"family": "combination", "weights": ["inf", 1.0],
                                  "coupling": {"n": 1, "A": [[1.0]]}}))
    argv = [a.format(data=data, kernel=kernel) for a in argv]
    assert run([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == f"error: {fragment}", err
    assert not out.exists()


def test_wrong_column_count_vs_coupling(tmp_path, capsys):
    train = tmp_path / "train.csv"
    train.write_text("x,y1,y2\n0.5,1.0,2.0\n")
    rc = run(["interpolate", "--data", str(train), "--kernel", "wendland", "--p", "2",
              "--coupling", "identity:1", "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "coupling has n=1" in capsys.readouterr().err


def test_usage_errors(tmp_path, capsys):
    assert run(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err
    assert run(["interpolate", "--data", "nope.csv", "--kernel", "wendland",
                "--p", "2", "--coupling", "identity:1",
                "--out", str(tmp_path / "m.json")]) == 1
    assert run(["certify", "--p", "2", "--coupling", "identity:1",
                "--out", str(tmp_path / "r.json")]) == 1  # no kernel given
    err = capsys.readouterr().err
    assert "--kernel" in err


_WENDLAND = ["--kernel", "wendland", "--coupling", "identity:1", "--data", "{data}"]


@pytest.mark.parametrize("argv,fragment", [
    # argparse parses each value and names the flag
    (["interpolate", "--kernel", "combination", "--weights", "1", "--coupling", "identity:1",
      "--data", "{data}", "--out", "{out}"],
     "argument --weights: expected two comma-separated reals, got '1'"),
    (["interpolate", *_WENDLAND, "--domain", "a,b", "--out", "{out}"],
     "argument --domain: expected comma-separated reals, got 'a,b'"),
    (["fit", *_WENDLAND, "--lambda-grid", "0.1,x", "--path-out", "{path}"],
     "argument --lambda-grid: expected comma-separated reals, got '0.1,x'"),
    (["pursuit", *_WENDLAND, "--extra-centers", "0.1,x", "--out", "{out}"],
     "argument --extra-centers: expected comma-separated reals, got '0.1,x'"),
    (["interpolate", "--kernel", "wendland", "--kernel-json", "{kernel}", "--coupling",
      "identity:1", "--data", "{data}", "--out", "{out}"],
     "argument --kernel-json: not allowed with argument --kernel"),
    # the kernel checks the family and the value ranges
    (["interpolate", *_WENDLAND, "--p", "0.5", "--out", "{out}"],
     "ValueError: group exponent p must satisfy p >= 1, got 0.5"),
    (["certify", "--kernel", "nope", "--coupling", "identity:1", "--out", "{out}"],
     "ValueError: unknown kernel family 'nope'; known families: tfamily, wendland, "
     "exponential, combination, brownianbridge"),
    (["interpolate", "--kernel", "combination", "--coupling", "identity:1", "--data", "{data}",
      "--out", "{out}"],
     "ValueError: combination requires weights (C1, C2)"),
    (["interpolate", *_WENDLAND, "--weights", "1,1", "--out", "{out}"],
     "ValueError: wendland takes no weights"),
    (["certify", "--kernel", "custom", "--coupling", "identity:1", "--out", "{out}"],
     "ValueError: custom kernels require func"),
    # the cli checks what neither can
    (["interpolate", "--kernel", "wendland", "--coupling", "identity:x", "--data", "{data}",
      "--out", "{out}"],
     "--coupling identity:N needs an integer N, got 'identity:x'"),
    (["certify", "--kernel", "wendland", "--out", "{out}"],
     "--coupling is required (identity:N or a CSV path)"),
    (["fit", *_WENDLAND, "--out", "{out}"], "fit requires --lambda and/or --lambda-grid"),
    (["fit", *_WENDLAND, "--lambda-grid", "0.1", "--out", "{out}"],
     "--lambda-grid requires --path-out"),
    (["fit", *_WENDLAND, "--lambda", "0.1", "--lambda-grid", "0.1", "--path-out", "{path}"],
     "--lambda requires --out"),
], ids=["weights one real", "domain not reals", "lambda-grid not reals", "extra-centers not reals",
        "kernel and kernel-json", "p below 1", "unknown family", "combination without weights",
        "wendland with weights", "custom without func", "coupling identity:x",
        "coupling missing", "fit without lambda", "lambda-grid without path-out",
        "lambda without out"])
def test_rejected_flag_exits_1_writing_nothing(tmp_path, capsys, argv, fragment):
    data, kernel = tmp_path / "train.csv", tmp_path / "kernel.json"
    data.write_text("x,y1\n0.3,1.0\n0.6,0.5\n")
    kernel.write_text(json.dumps(_KERNEL))
    argv = [a.format(data=data, kernel=kernel, out=tmp_path / "out.json",
                     path=tmp_path / "path.csv") for a in argv]
    assert run(argv) == 1
    assert capsys.readouterr().err.splitlines()[0] == f"error: {fragment}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kernel.json", "train.csv"]


def test_p_inf_interpolates_predicts_and_certifies(tmp_path):
    train, pts = tmp_path / "train.csv", tmp_path / "pts.csv"
    train.write_text("x,y1,y2\n0.2,1.0,0.0\n0.5,0.3,-0.2\n0.8,0.5,1.0\n")
    pts.write_text("x\n0.3\n")
    kernel = ["--kernel", "wendland", "--p", "inf", "--coupling", "identity:2"]
    model, preds, report = tmp_path / "model.json", tmp_path / "preds.csv", tmp_path / "r.json"
    assert run(["interpolate", *kernel, "--data", str(train), "--out", str(model)]) == 0
    assert run(["predict", "--model", str(model), "--points", str(pts), "--out", str(preds)]) == 0
    assert run(["certify", *kernel, "--max-centers", "2", "--trials", "5",
                "--out", str(report)]) == 0
    data = json.loads(model.read_text())
    assert data["p"] == data["kernel"]["p"] == "inf"
    assert json.loads(report.read_text())["kernel"]["p"] == "inf"
    assert len(preds.read_text().splitlines()) == 2


def test_failed_write_leaves_no_temp_file(tmp_path, capsys):
    # the rename onto a directory fails after the temp file is written
    train, out = tmp_path / "train.csv", tmp_path / "out"
    train.write_text("x,y1\n0.3,1.0\n0.6,0.5\n")
    out.mkdir()
    assert run(["interpolate", "--kernel", "wendland", "--coupling", "identity:1",
                "--data", str(train), "--out", str(out)]) == 1
    assert "IsADirectoryError" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "train.csv"]
    assert list(out.iterdir()) == []


def test_math_failure_exit_code(tmp_path, capsys):
    # duplicate sites: rejected as caller misuse (exit 1)
    train = tmp_path / "train.csv"
    train.write_text("x,y1\n0.5,1.0\n0.5,2.0\n")
    rc = run(["interpolate", "--data", str(train), "--kernel", "wendland", "--p", "2",
              "--coupling", "identity:1", "--out", str(tmp_path / "m.json")])
    assert rc == 1
    # non-convergence: exit 2
    train2 = tmp_path / "t2.csv"
    train2.write_text("x,y1\n0.3,1.0\n0.6,0.5\n")
    rc = run(["pursuit", "--data", str(train2), "--kernel", "tfamily", "--t=-1.0",
              "--p", "2", "--coupling", "identity:1", "--extra-centers", "0.9",
              "--max-iters", "2", "--out", str(tmp_path / "m2.json")])
    assert rc == 2
    assert "NonconvergenceError" in capsys.readouterr().err
    rc = run(["fit", "--data", str(train2), "--kernel", "tfamily", "--t", "1.0",
              "--p", "2", "--coupling", "identity:1", "--loss", "absolute", "--lambda", "0.1",
              "--max-iters", "2", "--out", str(tmp_path / "m3.json")])
    assert rc == 2
    assert "NonconvergenceError: newton gap" in capsys.readouterr().err
    assert not (tmp_path / "m3.json").exists()


def test_kernel_json_flag(tmp_path, train_csv):
    kpath = tmp_path / "kernel.json"
    K = gk.OperatorKernel(gk.tfamily(1.0), gk.TaskCoupling.identity(1), p=2)
    kpath.write_text(json.dumps(gk.kernel_to_dict(K)))
    out = str(tmp_path / "model.json")
    rc = run(["interpolate", "--data", train_csv, "--kernel-json", str(kpath),
              "--out", out])
    assert rc == 0
    assert json.loads(Path(out).read_text())["coeffs"] == [[4.0]]


def test_coupling_csv_flag(tmp_path):
    train = tmp_path / "train.csv"
    train.write_text("x,y1,y2\n0.4,1.0,0.0\n0.7,0.0,1.0\n")
    cpath = tmp_path / "coupling.csv"
    cpath.write_text("2.0,0.5\n0.5,1.0\n")
    out = str(tmp_path / "model.json")
    rc = run(["interpolate", "--data", str(train), "--kernel", "brownianbridge",
              "--p", "2", "--coupling", str(cpath), "--out", out])
    assert rc == 0
    assert json.loads(Path(out).read_text())["kernel"]["coupling"]["A"] == [[2.0, 0.5], [0.5, 1.0]]


def test_brownianbridge_writes_the_tfamily_t1_model(tmp_path):
    train = tmp_path / "train.csv"
    train.write_text("x,y1,y2\n0.2,1.0,0.0\n0.55,0.3,-0.2\n0.9,0.5,1.0\n")
    written = []
    for flags in (["--kernel", "brownianbridge"], ["--kernel", "tfamily", "--t", "1"]):
        out = tmp_path / f"{flags[1]}.json"
        assert run(["interpolate", "--data", str(train), *flags, "--p", "2",
                    "--coupling", "identity:2", "--deterministic", "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_brownianbridge_model_json_still_predicts(tmp_path):
    # a model saved before brownianbridge became an alias names the family
    # and carries no t
    train, pts = tmp_path / "train.csv", tmp_path / "pts.csv"
    train.write_text("x,y1\n0.2,1.0\n0.55,0.3\n0.9,0.5\n")
    pts.write_text("x\n0.1\n0.4\n0.95\n")
    model = tmp_path / "model.json"
    assert run(["interpolate", "--data", str(train), "--kernel", "tfamily", "--t", "1",
                "--p", "2", "--coupling", "identity:1", "--out", str(model)]) == 0
    data = json.loads(model.read_text())
    old = dict(data, kernel={"family": "brownianbridge",
                             **{k: v for k, v in data["kernel"].items() if k not in ("family", "t")}})
    old_model = tmp_path / "old.json"
    old_model.write_text(json.dumps(old))
    predictions = []
    for path in (model, old_model):
        out = tmp_path / f"{path.stem}.csv"
        assert run(["predict", "--model", str(path), "--points", str(pts), "--out", str(out)]) == 0
        predictions.append(out.read_bytes())
    assert predictions[0] == predictions[1]


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _defaults(cls):
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


# the flags whose default the library sets: a config field, max_iters or p
_LIBRARY_SET = {*_defaults(LearnConfig), "lam", *_defaults(CertificationConfig), "max_iters", "p"}


def test_no_flag_restates_a_library_default():
    # each of these flags had a default of its own, a copy of the library's
    actions = [a for sub in _subparsers(build_parser()).values() for a in sub._actions
               if a.dest in _LIBRARY_SET]
    assert {a.dest for a in actions} == _LIBRARY_SET
    assert [(a.option_strings, a.default) for a in actions if a.default is not None] == []


@pytest.mark.parametrize("argv,library", [
    (["certify"], _defaults(CertificationConfig)),
    (["fit", "--data", "{data}", "--lambda", "0.05"], _defaults(LearnConfig)),
    (["pursuit", "--data", "{data}", "--extra-centers", "0.5,0.7"],
     {"max_iters": inspect.signature(group_basis_pursuit).parameters["max_iters"].default}),
], ids=["certify", "fit", "pursuit"])
def test_omitted_flags_take_the_library_defaults(tmp_path, argv, library):
    train = tmp_path / "train.csv"
    _scaled_train_csv(train, 20, 1.0)
    argv = [a.format(data=train) for a in argv]
    argv += ["--kernel", "wendland", "--coupling", "identity:2", "--deterministic"]
    flag = {a.dest: a.option_strings[0] for a in _subparsers(build_parser())[argv[0]]._actions}
    defaults = {"p": _defaults(gk.OperatorKernel)["p"], **library}
    spelled = [arg for dest, value in defaults.items() for arg in (flag[dest], str(value))]
    omitted, given = tmp_path / "omitted.json", tmp_path / "given.json"
    assert run([*argv, "--out", str(omitted)]) == 0
    assert run([*argv, *spelled, "--out", str(given)]) == 0
    assert omitted.read_bytes() == given.read_bytes()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "usage" in capsys.readouterr().out
