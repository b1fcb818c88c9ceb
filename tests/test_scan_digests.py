"""Byte-identity guard for certification output.

The digests below were recorded from the per-set scan that the batched
scan replaced, and pin its reports bit for bit: every row value, the
witness, a1.worst_cond and a1.cholesky_ok.  The wendland case at seed
2**32 + 5 was recorded while each center set still drew from its own
numpy Generator, before the draws were computed for all trials at once.
C10 only compares two runs of the same code, so without this guard a
change in rounding of the scan would go unnoticed.  The digests are tied to the installed numpy
and its LAPACK: a different build may round a solve or an SVD
differently.
"""

import hashlib
import json

import numpy as np

import groupkernels as gk
from groupkernels.admissibility import CertificationConfig, certify, scan_rows_csv
from groupkernels.cli import run

SEED = 1201
PINNED = ["--p", "2", "--coupling", "identity:2", "--max-centers=6", "--grid=512",
          "--trials=200", "--deterministic"]

# (name, command, kernel and budget flags, seed): the certify-pinned benchmark
# cases, wendland at 2**32 + 5, a seed whose entropy takes two 32-bit words,
# and tfamily t=0.5 at 12 x 1000, recorded while each size was one stack:
# its 12-center sets and its a2 probe now take several blocks
CLI_CASES = [
    ("tfamily t=1", "certify", ["--kernel", "tfamily", "--t", "1"], SEED),
    ("tfamily t=-1", "certify", ["--kernel", "tfamily", "--t", "-1"], SEED),
    ("wendland", "certify", ["--kernel", "wendland"], SEED),
    ("exponential [-2,2]", "certify", ["--kernel", "exponential", "--domain=-2,2"], SEED),
    ("combination 1,1", "lebesgue-scan", ["--kernel", "combination", "--weights", "1,1"], SEED),
    ("wendland seed 2**32+5", "certify", ["--kernel", "wendland"], 2**32 + 5),
    ("tfamily t=0.5 12x1000", "certify",
     ["--kernel", "tfamily", "--t", "0.5", "--max-centers=12", "--trials=1000"], SEED),
]

# the two custom kernels of test_admissibility.py, at a small budget: these
# cover the grid probes and the golden-section refinement.  The third has
# nonsingular Grams that are not SPD, so a1.cholesky_ok is false
CUSTOM_CASES = [
    ("gaussian", lambda x, y: np.exp(-((x - y) ** 2))),
    ("tfamily(-1) as custom", lambda x, y: np.minimum(x, y) + x * y),
    ("indefinite", lambda x, y: 1.0 + np.abs(x - y)),
]
CUSTOM_CFG = CertificationConfig(max_centers=4, grid_size=128, trials=30, seed=0)

EXPECTED = {
    "tfamily t=1 report": "ecd825fe6bcab7cc0505f740bc54becfd0519f759cc706bfdd44bc4b664a87d3",
    "tfamily t=1 rows": "8679d2bf6cb8e7792923aa73ad85f490c04f94e85e7caf3655e6c4e2d4243006",
    "tfamily t=-1 report": "50b4b388f9f83b3ac78ea593f06d95580aa21bf59bbf7617f44781ebbe3c9203",
    "tfamily t=-1 rows": "66f9570a002bd00f79ddb2d0bee724c26e661c230b961a3a65fb26b0c44a28ad",
    "wendland report": "69813f164ba2a3f78b275f4f2badda32d7c1fd3eaa3f4eeb1b91ddce9f01bda4",
    "wendland rows": "bab07ccbd7602089049f6edf69f5e6ef2723d430a7a4998478fee0638c593b32",
    "exponential [-2,2] report": "9e120991daf8c71f6077c9b4a30df67f6c703e4c637908f6a5c7c49af33650cb",
    "exponential [-2,2] rows": "8679d2bf6cb8e7792923aa73ad85f490c04f94e85e7caf3655e6c4e2d4243006",
    "combination 1,1 report": "9fb4fb8bfa9a43773e4344a7cf5029f88139b6d694ddf1cd3f6b3c3ea9316761",
    "combination 1,1 rows": "8679d2bf6cb8e7792923aa73ad85f490c04f94e85e7caf3655e6c4e2d4243006",
    "wendland seed 2**32+5 report": "6ae8492134df1985d551209ddec2523e68af69174ae1b7962212a11e1939e132",
    "wendland seed 2**32+5 rows": "78a63b9131c0a26b7afb7f51986818811004eb3514e5451d36e0a48e7518758b",
    "tfamily t=0.5 12x1000 report": "232aba0cf0dd1a696646f9e733e4eb4615b13062f510451f0d6af376d57c6dfc",
    "tfamily t=0.5 12x1000 rows": "80fe8870d2858ae46f0f6932d64695c95fc9cc81ac27f1f7cfdb545a256711c5",
    "gaussian report": "5900dfb433a24f5dd42ad64f92632b1cbcbdae2b82ea943e808c9c51326d05f9",
    "gaussian rows": "9ff6c9b9d8891c448119be0feb6f3a155d17493e20f0c708480cc6e7124d82dc",
    "tfamily(-1) as custom report": "52a9ff96d7e105272813ff91589eb653cede1f1317136185be1243d5a628c791",
    "tfamily(-1) as custom rows": "5452daf4975fe3f79c2755cc29cb9c2c07a212e229ca646749ed5fb19bf2680b",
    "indefinite report": "880dbd45b76da5646668b35de5b52ba15f3ce14da8e5c654148d91ac88868927",
    "indefinite rows": "2fdd30c23635a3f3adf3990cda02a3260599c428f523a378f38aa63cd9c0ff6e",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def scan_digests(tmp_path) -> dict:
    """sha256 of every report and row CSV, keyed by case and file."""
    out = {}
    for name, command, flags, seed in CLI_CASES:
        report, rows = tmp_path / "report.json", tmp_path / "rows.csv"
        strict = ["--strict"] if command == "certify" else []
        rc = run([command, *strict, *PINNED, *flags, f"--seed={seed}",
                  "--out", str(report), "--csv", str(rows)])
        assert rc == (2 if name == "tfamily t=-1" else 0), name
        out[f"{name} report"] = _sha(report.read_bytes())
        out[f"{name} rows"] = _sha(rows.read_bytes())
    for name, func in CUSTOM_CASES:
        spec = gk.custom(func, domain=(0.0, 1.0))
        rep = certify(gk.OperatorKernel(spec, gk.TaskCoupling.identity(2), p=2), CUSTOM_CFG)
        out[f"{name} report"] = _sha(json.dumps(rep.to_dict(), indent=2).encode())
        out[f"{name} rows"] = _sha(scan_rows_csv(rep.rows).encode())
    return out


def test_certification_output_is_byte_identical(tmp_path):
    assert scan_digests(tmp_path) == EXPECTED
