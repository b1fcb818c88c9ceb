"""Byte-identity guard for certification output.

The digests below pin the reports and row CSVs bit for bit: every row
value, the witness, a1.worst_cond and a1.cholesky_ok, at the rank-shift
draws of admissibility._center_stacks.  C10 only compares two runs of the
same code, so without this guard a change in rounding of the scan would go
unnoticed.  The digests are tied to the installed numpy and its LAPACK: a
different build may round a solve or an SVD differently.
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
# cases, wendland at 2**32 + 5, a seed above 32 bits, and tfamily t=0.5 at
# 12 x 1000, whose 12-center sets and a2 probe take several blocks
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
    "tfamily t=1 report": "d80be6fd4ce9e552fe6bc9afe9466bfc895cae9a8909f04df1391d587674c976",
    "tfamily t=1 rows": "8679d2bf6cb8e7792923aa73ad85f490c04f94e85e7caf3655e6c4e2d4243006",
    "tfamily t=-1 report": "2008af41764fee61813df577a393f6a9b34d073396f36ba21039b9d669aa7f2f",
    "tfamily t=-1 rows": "e0c089f8774012f81029101ee1ca644c0b48b5ac5d1c8a755898f849ec4e396a",
    "wendland report": "6f7a8ca035d6ac09382f01ec4015c48ed058de89b13ec02ad60d8aa9892a7e05",
    "wendland rows": "379182739e93265b843c2e012d2c387b735f6ee8f1dbcc75d5ff83744a08f529",
    "exponential [-2,2] report": "0e478fb599ca76ff0755ef92b75a6e769c416b63256a7ed5d76739b4acbc8658",
    "exponential [-2,2] rows": "8679d2bf6cb8e7792923aa73ad85f490c04f94e85e7caf3655e6c4e2d4243006",
    "combination 1,1 report": "d969c07551ed730ac00923e7ccf1a4dd214cb2af281695d2f3fb5a08e325a210",
    "combination 1,1 rows": "8679d2bf6cb8e7792923aa73ad85f490c04f94e85e7caf3655e6c4e2d4243006",
    "wendland seed 2**32+5 report": "4c49613a0c4a1539e3de52056b97c8a579ee1a8f3683b7ac26f23a2d0dab2cd5",
    "wendland seed 2**32+5 rows": "a15606834be4679c6250f3e4a651c4cd16653dcd77cf378aa9857ef770a6798c",
    "tfamily t=0.5 12x1000 report": "cea2d46ac6c6060166681baed0873af312f5d0c3e4566a4646d6005ccde339e0",
    "tfamily t=0.5 12x1000 rows": "80fe8870d2858ae46f0f6932d64695c95fc9cc81ac27f1f7cfdb545a256711c5",
    "gaussian report": "2f48ba2453be6590faa53a8bb75726a44a72506c2bf54b8f67380b4c8883bcc1",
    "gaussian rows": "bc671b9d2bff8a771aa7518a082a34f039c6dcbc6bc9b7737879e8d5427e821d",
    "tfamily(-1) as custom report": "e31a0188d5d374dd1475235f9a792d3c21eb07dc5238c577079c142edf57543d",
    "tfamily(-1) as custom rows": "cd4b411478d3b578e96e38226de5a8cf4b11f8d7843b40e7449a6493eeca4104",
    "indefinite report": "ea04695691716c70fe3020fcf46d9fdf0d853842724413bcd45b705faab97253",
    "indefinite rows": "1323a59ec574fb4701cb611bc8c82cc4d3d364c915278c58215b722f2eafa41f",
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
