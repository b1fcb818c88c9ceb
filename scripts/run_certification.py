#!/usr/bin/env python3
"""Certify every builtin kernel family and write the reports.

Runs the a1-a4 probes at CertificationConfig's budget, or at the one the
flags give, and prints one row per kernel with the worst observed
stability value, the boundedness constant, and the verdict.
A Gaussian kernel is included as a known-unstable reference point.
"""

import argparse
import json
import pathlib
import time

import numpy as np

import groupkernels as gk
from groupkernels.admissibility import CertificationConfig, certify, scan_rows_csv

CASES = [
    ("tfamily_t-1.0", gk.tfamily(-1.0)),
    ("tfamily_t-0.5", gk.tfamily(-0.5)),
    ("tfamily_t0.0", gk.tfamily(0.0)),
    ("tfamily_t0.5", gk.tfamily(0.5)),
    ("tfamily_t1.0", gk.tfamily(1.0)),
    ("wendland", gk.wendland()),
    ("exponential_-2_2", gk.exponential((-2.0, 2.0))),
    ("combination_1_1", gk.combination(1.0, 1.0)),
    ("gaussian_reference", gk.custom(lambda x, y: np.exp(-((x - y) ** 2)),
                                     domain=(0.0, 1.0))),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="certification_reports")
    parser.add_argument("--max-centers", type=int)
    parser.add_argument("--grid", dest="grid_size", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    budget = {k: getattr(args, k) for k in ("max_centers", "grid_size", "trials")
              if getattr(args, k) is not None}
    cfg = CertificationConfig(seed=args.seed, **budget)

    print(f"{'kernel':24s} {'worst':>16s} {'kappa':>10s} {'verdict':>8s} {'time':>7s}")
    for name, spec in CASES:
        kernel = gk.OperatorKernel(spec, gk.TaskCoupling.identity(1), p=2)
        t0 = time.perf_counter()
        report = certify(kernel, cfg)
        elapsed = time.perf_counter() - t0
        (out / f"{name}.json").write_text(
            json.dumps(report.to_dict(), indent=2) + "\n")
        (out / f"{name}.csv").write_text(scan_rows_csv(report.rows))
        print(f"{name:24s} {report.a4['worst']:16.10f} {report.a2['kappa']:10.4f} "
              f"{report.verdict['overall']:>8s} {elapsed:6.1f}s")
    print(f"\nreports written to {out}/")


if __name__ == "__main__":
    main()
