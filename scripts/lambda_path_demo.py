#!/usr/bin/env python3
"""Trace a penalized fit across a grid of penalty weights.

Writes (lambda, norm, objective) rows to a CSV and prints the grid; the
endpoints illustrate the two limits: heavy penalties kill every block,
vanishing penalties recover the exact interpolant.
"""

import argparse

import numpy as np

import groupkernels as gk
from groupkernels.blocklinalg import BlockVector
from groupkernels.kernels import csv_text
from groupkernels.solvers import LearnConfig, fit_regularized, min_norm_interpolant


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="lambda_path.csv")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    kernel = gk.OperatorKernel(gk.exponential((-2.0, 2.0)),
                               gk.TaskCoupling.identity(2), p=2)
    x = np.array([-1.5, -0.6, 0.3, 1.2])
    y = BlockVector(rng.standard_normal((4, 2)), 2)

    rows = []
    print(f"{'lambda':>12s} {'norm':>12s} {'objective':>12s}")
    for lam in np.geomspace(1e-6, 10.0, 15).tolist():
        model = fit_regularized(kernel, x, y, LearnConfig(lam=lam, tol=1e-14))
        obj = model.meta["objective"]
        rows.append((lam, model.norm_lp1, obj))
        print(f"{lam:12.3e} {model.norm_lp1:12.6f} {obj:12.6f}")

    exact = min_norm_interpolant(kernel, x, y)
    print(f"\nexact interpolant norm {exact.norm_lp1:.6f} "
          f"(the vanishing-penalty limit)")
    with open(args.out, "w") as fh:
        fh.write(csv_text(["lambda", "norm_lp1", "objective"], rows))
    print(f"path written to {args.out}")


if __name__ == "__main__":
    main()
