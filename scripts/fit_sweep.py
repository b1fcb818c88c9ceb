#!/usr/bin/env python3
"""Run a sweep of regularized fits at several tolerances and report, per
tol, how many certify and how many Newton steps they take.

Fit i uses family [tfamily(0.5), wendland, exponential((-2, 2)),
combination(1, 1), brownian_bridge][i % 5], p = [1, 2][(i // 5) % 2] and
loss [squared, absolute][(i // 10) % 2].  From one default_rng(31), in
this order per fit: n = integers(1, 4); m = integers(20, 301); m sites in
random order, one in the middle 80% of each of m equal cells of the
domain; a random SPD coupling if n > 1 and random() < 0.5, else the
identity; Y_k = sin((2 + k) pi x + k) + 0.1 standard_normal((m, n)); and
lam = 10^uniform(-2.5, -1) lam_max, with lam_max the largest
||(G Y A)_i||_q (squared loss) or ||(G sign(Y) A)_i||_q (absolute loss),
the smallest lam at which C = 0 is optimal.  Every fit runs at each tol
with the same max_iters cap.

Prints one line per fit and tol (exit code 0 or 2, Newton steps,
objective and duality gap) and one summary line per tol, which also counts
the fits that the certificate's rounding floor, not tol, certified
(meta.bound > tol * objective).
"""

import argparse
import math
import time

import numpy as np

import groupkernels as gk
from groupkernels.blocklinalg import BlockVector, block_norms
from groupkernels.errors import NonconvergenceError
from groupkernels.solvers import LearnConfig, fit_regularized

FAMILIES = [lambda: gk.tfamily(0.5), gk.wendland, lambda: gk.exponential((-2.0, 2.0)),
            lambda: gk.combination(1.0, 1.0), gk.brownian_bridge]


def sweep_fits(count):
    """The first count fits of the sweep: (kernel, sites, Y, lam, loss)."""
    rng = np.random.default_rng(31)
    fits = []
    for i in range(count):
        spec = FAMILIES[i % 5]()
        p, loss = [1.0, 2.0][(i // 5) % 2], ["squared", "absolute"][(i // 10) % 2]
        n, m = int(rng.integers(1, 4)), int(rng.integers(20, 301))
        lo, hi = spec.domain
        x = rng.permutation(lo + (hi - lo) * (np.arange(m) + 0.1 + 0.8 * rng.random(m)) / m)
        coupling = gk.TaskCoupling.identity(n)
        if n > 1 and rng.random() < 0.5:
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            coupling = gk.TaskCoupling.from_matrix(q @ np.diag(rng.uniform(0.5, 2.0, n)) @ q.T)
        k = np.arange(n)
        y = np.sin((2 + k) * math.pi * x[:, None] + k) + 0.1 * rng.standard_normal((m, n))
        kernel = gk.OperatorKernel(spec, coupling, p=p)
        g = gk.kernels.scalar_values(spec, x[:, None], x[None, :])
        top = block_norms(g @ (y if loss == "squared" else np.sign(y)) @ coupling.A, kernel.q)
        fits.append((kernel, x, y, float(10 ** rng.uniform(-2.5, -1)) * float(top.max()), loss))
    return fits


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tols", default="1e-10,1e-12,1e-14",
                        help="comma-separated tolerances (default: %(default)s)")
    parser.add_argument("--max-iters", type=int, default=3000,
                        help="Newton step cap of every fit (default: %(default)s)")
    parser.add_argument("--fits", type=int, default=40,
                        help="number of fits, from fit 0 (default: %(default)s)")
    args = parser.parse_args()

    fits = sweep_fits(args.fits)
    print(f"{'tol':>7s} {'fit':>3s} {'exit':>4s} {'steps':>5s} {'objective':>24s} {'gap':>24s}")
    summary = []
    for tol in (float(t) for t in args.tols.split(",")):
        certified = floored = total = 0
        start = time.perf_counter()
        for i, (kernel, x, y, lam, loss) in enumerate(fits):
            cfg = LearnConfig(lam=lam, loss=loss, tol=tol, max_iters=args.max_iters)
            try:
                meta = fit_regularized(kernel, x, BlockVector(y, kernel.p), cfg).meta
                code, steps, obj, gap = 0, meta["iterations"], meta["objective"], meta["gap"]
                floored += meta["bound"] > tol * obj
            except NonconvergenceError as exc:
                gap = exc.residuals[0] if exc.residuals else math.nan
                code, steps, obj = 2, exc.iterations, math.nan
            certified += code == 0
            total += steps
            print(f"{tol:7.0e} {i:3d} {code:4d} {steps:5d} {obj!r:>24s} {gap!r:>24s}")
        summary.append(f"tol {tol:.0e}: {certified}/{len(fits)} certified ({floored} by the floor), "
                       f"{total} Newton steps, {time.perf_counter() - start:.1f} s")
    print("\n".join(summary))


if __name__ == "__main__":
    main()
