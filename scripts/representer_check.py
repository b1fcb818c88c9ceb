#!/usr/bin/env python3
"""Exact check that the site interpolant is the minimal-norm expansion.

The linear representer theorem: for an admissible kernel, the
interpolant C of Y at the sites has the least ||.||_{p,1} norm among all
expansions that interpolate Y, with centers anywhere in the domain.  Take
V in the subdifferential of the grouped norm at C, row by row
(p = 2: V_k = C_k / ||C_k||_2; p = 1: V = sign C).  The interpolant of V
at the sites is the dual expansion sum_i G(z, x_i) (G^-1 V)_i, and C is
minimal when its sup norm over z is at most 1: then theta = G^-1 V A^-1
is dual feasible at every center z, and <Y, theta> = ||C||_{p,1}.  When
the sup exceeds 1, the relative duality gap is 1 - 1/sup.
expansion_sup_norm takes that sup, exactly for the builtin families.

For each family the script draws random instances and prints the largest
dual sup.  The families with t < 0 and a clustered Gaussian kernel are
references that are not admissible: their sup exceeds 1.  For the
Gaussian, one pursuit over the sites plus their midpoint finds the
cheaper expansion that the gap predicts.  The script exits 1 if an
admissible family's sup exceeds 1 + 1e-9 or a reference's does not
exceed 1.
"""

import argparse
import sys

import numpy as np

import groupkernels as gk
from groupkernels.blocklinalg import BlockVector
from groupkernels.solvers import expansion_sup_norm, group_basis_pursuit, min_norm_interpolant

ADMISSIBLE = [
    ("tfamily t=0", gk.tfamily(0.0)),
    ("tfamily t=0.5", gk.tfamily(0.5)),
    ("tfamily t=1", gk.tfamily(1.0)),
    ("wendland", gk.wendland()),
    ("exponential", gk.exponential((-2.0, 2.0))),
    ("combination", gk.combination(1.0, 1.0)),
]
REFERENCES = [
    ("tfamily t=-0.5", gk.tfamily(-0.5)),
    ("tfamily t=-1", gk.tfamily(-1.0)),
]
MAX_SITES = 12
GRID = 4096  # query grid of the Gaussian's sampled sup; builtin families use none
TOL = 1e-9


def rank_shift_sites(lo, hi, m, rng):
    """m sorted sites, uniform on (lo, hi) with gaps of at least
    (hi - lo)/(10 m): m sorted uniforms on (lo, hi - (m - 1) sep), each
    shifted by its rank times sep, as certification draws its center sets."""
    sep = (hi - lo) / (10.0 * m)
    return np.sort(rng.uniform(lo, hi - (m - 1) * sep, m)) + sep * np.arange(m)


def dual_sup(kernel, sites, y):
    """sup_z of the dual expansion at the site interpolant of y."""
    c = min_norm_interpolant(kernel, sites, y).coeffs.blocks
    if kernel.p == 2.0:
        v = c / np.linalg.norm(c, axis=1, keepdims=True)
    else:
        v = np.sign(c)
    return expansion_sup_norm(min_norm_interpolant(kernel, sites, BlockVector(v, kernel.p)), GRID)


def largest_dual_sup(spec, instances, rng):
    worst = -np.inf
    for _ in range(instances):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, MAX_SITES + 1))
        kernel = gk.OperatorKernel(spec, gk.TaskCoupling.identity(n),
                                   p=float(rng.choice([1.0, 2.0])))
        sites = rank_shift_sites(*spec.domain, m, rng)
        y = BlockVector(rng.standard_normal((m, n)), kernel.p)
        worst = max(worst, dual_sup(kernel, sites, y))
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--instances", type=int, default=200)
    parser.add_argument("--seed", type=int, default=100)
    args = parser.parse_args()

    failures = []
    print(f"{'kernel':16s} {'largest dual sup':>20s}")
    for admissible, families in ((True, ADMISSIBLE), (False, REFERENCES)):
        for name, spec in families:
            sup = largest_dual_sup(spec, args.instances, np.random.default_rng(args.seed))
            print(f"{name:16s} {sup:20.15f}{'' if admissible else '  (not admissible)'}")
            holds = sup <= 1.0 + TOL if admissible else sup > 1.0
            if not holds:
                failures.append(name)

    # two clustered sites: pursuit over them and their midpoint finds a
    # cheaper expansion, by the relative gap 1 - 1/sup
    gauss = gk.custom(lambda x, y: np.exp(-((x - y) ** 2)), domain=(0.0, 1.0))
    kernel = gk.OperatorKernel(gauss, gk.TaskCoupling.identity(1), p=1)
    cons = np.array([0.45, 0.55])
    y = BlockVector([[1.0], [1.0]], 1)
    sup = dual_sup(kernel, cons, y)
    exact = min_norm_interpolant(kernel, cons, y).norm_lp1
    pursuit = group_basis_pursuit(kernel, np.array([0.45, 0.55, 0.5]), cons, y).norm_lp1
    print(f"\ngaussian reference: dual sup {sup:.7f}, relative gap {1.0 - 1.0 / sup:.3e}; "
          f"pursuit with the midpoint lowers the norm {exact:.6f} -> {pursuit:.6f} "
          f"({(exact - pursuit) / exact:.3e})")
    if not sup > 1.0:
        failures.append("gaussian")
    if failures:
        sys.exit(f"representer check failed: {', '.join(failures)}")


if __name__ == "__main__":
    main()
