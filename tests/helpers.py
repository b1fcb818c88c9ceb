"""Shared test utilities: dense block-matrix oracles and instance generators.

The dense Kronecker expansion lives here (and only here) as an oracle for
the factored solves; the library itself never materializes it.
"""

import math

import numpy as np

import groupkernels as gk
from groupkernels.blocklinalg import BlockVector, block_norms


MAX_ATTEMPTS = 1000  # draws of a center set before sample_centers gives up


def sample_centers(lo, hi, m, rng):
    """m sorted centers drawn uniformly from (lo, hi) with a minimum
    separation of (hi - lo)/(10 m) to avoid spurious near-duplicates: the
    first of at most MAX_ATTEMPTS draws of m uniforms from rng that passes."""
    min_sep = (hi - lo) / (10.0 * m)
    for _ in range(MAX_ATTEMPTS):
        pts = np.sort(rng.uniform(lo, hi, m))
        if pts[0] > lo and pts[-1] < hi and np.diff(pts).min(initial=math.inf) >= min_sep:
            return pts
    raise ValueError(f"no {m} centers in ({lo}, {hi}) at separation {min_sep!r} "
                     f"in {MAX_ATTEMPTS} draws")


def mix64(z):
    """The SplitMix64 finalizer on a Python int below 2**64."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
    return z ^ z >> 31


def splitmix64(state, i):
    """Output i (from 0) of the SplitMix64 generator seeded with state, on
    Python ints: the published algorithm, scalar oracle of the scan draws."""
    return mix64((state + (i + 1) * 0x9E3779B97F4A7C15) % 2**64)


def hash_uniform(seed, key, i, lo, hi):
    """Value i of the (seed, key) certification stream on (lo, hi): the
    64-bit words of seed, then key, each xored into the running state and
    mixed, seed a SplitMix64 sequence; 52 bits of its output i, centred in
    their cell."""
    words = [seed >> 64 * j & 2**64 - 1 for j in range(max(1, -(-seed.bit_length() // 64)))]
    state = 0
    for w in [*words, key]:
        state = mix64(state ^ w)
    return lo + (hi - lo) * (((splitmix64(state, i) >> 12) + 0.5) * 2.0**-52)


def trial_centers(seed, lo, hi, m, trial):
    """Certification set `trial` of size m, one set at a time: m stream
    values sorted, then shifted by rank times (hi - lo)/(10 m)."""
    sep = (hi - lo) / (10.0 * m)
    u = sorted(hash_uniform(seed, m, trial * m + k, lo, hi - (m - 1) * sep) for k in range(m))
    return np.array(u) + sep * np.arange(m)


def random_spd(n, rng, eig_range=(0.5, 2.0)):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(*eig_range, size=n)
    return q @ np.diag(eigs) @ q.T


def random_coupling(n, rng):
    return gk.TaskCoupling.from_matrix(random_spd(n, rng))


def dense_operator_gram(system):
    """Dense (mn, mn) expansion of the factored Gram, oracle only."""
    return np.kron(system.G, system.coupling.A)


def dense_solve_blocks(system, y_blocks):
    big = dense_operator_gram(system)
    sol = np.linalg.solve(big, y_blocks.reshape(-1))
    return sol.reshape(y_blocks.shape)


def matrix_opnorm(A, p):
    """Induced p -> p operator norm for p in {1, 2, inf}: max column abs
    sum, spectral norm, max row abs sum."""
    if p == 1:
        return float(np.abs(A).sum(axis=0).max())
    if p == 2:
        return float(np.linalg.norm(A, 2))
    return float(np.abs(A).sum(axis=1).max())


def column_norm_sampled(blocks, p, rng, trials=200):
    """Sampled sup over unit c of sum_i ||blocks[i] @ c||_p for an
    (m, n, n) stack of column blocks."""
    n = blocks.shape[2]
    cs = rng.standard_normal((trials, n))
    cs = np.vstack([cs, np.eye(n), np.ones((1, n)), np.sign(rng.standard_normal((8, n)))])
    norms = block_norms(cs, p)
    cs = cs[norms > 0] / norms[norms > 0, None]
    best = 0.0
    for c in cs:
        applied = blocks @ c
        best = max(best, float(block_norms(applied, p).sum()))
    return best


ADMISSIBLE_SPECS = [
    ("tfamily t=0", gk.tfamily(0.0)),
    ("tfamily t=0.5", gk.tfamily(0.5)),
    ("tfamily t=1", gk.tfamily(1.0)),
    ("wendland", gk.wendland()),
    ("exponential", gk.exponential((-2.0, 2.0))),
    ("combination", gk.combination(1.0, 1.0)),
]


def random_kernel(spec, rng, n_max=3, p_choices=(1.0, 2.0)):
    n = int(rng.integers(1, n_max + 1))
    if rng.random() < 0.5 or n == 1:
        coupling = gk.TaskCoupling.identity(n)
    else:
        coupling = random_coupling(n, rng)
    p = float(rng.choice(p_choices))
    return gk.OperatorKernel(scalar=spec, coupling=coupling, p=p)


def random_sites(kernel, m, rng):
    lo, hi = kernel.scalar.domain
    return sample_centers(lo, hi, m, rng)


def random_block_vector(m, n, p, rng, scale=1.0):
    return BlockVector(scale * rng.standard_normal((m, n)), p)


def scale_data(m):
    """Noisy two-task data on m sorted random sites of (0.02, 0.98)."""
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0.02, 0.98, m))
    y = np.stack([np.sin(6 * x), np.cos(4 * x)], axis=1) + 0.1 * rng.standard_normal((m, 2))
    return x, y


def pinned_set(set_id, m):
    """A solvers-m400 benchmark data set: one site in the middle half of
    each of m cells of (0, 1), noisy smooth two-task data."""
    rng = np.random.default_rng([0, set_id])
    x = (np.arange(m) + 0.25 + 0.5 * rng.random(m)) / m
    y = np.stack([np.sin(2 * math.pi * x), np.cos(3 * math.pi * x)], axis=1)
    return x, y + 0.05 * rng.standard_normal((m, 2))


def shuffled_sites(lo, hi, m, rng):
    """m sites in random order, one in the middle 80% of each of m equal
    cells of (lo, hi): the Gram stays well conditioned, so the dense
    oracle below is accurate to about 1e-13."""
    return rng.permutation(lo + (hi - lo) * (np.arange(m) + 0.1 + 0.8 * rng.random(m)) / m)


def dense_interpolant_coeffs(kernel, x, y_blocks):
    """Coefficients C with G C A = Y from the explicit scalar Gram and a
    dense LU solve; oracle only."""
    g = gk.kernels.scalar_values(kernel.scalar, x[:, None], x[None, :])
    return np.linalg.solve(g, y_blocks) @ np.linalg.inv(kernel.coupling.A)


def dense_predictions(model, queries):
    """Expansion values from the full query-by-center kernel matrix, and
    the per-entry scale sum_j |G(q, x_j)| |(C A)_j| of their rounding."""
    e = gk.kernels.scalar_values(model.kernel.scalar, queries[:, None], model.centers[None, :])
    ca = model.coeffs.blocks @ model.kernel.coupling.A
    return e @ ca, np.abs(e) @ np.abs(ca)
