"""Block-vector norms, the coupling operator norm, Kronecker-factored
Gram systems, the Markov-kernel precision, and the 2x2 block inversion
identity.

The operator Gram of a product kernel is never materialized densely:
``K[x] = G (x) A`` (Kronecker) is the canonical representation, and all
solves split into an m-by-m scalar solve followed by a per-block
application of ``A^{-1}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ShapeError, SingularError
from .kernels import (
    MarkovGaps,
    OperatorKernel,
    ScalarKernelSpec,
    TaskCoupling,
    scalar_values,
    validate_centers,
)

# relative singular-value threshold below which a matrix counts as singular
PIVOT_RTOL = 1e-12


def nonsingular(s_min, scale):
    """The one singularity rule, elementwise: true where 0 < scale < inf
    and the smallest singular value s_min (the 2-norm distance to the
    nearest singular matrix) is at least PIVOT_RTOL * scale.  scale is
    the size of the terms the matrix was formed from, so cancellation in
    forming it counts."""
    return (0.0 < scale) & (scale < math.inf) & (s_min >= PIVOT_RTOL * scale)


def _require_nonsingular(A: np.ndarray, scale: float, what: str) -> None:
    """SingularError unless A, not necessarily symmetric, passes the
    singularity rule by its SVD; none is taken when scale is not finite."""
    if not (0.0 < scale < math.inf
            and nonsingular(np.linalg.svd(A, compute_uv=False).min(), scale)):
        raise SingularError(f"{what} is numerically singular")


@dataclass(frozen=True)
class BlockVector:
    """m coefficient blocks of dimension n with a group exponent p.

    Stored as an (m, n) array, row i holding block c_i.
    """

    blocks: np.ndarray
    p: float

    def __post_init__(self):
        arr = np.array(self.blocks, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ShapeError(f"blocks must be a 2-d array, got ndim {arr.ndim}")
        arr.setflags(write=False)
        object.__setattr__(self, "blocks", arr)
        p = float(self.p)
        if not p >= 1.0:
            raise ValueError(f"group exponent p must satisfy p >= 1, got {p}")
        object.__setattr__(self, "p", p)

    @property
    def m(self) -> int:
        return self.blocks.shape[0]

    @property
    def n(self) -> int:
        return self.blocks.shape[1]


def block_norms(blocks: np.ndarray, p: float) -> np.ndarray:
    """Per-block l^p norms of an (m, n) array (p = inf is max-abs).

    The reduction runs along the first axis of a task-major (n, m) copy,
    one vectorized pass over all blocks per task: for n < 8 that is the
    row-wise sum bit for bit, beyond it numpy's pairwise summation may
    reorder the row sum by a few ulp.  Blocks are rescaled by their
    max-abs entry before powering so that tiny or huge entries neither
    underflow nor overflow.
    """
    if blocks.size == 0:
        return np.zeros(blocks.shape[0])
    a = np.ascontiguousarray(np.abs(blocks).T)
    if p == 1.0:
        return a.sum(axis=0)
    amax = a.max(axis=0)
    if math.isinf(p):
        return amax
    scaled = np.divide(a, amax, out=np.zeros_like(a), where=amax > 0)
    return amax * (scaled ** p).sum(axis=0) ** (1.0 / p)


def lp1_norm(c: BlockVector) -> float:
    """Sum over blocks of the l^p block norm; 0.0 for an empty vector."""
    return float(block_norms(c.blocks, c.p).sum())


def coupling_opnorm(A: np.ndarray, p: float) -> float:
    """Induced p -> q operator norm for conjugate q.

    Exact for p in {1, 2, inf} (p = inf enumerates sign vectors, so it is
    limited to small task counts).  Other exponents get the interpolation
    upper bound between the neighboring exact endpoints, which is all the
    boundedness certificate needs.
    """
    A = np.asarray(A, dtype=float)
    if p == 1:
        return float(np.abs(A).max())
    if p == 2:
        return float(np.linalg.norm(A, 2))
    if math.isinf(p):
        n = A.shape[1]
        if n > 20:
            raise ValueError("p=inf coupling norm limited to n <= 20 tasks")
        best = 0.0
        for signs in product((-1.0, 1.0), repeat=n):
            best = max(best, float(np.abs(A @ np.array(signs)).sum()))
        return best
    n22 = float(np.linalg.norm(A, 2))
    if p < 2.0:
        theta = 2.0 * (1.0 - 1.0 / p)  # 0 at p=1, 1 at p=2
        return float(np.abs(A).max()) ** (1.0 - theta) * n22 ** theta
    theta = 1.0 - 2.0 / p  # 0 at p=2, 1 at p=inf
    # the sum of all |a_ij| bounds the inf->1 endpoint over complex vectors,
    # keeping the interpolated product a genuine upper bound
    return n22 ** (1.0 - theta) * float(np.abs(A).sum()) ** theta


@dataclass(frozen=True)
class GramSystem:
    """Scalar Gram G[i, j] = G(x_i, x_j) of the operator Gram K[x] = G (x) A.

    G passed gram_stack's singularity rule, which also gives its 2-norm
    condition number cond and kind: "cholesky" when G is SPD, else "lu".
    Every solve is an LU solve (LAPACK gesv)."""

    G: np.ndarray
    coupling: TaskCoupling
    kind: str
    cond: float

    @property
    def m(self) -> int:
        return self.G.shape[0]


def solve_factored(system: GramSystem, rhs: np.ndarray) -> np.ndarray:
    """Solve G @ Z = rhs."""
    return np.linalg.solve(system.G, rhs)


def gram_stack(kernel: OperatorKernel, X: np.ndarray):
    """The one Gram test: (G, ok, spd, cond) for center sets stacked along
    the leading axes of X: the Gram of each, whether it passes the
    singularity rule, whether it is SPD, and its 2-norm condition number,
    taken only where the rule passes (so s_min > 0) and inf elsewhere.
    A symmetric matrix's singular values are its absolute eigenvalues, so
    one eigvalsh (which reads the lower triangle, as Cholesky does) gives
    s_min = min|lam|, cond = max|lam| / s_min and SPD-ness, lam[..., 0] > 0."""
    G = scalar_values(kernel.scalar, X[..., :, None], X[..., None, :])
    scale = np.abs(G).max(axis=(-2, -1))
    # a non-finite Gram fails the rule anyway; LAPACK would refuse it
    lam = np.linalg.eigvalsh(np.where(np.isfinite(scale)[..., None, None], G, 0.0))
    mag = np.abs(lam)
    s_min = mag.min(axis=-1)
    ok = nonsingular(s_min, scale)
    cond = np.divide(mag.max(axis=-1), s_min, out=np.full_like(s_min, math.inf), where=ok)
    return G, ok, lam[..., 0] > 0, cond


def gram_assemble(kernel: OperatorKernel, centers) -> GramSystem:
    """Assemble the scalar Gram for pairwise-distinct centers, held to the
    singularity rule by gram_stack, with its kind and condition number."""
    G, ok, spd, cond = gram_stack(kernel, validate_centers(kernel.scalar, centers))
    if not ok:
        raise SingularError("Gram matrix is numerically singular")
    G.setflags(write=False)
    return GramSystem(G=G, coupling=kernel.coupling, kind="cholesky" if spd else "lu",
                      cond=float(cond))


def _check_blocks(system: GramSystem, y: BlockVector) -> None:
    if y.m != system.m:
        raise ShapeError(f"expected {system.m} blocks, got {y.m}")
    if y.n != system.coupling.n:
        raise ShapeError(f"expected block dimension {system.coupling.n}, got {y.n}")


def gram_solve(system: GramSystem, y: BlockVector) -> BlockVector:
    """Solve (G (x) A) C = Y via the Kronecker split.

    The scalar solve handles all task columns at once and A^{-1} is then
    applied per block; no (mn)-by-(mn) matrix is ever formed.
    """
    _check_blocks(system, y)
    z = solve_factored(system, y.blocks)
    return BlockVector(z @ system.coupling.A_inv, y.p)


def gram_apply(system: GramSystem, c: BlockVector) -> BlockVector:
    """Apply the operator Gram: block i of the result is sum_j G_ij A c_j."""
    _check_blocks(system, c)
    return BlockVector((system.G @ c.blocks) @ system.coupling.A, c.p)


# ---------------------------------------------------------------------------
# Markov kernels: tridiagonal precision and two-sweep evaluation
# ---------------------------------------------------------------------------

def _precision(gaps: MarkovGaps):
    """Diagonal and off-diagonal of the tridiagonal G^{-1} at the sorted
    sites.

    With G = D_q M D_q and M_ij = r_min{i,j} (a Brownian motion at times
    r_i), M^{-1} is tridiagonal with weights w_0 = 1/r_1 and
    w_i = 1/(r_{i+1} - r_i).  Scaled by D_q^{-1} on both sides,
      (G^{-1})_{i,i+1} = -1/det_i,
      (G^{-1})_{ii} = (1/(1 - rho_{i-1}) + rho_i/(1 - rho_i)) / G_ii,
    with rho_i = r_i/r_{i+1} = left_i right_i, rho_0 = 0 (r_0 = 0) and no
    second term at the last site.  Both diagonal terms are positive.
    """
    rho = gaps.left * gaps.right
    inner = np.concatenate([[1.0], 1.0 / gaps.slack])
    outer = np.concatenate([rho / gaps.slack, [0.0]])
    return (inner + outer) / gaps.diag, 1.0 / gaps.det


def markov_solve(gaps: MarkovGaps, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """(G^{-1} rhs, ||G^{-1}||_1) by the closed-form tridiagonal precision,
    in O(m n): its 1-norm is the largest column sum of |G^{-1}|.  The rows
    of rhs and of the result are in the caller's site order."""
    diag, off = _precision(gaps)
    cols = np.abs(diag)
    cols[:-1] += off
    cols[1:] += off
    rhs = rhs[gaps.order]
    z = diag[:, None] * rhs
    z[:-1] -= off[:, None] * rhs[1:]
    z[1:] -= off[:, None] * rhs[:-1]
    out = np.empty_like(z)
    out[gaps.order] = z
    return out, float(cols.max())


def _sweep(ratio: np.ndarray, d: np.ndarray) -> np.ndarray:
    """out_0 = d_0, out_k = ratio_{k-1} out_{k-1} + d_k, every column at
    once: forward substitution with a unit lower bidiagonal matrix, as a
    log-depth scan of the affine maps v -> a_k v + d_k (Hillis & Steele,
    CACM 29(12), 1986).  After the pass of stride s, out_k sums the terms
    of the 2s sites up to k and a_k is the product of their ratios; the
    products telescope to p_j/p_k or q_j/q_k, so none overflows."""
    out, a = d.copy(), np.r_[0.0, ratio]
    for s in (1 << k for k in range((a.size - 1).bit_length())):
        out[s:] += a[s:, None] * out[:-s]
        a[s:] *= a[:-s]
    return out


def markov_eval(spec: ScalarKernelSpec, gaps: MarkovGaps, d: np.ndarray,
                queries: np.ndarray) -> np.ndarray:
    """sum_j G(q, x_j) d_j at each query q, for rows d_j in the caller's
    site order, in O((m + k) n + k log m).

    L_k = sum_{j<=k} (p_j/p_k) d_j and R_k = sum_{j>=k} (q_j/q_k) d_j
    come from one sweep each, using ratios only.  For x_k <= q < x_{k+1},
    the sum is G(q, x_k) L_k + G(q, x_{k+1}) R_{k+1}; a query outside the
    hull keeps only the term of its one neighbour.
    """
    d = d[gaps.order]
    low = _sweep(gaps.left, d)
    high = _sweep(gaps.right[::-1], d[::-1])[::-1]
    k = np.searchsorted(gaps.sites, queries, side="right") - 1
    out = np.zeros((queries.size, d.shape[1]))
    for nb, rows in ((k, low), (k + 1, high)):
        ok = (nb >= 0) & (nb < gaps.sites.size)
        g = scalar_values(spec, queries[ok], gaps.sites[nb[ok]])
        out[ok] += g[:, None] * rows[nb[ok]]
    return out


def block_inverse_2x2(A, B, C, D):
    """Invert [[A, B], [C, D]] blockwise via the Schur complement of A.

    Returns the four blocks (TL, TR, BL, BR) with
    TL = A^-1 + A^-1 B M C A^-1, TR = -A^-1 B M, BL = -M C A^-1, BR = M,
    where M = (D - C A^-1 B)^-1.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    k, l = A.shape[0], D.shape[0]
    if A.shape != (k, k) or D.shape != (l, l) or B.shape != (k, l) or C.shape != (l, k):
        raise ShapeError(
            f"incompatible block shapes {A.shape}, {B.shape}, {C.shape}, {D.shape}"
        )
    _require_nonsingular(A, float(np.abs(A).max()), "block")
    A_inv = np.linalg.solve(A, np.eye(k))
    A_inv_B = A_inv @ B
    C_A_inv = C @ A_inv
    CAB = C @ A_inv_B
    schur = D - CAB
    _require_nonsingular(schur, max(float(np.abs(D).max()), float(np.abs(CAB).max())), "block")
    M = np.linalg.solve(schur, np.eye(l))
    tl = A_inv + A_inv_B @ M @ C_A_inv
    tr = -A_inv_B @ M
    bl = -M @ C_A_inv
    return tl, tr, bl, M
