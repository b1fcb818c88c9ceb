import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import groupkernels as gk
from groupkernels.blocklinalg import (
    PIVOT_RTOL,
    BlockVector,
    block_inverse_2x2,
    block_norms,
    coupling_opnorm,
    gram_apply,
    gram_assemble,
    gram_solve,
    lp1_norm,
)
from groupkernels.errors import DuplicateCenterError, ShapeError, SingularError

from helpers import (
    column_norm_sampled,
    dense_solve_blocks,
    matrix_opnorm,
    random_coupling,
    random_spd,
)

finite_blocks = arrays(
    float, st.tuples(st.integers(0, 5), st.integers(1, 4)),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


def test_lp1_examples():
    c = BlockVector([[3.0, 4.0], [0.0, 0.0]], p=2)
    assert lp1_norm(c) == 5.0
    assert lp1_norm(BlockVector([[3.0, 4.0], [0.0, 0.0]], p=1)) == 7.0
    assert lp1_norm(BlockVector(np.zeros((0, 0)), p=2)) == 0.0
    assert lp1_norm(BlockVector([[3.0, -4.0]], p=math.inf)) == 4.0


@given(finite_blocks, st.sampled_from([1.0, 2.0, 3.0, math.inf]))
def test_lp1_is_a_norm(blocks, p):
    c = BlockVector(blocks, p)
    v = lp1_norm(c)
    assert v >= 0.0
    assert (v == 0.0) == bool(np.all(blocks == 0.0))
    assert lp1_norm(BlockVector(2.0 * blocks, p)) == pytest.approx(2.0 * v, rel=1e-12)
    d = BlockVector(np.ones_like(blocks), p)
    lhs = lp1_norm(BlockVector(blocks + d.blocks, p))
    assert lhs <= v + lp1_norm(d) + 1e-9 * (1.0 + v)


def rowwise_block_norms(blocks, p):
    """Reference: the row-by-row rescaled formula that block_norms replaced."""
    if blocks.size == 0:
        return np.zeros(blocks.shape[0])
    if math.isinf(p):
        return np.abs(blocks).max(axis=1)
    if p == 1.0:
        return np.abs(blocks).sum(axis=1)
    amax = np.abs(blocks).max(axis=1)
    out = np.zeros_like(amax)
    nz = amax > 0
    out[nz] = amax[nz] * np.linalg.norm(blocks[nz] / amax[nz, None], ord=p, axis=1)
    return out


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_block_norms_match_rowwise_reference(p):
    """Bit for bit for n < 8.  From n = 8 on numpy sums a contiguous row
    pairwise with eight accumulators, while the task-major reduction adds
    the n rows in sequence, so the two may differ by a few ulp."""
    rng = np.random.default_rng(17)
    # rows near 1e+-300 (and subnormal) overflow or underflow unless rescaled
    scales = np.array([1.0, 1e300, 1e-300, 1e-310, 3.0])
    for n in range(1, 17):
        blocks = rng.standard_normal((60, n)) * scales[np.arange(60) % scales.size, None]
        blocks[::7] = 0.0
        ours, ref = block_norms(blocks, p), rowwise_block_norms(blocks, p)
        assert np.all(np.isfinite(ours)) and np.all(ours[::7] == 0.0)
        if n < 8:
            np.testing.assert_array_equal(ours, ref)
        else:
            np.testing.assert_allclose(ours, ref, rtol=4 * np.finfo(float).eps, atol=0.0)
    for shape in ((0, 3), (4, 0)):
        np.testing.assert_array_equal(block_norms(np.zeros(shape), p), np.zeros(shape[0]))


def test_coupling_opnorm_endpoints():
    A = np.array([[1.0, -2.0], [3.0, 0.5]])
    assert coupling_opnorm(A, 1) == 3.0        # max |a_ij|
    # p=inf -> q=1 by sign enumeration
    best = max(np.abs(A @ np.array(s)).sum()
               for s in [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    assert coupling_opnorm(A, math.inf) == pytest.approx(best)


@pytest.mark.parametrize("p", [1.3, 1.5, 2.5, 4.0])
def test_coupling_opnorm_interpolated_upper_bound(p):
    rng = np.random.default_rng(int(p * 10))
    q = p / (p - 1.0)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((n, n))
        bound = coupling_opnorm(A, p)
        c = rng.standard_normal((500, n))
        cn = block_norms(c, p)
        ratios = block_norms(c @ A.T, q)[cn > 0] / cn[cn > 0]
        assert ratios.max() <= bound * (1.0 + 1e-12)


def test_gram_assemble_examples():
    K = gk.OperatorKernel(gk.tfamily(1.0), gk.TaskCoupling.identity(1), p=2)
    S = gram_assemble(K, [0.2, 0.5])
    np.testing.assert_allclose(S.G, [[0.16, 0.10], [0.10, 0.25]], atol=1e-15)
    S1 = gram_assemble(K, [0.3])
    np.testing.assert_allclose(S1.G, [[gk.kernels.scalar_values(K.scalar, 0.3, 0.3)]])
    Kw = gk.OperatorKernel(gk.wendland(), gk.TaskCoupling.identity(1), p=2)
    Sw = gram_assemble(Kw, [0.1, 0.9])
    assert Sw.G[0, 1] == pytest.approx(0.2, rel=1e-15)


def test_gram_assemble_errors():
    K = gk.OperatorKernel(gk.tfamily(1.0), gk.TaskCoupling.identity(1), p=2)
    with pytest.raises(DuplicateCenterError):
        gram_assemble(K, [0.2, 0.2])
    with pytest.raises(ShapeError):
        gram_assemble(K, [])
    rank1 = gk.custom(lambda x, y: np.ones_like(x * y), domain=(0.0, 1.0))
    Kc = gk.OperatorKernel(rank1, gk.TaskCoupling.identity(1), p=2)
    with pytest.raises(SingularError):
        gram_assemble(Kc, [0.2, 0.5])


def test_gram_assemble_indefinite_branch():
    # [[0, 1], [1, 0]] is indefinite and nonsingular: Cholesky fails, the
    # singular-value rule passes, and the LU solve is exact
    swap = gk.custom(lambda x, y: np.where(x == y, 0.0, 1.0), domain=(0.0, 1.0))
    S = gram_assemble(gk.OperatorKernel(swap, gk.TaskCoupling.identity(1), p=2), [0.25, 0.75])
    assert S.kind == "lu"
    np.testing.assert_array_equal(S.G, [[0.0, 1.0], [1.0, 0.0]])
    c = gram_solve(S, BlockVector([[2.0], [-3.0]], p=2))
    np.testing.assert_array_equal(c.blocks, [[-3.0], [2.0]])
    # [[1, 1], [1, 1 - 1e-13]] is indefinite with smallest singular value
    # about 5e-14, below PIVOT_RTOL * max|G|
    near = gk.custom(lambda x, y: np.where((x == y) & (x == 0.75), 1.0 - 1e-13, 1.0),
                     domain=(0.0, 1.0))
    K = gk.OperatorKernel(near, gk.TaskCoupling.identity(1), p=2)
    assert np.linalg.svd(K.scalar.func(np.array([[0.25], [0.75]]), np.array([[0.25, 0.75]])),
                         compute_uv=False).min() < PIVOT_RTOL
    with pytest.raises(SingularError, match="numerically singular"):
        gram_assemble(K, [0.25, 0.75])
    # a non-finite Gram from a custom callable fails the same rule
    for bad in (np.nan, np.inf):
        odd = gk.custom(lambda x, y, bad=bad: np.where(x == y, bad, 0.5), domain=(0.0, 1.0))
        with pytest.raises(SingularError):
            gram_assemble(gk.OperatorKernel(odd, gk.TaskCoupling.identity(1), p=2), [0.2, 0.6])


def test_gram_solve_examples():
    ident = gk.custom(lambda x, y: np.where(x == y, 1.0, 0.0), domain=(0.0, 1.0))
    K = gk.OperatorKernel(ident, gk.TaskCoupling.identity(2), p=2)
    S = gram_assemble(K, [0.5])
    y = BlockVector([[1.5, -2.0]], p=2)
    np.testing.assert_array_equal(gram_solve(S, y).blocks, y.blocks)

    two = gk.custom(lambda x, y: np.where(x == y, 2.0, 0.0), domain=(0.0, 1.0))
    K2 = gk.OperatorKernel(two, gk.TaskCoupling.identity(1), p=2)
    S2 = gram_assemble(K2, [0.25, 0.75])
    c = gram_solve(S2, BlockVector([[4.0], [6.0]], p=2))
    np.testing.assert_allclose(c.blocks, [[2.0], [3.0]], rtol=1e-14)


def test_gram_solve_round_trip_and_dense_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 7))
        K = gk.OperatorKernel(gk.tfamily(float(rng.uniform(-1, 1))),
                              random_coupling(n, rng), p=2)
        centers = np.sort(rng.uniform(0.05, 0.95, size=m))
        if m > 1 and np.diff(centers).min() < 0.02:
            continue
        S = gram_assemble(K, centers)
        c0 = BlockVector(rng.standard_normal((m, n)), p=2)
        y = gram_apply(S, c0)
        c = gram_solve(S, y)
        scale = np.abs(c0.blocks).max() + 1e-30
        assert np.abs(c.blocks - c0.blocks).max() <= 1e-10 * scale
        # round trip against the right-hand side
        back = gram_apply(S, c)
        assert np.abs(back.blocks - y.blocks).max() <= 1e-9 * (np.abs(y.blocks).max() + 1e-30)
        # dense Kronecker oracle agrees
        dense = dense_solve_blocks(S, y.blocks)
        assert np.abs(dense - c.blocks).max() <= 1e-9 * (np.abs(dense).max() + 1e-30)


def test_gram_solve_shape_errors():
    K = gk.OperatorKernel(gk.tfamily(1.0), gk.TaskCoupling.identity(2), p=2)
    S = gram_assemble(K, [0.2, 0.5])
    with pytest.raises(ShapeError):
        gram_solve(S, BlockVector(np.zeros((3, 2)), p=2))
    with pytest.raises(ShapeError):
        gram_solve(S, BlockVector(np.zeros((2, 1)), p=2))


def test_gram_solve_bitwise_deterministic():
    rng = np.random.default_rng(1)
    K = gk.OperatorKernel(gk.tfamily(0.5), random_coupling(3, rng), p=2)
    S = gram_assemble(K, [0.1, 0.4, 0.8])
    y = BlockVector(rng.standard_normal((3, 3)), p=2)
    a = gram_solve(S, y).blocks
    b = gram_solve(S, y).blocks
    np.testing.assert_array_equal(a, b)


def test_block_inverse_examples():
    tl, tr, bl, br = block_inverse_2x2(np.eye(2), np.zeros((2, 2)),
                                       np.zeros((2, 2)), np.eye(2))
    np.testing.assert_array_equal(tl, np.eye(2))
    np.testing.assert_array_equal(tr, np.zeros((2, 2)))

    tl, tr, bl, br = block_inverse_2x2([[2.0]], [[1.0]], [[1.0]], [[1.0]])
    np.testing.assert_allclose([[tl[0, 0], tr[0, 0]], [bl[0, 0], br[0, 0]]],
                               [[1.0, -1.0], [-1.0, 2.0]], atol=1e-14)


def test_block_inverse_random():
    rng = np.random.default_rng(9)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        l = int(rng.integers(1, 5))
        A = random_spd(k, rng)
        D = random_spd(l, rng)
        B = 0.3 * rng.standard_normal((k, l))
        C = 0.3 * rng.standard_normal((l, k))
        tl, tr, bl, br = block_inverse_2x2(A, B, C, D)
        full = np.block([[A, B], [C, D]])
        inv = np.block([[tl, tr], [bl, br]])
        assert np.abs(full @ inv - np.eye(k + l)).max() <= 1e-10


def test_block_inverse_errors():
    with pytest.raises(ShapeError):
        block_inverse_2x2(np.eye(2), np.zeros((3, 2)), np.zeros((2, 2)), np.eye(2))
    with pytest.raises(SingularError):
        block_inverse_2x2(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2))
    # singular Schur complement: D = C A^-1 B
    with pytest.raises(SingularError):
        block_inverse_2x2([[1.0]], [[1.0]], [[1.0]], [[1.0 - 1e-16]])


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_operator_lp1_norm_product_vs_sampled(p):
    # after cancelling the coupling, the column blocks are b_i * I: every
    # sampled unit vector attains the exact value sum |b_i|, which is the
    # l^{p,1} norm of b read as m blocks of length one
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 4))
        b = rng.standard_normal(m)
        blocks = np.stack([bi * np.eye(n) for bi in b])
        exact = lp1_norm(BlockVector(b[:, None], p=p))
        assert exact == pytest.approx(float(np.abs(b).sum()), rel=1e-15, abs=0.0)
        sampled = column_norm_sampled(blocks, p, np.random.default_rng(3), trials=1000)
        assert sampled <= exact + 1e-9
        assert sampled >= exact - 1e-9


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_compatible_inequality(p):
    # ||B c||_{p,1} <= max_k ||B_k||_{p,1} * ||c||_{p,1} for operator
    # matrices with entries b_ij * A
    rng = np.random.default_rng(23)
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        b = rng.standard_normal((m, k))
        A = random_spd(n, rng)
        cb = rng.standard_normal((k, n))
        # (Bc)_i = sum_j b_ij A c_j
        bc = (b @ cb) @ A
        lhs = float(block_norms(bc, p).sum())
        col_norms = np.abs(b).sum(axis=0) * matrix_opnorm(A, p)
        rhs = col_norms.max() * float(block_norms(cb, p).sum())
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


def test_block_vector_shapes():
    c = BlockVector([(3.0, 4.0), (0.0, 0.0)], p=2)
    assert c.m == 2 and c.n == 2
    z = BlockVector(np.zeros((3, 2)), p=1)
    assert lp1_norm(z) == 0.0
    with pytest.raises(ValueError):
        BlockVector([[1.0]], p=0.5)
