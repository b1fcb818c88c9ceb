import functools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import groupkernels as gk
from groupkernels.blocklinalg import BlockVector, block_norms, lp1_norm
from groupkernels.errors import (
    DataFormatError,
    DomainError,
    DuplicateCenterError,
    NonconvergenceError,
    RankError,
    ShapeError,
    SingularError,
)
from groupkernels.solvers import (
    INTERP_COND_MAX,
    INTERP_RESIDUAL_RTOL,
    PREDICT_CHUNK,
    LearnConfig,
    block_soft_threshold,
    expansion_sup_norm,
    fit_admm,
    fit_regularized,
    group_basis_pursuit,
    min_norm_interpolant,
    model_from_dict,
    model_to_dict,
    predict,
    predict_many,
    read_points_csv,
    read_training_csv,
)

from helpers import (
    ADMISSIBLE_SPECS,
    dense_interpolant_coeffs,
    dense_predictions,
    pinned_set,
    random_coupling,
    random_sites,
    scale_data,
    shuffled_sites,
)

BRIDGE1 = gk.OperatorKernel(gk.tfamily(1.0), gk.TaskCoupling.identity(1), p=2)
EXP2 = gk.OperatorKernel(gk.exponential((-2.0, 2.0)), gk.TaskCoupling.identity(2), p=2)


# ---------------------------------------------------------------------------
# minimal-norm interpolation and prediction
# ---------------------------------------------------------------------------

def test_min_norm_examples():
    m = min_norm_interpolant(BRIDGE1, [0.5], BlockVector([[1.0]], 2))
    np.testing.assert_array_equal(m.coeffs.blocks, [[4.0]])
    assert m.norm_lp1 == 4.0
    assert m.norm_lp1 == lp1_norm(m.coeffs)

    z = min_norm_interpolant(EXP2, [-1.0, 0.5], BlockVector(np.zeros((2, 2)), 2))
    assert np.all(z.coeffs.blocks == 0.0)
    assert z.norm_lp1 == 0.0


def test_min_norm_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        K = gk.OperatorKernel(gk.tfamily(float(rng.uniform(0, 1))),
                              random_coupling(n, rng), p=float(rng.choice([1.0, 2.0])))
        x = random_sites(K, m, rng)
        c0 = rng.standard_normal((m, n))
        from groupkernels.blocklinalg import gram_apply, gram_assemble
        y = gram_apply(gram_assemble(K, x), BlockVector(c0, K.p))
        model = min_norm_interpolant(K, x, y)
        assert np.abs(model.coeffs.blocks - c0).max() <= 1e-9 * max(1.0, np.abs(c0).max())


def test_interpolation_residual():
    rng = np.random.default_rng(3)
    K = gk.OperatorKernel(gk.tfamily(1.0), random_coupling(2, rng), p=2)
    x = np.array([0.15, 0.4, 0.75])
    y = BlockVector(rng.standard_normal((3, 2)), 2)
    model = min_norm_interpolant(K, x, y)
    preds = predict_many(model, x)
    assert np.abs(preds - y.blocks).max() <= 1e-8 * max(1.0, np.abs(y.blocks).max())
    assert model.meta["residual"] <= 1e-10


def test_predict_examples():
    zero = min_norm_interpolant(BRIDGE1, [0.5], BlockVector([[0.0]], 2))
    np.testing.assert_array_equal(predict(zero, 0.77), [0.0])

    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    K = gk.OperatorKernel(gk.tfamily(1.0), gk.TaskCoupling.from_matrix(A), p=2)
    c = np.array([0.3, -0.7])
    model = min_norm_interpolant(
        K, [0.5], BlockVector((0.25 * A @ c)[None, :], 2))
    expected = gk.eval_scalar(K.scalar, 0.5, 0.25) * (A @ c)
    np.testing.assert_allclose(predict(model, 0.25), expected, rtol=1e-9)
    with pytest.raises(DomainError):
        predict(model, 1.0)


MARKOV_SPECS = [
    ("exponential (-2,2)", gk.exponential((-2.0, 2.0))),
    ("exponential unbounded", gk.exponential()),
    *[(f"tfamily t={t}", gk.tfamily(t)) for t in (-1.0, -0.5, 0.0, 0.5, 1.0)],
    ("brownianbridge", gk.brownian_bridge()),
]


@pytest.mark.parametrize("spec", [s for _, s in MARKOV_SPECS], ids=[i for i, _ in MARKOV_SPECS])
def test_markov_path_matches_dense_oracle(spec):
    """Unsorted sites, m = 1..60, n in {1, 3}: coefficients within 1e-10
    relative and predictions within 1e-12 of sum_j |G(q, x_j)| |(C A)_j|.
    Unbounded exponential sites reach |x| ~ 700, where e^x overflows."""
    rng = np.random.default_rng(17)
    lo, hi = spec.domain
    span = (-700.0, 700.0) if math.isinf(lo) else (lo, hi)
    for m in range(1, 61):
        for n in (1, 3):
            K = gk.OperatorKernel(spec, random_coupling(n, rng), p=2)
            x = shuffled_sites(*span, m, rng)
            y = rng.standard_normal((m, n))
            model = min_norm_interpolant(K, x, BlockVector(y, 2))
            assert model.meta["solver"] == "markov-precision"
            np.testing.assert_array_equal(model.centers, x)
            ref = dense_interpolant_coeffs(K, x, y)
            assert np.abs(model.coeffs.blocks - ref).max() <= 1e-10 * np.abs(ref).max()
            inside = rng.uniform(max(lo, x.min() - 5.0), min(hi, x.max() + 5.0), 100)
            queries = np.concatenate([inside, x])
            want, scale = dense_predictions(model, queries)
            gap = np.abs(predict_many(model, queries) - want)
            assert np.all(gap <= 1e-12 * np.maximum(scale, np.finfo(float).tiny))


def test_markov_path_allocates_no_dense_block(monkeypatch):
    """m = k = 200,000: no kernel block beyond O(m + k) entries, and a
    traced peak of a few dozen arrays of length m."""
    m = k = 200_000
    original = gk.kernels.scalar_values

    def guarded(spec, x, y):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        assert math.prod(shape) <= m + k, f"dense kernel block {shape}"
        return original(spec, x, y)

    for module in (gk.blocklinalg, gk.solvers):
        monkeypatch.setattr(module, "scalar_values", guarded)
    rng = np.random.default_rng(4)
    K = gk.OperatorKernel(gk.exponential(), random_coupling(2, rng), p=2)
    x = shuffled_sites(-100.0, 100.0, m, rng)
    y = np.stack([np.sin(x), np.cos(0.5 * x)], axis=1)
    queries = rng.uniform(-110.0, 110.0, k)
    tracemalloc.start()
    try:
        model = min_norm_interpolant(K, x, BlockVector(y, 2))
        preds = predict_many(model, queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.meta["solver"] == "markov-precision"
    assert preds.shape == (k, 2)
    assert peak <= 40 * 8 * (m + k) * 2


def test_dense_predict_chunks_match_one_shot():
    rng = np.random.default_rng(12)
    K = gk.OperatorKernel(gk.wendland(), random_coupling(3, rng), p=2)
    x = shuffled_sites(0.0, 1.0, 40, rng)
    model = min_norm_interpolant(K, x, BlockVector(rng.standard_normal((40, 3)), 2))
    assert model.meta["solver"] == "exact-gram"
    queries = rng.uniform(0.0, 1.0, 3 * PREDICT_CHUNK + 17)
    want, scale = dense_predictions(model, queries)
    assert np.all(np.abs(predict_many(model, queries) - want) <= 1e-14 * scale)


@pytest.mark.parametrize("spec", [gk.exponential(), gk.wendland()], ids=["markov", "dense"])
def test_interpolation_guard(spec):
    """Sites 1e-14 apart raise SingularError on both paths, also when the
    two values agree: on the Markov path through the residual and
    condition guards, on the dense path through gram_assemble's
    singularity rule, which fires before them.  A well-separated fit
    records its condition number."""
    K = gk.OperatorKernel(spec, gk.TaskCoupling.identity(1), p=2)
    y = BlockVector([[1.0], [2.0], [0.5]], 2)
    for values in (y, BlockVector([[1.0], [1.0], [0.5]], 2)):
        with pytest.raises(SingularError):
            min_norm_interpolant(K, [0.3, 0.3 + 1e-14, 0.9], values)
    model = min_norm_interpolant(K, [0.3, 0.6, 0.9], y)
    g = gk.kernels.scalar_values(spec, model.centers[:, None], model.centers[None, :])
    if model.meta["solver"] == "exact-gram":  # the 2-norm one, from gram_stack
        assert model.meta["cond"] == pytest.approx(np.linalg.cond(g), rel=1e-9)
    else:  # markov_cond's exact 1-norm one
        assert model.meta["cond"] == pytest.approx(np.linalg.cond(g, 1), rel=1e-6)
    assert model.meta["cond"] < INTERP_COND_MAX
    assert model.meta["residual"] <= INTERP_RESIDUAL_RTOL


# ---------------------------------------------------------------------------
# block soft threshold
# ---------------------------------------------------------------------------

def test_prox_examples():
    z = BlockVector([[3.0, 4.0]], 2)
    np.testing.assert_array_equal(block_soft_threshold(z, 5.0, 2).blocks, [[0.0, 0.0]])
    np.testing.assert_allclose(block_soft_threshold(z, 2.5, 2).blocks, [[1.5, 2.0]],
                               rtol=1e-15)
    np.testing.assert_array_equal(block_soft_threshold(z, 0.0, 2).blocks, z.blocks)
    # zero blocks stay exactly zero, and tau = 0 is the identity, for both p
    mixed = [[0.0, 0.0], [3.0, -4.0], [0.0, 0.0], [0.5, 0.1]]
    for p, shrunk in ((2, [[0.0, 0.0], [1.5, -2.0], [0.0, 0.0], [0.0, 0.0]]),
                      (1, [[0.0, 0.0], [0.5, -1.5], [0.0, 0.0], [0.0, 0.0]])):
        zm = BlockVector(mixed, p)
        np.testing.assert_array_equal(block_soft_threshold(zm, 0.0, p).blocks, zm.blocks)
        np.testing.assert_allclose(block_soft_threshold(zm, 2.5, p).blocks, shrunk, rtol=1e-15)
    z1 = BlockVector([[3.0, -4.0], [0.5, 0.1]], 1)
    np.testing.assert_allclose(block_soft_threshold(z1, 1.0, 1).blocks,
                               [[2.0, -3.0], [0.0, 0.0]], rtol=1e-15)
    with pytest.raises(ValueError):
        block_soft_threshold(z, -1.0, 2)
    with pytest.raises(ValueError):
        block_soft_threshold(z, 1.0, 3)


def prox_objective(c, z, tau, p):
    pen = np.abs(c).sum() if p == 1 else math.sqrt(float((np.asarray(c) ** 2).sum()))
    return 0.5 * float(((np.asarray(c) - z) ** 2).sum()) + tau * pen


def prox_bruteforce(z, tau, p):
    """Independent prox oracle: coarse grid between 0 and z per coordinate,
    polished by a derivative-free local minimizer from several starts.

    Multiple starts matter: for p=2 the origin is a local minimum along
    every coordinate axis while the radial direction still descends, so a
    single coordinate-wise polish can get stuck there.
    """
    z = np.asarray(z, dtype=float)
    grids = [np.linspace(min(0.0, v), max(0.0, v), 17) for v in z]
    mesh = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, z.size)
    pen = np.abs(mesh).sum(axis=1) if p == 1 else np.sqrt((mesh ** 2).sum(axis=1))
    vals = 0.5 * ((mesh - z) ** 2).sum(axis=1) + tau * pen
    starts = [mesh[int(np.argmin(vals))], z.copy(), 0.5 * z]
    best, best_val = None, math.inf
    for start in starts:
        res = scipy.optimize.minimize(
            prox_objective, start, args=(z, tau, p), method="Powell",
            options={"xtol": 1e-12, "ftol": 1e-14, "maxiter": 20_000, "maxfev": 200_000},
        )
        if res.fun < best_val:
            best, best_val = np.atleast_1d(res.x), float(res.fun)
    return best


@pytest.mark.parametrize("p", [1, 2])
def test_prox_matches_bruteforce(p):
    rng = np.random.default_rng(31 + p)
    for _ in range(40):
        d = int(rng.integers(1, 4))
        z = rng.standard_normal(d) * rng.uniform(0.5, 3.0)
        tau = float(rng.uniform(0.0, 2.5))
        ours = block_soft_threshold(BlockVector(z[None, :], float(p)), tau, p).blocks[0]
        ref = prox_bruteforce(z, tau, p)
        assert np.abs(ours - ref).max() <= 1e-6


small_blocks = arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 3)),
                      elements=st.floats(-100, 100, allow_nan=False))


@given(small_blocks, st.floats(0, 50, allow_nan=False), st.sampled_from([1, 2]))
def test_prox_properties(blocks, tau, p):
    z = BlockVector(blocks, float(p))
    out = block_soft_threshold(z, tau, p)
    # shrinkage never grows a block, and blocks below the radius vanish
    assert np.all(block_norms(out.blocks, float(p)) <= block_norms(blocks, float(p)) + 1e-12)
    if p == 2:
        dead = block_norms(blocks, 2.0) <= tau
        assert np.all(block_norms(out.blocks, 2.0)[dead] == 0.0)


# ---------------------------------------------------------------------------
# group basis pursuit
# ---------------------------------------------------------------------------

def test_pursuit_no_extra_centers_matches_exact():
    rng = np.random.default_rng(5)
    for p in (1.0, 2.0):
        K = gk.OperatorKernel(gk.tfamily(1.0), random_coupling(2, rng), p=p)
        x = np.array([0.3, 0.6])
        y = BlockVector(rng.standard_normal((2, 2)), p)
        exact = min_norm_interpolant(K, x, y)
        bp = group_basis_pursuit(K, x, x, y)
        assert abs(bp.norm_lp1 - exact.norm_lp1) <= 1e-6
        assert bp.meta["primal_residual"] <= 1e-9
        assert bp.meta["dual_residual"] <= 1e-9


def test_pursuit_dominance_sample():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        p = float(rng.choice([1.0, 2.0]))
        K = gk.OperatorKernel(gk.tfamily(1.0), random_coupling(n, rng), p=p)
        m = int(rng.integers(1, 5))
        extra = int(rng.integers(1, 4))
        sites = random_sites(K, m + extra, rng)
        idx = rng.choice(m + extra, size=m, replace=False)
        cons = sites[np.sort(idx)]
        y = BlockVector(rng.standard_normal((m, n)), p)
        exact = min_norm_interpolant(K, cons, y)
        bp = group_basis_pursuit(K, sites, cons, y)
        assert bp.norm_lp1 >= exact.norm_lp1 - 1e-6


def test_pursuit_starts_at_the_representer_point():
    # C4's wendland instances with sites drawn by rank shift (sorted
    # uniforms on (0, 1 - (M - 1) sep), shifted by rank times sep): from
    # zero, ADMM stalled on instances 5 and 146 with residuals near 1e-7
    # after 200,000 iterations.  From the site interpolant and its dual,
    # the fixed point for an admissible kernel, both stop at iteration 1
    rng = np.random.default_rng(100)
    for i in range(147):
        n = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 2.0]))
        coupling = (gk.TaskCoupling.identity(n)
                    if (rng.random() < 0.5 or n == 1) else random_coupling(n, rng))
        K = gk.OperatorKernel(gk.wendland(), coupling, p=p)
        m = int(rng.integers(1, 6))
        extra = int(rng.integers(0, 4))
        sep = 1.0 / (10.0 * (m + extra))
        sites = (np.sort(rng.uniform(0.0, 1.0 - (m + extra - 1) * sep, m + extra))
                 + sep * np.arange(m + extra))
        cons = sites[np.sort(rng.choice(m + extra, size=m, replace=False))]
        y = BlockVector(rng.standard_normal((m, n)), p)
        if i not in (5, 146):
            continue
        bp = group_basis_pursuit(K, sites, cons, y, max_iters=2_000)
        assert bp.meta["iterations"] == 1
        assert max(bp.meta["primal_residual"], bp.meta["dual_residual"]) <= 1e-9
        assert bp.norm_lp1 <= min_norm_interpolant(K, cons, y).norm_lp1 * (1 + 1e-12)


def test_pursuit_of_zero_data_stops_at_zero():
    # Y = 0 has no size to set rho by; the zero start is a fixed point at any rho
    K = gk.OperatorKernel(gk.tfamily(-1.0), gk.TaskCoupling.identity(2), p=2)
    bp = group_basis_pursuit(K, [0.2, 0.5, 0.8], [0.2, 0.8], BlockVector(np.zeros((2, 2)), 2))
    assert bp.meta["iterations"] == 1
    assert bp.norm_lp1 == 0.0


def test_pursuit_gaussian_augmentation_helps():
    # when the stability bound fails, an extra center strictly lowers the
    # achievable norm: pinned clustered instance
    gauss = gk.custom(lambda x, y: np.exp(-((x - y) ** 2)), domain=(0.0, 1.0))
    K = gk.OperatorKernel(gauss, gk.TaskCoupling.identity(1), p=1)
    cons = np.array([0.45, 0.55])
    y = BlockVector([[1.0], [1.0]], 1)
    exact = min_norm_interpolant(K, cons, y)
    bp = group_basis_pursuit(K, np.array([0.45, 0.55, 0.5]), cons, y)
    assert exact.norm_lp1 - bp.norm_lp1 > 1e-4


def test_pursuit_errors():
    rng = np.random.default_rng(2)
    y = BlockVector([[1.0], [2.0]], 2)
    with pytest.raises(ShapeError):
        group_basis_pursuit(BRIDGE1, [0.3, 0.6], [0.3, 0.7], y)
    with pytest.raises(ValueError):
        K3 = gk.OperatorKernel(gk.tfamily(1.0), gk.TaskCoupling.identity(1), p=3)
        group_basis_pursuit(K3, [0.3, 0.6], [0.3, 0.6], y)
    rank1 = gk.custom(lambda x, y: np.ones_like(x * y), domain=(0.0, 1.0))
    Kc = gk.OperatorKernel(rank1, gk.TaskCoupling.identity(1), p=2)
    with pytest.raises(RankError):
        group_basis_pursuit(Kc, [0.3, 0.6, 0.8], [0.3, 0.6], y)
    with pytest.raises(NonconvergenceError) as exc:
        K = gk.OperatorKernel(gk.tfamily(-1.0), random_coupling(2, rng), p=2)
        yy = BlockVector(rng.standard_normal((2, 2)), 2)
        group_basis_pursuit(K, np.array([0.3, 0.6, 0.9]), np.array([0.3, 0.6]), yy,
                            max_iters=3)
    assert exc.value.residuals is not None
    assert exc.value.iterations == 3


# ---------------------------------------------------------------------------
# regularized fitting
# ---------------------------------------------------------------------------

def test_learn_config_validation():
    with pytest.raises(ValueError):
        LearnConfig(lam=0.0)
    with pytest.raises(ValueError):
        LearnConfig(lam=1.0, loss="huber")
    with pytest.raises(ValueError):
        LearnConfig(lam=1.0, tol=0.0)


@pytest.mark.parametrize("fit", [fit_regularized, fit_admm], ids=["fista", "admm"])
def test_fit_prologue_checks_sites_without_assembling_a_system(monkeypatch, fit):
    # no fit solves with the Gram, so none builds a GramSystem; the site
    # checks of gram_assemble still apply
    def unused(*args):
        raise AssertionError("a fit built a GramSystem")

    monkeypatch.setattr(gk.solvers, "gram_assemble", unused)
    cfg = LearnConfig(lam=0.1)
    y = BlockVector([[1.0, 0.0], [0.0, 1.0]], 2)
    model = fit(EXP2, [-1.0, 1.0], y, cfg)
    assert np.all(np.isfinite(model.coeffs.blocks))
    with pytest.raises(ShapeError):
        fit(EXP2, [], BlockVector(np.zeros((0, 2)), 2), cfg)
    with pytest.raises(DuplicateCenterError):
        fit(EXP2, [0.5, 0.5], y, cfg)
    with pytest.raises(DomainError):
        fit(EXP2, [0.5, 3.0], y, cfg)


def threshold_lambda(K, x, y):
    """Penalty weight above which the zero solution is optimal: the
    conjugate-norm of the largest block of the gradient at zero."""
    from groupkernels.blocklinalg import gram_assemble
    g = gram_assemble(K, x).G
    grad0 = g @ y.blocks @ K.coupling.A
    q = K.q
    return float(block_norms(grad0, q).max())


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_fit_zero_threshold(p):
    rng = np.random.default_rng(int(p))
    K = gk.OperatorKernel(gk.exponential((-2.0, 2.0)), random_coupling(2, rng), p=p)
    x = np.array([-1.3, -0.2, 0.9])
    y = BlockVector(rng.standard_normal((3, 2)), p)
    lam_star = threshold_lambda(K, x, y)
    above = fit_regularized(K, x, y, LearnConfig(lam=lam_star * 1.01))
    assert np.all(above.coeffs.blocks == 0.0)
    below = fit_regularized(K, x, y, LearnConfig(lam=lam_star * 0.9, tol=1e-14))
    assert lp1_norm(below.coeffs) > 0.0


def test_fit_zero_data():
    y = BlockVector(np.zeros((3, 2)), 2)
    for lam in (1e-6, 1.0, 1e6):
        model = fit_regularized(EXP2, [-1.0, 0.0, 1.0], y, LearnConfig(lam=lam))
        assert np.all(model.coeffs.blocks == 0.0)


def test_fit_lambda_to_zero_matches_interpolant():
    rng = np.random.default_rng(77)
    x = np.array([-1.5, -0.2, 0.8, 1.6])
    y = BlockVector(rng.standard_normal((4, 2)), 2)
    exact = min_norm_interpolant(EXP2, x, y)
    model = fit_regularized(EXP2, x, y,
                            LearnConfig(lam=1e-6, tol=1e-15, max_iters=300_000))
    assert np.abs(model.coeffs.blocks - exact.coeffs.blocks).max() <= 1e-4


def dual_gap(g, A, y, c, lam, p, theta):
    """P(C) - D(s theta) of the squared-loss fit, with the dual objective
    D(theta) = 0.5 ||Y||^2 - 0.5 ||Y - theta||^2 and s the largest scale
    in [0, 1] that makes ||(G s theta A)_i||_q <= lam, from the primal and
    dual objectives directly."""
    q = math.inf if p == 1.0 else 2.0
    top = float(block_norms(g @ theta @ A, q).max())
    theta = theta * min(1.0, lam / top) if top > 0 else theta
    primal = 0.5 * float(((g @ c @ A - y) ** 2).sum()) + lam * float(block_norms(c, p).sum())
    dual = 0.5 * float((y ** 2).sum()) - 0.5 * float(((y - theta) ** 2).sum())
    return primal - dual, primal


_COVERAGE_SPECS = [
    gk.wendland(),
    gk.tfamily(1.0),
    gk.exponential((-2.0, 2.0)),
    gk.combination(1.0, 1.0),
    gk.custom(lambda x, y: 1.0 + x * y, domain=(0.0, 1.0)),  # rank 2: singular Gram
]


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("spec", _COVERAGE_SPECS,
                         ids=["wendland", "tfamily", "exponential", "combination", "rank2"])
def test_fit_certified_across_kernels(spec, p):
    rng = np.random.default_rng(90 + int(p))
    for frac in (0.05, 0.3, 0.7):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(6, 16))
        K = gk.OperatorKernel(spec, random_coupling(n, rng), p=p)
        x = shuffled_sites(*spec.domain, m, rng)
        y = rng.standard_normal((m, n))
        g = gk.kernels.scalar_values(spec, x[:, None], x[None, :])
        A = K.coupling.A
        lam = frac * float(block_norms(g @ y @ A, K.q).max())
        cfg = LearnConfig(lam=lam)
        model = fit_regularized(K, x, BlockVector(y, p), cfg)
        c = model.coeffs.blocks
        assert model.meta["solver"] == "working-set-newton"
        r = y - g @ c @ A
        gap, primal = dual_gap(g, A, y, c, lam, p, r)
        assert gap <= cfg.tol * max(1.0, primal)
        assert model.meta["gap"] <= cfg.tol * max(1.0, primal)
        assert model.meta["objective"] == pytest.approx(primal, rel=1e-12)
        # a block whose dual norm is strictly below lam is zero at every
        # optimum: the solver returns it as exactly 0
        dual_norms = block_norms(g @ r @ A, K.q)
        assert np.all(c[dual_norms < lam * (1.0 - 1e-6)] == 0.0)
        assert np.all(dual_norms <= lam * (1.0 + 1e-6))
        admm = fit_admm(K, x, BlockVector(y, p),
                        LearnConfig(lam=lam, tol=1e-11, max_iters=400_000))
        assert model.meta["objective"] <= admm.meta["objective"] * (1.0 + 1e-14)


def test_fit_pinned_m400_is_optimal():
    # the solvers-m400 benchmark fit: wendland, identity:2 coupling, p = 2.
    # Accelerated proximal gradient stopped on a relative objective change
    # of 1e-10 ends at gap 1.7e-2, objective 1.2845074419 and 168 nonzero
    # blocks; ADMM certifies 1.2790932705 with 37
    x, y = pinned_set(1, 400)
    K = gk.OperatorKernel(gk.wendland(), gk.TaskCoupling.identity(2), p=2)
    model = fit_regularized(K, x, BlockVector(y, 2), LearnConfig(lam=0.01))
    g = gk.kernels.scalar_values(K.scalar, x[:, None], x[None, :])
    c = model.coeffs.blocks
    gap, primal = dual_gap(g, np.eye(2), y, c, 0.01, 2.0, y - g @ c)
    assert gap <= 1e-10 * max(1.0, primal)
    assert model.meta["gap"] <= 1e-10 * max(1.0, primal)
    assert primal == pytest.approx(1.2790932705, rel=1e-9)
    assert int((block_norms(c, 2.0) > 0).sum()) <= 37
    # 548 Newton steps in 17 rounds when the violators entered by size alone
    assert model.meta["iterations"] <= 200


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_absolute_fit_m50_certifies(p):
    # the solvers-m400 benchmark's absolute-loss fit (wendland, identity:2,
    # lam = 0.1, 50 sites).  ADMM takes 38,026 iterations for p = 2 and
    # needs 544,826 for p = 1, so at the default budget of 100,000 it
    # raised NonconvergenceError there
    x, y = pinned_set(2, 50)
    K = gk.OperatorKernel(gk.wendland(), gk.TaskCoupling.identity(2), p=p)
    model = fit_regularized(K, x, BlockVector(y, p), LearnConfig(lam=0.1, loss="absolute"))
    g = gk.kernels.scalar_values(K.scalar, x[:, None], x[None, :])
    c = model.coeffs.blocks
    primal = float(np.abs(y - g @ c).sum()) + 0.1 * float(block_norms(c, p).sum())
    assert model.meta["solver"] == "working-set-newton"
    assert model.meta["objective"] == pytest.approx(primal, rel=1e-12)
    assert model.meta["gap"] <= 1e-10 * max(1.0, primal)
    if p == 2.0:
        assert primal == pytest.approx(6.4768365235, rel=1e-9)
    # 160 (p = 2) and 204 (p = 1) Newton steps in rounds of at most 16
    # entering blocks; all 50 blocks fit one small system
    assert model.meta["iterations"] <= 60


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("loss,lam", [("squared", 0.01), ("absolute", 0.1)])
@pytest.mark.parametrize("spec", [gk.wendland(), gk.tfamily(0.5)], ids=["wendland", "tfamily"])
def test_fit_ignores_row_order(spec, loss, lam, p):
    # violators enter at the peaks of their violation along the sites in
    # increasing x, whatever the order of the rows; 100 sites and n = 2 are
    # past the small system that enters every violator.  The translation-
    # invariant wendland kernel on (0, 1) also gives the reflected sites
    # x -> 1 - x the same fit
    x, y = pinned_set(5, 100)
    K = gk.OperatorKernel(spec, gk.TaskCoupling.identity(2), p=p)
    perm = np.random.default_rng(3).permutation(x.size)
    variants = [x, x[perm]] + ([1.0 - x[perm]] if spec.family == "wendland" else [])
    fits = []
    for xv in variants:
        yv = y if xv is x else y[perm]
        model = fit_regularized(K, xv, BlockVector(yv, p), LearnConfig(lam=lam, loss=loss))
        norms = block_norms(model.coeffs.blocks, p)
        fits.append((model.meta, norms if xv is x else norms[np.argsort(perm)]))
    base, base_norms = fits[0]
    # the absolute loss's centered point may keep blocks at rounding size
    floor = 0.0 if loss == "squared" else 1e-8 * base_norms.max()
    for meta, norms in fits[1:]:
        np.testing.assert_array_equal(norms > floor, base_norms > floor)
        assert abs(meta["objective"] - base["objective"]) <= meta["gap"] + base["gap"]
        # the rows' order changes only rounding, not the path; entering in
        # row order took 40-70% more steps on the squared loss
        assert abs(meta["iterations"] - base["iterations"]) <= 0.15 * base["iterations"]


def lp_absolute_fit(g, A, y, lam):
    """Objective at the coefficients of the p = 1 absolute-loss fit solved
    as a linear program over (C, t >= |Y - G C A|, s >= |C|) by HiGHS."""
    k, n = g.shape[1], y.shape[1]
    jac = np.kron(g, A.T)  # vec(G C A) = jac vec(C), row-major
    rows, cols = jac.shape
    eye_r, eye_c = np.eye(rows), np.eye(cols)
    zero_rc, zero_cr = np.zeros((rows, cols)), np.zeros((cols, rows))
    a_ub = np.block([[jac, -eye_r, zero_rc], [-jac, -eye_r, zero_rc],
                     [eye_c, zero_cr, -eye_c], [-eye_c, zero_cr, -eye_c]])
    b_ub = np.concatenate([y.ravel(), -y.ravel(), np.zeros(2 * cols)])
    cost = np.concatenate([np.zeros(cols), np.ones(rows), lam * np.ones(cols)])
    res = scipy.optimize.linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(None, None),
                                 method="highs")
    assert res.status == 0, res.message
    c = res.x[:cols].reshape(k, n)
    return float(np.abs(y - g @ c @ A).sum()) + lam * float(np.abs(c).sum())


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("spec", _COVERAGE_SPECS,
                         ids=["wendland", "tfamily", "exponential", "combination", "rank2"])
def test_absolute_fit_certified_across_kernels(spec, p):
    # lam as a fraction of the absolute loss's zero threshold, the largest
    # dual norm of sign(Y); p = 1 is a linear program, checked by HiGHS
    rng = np.random.default_rng(95 + int(p))
    for frac in (0.05, 0.3, 0.7):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(6, 16))
        K = gk.OperatorKernel(spec, random_coupling(n, rng), p=p)
        x = shuffled_sites(*spec.domain, m, rng)
        y = rng.standard_normal((m, n))
        g = gk.kernels.scalar_values(spec, x[:, None], x[None, :])
        A = K.coupling.A
        lam = frac * float(block_norms(g @ np.sign(y) @ A, K.q).max())
        cfg = LearnConfig(lam=lam, loss="absolute")
        model = fit_regularized(K, x, BlockVector(y, p), cfg)
        c = model.coeffs.blocks
        primal = float(np.abs(y - g @ c @ A).sum()) + lam * float(block_norms(c, p).sum())
        gap = model.meta["gap"]
        assert model.meta["solver"] == "working-set-newton"
        assert 0.0 <= gap <= cfg.tol * max(1.0, primal)
        assert model.meta["objective"] == pytest.approx(primal, rel=1e-12)
        if p == 1.0:
            assert abs(primal - lp_absolute_fit(g, A, y, lam)) <= gap
            continue
        try:
            admm = fit_admm(K, x, BlockVector(y, p),
                            LearnConfig(lam=lam, loss="absolute", tol=1e-11, max_iters=20_000))
        except NonconvergenceError:
            continue
        assert primal <= admm.meta["objective"] * (1.0 + 1e-9)


@pytest.mark.parametrize("p,tol,certifies", [(1.0, 1e-12, True), (1.0, 1e-13, False),
                                             (2.0, 1e-13, True)])
def test_a_stalled_centering_ends_at_rounding(p, tol, certifies):
    # pinned set 2, absolute loss.  One centering at mu = 3.2e-15 (P = 3.47)
    # took 2,941 of 3,000 steps: its squared Newton decrement sat at the
    # rounding of the objective, above mu / 10.  So both p = 1 fits spent
    # the whole budget, and p = 2 exited 2 after 106 steps; stopped at
    # 64 eps |value| they take 62, 81 and 65 steps
    x, y = pinned_set(2, 50)
    K = gk.OperatorKernel(gk.wendland(), gk.TaskCoupling.identity(2), p=p)
    cfg = LearnConfig(lam=0.02, loss="absolute", tol=tol, max_iters=3000)
    if not certifies:
        with pytest.raises(NonconvergenceError) as exc:
            fit_regularized(K, x, BlockVector(y, p), cfg)
        assert exc.value.iterations <= 200
        return
    model = fit_regularized(K, x, BlockVector(y, p), cfg)
    assert model.meta["iterations"] <= 200
    if p == 1.0:
        g = gk.kernels.scalar_values(K.scalar, x[:, None], x[None, :])
        lp = lp_absolute_fit(g, np.eye(2), y, 0.02)
        assert abs(model.meta["objective"] - lp) <= model.meta["gap"]


def test_fit_certifies_at_the_rounding_floor():
    # small lam on well-conditioned Grams, tol = 1e-14: the certificate's
    # own rounding, eps ||C||_{p,1} |G| (|Y| + |G| |C|), reaches 1e-13 and
    # exceeded the fixed floor 64 eps max(1, P), so these fits raised
    # NonconvergenceError with KKT violations of 1e-13 at the polish
    for seed in range(6):
        rng = np.random.default_rng(seed)
        p = float(rng.choice([1.0, 2.0]))
        K = gk.OperatorKernel(gk.tfamily(0.5), gk.TaskCoupling.identity(2), p=p)
        x = shuffled_sites(0.0, 1.0, 8, rng)
        y = rng.standard_normal((8, 2))
        g = gk.kernels.scalar_values(K.scalar, x[:, None], x[None, :])
        lam = 0.01 * float(block_norms(g @ y, K.q).max())
        model = fit_regularized(K, x, BlockVector(y, p), LearnConfig(lam=lam, tol=1e-14))
        c = model.coeffs.blocks
        gap, primal = dual_gap(g, np.eye(2), y, c, lam, p, y - g @ c)
        assert model.meta["gap"] <= 1e-11 * max(1.0, primal)
        assert gap <= 1e-11 * max(1.0, primal)


@pytest.mark.parametrize("loss", ["squared", "absolute"])
def test_fit_on_overflowing_data_raises(loss):
    # at 1e200 the squared objective overflows: the fit returned with
    # objective and gap inf, since inf <= inf.  The absolute loss once
    # exited 2 too, its rounds taking no step; solved on Y 2^-e, it
    # certifies 1e200 times the unit-data answer, as P(sY, sC) = s P(Y, C)
    sites, cfg = [-1.0, 0.0, 1.0], LearnConfig(lam=0.1, loss=loss)
    y = BlockVector(np.full((3, 2), 1e200), 2)
    if loss == "squared":
        with pytest.raises(NonconvergenceError):
            fit_regularized(EXP2, sites, y, cfg)
        return
    big = fit_regularized(EXP2, sites, y, cfg).meta
    unit = fit_regularized(EXP2, sites, BlockVector(np.ones((3, 2)), 2), cfg).meta
    assert abs(big["objective"] / 1e200 - unit["objective"]) <= big["gap"] / 1e200 + unit["gap"]


def test_rounding_floor_never_certifies_above_floor_max():
    # at 1e150 the residual's rounding swamps lam, so the certificate's
    # rounding floor is about the objective itself: capped at FLOOR_MAX
    # relative, it cannot turn a gap equal to P into a certified fit
    y = BlockVector(np.full((3, 2), 1e150), 2)
    with np.errstate(all="ignore"), pytest.raises(NonconvergenceError):
        fit_regularized(EXP2, [-1.0, 0.0, 1.0], y, LearnConfig(lam=0.1, tol=1e-14))


_PROBE_SPECS = {"wendland": gk.wendland(), "tfamily": gk.tfamily(1.0),
                "exponential": gk.exponential((-2.0, 2.0))}


@pytest.mark.parametrize("spec,data,p,frac", [
    ("wendland", "set2", 1.0, 1e-5), ("wendland", "set2", 2.0, 1e-5),
    ("wendland", "scale60", 2.0, 1e-5), ("tfamily", "set2", 1.0, 1e-6),
    ("tfamily", "set2", 2.0, 1e-6), ("tfamily", "scale60", 1.0, 1e-5),
    ("exponential", "set2", 1.0, 1e-6), ("exponential", "set2", 2.0, 1e-6),
    ("exponential", "scale60", 1.0, 1e-5),
], ids=lambda v: f"{v}")
def test_the_floor_decides_at_every_tol(spec, data, p, frac):
    # squared fits at lam = frac lam_max, with gaps of 1e-10 to 1e-9 P,
    # within rounding of their certificate.  While the floor counted only
    # for a tol below the default, the default tol certified less than
    # 1e-12: the first eight of these exited 2 at it, and wendland on
    # set 2 with p = 2 took 78 steps.  Now the floor decides wherever it
    # can, so both tols stop at the same point
    x, y = pinned_set(2, 50) if data == "set2" else scale_data(60)
    spec = _PROBE_SPECS[spec]
    lo, hi = spec.domain
    x = lo + (hi - lo) * x
    K = gk.OperatorKernel(spec, gk.TaskCoupling.identity(2), p=p)
    g = gk.kernels.scalar_values(spec, x[:, None], x[None, :])
    lam = frac * float(block_norms(g @ y, K.q).max())
    default, tight = (fit_regularized(K, x, BlockVector(y, p),
                                      LearnConfig(lam=lam, max_iters=400, **tol))
                      for tol in ({}, {"tol": 1e-12}))
    np.testing.assert_array_equal(default.coeffs.blocks, tight.coeffs.blocks)
    assert default.meta["iterations"] == tight.meta["iterations"]
    meta = default.meta
    assert 1e-10 * meta["objective"] < meta["gap"] <= meta["bound"] <= 1e-9 * meta["objective"]


@pytest.mark.parametrize("loss", ["squared", "absolute"])
def test_meta_bound_is_tol_p_where_tol_decides(loss):
    # the bound a fit's gap met is reported in Y's units, like meta.gap: at
    # lam = 0.01 lam_max tol decides, and the bound is tol P exactly
    x, y = scale_data(60)
    K = gk.OperatorKernel(gk.wendland(), gk.TaskCoupling.identity(2), p=2)
    g = gk.kernels.scalar_values(K.scalar, x[:, None], x[None, :])
    for s in (1.0, 1e6):
        ys = s * y
        lam = 0.01 * float(block_norms(g @ (ys if loss == "squared" else np.sign(ys)), K.q).max())
        cfg = LearnConfig(lam=lam, loss=loss)
        meta = fit_regularized(K, x, BlockVector(ys, 2), cfg).meta
        assert meta["gap"] <= meta["bound"] == cfg.tol * meta["objective"]


def test_fit_budget_exhausted_raises():
    rng = np.random.default_rng(16)
    x = np.array([-1.5, -0.2, 0.8, 1.6])
    y = BlockVector(rng.standard_normal((4, 2)), 2)
    with pytest.raises(NonconvergenceError) as exc:
        fit_regularized(EXP2, x, y, LearnConfig(lam=0.05, max_iters=2))
    assert exc.value.iterations >= 2
    assert exc.value.residuals[0] > 0.0


@pytest.mark.parametrize("loss", ["squared", "absolute"])
def test_admm_fit_reports_a_valid_gap(loss):
    # fit_admm stops on its residuals, not on the gap, and records the gap
    # of its final iterate: for the absolute loss from its loss-block dual
    # estimate clipped into the box |theta_ij| <= 1 and scaled into the ball
    rng = np.random.default_rng(25)
    K = gk.OperatorKernel(gk.tfamily(0.5), gk.TaskCoupling.identity(2), p=2)
    x = np.array([0.2, 0.5, 0.8])
    y = BlockVector(rng.standard_normal((3, 2)), 2)
    cfg = LearnConfig(lam=0.3, loss=loss, tol=1e-11, max_iters=200_000)
    model = fit_admm(K, x, y, cfg)
    best = fit_regularized(K, x, y, LearnConfig(lam=0.3, loss=loss))
    # a duality gap bounds the distance to the optimum from above
    assert model.meta["objective"] - best.meta["objective"] <= model.meta["gap"] + 1e-15
    assert 0.0 <= model.meta["gap"] <= 1e-8 * max(1.0, model.meta["objective"])
    if loss == "squared":
        g = gk.kernels.scalar_values(K.scalar, x[:, None], x[None, :])
        c = model.coeffs.blocks
        gap, _ = dual_gap(g, np.eye(2), y.blocks, c, 0.3, 2.0, y.blocks - g @ c)
        assert model.meta["gap"] == pytest.approx(gap, rel=1e-6, abs=1e-14)


def test_fista_matches_admm_objective():
    rng = np.random.default_rng(15)
    for _ in range(8):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 7))
        p = float(rng.choice([1.0, 2.0]))
        K = gk.OperatorKernel(gk.exponential((-2.0, 2.0)), random_coupling(n, rng), p=p)
        x = random_sites(K, m, rng)
        y = BlockVector(rng.standard_normal((m, n)), p)
        lam = 0.2 * threshold_lambda(K, x, y) + 1e-3
        f = fit_regularized(K, x, y, LearnConfig(lam=lam, tol=1e-14, max_iters=300_000))
        a = fit_admm(K, x, y, LearnConfig(lam=lam, tol=1e-11, max_iters=300_000))
        rel = abs(f.meta["objective"] - a.meta["objective"]) / max(1e-30, a.meta["objective"])
        assert rel <= 1e-8


def test_absolute_loss_is_locally_optimal():
    rng = np.random.default_rng(25)
    K = gk.OperatorKernel(gk.tfamily(0.5), gk.TaskCoupling.identity(2), p=2)
    x = np.array([0.2, 0.5, 0.8])
    y = BlockVector(rng.standard_normal((3, 2)), 2)
    cfg = LearnConfig(lam=0.3, loss="absolute", tol=1e-11, max_iters=200_000)
    model = fit_admm(K, x, y, cfg)
    from groupkernels.blocklinalg import gram_assemble
    g = gram_assemble(K, x).G
    A = K.coupling.A

    def objective(c):
        return float(np.abs(g @ c @ A - y.blocks).sum()) + cfg.lam * float(
            block_norms(c, 2.0).sum())

    base = objective(model.coeffs.blocks)
    assert base == pytest.approx(model.meta["objective"], rel=1e-12)
    for _ in range(300):
        trial = model.coeffs.blocks + 1e-3 * rng.standard_normal((3, 2))
        assert objective(trial) >= base - 1e-9


def test_fit_nonconvergence_raises():
    rng = np.random.default_rng(1)
    K = gk.OperatorKernel(gk.tfamily(1.0), gk.TaskCoupling.identity(1), p=2)
    y = BlockVector(rng.standard_normal((3, 1)), 2)
    with pytest.raises(NonconvergenceError):
        fit_regularized(K, [0.2, 0.5, 0.8], y,
                        LearnConfig(lam=1e-4, tol=1e-16, max_iters=3))
    # an exhausted ADMM budget: the error carries it and both residuals
    with pytest.raises(NonconvergenceError) as exc:
        fit_admm(K, [0.2, 0.5, 0.8], y, LearnConfig(lam=0.1, loss="absolute", max_iters=3))
    assert exc.value.iterations == 3
    r, s = exc.value.residuals
    assert np.isfinite(r) and np.isfinite(s) and max(r, s) > 0
    assert str(exc.value).startswith("admm residuals")


_TURN = np.array([[0.6, -0.8], [0.8, 0.6]])
_FIT_SCALES = [1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9]
_PURSUIT_SCALES = [1e-12, 1e-9, 1e-6, 1e-3, 1e6]
# binary exponents k of the exact scales s = 2^k; the squared objective
# scales by 2^2k, so at 2^-540 it underflows to 0.0 (and at 2^700 it
# overflows: test_units_at_the_ends_of_the_float_range)
_EXACT = {"squared": [-700, -540, 500], "absolute": [-700, -500, 500, 700],
          "pursuit": [-1000, -700, 700, 1000]}


@functools.cache
def _scaled_answer(solver, s, turn):
    """Coefficients over s, support, objective or norm and certified gap
    (divided back by the factor the objective takes: s^2 for the squared
    loss, whose lam scales with Y, s for the absolute loss and pursuit) and
    step count of one solver on scale_data with Y -> s Y (turned by _TURN
    if turn)."""
    if solver == "pursuit":
        x, y = scale_data(40)
        K = gk.OperatorKernel(gk.tfamily(-1.0), gk.TaskCoupling.identity(2), p=2)
        extras = np.linspace(0.03, 0.97, 25)
        model = group_basis_pursuit(K, np.r_[x, extras], x, BlockVector(s * y, 2))
        return model.coeffs.blocks / s, None, model.norm_lp1 / s, 0.0, model.meta["iterations"]
    loss, p = solver
    x, y = scale_data(60)
    y = s * (y @ _TURN if turn else y)
    K = gk.OperatorKernel(gk.wendland(), gk.TaskCoupling.identity(2), p=p)
    g = gk.kernels.scalar_values(K.scalar, x[:, None], x[None, :])
    lam = 0.01 * float(block_norms(g @ (y if loss == "squared" else np.sign(y)), K.q).max())
    model = fit_regularized(K, x, BlockVector(y, p), LearnConfig(lam=lam, loss=loss))
    norms = block_norms(model.coeffs.blocks, p)
    # the absolute loss's centered point may keep blocks at rounding size
    support = norms > (0.0 if loss == "squared" else 1e-8 * norms.max())
    obj, gap = model.meta["objective"] / s, model.meta["gap"] / s
    if loss == "squared":
        obj, gap = obj / s, gap / s
    return model.coeffs.blocks / s, support, obj, gap, model.meta["iterations"]


_SOLVERS = [(loss, p) for loss in ("squared", "absolute") for p in (1.0, 2.0)]


@pytest.mark.parametrize("solver,s,turn", [
    *[(solver, s, False) for solver in _SOLVERS for s in _FIT_SCALES],
    *[("pursuit", s, False) for s in _PURSUIT_SCALES],
    (("squared", 2.0), 1.0, True),
    *[(solver, math.ldexp(1.0, k), False) for solver in _SOLVERS for k in _EXACT[solver[0]]],
    *[("pursuit", math.ldexp(1.0, k), False) for k in _EXACT["pursuit"]],
], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else f"{v}")
def test_answers_do_not_depend_on_the_units_of_y(solver, s, turn):
    # fit and pursuit solve on Y 2^-e, e the binary exponent of max|Y|, and
    # every tolerance is relative to the problem's own size, so Y -> s Y
    # (and a rotation of the tasks, for p = 2 and identity coupling) maps
    # the answer along, bit for bit when s is a power of two.  With
    # tolerances absolute below P = 1, the squared fit at s = 1e-6 returned
    # C = 0 as certified, and pursuit at s = 1e6 ran out of its 200,000
    # ADMM iterations; until the units were taken at entry, the squared fit
    # returned C = 0 below 1e-162 and the absolute fits exited 2 at 2^+-500
    coeffs, support, value, gap, steps = _scaled_answer(solver, s, turn)
    base = _scaled_answer(solver, 1.0, False)
    base_coeffs, base_support, base_value, base_gap, base_steps = base
    if math.frexp(s)[0] == 0.5 and not turn:
        np.testing.assert_array_equal(coeffs, base_coeffs)
        assert steps == base_steps
        return
    if solver == "pursuit":
        assert abs(value - base_value) <= 1e-10 * base_value
        return
    np.testing.assert_array_equal(support, base_support)
    assert abs(value - base_value) <= gap + base_gap
    assert base_steps / 1.5 <= steps <= 1.5 * base_steps


@pytest.mark.parametrize("solver,y_max,lam,outcome", [
    ("squared", 0.0, 0.1, "zero"),
    ("absolute", 0.0, 0.1, "zero"),
    ("squared", 1e-300, 1e9, "zero"),  # lam 2^-e overflows: clamped, C = 0 is optimal
    ("squared", 2.0 ** 700, None, "raises"),  # the objective overflows
    ("squared", 1.5e308, None, "raises"),
    ("absolute", 1.5e308, None, "raises"),  # C overflows
    ("squared", 1e-310, None, "returns"),
    ("absolute", 1e-310, None, "returns"),
    ("pursuit", 1e-310, None, "returns"),
], ids=lambda v: f"{v}")
def test_units_at_the_ends_of_the_float_range(solver, y_max, lam, outcome):
    # scale_data with max|Y| = y_max, p = 2, and lam = 0.01 lam_max where
    # None.  An answer past the float range exits 2; a subnormal Y is solved
    # at the normal scale.  Before the units were taken at entry, the
    # 1e-310 squared fit returned C = 0, the absolute fit exited 2 after 0
    # steps and pursuit after 200,000 iterations; the raising cases raised,
    # but let numpy's overflow warnings out first
    x, unit = scale_data(60)
    unit = unit / np.abs(unit).max()
    y = unit * y_max
    K = gk.OperatorKernel(gk.wendland(), gk.TaskCoupling.identity(2), p=2)
    if solver == "pursuit":
        model = group_basis_pursuit(K, np.r_[x, np.linspace(0.03, 0.97, 25)], x,
                                    BlockVector(y, 2))
        assert np.all(np.isfinite(model.coeffs.blocks)) and model.norm_lp1 > 0.0
        return
    if lam is None:  # from the unit data, so that nothing overflows
        g = gk.kernels.scalar_values(K.scalar, x[:, None], x[None, :])
        squared = solver == "squared"
        lam = 0.01 * float(block_norms(g @ (unit if squared else np.sign(unit)), K.q).max())
        lam *= y_max if squared else 1.0
    cfg = LearnConfig(lam=lam, loss=solver)
    if outcome == "raises":
        with pytest.raises(NonconvergenceError):
            fit_regularized(K, x, BlockVector(y, 2), cfg)
        return
    model = fit_regularized(K, x, BlockVector(y, 2), cfg)
    c = model.coeffs.blocks
    if outcome == "zero":
        assert not c.any() and model.meta["gap"] == 0.0 and model.meta["iterations"] == 0
    else:
        assert np.all(np.isfinite(c)) and c.any()


@functools.cache
def _exit_2(solver, k):
    """The NonconvergenceError of one solver on Y 2^k: pursuit (tfamily
    t = -1, 50 iterations) on scale_data(40) plus 25 extras; a p = 1
    wendland fit on pinned set 2, absolute at tol 1e-13 or squared, with
    lam scaled along, at tol 1e-16 in 3 steps."""
    if solver == "pursuit":
        x, y = scale_data(40)
        K = gk.OperatorKernel(gk.tfamily(-1.0), gk.TaskCoupling.identity(2), p=2)
        with pytest.raises(NonconvergenceError) as exc:
            group_basis_pursuit(K, np.r_[x, np.linspace(0.03, 0.97, 25)], x,
                                BlockVector(np.ldexp(y, k), 2), max_iters=50)
        return exc.value
    x, y = pinned_set(2, 50)
    K = gk.OperatorKernel(gk.wendland(), gk.TaskCoupling.identity(2), p=1)
    if solver == "squared":
        cfg = LearnConfig(lam=math.ldexp(0.02, k), tol=1e-16, max_iters=3)
    else:
        cfg = LearnConfig(lam=0.02, loss="absolute", tol=1e-13)
    with pytest.raises(NonconvergenceError) as exc:
        fit_regularized(K, x, BlockVector(np.ldexp(y, k), 1), cfg)
    return exc.value


@pytest.mark.parametrize("k", [-3, 5])
@pytest.mark.parametrize("solver", ["squared", "absolute", "pursuit"])
def test_errors_are_in_the_units_of_y(solver, k):
    # the solvers run on Y 2^-e, the same bits at any power of two, and an
    # error names its gap and bound, or its residuals, scaled back to Y's
    # units: by 2^k, and by 2^2k for the squared gap and bound.  They were
    # in units of 2^e, the same numbers at every k
    base, exc = _exit_2(solver, 0), _exit_2(solver, k)
    factor = 4.0 ** k if solver == "squared" else 2.0 ** k
    assert exc.iterations == base.iterations
    assert exc.residuals == tuple(v * factor for v in base.residuals)
    numbers = [re.findall(r"\d\.\d{3}e[+-]\d+", str(e)) for e in (base, exc)]
    assert len(numbers[0]) == len(numbers[1]) == 2
    for before, after in zip(*numbers):
        assert float(after) == pytest.approx(float(before) * factor, rel=2e-3)


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("loss", ["squared", "absolute"])
@pytest.mark.parametrize("spec", [gk.wendland(), gk.exponential((-2.0, 2.0))],
                         ids=["wendland", "exponential"])
def test_fit_ignores_reflection(spec, loss, p):
    # both kernels depend on |x - y| alone, so the reflection
    # x -> lo + hi - x maps the fit to itself: both certify, and their
    # objectives agree within the sum of the certified gaps
    x, y = scale_data(60)
    lo, hi = spec.domain
    x = lo + (hi - lo) * x
    K = gk.OperatorKernel(spec, gk.TaskCoupling.identity(2), p=p)
    g = gk.kernels.scalar_values(spec, x[:, None], x[None, :])
    lam = 0.01 * float(block_norms(g @ (y if loss == "squared" else np.sign(y)), K.q).max())
    cfg = LearnConfig(lam=lam, loss=loss)
    a, b = (fit_regularized(K, xv, BlockVector(y, p), cfg).meta for xv in (x, lo + hi - x))
    assert abs(a["objective"] - b["objective"]) <= a["gap"] + b["gap"]


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("loss", ["squared", "absolute"])
def test_fit_follows_the_combination_weights(loss, p):
    # combination(2, 2) has exactly twice the Gram of combination(1, 1), so
    # C -> C / 2 maps its fit at lam to the other's at lam / 2, with the
    # same objective: both certify, within the sum of the certified gaps
    x, y = scale_data(60)
    metas = []
    for weight, scale in ((1.0, 0.5), (2.0, 1.0)):
        K = gk.OperatorKernel(gk.combination(weight, weight), gk.TaskCoupling.identity(2), p=p)
        lam = 0.01 * scale * float(block_norms(y, K.q).max())
        metas.append(fit_regularized(K, x, BlockVector(y, p), LearnConfig(lam=lam, loss=loss)).meta)
    a, b = metas
    assert abs(a["objective"] - b["objective"]) <= a["gap"] + b["gap"]


# ---------------------------------------------------------------------------
# adjoint-side sup norm and the analysis bounds
# ---------------------------------------------------------------------------

def test_expansion_sup_norm_examples():
    zero = min_norm_interpolant(BRIDGE1, [0.5], BlockVector([[0.0]], 2))
    assert expansion_sup_norm(zero, 64) == 0.0
    one = min_norm_interpolant(BRIDGE1, [0.5], BlockVector([[0.25]], 2))
    np.testing.assert_array_equal(one.coeffs.blocks, [[1.0]])
    assert expansion_sup_norm(one, 512) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ValueError):
        expansion_sup_norm(one, 1)


def test_expansion_sup_norm_bounded_by_kappa():
    # the adjoint-side sup norm obeys the same boundedness constant as
    # point evaluation: sup_y ||g(y)||_q <= kappa * ||coeffs||_{p,1}
    from groupkernels.admissibility import CertificationConfig, certify
    rng = np.random.default_rng(61)
    cfg = CertificationConfig(max_centers=2, grid_size=64, trials=5, seed=0)
    for p in (1.0, 2.0):
        K = gk.OperatorKernel(gk.tfamily(1.0), random_coupling(2, rng), p=p)
        kappa = certify(K, cfg).a2["kappa"]
        for _ in range(10):
            m = int(rng.integers(1, 5))
            model = min_norm_interpolant(
                K, random_sites(K, m, rng),
                BlockVector(rng.standard_normal((m, 2)), p))
            assert expansion_sup_norm(model, 512) <= kappa * model.norm_lp1 + 1e-9


def test_expansion_sup_norm_unbounded_domain():
    K = gk.OperatorKernel(gk.exponential(), gk.TaskCoupling.identity(1), p=2)
    model = min_norm_interpolant(K, [0.0, 2.0], BlockVector([[1.0], [1.0]], 2))
    v = expansion_sup_norm(model, 256)
    probe = max(float(np.abs(predict(model, t)).max()) for t in np.linspace(-3, 5, 400))
    assert v >= probe - 1e-9


@pytest.mark.parametrize("spec", [s for _, s in ADMISSIBLE_SPECS], ids=[i for i, _ in ADMISSIBLE_SPECS])
def test_expansion_sup_norm_is_exact_at_the_breakpoints(spec):
    """The sup norm dominates a dense grid of 200,001 points inside the
    domain and is, within 1e-12, the largest norm at the breakpoints: the
    centers (unsorted) and the floats nearest the domain ends inside it."""
    rng = np.random.default_rng(73)
    lo, hi = spec.domain
    dense = np.linspace(lo, hi, 200_003)[1:-1]
    ends = np.array([np.nextafter(lo, hi), np.nextafter(hi, lo)])
    for p in (1.0, 2.0):
        for n in (1, 3):
            K = gk.OperatorKernel(spec, random_coupling(n, rng), p=p)
            for _ in range(3):
                m = int(rng.integers(1, 9))
                centers = rng.permutation(random_sites(K, m, rng))
                coeffs = BlockVector(rng.standard_normal((m, n)), p)
                model = gk.FitModel(K, centers, coeffs, lp1_norm(coeffs))
                sup = expansion_sup_norm(model, 64)
                assert sup >= block_norms(predict_many(model, dense), K.q).max()
                at_breaks = block_norms(predict_many(model, np.concatenate([centers, ends])), K.q)
                assert sup <= at_breaks.max() * (1.0 + 1e-12)


BUILTIN_SPECS = [*ADMISSIBLE_SPECS, ("tfamily t=-1", gk.tfamily(-1.0)),
                 ("exponential on R", gk.exponential())]


@pytest.mark.parametrize("spec", [s for _, s in BUILTIN_SPECS], ids=[i for i, _ in BUILTIN_SPECS])
def test_builtin_sup_norm_evaluates_no_grid(spec, monkeypatch):
    """By the breakpoint lemma a builtin sup needs only the centers and the
    inward domain ends, so no module may build a query grid."""
    def no_grid(*args):
        raise AssertionError("vdc_points called for a builtin family")

    for module in (gk.gridsearch, gk.kernels, gk.solvers):
        monkeypatch.setattr(module, "vdc_points", no_grid, raising=False)
    rng = np.random.default_rng(74)
    K = gk.OperatorKernel(spec, random_coupling(2, rng), p=2)
    lo, hi = spec.domain
    if math.isfinite(lo):
        centers = rng.permutation(random_sites(K, 5, rng))
    else:
        centers = np.array([-3.0, 0.5, 2.0, 7.0, 1.0])
    model = min_norm_interpolant(K, centers, BlockVector(rng.standard_normal((5, 2)), 2))
    ends = np.array([np.nextafter(lo, hi), np.nextafter(hi, lo)])[np.isfinite([lo, hi])]
    probes = np.concatenate([centers, ends])
    assert expansion_sup_norm(model, 1024) == block_norms(predict_many(model, probes), K.q).max()


def test_custom_sup_norm_samples_centers_ends_and_grid():
    """A custom kernel's sup is the sampled maximum over its centers, the
    floats nearest the domain ends inside it and grid_size nested points."""
    spec = gk.custom(lambda x, y: np.exp(-((x - y) ** 2) / 0.02), domain=(-1.0, 2.0))
    K = gk.OperatorKernel(spec, gk.TaskCoupling.identity(2), p=1)
    rng = np.random.default_rng(75)
    centers = np.array([0.7, -0.4, 1.3, 0.1])
    model = gk.FitModel(K, centers, BlockVector(rng.standard_normal((4, 2)), 1), 1.0)
    probes = np.concatenate([centers, [np.nextafter(-1.0, 2.0), np.nextafter(2.0, -1.0)],
                             gk.gridsearch.vdc_points(-1.0, 2.0, 300)])
    assert expansion_sup_norm(model, 300) == block_norms(predict_many(model, probes), K.q).max()


@pytest.mark.parametrize("spec,bound", [
    (gk.exponential(), lambda m, grid: 40 * 8 * 2 * (m + grid)),
    (gk.wendland(), lambda m, grid: 4 * 8 * PREDICT_CHUNK * m),
], ids=["markov", "dense"])
def test_expansion_sup_norm_memory(spec, bound):
    """m = 2,000: the traced peak stays O(m + grid) on the Markov path and
    O(PREDICT_CHUNK m) on the dense one, not O((m + grid) m)."""
    m, grid = 2000, 1024
    rng = np.random.default_rng(8)
    K = gk.OperatorKernel(spec, gk.TaskCoupling.identity(2), p=2)
    coeffs = BlockVector(rng.standard_normal((m, 2)), 2)
    model = gk.FitModel(K, shuffled_sites(0.0, 1.0, m, rng), coeffs, lp1_norm(coeffs))
    tracemalloc.start()
    try:
        expansion_sup_norm(model, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound(m, grid)


def test_point_evaluation_bound_sample():
    rng = np.random.default_rng(44)
    from groupkernels.admissibility import CertificationConfig, certify
    cfg = CertificationConfig(max_centers=3, grid_size=64, trials=10, seed=0)
    for p in (1.0, 2.0):
        K = gk.OperatorKernel(gk.tfamily(1.0), random_coupling(2, rng), p=p)
        kappa = certify(K, cfg).a2["kappa"]
        q = K.q
        for _ in range(20):
            m = int(rng.integers(1, 5))
            model = min_norm_interpolant(
                K, random_sites(K, m, rng),
                BlockVector(rng.standard_normal((m, 2)), p))
            queries = rng.uniform(0.01, 0.99, size=1000)
            vals = predict_many(model, queries)
            norms = block_norms(vals, q)
            assert norms.max() <= kappa * model.norm_lp1 + 1e-9


def test_pairing_bound_sample():
    rng = np.random.default_rng(50)
    K = gk.OperatorKernel(gk.tfamily(1.0), random_coupling(2, rng), p=2)
    for _ in range(25):
        ma, mb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        za, wb = random_sites(K, ma, rng), random_sites(K, mb, rng)
        a = BlockVector(rng.standard_normal((ma, 2)), K.p)
        b = BlockVector(rng.standard_normal((mb, 2)), K.p)
        gmat = gk.kernels.scalar_values(K.scalar, za[:, None], wb[None, :])
        pairing = float(np.einsum("ik,ij,kl,jl->", a.blocks, gmat,
                                  K.coupling.A, b.blocks))
        gmodel = gk.FitModel(kernel=K, centers=wb, coeffs=b,
                             norm_lp1=lp1_norm(b))
        sup = expansion_sup_norm(gmodel, 1024)
        assert abs(pairing) <= lp1_norm(a) * sup + 1e-7


# ---------------------------------------------------------------------------
# persistence and data files
# ---------------------------------------------------------------------------

def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    K = gk.OperatorKernel(gk.combination(1.0, 2.0, t=0.3), random_coupling(2, rng), p=1)
    x = np.array([0.2, 0.6, 0.9])
    model = min_norm_interpolant(K, x, BlockVector(rng.standard_normal((3, 2)), 1))
    data = model_to_dict(model)
    text = json.dumps(data)
    back = model_from_dict(json.loads(text))
    np.testing.assert_array_equal(back.coeffs.blocks, model.coeffs.blocks)
    np.testing.assert_array_equal(back.centers, model.centers)
    assert back.norm_lp1 == model.norm_lp1
    queries = rng.uniform(0.05, 0.95, size=20)
    np.testing.assert_array_equal(predict_many(back, queries),
                                  predict_many(model, queries))


def test_model_dict_rejects_tampered_norm():
    model = min_norm_interpolant(BRIDGE1, [0.5], BlockVector([[1.0]], 2))
    data = model_to_dict(model)
    data["norm_lp1"] = data["norm_lp1"] + 1.0
    with pytest.raises(DataFormatError):
        model_from_dict(data)


def test_model_dict_rejects_a_doubled_tiny_norm():
    # the stored norm is checked relative to the norm itself: checked
    # against max(1, norm), a model of Y = 1e-18 passed with its norm doubled
    model = min_norm_interpolant(BRIDGE1, [0.5], BlockVector([[1e-18]], 2))
    data = model_to_dict(model)
    data["norm_lp1"] = 2.0 * data["norm_lp1"]
    with pytest.raises(DataFormatError):
        model_from_dict(data)


def test_read_training_csv(tmp_path):
    path = tmp_path / "train.csv"
    path.write_text("x,y1,y2\n0.1,1.0,2.0\n0.5,-1.0,0.25\n")
    x, y = read_training_csv(path)
    np.testing.assert_array_equal(x, [0.1, 0.5])
    np.testing.assert_array_equal(y, [[1.0, 2.0], [-1.0, 0.25]])


@pytest.mark.parametrize("content,fragment", [
    ("a,y1\n0.1,1.0\n", "header"),
    ("x,y1\n0.1\n", "row 2"),
    ("x,y1\n0.1,zzz\n", "column y1"),
    ("x,y1\n", "no data rows"),
])
def test_read_training_csv_errors(tmp_path, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(DataFormatError) as exc:
        read_training_csv(path)
    assert fragment in str(exc.value)


def test_read_points_csv(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x\n0.25\n0.75\n")
    np.testing.assert_array_equal(read_points_csv(path), [0.25, 0.75])
    training_like = tmp_path / "train.csv"
    training_like.write_text("x,y1\n0.1,5.0\n")
    np.testing.assert_array_equal(read_points_csv(training_like), [0.1])
    bad = tmp_path / "nox.csv"
    bad.write_text("t\n0.1\n")
    with pytest.raises(DataFormatError):
        read_points_csv(bad)
