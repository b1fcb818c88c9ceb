
import hashlib
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.optimize
import scipy.stats

import groupkernels as gk
from groupkernels import admissibility
from groupkernels.admissibility import (
    CertificationConfig,
    _a2_sample,
    _center_stacks,
    _scan_sets,
    _set_sup,
    _uniform,
    certify,
    det_tfamily_closed_form,
    lebesgue_at,
    lebesgue_scan,
    scan_report_dict,
    scan_rows_csv,
)
from groupkernels.blocklinalg import gram_assemble, gram_stack
from groupkernels.errors import DomainError, OrderError, ShapeError, SingularError
from groupkernels.kernels import scalar_uniform_bound

from helpers import (
    column_norm_sampled,
    hash_uniform,
    random_coupling,
    sample_centers,
    splitmix64,
    trial_centers,
)

BRIDGE = gk.OperatorKernel(gk.tfamily(1.0), gk.TaskCoupling.identity(1), p=2)
SMALL = CertificationConfig(max_centers=3, grid_size=128, trials=20, seed=7)


def test_det_closed_form_examples():
    assert det_tfamily_closed_form([0.2, 0.5], 1.0) == pytest.approx(0.03, rel=1e-15)
    assert det_tfamily_closed_form([0.3], 0.0) == pytest.approx(0.3, abs=0)
    assert det_tfamily_closed_form([0.2, 0.5], -1.0) == pytest.approx(0.09, rel=1e-15)


def test_det_closed_form_errors():
    with pytest.raises(OrderError):
        det_tfamily_closed_form([0.5, 0.2], 1.0)
    with pytest.raises(OrderError):
        det_tfamily_closed_form([0.2, 0.2], 1.0)
    with pytest.raises(DomainError):
        det_tfamily_closed_form([0.0, 0.5], 1.0)
    with pytest.raises(DomainError):
        det_tfamily_closed_form([0.2, 0.5], 1.5)
    with pytest.raises(ShapeError):
        det_tfamily_closed_form([], 1.0)


@pytest.mark.parametrize("t", [-1.0, -0.5, 0.0, 0.5, 1.0])
def test_det_matches_lu(t):
    rng = np.random.default_rng(int((t + 2) * 10))
    K = gk.OperatorKernel(gk.tfamily(t), gk.TaskCoupling.identity(1), p=2)
    for _ in range(100):
        m = int(rng.integers(1, 9))
        centers = sample_centers(0.0, 1.0, m, rng)
        closed = det_tfamily_closed_form(centers, t)
        lu = float(np.linalg.det(gram_assemble(K, centers).G))
        assert abs(closed - lu) <= 1e-10 * abs(closed)
        assert closed > 0.0


def test_det_strict_positive_definiteness():
    # Cholesky must succeed across the whole parameter range
    rng = np.random.default_rng(12)
    for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
        K = gk.OperatorKernel(gk.tfamily(t), gk.TaskCoupling.identity(1), p=2)
        for _ in range(20):
            centers = sample_centers(0.0, 1.0, int(rng.integers(1, 7)), rng)
            assert gram_assemble(K, centers).kind == "cholesky"


def test_lebesgue_at_examples():
    assert lebesgue_at(BRIDGE, [0.5], 0.5) == 1.0  # exactly, by construction
    assert lebesgue_at(BRIDGE, [0.5], 0.25) == pytest.approx(0.5, rel=1e-14)
    # sweeping the query keeps the value at or below 1, approached near the center
    qs = np.linspace(0.01, 0.99, 197)
    vals = [lebesgue_at(BRIDGE, [0.5], q) for q in qs]
    assert max(vals) <= 1.0 + 1e-12
    assert max(vals) >= 1.0 - 2e-2


def test_lebesgue_at_errors():
    with pytest.raises(DomainError):
        lebesgue_at(BRIDGE, [0.5], 1.0)
    rank1 = gk.custom(lambda x, y: np.ones_like(x * y), domain=(0.0, 1.0))
    Kc = gk.OperatorKernel(rank1, gk.TaskCoupling.identity(1), p=2)
    with pytest.raises(SingularError):
        lebesgue_at(Kc, [0.2, 0.8], 0.5)


def test_interpolation_reproduction_at_centers():
    rng = np.random.default_rng(4)
    K = gk.OperatorKernel(gk.tfamily(0.5), gk.TaskCoupling.identity(1), p=2)
    centers = sample_centers(0.0, 1.0, 5, rng)
    for c in centers:
        assert lebesgue_at(K, centers, float(c)) == 1.0


def test_coupling_and_p_invariance():
    # the stability value is a property of the scalar factor alone
    rng = np.random.default_rng(21)
    couplings = [gk.TaskCoupling.identity(2), random_coupling(3, rng)]
    for _ in range(25):
        m = int(rng.integers(1, 6))
        centers = sample_centers(0.0, 1.0, m, rng)
        query = float(rng.uniform(0.02, 0.98))
        vals = []
        for coupling in couplings:
            for p in (1.0, 2.0):
                K = gk.OperatorKernel(gk.tfamily(0.7), coupling, p=p)
                vals.append(lebesgue_at(K, centers, query))
        assert max(vals) - min(vals) <= 1e-12
        # dense operator oracle: expand K[x] and the query column fully; the
        # column blocks are b_i * I, so the coupling cancels for every p
        coupling = couplings[1]
        K = gk.OperatorKernel(gk.tfamily(0.7), coupling, p=2.0)
        S = gram_assemble(K, centers)
        n = coupling.n
        g = gk.kernels.scalar_values(K.scalar, query, centers)
        big = np.kron(S.G, coupling.A)
        col = np.kron(g[:, None], coupling.A)
        blocks = np.linalg.solve(big, col).reshape(m, n, n)
        for p in (1.0, 2.0, math.inf):
            oracle = column_norm_sampled(blocks, p, rng)
            assert abs(oracle - vals[-1]) <= 1e-9 * max(1.0, vals[-1])


def test_scan_small_budget_bridge():
    res = lebesgue_scan(BRIDGE, SMALL)
    assert res.worst <= 1.0 + 1e-8
    # one (m, trial, worst) row per set, in scan order
    assert res.rows.shape == (SMALL.max_centers * SMALL.trials, 3)
    assert res.rows[:, :2].tolist() == [[m, t] for m in range(1, SMALL.max_centers + 1)
                                        for t in range(SMALL.trials)]
    assert res.centers is not None and res.query is not None


def test_scan_monotone_in_trials():
    base = lebesgue_scan(BRIDGE, SMALL)
    more = lebesgue_scan(BRIDGE, CertificationConfig(
        max_centers=SMALL.max_centers, grid_size=SMALL.grid_size,
        trials=SMALL.trials * 2, seed=SMALL.seed))
    assert more.worst >= base.worst
    # per-trial seeds are derived by counter: shared rows are identical
    base_rows = {(m, t): v for m, t, v in base.rows}
    for m, t, v in more.rows:
        if (m, t) in base_rows:
            assert base_rows[(m, t)] == v


def test_scan_monotone_in_grid():
    # the nested query sequence makes a larger grid probe a superset of
    # points; the golden refinement step converges from slightly different
    # brackets, so allow rounding-level slack on the refined maximum
    gauss = gk.custom(lambda x, y: np.exp(-((x - y) ** 2) * 8.0), domain=(0.0, 1.0))
    K = gk.OperatorKernel(gauss, gk.TaskCoupling.identity(1), p=2)
    cfg_small = CertificationConfig(max_centers=3, grid_size=64, trials=10, seed=3)
    cfg_big = CertificationConfig(max_centers=3, grid_size=256, trials=10, seed=3)
    small = lebesgue_scan(K, cfg_small).worst
    big = lebesgue_scan(K, cfg_big).worst
    assert big >= small * (1.0 - 1e-9)


def test_scan_singular_attaches_centers():
    rank1 = gk.custom(lambda x, y: np.ones_like(x * y), domain=(0.0, 1.0))
    Kc = gk.OperatorKernel(rank1, gk.TaskCoupling.identity(1), p=2)
    with pytest.raises(SingularError) as exc:
        lebesgue_scan(Kc, SMALL)
    assert exc.value.centers is not None and len(exc.value.centers) >= 2


def test_scan_requires_bounded_domain():
    K = gk.OperatorKernel(gk.exponential(), gk.TaskCoupling.identity(1), p=2)
    with pytest.raises(DomainError):
        lebesgue_scan(K, SMALL)


def test_config_validation():
    with pytest.raises(ValueError):
        CertificationConfig(max_centers=0)
    with pytest.raises(ValueError):
        CertificationConfig(tolerance=0.0)
    with pytest.raises(ValueError, match="seed"):
        CertificationConfig(seed=-1)


# 2**64 + 3 takes two 64-bit seed words, and shares its low word with 3
DRAW_SEEDS = [0, 1201, 2**32 + 5, 2**64 + 3]
WENDLAND = gk.OperatorKernel(gk.wendland(), gk.TaskCoupling.identity(1), p=2)


def test_splitmix64_oracle_matches_published_outputs():
    # the first outputs of SplitMix64 seeded with 1234567 (Vigna's splitmix64.c)
    assert [splitmix64(1234567, i) for i in range(5)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821]


@pytest.mark.parametrize("seed", DRAW_SEEDS)
def test_center_stacks_match_per_trial_oracle(seed):
    for spec in (gk.wendland(), gk.exponential((-2.0, 2.0)), gk.exponential((-2.5, 2.5))):
        lo, hi = spec.domain
        K = gk.OperatorKernel(spec, gk.TaskCoupling.identity(1), p=2)
        for m, X in _center_stacks(K, CertificationConfig(trials=40, seed=seed)):
            for trial, row in enumerate(X):
                assert (row == trial_centers(seed, lo, hi, m, trial)).all(), (m, trial)


def test_center_stacks_extend_by_prefix():
    # set k of size m depends on (seed, m, k) alone: a larger budget keeps
    # every earlier set
    big = dict(_center_stacks(WENDLAND, CertificationConfig(max_centers=6, trials=200, seed=9)))
    fewer_trials = _center_stacks(WENDLAND, CertificationConfig(max_centers=6, trials=50, seed=9))
    assert all((X == big[m][:50]).all() for m, X in fewer_trials)
    fewer_sizes = dict(_center_stacks(WENDLAND, CertificationConfig(max_centers=4, seed=9)))
    assert list(fewer_sizes) == [1, 2, 3, 4]
    assert all((X == big[m]).all() for m, X in fewer_sizes.items())


def test_every_seed_word_moves_the_draws():
    a, b = (dict(_center_stacks(WENDLAND, CertificationConfig(max_centers=3, trials=20, seed=s)))
            for s in (3, 2**64 + 3))
    assert all(not np.isin(a[m], b[m]).any() for m in a)
    # the key separates the streams of one seed
    assert not np.isin(_uniform(3, 0, 64, 0.0, 1.0), _uniform(3, 1, 64, 0.0, 1.0)).any()
    # a numpy integer seed draws as the Python int
    assert (_uniform(np.int64(3), 1, 64, 0.0, 1.0) == _uniform(3, 1, 64, 0.0, 1.0)).all()


@pytest.mark.parametrize("spec", [gk.wendland(), gk.exponential((-2.0, 2.0)),
                                  gk.ScalarKernelSpec("wendland", domain=(0.2, 0.9))],
                         ids=["(0,1)", "(-2,2)", "(0.2,0.9)"])
def test_center_stacks_keep_the_separation_inside_the_domain(spec):
    # the rank shift always succeeds, far beyond the 50 centers at which
    # rejection gave up
    lo, hi = spec.domain
    K = gk.OperatorKernel(spec, gk.TaskCoupling.identity(1), p=2)
    for m, X in _center_stacks(K, CertificationConfig(max_centers=100, trials=20, seed=4)):
        assert X.shape == (20, m)
        assert (np.diff(X, axis=1) >= (hi - lo) / (10.0 * m)).all()
        assert (X > lo).all() and (X < hi).all()


def test_rank_shift_draws_the_rejection_law():
    # the rank-shift sets and sample_centers' rejection sets have one law:
    # a two-sample Kolmogorov-Smirnov test at m = 3 on x_1, x_m and the
    # smallest gap, each to pass at p > 1e-3 (threshold fixed before the
    # first run)
    X = dict(_center_stacks(WENDLAND, CertificationConfig(max_centers=3, trials=4000, seed=5)))[3]
    rng = np.random.default_rng(5)
    R = np.array([sample_centers(0.0, 1.0, 3, rng) for _ in range(4000)])
    for stat in (lambda S: S[:, 0], lambda S: S[:, -1], lambda S: np.diff(S).min(axis=1)):
        assert scipy.stats.ks_2samp(stat(X), stat(R)).pvalue > 1e-3


def test_a2_sample_draws_the_key_0_stream():
    seen = []

    def ones(x, y):
        seen.append(np.broadcast_to(x, np.broadcast_shapes(x.shape, y.shape))[:, 0].copy())
        return np.ones(np.broadcast_shapes(x.shape, y.shape))

    cfg = CertificationConfig(grid_size=64, seed=2**64 + 3)
    assert _a2_sample(gk.OperatorKernel(gk.custom(ones, (-2.0, 2.0)),
                                        gk.TaskCoupling.identity(1), p=2), cfg) == 1.0
    # the x column of every row-block call, in order
    expected = [hash_uniform(cfg.seed, 0, i, -2.0, 2.0) for i in range(512)]
    assert (np.concatenate(seen)[64:] == expected).all()


def test_grid_scan_memory_is_bounded():
    # the custom-kernel scan stacks its sets in chunks: 200 sets of 6 centers
    # against 4,098 probes peaked at 112.8 MiB in one stack, and 3.0 MiB in
    # blocks of 1 MiB temporaries; at 128 KiB it peaks at 0.84 MiB.  The
    # chunks change no byte (test_scan_blocks_change_nothing); the digest pins the
    # rank-shift draws, of which one 6-center Gram fails the singularity rule
    # (about 1.2 per 200 at m = 6 under either sampler, so a1 fails at most
    # seeds)
    spec = gk.custom(lambda x, y: np.exp(-((x - y) ** 2)), domain=(0.0, 1.0))
    K = gk.OperatorKernel(spec, gk.TaskCoupling.identity(2), p=2)
    tracemalloc.start()
    try:
        report = certify(K, CertificationConfig(max_centers=6, grid_size=4096, trials=200))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20
    text = json.dumps(report.to_dict(), indent=2) + scan_rows_csv(report.rows)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "36923f7d871b6723d40baa77f7586e14b1b7821645feda52b2a8e0a98c2c10bb")


def _traced_peak(func):
    tracemalloc.start()
    try:
        func()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec,cfg,limit", [
    # a builtin kernel's a2 is its closed-form bound, so the a4 scan of 200
    # sets per size is all that runs: it peaks at 0.27 MiB (the a2 pair
    # probe it no longer runs peaked at 16.3 MiB in one block, 0.43 MiB in
    # 1 MiB rows)
    (gk.wendland(), CertificationConfig(), 0.375 * 2**20),
    # all 2,000 sets of a size in one stack peaked at 28.9 MiB, and 8.4 MiB
    # in 1 MiB blocks with a list of row tuples (about 4.6 MiB); the rows
    # array takes 0.9 MiB of its 2.6 MiB
    (gk.tfamily(1.0), CertificationConfig(max_centers=20, trials=2000), 3.5 * 2**20),
], ids=["wendland 6x200", "tfamily t=1 20x2000"])
def test_builtin_certify_memory_is_bounded(spec, cfg, limit):
    K = gk.OperatorKernel(spec, gk.TaskCoupling.identity(2), p=2)
    assert _traced_peak(lambda: certify(K, cfg)) <= limit


def test_a2_sample_memory_is_bounded():
    # blocks of 16 rows of the 1,024 pair points: about three 1 MiB blocks
    # of rows were alive at once, a peak of 3.0 MiB; now 0.39 MiB.  Only a
    # custom kernel reaches the sample; a builtin one has its closed form
    gauss = gk.custom(lambda x, y: np.exp(-((x - y) ** 2)), domain=(0.0, 1.0))
    K = gk.OperatorKernel(gauss, gk.TaskCoupling.identity(2), p=2)
    assert _traced_peak(lambda: _a2_sample(K, CertificationConfig())) < 0.5 * 2**20


@pytest.mark.parametrize("spec", [
    gk.tfamily(0.5),  # every set ties at 1: the witness is the first set
    gk.tfamily(-1.0),  # a4 fails: the witness is a set with a value above 1
    # singular sets at m = 5 and 6
    gk.custom(lambda x, y: np.exp(-0.05 * (x - y) ** 2), domain=(0.0, 1.0)),
    gk.custom(lambda x, y: 1.0 + np.abs(x - y), domain=(0.0, 1.0)),  # not SPD
], ids=["tfamily t=0.5", "tfamily t=-1", "wide gaussian", "indefinite"])
def test_scan_blocks_change_nothing(spec, monkeypatch):
    # the default takes every size in one block.  At a budget of 8 values a
    # block holds 1 to 8 sets; at 100 it holds 2 to 60 sets, while a custom
    # kernel's probe sub-block (66 queries per center) holds one set
    K = gk.OperatorKernel(spec, gk.TaskCoupling.identity(2), p=2)
    cfg = CertificationConfig(max_centers=6, grid_size=64, trials=60, seed=3)

    def run():
        report = certify(K, cfg)
        text = json.dumps(report.to_dict(), indent=2) + scan_rows_csv(report.rows)
        return _scan_sets(K, cfg), text

    scan, text = run()
    for budget in (8, 100):
        monkeypatch.setattr(admissibility, "PROBE_CHUNK", budget)
        blocked, blocked_text = run()
        assert blocked_text == text
        assert blocked.centers.tolist() == scan.centers.tolist()
        assert ((blocked.worst, blocked.query, blocked.method)
                == (scan.worst, scan.query, scan.method))
        assert np.array_equal(blocked.rows, scan.rows) and blocked.singular == scan.singular
        assert (blocked.worst_cond, blocked.cholesky_ok) == (scan.worst_cond, scan.cholesky_ok)


def test_certify_passes_for_stable_kernel():
    A = np.array([[2.0, 0.4], [0.4, 1.0]])
    K = gk.OperatorKernel(gk.tfamily(0.7), gk.TaskCoupling.from_matrix(A), p=2)
    report = certify(K, SMALL)
    assert report.verdict["a1"] == "pass"
    assert report.verdict["a2"] == "pass"
    assert report.verdict["a3"] == "implied"
    assert report.verdict["a4"] == "pass"
    assert report.verdict["overall"] == "pass"
    assert report.a1["worst_cond"] >= 1.0
    assert report.a2["method"] == "proof"
    data = report.to_dict()
    assert set(data) == {"kernel", "config", "a1", "a2", "a4", "verdict"}
    # builtin family: exact per-set suprema, no query grid probed
    assert data["a4"]["method"] == "breakpoint-exact"
    evidence = data["verdict"]["evidence"]
    assert evidence["queries_per_set"] is None and evidence["refine_iters"] is None
    assert evidence["center_sets"] == SMALL.max_centers * SMALL.trials


def test_builtin_certify_takes_a2_from_the_closed_form(monkeypatch):
    # the pair sample runs for custom kernels only
    def no_sample(kernel, cfg):
        raise AssertionError("a builtin certify drew the a2 pair sample")

    gauss = gk.OperatorKernel(gk.custom(lambda x, y: np.exp(-((x - y) ** 2)), (0.0, 1.0)),
                              gk.TaskCoupling.identity(2), p=2)
    assert certify(gauss, SMALL).a2["method"] == "sampled"
    monkeypatch.setattr(admissibility, "_a2_sample", no_sample)
    for spec in (gk.tfamily(0.5), gk.wendland(), gk.exponential((-2.0, 2.0)),
                 gk.combination(1.0, 2.0, t=-1.0)):
        K = gk.OperatorKernel(spec, gk.TaskCoupling.identity(2), p=2)
        report = certify(K, SMALL)
        assert report.a2 == {"kappa": scalar_uniform_bound(spec), "method": "proof",
                             "max_abs_scalar": scalar_uniform_bound(spec)}
        assert report.verdict["a2"] == "pass"


def test_certify_gaussian_counterexample():
    # clustered Gaussian cardinal weights overshoot: the scan must find a
    # witness above 1 within the default budget at the pinned seed
    gauss = gk.custom(lambda x, y: np.exp(-((x - y) ** 2)), domain=(0.0, 1.0))
    K = gk.OperatorKernel(gauss, gk.TaskCoupling.identity(2), p=2)
    report = certify(K, CertificationConfig(max_centers=4, grid_size=128, trials=30, seed=0))
    assert report.a4["worst"] > 1.0
    assert report.verdict["a4"] == "fail"
    assert report.verdict["a3"] == "not-directly-testable"
    assert report.a4["centers"] is not None
    assert report.a4["method"] == "grid-golden"
    assert report.verdict["evidence"]["queries_per_set"] == 128 + 2  # grid + endpoints
    assert report.verdict["evidence"]["refine_iters"] == 30
    # the witness is reproducible: evaluating it directly recovers the value
    direct = lebesgue_at(K, report.a4["centers"], report.a4["query"])
    assert direct == pytest.approx(report.a4["worst"], rel=1e-9)


def test_certify_single_center_edge():
    cfg = CertificationConfig(max_centers=1, grid_size=64, trials=10, seed=1)
    report = certify(BRIDGE, cfg)
    assert report.verdict["a4"] == "pass"
    assert len(report.rows) == 10


def test_certify_deterministic():
    r1 = certify(BRIDGE, SMALL).to_dict()
    r2 = certify(BRIDGE, SMALL).to_dict()
    assert r1 == r2


def test_certify_records_singular_sets_under_a1():
    # near-rank-1 kernel: every multi-center Gram collapses; certify must
    # report rather than raise
    flat = gk.custom(lambda x, y: 1.0 + 0.0 * (x * y), domain=(0.0, 1.0))
    K = gk.OperatorKernel(flat, gk.TaskCoupling.identity(1), p=2)
    cfg = CertificationConfig(max_centers=2, grid_size=16, trials=5, seed=2)
    report = certify(K, cfg)
    assert report.verdict["a1"] == "fail"
    assert len(report.a1["singular"]) == 5  # all m=2 trials collapse
    assert report.verdict["overall"] == "fail"


def test_certify_no_evidence_when_everything_singular():
    zero = gk.custom(lambda x, y: 0.0 * (x * y), domain=(0.0, 1.0))
    K = gk.OperatorKernel(zero, gk.TaskCoupling.identity(1), p=2)
    cfg = CertificationConfig(max_centers=2, grid_size=16, trials=3, seed=2)
    report = certify(K, cfg)
    assert report.a4["worst"] is None
    assert report.verdict["a4"] == "fail"
    assert report.a1["worst_cond"] is None and report.a1["cholesky_ok"] is None


NON_FINITE_KERNELS = [
    # (name, kernel, scanned sets whose value is NaN, of 60 sets)
    # NaN beyond distance 0.9: 18 sets record NaN, and a4 passed
    ("nan far", lambda x, y: np.where(np.abs(x - y) > 0.9, np.nan, np.exp(-np.abs(x - y))), 18),
    # NaN at every probe: a4.worst read -inf, invalid JSON, and a4 passed
    ("nan off the diagonal", lambda x, y: np.where(x == y, 1.0, np.nan), 20),
    # NaN only at the first grid probe 0.5: the golden-section step replaced
    # every set's NaN top probe by a finite value, and certify passed
    ("nan at q = 0.5", lambda x, y: np.where((x == 0.5) | (y == 0.5), np.nan,
                                             np.exp(-np.abs(x - y))), 60),
    # an infinite diagonal: every Gram is singular, kappa read inf and a2 passed
    ("inverse distance", lambda x, y: 1.0 / np.abs(x - y), 0),
]


@pytest.mark.parametrize("func,nan_sets", [k[1:] for k in NON_FINITE_KERNELS],
                         ids=[k[0] for k in NON_FINITE_KERNELS])
def test_non_finite_evidence_never_passes(func, nan_sets):
    K = gk.OperatorKernel(gk.custom(func, domain=(0.0, 1.0)), gk.TaskCoupling.identity(2), p=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        report = certify(K, CertificationConfig(max_centers=3, grid_size=64, trials=20))
    assert report.a2["max_abs_scalar"] is None
    # no evidence where no Gram passes the singularity rule (inverse distance)
    no_gram = len(report.rows) == 0
    assert (report.a1["worst_cond"] is None) == (report.a1["cholesky_ok"] is None) == no_gram
    json.dumps(report.to_dict(), allow_nan=False)
    verdict = report.verdict
    assert (verdict["a2"], verdict["a4"], verdict["overall"]) == ("fail", "fail", "fail")
    assert int(np.isnan(report.rows[:, 2]).sum()) == nan_sets
    worst = report.a4["worst"]
    assert worst is None or math.isfinite(worst)
    assert (worst is None) == (report.a4["centers"] is None)


def test_certify_with_p_infinity():
    A = np.array([[2.0, 0.4], [0.4, 1.0]])
    K = gk.OperatorKernel(gk.wendland(), gk.TaskCoupling.from_matrix(A),
                          p=math.inf)
    report = certify(K, CertificationConfig(max_centers=2, grid_size=32,
                                            trials=5, seed=4))
    # p=inf -> q=1 coupling norm by sign enumeration
    best = max(np.abs(A @ np.array(s)).sum()
               for s in [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    assert report.a2["kappa"] == pytest.approx(best, rel=1e-12)
    assert report.verdict["a4"] == "pass"


def test_scan_report_and_csv_shapes():
    res = lebesgue_scan(BRIDGE, SMALL)
    data = scan_report_dict(BRIDGE, SMALL, res)
    assert set(data) == {"kernel", "config", "a4", "verdict"}
    assert data["verdict"]["a4"] == "pass"
    assert data["a4"]["method"] == "breakpoint-exact"
    text = scan_rows_csv(res.rows)
    lines = text.strip().splitlines()
    assert lines[0] == "m,trial,worst_lambda"
    assert len(lines) == 1 + len(res.rows)
    m, t, v = lines[1].split(",")
    assert int(m) == 1 and int(t) == 0
    float(v)


def test_sampled_centers_respect_separation():
    rng = np.random.default_rng(0)
    for m in (2, 5, 8):
        pts = sample_centers(0.0, 1.0, m, rng)
        assert np.diff(pts).min() >= 1.0 / (10.0 * m)
        assert 0.0 < pts[0] and pts[-1] < 1.0


# ---------------------------------------------------------------------------
# exact breakpoint supremum (builtin families) and the grid path (custom)
# ---------------------------------------------------------------------------

BUILTIN_VARIANTS = [
    ("brownianbridge", gk.brownian_bridge()),
    ("tfamily t=-1", gk.tfamily(-1.0)),
    ("tfamily t=-0.5", gk.tfamily(-0.5)),
    ("tfamily t=0", gk.tfamily(0.0)),
    ("tfamily t=0.5", gk.tfamily(0.5)),
    ("tfamily t=1", gk.tfamily(1.0)),
    ("wendland", gk.wendland()),
    ("wendland (0.2,0.9)", gk.ScalarKernelSpec("wendland", domain=(0.2, 0.9))),
    ("exponential (-2,2)", gk.exponential((-2.0, 2.0))),
    ("combination 1,1", gk.combination(1.0, 1.0)),
    ("combination 1,2 t=-1", gk.combination(1.0, 2.0, t=-1.0)),
]


def _dense_oracle(spec, centers, grid_size=20_000):
    """sup of Lambda over a dense uniform grid, refined by bounded scalar
    minimization between the neighbours of the best grid point; plain
    dense solves, independent of the library's factorization."""
    lo, hi = spec.domain
    G = gk.kernels.scalar_values(spec, centers[:, None], centers[None, :])

    def lam(q):
        g = gk.kernels.scalar_values(spec, np.atleast_1d(q)[None, :], centers[:, None])
        return np.abs(np.linalg.solve(G, g)).sum(axis=0)

    grid = np.linspace(lo, hi, grid_size + 2)[1:-1]
    vals = lam(grid)
    k = int(np.argmax(vals))
    left, right = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    res = scipy.optimize.minimize_scalar(lambda q: -lam(q)[0], bounds=(left, right),
                                         method="bounded", options={"xatol": 1e-14})
    return max(float(vals[k]), -float(res.fun))


@pytest.mark.parametrize("name,spec", BUILTIN_VARIANTS, ids=[v[0] for v in BUILTIN_VARIANTS])
def test_breakpoint_sup_dominates_dense_oracle(name, spec):
    K = gk.OperatorKernel(spec, gk.TaskCoupling.identity(1), p=2)
    cfg = CertificationConfig(max_centers=6, trials=20, seed=11)
    method, set_sup = _set_sup(K, cfg)
    assert method == "breakpoint-exact"
    sets = {}
    for m, X in _center_stacks(K, cfg):  # 6 stacks of 20 seeded sets
        sets[m] = X
        for centers, worst, query in zip(X, *set_sup(X, gram_stack(K, X)[0]), strict=True):
            assert _dense_oracle(spec, centers) <= worst + 1e-10
            # the reported value is the one computed at the witness
            assert lebesgue_at(K, centers, query) == worst
    # every row of the scan is the larger of 1 and the values at the floats
    # nearest the domain endpoints, inside the domain
    lo, hi = spec.domain
    ends = (np.nextafter(lo, hi), np.nextafter(hi, lo))
    for m, trial, val in lebesgue_scan(K, cfg).rows:
        centers = sets[int(m)][int(trial)]
        assert val == max(1.0, *(lebesgue_at(K, centers, q) for q in ends))


@pytest.mark.parametrize("t", [-1.0, -0.5])
def test_negative_t_scan_rows_match_closed_form(t):
    # every per-set supremum, not only the scan's worst, is the proven
    # (1 + |t|)/(1 + |t| x_m), including sets whose last center lies beyond
    # the last point 0.998 of a 512-point grid
    K = gk.OperatorKernel(gk.tfamily(t), gk.TaskCoupling.identity(1), p=2)
    cfg = CertificationConfig(max_centers=6, grid_size=512, trials=200, seed=42)
    res = lebesgue_scan(K, cfg)
    assert res.method == "breakpoint-exact"
    s = -t
    sets = [(m, trial, centers) for m, X, *_ in _center_stacks(K, cfg)
            for trial, centers in enumerate(X)]
    for (m, trial, val), (m2, trial2, centers) in zip(res.rows, sets, strict=True):
        assert (m, trial) == (m2, trial2)
        closed = (1.0 + s) / (1.0 + s * centers[-1])
        assert abs(val - closed) <= 1e-12 * closed


def test_grid_scan_probes_domain_endpoints():
    # custom kernel equal to tfamily(-1): the supremum 2/(1 + x_m) is the
    # limit q -> 1, beyond the last grid point 0.998 of a 512-point grid
    spec = gk.custom(lambda x, y: np.minimum(x, y) + x * y, domain=(0.0, 1.0))
    K = gk.OperatorKernel(spec, gk.TaskCoupling.identity(1), p=2)
    method, set_sup = _set_sup(K, CertificationConfig(grid_size=512))
    assert method == "grid-golden"
    centers = np.array([0.5, 0.9995])
    (worst,), (query,) = set_sup(centers[None], gram_assemble(K, centers).G[None])
    assert abs(worst - 2.0 / 1.9995) <= 1e-12
    assert lebesgue_at(K, centers, query) == worst


def test_scan_holds_every_gram_to_the_singularity_rule():
    # Cholesky accepts some of these Grams, but their smallest singular value
    # is below PIVOT_RTOL * max|G| (1.9e-13 at m = 6, trial 0): solving with
    # them raised a bare LinAlgError out of certify
    wide = gk.custom(lambda x, y: np.exp(-0.05 * (x - y) ** 2), domain=(0.0, 1.0))
    K = gk.OperatorKernel(wide, gk.TaskCoupling.identity(1), p=2)
    report = certify(K, CertificationConfig(seed=0))
    assert report.verdict["a1"] == "fail"
    assert Counter(len(c) for c in report.a1["singular"]) == {5: 60, 6: 200}
    assert report.verdict["evidence"]["center_sets"] == 1200
    first = np.array(report.a1["singular"][0])
    np.linalg.cholesky(gk.kernels.scalar_values(wide, first[:, None], first[None, :]))
    with pytest.raises(SingularError) as exc:
        lebesgue_scan(K, CertificationConfig(seed=0))
    assert exc.value.centers.tolist() == report.a1["singular"][0]


def test_gram_assemble_follows_the_scan_singularity_rule():
    # one rule for every Gram: gram_assemble raises SingularError exactly for
    # the sets the scan marks singular.  Cholesky accepts the first of them
    # (m = 5, sigma_min 1.7e-13 against max|G| ~ 1), and gram_assemble once
    # returned such a set as "cholesky": on the first singular set of the
    # earlier draws lebesgue_at read 50.2 at q = 0.01
    wide = gk.custom(lambda x, y: np.exp(-0.05 * (x - y) ** 2), domain=(0.0, 1.0))
    K = gk.OperatorKernel(wide, gk.TaskCoupling.identity(1), p=2)
    singular = []
    for m, X in _center_stacks(K, CertificationConfig(seed=0)):
        for centers, good in zip(X, gram_stack(K, X)[1]):
            if good:
                assert gram_assemble(K, centers).m == m
            else:
                with pytest.raises(SingularError):
                    gram_assemble(K, centers)
                singular.append(centers)
    first = singular[0]
    assert np.abs(first - [0.3834, 0.5134, 0.7473, 0.7807, 0.8573]).max() < 1e-4
    for q in (0.01, 0.5, 0.99):
        with pytest.raises(SingularError):
            lebesgue_at(K, first, q)


def _cholesky_accepts(G):
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return True


GRAM_TEST_VARIANTS = BUILTIN_VARIANTS + [
    # nonsingular Grams that are not SPD beyond one center
    ("indefinite", gk.custom(lambda x, y: 1.0 + np.abs(x - y), domain=(0.0, 1.0))),
    # symmetric only up to rounding: G - G.T reaches 2.2e-16
    ("near-symmetric gaussian",
     gk.custom(lambda x, y: np.exp(-4.0 * (x * x - 2.0 * x * y + y * y)), domain=(0.0, 1.0))),
]


@pytest.mark.parametrize("name,spec", GRAM_TEST_VARIANTS, ids=[v[0] for v in GRAM_TEST_VARIANTS])
def test_one_gram_test_agrees_with_cholesky_and_cond(name, spec):
    # gram_stack decides SPD-ness and the condition number from one eigvalsh:
    # kind and a1.cholesky_ok agree with Cholesky acceptance, and
    # a1.worst_cond with the largest np.linalg.cond (an SVD) over the scanned
    # Grams, to the eigenvalue perturbation bound eps * cond relative
    K = gk.OperatorKernel(spec, gk.TaskCoupling.identity(1), p=2)
    cfg = CertificationConfig(max_centers=6, grid_size=64, trials=20, seed=5)
    accepted, conds, asymmetry = [], [], 0.0
    for _, X in _center_stacks(K, cfg):
        for centers in X:
            try:
                S = gram_assemble(K, centers)
            except SingularError:
                continue
            accepted.append(_cholesky_accepts(S.G))
            assert S.kind == ("cholesky" if accepted[-1] else "lu")
            conds.append(np.linalg.cond(S.G))
            asymmetry = max(asymmetry, float(np.abs(S.G - S.G.T).max()))
    assert (asymmetry > 0.0) == (name == "near-symmetric gaussian")
    report = certify(K, cfg)  # cond(A) = 1: a1.worst_cond is the scan's own
    assert len(conds) == len(report.rows)
    assert report.a1["cholesky_ok"] == all(accepted)
    assert all(accepted) == (name != "indefinite")
    got, worst, eps = report.a1["worst_cond"], max(conds), np.finfo(float).eps
    assert abs(got - worst) <= 64 * eps * got * worst
