"""Acceptance suite: each criterion runs at its stated tolerance and
prints one pass/fail line (run with ``pytest -s`` to see them live).

Criterion 2 asserts the stability bound sup_q Lambda <= 1 (a4) for the
admissible families.  For the t=-1 and t=-0.5 members of the
min{x,y} - t*x*y family a4 is provably false, and criterion 2 asserts that
the scan refutes it correctly instead: for t = -s < 0 and centers
x_1 < ... < x_m, Lambda(q) = 1 between centers, q/x_1 below x_1, and
(1 + s*q)/(1 + s*x_m) beyond x_m, so sup_q Lambda = (1 + s)/(1 + s*x_m),
strictly between 1 and 1 + |t|.  The scan's worst value must exceed the
bound, match that closed form at its witness centers, reproduce through
lebesgue_at, and yield an a4 "fail" verdict.
"""

import functools
import math
import time
from pathlib import Path

import numpy as np
import pytest

import groupkernels as gk
from groupkernels.admissibility import (
    CertificationConfig,
    certify,
    det_tfamily_closed_form,
    lebesgue_at,
    lebesgue_scan,
    scan_report_dict,
)
from groupkernels.blocklinalg import (
    BlockVector,
    block_inverse_2x2,
    block_norms,
    gram_assemble,
    lp1_norm,
)
from groupkernels.cli import run
from groupkernels.solvers import (
    LearnConfig,
    block_soft_threshold,
    expansion_sup_norm,
    fit_admm,
    fit_regularized,
    group_basis_pursuit,
    min_norm_interpolant,
    predict_many,
)

from helpers import ADMISSIBLE_SPECS, random_coupling, random_sites, sample_centers
from test_solvers import prox_bruteforce, threshold_lambda


def _check(name, ok, detail=""):
    print(f"\n{name}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip())
    assert ok, f"{name}  {detail}"


# ---------------------------------------------------------------------------
# C1  determinant oracle
# ---------------------------------------------------------------------------

def test_c01_determinant_oracle():
    t_grid = (-1.0, -0.5, 0.0, 0.5, 1.0)
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        centers = sample_centers(0.0, 1.0, m, rng)
        for t in t_grid:
            closed = det_tfamily_closed_form(centers, t)
            K = gk.OperatorKernel(gk.tfamily(t), gk.TaskCoupling.identity(1), p=2)
            lu = float(np.linalg.det(gram_assemble(K, centers).G))
            worst = max(worst, abs(closed - lu) / abs(closed))
    elapsed = time.perf_counter() - t0
    _check("C1 determinant oracle", worst <= 1e-10 and elapsed < 5.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s over 5000 dets")


# ---------------------------------------------------------------------------
# C2  stability scans at the pinned budget
# ---------------------------------------------------------------------------

SCAN_CASES = [
    ("tfamily t=-1.0", gk.tfamily(-1.0)),
    ("tfamily t=-0.5", gk.tfamily(-0.5)),
    ("tfamily t=0.0", gk.tfamily(0.0)),
    ("tfamily t=0.5", gk.tfamily(0.5)),
    ("tfamily t=1.0", gk.tfamily(1.0)),
    ("wendland", gk.wendland()),
    ("exponential [-2,2]", gk.exponential((-2.0, 2.0))),
    ("combination C1=C2=1", gk.combination(1.0, 1.0)),
]
SCAN_CONFIG = CertificationConfig(max_centers=6, grid_size=512, trials=200, seed=42)


@functools.cache
def _scan(name):
    """(kernel, scan result, seconds) for one C2 case, scanned once per session."""
    K = gk.OperatorKernel(dict(SCAN_CASES)[name], gk.TaskCoupling.identity(1), p=2)
    t0 = time.perf_counter()
    res = lebesgue_scan(K, SCAN_CONFIG)
    return K, res, time.perf_counter() - t0


@pytest.mark.parametrize("name,spec", SCAN_CASES, ids=[c[0] for c in SCAN_CASES])
def test_c02_stability_scan(name, spec):
    K, res, _ = _scan(name)
    detail = (f"worst {res.worst:.12f} at query {res.query:.6f}, "
              f"centers {np.round(res.centers, 4).tolist()}")
    if not (spec.family == "tfamily" and spec.t < 0):
        _check(f"C2 scan {name}", res.worst <= 1.0 + 1e-8, detail)
        return
    # a4 is false for t < 0: the scan must refute it at the proven supremum
    s = -spec.t
    closed = (1.0 + s) / (1.0 + s * float(np.max(res.centers)))
    refuted = (
        res.worst > 1.0 + SCAN_CONFIG.tolerance
        and res.worst < 1.0 + s
        and abs(res.worst - closed) <= 1e-8 * closed
        and math.isclose(lebesgue_at(K, res.centers, res.query), res.worst,
                         rel_tol=1e-12)
        and scan_report_dict(K, SCAN_CONFIG, res)["verdict"]["a4"] == "fail"
    )
    _check(f"C2 scan {name} refutes a4", refuted,
           f"{detail}, closed form {closed:.12f}")


def test_c02_scan_runtime_budget():
    total = sum(_scan(name)[2] for name, _ in SCAN_CASES)
    _check("C2 scan runtime", total < 60.0, f"{total:.1f}s for all scans")


# ---------------------------------------------------------------------------
# C3  coupling and exponent invariance of the stability value
# ---------------------------------------------------------------------------

def test_c03_coupling_p_invariance():
    rng = np.random.default_rng(33)
    couplings = [gk.TaskCoupling.identity(2), random_coupling(3, rng)]
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 6))
        centers = sample_centers(0.0, 1.0, m, rng)
        query = float(rng.uniform(0.01, 0.99))
        vals = [
            lebesgue_at(gk.OperatorKernel(gk.tfamily(0.7), coupling, p=p),
                        centers, query)
            for coupling in couplings for p in (1.0, 2.0)
        ]
        worst = max(worst, max(vals) - min(vals))
    _check("C3 coupling/p invariance", worst <= 1e-12,
           f"max spread {worst:.2e} over 100 probes x 4 configurations")


# ---------------------------------------------------------------------------
# C4  representer dominance of the exact solve
# ---------------------------------------------------------------------------

_DOM_TIMES = {}


@pytest.mark.parametrize("name,spec", ADMISSIBLE_SPECS, ids=[c[0] for c in ADMISSIBLE_SPECS])
def test_c04_representer_dominance(name, spec):
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    worst_margin = math.inf
    worst_resid = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 2.0]))
        coupling = (gk.TaskCoupling.identity(n)
                    if (rng.random() < 0.5 or n == 1) else random_coupling(n, rng))
        K = gk.OperatorKernel(spec, coupling, p=p)
        m = int(rng.integers(1, 6))
        extra = int(rng.integers(0, 4))
        sites = random_sites(K, m + extra, rng)
        cons = sites[np.sort(rng.choice(m + extra, size=m, replace=False))]
        y = BlockVector(rng.standard_normal((m, n)), p)
        exact = min_norm_interpolant(K, cons, y)
        bp = group_basis_pursuit(K, sites, cons, y)
        worst_margin = min(worst_margin, bp.norm_lp1 - exact.norm_lp1)
        worst_resid = max(worst_resid, bp.meta["primal_residual"],
                          bp.meta["dual_residual"])
    _DOM_TIMES[name] = time.perf_counter() - t0
    _check(f"C4 dominance {name}",
           worst_margin >= -1e-6 and worst_resid <= 1e-9,
           f"worst margin {worst_margin:.2e}, worst residual {worst_resid:.2e}, "
           f"200 instances")


def test_c04_dominance_runtime_budget():
    if len(_DOM_TIMES) < len(ADMISSIBLE_SPECS):
        pytest.skip("dominance cases did not all run")
    total = sum(_DOM_TIMES.values())
    _check("C4 dominance runtime", total < 120.0, f"{total:.1f}s for all kernels")


# ---------------------------------------------------------------------------
# C5  counterexample diagnostic on a kernel that violates the bound
# ---------------------------------------------------------------------------

def test_c05_gaussian_counterexample():
    gauss = gk.custom(lambda x, y: np.exp(-((x - y) ** 2)), domain=(0.0, 1.0))
    K = gk.OperatorKernel(gauss, gk.TaskCoupling.identity(2), p=2)
    report = certify(K, CertificationConfig(seed=0))  # default budget, pinned seed
    witness_ok = (report.a4["worst"] > 1.0 and report.a4["centers"] is not None
                  and report.verdict["a4"] == "fail")
    _check("C5 gaussian counterexample", witness_ok,
           f"worst {report.a4['worst']:.6g} at query {report.a4['query']:.6g}")


# ---------------------------------------------------------------------------
# C6  proximal-map oracle
# ---------------------------------------------------------------------------

def test_c06_prox_oracle():
    rng = np.random.default_rng(66)
    worst = 0.0
    for p in (1, 2):
        for _ in range(500):
            d = int(rng.integers(1, 4))
            z = rng.standard_normal(d) * rng.uniform(0.3, 3.0)
            tau = float(rng.uniform(0.0, 2.5))
            ours = block_soft_threshold(BlockVector(z[None, :], float(p)), tau, p).blocks[0]
            ref = prox_bruteforce(z, tau, p)
            worst = max(worst, float(np.abs(ours - ref).max()))
    _check("C6 prox oracle", worst <= 1e-6,
           f"worst coefficient gap {worst:.2e} over 500 pairs per exponent")


# ---------------------------------------------------------------------------
# C7  solver cross-check and the vanishing-penalty limit
# ---------------------------------------------------------------------------

def test_c07_fista_vs_admm():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, 4))
        if m * n > 30:
            n = max(1, 30 // m)
        p = float(rng.choice([1.0, 2.0]))
        K = gk.OperatorKernel(gk.exponential((-2.0, 2.0)), random_coupling(n, rng), p=p)
        x = random_sites(K, m, rng)
        y = BlockVector(rng.standard_normal((m, n)), p)
        lam = 0.2 * threshold_lambda(K, x, y) + 1e-3
        f = fit_regularized(K, x, y, LearnConfig(lam=lam, tol=1e-14, max_iters=400_000))
        a = fit_admm(K, x, y, LearnConfig(lam=lam, tol=1e-11, max_iters=400_000))
        rel = abs(f.meta["objective"] - a.meta["objective"]) / max(1e-30, a.meta["objective"])
        worst = max(worst, rel)
    _check("C7 fista vs admm", worst <= 1e-6,
           f"worst relative objective gap {worst:.2e} over 50 instances")


def test_c07_lambda_to_zero_limit():
    rng = np.random.default_rng(78)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 3))
        K = gk.OperatorKernel(gk.exponential((-2.0, 2.0)),
                              gk.TaskCoupling.identity(n), p=2)
        m = int(rng.integers(2, 5))
        x = np.sort(rng.uniform(-1.8, 1.8, size=m))
        while m > 1 and np.diff(x).min() < 0.5:
            x = np.sort(rng.uniform(-1.8, 1.8, size=m))
        y = BlockVector(rng.standard_normal((m, n)), 2)
        exact = min_norm_interpolant(K, x, y)
        model = fit_regularized(K, x, y,
                                LearnConfig(lam=1e-6, tol=1e-15, max_iters=400_000))
        worst = max(worst, float(np.abs(model.coeffs.blocks - exact.coeffs.blocks).max()))
    _check("C7 lambda->0 limit", worst <= 1e-4,
           f"worst coefficient gap {worst:.2e} over 10 instances")


# ---------------------------------------------------------------------------
# C8  block inversion identity
# ---------------------------------------------------------------------------

def test_c08_block_inversion():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 5))
        l = int(rng.integers(1, 5))
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        A = q @ np.diag(rng.uniform(0.5, 2.0, size=k)) @ q.T
        q, _ = np.linalg.qr(rng.standard_normal((l, l)))
        D = q @ np.diag(rng.uniform(0.5, 2.0, size=l)) @ q.T
        B = 0.3 * rng.standard_normal((k, l))
        C = 0.3 * rng.standard_normal((l, k))
        tl, tr, bl, br = block_inverse_2x2(A, B, C, D)
        full = np.block([[A, B], [C, D]])
        inv = np.block([[tl, tr], [bl, br]])
        worst = max(worst, float(np.abs(full @ inv - np.eye(k + l)).max()))
    _check("C8 block inversion", worst <= 1e-10,
           f"worst identity deviation {worst:.2e} over 200 quadruples")


# ---------------------------------------------------------------------------
# C9  analysis bounds for finite expansions
# ---------------------------------------------------------------------------

def test_c09_point_evaluation_bound():
    rng = np.random.default_rng(99)
    couplings = [gk.TaskCoupling.identity(2), random_coupling(3, rng)]
    cert_cfg = CertificationConfig(max_centers=2, grid_size=64, trials=5, seed=0)
    kappas = {}
    worst_violation = -math.inf
    for _ in range(1000):
        _, spec = ADMISSIBLE_SPECS[int(rng.integers(0, len(ADMISSIBLE_SPECS)))]
        coupling = couplings[int(rng.integers(0, 2))]
        p = float(rng.choice([1.0, 2.0]))
        key = (spec.family, spec.t, spec.weights, coupling.n, p)
        K = gk.OperatorKernel(spec, coupling, p=p)
        if key not in kappas:
            kappas[key] = certify(K, cert_cfg).a2["kappa"]
        kappa = kappas[key]
        m = int(rng.integers(1, 6))
        sites = random_sites(K, m, rng)
        model = min_norm_interpolant(
            K, sites, BlockVector(rng.standard_normal((m, coupling.n)), p))
        lo, hi = spec.domain
        queries = rng.uniform(lo + 1e-6, hi - 1e-6, size=10)
        norms = block_norms(predict_many(model, queries), K.q)
        worst_violation = max(worst_violation,
                              float(norms.max() - kappa * model.norm_lp1))
    _check("C9 point-evaluation bound", worst_violation <= 1e-7,
           f"worst excess {worst_violation:.2e} over 1000 expansions")


def test_c09_pairing_bound():
    rng = np.random.default_rng(90)
    worst_violation = -math.inf
    for _ in range(1000):
        _, spec = ADMISSIBLE_SPECS[int(rng.integers(0, len(ADMISSIBLE_SPECS)))]
        n = int(rng.integers(1, 4))
        coupling = gk.TaskCoupling.identity(n) if n == 1 else random_coupling(n, rng)
        p = float(rng.choice([1.0, 2.0]))
        K = gk.OperatorKernel(spec, coupling, p=p)
        ma, mb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        za, wb = random_sites(K, ma, rng), random_sites(K, mb, rng)
        a = rng.standard_normal((ma, n))
        b = rng.standard_normal((mb, n))
        gmat = gk.kernels.scalar_values(spec, za[:, None], wb[None, :])
        pairing = float(np.einsum("ik,ij,kl,jl->", a, gmat, coupling.A, b))
        coeffs = BlockVector(b, p)
        gmodel = gk.FitModel(kernel=K, centers=wb, coeffs=coeffs,
                             norm_lp1=lp1_norm(coeffs))
        sup = expansion_sup_norm(gmodel, 1024)
        lhs = abs(pairing)
        rhs = lp1_norm(BlockVector(a, p)) * sup
        worst_violation = max(worst_violation, lhs - rhs)
    _check("C9 pairing bound", worst_violation <= 1e-7,
           f"worst excess {worst_violation:.2e} over 1000 expansions")


# ---------------------------------------------------------------------------
# C10  command-line determinism
# ---------------------------------------------------------------------------

def test_c10_cli_determinism(tmp_path):
    argv = ["certify", "--kernel", "tfamily", "--t", "1.0", "--p", "2",
            "--coupling", "identity:2", "--max-centers", "4", "--grid", "128",
            "--trials", "25", "--seed", "42", "--deterministic"]
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(argv + ["--out", out1]) == 0
    assert run(argv + ["--out", out2]) == 0
    same_certify = Path(out1).read_bytes() == Path(out2).read_bytes()

    argv2 = ["lebesgue-scan", "--kernel", "wendland", "--p", "1",
             "--coupling", "identity:1", "--max-centers", "3", "--grid", "64",
             "--trials", "10", "--seed", "5", "--deterministic"]
    s1, s2 = str(tmp_path / "s1.json"), str(tmp_path / "s2.json")
    assert run(argv2 + ["--out", s1]) == 0
    assert run(argv2 + ["--out", s2]) == 0
    same_scan = Path(s1).read_bytes() == Path(s2).read_bytes()
    _check("C10 cli determinism", same_certify and same_scan,
           "byte-identical reports across repeated runs")
