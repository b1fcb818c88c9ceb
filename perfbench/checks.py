"""Output checks that do not use the library under test.

Every check reads what a CLI command wrote and recomputes the quantity
it claims from the benchmark's own kernel formulas and the inputs the
benchmark generated.  A check returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import csv
import json

import numpy as np

# Stability bound slack; the same value `certify --tolerance` defaults to.
STABILITY_TOL = 1e-8
# Agreement of a recomputed stability value with the reported one.
WITNESS_TOL = 1e-9
# Interpolation and pursuit constraint residual, relative to max |Y|.
RESIDUAL_RTOL = 1e-8
# Group-lasso first-order residual, as a share of its value at C = 0.  The
# solver stops on a relative objective change of 1e-10, not on this
# residual, so a converged fit keeps a small nonzero one.
KKT_RTOL = 1e-3
# Pursuit norm above the site-restricted exact norm (C4 dominance).
DOMINANCE_RTOL = 1e-6
# Relative agreement of recomputed objectives and stored norms.
VALUE_RTOL = 1e-9
# Prediction error relative to sum_j |G(q, x_j)| |(C A)_j|: above the
# worst-case rounding of a length-m dot product, m * 1.1e-16 = 3.3e-13
# at m = 3000.
PREDICT_RTOL = 1e-12


def kernel(family: str, x, y, t: float | None = None, weights=None) -> np.ndarray:
    """Scalar kernel G(x, y) of a builtin family, broadcast over x and y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lo = np.minimum(x, y)
    gap = np.abs(x - y)
    if family == "tfamily":
        return lo - t * x * y
    if family == "wendland":
        return np.clip(1.0 - gap, 0.0, None)
    if family == "exponential":
        return np.exp(-gap)
    if family == "combination":
        c1, c2 = weights
        return c1 * (lo - t * x * y) + c2 * np.clip(1.0 - gap, 0.0, None)
    raise ValueError(f"no benchmark formula for family {family!r}")


def group_norms(c: np.ndarray) -> np.ndarray:
    return np.sqrt((c * c).sum(axis=1))


def _load_json(path, problems):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"cannot read {path.name}: {exc}")
        return None


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def stability_value(family, centers, query, t=None, weights=None) -> float:
    """sum_i |b_i| with G[x] b = G_x(query); exactly 1 at a center."""
    c = np.asarray(centers, dtype=float)
    if np.any(c == query):
        return 1.0
    g = kernel(family, c[:, None], c[None, :], t, weights)
    b = np.linalg.solve(g, kernel(family, c, query, t, weights))
    return float(np.abs(b).sum())


def check_stability_report(path, case: dict) -> list[str]:
    """certify / lebesgue-scan report: verdict and worst value match the
    expected outcome, and the worst value is reproduced at its witness."""
    problems: list[str] = []
    rep = _load_json(path, problems)
    if rep is None:
        return problems
    a4 = rep.get("a4", {})
    worst = a4.get("worst")
    verdict = rep.get("verdict", {}).get("a4")
    if not isinstance(worst, float):
        return problems + [f"a4.worst missing: {worst!r}"]
    lo_ok, hi_ok = case["worst_range"]
    if not lo_ok < worst <= hi_ok:
        problems.append(f"a4.worst {worst!r} outside ({lo_ok}, {hi_ok}]")
    if verdict != case["verdict"]:
        problems.append(f"a4 verdict {verdict!r}, expected {case['verdict']!r}")
    if "evidence" in rep.get("verdict", {}):
        sets = rep["verdict"]["evidence"].get("center_sets")
        if sets != case["center_sets"]:
            problems.append(f"{sets} center sets, expected {case['center_sets']}")
    centers, query = a4.get("centers"), a4.get("query")
    lo, hi = case["domain"]
    if not centers or len(centers) > case["max_centers"] or not lo < query < hi:
        problems.append(f"bad witness centers={centers!r} query={query!r}")
        return problems
    again = stability_value(case["family"], centers, query, case.get("t"), case.get("weights"))
    if abs(again - worst) > WITNESS_TOL * max(1.0, worst):
        problems.append(f"witness recomputes to {again!r}, report says {worst!r}")
    return problems


def _model(path, problems, centers, n):
    model = _load_json(path, problems)
    if model is None:
        return None
    c = np.asarray(model.get("coeffs"), dtype=float)
    got = np.asarray(model.get("centers"), dtype=float)
    if c.shape != (centers.size, n):
        problems.append(f"coefficient shape {c.shape}, expected {(centers.size, n)}")
        return None
    if got.shape != centers.shape or np.any(got != centers):
        problems.append("model centers differ from the centers sent")
        return None
    if not _close(float(model.get("norm_lp1", np.nan)), float(group_norms(c).sum()), VALUE_RTOL):
        problems.append("norm_lp1 disagrees with the stored coefficients")
    return c, model


def check_interpolant(path, family, x, y, A, **params) -> list[str]:
    """max |G C A - Y| recomputed from the written model."""
    problems: list[str] = []
    got = _model(path, problems, x, y.shape[1])
    if got is None:
        return problems
    c, _ = got
    g = kernel(family, x[:, None], x[None, :], **params)
    resid = float(np.abs(g @ c @ A - y).max())
    if not resid <= RESIDUAL_RTOL * max(1.0, float(np.abs(y).max())):
        problems.append(f"interpolation residual {resid:.3e}")
    return problems


def fista_kkt_residual(g, A, y, c, lam) -> float:
    """Prox-gradient residual of the group lasso 0.5||GCA - Y||^2 + lam sum ||c_i||_2.

    With step 1/L, C is optimal exactly when C = prox(C - grad/L); the
    residual is L * max_i ||C - prox(C - grad/L)||_2, in gradient units.
    """
    big_l = float(np.linalg.eigvalsh(g)[-1] ** 2 * np.linalg.eigvalsh(A)[-1] ** 2)
    grad = g @ (g @ c @ A - y) @ A
    z = c - grad / big_l
    shrink = np.maximum(1.0 - (lam / big_l) / np.maximum(group_norms(z), 1e-300), 0.0)
    step = c - z * shrink[:, None]
    return float(big_l * group_norms(step).max())


def _objective(g, A, c, y, lam, loss):
    w = g @ c @ A - y
    fit = 0.5 * float((w * w).sum()) if loss == "squared" else float(np.abs(w).sum())
    return fit + lam * float(group_norms(c).sum())


def check_fit(path, family, x, y, A, lam, loss, **params) -> list[str]:
    """Squared loss: group-lasso first-order residual.  Absolute loss: the
    recorded objective is reproduced and beats the zero expansion."""
    problems: list[str] = []
    got = _model(path, problems, x, y.shape[1])
    if got is None:
        return problems
    c, model = got
    g = kernel(family, x[:, None], x[None, :], **params)
    obj = _objective(g, A, c, y, lam, loss)
    meta_obj = model.get("meta", {}).get("objective")
    if not isinstance(meta_obj, float) or not _close(obj, meta_obj, VALUE_RTOL):
        problems.append(f"objective {meta_obj!r} recomputes to {obj!r}")
    if loss == "squared":
        kkt = fista_kkt_residual(g, A, y, c, lam)
        start = fista_kkt_residual(g, A, y, np.zeros_like(c), lam)
        if not kkt <= KKT_RTOL * start:
            problems.append(f"KKT residual {kkt:.3e} above {KKT_RTOL} of {start:.3e} at C = 0")
    elif not obj <= _objective(g, A, np.zeros_like(c), y, lam, loss):
        problems.append(f"objective {obj!r} worse than the zero expansion")
    return problems


def check_pursuit(path, family, x, extra, y, A, **params) -> list[str]:
    """Constraints hold at the sites, and the pursuit norm is at most the
    site-restricted exact interpolant's norm (C4 dominance)."""
    problems: list[str] = []
    centers = np.concatenate([x, extra])
    got = _model(path, problems, centers, y.shape[1])
    if got is None:
        return problems
    c, _ = got
    resid = float(np.abs(kernel(family, x[:, None], centers[None, :], **params) @ c @ A - y).max())
    if not resid <= RESIDUAL_RTOL * max(1.0, float(np.abs(y).max())):
        problems.append(f"constraint residual {resid:.3e}")
    g = kernel(family, x[:, None], x[None, :], **params)
    exact = float(group_norms(np.linalg.solve(g, y) @ np.linalg.inv(A)).sum())
    norm = float(group_norms(c).sum())
    if not norm <= exact * (1.0 + DOMINANCE_RTOL):
        problems.append(f"pursuit norm {norm!r} above site-restricted norm {exact!r}")
    return problems


def check_predictions(path, model_path, family, points, rows, **params) -> list[str]:
    """Row count and query column exact; sampled rows match the expansion
    sum_j G(q, x_j) (C A)_j computed from the model's centers and blocks."""
    problems: list[str] = []
    model = _load_json(model_path, problems)
    if model is None:
        return problems
    centers = np.asarray(model["centers"], dtype=float)
    ca = np.asarray(model["coeffs"], dtype=float) @ np.asarray(model["kernel"]["coupling"]["A"])
    try:
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
    except OSError as exc:
        return [f"cannot read {path.name}: {exc}"]
    header = ["x"] + [f"y{i}" for i in range(1, ca.shape[1] + 1)]
    if not table or table[0] != header or len(table) != points.size + 1:
        return [f"prediction table has header {table[:1]} and {len(table) - 1} rows"]
    body = np.array(table[1:], dtype=float)
    if np.any(body[:, 0] != points):
        problems.append("query column differs from the points sent")
    e = kernel(family, points[rows, None], centers[None, :], **params)
    want = e @ ca
    scale = np.abs(e) @ np.abs(ca)
    gap = np.abs(body[rows, 1:] - want) / np.maximum(scale, 1.0)
    if not gap.max() <= PREDICT_RTOL:
        problems.append(f"sampled predictions off by {gap.max():.3e} relative")
    return problems
