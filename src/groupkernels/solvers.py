"""Minimal-norm interpolation, equality-constrained group basis pursuit,
and regularized multi-task fitting with grouped coefficient penalties.

Interpolation over the sampling sites themselves is an exact linear
solve: within the span of the site columns the constraints determine the
coefficients uniquely, so optimization only enters when the center set is
augmented beyond the constraint sites (basis pursuit) or the data is
noisy (regularized fitting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocklinalg import (
    BlockVector,
    block_norms,
    gram_apply,
    gram_assemble,
    gram_solve,
    gram_stack,
    lp1_norm,
    markov_eval,
    markov_solve,
    nonsingular,
)
from .errors import (
    DataFormatError,
    NonconvergenceError,
    RankError,
    ShapeError,
    SingularError,
)
from .kernels import (
    OperatorKernel,
    conjugate_exponent,
    first_repeat,
    json_array,
    json_field,
    json_number,
    kernel_from_dict,
    kernel_to_dict,
    markov_gaps,
    outside,
    parse_cells,
    read_csv_rows,
    require_in_domain,
    scalar_values,
    sup_probes,
    validate_centers,
)

PURSUIT_TOL = 1e-9  # residual stop for basis pursuit (_admm), in units of 2^e
# any tol relaxes to the certificate's rounding floor, at most FLOOR_MAX P:
# a float64 C at lam -> 0 reaches 1.6e-10 P and no better
DEFAULT_TOL, FLOOR_MAX = 1e-10, 1e-9
# min_norm_interpolant raises SingularError past either limit
INTERP_RESIDUAL_RTOL = 1e-8
INTERP_COND_MAX = 1e12
# queries per dense kernel block in predict_many
PREDICT_CHUNK = 1024
# balancing every iteration can drive a period-2 limit cycle on piecewise
# linear problems; adapt on a cadence and then freeze (fixed-rho ADMM
# converges unconditionally)
_BALANCE_PERIOD = 50
_BALANCE_FREEZE = 1000
_EPS, _MAX = float(np.finfo(float).eps), float(np.finfo(float).max)
# every KKT violator enters the working set while the Newton system stays
# at most this many unknowns: below it a dense solve costs less than the
# Python overhead of a step, while each extra round reruns a barrier path
# of about 50 steps
SMALL_SYSTEM = 128


@dataclass(frozen=True)
class LearnConfig:
    """Regularized learning parameters (penalty weight applied to the
    grouped coefficient norm; loss is squared or absolute).  For
    fit_regularized, with either loss, tol is the duality gap per unit
    objective to certify and max_iters caps its Newton steps; for the
    fit_admm oracle they are the residual tolerance and iteration budget."""

    lam: float
    loss: str = "squared"
    max_iters: int = 100_000
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if self.loss not in ("squared", "absolute"):
            raise ValueError(f"loss must be 'squared' or 'absolute', got {self.loss!r}")
        if self.max_iters < 1 or not 0 < self.tol < math.inf:
            raise ValueError("max_iters must be >= 1 and tol positive and finite")


@dataclass
class FitModel:
    """Centers, coefficient blocks and provenance of a fitted expansion.

    The stored norm always equals the grouped norm of the stored blocks.
    """

    kernel: OperatorKernel
    centers: np.ndarray
    coeffs: BlockVector
    norm_lp1: float
    meta: dict = field(default_factory=dict)


def _make_model(kernel, centers, blocks, meta) -> FitModel:
    coeffs = BlockVector(blocks, kernel.p)
    return FitModel(kernel=kernel, centers=np.asarray(centers, dtype=float), coeffs=coeffs,
                    norm_lp1=lp1_norm(coeffs), meta=meta)


def min_norm_interpolant(kernel: OperatorKernel, x, y: BlockVector) -> FitModel:
    """Interpolant over the sites x by the exact Kronecker-factored solve.

    Markov kernels (markov_gaps: exponential, tfamily, brownianbridge)
    use the closed-form tridiagonal precision in O(m n); the others
    solve with the dense Gram.  Either way the fit is checked: a residual
    max|G C A - Y| above INTERP_RESIDUAL_RTOL max|Y|, or a condition number
    of G (meta.cond) above INTERP_COND_MAX, raises SingularError:
    gram_assemble's exact 2-norm one, or the Markov path's exact 1-norm
    one, never smaller for a symmetric G, from the solve's precision and
    the residual's evaluation.  When the kernel passes the stability
    certification this expansion is the minimal grouped-norm interpolant
    among all expansions anywhere.
    """
    spec, coupling = kernel.scalar, kernel.coupling
    x = validate_centers(spec, x)
    if y.m != x.size or y.n != coupling.n:
        raise ShapeError(f"expected {x.size} blocks of dimension {coupling.n}, got {y.m} of {y.n}")
    gaps = markov_gaps(spec, x)
    if gaps is None:
        system = gram_assemble(kernel, x)
        c = gram_solve(system, y)
        coeffs, fitted = c.blocks, gram_apply(system, c).blocks
        cond, solver = system.cond, "exact-gram"
    else:
        z, inv_norm = markov_solve(gaps, y.blocks)
        coeffs = z @ coupling.A_inv
        # G [C A, 1]: the fit, and ||G||_1 = max(G 1) as G > 0 entrywise
        fitted = markov_eval(spec, gaps, np.c_[coeffs @ coupling.A, np.ones(x.size)], x)
        fitted, g_ones = fitted[:, :-1], fitted[:, -1]
        cond, solver = float(g_ones.max()) * inv_norm, "markov-precision"
    resid = float(np.abs(fitted - y.blocks).max())
    scale = float(np.abs(y.blocks).max())
    if not (resid <= INTERP_RESIDUAL_RTOL * scale and cond <= INTERP_COND_MAX):
        raise SingularError(
            f"interpolation unreliable: residual {resid:.3e} of max|Y| {scale:.3e} "
            f"(limit {INTERP_RESIDUAL_RTOL:.0e}), condition number {cond:.3e} "
            f"(limit {INTERP_COND_MAX:.0e})"
        )
    meta = {"solver": solver, "iterations": 0, "residual": resid, "cond": cond}
    return _make_model(kernel, x, coeffs, meta)


def predict_many(model: FitModel, queries) -> np.ndarray:
    """Expansion values sum_j G(x_j, q) A c_j at many queries, as (k, n).

    Markov kernels take two sweeps over the sorted centers plus a binary
    search per query; the others evaluate PREDICT_CHUNK queries at a
    time against all centers, so memory stays O(PREDICT_CHUNK m).
    """
    spec = model.kernel.scalar
    q = require_in_domain(spec, np.atleast_1d(np.asarray(queries, dtype=float)), what="query")
    a = model.kernel.coupling.A
    gaps = markov_gaps(spec, model.centers)
    if gaps is not None:
        return markov_eval(spec, gaps, model.coeffs.blocks @ a, q)
    out = np.empty((q.size, model.coeffs.n))
    for start in range(0, q.size, PREDICT_CHUNK):
        e = scalar_values(spec, q[start:start + PREDICT_CHUNK, None], model.centers[None, :])
        out[start:start + PREDICT_CHUNK] = (e @ model.coeffs.blocks) @ a
    return out


def block_soft_threshold(z: BlockVector, tau: float, p: float | None = None) -> BlockVector:
    """Proximal map of tau times the grouped norm.

    p=2 shrinks each block radially by tau (blocks shorter than tau
    vanish); p=1 soft-thresholds elementwise.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    p = z.p if p is None else float(p)
    if p not in (1.0, 2.0):
        raise ValueError(f"proximal map implemented for p in {{1, 2}}, got {p}")
    return BlockVector(_shrink(z.blocks, tau, p), z.p)


def _shrink(blocks: np.ndarray, tau: float, p: float) -> np.ndarray:
    if tau == 0.0:
        return blocks.copy()
    if p == 1.0:
        return np.sign(blocks) * np.maximum(np.abs(blocks) - tau, 0.0)
    norms = block_norms(blocks, 2.0)
    # a zero block gets ratio inf and so scale 0
    ratio = np.divide(tau, norms, out=np.full_like(norms, np.inf), where=norms > 0)
    return blocks * np.maximum(1.0 - ratio, 0.0)[:, None]


def _admm(project, proxes, z, u, max_iters, tol, what, e=0):
    """Scaled ADMM for a sum of separable terms over an affine set, split
    as x = z with x confined to the set and block z_i carrying term i,
    from the start lists z and u of arrays (u is updated in place):

        x = project(z - u),  z_i = prox_i(x_i + u_i, rho),  u += x - z.

    rho starts at 1; it stops once the primal residual ||x - z|| and the
    dual residual rho ||z - z_prev||, each over all blocks, are at most
    tol.  Residual balancing (Boyd et al. 2011, sec. 3.4.1) doubles or
    halves rho, and rescales the scaled dual, whenever one exceeds ten
    times the other, every _BALANCE_PERIOD iterations up to
    _BALANCE_FREEZE: rho stays within 2^+-20.
    Returns (x, u, iterations, primal residual, dual residual, rho); rho u_i
    is the dual estimate of block i's term.  A spent budget raises
    NonconvergenceError with both residuals times 2^e, the caller's units.
    """
    rho, r, s = 1.0, math.inf, math.inf
    for it in range(1, max_iters + 1):
        x = project(*[zi - ui for zi, ui in zip(z, u)])
        z_new = [prox(xi + ui, rho) for prox, xi, ui in zip(proxes, x, u)]
        r = math.hypot(*[np.linalg.norm(xi - zi) for xi, zi in zip(x, z_new)])
        s = rho * math.hypot(*[np.linalg.norm(zn - zi) for zn, zi in zip(z_new, z)])
        for ui, xi, zi in zip(u, x, z_new):
            ui += xi
            ui -= zi
        z = z_new
        if r <= tol and s <= tol:
            return x, u, it, r, s, rho
        if it % _BALANCE_PERIOD == 0 and it <= _BALANCE_FREEZE:
            if r > 10.0 * s:
                step = 2.0
            elif s > 10.0 * r:
                step = 0.5
            else:
                continue
            rho *= step
            for ui in u:
                ui /= step
    with np.errstate(over="ignore"):
        r, s = np.ldexp([r, s], e).tolist()
    raise NonconvergenceError(
        f"{what} residuals {r:.3e}/{s:.3e} after {max_iters} iterations",
        iterations=max_iters,
        residuals=(r, s),
    )


def _unit(y):
    """y 2^-e, exact, and e, the binary exponent of max|y| (0 if y = 0)."""
    e = math.frexp(float(np.abs(y).max()))[1]
    return np.ldexp(y, -e), e


def _scaled_back(it, *pairs):
    """v 2^k for each pair (v, k); NonconvergenceError past the float range."""
    with np.errstate(over="ignore"):
        out = [np.ldexp(v, k) for v, k in pairs]
    if not all(np.isfinite(v).all() for v in out):
        raise NonconvergenceError(f"answer past the float range after {it} iterations", it)
    return out


def group_basis_pursuit(kernel: OperatorKernel, centers, constraints_x,
                        y: BlockVector, max_iters: int = 200_000) -> FitModel:
    """Minimize the grouped coefficient norm over expansions supported on
    `centers` subject to interpolating y at `constraints_x`.

    Solved by ADMM (_admm) on Y_t 2^-e (_unit, Y_t = Y A^-1), C and both
    meta residuals scaled back by 2^e: projection onto the affine
    constraint set alternating with the grouped shrinkage.  It starts at
    the site interpolant and the dual u = g_c^T theta, a subgradient of the
    norm there at the sites: ADMM's fixed point (iteration 1) if
    ||u_j||_q <= 1 at every extra center, as for an admissible kernel; at
    0 if the site Gram is singular.
    """
    p = kernel.p
    if p not in (1.0, 2.0):
        raise ValueError(f"basis pursuit implemented for p in {{1, 2}}, got {p}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    spec = kernel.scalar
    cen = validate_centers(spec, centers)
    cons = validate_centers(spec, constraints_x)
    # the center of each constraint, by binary search (np.isin loads numpy.ma)
    order = np.argsort(cen)
    at = order[np.searchsorted(cen, cons, sorter=order).clip(max=cen.size - 1)]
    if not np.all(cen[at] == cons):
        raise ShapeError("constraints_x must be a subset of centers")
    m, big_m, n = cons.size, cen.size, kernel.coupling.n
    if y.m != m or y.n != n:
        raise ShapeError(f"expected {m} blocks of dimension {n}, got {y.m} of {y.n}")

    g_c = scalar_values(spec, cons[:, None], cen[None, :])  # (m, M)
    y_t, e = _unit(y.blocks @ kernel.coupling.A_inv)
    # g_c^T = Q R gives g_c g_c^T = R^T R, so the projection onto g_c v = y_t
    # is v - Q (Q^T v - R^{-T} y_t).  The singularity rule takes sigma_min(R)^2
    # and max|g_c g_c^T|, the largest squared row norm of g_c
    scale = float((g_c * g_c).sum(axis=1).max())
    q_mat, r_mat = np.linalg.qr(g_c.T)
    if not (0.0 < scale < math.inf
            and nonsingular(np.linalg.svd(r_mat, compute_uv=False).min() ** 2, scale)):
        raise RankError("constraint rows are rank deficient")
    w = np.linalg.solve(r_mat.T, y_t)

    def project(v):
        return (v - q_mat @ (q_mat.T @ v - w),)

    z, u = np.zeros((2, big_m, n))
    g_s, ok, _, _ = gram_stack(kernel, cons)
    if ok:
        c_s = np.linalg.solve(g_s, y_t)
        d = np.abs(c_s) if p == 1.0 else block_norms(c_s, 2.0)[:, None]
        v = np.divide(c_s, d, out=np.zeros_like(c_s), where=d > 0)
        z[at] = c_s
        u = g_c.T @ np.linalg.solve(g_s.T, v)
    (c,), _, it, r, s, rho = _admm(project, [lambda v, rho: _shrink(v, 1.0 / rho, p)],
                                   [z], [u], max_iters, PURSUIT_TOL, "basis pursuit", e)
    c, r, s = _scaled_back(it, (c, e), (r, e), (s, e))
    meta = {"solver": "admm-basis-pursuit", "iterations": it, "primal_residual": float(r),
            "dual_residual": float(s), "rho": rho, "p": p}
    return _make_model(kernel, cen, c, meta)


def _certificate(x, a, y, c, lam, p, target, loss="squared", theta=None):
    """Duality gap and objective of min_C loss(Y - X C A) + lam sum_i ||C_i||_p
    at C, for the squared loss 0.5 ||.||^2 or the absolute loss (entry sum).

    The dual point is theta, by default the residual r = Y - X C A (for the
    absolute loss the given theta, clipped into the box |theta_ij| <= 1),
    scaled by s = min(1, lam / max_i ||U_i||_q) with U = X^T theta A, so that
    s theta is dual feasible.  The gap P(C) - D(s theta) is summed as its
    nonnegative Fenchel-Young terms, since P - D would subtract two nearly
    equal numbers:
        squared:   0.5 (1 - s)^2 ||r||^2 + sum_i (lam ||C_i||_p - s <C_i, U_i>)
        absolute:  sum (|r| - s theta r) + sum_i (lam ||C_i||_p - s <C_i, U_i>)
    C = 0 with lam at or above max_i ||(X^T Y A)_i||_q (squared) or
    max_i ||(X^T sign(Y) A)_i||_q (absolute, theta = sign(Y)) has gap exactly 0.

    The gap weighs the rounding in s U by the coefficient norms, so no
    floating-point C certifies below eps s sum_i ||C_i||_p ||E_i||_q, with
    E = |X|^T |theta| |A| the entrywise scale of U, |theta| taken as
    |Y| + |X| |C| |A| for the squared loss, the scale of the products that
    form r; the polish's gradient carries the same rounding.
    Returns (gap, objective, U, bound): C certifies at gap <= bound < inf,
    bound = target P raised to that floor, at most FLOOR_MAX P, where it can
    decide (target P < gap <= FLOOR_MAX P): a looser target never certifies
    less.  Overflow never certifies.

    Units are taken once, at entry: fit_regularized and group_basis_pursuit
    solve on Y 2^-e (_unit), so Y -> 2^k Y changes no bit of the answer but
    its exponent.  Inside, a tolerance is relative to P: here (target P),
    in the barrier stop (eps P) and in the polish slack (64 eps |value|).
    """
    r = y - x @ c @ a
    theta = r if loss == "squared" else np.clip(theta, -1.0, 1.0)
    u = x.T @ theta @ a
    q = conjugate_exponent(p)
    top = float(block_norms(u, q).max(initial=0.0))
    s = 1.0 if top <= lam else lam / top
    norms = block_norms(c, p)
    if loss == "squared":
        fit = 0.5 * float((r ** 2).sum())
        loss_gap = (1.0 - s) ** 2 * fit
    else:
        fit = float(np.abs(r).sum())
        loss_gap = float((np.abs(r) - s * theta * r).sum())
    gap = loss_gap + float((lam * norms - s * (c * u).sum(axis=1)).sum())
    obj = fit + lam * float(norms.sum())
    bound = target * obj
    if bound < gap <= FLOOR_MAX * obj:
        abs_x, abs_a = np.abs(x), np.abs(a)
        size = np.abs(y) + abs_x @ np.abs(c) @ abs_a if loss == "squared" else np.abs(theta)
        floor = _EPS * s * float((norms * block_norms(abs_x.T @ size @ abs_a, q)).sum())
        bound = max(bound, min(floor, FLOOR_MAX * obj))
    return gap, obj, u, bound


def _cone_barrier(lengths, lam, mu):
    """beta, kappa and kappa / beta of the cone barrier psi (see _smoothed)
    at cones of the given lengths ||v||, elementwise."""
    beta = np.hypot(mu, lam * lengths)
    kappa = np.divide(lam * lam, mu + beta, out=np.zeros_like(beta), where=beta > 0)
    return beta, kappa, np.divide(kappa, beta, out=np.zeros_like(beta), where=beta > 0)


def _smoothed(x, a, y, c, lam, mu, d, loss):
    """Value, gradient, per-cone Hessian blocks, loss gradient theta and loss
    curvature weights of the restricted fit's barrier objective
    loss(Y - X C A) + sum_v psi(v), over the cones v of C: its rows for
    p = 2 (d = n), its entries for p = 1 (d = 1).

    psi(v) = min_tau lam tau - mu log(tau^2 - ||v||^2) is the log barrier of
    the cone ||v|| <= tau with tau eliminated in closed form; up to a
    constant it is beta - mu log(mu + beta) with beta = hypot(mu, lam ||v||),
    with gradient kappa v, kappa = lam^2 / (mu + beta), and Hessian
    kappa I - bend v v^T, bend = kappa^2 / beta.  At mu = 0 it is lam ||v||,
    so the objective is the fit objective itself, smooth where no cone
    vanishes (a vanished cone gets zero gradient and curvature).

    The squared loss is 0.5 ||r||^2 with r = Y - X C A: theta = r, and its
    Hessian, constant, is left to the caller (weights None).  The absolute
    loss smooths each entry of r by psi with lam = 1, d = 1: theta = kappa r
    and the Hessian in r is diagonal with weights kappa - bend r^2, which is
    mu kappa / beta without the cancellation.
    """
    r = y - x @ c @ a
    cones = c.reshape(-1, d)
    beta, kappa, ratio = _cone_barrier(np.sqrt((cones * cones).sum(axis=1)), lam, mu)
    bend = kappa * ratio
    if loss == "squared":
        theta, weights = r, None
        value = 0.5 * float((r * r).sum()) + float(beta.sum())
    else:
        r_beta, r_kappa, r_ratio = _cone_barrier(np.abs(r), 1.0, mu)
        theta, weights = r_kappa * r, mu * r_ratio
        beta = np.concatenate([beta, r_beta.ravel()])
        value = float(beta.sum())
    if mu > 0.0:
        value -= mu * float(np.log(mu + beta).sum())
    grad = (kappa[:, None] * cones).reshape(c.shape) - x.T @ theta @ a
    blocks = kappa[:, None, None] * np.eye(d) - bend[:, None, None] * (
        cones[:, :, None] * cones[:, None, :])
    return value, grad, blocks, theta, weights


def _newton(x, a, y, c, lam, mu, d, loss, curvature, free, budget):
    """Newton's method on _smoothed over the entries of c marked free (the
    rest stay fixed), at most budget steps; returns (c, steps, theta).

    curvature is the loss Hessian kron(X^T X, A A) for the squared loss and
    the Jacobian J = kron(X, A^T) of vec(X C A) for the absolute loss, whose
    Hessian J^T diag(weights) J changes with every step.
    With mu > 0 (centering) each step backtracks to a strict sufficient
    decrease, so a step rounding leaves at the same value never repeats,
    and the method stops once the squared Newton decrement is at most
    mu / 10 or, where the objective cannot resolve less, 64 eps |value|.
    With mu = 0 (polishing, every free cone nonzero) it takes full steps
    while the gradient norm falls and the objective does not rise beyond
    rounding: near the optimum that converges quadratically down to
    rounding, where function values stop resolving progress long before.
    The objective test refuses the wild steps of a singular system and
    steps across a cone's apex that do not pay.

    theta is the loss gradient at c: the dual point for the certificate.
    When centering stops on the decrement, the absolute loss's theta takes
    the pending step Delta c as well, theta + weights (-X Delta c A): then
    J^T theta is the penalty gradient linearized at c + Delta c, so the
    dual point is as close to feasible as the step is to the optimum.
    Y arrives with max|Y| in [1/2, 1) (_unit), so no row needs a scale.
    """
    polish = mu == 0.0
    k = c.size // d
    diag = np.arange(k)
    value, grad, blocks, theta, weights = _smoothed(x, a, y, c, lam, mu, d, loss)
    steps = 0
    while steps < budget:
        if weights is None:
            hess = system = curvature.copy()
        else:
            # residuals near their kink weigh up to 1 / (2 mu), the others
            # down to mu / r^2: folded into J^T diag(weights) J the former
            # would round away the small curvature along a face of optimal
            # points, so they stay apart, with z_k = weights_k J_k step, in
            # the augmented system [[H, J_k^T], [J_k, -diag(1 / weights_k)]],
            # assembled in place around its leading block H
            w = weights.ravel()
            kink = w > math.sqrt(w.max() * w.min())
            system = np.zeros((c.size + int(kink.sum()),) * 2)
            hess = system[:c.size, :c.size]
            np.matmul(curvature[~kink].T, w[~kink, None] * curvature[~kink], out=hess)
            system[c.size:, :c.size] = curvature[kink]
            system[:c.size, c.size:] = curvature[kink].T
            np.fill_diagonal(system[c.size:, c.size:], -1.0 / w[kink])
        hess.reshape(k, d, k, d)[diag, :, diag, :] += blocks
        g = grad.ravel()[free]
        if not free.all():
            rows = np.r_[free, np.ones(system.shape[0] - c.size, dtype=bool)]
            system = system[np.ix_(rows, rows)]
        rhs = np.zeros(system.shape[0])
        rhs[:g.size] = -g
        try:
            sol = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            break
        move = sol[:g.size]
        step = np.zeros(c.size)
        step[free] = move
        step = step.reshape(c.shape)
        dec = -float(g @ move)
        if not polish and dec <= max(0.1 * mu, 64.0 * _EPS * abs(value)):
            if weights is not None:
                z = w * (curvature @ step.ravel())
                z[kink] = sol[g.size:]
                theta = theta - z.reshape(theta.shape)
            break
        t = 1.0
        trial = c + step
        new = _smoothed(x, a, y, trial, lam, mu, d, loss)
        if polish:
            if not (np.linalg.norm(new[1].ravel()[free]) < np.linalg.norm(g)
                    and new[0] <= value + 64.0 * _EPS * abs(value)):
                break
        else:
            while not new[0] < value - 0.25 * t * dec:
                t *= 0.5
                if t < 1e-12:
                    return c, steps, theta
                trial = c + t * step
                new = _smoothed(x, a, y, trial, lam, mu, d, loss)
        steps += 1
        c, (value, grad, blocks, theta, weights) = trial, new
    return c, steps, theta


def _restricted_fit(x, a, y, c, lam, p, loss, theta, target, budget):
    """Fit over the Gram columns x of the working set, from c with the dual
    point theta.  Returns (c, Newton steps, certified, theta).

    The barrier weight mu falls tenfold per stage, from the starting gap
    per cone, and each stage centers by Newton and then polishes: the cones
    with lam ||v|| at most sqrt(mu lam max ||v||), the geometric mean of a
    centered inactive cone's O(mu) and an active cone's O(1) size, are set
    to 0.  For the squared loss a proximal-gradient step first seeds the
    entering blocks, and the polish goes on by Newton at mu = 0 over the
    other cones; for p = 1, with the signs fixed, that is one linear solve.
    The absolute loss is not smooth where a residual vanishes, so its
    polish stops at the zeroing, and its dual point is the Newton-step
    estimate of _newton; its cones include the residual entries, and its
    gap falls with mu times their number.  Both the polished and the
    centered point are certified.  It stops certified once a gap holds at
    the certificate's bound (target P, or its rounding floor); uncertified,
    with the point of least gap, once the budget is spent or once mu times
    the number of cones is below eps P, where the barrier no longer
    changes the objective and rounding bounds the gap.
    """
    d = c.shape[1] if p == 2.0 else 1
    gap, obj, u, _ = _certificate(x, a, y, c, lam, p, target, loss, theta)
    cones = c.size // d
    if loss == "squared":
        xtx = x.T @ x
        curvature = np.kron(xtx, a @ a)
        big_l = float(np.linalg.eigvalsh(xtx)[-1]) * float(np.linalg.norm(a, 2)) ** 2
        c = _shrink(c + u / big_l, lam / big_l, p)
        gap = _certificate(x, a, y, c, lam, p, target)[0]
    else:
        curvature = np.kron(x, a.T)
        cones += y.size
    best, best_gap, best_theta = c, gap, theta
    mu = best_gap / cones
    every = np.ones(c.size, dtype=bool)
    steps = 0
    while steps < budget and mu * cones > _EPS * obj:
        c, used, theta = _newton(x, a, y, c, lam, mu, d, loss, curvature, every,
                                 budget - steps)
        steps += used
        lengths = lam * np.sqrt((c.reshape(-1, d) ** 2).sum(axis=1))
        free = np.repeat(lengths > math.sqrt(mu * lengths.max()), d)
        polished = np.where(free.reshape(c.shape), c, 0.0)
        if loss == "squared":
            polished, used, _ = _newton(x, a, y, polished, lam, 0.0, d, loss, curvature,
                                        free, budget - steps)
            steps += used
        for point in (polished, c):
            gap, obj, _, bound = _certificate(x, a, y, point, lam, p, target, loss, theta)
            if gap <= bound < math.inf:
                return point, steps, True, theta
            if gap < best_gap:
                best, best_gap, best_theta = point, gap, theta
        mu *= 0.1
    return best, steps, False, best_theta


def _working_set_fit(g, a, y, lam, p, loss, max_iters, tol, order, k):
    """Fit by working sets: certify C; keep the nonzero blocks of W and add
    KKT violators, blocks outside it with ||U_i||_q > lam: all of them while
    W and they give at most SMALL_SYSTEM unknowns, else those whose
    ||U_i||_q peaks locally along the sites in the given order (increasing
    x; the largest violator always does, and a peak's block may satisfy
    its neighbours), largest first, at most max(16, |W|); solve the fit
    restricted to W (_restricted_fit); repeat until the certificate holds
    at tol P, or at the certificate's own rounding floor (_certificate)
    when that is larger.  The absolute loss's dual point starts at
    sign(Y); the squared loss's is always the residual.
    Raises NonconvergenceError, with the gap and bound times 2^k (the
    caller's units), once max_iters Newton steps are spent; when
    no violator is left outside W (W certified, but the full certificate,
    its products rounded apart, did not); or when the restricted fit
    stopped uncertified or made no step and every violator was in its W:
    blocks it left at zero drop out of W and would re-enter, and the round
    would repeat.
    Returns (C, Newton steps, objective, gap, bound).
    """
    q = conjugate_exponent(p)
    theta = np.sign(y)
    c = np.zeros_like(y)
    work = np.zeros(0, dtype=int)
    steps, progressed, last = 0, True, None
    while True:
        gap, obj, u, bound = _certificate(g, a, y, c, lam, p, tol, loss, theta)
        if gap <= bound < math.inf:
            return c, steps, obj, gap, bound
        work = work[np.abs(c[work]).max(axis=1) > 0.0]
        viol = block_norms(u, q)
        viol[work] = 0.0
        enter = np.flatnonzero(viol > lam)
        if (work.size + enter.size) * y.shape[1] > SMALL_SYSTEM:
            along = viol[order]
            peak = (along > lam) & (along >= np.r_[0.0, along[:-1]])
            enter = order[peak & (along >= np.r_[along[1:], 0.0])]
            enter = enter[np.argsort(-viol[enter], kind="stable")][:max(16, work.size)]
        if steps >= max_iters or enter.size == 0 or (not progressed and last[enter].all()):
            with np.errstate(over="ignore"):
                gap, bound = np.ldexp([gap, bound], k).tolist()
            raise NonconvergenceError(
                f"newton gap {gap:.3e} above tolerance {bound:.3e} "
                f"after {steps} steps",
                iterations=steps,
                residuals=(gap,),
            )
        work = np.concatenate([work, enter])
        last = np.zeros(y.shape[0], dtype=bool)
        last[work] = True
        c_work, used, certified, theta = _restricted_fit(
            g[:, work], a, y, c[work], lam, p, loss, theta, tol, max_iters - steps)
        progressed = certified and used > 0
        steps += used
        c = np.zeros_like(y)
        c[work] = c_work


def _prox_loss(w, y, rho, loss):
    if loss == "squared":
        return (y + rho * w) / (1.0 + rho)
    return y + np.sign(w - y) * np.maximum(np.abs(w - y) - 1.0 / rho, 0.0)


def _design(kernel: OperatorKernel, x, y: BlockVector):
    """Sites x, their scalar Gram G and the coupling A of a regularized fit,
    after checking p, the sites and the shape of y (no fit solves with G)."""
    if kernel.p not in (1.0, 2.0):
        raise ValueError(f"regularized fitting implemented for p in {{1, 2}}, got {kernel.p}")
    x = validate_centers(kernel.scalar, x)
    g, a = scalar_values(kernel.scalar, x[:, None], x[None, :]), kernel.coupling.A
    if y.m != g.shape[0] or y.n != a.shape[0]:
        raise ShapeError(f"expected {g.shape[0]} blocks of dimension {a.shape[0]}")
    return x, g, a


def fit_admm(kernel: OperatorKernel, x, y: BlockVector, cfg: LearnConfig) -> FitModel:
    """Regularized fit by ADMM (_admm) on the split (coefficients, fitted
    values) coupled through the design constraint.

    The projection onto the constraint set diagonalizes in the joint
    eigenbases of the Gram and the coupling, so each iteration is a pair
    of separable proximal maps plus two basis changes.  It handles both
    losses and is the cross-check oracle of fit_regularized (acceptance
    criterion C7 and the tests); no command runs it.  It stops on its
    residuals; meta.gap records the duality gap (_certificate) of the
    result.
    """
    x, g, a = _design(kernel, x, y)
    y_b = y.blocks
    d_g, q_g = np.linalg.eigh(g)
    e_a, q_a = np.linalg.eigh(a)
    denom = 1.0 + np.outer(d_g ** 2, e_a ** 2)

    def project(v_c, v_w):
        r = v_c + g @ v_w @ a
        c = q_g @ ((q_g.T @ r @ q_a) / denom) @ q_a.T
        return c, g @ c @ a

    proxes = [lambda v, rho: _shrink(v, cfg.lam / rho, kernel.p),
              lambda v, rho: _prox_loss(v, y_b, rho, cfg.loss)]
    start = list(np.zeros((4, *y_b.shape)))
    (c, _), (_, u_w), it, r, s, rho = _admm(project, proxes, start[:2], start[2:],
                                            cfg.max_iters, cfg.tol, "admm")
    # the loss block's dual estimate rho u_w is a subgradient of the loss at
    # the fitted values, so -rho u_w estimates the dual point theta
    gap, obj, _, _ = _certificate(g, a, y_b, c, cfg.lam, kernel.p, cfg.tol, cfg.loss, -rho * u_w)
    meta = {
        "solver": "admm-regularized",
        "loss": cfg.loss,
        "lam": cfg.lam,
        "iterations": it,
        "objective": obj,
        "gap": gap,
        "primal_residual": r,
        "dual_residual": s,
        "rho": rho,
    }
    return _make_model(kernel, x, c, meta)


def fit_regularized(kernel: OperatorKernel, x, y: BlockVector,
                    cfg: LearnConfig) -> FitModel:
    """Regularized multi-task fit over expansions at the sampling sites.

    Both losses run the working-set Newton solver (_working_set_fit) on
    Y 2^-e (_unit), with lam 2^-e, clamped at the float maximum, for the
    squared loss.  It returns only when its duality gap (_certificate) is
    at most tol times the objective, or the certificate's own rounding
    floor where that is larger, and raises NonconvergenceError after
    max_iters Newton steps or when the answer, scaled back, is not finite.
    meta.iterations counts those steps, meta.gap is the gap as computed and
    meta.bound the bound it met; they and an error's numbers are in Y's units.
    """
    x, g, a = _design(kernel, x, y)
    (y_u, e), squared = _unit(y.blocks), cfg.loss == "squared"
    with np.errstate(over="ignore"):  # past _MAX, C = 0 is optimal anyway
        lam = min(float(np.ldexp(cfg.lam, -e)), _MAX) if squared else cfg.lam
    k = 2 * e if squared else e
    c, steps, obj, gap, bound = _working_set_fit(g, a, y_u, lam, kernel.p, cfg.loss,
                                                 cfg.max_iters, cfg.tol, np.argsort(x), k)
    c, obj, gap = _scaled_back(steps, (c, e), (obj, k), (gap, k))
    with np.errstate(over="ignore"):  # inf only where tol P overflows
        bound = float(np.ldexp(bound, k))
    meta = {"solver": "working-set-newton", "loss": cfg.loss, "lam": cfg.lam,
            "iterations": steps, "objective": float(obj), "gap": float(gap), "bound": bound}
    return _make_model(kernel, x, c, meta)


def expansion_sup_norm(model: FitModel, grid_size: int) -> float:
    """sup_y ||sum_j G(y, x_j) A c_j||_q as the largest norm of predict_many
    at kernels.sup_probes: exact for the builtin families, a sampled lower
    bound over grid_size more grid points for a custom kernel."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    probes, _ = sup_probes(model.kernel.scalar, model.centers, grid_size)
    return float(block_norms(predict_many(model, probes), model.kernel.q).max())


# ---------------------------------------------------------------------------
# persistence and data files
# ---------------------------------------------------------------------------

def model_to_dict(model: FitModel) -> dict:
    return {
        "kernel": kernel_to_dict(model.kernel),
        "centers": [float(v) for v in model.centers],
        "coeffs": model.coeffs.blocks.tolist(),
        "p": "inf" if math.isinf(model.coeffs.p) else model.coeffs.p,
        "norm_lp1": model.norm_lp1,
        "meta": dict(model.meta),
    }


def model_from_dict(data: dict) -> FitModel:
    """Rebuild a persisted model, rejecting a missing or mistyped field, a p
    not the kernel's, coefficients not of shape (centers, n) or non-finite,
    and centers that are non-finite, outside the open domain or repeated."""
    src = "model JSON"
    kernel = kernel_from_dict(json_field(data, "kernel", dict, src))
    if (p := json_field(data, "p", json_number, src, kernel.p)) != kernel.p:
        raise DataFormatError(f"{src}: field 'p' is {p!r}, but the kernel's p is {kernel.p!r}")
    centers = json_field(data, "centers", json_array, src)
    blocks = json_field(data, "coeffs", json_array, src)
    if centers.ndim != 1 or centers.size == 0:
        raise DataFormatError("model centers must be a nonempty list of reals")
    if blocks.shape != (centers.size, kernel.n):
        raise DataFormatError(
            f"model coefficients have shape {blocks.shape}, expected "
            f"({centers.size}, {kernel.n}) for {centers.size} centers and n={kernel.n}"
        )
    if (i := outside(centers, kernel.scalar.domain)) is not None:
        raise DataFormatError(f"model center {i + 1} ({float(centers[i])!r}) is not a finite "
                              f"point of the open domain {kernel.scalar.domain}")
    if (repeat := first_repeat(centers)) is not None:
        i, j = repeat
        raise DataFormatError(f"model centers must be pairwise distinct: center {j + 1} "
                              f"({float(centers[j])!r}) repeats center {i + 1}")
    if not np.all(np.isfinite(blocks)):
        raise DataFormatError("model coefficients must be finite")
    model = _make_model(kernel, centers, blocks, json_field(data, "meta", dict, src, {}))
    norm = model.norm_lp1
    if abs(json_field(data, "norm_lp1", json_number, src, norm) - norm) > 1e-12 * norm:
        raise DataFormatError("stored norm_lp1 disagrees with stored coefficients")
    return model


def _require_x_in_domain(path, x: np.ndarray, linenos, domain) -> None:
    """With an open interval domain=(lo, hi), reject the first x outside
    it, naming its row, the column x and the value."""
    if domain is not None and (i := outside(x, domain)) is not None:
        lo, hi = domain
        raise DataFormatError(f"{path}: row {linenos[i]}, column x: value {float(x[i])!r} "
                              f"outside open domain ({lo}, {hi})")


def read_training_csv(path, domain=None):
    """Training data with header x,y1,...,yn; returns (x, Y) arrays.

    Malformed content fails before any solver runs, naming row and column;
    so do a repeated x (both rows) and, with domain=(lo, hi), an x outside it.
    """
    numbers, rows = read_csv_rows(path)
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    expected = ["x"] + [f"y{i}" for i in range(1, len(header))]
    if len(header) < 2 or header != expected:
        raise DataFormatError(f"{path}: header must be x,y1,...,yn, got {','.join(header)!r}")
    for lineno, row in zip(numbers[1:], rows[1:]):
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}: row {lineno}: expected {len(header)} columns, got {len(row)}"
            )
    if len(rows) == 1:
        raise DataFormatError(f"{path}: no data rows")
    table = parse_cells(path, numbers[1:], rows[1:], header)
    x = table[:, 0]
    _require_x_in_domain(path, x, numbers[1:], domain)
    if (repeat := first_repeat(x)) is not None:
        i, j = repeat
        raise DataFormatError(f"{path}: rows {numbers[i + 1]} and {numbers[j + 1]}, column x: "
                              f"repeated value {float(x[j])!r}")
    return np.ascontiguousarray(x), np.ascontiguousarray(table[:, 1:])


def read_points_csv(path, domain=None) -> np.ndarray:
    """Query points from a CSV whose first column is x (extra columns are
    ignored, so a training file works as-is).  With an open interval
    domain=(lo, hi), a point outside it is rejected naming its row."""
    numbers, rows = read_csv_rows(path)
    if not rows or rows[0][0].strip() != "x":
        raise DataFormatError(f"{path}: first column must be named x")
    if len(rows) == 1:
        raise DataFormatError(f"{path}: no data rows")
    pts = parse_cells(path, numbers[1:], rows[1:], ["x"])[:, 0]
    _require_x_in_domain(path, pts, numbers[1:], domain)
    return pts
