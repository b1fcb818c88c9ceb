"""Numeric certification of the kernel assumptions a1-a4 over a domain.

a1 (invertible Grams) is probed by seeded sampling; a2 (uniform
boundedness) is proved by kernels.scalar_uniform_bound for the builtin
families and sampled over point pairs for custom kernels; a4 (the
interpolation stability constant bounded by 1) is scanned over seeded
random center sets, batched per set size: one stacked Gram, eigvalsh and
solve per block of the sets of a size, every Gram held to the
singularity rule by blocklinalg.gram_stack.  The sets are drawn by rank
shift from a counter hash of (seed, size, index), with no rejection and
no size ceiling (see _center_stacks).  kernels.sup_probes gives the
probes of each set's supremum over queries: exact for the builtin
families (see _breakpoint_sup), a nested grid with golden-section
refinement, in lockstep over the sets, for custom kernels.  a3 cannot be
falsified by finite computation; for the builtin families the kernels
module docstring proves it.  The a1 and a4 evidence is not proof: every
report records the probe budget so a "pass" claim is scoped to it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .blocklinalg import coupling_opnorm, gram_assemble, gram_stack
from .errors import DomainError, DuplicateCenterError, OrderError, ShapeError, SingularError
from .gridsearch import refine_max_rows, vdc_points
from .kernels import (
    OperatorKernel,
    kernel_to_dict,
    require_in_domain,
    scalar_uniform_bound,
    scalar_values,
    sup_probes,
)

REFINE_ITERS = 30
PROBE_CHUNK = 1 << 14  # float64 values per probe temporary (128 KiB): rows per block


@dataclass(frozen=True)
class CertificationConfig:
    """Probe budget for a certification run.

    grid_size sizes the probes of custom kernels only: the grid of the a2
    sample and the query grid of the a4 scan.  tolerance is the slack
    allowed above the stability bound 1: the bound is attained in the
    limit (query approaching a center), so exact comparison against 1
    would be float-hostile.
    """

    max_centers: int = 6
    grid_size: int = 512
    trials: int = 200
    seed: int = 0
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.max_centers < 1 or self.grid_size < 1 or self.trials < 1:
            raise ValueError("max_centers, grid_size and trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")


@dataclass
class ScanResult:
    """Worst observed stability value with its witness and per-trial rows,
    and the a1 evidence of the scanned Grams."""

    worst: float
    centers: np.ndarray
    query: float
    method: str  # "breakpoint-exact" (builtin families) or "grid-golden"
    # (m, trial, worst) per scanned set, one row each
    rows: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    singular: list = field(default_factory=list)  # centers failing the singularity rule
    # over the other Grams, None while there is none: the largest condition
    # number, and whether all are SPD (eigenvalues > 0)
    worst_cond: float | None = None
    cholesky_ok: bool | None = None

    def a4_passes(self, tolerance: float) -> bool:
        """The a4 rule: a set was scanned, and none exceeds 1 + tolerance or is NaN."""
        return len(self.rows) > 0 and bool((self.rows[:, 2] <= 1.0 + tolerance).all())

    def a4_dict(self) -> dict:
        """The a4 section of a report; worst is None when no scanned set has a non-NaN value."""
        return {
            "worst": None if self.centers is None else self.worst,
            "centers": None if self.centers is None else [float(v) for v in self.centers],
            "query": self.query,
            "method": self.method,
        }


@dataclass
class CertificationReport:
    kernel: dict
    config: CertificationConfig
    a1: dict
    a2: dict
    a4: dict
    verdict: dict
    rows: np.ndarray = field(repr=False)  # as in ScanResult

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "config": asdict(self.config),
            "a1": self.a1,
            "a2": self.a2,
            "a4": self.a4,
            "verdict": self.verdict,
        }


def det_tfamily_closed_form(centers, t: float) -> float:
    """Closed-form Gram determinant x1*(1 - t*xm)*prod(x_{i+1} - x_i) for
    the min{x,y} - t*x*y family at strictly increasing centers in (0, 1)."""
    if not -1.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [-1, 1], got {t}")
    arr = np.atleast_1d(np.asarray(centers, dtype=float))
    if arr.size == 0:
        raise ShapeError("at least one center is required")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("centers must lie in the open interval (0, 1)")
    if arr.size > 1 and np.any(np.diff(arr) <= 0.0):
        raise OrderError("centers must be strictly increasing")
    det = arr[0] * (1.0 - t * arr[-1])
    if arr.size > 1:
        det *= float(np.prod(np.diff(arr)))
    return float(det)


def _require_bounded(kernel: OperatorKernel) -> tuple[float, float]:
    lo, hi = kernel.scalar.domain
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("scanning requires a bounded domain interval")
    return lo, hi


_M64 = (1 << 64) - 1


def _mix(z):
    """The SplitMix64 finalizer (Steele, Lea & Flood, OOPSLA 2014), a
    bijection of 64-bit words, on a Python int or a uint64 array."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _M64
    return z ^ z >> 31


def _uniform(seed: int, key: int, count: int, lo: float, hi: float) -> np.ndarray:
    """count uniforms on (lo, hi), value i a hash of (seed, key, i) alone, by
    counter (Salmon et al., SC 2011): the 64-bit words of seed, then key,
    chained through _mix start a SplitMix64 sequence, and value i keeps 52
    bits of its output i + 1, centred in their cell so that it is never 0."""
    seed = operator.index(seed)
    words = [seed >> 64 * j & _M64 for j in range(max(1, -(-seed.bit_length() // 64)))]
    h = 0
    for w in [*words, key]:
        h = _mix(h ^ w)
    z = _mix(h + np.arange(1, count + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15)
    return lo + (hi - lo) * (((z >> 12) + 0.5) * 2.0**-52)


def _center_stacks(kernel: OperatorKernel, cfg: CertificationConfig):
    """(m, X) for m = 1..cfg.max_centers: X stacks the cfg.trials seeded
    sets of m centers, checked as validate_centers checks one set.

    Set k is m sorted uniforms on (lo, hi - (m - 1) sep), shifted by their
    rank times sep = (hi - lo)/(10 m): the uniform law on the sorted sets
    with gaps of at least sep (the law of rejection sampling at that
    separation), from exactly m values.  These are values k m .. k m + m - 1
    of the key-m _uniform stream, so set k depends on (seed, m, k) alone."""
    lo, hi = _require_bounded(kernel)
    for m in range(1, cfg.max_centers + 1):
        sep = (hi - lo) / (10.0 * m)
        u = _uniform(cfg.seed, m, cfg.trials * m, lo, hi - (m - 1) * sep)
        X = np.sort(u.reshape(cfg.trials, m), axis=1) + sep * np.arange(m)
        require_in_domain(kernel.scalar, X, what="center")
        if not (np.diff(X, axis=1) > 0).all():
            raise DuplicateCenterError("centers must be pairwise distinct")
        yield m, X


def _stability_values(kernel: OperatorKernel, X: np.ndarray, G: np.ndarray,
                      Q: np.ndarray) -> np.ndarray:
    """sum_i |b_i| with G[x] b = G_x(query) for each center set (a row of X,
    its Gram in G) at its queries (a row of Q, or one row shared by all
    sets), by one stacked solve.  Leading axes of Q before its (sets,
    queries) axes broadcast over the solve, so Q of shape (k, 1, 1) takes
    k one-column solves per set in one call.

    For product kernels this is the exact grouped operator norm of
    K[x]^{-1} K_x(query) for every p: the coupling cancels and the column
    blocks are b_i times the identity.  A query colliding exactly with a
    center yields exactly 1 (b is a standard basis vector).
    """
    g = scalar_values(kernel.scalar, Q[..., None, :], X[:, :, None])
    vals = np.abs(np.linalg.solve(G, g)).sum(axis=-2)
    vals[(Q[..., :, None] == X[:, None, :]).any(axis=-1)] = 1.0
    return vals


def lebesgue_at(kernel: OperatorKernel, centers, query: float) -> float:
    """Stability value at one query point against one center set."""
    system = gram_assemble(kernel, centers)
    arr = np.atleast_1d(np.asarray(centers, dtype=float))
    q = float(require_in_domain(kernel.scalar, query, what="query"))
    return float(_stability_values(kernel, arr[None], system.G[None], np.array([[q]]))[0, 0])


def _breakpoint_sup(kernel: OperatorKernel, ends: np.ndarray, X: np.ndarray, G: np.ndarray):
    """Exact per-set supremum of the stability value for the builtin
    families, (worst, query) per set with worst computed at query.
    Lambda is convex between breakpoints (kernels.sup_probes) and exactly
    1 at a center (b = e_i), so sup_q Lambda = max(1, Lambda(lo+),
    Lambda(hi-)), the one-sided limits taken at ends, the nearest floats
    inside the domain.  The witness is that float, or the first center
    when neither value exceeds 1.  Like lebesgue_at, each end gets a
    one-column solve (LAPACK may round a two-column solve differently),
    so lebesgue_at reproduces the reported value.
    """
    vals = _stability_values(kernel, X, G, ends[:, None, None])[..., 0].T
    k = vals.argmax(axis=1)
    top = vals[np.arange(len(X)), k]
    over = top > 1.0
    return np.where(over, top, 1.0), np.where(over, ends[k], X[:, 0])


def _grid_sup(kernel: OperatorKernel, probes: np.ndarray, X: np.ndarray, G: np.ndarray):
    """Sampled per-set supremum for custom kernels, (worst, query) per set:
    the sorted probes (nested grid plus the inward domain endpoints) with
    golden refinement around the best of them, in lockstep over the sets.
    The probe solves run in sub-blocks of sets holding at most PROBE_CHUNK
    values, of which each set keeps its best probe alone: the first
    argmax, so tied values resolve to the lowest query (a NaN value is
    the maximum, as np.max and np.argmax agree)."""
    lo, hi = kernel.scalar.domain
    step = max(1, PROBE_CHUNK // (X.shape[1] * probes.size))
    blocks = (_stability_values(kernel, X[r:r + step], G[r:r + step], probes[None, :])
              for r in range(0, len(X), step))
    k, top = map(np.concatenate, zip(*[(v.argmax(axis=1), v.max(axis=1)) for v in blocks]))
    query, worst = refine_max_rows(lambda q: _stability_values(kernel, X, G, q[:, None])[:, 0],
                                   probes, k, top, lo, hi, iters=REFINE_ITERS)
    return worst, query


def _set_sup(kernel: OperatorKernel, cfg: CertificationConfig):
    """The scan method for this kernel and its per-set supremum as a
    function (X, G) -> (worst, query), one entry per center set; no
    center is probed, since Lambda is exactly 1 there."""
    _require_bounded(kernel)
    probes, exact = sup_probes(kernel.scalar, (), cfg.grid_size)
    if exact:
        return "breakpoint-exact", partial(_breakpoint_sup, kernel, probes)
    return "grid-golden", partial(_grid_sup, kernel, np.sort(probes))


def _scan_sets(kernel: OperatorKernel, cfg: CertificationConfig) -> ScanResult:
    """Worst stability value over seeded random center sets of every size
    up to cfg.max_centers, batched per size: the one scan behind
    lebesgue_scan and certify.  A Gram failing the singularity rule lists
    its centers under singular and is skipped.  Each size runs in blocks of
    sets whose Grams hold at most PROBE_CHUNK values (the custom probe grid
    splits a block further, see _grid_sup); stacked LAPACK calls run one
    matrix at a time, so blocks change no value."""
    method, set_sup = _set_sup(kernel, cfg)
    scan = ScanResult(worst=-math.inf, centers=None, query=None, method=method)
    rows, n = np.empty((cfg.max_centers * cfg.trials, 3)), 0
    for m, X in _center_stacks(kernel, cfg):
        step = max(1, PROBE_CHUNK // (m * m))
        for r in range(0, len(X), step):
            x = X[r:r + step]
            G, ok, spd, cond = gram_stack(kernel, x)
            scan.singular.extend(x[~ok].tolist())
            if not ok.any():
                continue
            x, G = x[ok], G[ok]
            scan.worst_cond = max(scan.worst_cond or 0.0, float(cond[ok].max()))
            scan.cholesky_ok = scan.cholesky_ok is not False and bool(spd[ok].all())
            vals, queries = set_sup(x, G)
            rows[n:n + len(vals)] = np.column_stack([np.full(len(vals), m),
                                                     r + np.flatnonzero(ok), vals])
            n += len(vals)
            # the first set attaining the maximum, as a sequential scan finds it
            k = int(np.argmax(np.where(np.isnan(vals), -math.inf, vals)))
            if vals[k] > scan.worst:
                scan.worst, scan.centers, scan.query = float(vals[k]), x[k], float(queries[k])
    scan.rows = rows[:n]
    return scan


def lebesgue_scan(kernel: OperatorKernel, cfg: CertificationConfig) -> ScanResult:
    """Worst stability value over seeded random center sets of every size
    up to cfg.max_centers; SingularError carries the first singular set."""
    scan = _scan_sets(kernel, cfg)
    if scan.singular:
        raise SingularError("Gram matrix is numerically singular",
                            centers=np.array(scan.singular[0]))
    return scan


def _a2_sample(kernel: OperatorKernel, cfg: CertificationConfig) -> float:
    """Max |G| over sampled point pairs, for kernels with no closed-form
    bound: nested grid points plus seeded uniform draws, all pairs
    including the diagonal."""
    lo, hi = _require_bounded(kernel)
    # the stream of key 0, which no center set uses (m >= 1)
    pts = np.concatenate([vdc_points(lo, hi, min(cfg.grid_size, 512)),
                          _uniform(cfg.seed, 0, 512, lo, hi)])
    # full rows in blocks of PROBE_CHUNK values: a custom kernel need not be
    # symmetric bit for bit.  np.max keeps a NaN from any block
    step = max(1, PROBE_CHUNK // pts.size)
    blocks = (scalar_values(kernel.scalar, pts[r:r + step, None], pts[None, :])
              for r in range(0, pts.size, step))
    return float(np.max([np.abs(vals).max() for vals in blocks]))


def certify(kernel: OperatorKernel, cfg: CertificationConfig) -> CertificationReport:
    """Run the a1/a2/a4 probes and assemble a verdict report.

    Failures become report entries, never exceptions: singular center
    sets are recorded under a1 and excluded from the a4 scan.
    """
    scan = _scan_sets(kernel, cfg)
    # max_i fl(cond_i * cond_A) is fl(max_i cond_i * cond_A): rounding is monotone
    a1 = {"worst_cond": None if scan.worst_cond is None
          else scan.worst_cond * float(np.linalg.cond(kernel.coupling.A)),
          "singular": scan.singular, "cholesky_ok": scan.cholesky_ok}

    # a2 from one source: the closed form for the builtin families, else the sample
    bound = scalar_uniform_bound(kernel.scalar)
    gmax = _a2_sample(kernel, cfg) if bound is None else bound
    kappa = gmax * coupling_opnorm(kernel.coupling.A, kernel.p)
    a2_ok = math.isfinite(kappa)
    # strict JSON: a non-finite number is written as null (a2 fails)
    a2 = {"kappa": kappa if a2_ok else None,
          "max_abs_scalar": gmax if math.isfinite(gmax) else None,
          "method": "sampled" if bound is None else "proof"}
    sampled = scan.method == "grid-golden"
    a4_ok = scan.a4_passes(cfg.tolerance)
    verdict = {
        "a1": "pass" if not scan.singular else "fail",
        "a2": "pass" if a2_ok else "fail",
        # implied for the builtin families by the Green's-function lemma
        # (kernels module docstring); not directly testable by finite sampling
        "a3": "not-directly-testable" if bound is None else "implied",
        "a4": "pass" if a4_ok else "fail",
        "overall": "pass" if (not scan.singular and a2_ok and a4_ok) else "fail",
        "evidence": {
            "center_sets": len(scan.rows) + len(scan.singular),
            # the exact path probes no query grid
            "queries_per_set": cfg.grid_size + 2 if sampled else None,
            "refine_iters": REFINE_ITERS if sampled else None,
        },
    }
    return CertificationReport(kernel_to_dict(kernel), cfg, a1, a2, scan.a4_dict(), verdict,
                               scan.rows)


def scan_report_dict(kernel: OperatorKernel, cfg: CertificationConfig,
                     result: ScanResult) -> dict:
    """JSON-ready report for a bare stability scan (a4 evidence only)."""
    return {
        "kernel": kernel_to_dict(kernel),
        "config": asdict(cfg),
        "a4": result.a4_dict(),
        "verdict": {"a4": "pass" if result.a4_passes(cfg.tolerance) else "fail"},
    }


def scan_rows_csv(rows) -> str:
    """CSV text of the (sets, 3) array of (m, trial, worst) rows, for plotting."""
    lines = ["m,trial,worst_lambda"]
    for m, trial, val in rows.tolist():
        lines.append(f"{int(m)},{int(trial)},{val!r}")
    return "\n".join(lines) + "\n"
