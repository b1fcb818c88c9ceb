"""Numeric certification of the kernel assumptions a1-a4 over a domain.

a1 (invertible Grams) and a2 (uniform boundedness) are probed by seeded
sampling; a4 (the interpolation stability constant bounded by 1) is
scanned over random center sets, batched per set size: one stacked Gram,
Cholesky, SVD and solve per block of the sets of a size, every Gram held
to the singularity rule.  For the builtin families the supremum over queries
of each set is exact (see _breakpoint_sup); custom kernels get a nested
query grid with golden-section refinement, in lockstep over the sets.  a3
(independence of infinite expansions) cannot be falsified by finite
computation; for product kernels with a strictly positive definite scalar
factor it is reported as implied by that structure.

Certification is evidence, not proof: every report records the probe
budget so a "pass" claim is scoped to it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field
from functools import cache, partial

import numpy as np

from .blocklinalg import coupling_opnorm, gram_assemble, nonsingular
from .errors import DomainError, DuplicateCenterError, OrderError, ShapeError, SingularError
from .gridsearch import refine_max_rows, vdc_points
from .kernels import (
    BUILTIN_FAMILIES,
    OperatorKernel,
    kernel_to_dict,
    require_in_domain,
    scalar_uniform_bound,
    scalar_values,
)

REFINE_ITERS = 30
MAX_ATTEMPTS = 1000  # draws of a center set before sample_centers gives up
PROBE_CHUNK = 1 << 17  # float64 values per probe temporary (1 MiB): rows per block


@dataclass(frozen=True)
class CertificationConfig:
    """Probe budget for a certification run.

    grid_size is the query grid of the a2 sample and, for custom kernels
    only, of the a4 scan.  tolerance is the slack allowed above the
    stability bound 1: the bound is attained in the limit (query
    approaching a center), so exact comparison against 1 would be
    float-hostile.
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
    rows: list = field(default_factory=list)  # (m, trial, worst-per-set)
    singular: list = field(default_factory=list)  # centers failing the singularity rule
    worst_cond: float = 0.0  # of the other Grams
    cholesky_ok: bool = True  # whether Cholesky accepted all the other Grams

    def a4_passes(self, tolerance: float) -> bool:
        """The a4 rule: a set was scanned and none exceeds 1 + tolerance."""
        return bool(self.rows) and self.worst <= 1.0 + tolerance

    def a4_dict(self) -> dict:
        """The a4 section of a report; worst is None when no set was scanned."""
        return {
            "worst": self.worst if self.rows else None,
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
    rows: list = field(default_factory=list, repr=False)  # (m, trial, worst)

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


def _draw_sets(lo: float, hi: float, m: int, rows: int, draw) -> np.ndarray:
    """rows sorted sets of m centers in (lo, hi) with a minimum separation
    of (hi - lo)/(10 m): draw(pending, done) gives the pending rows' next
    attempts of m uniform draws, (pending, attempts, m), after the done
    ones and at most MAX_ATTEMPTS - done of them; each row keeps its
    first attempt that passes, sorted."""
    min_sep = (hi - lo) / (10.0 * m)
    out, todo, done = np.empty((rows, m)), np.arange(rows), 0
    while todo.size:
        if done >= MAX_ATTEMPTS:
            raise ValueError(f"no {m} centers in ({lo}, {hi}) at separation {min_sep!r} "
                             f"in {MAX_ATTEMPTS} draws")
        pts = np.sort(draw(todo, done), axis=2)
        ok = ((pts[:, :, 0] > lo) & (pts[:, :, -1] < hi)
              & (np.diff(pts).min(axis=2, initial=math.inf) >= min_sep))
        hit = ok.any(axis=1)
        out[todo[hit]] = pts[hit, ok[hit].argmax(axis=1)]
        todo, done = todo[~hit], done + pts.shape[1]
    return out


def sample_centers(lo: float, hi: float, m: int, rng: np.random.Generator) -> np.ndarray:
    """m sorted centers drawn uniformly from (lo, hi) with a minimum
    separation of (hi - lo)/(10 m) to avoid spurious near-duplicates."""
    return _draw_sets(lo, hi, m, 1, lambda todo, done: rng.uniform(lo, hi, size=(1, 1, m)))[0]


_M32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(h: int, mult: int):
    """SeedSequence's hash with its running constant h, as a function of
    the words to hash (a uint32 array or an int)."""
    def hashmix(v):
        nonlocal h
        v = (v ^ h) * (h := h * mult & _M32) & _M32  # xor with h, multiply by the next h
        return v ^ v >> 16
    return hashmix


def _mix(x, y):
    """SeedSequence's mix, 0xCA01F9DD x - 0x4973F715 y mod 2**32, then a shift-xor."""
    r = ((0xCA01F9DD * x & _M32) + (0xB68C08EB * y & _M32)) & _M32
    return r ^ r >> 16


def _limbs(*values: int) -> np.ndarray:
    """Python ints mod 2**128 as (4, len(values)) uint64 32-bit limbs, low limb first."""
    raw = b"".join((v % (1 << 128)).to_bytes(16, "little") for v in values)
    return np.frombuffer(raw, dtype="<u4").reshape(len(values), 4).T.astype(np.uint64)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[:, 0] y[:, 0] + x[:, 1] y[:, 1] mod 2**128 for (4, 2, ...) uint64
    arrays of 32-bit limbs, low limb first, broadcast against each other.
    Limb i of x times limb c - i of y adds to columns c and c + 1."""
    out, carry = [], 0
    for c in range(4):
        t, i = np.divmod(np.arange(2 * c + 2), c + 1)
        prod = x[i, t] * y[c - i, t]
        col = (prod & _M32).sum(axis=0) + carry
        out.append(col & _M32)
        if c < 3:  # what the top column carries falls beyond 2**128
            carry = (prod >> 32).sum(axis=0) + (col >> 32)
    return np.stack(out)


def _streams(seed: int, key: int, trials: int) -> np.ndarray:
    """The PCG64 streams np.random.default_rng(SeedSequence(entropy=seed,
    spawn_key=(key, trial))) draws from, trial = 0..trials-1, as a
    (4, 2, trials) uint64 array: the initial state and the increment
    (initseq << 1) | 1 of each stream, in 32-bit limbs, low limb first.

    The SeedSequence pool hashing and generate_state(4, uint64) run on all
    trials at once; words shared by every trial stay Python ints."""
    seed = operator.index(seed)
    words = [seed >> 32 * i & _M32 for i in range(max(1, -(-seed.bit_length() // 32)))]
    words += [0] * (4 - len(words)) + [key, np.arange(trials, dtype=np.uint32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(w))
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    out = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    # as uint64, out[1]:out[0] and out[3]:out[2] are the high and low halves
    # of the initial state, out[5]:out[4] and out[7]:out[6] those of initseq
    seq = np.array([out[6], out[7], out[4], out[5]])
    inc = seq << 1 & _M32
    inc[1:] |= seq[:-1] >> 31
    inc[0] |= 1
    return np.stack([np.array([out[2], out[3], out[0], out[1]]), inc], axis=1)


def _cum(k: int) -> int:
    """c_k = 1 + a + ... + a**(k-1) mod 2**128 for the PCG64 multiplier a:
    (a**k - 1)/(a - 1), exact when a**k is reduced mod (a - 1) 2**128."""
    return (pow(_PCG_MULT, k, (_PCG_MULT - 1) << 128) - 1) // (_PCG_MULT - 1)


@cache
def _jumps(e: int) -> np.ndarray:
    """(a**k, c_k) for k = 0 .. 2**e - 1 as (4, 2, 2**e) limbs, k steps
    x -> a x + inc taking x to a**k x + c_k inc; by doubling, as k + n steps
    are n steps after k: a**(k+n) = a**n a**k and c_(k+n) = a**n c_k + c_n."""
    if e == 0:
        return _limbs(1, 0)[:, :, None]
    half, n = _jumps(e - 1), 1 << e - 1
    step = np.stack([half, np.broadcast_to(_limbs(0, 1)[:, :, None], half.shape)], axis=1)
    jump = _limbs(pow(_PCG_MULT, n, 1 << 128), _cum(n))[:, :, None, None]
    return np.concatenate([half, _dot(jump, step)], axis=2)


def _raw(streams: np.ndarray, start: int, count: int) -> np.ndarray:
    """Outputs start + 1 .. start + count of each of the _streams, as
    (trials, count) uint64, what PCG64.random_raw gives.

    PCG64 seeds by a step from 0, adding the state, and a step; so output k
    comes from the state a**(k+1) state + c_(k+2) inc, and the outputs after
    the first by its _jumps: multiply-adds on 32-bit limbs, then XSL-RR."""
    x = _dot(_limbs(pow(_PCG_MULT, start + 2, 1 << 128), _cum(start + 3))[:, :, None], streams)
    jumps = _jumps(max(0, count - 1).bit_length())[:, :, None, :count]
    x = _dot(jumps, np.stack([x, streams[:, 1]], axis=1)[:, :, :, None])  # (4, trials, count)
    xor = (x[3] << 32 | x[2]) ^ (x[1] << 32 | x[0])
    rot = x[3] >> 26
    return xor >> rot | xor << (64 - rot & 63)


def _uniform(streams: np.ndarray, start: int, count: int, lo: float, hi: float) -> np.ndarray:
    """_raw's outputs as Generator.uniform(lo, hi) makes them, through the
    double (raw >> 11) 2**-53 of Generator.random."""
    return lo + (hi - lo) * ((_raw(streams, start, count) >> 11) * 2.0**-53)


def _center_stacks(kernel: OperatorKernel, cfg: CertificationConfig):
    """(m, X) for m = 1..cfg.max_centers: X stacks the cfg.trials seeded
    sets of m centers, checked as validate_centers checks one set.

    Trial k's set is sample_centers(lo, hi, m, rng) with rng seeded from
    SeedSequence(entropy=cfg.seed, spawn_key=(m, k)), by counter and never
    by a shared stream, so it does not depend on how many trials ran
    before it; all trials are drawn at once (_streams, _raw)."""
    lo, hi = _require_bounded(kernel)
    for m in range(1, cfg.max_centers + 1):
        streams = _streams(cfg.seed, m, cfg.trials)

        def draw(todo, done):
            # 1, 1, 2, 4, ... attempts per round, at most 2**15 draws after the first
            n = max(1, min(done, MAX_ATTEMPTS - done, (1 << 15) // (todo.size * m)))
            return _uniform(streams[:, :, todo], done * m, n * m, lo, hi).reshape(todo.size, n, m)

        X = _draw_sets(lo, hi, m, cfg.trials, draw)
        require_in_domain(kernel.scalar, X, what="center")
        if not (np.diff(X, axis=1) > 0).all():
            raise DuplicateCenterError("centers must be pairwise distinct")
        yield m, X


def _gram_stack(kernel: OperatorKernel, X: np.ndarray):
    """(G, s, ok) for the stacked center sets X: their Grams, the singular values
    of each (as np.linalg.cond takes them) and which pass the singularity rule."""
    G = scalar_values(kernel.scalar, X[:, :, None], X[:, None, :])
    scale = np.abs(G).max(axis=(1, 2))
    # a non-finite Gram fails the rule anyway; LAPACK would refuse its SVD
    s = np.linalg.svd(np.where(np.isfinite(scale)[:, None, None], G, 0.0), compute_uv=False)
    return G, s, nonsingular(s.min(axis=1), scale)


def _stability_values(kernel: OperatorKernel, X: np.ndarray, G: np.ndarray,
                      Q: np.ndarray) -> np.ndarray:
    """sum_i |b_i| with G[x] b = G_x(query) for each center set (a row of X,
    its Gram in G) at its queries (a row of Q, or one row shared by all
    sets), by one stacked solve.

    For product kernels this is the exact grouped operator norm of
    K[x]^{-1} K_x(query) for every p: the coupling cancels and the column
    blocks are b_i times the identity.  A query colliding exactly with a
    center yields exactly 1 (b is a standard basis vector).
    """
    g = scalar_values(kernel.scalar, Q[:, None, :], X[:, :, None])
    vals = np.abs(np.linalg.solve(G, g)).sum(axis=1)
    vals[(Q[:, :, None] == X[:, None, :]).any(axis=2)] = 1.0
    return vals


def lebesgue_at(kernel: OperatorKernel, centers, query: float) -> float:
    """Stability value at one query point against one center set."""
    system = gram_assemble(kernel, centers)
    arr = np.atleast_1d(np.asarray(centers, dtype=float))
    q = float(require_in_domain(kernel.scalar, query, what="query"))
    return float(_stability_values(kernel, arr[None], system.G[None], np.array([[q]]))[0, 0])


def _breakpoint_sup(kernel: OperatorKernel, ends: np.ndarray, X: np.ndarray, G: np.ndarray):
    """Exact per-set supremum of the stability value for the builtin
    families.  Returns (worst, query) per set, worst computed at query.

    With lo < x_1 < ... < x_m < hi, Lambda(q) = sum_i |b_i(q)| is convex
    on every segment between consecutive breakpoints lo, x_1, ..., x_m, hi:

    * tfamily (brownianbridge is t = 1), wendland and combination live on
      a subinterval of (0, 1), so |q - x_i| < 1 and each
      G(q, x_i) = min(q, x_i) - t*q*x_i or 1 - |q - x_i| is affine in q on
      a segment.  Then b(q) = G[x]^{-1} G_x(q) is affine there and Lambda
      is a sum of absolute values of affine functions.
    * exponential: exp(-|x - y|) is the covariance of a Markov process, so
      b has at most two nonzeros, the neighbours of q (Rybicki & Press,
      PRL 74:1060, 1995).  On a gap of width h at offset a from its left
      center, b_i = sinh(h - a)/sinh h and b_{i+1} = sinh a/sinh h, so
      Lambda = (sinh a + sinh(h - a))/sinh h = cosh(a - h/2)/cosh(h/2).
      Below x_1 or above x_m, b = exp(-d) e_1 or exp(-d) e_m, with d the
      distance to the nearest center, and Lambda = exp(-d).

    A convex function on a segment attains its supremum at an end of it,
    and at a center b = e_i, so Lambda = 1 exactly.  Hence
    sup_q Lambda = max(1, Lambda(lo+), Lambda(hi-)).  b extends
    continuously to the domain endpoints, so the two one-sided limits are
    evaluated at the nearest floats inside the domain.  The witness is
    that float, or the first center when neither limit exceeds 1, and
    lebesgue_at reproduces the reported value: like it, each end gets a
    one-column solve (LAPACK may round a two-column solve differently).
    """
    vals = np.hstack([_stability_values(kernel, X, G, np.array([[q]])) for q in ends])
    k = vals.argmax(axis=1)
    top = vals[np.arange(len(X)), k]
    over = top > 1.0
    return np.where(over, top, 1.0), np.where(over, ends[k], X[:, 0])


def _grid_sup(kernel: OperatorKernel, probes: np.ndarray, X: np.ndarray, G: np.ndarray):
    """Sampled per-set supremum for custom kernels, (worst, query) per set:
    the probes (nested grid plus the inward domain endpoints) with golden
    refinement around the best of them, in lockstep over the sets."""
    lo, hi = kernel.scalar.domain
    vals = _stability_values(kernel, X, G, probes[None, :])
    query, worst = refine_max_rows(lambda q: _stability_values(kernel, X, G, q[:, None])[:, 0],
                                   probes, vals, lo, hi, iters=REFINE_ITERS)
    return worst, query


def _set_sup(kernel: OperatorKernel, cfg: CertificationConfig):
    """The scan method for this kernel, its per-set supremum as a function
    (X, G) -> (worst, query), one entry per center set, and the queries
    of its widest stacked solve."""
    lo, hi = _require_bounded(kernel)
    # the floats nearest the domain endpoints, inside the open domain
    ends = np.array([np.nextafter(lo, hi), np.nextafter(hi, lo)])
    if kernel.scalar.family in BUILTIN_FAMILIES:
        return "breakpoint-exact", partial(_breakpoint_sup, kernel, ends), 1
    probes = np.concatenate([vdc_points(lo, hi, cfg.grid_size), ends])
    return "grid-golden", partial(_grid_sup, kernel, probes), probes.size


def _scan_sets(kernel: OperatorKernel, cfg: CertificationConfig) -> ScanResult:
    """Worst stability value over seeded random center sets of every size
    up to cfg.max_centers, batched per size: the one scan behind
    lebesgue_scan and certify.  A Gram failing the singularity rule lists
    its centers under singular and is skipped.  Each size runs in blocks of
    sets whose Grams and widest solve hold at most PROBE_CHUNK values each;
    stacked LAPACK calls run one matrix at a time, so blocks change no value."""
    method, set_sup, width = _set_sup(kernel, cfg)
    scan = ScanResult(worst=-math.inf, centers=None, query=None, method=method)
    for m, X in _center_stacks(kernel, cfg):
        step = max(1, PROBE_CHUNK // (m * max(m, width)))
        for r in range(0, len(X), step):
            x = X[r:r + step]
            G, s, ok = _gram_stack(kernel, x)
            scan.singular.extend(x[~ok].tolist())
            if not ok.any():
                continue
            x, G = x[ok], G[ok]
            scan.worst_cond = max(scan.worst_cond, float((s[ok, 0] / s[ok, -1]).max()))
            try:  # one stacked call, which raises unless every Gram is numerically SPD
                np.linalg.cholesky(G)
            except np.linalg.LinAlgError:
                scan.cholesky_ok = False
            vals, queries = set_sup(x, G)
            trials = (r + np.flatnonzero(ok)).tolist()
            scan.rows.extend(zip([m] * len(vals), trials, vals.tolist()))
            # the first set attaining the maximum, as a sequential scan finds it
            k = int(np.argmax(np.where(np.isnan(vals), -math.inf, vals)))
            if vals[k] > scan.worst:
                scan.worst, scan.centers, scan.query = float(vals[k]), x[k], float(queries[k])
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
    """Max |G| over sampled point pairs: nested grid points plus seeded
    uniform draws, all pairs including the diagonal."""
    lo, hi = _require_bounded(kernel)
    # the stream of spawn key (0, 0), which no center set uses (m >= 1)
    pts = np.concatenate([
        vdc_points(lo, hi, min(cfg.grid_size, 512)),
        _uniform(_streams(cfg.seed, 0, 1), 0, 512, lo, hi)[0],
    ])
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
    a1 = {"worst_cond": scan.worst_cond * float(np.linalg.cond(kernel.coupling.A)),
          "singular": scan.singular, "cholesky_ok": scan.cholesky_ok}

    gmax = _a2_sample(kernel, cfg)
    opnorm = coupling_opnorm(kernel.coupling.A, kernel.p)
    kappa_sampled = gmax * opnorm
    bound = scalar_uniform_bound(kernel.scalar)
    kappa_analytic = None if bound is None else bound * opnorm
    kappa = kappa_sampled if kappa_analytic is None else max(kappa_sampled, kappa_analytic)

    a2 = {
        "kappa": kappa,
        "kappa_sampled": kappa_sampled,
        "kappa_analytic": kappa_analytic,
        "max_abs_scalar": gmax,
    }
    builtin = kernel.scalar.family in BUILTIN_FAMILIES
    sampled = scan.method == "grid-golden"
    a2_ok = bound is None or gmax <= bound * (1.0 + 1e-12) + cfg.tolerance
    a4_ok = scan.a4_passes(cfg.tolerance)
    verdict = {
        "a1": "pass" if not scan.singular else "fail",
        "a2": "pass" if a2_ok else "fail",
        # implied by the product structure with a strictly positive
        # definite scalar factor; not directly testable by finite sampling
        "a3": "implied" if builtin else "not-directly-testable",
        "a4": "pass" if a4_ok else "fail",
        "overall": "pass" if (not scan.singular and a2_ok and a4_ok) else "fail",
        "evidence": {
            "center_sets": len(scan.rows) + len(scan.singular),
            # the exact path probes no query grid
            "queries_per_set": cfg.grid_size + 2 if sampled else None,
            "refine_iters": REFINE_ITERS if sampled else None,
        },
    }
    return CertificationReport(
        kernel=kernel_to_dict(kernel),
        config=cfg,
        a1=a1,
        a2=a2,
        a4=scan.a4_dict(),
        verdict=verdict,
        rows=scan.rows,
    )


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
    """CSV text of (m, trial, worst) rows for plotting."""
    lines = ["m,trial,worst_lambda"]
    for m, trial, val in rows:
        lines.append(f"{m},{trial},{val!r}")
    return "\n".join(lines) + "\n"
