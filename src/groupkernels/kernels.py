"""Scalar kernel families on intervals of the real line and their
multi-task operator lifts ``G(x, y) * A``.

Four closed-form families are built in (all symmetric and uniformly
bounded on their domains), plus ``brownianbridge``, which parses to
``tfamily`` with t = 1; a ``custom`` family wraps an arbitrary symmetric
callable for diagnostics.  Kernel objects are immutable and evaluation
is pure, so they are safe to share across threads.

Each builtin family is the Green's function of a second-order operator
on its interval: d^2/dy^2 G(x, .) = -delta_x for tfamily, -2 delta_x for
wendland on (0, 1), -(c1 + 2 c2) delta_x for combination, and
(1 - d^2/dy^2) e^-|x - y| = 2 delta_x for exponential.  This gives a3
(independence of infinite expansions): if sum_j G(x_j, .) A c_j = 0 with
sum_j ||c_j|| < inf and distinct x_j, the sum converges uniformly (G is
bounded), so the operator maps it to the finite measure
sum_j delta_{x_j} A c_j = 0 times the family's constant, and every c_j
is 0 as A is invertible (Stakgold & Holst, Green's Functions and
Boundary Value Problems, 2011).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DataFormatError, DomainError, DuplicateCenterError, ShapeError
from .gridsearch import vdc_points

BUILTIN_FAMILIES = ("tfamily", "wendland", "exponential", "combination")

# names that parse to a builtin family with its parameter fixed; a spec
# (and so its JSON) carries the builtin family
FAMILY_ALIASES = {"brownianbridge": ("tfamily", 1.0)}

# families defined on the unit interval only
_UNIT_FAMILIES = ("tfamily", "wendland", "combination")


@dataclass(frozen=True)
class ScalarKernelSpec:
    """Parametric description of a scalar kernel on an open interval.

    family   one of BUILTIN_FAMILIES, a FAMILY_ALIASES name, or "custom"
    t        mixing parameter of the min{x,y} - t*x*y family, in [-1, 1];
             also used for the first term of a combination (default 1.0)
    weights  (C1, C2) finite nonnegative weights of a combination, C1 + C2 > 0
    domain   open interval (lo, hi); evaluating at an endpoint is an error;
             when omitted, (-inf, inf) for exponential and (0, 1) otherwise
    func     vectorized symmetric callable, required for family="custom"
    """

    family: str
    t: float | None = None
    weights: tuple[float, float] | None = None
    domain: tuple[float, float] | None = None
    func: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = field(
        default=None, compare=False
    )

    def __post_init__(self):
        if self.family in FAMILY_ALIASES:
            if self.t is not None:
                raise ValueError(f"{self.family} takes no parameter t")
            family, t = FAMILY_ALIASES[self.family]
            object.__setattr__(self, "family", family)
            object.__setattr__(self, "t", t)
        if self.family not in BUILTIN_FAMILIES + ("custom",):
            raise ValueError(f"unknown kernel family {self.family!r}; known families: "
                             f"{', '.join((*BUILTIN_FAMILIES, *FAMILY_ALIASES))}")
        domain = self.domain
        if domain is None:
            domain = (-math.inf, math.inf) if self.family == "exponential" else (0.0, 1.0)
        lo, hi = float(domain[0]), float(domain[1])
        if not lo < hi:
            raise ValueError(f"domain must satisfy lo < hi, got ({lo}, {hi})")
        object.__setattr__(self, "domain", (lo, hi))
        if self.family in _UNIT_FAMILIES and not (0.0 <= lo < hi <= 1.0):
            raise ValueError(f"{self.family} is defined on (0, 1); got ({lo}, {hi})")
        if self.family in ("tfamily", "combination"):
            if self.t is None and self.family == "tfamily":
                raise ValueError("tfamily requires the parameter t")
            t = 1.0 if self.t is None else float(self.t)
            if not -1.0 <= t <= 1.0:
                raise ValueError(f"t must lie in [-1, 1], got {t}")
            object.__setattr__(self, "t", t)
        elif self.t is not None:
            raise ValueError(f"{self.family} takes no parameter t")
        if self.family == "combination":
            if self.weights is None:
                raise ValueError("combination requires weights (C1, C2)")
            if len(self.weights) != 2:
                raise ValueError(f"weights must be a pair (C1, C2), got {self.weights}")
            c1, c2 = float(self.weights[0]), float(self.weights[1])
            if not (0 <= c1 < math.inf and 0 <= c2 < math.inf and c1 + c2 > 0):
                raise ValueError(f"weights must be finite and nonnegative with C1 + C2 > 0, "
                                 f"got ({c1}, {c2})")
            object.__setattr__(self, "weights", (c1, c2))
        elif self.weights is not None:
            raise ValueError(f"{self.family} takes no weights")
        if self.family == "custom" and self.func is None:
            raise ValueError("custom kernels require func")


def brownian_bridge() -> ScalarKernelSpec:
    """min{x,y} - x*y on (0, 1): tfamily(1.0)."""
    return ScalarKernelSpec("brownianbridge")


def tfamily(t: float) -> ScalarKernelSpec:
    """min{x,y} - t*x*y on (0, 1), t in [-1, 1].

    The stability bound a4 (sup_q sum_i |b_i| <= 1 with G[x] b = G_x(q))
    holds for t in [0, 1].  For t < 0 it fails: for centers
    x_1 < ... < x_m the supremum is (1 + |t|)/(1 + |t|*x_m), approached as
    q -> 1, which lies strictly between 1 and 1 + |t|.
    """
    return ScalarKernelSpec("tfamily", t=float(t))


def wendland() -> ScalarKernelSpec:
    """max{1 - |x-y|, 0} on (0, 1)."""
    return ScalarKernelSpec("wendland")


def exponential(domain: tuple[float, float] | None = None) -> ScalarKernelSpec:
    """exp(-|x-y|); defined on all of R (the default domain), certifiable
    on bounded subintervals."""
    return ScalarKernelSpec("exponential", domain=domain)


def combination(c1: float, c2: float, t: float = 1.0) -> ScalarKernelSpec:
    """C1*(min{x,y} - t*x*y) + C2*max{1 - |x-y|, 0} on (0, 1)."""
    return ScalarKernelSpec("combination", t=float(t), weights=(float(c1), float(c2)))


def custom(func, domain: tuple[float, float]) -> ScalarKernelSpec:
    """Wrap a vectorized symmetric callable; not serializable, diagnostics only."""
    return ScalarKernelSpec("custom", domain=domain, func=func)


def _min_t_max(t: float, x, y) -> np.ndarray:
    """min{x,y} - t*x*y, factored as (1 - t*max{x,y}) * min{x,y}: a
    relative error of a few ulp near x = y = 1 with t = 1, where the
    difference form loses digits, and bitwise symmetric in (x, y)."""
    # the factor is complete before min{x,y} is formed, so at most two
    # broadcast-sized arrays are live at once
    return (1.0 - t * np.maximum(x, y)) * np.minimum(x, y)


def scalar_values(spec: ScalarKernelSpec, x, y) -> np.ndarray:
    """Vectorized kernel evaluation with numpy broadcasting; no domain checks."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if spec.family == "tfamily":
        return _min_t_max(spec.t, x, y)
    if spec.family == "wendland":
        return np.maximum(1.0 - np.abs(x - y), 0.0)
    if spec.family == "exponential":
        return np.exp(-np.abs(x - y))
    if spec.family == "combination":
        c1, c2 = spec.weights
        return c1 * _min_t_max(spec.t, x, y) + c2 * np.maximum(1.0 - np.abs(x - y), 0.0)
    return np.asarray(spec.func(x, y), dtype=float)


def scalar_uniform_bound(spec: ScalarKernelSpec) -> float | None:
    """Closed-form upper bound for sup |G| over the domain; None for custom.

    The builtin families are positive definite, so the supremum of |G| is
    attained along the diagonal and its closed form is elementary.
    """
    if spec.family == "exponential" or spec.family == "wendland":
        return 1.0
    if spec.family in ("tfamily", "combination"):
        # max over (0,1) of x - t*x^2
        diag = 1.0 / (4.0 * spec.t) if spec.t >= 0.5 else 1.0 - spec.t
        if spec.family == "combination":
            c1, c2 = spec.weights
            return c1 * diag + c2
        return diag
    return None


def sup_probes(spec: ScalarKernelSpec, centers, grid_size: int) -> tuple[np.ndarray, bool]:
    """(probes, exact): where the sup over the domain of the norm of an
    expansion at these centers sits, and whether the maximum over the
    probes is that sup.  The probes are the centers, the floats nearest
    each finite domain end inside the domain (lo's end first), and for a
    custom kernel grid_size nested grid points, clipped to the center
    hull on an infinite side: a sampled lower bound.

    The breakpoint lemma makes the builtin probes exact.  Between
    consecutive breakpoints (centers and domain ends) each component f
    of the expansion is affine for tfamily, wendland and combination
    (on a subinterval of (0, 1), |y - x_j| < 1, so min{y, x_j} - t y x_j
    and 1 - |y - x_j| bend only at x_j), and a e^y + b e^-y for
    exponential, where f'' = f makes f convex where positive and -f
    where negative.  So |f| is convex there, and so is any l^q norm of
    such values; a convex function on a segment peaks at an end.  Beyond
    the center hull an exponential expansion decays as e^-|y - x|, x the
    nearest center, so an infinite side needs no probe.  Lambda(q) =
    sum_i |b_i(q)| with G[x] b(q) = G_x(q) is such a norm: each b_i is an
    expansion at the centers (row i of G[x]^-1 against G_x(q))."""
    centers = np.asarray(centers, dtype=float)
    domain = np.array(spec.domain)
    ends = np.nextafter(domain, domain[::-1])[np.isfinite(domain)]
    if spec.family in BUILTIN_FAMILIES:
        return np.concatenate([centers, ends]), True
    lo, hi = spec.domain
    lo = lo if math.isfinite(lo) else centers.min()
    hi = hi if math.isfinite(hi) else centers.max()
    return np.concatenate([centers, ends, vdc_points(lo, hi, grid_size)]), False


@dataclass(frozen=True)
class MarkovGaps:
    """Site and gap quantities of a kernel G(x, y) = p(min{x,y}) q(max{x,y})
    whose ratio r = p/q is positive and strictly increasing, at the sites
    sorted as x_1 < ... < x_m.

    order  permutation sorting the caller's sites; sites = caller[order]
    diag   G(x_i, x_i) = p_i q_i                                  (m,)
    left   p_i / p_{i+1}                                          (m-1,)
    right  q_{i+1} / q_i                                          (m-1,)
    det    p_{i+1} q_i - p_i q_{i+1} = q_i q_{i+1} (r_{i+1} - r_i)  (m-1,)
    slack  1 - r_i / r_{i+1}                                      (m-1,)

    Every entry is written in terms of the gap h_i = x_{i+1} - x_i
    without forming p or q, so unbounded exponential sites cannot
    overflow: det is 2 sinh(h_i) for exponential and h_i for tfamily.
    """

    order: np.ndarray
    sites: np.ndarray
    diag: np.ndarray
    left: np.ndarray
    right: np.ndarray
    det: np.ndarray
    slack: np.ndarray


def markov_gaps(spec: ScalarKernelSpec, sites) -> MarkovGaps | None:
    """The Markov structure of spec at distinct sites, or None when the
    family has none.

    exponential has p = e^x, q = e^-x; tfamily(t) has p = x, q = 1 - t*x,
    positive on (0, 1) for every t in [-1, 1].  Their Gram inverses are
    tridiagonal.  wendland, combination and custom kernels are not of
    this form.
    """
    if spec.family not in ("exponential", "tfamily"):
        return None
    x = np.asarray(sites, dtype=float)
    order = np.argsort(x, kind="stable")
    x = x[order]
    h = x[1:] - x[:-1]
    if spec.family == "exponential":
        decay = np.exp(-h)
        with np.errstate(over="ignore"):  # det = inf past h ~ 710: a zero precision entry
            det = 2.0 * np.sinh(h)
        return MarkovGaps(order, x, np.ones_like(x), decay, decay, det, -np.expm1(-2.0 * h))
    q = 1.0 - spec.t * x
    return MarkovGaps(order, x, x * q, x[:-1] / x[1:], q[1:] / q[:-1],
                      h, h / (x[1:] * q[:-1]))


def require_in_domain(spec: ScalarKernelSpec, points, what: str = "point") -> np.ndarray:
    """Return points as a float array, raising DomainError if any lies
    outside the open interval."""
    pts = np.asarray(points, dtype=float)
    lo, hi = spec.domain
    inside = (pts > lo) & (pts < hi)
    if not np.all(inside):
        bad = np.atleast_1d(pts)[~np.atleast_1d(inside)][:1]
        raise DomainError(f"{what} {float(bad[0])!r} outside open domain ({lo}, {hi})")
    return pts


def require_finite(source, table: np.ndarray, rows, columns) -> None:
    """Reject nan and inf, which float() parses, naming the first such
    cell of a 2-d table by its row and column labels."""
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        i, j = bad[0]
        raise DataFormatError(
            f"{source}: row {rows[i]}, column {columns[j]}: non-finite value {table[i, j]!r}"
        )


def read_csv_rows(path):
    """(numbers, rows): the nonempty records of a CSV file as cell lists and
    their 1-based record numbers.  A record the csv module cannot split,
    such as one with a field past its 131,072-character limit, raises
    DataFormatError naming the file and record; so does text that is not
    UTF-8, naming the file."""
    numbers, rows = [], []
    lineno = 0
    with open(path, newline="") as fh:
        try:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if row:
                    numbers.append(lineno)
                    rows.append(row)
        except csv.Error as exc:
            raise DataFormatError(f"{path}: row {lineno + 1}: {exc}") from None
        except UnicodeDecodeError as exc:
            # exc.start counts from the decoder's current chunk, not the file
            raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return numbers, rows


def parse_cells(path, numbers, rows, columns) -> np.ndarray:
    """The first len(columns) cells of every row, each row holding at least
    that many, as a float table.  A non-numeric or non-finite cell raises
    DataFormatError naming its record number and column label."""
    k = len(columns)
    try:
        flat = [float(cell) for row in rows for cell in row[:k]]
    except ValueError:
        # the fast path found a bad cell; name the first one
        for lineno, row in zip(numbers, rows):
            for col, cell in zip(columns, row):
                try:
                    float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}: row {lineno}, column {col}: non-numeric value {cell!r}"
                    ) from None
    table = np.array(flat).reshape(len(rows), k)
    require_finite(path, table, numbers, columns)
    return table


def validate_centers(spec: ScalarKernelSpec, centers) -> np.ndarray:
    """Check centers are nonempty, in-domain and pairwise distinct; returns an array."""
    arr = require_in_domain(spec, centers, what="center")
    arr = np.atleast_1d(arr)
    if arr.size == 0:
        raise ShapeError("at least one center is required")
    if not distinct(arr):
        raise DuplicateCenterError("centers must be pairwise distinct")
    return arr


def distinct(values: np.ndarray) -> bool:
    """Whether the entries of a 1-d array are pairwise distinct, by sorting
    (np.unique loads numpy.ma on its first call)."""
    ordered = np.sort(values)
    return not bool((ordered[1:] == ordered[:-1]).any())


@dataclass(frozen=True)
class TaskCoupling:
    """Symmetric positive-definite matrix coupling the task outputs.

    The inverse is cached at construction (with one Newton refinement
    step) because every Kronecker-factored solve applies it per block.
    """

    n: int
    A: np.ndarray
    A_inv: np.ndarray

    @classmethod
    def from_matrix(cls, A) -> "TaskCoupling":
        A = np.array(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"coupling must be square, got shape {A.shape}")
        require_finite("coupling", A, range(1, A.shape[0] + 1), range(1, A.shape[1] + 1))
        n = A.shape[0]
        scale = np.abs(A).max() if n else 0.0
        if scale == 0.0 or np.abs(A - A.T).max() > 1e-12 * scale:
            raise ValueError("coupling must be symmetric positive definite")
        A = 0.5 * (A + A.T)
        try:
            np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            raise ValueError("coupling must be symmetric positive definite") from None
        A_inv = np.linalg.inv(A)
        # one Newton step: kills the O(eps*cond) residual of the raw inverse
        A_inv = A_inv @ (2.0 * np.eye(n) - A @ A_inv)
        A_inv = 0.5 * (A_inv + A_inv.T)
        if np.abs(A @ A_inv - np.eye(n)).max() > 1e-12:
            raise ValueError("coupling too ill-conditioned to invert reliably")
        A.setflags(write=False)
        A_inv.setflags(write=False)
        return cls(n=n, A=A, A_inv=A_inv)

    @classmethod
    def identity(cls, n: int) -> "TaskCoupling":
        if n < 1:
            raise ValueError("coupling dimension must be >= 1")
        eye = np.eye(n)
        eye.setflags(write=False)
        return cls(n=n, A=eye, A_inv=eye)

    @classmethod
    def from_csv(cls, path) -> "TaskCoupling":
        numbers, rows = read_csv_rows(path)
        if not rows:
            raise DataFormatError(f"{path}: coupling CSV must be n rows of n values, got none")
        for lineno, row in zip(numbers, rows):
            if len(row) != len(rows):
                raise DataFormatError(
                    f"{path}: row {lineno}: expected {len(rows)} values, one per row "
                    f"(n rows of n values), got {len(row)}"
                )
        return cls.from_matrix(parse_cells(path, numbers, rows, range(1, len(rows) + 1)))


@dataclass(frozen=True)
class OperatorKernel:
    """Operator-valued kernel K(x, y) = G(x, y) * A with a group exponent p.

    p rides on the kernel so that norms, solvers, and certification all
    agree on a single exponent per model.  Norm evaluation accepts any
    p >= 1 (including inf); the proximal solvers accept only p in {1, 2}.
    """

    scalar: ScalarKernelSpec
    coupling: TaskCoupling
    p: float = 2.0

    def __post_init__(self):
        p = float(self.p)
        if not (p >= 1.0):
            raise ValueError(f"group exponent p must satisfy p >= 1, got {p}")
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.coupling.n

    @property
    def q(self) -> float:
        """Conjugate exponent, 1/p + 1/q = 1."""
        return conjugate_exponent(self.p)


def conjugate_exponent(p: float) -> float:
    """q with 1/p + 1/q = 1 for p >= 1: inf at p = 1 and 1 at p = inf."""
    return math.inf if p == 1.0 else 1.0 if math.isinf(p) else p / (p - 1.0)


def eval_scalar(spec: ScalarKernelSpec, x: float, y: float) -> float:
    """Closed-form scalar kernel value G(x, y); symmetric in (x, y)."""
    require_in_domain(spec, x)
    require_in_domain(spec, y)
    return float(scalar_values(spec, x, y))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def json_field(data, path: str, read, source: str, default=None):
    """read(value) of the parsed-JSON field at a dotted path like "coupling.A",
    or default if it is missing and not None.  A missing field, a non-object
    on the path, or a TypeError or ValueError of read names the field."""
    value = data
    for key in path.split("."):
        if not isinstance(value, dict):
            raise DataFormatError(f"{source}: no object holds field {path!r}: {value!r:.40}")
        if key not in value:
            if default is None:
                raise DataFormatError(f"{source}: missing field {path!r}")
            return default
        value = value[key]
    try:
        return read(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past 1e308
        raise DataFormatError(f"{source}: field {path!r} is malformed: {value!r:.40}") from None


def json_number(value) -> float:
    """A JSON number, or "inf", the writers' spelling of p = inf."""
    if isinstance(value, bool) or (isinstance(value, str) and value != "inf"):
        raise TypeError("not a number")
    return float(value)


def json_array(value) -> np.ndarray:
    return np.array(value, dtype=float)


def _domain_to_json(domain):
    return [None if math.isinf(v) else v for v in domain]


def _domain_from_json(value):
    lo, hi = value
    return (-math.inf if lo is None else json_number(lo),
            math.inf if hi is None else json_number(hi))


def kernel_to_dict(kernel: OperatorKernel) -> dict:
    """JSON-ready description of an operator kernel."""
    spec = kernel.scalar
    out = {"family": spec.family}
    if spec.family in ("tfamily", "combination"):
        out["t"] = spec.t
    if spec.family == "combination":
        out["weights"] = list(spec.weights)
    out["domain"] = _domain_to_json(spec.domain)
    out["p"] = "inf" if math.isinf(kernel.p) else kernel.p
    out["coupling"] = {"n": kernel.coupling.n, "A": kernel.coupling.A.tolist()}
    return out


def kernel_from_dict(data: dict) -> OperatorKernel:
    """Rebuild a kernel from kernel_to_dict output.  Malformed input raises
    DataFormatError naming the first missing or mistyped field."""
    src = "kernel JSON"
    family = json_field(data, "family", str, src)
    if family == "custom":
        raise ValueError("custom kernels cannot be deserialized")
    if family not in BUILTIN_FAMILIES and family not in FAMILY_ALIASES:
        raise DataFormatError(f"unknown kernel family {family!r}")
    kwargs = {}
    if "domain" in data:
        kwargs["domain"] = json_field(data, "domain", _domain_from_json, src)
    if family == "tfamily":
        kwargs["t"] = json_field(data, "t", json_number, src)
    if family == "combination":
        kwargs["t"] = json_field(data, "t", json_number, src, 1.0)
        kwargs["weights"] = json_field(data, "weights", lambda v: tuple(map(json_number, v)), src)
    spec = ScalarKernelSpec(family, **kwargs)
    coupling = TaskCoupling.from_matrix(json_field(data, "coupling.A", json_array, src))
    if coupling.n != json_field(data, "coupling.n", json_number, src, coupling.n):
        raise DataFormatError("coupling n does not match matrix shape")
    p = json_field(data, "p", json_number, src, 2.0)
    return OperatorKernel(scalar=spec, coupling=coupling, p=p)


def read_json(path):
    """The parsed JSON value of a file.  Text that is not JSON (or not
    UTF-8), or nesting too deep for the parser, raises DataFormatError
    naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise DataFormatError(f"{path}: JSON nested too deeply to parse") from None
        except ValueError as exc:  # json.JSONDecodeError, UnicodeDecodeError
            raise DataFormatError(f"{path}: not JSON: {exc}") from None


def load_kernel(path) -> OperatorKernel:
    return kernel_from_dict(read_json(path))
