"""Command-line interface: data ingestion, kernel configuration, fitting,
prediction, certification, and report emission.

Exit codes: 0 success, 1 usage or input error, 2 mathematical failure
(singular or rank-deficient systems, solver non-convergence, or a failed
stability verdict under ``certify --strict``).  Outputs are written
atomically (temp file in the target directory, then rename).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import admissibility, kernels, solvers
from .blocklinalg import BlockVector
from .errors import (
    DataFormatError,
    GroupKernelsError,
    NonconvergenceError,
    RankError,
    SingularError,
)

# every package error that is not a mathematical failure is caller misuse
# or bad input; json.JSONDecodeError is a ValueError
_USAGE_ERRORS = (GroupKernelsError, ValueError, OSError)
_MATH_ERRORS = (SingularError, RankError, NonconvergenceError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _parse_float(value: str, what: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise UsageError(f"{what}: expected a real number, got {value!r}") from None


def _parse_pair(value: str, what: str):
    parts = value.split(",")
    if len(parts) != 2:
        raise UsageError(f"{what}: expected two comma-separated reals, got {value!r}")
    return _parse_float(parts[0], what), _parse_float(parts[1], what)


def _parse_list(value: str, what: str):
    return [_parse_float(v, what) for v in value.split(",") if v.strip() != ""]


def _parse_p(value: str) -> float:
    if value == "inf":
        return math.inf
    p = _parse_float(value, "--p")
    if p < 1:
        raise UsageError(f"--p must be >= 1, got {value}")
    return p


def _parse_coupling(value: str) -> kernels.TaskCoupling:
    if value.startswith("identity:"):
        try:
            n = int(value.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"--coupling identity:N needs an integer N, got {value!r}") from None
        return kernels.TaskCoupling.identity(n)
    return kernels.TaskCoupling.from_csv(value)


def _add_kernel_flags(sub):
    families = (*kernels.FAMILY_ALIASES, *kernels.BUILTIN_FAMILIES)
    sub.add_argument("--kernel", choices=families)
    sub.add_argument("--kernel-json", help="load the full kernel object from JSON instead")
    sub.add_argument("--t", type=float, default=None)
    sub.add_argument("--weights", default=None, help="C1,C2 for the combination family")
    sub.add_argument("--domain", default=None, help="lo,hi open interval")
    sub.add_argument("--p", default="2")
    sub.add_argument("--coupling", default=None, help="identity:N or a CSV path")


def _build_kernel(args) -> kernels.OperatorKernel:
    if args.kernel_json:
        return kernels.load_kernel(args.kernel_json)
    if not args.kernel:
        raise UsageError("either --kernel or --kernel-json is required")
    spec_kwargs = {}
    if args.t is not None:
        spec_kwargs["t"] = args.t
    if args.weights is not None:
        spec_kwargs["weights"] = _parse_pair(args.weights, "--weights")
    if args.domain is not None:
        spec_kwargs["domain"] = _parse_pair(args.domain, "--domain")
    spec = kernels.ScalarKernelSpec(args.kernel, **spec_kwargs)
    if args.coupling is None:
        raise UsageError("--coupling is required (identity:N or a CSV path)")
    coupling = _parse_coupling(args.coupling)
    return kernels.OperatorKernel(scalar=spec, coupling=coupling, p=_parse_p(args.p))


def _meta(args) -> dict:
    if args.deterministic:
        return {}
    return {"generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat()}


def _model_json(model, args) -> str:
    data = solvers.model_to_dict(model)
    data["meta"].update(_meta(args))
    return _json_text(data)


def _predictions_csv(points: np.ndarray, preds: np.ndarray) -> str:
    n = preds.shape[1]
    lines = ["x," + ",".join(f"y{i}" for i in range(1, n + 1))]
    for x, row in zip(points, preds):
        lines.append(",".join([repr(float(x))] + [repr(float(v)) for v in row]))
    return "\n".join(lines) + "\n"


def _load_training(args, kernel):
    x, y = solvers.read_training_csv(args.data, kernel.scalar.domain)
    if y.shape[1] != kernel.coupling.n:
        raise DataFormatError(
            f"{args.data}: {y.shape[1]} output columns but coupling has n={kernel.coupling.n}"
        )
    return x, BlockVector(y, kernel.p)


def _cmd_interpolate(args) -> int:
    kernel = _build_kernel(args)
    x, y = _load_training(args, kernel)
    model = solvers.min_norm_interpolant(kernel, x, y)
    _write_atomic(args.out, _model_json(model, args))
    return 0


def _cmd_fit(args) -> int:
    kernel = _build_kernel(args)
    x, y = _load_training(args, kernel)
    if args.lam is None and args.lambda_grid is None:
        raise UsageError("fit requires --lambda and/or --lambda-grid")
    if args.lambda_grid is not None and args.path_out is None:
        raise UsageError("--lambda-grid requires --path-out")
    if args.lam is not None and args.out is None:
        raise UsageError("--lambda requires --out")

    def config(lam):
        return solvers.LearnConfig(lam=lam, loss=args.loss, max_iters=args.max_iters,
                                   tol=args.tol)

    if args.lambda_grid is not None:
        rows = ["lambda,norm_lp1,objective"]
        for lam in _parse_list(args.lambda_grid, "--lambda-grid"):
            m = solvers.fit_regularized(kernel, x, y, config(lam))
            rows.append(f"{lam!r},{m.norm_lp1!r},{m.meta['objective']!r}")
        _write_atomic(args.path_out, "\n".join(rows) + "\n")
    if args.lam is not None:
        model = solvers.fit_regularized(kernel, x, y, config(args.lam))
        _write_atomic(args.out, _model_json(model, args))
    return 0


def _cmd_predict(args) -> int:
    model = solvers.model_from_dict(kernels.read_json(args.model))
    points = solvers.read_points_csv(args.points, model.kernel.scalar.domain)
    preds = solvers.predict_many(model, points)
    _write_atomic(args.out, _predictions_csv(points, preds))
    return 0


def _cmd_pursuit(args) -> int:
    kernel = _build_kernel(args)
    x, y = _load_training(args, kernel)
    extra = _parse_list(args.extra_centers, "--extra-centers") if args.extra_centers else []
    centers = np.concatenate([x, np.asarray(extra, dtype=float)])
    model = solvers.group_basis_pursuit(kernel, centers, x, y,
                                        max_iters=args.max_iters)
    _write_atomic(args.out, _model_json(model, args))
    return 0


def _scan_config(args) -> admissibility.CertificationConfig:
    return admissibility.CertificationConfig(
        max_centers=args.max_centers,
        grid_size=args.grid,
        trials=args.trials,
        seed=args.seed,
        tolerance=args.tolerance,
    )


def _cmd_certify(args) -> int:
    kernel = _build_kernel(args)
    cfg = _scan_config(args)
    report = admissibility.certify(kernel, cfg)
    data = report.to_dict()
    data["meta"] = _meta(args)
    _write_atomic(args.out, _json_text(data))
    if args.csv:
        _write_atomic(args.csv, admissibility.scan_rows_csv(report.rows))
    if args.strict and report.verdict["a4"] != "pass":
        print(f"certify: a4 verdict fail (worst {report.a4['worst']!r})", file=sys.stderr)
        return 2
    return 0


def _cmd_lebesgue_scan(args) -> int:
    kernel = _build_kernel(args)
    cfg = _scan_config(args)
    result = admissibility.lebesgue_scan(kernel, cfg)
    data = admissibility.scan_report_dict(kernel, cfg, result)
    data["meta"] = _meta(args)
    _write_atomic(args.out, _json_text(data))
    if args.csv:
        _write_atomic(args.csv, admissibility.scan_rows_csv(result.rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="groupkernels",
                     description="multi-task kernel interpolation and learning "
                                 "with grouped coefficient norms")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="regularized fit from a training CSV")
    _add_kernel_flags(p_fit)
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--lambda", dest="lam", type=float, default=None)
    p_fit.add_argument("--lambda-grid", default=None,
                       help="comma-separated penalty weights; emits a path CSV")
    p_fit.add_argument("--path-out", default=None)
    p_fit.add_argument("--loss", choices=("squared", "absolute"), default="squared")
    p_fit.add_argument("--max-iters", type=int, default=100_000)
    p_fit.add_argument("--tol", type=float, default=1e-10)
    p_fit.add_argument("--out", default=None)
    p_fit.add_argument("--deterministic", action="store_true")

    p_int = sub.add_parser("interpolate", help="exact minimal-norm interpolation")
    _add_kernel_flags(p_int)
    p_int.add_argument("--data", required=True)
    p_int.add_argument("--out", required=True)
    p_int.add_argument("--deterministic", action="store_true")

    p_pre = sub.add_parser("predict", help="evaluate a persisted model at points")
    p_pre.add_argument("--model", required=True)
    p_pre.add_argument("--points", required=True)
    p_pre.add_argument("--out", required=True)

    p_pur = sub.add_parser("pursuit", help="grouped basis pursuit over an "
                                           "augmented center set")
    _add_kernel_flags(p_pur)
    p_pur.add_argument("--data", required=True)
    p_pur.add_argument("--extra-centers", default=None)
    p_pur.add_argument("--max-iters", type=int, default=200_000)
    p_pur.add_argument("--out", required=True)
    p_pur.add_argument("--deterministic", action="store_true")

    for name, helptext in (("certify", "run the a1-a4 certification probes"),
                           ("lebesgue-scan", "scan the interpolation stability constant")):
        p = sub.add_parser(name, help=helptext)
        _add_kernel_flags(p)
        p.add_argument("--max-centers", type=int, default=6)
        p.add_argument("--grid", type=int, default=512,
                       help="probe grid of custom kernels only, which the CLI cannot build")
        p.add_argument("--trials", type=int, default=200)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tolerance", type=float, default=1e-8)
        p.add_argument("--out", required=True)
        p.add_argument("--csv", default=None)
        p.add_argument("--deterministic", action="store_true")
        if name == "certify":
            p.add_argument("--strict", action="store_true")

    return parser


_COMMANDS = {
    "fit": _cmd_fit,
    "interpolate": _cmd_interpolate,
    "predict": _cmd_predict,
    "pursuit": _cmd_pursuit,
    "certify": _cmd_certify,
    "lebesgue-scan": _cmd_lebesgue_scan,
}


def run(argv) -> int:
    """Execute one command; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # numpy would print a RuntimeWarning line for an overflow before the
        # one error line; the commands check their results for non-finite values
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _MATH_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except _USAGE_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
