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
import os
import sys
import tempfile
from typing import TYPE_CHECKING

# numpy and the package modules load inside the functions that use them,
# so that a command compiles only its own modules
from .errors import (
    DataFormatError,
    GroupKernelsError,
    NonconvergenceError,
    RankError,
    SingularError,
)

if TYPE_CHECKING:
    import numpy as np

    from . import kernels

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


def _reals(value: str) -> list[float]:
    """argparse type: comma-separated reals, empty items skipped."""
    try:
        return [float(v) for v in value.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {value!r}") from None


def _pair(value: str) -> tuple[float, float]:
    """argparse type: two comma-separated reals."""
    pair = _reals(value)
    if len(pair) != 2 or value.count(",") != 1:
        raise argparse.ArgumentTypeError(f"expected two comma-separated reals, got {value!r}")
    return pair[0], pair[1]


def _given(args, *names) -> dict:
    """The named flags that were given, as keyword arguments: an omitted
    flag is left out of the call, so the library's default decides."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _parse_coupling(value: str) -> kernels.TaskCoupling:
    from . import kernels
    if value.startswith("identity:"):
        try:
            n = int(value.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"--coupling identity:N needs an integer N, got {value!r}") from None
        return kernels.TaskCoupling.identity(n)
    return kernels.TaskCoupling.from_csv(value)


def _build_kernel(args) -> kernels.OperatorKernel:
    from . import kernels
    if args.kernel_json is not None:
        return kernels.load_kernel(args.kernel_json)
    spec = kernels.ScalarKernelSpec(args.kernel, t=args.t, weights=args.weights,
                                    domain=args.domain)
    if args.coupling is None:
        raise UsageError("--coupling is required (identity:N or a CSV path)")
    return kernels.OperatorKernel(scalar=spec, coupling=_parse_coupling(args.coupling),
                                  **_given(args, "p"))


def _meta(args) -> dict:
    if args.deterministic:
        return {}
    return {"generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat()}


def _model_json(model, args) -> str:
    from . import solvers
    data = solvers.model_to_dict(model)
    data["meta"].update(_meta(args))
    return _json_text(data)


def _predictions_csv(points: np.ndarray, preds: np.ndarray) -> str:
    import numpy as np
    from . import kernels
    header = ["x", *(f"y{i}" for i in range(1, preds.shape[1] + 1))]
    return kernels.csv_text(header, np.column_stack([points, preds]).tolist())


def _load_training(args, kernel):
    from . import solvers
    from .blocklinalg import BlockVector
    x, y = solvers.read_training_csv(args.data, kernel.scalar.domain)
    if y.shape[1] != kernel.coupling.n:
        raise DataFormatError(
            f"{args.data}: {y.shape[1]} output columns but coupling has n={kernel.coupling.n}"
        )
    return x, BlockVector(y, kernel.p)


def _cmd_interpolate(args) -> int:
    from . import solvers
    kernel = _build_kernel(args)
    x, y = _load_training(args, kernel)
    model = solvers.min_norm_interpolant(kernel, x, y)
    _write_atomic(args.out, _model_json(model, args))
    return 0


def _cmd_fit(args) -> int:
    from . import kernels, solvers
    kernel = _build_kernel(args)
    x, y = _load_training(args, kernel)
    if args.lam is None and args.lambda_grid is None:
        raise UsageError("fit requires --lambda and/or --lambda-grid")
    if args.lambda_grid is not None and args.path_out is None:
        raise UsageError("--lambda-grid requires --path-out")
    if args.lam is not None and args.out is None:
        raise UsageError("--lambda requires --out")

    def config(lam):
        return solvers.LearnConfig(lam=lam, **_given(args, "loss", "max_iters", "tol"))

    if args.lambda_grid is not None:
        fits = [solvers.fit_regularized(kernel, x, y, config(lam)) for lam in args.lambda_grid]
        rows = [(lam, m.norm_lp1, m.meta["objective"]) for lam, m in zip(args.lambda_grid, fits)]
        _write_atomic(args.path_out, kernels.csv_text(["lambda", "norm_lp1", "objective"], rows))
    if args.lam is not None:
        model = solvers.fit_regularized(kernel, x, y, config(args.lam))
        _write_atomic(args.out, _model_json(model, args))
    return 0


def _cmd_predict(args) -> int:
    from . import kernels, solvers
    model = solvers.model_from_dict(kernels.read_json(args.model))
    points = solvers.read_points_csv(args.points, model.kernel.scalar.domain)
    preds = solvers.predict_many(model, points)
    _write_atomic(args.out, _predictions_csv(points, preds))
    return 0


def _cmd_pursuit(args) -> int:
    import numpy as np
    from . import solvers
    kernel = _build_kernel(args)
    x, y = _load_training(args, kernel)
    centers = np.concatenate([x, np.asarray(args.extra_centers, dtype=float)])
    model = solvers.group_basis_pursuit(kernel, centers, x, y, **_given(args, "max_iters"))
    _write_atomic(args.out, _model_json(model, args))
    return 0


_SCAN_FLAGS = ("max_centers", "grid_size", "trials", "seed", "tolerance")


def _cmd_certify(args) -> int:
    from . import admissibility
    kernel = _build_kernel(args)
    cfg = admissibility.CertificationConfig(**_given(args, *_SCAN_FLAGS))
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
    from . import admissibility
    kernel = _build_kernel(args)
    cfg = admissibility.CertificationConfig(**_given(args, *_SCAN_FLAGS))
    result = admissibility.lebesgue_scan(kernel, cfg)
    data = admissibility.scan_report_dict(kernel, cfg, result)
    data["meta"] = _meta(args)
    _write_atomic(args.out, _json_text(data))
    if args.csv:
        _write_atomic(args.csv, admissibility.scan_rows_csv(result.rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    # the kernel checks its family and value ranges: parsing loads no numpy.
    # No flag restates a library default: an omitted one stays None (_given)
    kernel = argparse.ArgumentParser(add_help=False)
    which = kernel.add_mutually_exclusive_group(required=True)
    which.add_argument("--kernel", help="builtin family name")
    which.add_argument("--kernel-json", help="load the full kernel object from JSON instead")
    kernel.add_argument("--t", type=float)
    kernel.add_argument("--weights", type=_pair, help="C1,C2 for the combination family")
    kernel.add_argument("--domain", type=_pair, help="lo,hi open interval")
    kernel.add_argument("--p", type=float)
    kernel.add_argument("--coupling", help="identity:N or a CSV path")
    kernel.add_argument("--deterministic", action="store_true")

    parser = _Parser(prog="groupkernels",
                     description="multi-task kernel interpolation and learning "
                                 "with grouped coefficient norms")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", parents=[kernel], help="regularized fit from a training CSV")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--lambda", dest="lam", type=float)
    p_fit.add_argument("--lambda-grid", type=_reals,
                       help="comma-separated penalty weights; emits a path CSV")
    p_fit.add_argument("--path-out")
    p_fit.add_argument("--loss", choices=("squared", "absolute"))
    p_fit.add_argument("--max-iters", type=int)
    p_fit.add_argument("--tol", type=float)
    p_fit.add_argument("--out")

    p_int = sub.add_parser("interpolate", parents=[kernel], help="exact minimal-norm interpolation")
    p_int.add_argument("--data", required=True)
    p_int.add_argument("--out", required=True)

    p_pre = sub.add_parser("predict", help="evaluate a persisted model at points")
    p_pre.add_argument("--model", required=True)
    p_pre.add_argument("--points", required=True)
    p_pre.add_argument("--out", required=True)

    p_pur = sub.add_parser("pursuit", parents=[kernel],
                           help="grouped basis pursuit over an augmented center set")
    p_pur.add_argument("--data", required=True)
    p_pur.add_argument("--extra-centers", type=_reals, default=())
    p_pur.add_argument("--max-iters", type=int)
    p_pur.add_argument("--out", required=True)

    scan = argparse.ArgumentParser(add_help=False, parents=[kernel])
    scan.add_argument("--max-centers", type=int)
    scan.add_argument("--grid", dest="grid_size", type=int,
                      help="probe grid of custom kernels only, which the CLI cannot build")
    scan.add_argument("--trials", type=int)
    scan.add_argument("--seed", type=int)
    scan.add_argument("--tolerance", type=float)
    scan.add_argument("--out", required=True)
    scan.add_argument("--csv")
    p_cer = sub.add_parser("certify", parents=[scan], help="run the a1-a4 certification probes")
    p_cer.add_argument("--strict", action="store_true")
    sub.add_parser("lebesgue-scan", parents=[scan],
                   help="scan the interpolation stability constant")

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
        if getattr(args, "deterministic", False) and "numpy" not in sys.modules:
            # a threaded BLAS sums in an order set by its thread count, read as numpy loads
            os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                             "MKL_NUM_THREADS"), "1"))
        import numpy as np
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
