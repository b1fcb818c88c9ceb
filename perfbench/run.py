"""Benchmark of the groupkernels command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  A run generates the workload's inputs
from the seed, then drives the CLI in a closed loop: one client, one
command at a time, each in a fresh interpreter whose peak RSS is read
from wait4.  It repeats whole passes of the workload for as close to
--seconds as whole passes allow (at least one, at most MAX_PASSES),
checks every command's output with the benchmark's own formulas
(checks.py) and reports medians.

--trace 1 instead runs untraced, traced and untraced passes of the same
argv in a single interpreter (tracer.py) and reports per-layer self-time
shares and counts.  --workload all runs every workload both ways and prints every
metric.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; metric names and units come from
BENCHMARK.json.  Details, spans and tables go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

# BLAS threads, fixed before numpy loads here and in every child: one
# thread keeps iteration counts and timings repeatable on a shared host.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

from workloads import WORKLOADS  # noqa: E402  (after the BLAS settings)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7
MAX_PASSES = 10  # fewer than 11 samples of any timing: medians only
RUN_LIMIT_S = 170.0  # commands still running this long after start are killed
ENTRY = "import sys; from groupkernels.cli import main; sys.argv[0] = 'groupkernels'; main()"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list, env: dict, log, deadline: float):
    """Run one process to completion: (exit code, seconds, peak RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=env, stdin=subprocess.DEVNULL,
                            stdout=log, stderr=log)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def check_op(op, code: int) -> list:
    if code != op.expect_exit:
        return [f"exit {code}, expected {op.expect_exit}"]
    return op.check()


def model_iterations(op):
    """Solver iterations recorded in the meta of a written model, if any."""
    path = Path(op.argv[op.argv.index("--out") + 1])
    try:
        return json.loads(path.read_text())["meta"].get("iterations")
    except (OSError, ValueError, KeyError):
        return None


def environment(workload: str, seed: int) -> dict:
    lines = {p.name: p.read_text().count("\n") for p in sorted((SRC / "groupkernels").glob("*.py"))}
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "clients": 1,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, work: Path, log) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    ops = WORKLOADS[workload](work, seed)(work / "out")
    (work / "out").mkdir()

    spawn(["-c", "import groupkernels.cli"], env, log, deadline)  # fill the bytecode cache
    setup = []
    for _ in range(SETUP_SAMPLES):
        code, secs, _ = spawn(["-c", "import groupkernels.cli"], env, log, deadline)
        if code != 0:
            raise RuntimeError("import groupkernels.cli failed; see the run log")
        setup.append(secs)

    walls, rss, failures, times, iterations = [], [], [], {}, {}
    per_op = [[] for _ in ops]
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        results = [spawn(["-c", ENTRY, *op.argv], env, log, deadline) for op in ops]
        walls.append(time.perf_counter() - pass_start)
        for op, samples, (code, secs, peak) in zip(ops, per_op, results):
            samples.append(secs)
            times.setdefault(f"{op.kind}_s", []).append(secs)
            rss.append(peak)
            problems = check_op(op, code)
            if problems:
                failures.append({"pass": len(walls), "op": op.label, "problems": problems})
            iters = model_iterations(op)
            if iters:
                iterations.setdefault(op.label, []).append(iters)
        # stop where the run ends closest to `seconds`
        elapsed = time.perf_counter() - start
        if len(walls) >= MAX_PASSES or elapsed + walls[-1] / 2 >= seconds:
            break

    attempted = len(ops) * len(walls)
    return {
        "passes": len(walls),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "samples": {"setup_s": setup, "pass_s": walls, "peak_rss_mb": rss, **times},
        "op_s": per_op,
        "iterations": iterations,
    }


def end_to_end(result: dict) -> dict:
    """Medians, and wall_s as the sum over the pass's commands of each
    command's median: a slow spell that hits one command in one pass then
    moves wall_s no more than it moves that command's median."""
    samples = result["samples"]
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["peak_rss_mb"] = max(samples["peak_rss_mb"])
    values["wall_s"] = sum(statistics.median(v) for v in result["op_s"])
    return values


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def trace(workload: str, seed: int, work: Path, log, spans_path: Path) -> dict:
    """Untraced, traced and untraced passes in one interpreter; the first
    warms it up and the last is the baseline for the tracing overhead."""
    deadline = time.monotonic() + RUN_LIMIT_S
    make_ops = WORKLOADS[workload](work, seed)
    passes = []
    for i, traced in enumerate((False, True, False)):
        (work / f"pass{i}").mkdir()
        passes.append((traced, make_ops(work / f"pass{i}")))
    plan, summary_path = work / "plan.json", work / "summary.json"
    plan.write_text(json.dumps([{"traced": t, "argv": [op.argv for op in ops]} for t, ops in passes]))
    code, _, peak = spawn([str(HERE / "tracer.py"), str(plan), str(summary_path),
                              str(spans_path)], child_env(), log, deadline)
    if code != 0:
        raise RuntimeError(f"traced run exited {code}; see the run log")
    summary = json.loads(summary_path.read_text())
    failures = []
    for i, ((_, ops), done) in enumerate(zip(passes, summary["passes"])):
        for op, op_code in zip(ops, done["codes"]):
            problems = check_op(op, op_code)
            if problems:
                failures.append({"pass": i + 1, "op": op.label, "problems": problems})
    summary.update(attempted=sum(len(ops) for _, ops in passes),
                   failed=len(failures), failures=failures,
                   traced_wall_s=summary["passes"][1]["wall_s"],
                   untraced_wall_s=summary["passes"][2]["wall_s"], peak_rss_mb=peak)
    return summary


def per_layer(s: dict) -> dict:
    """Per-layer metrics of a traced pass.  Times are given as percent of
    the traced pass, and solver speed as iterations per second, so that a
    layer a workload never reaches reads 0 as a share or a count, not as a
    time; the seconds are in the printed table and the saved summary."""
    calls, self_s, counts = s["calls"], s["self_s"], s["counts"]
    wall = s["traced_wall_s"]

    def ratio(a, b):
        return a / b if b else 0.0

    values = {f"{layer}.self_pct": 100.0 * v / wall for layer, v in s["module_self_s"].items()}
    for name in ("kernels.scalar_values", "blocklinalg.gram_assemble", "blocklinalg.solve_factored",
                 "gridsearch.vdc_points", "gridsearch.refine_max", "solvers.prox"):
        values[f"{name}.calls"] = calls.get(name, 0)
    for name in ("kernels.scalar_values", "blocklinalg.gram_assemble", "blocklinalg.solve_factored",
                 "blocklinalg.gram_solve", "blocklinalg.gram_apply", "gridsearch.vdc_points",
                 "gridsearch.refine_max", "admissibility.certify", "admissibility.lebesgue_scan",
                 "solvers.prox", "solvers.min_norm_interpolant", "solvers.predict_many",
                 "cli.read_csv", "cli.format", "cli.write"):
        values[f"{name}.self_pct"] = 100.0 * self_s.get(name, 0.0) / wall
    for name in ("kernels.scalar_values.entries", "kernels.scalar_values.max_temp_bytes",
                 "blocklinalg.gram_assemble.flops_computed", "gridsearch.refine_max.evals",
                 "admissibility.center_sets", "admissibility.singular_sets"):
        values[name] = counts.get(name, 0.0)
    values["blocklinalg.cholesky_ratio"] = ratio(counts.get("blocklinalg.cholesky", 0.0),
                                                 calls.get("blocklinalg.gram_assemble", 0))
    values["gridsearch.refine_max.improved_ratio"] = ratio(
        counts.get("gridsearch.refine_max.improved", 0.0), calls.get("gridsearch.refine_max", 0))
    for solver in ("fista", "fit_admm", "pursuit"):
        iters = counts.get(f"solvers.{solver}.iterations", 0.0)
        values[f"solvers.{solver}.iterations"] = iters
        values[f"solvers.{solver}.iter_per_s"] = ratio(iters, counts.get(f"solvers.{solver}.iter_s", 0.0))
    values["solvers.fit_admm.final_rho"] = s["final_rho"]
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = s["untraced_wall_s"]
    values["trace.overhead_s"] = wall - s["untraced_wall_s"]
    values["trace.spans"] = s["spans"]
    return values


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def select(values: dict, declared: list) -> dict:
    """The declared metrics, in BENCHMARK.json order, with their units."""
    missing = [m["name"] for m in declared if values.get(m["name"]) is None]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}


def print_env(env: dict) -> None:
    print(f"  env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, BLAS threads {env['blas_threads']}, "
          f"closed loop with {env['clients']} client, seed {env['seed']}")
    print("  wc -l src/groupkernels/*.py: " + ", ".join(
        f"{n} {name}" for name, n in env["src_lines"].items()) + f", {env['src_lines_total']} total")


def print_end_to_end(workload: str, result: dict, values: dict) -> None:
    print(f"{workload}: {result['passes']} pass(es), untraced")
    print(f"  {'wall_s':<14} {values['wall_s']:12.4f} s   "
          f"(sum of per-command medians, n={result['passes']} each)")
    units = {"peak_rss_mb": "MB"}
    for name, samples in result["samples"].items():
        stat = "max" if name == "peak_rss_mb" else "median"
        print(f"  {name:<14} {values[name]:12.4f} {units.get(name, 's'):<3} "
              f"({stat} of n={len(samples)})")
    print(f"  {'fail_ratio':<14} {result['failed'] / result['attempted']:12.4f}     "
          f"({result['failed']} of {result['attempted']} operations)")
    for label, iters in result["iterations"].items():
        same = "" if len(iters) == 1 else " (repeats exactly)" if len(set(iters)) == 1 else \
            f" (spread {min(iters)}..{max(iters)})"
        print(f"  iterations {label}: {iters}{same}")
    for failure in result["failures"]:
        print(f"  FAILED pass {failure['pass']} {failure['op']}: {'; '.join(failure['problems'])}")


def print_trace(workload: str, summary: dict, values: dict, declared: list) -> None:
    print(f"{workload}: in one interpreter, passes "
          + ", ".join(f"{'traced' if p['traced'] else 'untraced'} {p['wall_s']:.4f} s"
                      for p in summary["passes"])
          + f"; overhead {values['trace.overhead_s']:.4f} s, "
          f"{summary['spans']} spans, peak RSS {summary['peak_rss_mb']:.1f} MB")
    print(f"  {'module':<14} {'self_s':>10}")
    for layer, secs in summary["module_self_s"].items():
        print(f"  {layer:<14} {secs:10.4f}")
    print(f"  {'span':<32} {'calls':>9} {'self_s':>10} {'total_s':>10}")
    for name, n in summary["calls"].items():
        print(f"  {name:<32} {n:9d} {summary['self_s'][name]:10.4f} {summary['total_s'][name]:10.4f}")
    for m in declared:
        print(f"  {m['name']:<44} {values[m['name']]:16.6g} {m['unit']}")
    for solver in ("fista", "fit_admm", "pursuit"):
        iters = summary["counts"].get(f"solvers.{solver}.iterations")
        if iters:
            per_iter = summary["counts"][f"solvers.{solver}.iter_s"] / iters
            print(f"  solvers.{solver}: {iters:.0f} iterations, {per_iter:.4g} s per iteration")
    total, own = summary["total_s"], summary["self_s"]
    admiss = total.get("admissibility.certify", 0.0) + total.get("admissibility.lebesgue_scan", 0.0)
    if admiss:
        covered = summary["module_self_s"]["gridsearch"] + own.get("blocklinalg.solve_factored", 0.0)
        print(f"  gridsearch + solve_factored self time = {covered / admiss:.1%} "
              "of admissibility span time")
    for failure in summary["failures"]:
        print(f"  FAILED pass {failure['pass']} {failure['op']}: {'; '.join(failure['problems'])}")


def run_one(workload: str, seed: int, seconds: float, traced: bool, bench: dict) -> dict:
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}"
    work = HERE / "work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    env = environment(workload, seed)
    try:
        with open(OUT / f"{tag}-{'trace' if traced else 'run'}.log", "w") as log:
            if traced:
                summary = trace(workload, seed, work, log, OUT / f"{tag}-spans.csv")
                values = per_layer(summary)
                print_trace(workload, summary, values, bench["per_layer"])
                metrics = select(values, bench["per_layer"])
                result = {"env": env, "summary": summary, "metrics": metrics}
            else:
                result = measure(workload, seed, seconds, work, log)
                values = end_to_end(result)
                print_end_to_end(workload, result, values)
                metrics = select(values, bench["end_to_end"])
                result.update(env=env, metrics=metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_env(env)
    (OUT / f"{tag}-{'trace' if traced else 'run'}.json").write_text(json.dumps(result, indent=1))
    attempted = result["summary"]["attempted"] if traced else result["attempted"]
    failed = result["summary"]["failed"] if traced else result["failed"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "groupkernels" / "cli.py").is_file():
        print(f"error: no groupkernels sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    if args.workload != "all":
        out = run_one(args.workload, args.seed, seconds, bool(args.trace), bench)
    else:
        runs = {(w, t): run_one(w, args.seed, seconds, t, bench)
                for w in WORKLOADS for t in (False, True)}
        out = {"correct": all(r["correct"] for r in runs.values()),
               "attempted": sum(r["attempted"] for r in runs.values()),
               "failed": sum(r["failed"] for r in runs.values()),
               "metrics": {f"{w}/{name}": v for (w, _), r in runs.items()
                           for name, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
