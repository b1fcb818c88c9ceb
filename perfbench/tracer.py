"""Traced in-process run of a workload's CLI operations.

Usage: python3 tracer.py PLAN.json SUMMARY.json SPANS.csv

PLAN.json holds a list of passes, each {"traced": bool, "argv": [argv, ...]},
run in order in this process through ``groupkernels.cli.run``.  A traced
pass runs with every layer function wrapped at the module attribute its
callers look it up by; each wrapped call records a span (name, start,
end, parent span, op id) in memory.  SPANS.csv receives the spans and
SUMMARY.json the exit codes and wall of every pass, and the per-name self
times and counts of the traced one.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

import groupkernels.admissibility as admissibility
import groupkernels.blocklinalg as blocklinalg
import groupkernels.cli as cli
import groupkernels.gridsearch as gridsearch
import groupkernels.kernels as kernels
import groupkernels.solvers as solvers

MODULES = (cli, kernels, blocklinalg, gridsearch, admissibility, solvers)
LAYERS = ("cli", "kernels", "blocklinalg", "gridsearch", "admissibility", "solvers")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name id, start, end, parent, op)
        self.stack: list[int] = []  # indices of the open spans
        self.op = -1
        self.counts = defaultdict(float)
        self.final_rho = 0.0
        self.patched: list[tuple] = []  # (module, attribute, original)

    def span(self, name: str, func, after=None):
        """Wrap func so each call records a span; after(args, result, exc,
        duration) adds the layer's counts."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = exc = None
            start = clock()
            try:
                result = func(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op)
                if after is not None:
                    after(args, result, exc, end - start)

        return traced

    def install(self, module, attr: str, name: str, after=None, inner=None):
        """Replace module.attr, and every other package module's binding of
        the same function, by one traced wrapper around inner (default: the
        function itself)."""
        original = getattr(module, attr)
        wrapper = self.span(name, inner or original, after)
        for mod in MODULES:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self.patched.append((mod, attr, original))

    def uninstall_all(self):
        for mod, attr, original in reversed(self.patched):
            setattr(mod, attr, original)
        self.patched.clear()

    # -- per-layer counters ------------------------------------------------

    def _scalar_values(self, args, result, exc, duration):
        if result is not None:
            self.counts["kernels.scalar_values.entries"] += result.size
            self.counts["kernels.scalar_values.max_temp_bytes"] = max(
                self.counts["kernels.scalar_values.max_temp_bytes"], 8.0 * result.size)

    def _gram_assemble(self, args, result, exc, duration):
        if result is not None:
            self.counts["blocklinalg.gram_assemble.flops_computed"] += result.m ** 3 / 3.0
            self.counts["blocklinalg.cholesky"] += result.kind == "cholesky"

    def _certify(self, args, result, exc, duration):
        if result is not None:
            self.counts["admissibility.center_sets"] += result.verdict["evidence"]["center_sets"]
            self.counts["admissibility.singular_sets"] += len(result.a1["singular"])

    def _lebesgue_scan(self, args, result, exc, duration):
        if result is not None:
            self.counts["admissibility.center_sets"] += len(result.rows)

    def _iterations(self, key):
        def after(args, result, exc, duration):
            iters = result.meta["iterations"] if result is not None else getattr(exc, "iterations", None)
            if iters is not None:
                self.counts[f"solvers.{key}.iterations"] += iters
                self.counts[f"solvers.{key}.iter_s"] += duration
            if key == "fit_admm" and result is not None:
                self.final_rho = result.meta["rho"]
        return after

    def _fit_regularized(self, args, result, exc, duration):
        cfg = args[3] if len(args) > 3 else None
        if cfg is not None and cfg.loss == "squared":
            self._iterations("fista")(args, result, exc, duration)

    def refine_max(self, original):
        def refine(f, probes, values, lo, hi, iters=30):
            evals = 0

            def counted(q):
                nonlocal evals
                evals += 1
                return f(q)

            x, v = original(counted, probes, values, lo, hi, iters=iters)
            self.counts["gridsearch.refine_max.evals"] += evals
            self.counts["gridsearch.refine_max.improved"] += v > float(values.max())
            return x, v
        return refine

    def install_all(self):
        self.install(kernels, "scalar_values", "kernels.scalar_values", self._scalar_values)
        self.install(blocklinalg, "gram_assemble", "blocklinalg.gram_assemble", self._gram_assemble)
        self.install(blocklinalg, "solve_factored", "blocklinalg.solve_factored")
        self.install(blocklinalg, "gram_solve", "blocklinalg.gram_solve")
        self.install(blocklinalg, "gram_apply", "blocklinalg.gram_apply")
        self.install(gridsearch, "vdc_points", "gridsearch.vdc_points")
        self.install(gridsearch, "refine_max", "gridsearch.refine_max",
                     inner=self.refine_max(gridsearch.refine_max))
        self.install(admissibility, "certify", "admissibility.certify", self._certify)
        self.install(admissibility, "lebesgue_scan", "admissibility.lebesgue_scan",
                     self._lebesgue_scan)
        self.install(solvers, "fit_regularized", "solvers.fit_regularized", self._fit_regularized)
        self.install(solvers, "fit_admm", "solvers.fit_admm", self._iterations("fit_admm"))
        self.install(solvers, "group_basis_pursuit", "solvers.pursuit", self._iterations("pursuit"))
        # the proximal map is a named layer; _shrink is the one private
        # solvers function wrapped
        self.install(solvers, "_shrink", "solvers.prox")
        self.install(solvers, "min_norm_interpolant", "solvers.min_norm_interpolant")
        self.install(solvers, "predict_many", "solvers.predict_many")
        self.install(solvers, "read_training_csv", "cli.read_csv")
        self.install(solvers, "read_points_csv", "cli.read_csv")
        # the cli exposes no public formatting or writing functions
        for attr in ("_model_json", "_json_text", "_predictions_csv"):
            self.install(cli, attr, "cli.format")
        self.install(cli, "_write_atomic", "cli.write")

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        """Calls, total and self time per span name, and self time per
        module; self time is a span's duration minus its children's."""
        table = np.array([(n, b - a, p) for n, a, b, p, _ in self.spans]).reshape(-1, 3)
        name_id, duration, parent = table[:, 0].astype(int), table[:, 1], table[:, 2].astype(int)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        own = duration - covered
        calls, total_s, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        for i, name in enumerate(self.names):
            mine = name_id == i
            calls[name] += int(mine.sum())
            total_s[name] += float(duration[mine].sum())
            self_s[name] += float(own[mine].sum())
        names = sorted(n for n in calls if calls[n])
        module_self = {layer: 0.0 for layer in LAYERS}
        for name in names:
            module_self[name.split(".", 1)[0]] += self_s[name]
        return {
            "spans": len(self.spans),
            "calls": {n: calls[n] for n in names},
            "total_s": {n: total_s[n] for n in names},
            "self_s": {n: self_s[n] for n in names},
            "module_self_s": module_self,
            "counts": dict(self.counts),
            "final_rho": self.final_rho,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            origin = self.spans[0][1] if self.spans else 0.0
            for i, (name_id, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{self.names[name_id]},{start - origin:.9f},"
                         f"{end - origin:.9f},{parent},{op}\n")


def run_pass(argvs, tracer=None):
    run = cli.run if tracer is None else tracer.span("cli.run", cli.run)
    codes = []
    start = time.perf_counter()
    for op, argv in enumerate(argvs):
        if tracer is not None:
            tracer.op = op
        codes.append(run(argv))
    return codes, time.perf_counter() - start


def main(plan_path: str, summary_path: str, spans_path: str) -> None:
    with open(plan_path) as fh:
        plan = json.load(fh)
    tracer = Tracer()
    passes = []
    for item in plan:
        if item["traced"]:
            tracer.install_all()
            codes, wall = run_pass(item["argv"], tracer)
            tracer.uninstall_all()
        else:
            codes, wall = run_pass(item["argv"])
        passes.append({"traced": item["traced"], "codes": codes, "wall_s": wall})
    summary = tracer.summary()
    summary["passes"] = passes
    tracer.write_spans(spans_path)
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=1)


if __name__ == "__main__":
    main(*sys.argv[1:4])
