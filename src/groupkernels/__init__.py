"""Multi-task kernel interpolation and regularized learning with grouped
(sum of block p-norms) coefficient norms, plus numeric certification of
the kernel assumptions that make the finite-expansion reductions exact.

Importing the package loads none of its modules: each loads on first
access to it or to one of its names (PEP 562), so a command compiles only
the code it runs.
"""

__version__ = "0.1.0"

# module -> the names the package exports from it.  The table alone decides
# what resolves as an attribute and what `import *` binds; cli is not in it,
# so `import *` loads no command-line code
_EXPORTS = {
    "admissibility": ("CertificationConfig", "CertificationReport", "ScanResult", "certify",
                      "det_tfamily_closed_form", "lebesgue_at", "lebesgue_scan"),
    "blocklinalg": ("BlockVector", "GramSystem", "block_inverse_2x2", "gram_apply",
                    "gram_assemble", "gram_solve", "lp1_norm"),
    "errors": ("DataFormatError", "DomainError", "DuplicateCenterError", "GroupKernelsError",
               "NonconvergenceError", "OrderError", "RankError", "ShapeError", "SingularError"),
    "gridsearch": (),
    "kernels": ("OperatorKernel", "ScalarKernelSpec", "TaskCoupling", "brownian_bridge",
                "combination", "custom", "exponential", "kernel_from_dict", "kernel_to_dict",
                "tfamily", "wendland"),
    "solvers": ("FitModel", "LearnConfig", "block_soft_threshold", "expansion_sup_norm",
                "fit_admm", "fit_regularized", "group_basis_pursuit", "min_norm_interpolant",
                "model_from_dict", "model_to_dict", "predict_many"),
}
# every name, and each module's own name, -> the module that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}
__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import sys
    # the import statement's own machinery, which `-X importtime` times
    # (importlib.import_module bypasses it)
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
