import importlib

import pytest

import groupkernels as gk

# the names the package exported when it imported every module eagerly,
# by the module that defines each
EXPORTS = {
    "admissibility": ["CertificationConfig", "CertificationReport", "ScanResult", "certify",
                      "det_tfamily_closed_form", "lebesgue_at", "lebesgue_scan"],
    "blocklinalg": ["BlockVector", "GramSystem", "block_inverse_2x2", "gram_apply",
                    "gram_assemble", "gram_solve", "lp1_norm"],
    "errors": ["DataFormatError", "DomainError", "DuplicateCenterError", "GroupKernelsError",
               "NonconvergenceError", "OrderError", "RankError", "ShapeError", "SingularError"],
    "kernels": ["OperatorKernel", "ScalarKernelSpec", "TaskCoupling", "brownian_bridge",
                "combination", "custom", "eval_scalar", "exponential", "kernel_from_dict",
                "kernel_to_dict", "tfamily", "wendland"],
    "solvers": ["FitModel", "LearnConfig", "block_soft_threshold", "expansion_sup_norm",
                "fit_admm", "fit_regularized", "group_basis_pursuit", "min_norm_interpolant",
                "model_from_dict", "model_to_dict", "predict", "predict_many"],
}
MODULES = ["admissibility", "blocklinalg", "errors", "gridsearch", "kernels", "solvers"]


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_public_name_resolves_to_its_module(module, name):
    assert getattr(gk, name) is getattr(importlib.import_module(f"groupkernels.{module}"), name)
    assert name in dir(gk) and name in gk.__all__


def test_submodules_resolve():
    for module in MODULES:
        assert getattr(gk, module) is importlib.import_module(f"groupkernels.{module}")
    assert gk.__version__ == "0.1.0"


def test_star_import_binds_the_exports_and_modules():
    namespace = {}
    exec("from groupkernels import *", namespace)
    namespace.pop("__builtins__")
    expected = {n for names in EXPORTS.values() for n in names} | set(MODULES)
    assert set(namespace) == expected
    assert all(namespace[n] is getattr(gk, n) for n in expected)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        gk.no_such_name
