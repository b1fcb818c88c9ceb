import importlib
import math
import re

import numpy as np
import pytest

import groupkernels as gk
from groupkernels.blocklinalg import BlockVector, coupling_opnorm
from groupkernels.errors import ShapeError
from groupkernels.gridsearch import vdc_points
from groupkernels.solvers import LearnConfig

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
                "combination", "custom", "exponential", "kernel_from_dict", "kernel_to_dict",
                "tfamily", "wendland"],
    "solvers": ["FitModel", "LearnConfig", "block_soft_threshold", "expansion_sup_norm",
                "fit_admm", "fit_regularized", "group_basis_pursuit", "min_norm_interpolant",
                "model_from_dict", "model_to_dict", "predict_many"],
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


_K2 = gk.OperatorKernel(gk.wendland(), gk.TaskCoupling.identity(2), p=2)
_SITES = [0.1, 0.5, 0.9]


@pytest.mark.parametrize("call,error,message", [
    # a 1-d y reads as one-dimensional blocks
    (lambda: gk.min_norm_interpolant(_K2, _SITES, BlockVector([1.0, 2.0, 3.0], 2)),
     ShapeError, "expected 3 blocks of dimension 2, got 3 of 1"),
    (lambda: gk.group_basis_pursuit(_K2, _SITES, _SITES[:2], BlockVector(np.ones((3, 2)), 2)),
     ShapeError, "expected 2 blocks of dimension 2, got 3 of 2"),
    (lambda: gk.fit_regularized(_K2, _SITES, BlockVector(np.ones((2, 2)), 2),
                                LearnConfig(lam=0.1)),
     ShapeError, "expected 3 blocks of dimension 2"),
    (lambda: BlockVector(np.zeros((2, 2, 2)), 2), ShapeError, "ndim 3"),
    (lambda: coupling_opnorm(np.eye(21), math.inf), ValueError, "n <= 20"),
    (lambda: vdc_points(0.0, 1.0, 0), ValueError, "grid size"),
    (lambda: gk.ScalarKernelSpec("combination", weights=(1.0, 2.0, 3.0)), ValueError, "pair"),
], ids=["interpolant", "pursuit", "fit", "blocks", "opnorm", "vdc", "weights"])
def test_each_module_rejects_a_malformed_call(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
