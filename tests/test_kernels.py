import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import groupkernels as gk
from groupkernels.blocklinalg import coupling_opnorm
from groupkernels.errors import DataFormatError, DomainError
from groupkernels.gridsearch import vdc_points
from groupkernels.kernels import require_in_domain, scalar_uniform_bound, scalar_values

unit_interior = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True,
                          allow_nan=False, allow_infinity=False)
t_values = st.floats(-1.0, 1.0, allow_nan=False)


def test_scalar_values_examples():
    assert scalar_values(gk.tfamily(1.0), 0.25, 0.5) == pytest.approx(0.125, abs=0)
    assert scalar_values(gk.wendland(), 0.37, 0.37) == 1.0
    assert scalar_values(gk.exponential(), 1.0, 1.0) == 1.0
    # t=0 member is the covariance min{x,y}
    assert scalar_values(gk.tfamily(0.0), 0.3, 0.7) == pytest.approx(0.3, abs=0)


def test_brownian_bridge_is_t1_member():
    xs = np.linspace(0.05, 0.95, 19)
    bb = scalar_values(gk.brownian_bridge(), xs[:, None], xs[None, :])
    t1 = scalar_values(gk.tfamily(1.0), xs[:, None], xs[None, :])
    np.testing.assert_array_equal(bb, t1)


@given(unit_interior, unit_interior, t_values)
def test_tfamily_symmetry_and_bound(x, y, t):
    spec = gk.tfamily(t)
    assert scalar_values(spec, x, y) == scalar_values(spec, y, x)
    assert abs(scalar_values(spec, x, y)) <= 2.0


@pytest.mark.parametrize("spec", [
    gk.tfamily(-1.0), gk.tfamily(0.3), gk.brownian_bridge(), gk.wendland(),
    gk.exponential((-3.0, 3.0)), gk.combination(0.5, 2.0, t=-0.25),
])
def test_symmetry_exact_bulk(spec):
    rng = np.random.default_rng(11)
    lo, hi = spec.domain
    x = rng.uniform(lo, hi, size=10_000)
    y = rng.uniform(lo, hi, size=10_000)
    np.testing.assert_array_equal(scalar_values(spec, x, y), scalar_values(spec, y, x))


@pytest.mark.parametrize("spec", [
    gk.tfamily(-1.0), gk.tfamily(1.0), gk.wendland(), gk.exponential((-2.0, 2.0)),
    gk.combination(1.0, 1.0),
    gk.tfamily(-0.5), gk.tfamily(0.0), gk.tfamily(0.5), gk.tfamily(0.7),
    gk.combination(1.0, 2.0, t=-1.0),
    # on a subinterval of (0, 1) the bound is that of all of (0, 1)
    gk.ScalarKernelSpec("tfamily", t=0.7, domain=(0.2, 0.9)),
    gk.ScalarKernelSpec("wendland", domain=(0.2, 0.9)),
    gk.ScalarKernelSpec("combination", t=-1.0, weights=(1.0, 2.0), domain=(0.1, 0.6)),
])
def test_uniform_bound_sampled(spec):
    # certify's a2 rests on this bound for every builtin family
    rng = np.random.default_rng(5)
    lo, hi = spec.domain
    x = rng.uniform(lo, hi, size=10_000)
    y = rng.uniform(lo, hi, size=10_000)
    bound = scalar_uniform_bound(spec)
    assert np.abs(scalar_values(spec, x, y)).max() <= bound + 1e-12
    # all pairs, diagonal included (where the supremum lives), of the
    # pair sample that custom kernels get: nested grid points plus uniforms
    pts = np.concatenate([vdc_points(lo, hi, 512), rng.uniform(lo, hi, 512)])
    assert np.abs(scalar_values(spec, pts[:, None], pts[None, :])).max() <= bound + 1e-12
    # operator-norm version of the bound for a non-trivial coupling
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    K = gk.OperatorKernel(spec, gk.TaskCoupling.from_matrix(A), p=2)
    kappa = bound * coupling_opnorm(A, 2)
    worst = np.abs(scalar_values(spec, x[:100], y[:100])).max() * coupling_opnorm(A, 2)
    assert worst <= kappa + 1e-12


@given(unit_interior, unit_interior,
       st.floats(0.0, 4.0, allow_nan=False), st.floats(0.0, 4.0, allow_nan=False),
       t_values)
def test_combination_linearity(x, y, c1, c2, t):
    if c1 + c2 <= 0:
        return
    combo = scalar_values(gk.combination(c1, c2, t=t), x, y)
    parts = c1 * scalar_values(gk.tfamily(t), x, y) + c2 * scalar_values(gk.wendland(), x, y)
    assert combo == pytest.approx(parts, abs=1e-15)


def test_domain_errors():
    spec = gk.tfamily(1.0)
    with pytest.raises(DomainError):
        require_in_domain(spec, [0.0, 0.5])  # endpoint is outside the open interval
    with pytest.raises(DomainError):
        require_in_domain(spec, [0.5, 1.0])
    with pytest.raises(DomainError):
        require_in_domain(gk.exponential((-2.0, 2.0)), [-2.0, 0.0])


def test_spec_validation():
    with pytest.raises(ValueError):
        gk.tfamily(1.5)
    with pytest.raises(ValueError):
        gk.combination(0.0, 0.0)
    with pytest.raises(ValueError):
        gk.combination(-1.0, 2.0)
    with pytest.raises(ValueError):
        gk.ScalarKernelSpec("tfamily")  # missing t
    with pytest.raises(ValueError):
        gk.ScalarKernelSpec("wendland", t=0.5)
    with pytest.raises(ValueError):
        gk.ScalarKernelSpec("nosuch")
    with pytest.raises(ValueError):
        gk.ScalarKernelSpec("tfamily", t=0.5, domain=(0.0, 2.0))


def test_coupling_validation():
    with pytest.raises(ValueError):
        gk.TaskCoupling.from_matrix([[1.0, 2.0], [0.0, 1.0]])  # not symmetric
    with pytest.raises(ValueError):
        gk.TaskCoupling.from_matrix([[1.0, 0.0], [0.0, -1.0]])  # not PD
    with pytest.raises(DataFormatError, match="row 2, column 2: non-finite"):
        gk.TaskCoupling.from_matrix([[1.0, 0.0], [0.0, np.nan]])
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    c = gk.TaskCoupling.from_matrix(A)
    assert np.abs(A @ c.A_inv - np.eye(2)).max() <= 1e-12
    np.testing.assert_array_equal(gk.TaskCoupling.identity(3).A, np.eye(3))


def test_coupling_inverse_accuracy_contract():
    # the cached inverse must reproduce the identity to 1e-12 max-abs;
    # couplings too ill-conditioned to meet that are rejected outright
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    ok = q @ np.diag([0.01, 0.1, 1.0, 10.0]) @ q.T
    c = gk.TaskCoupling.from_matrix(ok)
    assert np.abs(c.A @ c.A_inv - np.eye(4)).max() <= 1e-12
    hopeless = q @ np.diag([1e-9, 0.1, 1.0, 10.0]) @ q.T
    with pytest.raises(ValueError):
        gk.TaskCoupling.from_matrix(hopeless)


def test_brownianbridge_parses_to_tfamily_t1():
    assert gk.brownian_bridge() == gk.tfamily(1.0)
    assert (gk.ScalarKernelSpec("brownianbridge", domain=(0.2, 0.9))
            == gk.ScalarKernelSpec("tfamily", t=1.0, domain=(0.2, 0.9)))
    with pytest.raises(ValueError, match="brownianbridge takes no parameter t"):
        gk.ScalarKernelSpec("brownianbridge", t=0.5)
    data = gk.kernel_to_dict(gk.OperatorKernel(gk.brownian_bridge(), gk.TaskCoupling.identity(1)))
    assert data["family"] == "tfamily" and data["t"] == 1.0
    # JSON written before the alias names the family and carries no t
    del data["t"]
    data["family"] = "brownianbridge"
    assert gk.kernel_from_dict(data).scalar == gk.tfamily(1.0)


def test_kernel_json_round_trip():
    A = [[2.0, 0.25], [0.25, 1.0]]
    K = gk.OperatorKernel(
        gk.combination(1.5, 0.25, t=0.7), gk.TaskCoupling.from_matrix(A), p=1)
    data = gk.kernel_to_dict(K)
    text = json.dumps(data)
    K2 = gk.kernel_from_dict(json.loads(text))
    assert K2.scalar == K.scalar
    assert K2.p == 1.0
    np.testing.assert_array_equal(K2.coupling.A, K.coupling.A)


def test_kernel_json_infinite_domain_and_p():
    K = gk.OperatorKernel(gk.exponential(), gk.TaskCoupling.identity(1), p=math.inf)
    data = gk.kernel_to_dict(K)
    assert data["domain"] == [None, None]
    assert data["p"] == "inf"
    K2 = gk.kernel_from_dict(data)
    assert K2.scalar.domain == (-math.inf, math.inf)
    assert math.isinf(K2.p)


def test_kernel_json_matches_documented_shape():
    K = gk.OperatorKernel(gk.tfamily(0.7), gk.TaskCoupling.identity(2), p=2)
    data = gk.kernel_to_dict(K)
    assert data["family"] == "tfamily"
    assert data["t"] == 0.7
    assert data["domain"] == [0.0, 1.0]
    assert data["p"] == 2.0
    assert data["coupling"]["n"] == 2


def test_coupling_from_csv(tmp_path):
    path = tmp_path / "coupling.csv"
    path.write_text("2.0,0.5\n0.5,1.0\n")
    c = gk.TaskCoupling.from_csv(path)
    assert c.n == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,0.0\n0.0\n")
    with pytest.raises(DataFormatError):
        gk.TaskCoupling.from_csv(bad)
    nonnum = tmp_path / "nonnum.csv"
    nonnum.write_text("1.0,x\n0.0,1.0\n")
    with pytest.raises(DataFormatError):
        gk.TaskCoupling.from_csv(nonnum)


def test_custom_kernel_not_serializable():
    spec = gk.custom(lambda x, y: np.exp(-((x - y) ** 2)), domain=(0.0, 1.0))
    K = gk.OperatorKernel(spec, gk.TaskCoupling.identity(1), p=2)
    data = gk.kernel_to_dict(K)
    assert data["family"] == "custom"
    with pytest.raises(ValueError):
        gk.kernel_from_dict(data)


def test_p_validation():
    with pytest.raises(ValueError):
        gk.OperatorKernel(gk.wendland(), gk.TaskCoupling.identity(1), p=0.5)
    K = gk.OperatorKernel(gk.wendland(), gk.TaskCoupling.identity(1), p=1.5)
    assert K.q == pytest.approx(3.0)
    assert gk.OperatorKernel(gk.wendland(), gk.TaskCoupling.identity(1), p=1).q == math.inf
