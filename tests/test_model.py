from dataclasses import replace

import numpy as np
import pytest

from polqg import (
    Dimensions,
    EmptyGrid,
    NodeTable,
    OutOfRange,
    ShapeMismatch,
    TimeGrid,
    resample,
    validate,
)
from polqg.model import interp_table

from oracles import (benchmark_model, constant_model, random_validated_model,
                     scalar_model)


def test_grid_nodes():
    grid = TimeGrid(1.0, 4)
    np.testing.assert_array_equal(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.h == 0.25
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0


def test_grid_invalid():
    with pytest.raises(EmptyGrid):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 10)


def test_dimensions_positive():
    with pytest.raises(ValueError):
        Dimensions(0, 1, 1, 1)


def test_sample_constant_exact():
    model, grid = benchmark_model(10)
    ts = [0.0, 0.13, 0.5, 1.0]
    assert (resample(grid, model.A, ts) == 0.0).all()
    assert (resample(grid, model.B, ts) == 1.0).all()
    assert (resample(grid, model.K, ts) == 1.0).all()
    assert (resample(grid, model.Q, ts) == 1.0).all()
    assert (resample(grid, model.R, ts) == 1.0).all()


def test_sample_linear_ramp():
    grid = TimeGrid(1.0, 4)
    ramp = grid.nodes.reshape(-1, 1, 1).copy()
    # exact at nodes, linear in between
    np.testing.assert_array_equal(resample(grid, ramp, grid.nodes), ramp)
    assert resample(grid, ramp, [0.375])[0, 0, 0] == pytest.approx(0.375, abs=1e-15)


def test_sample_out_of_range():
    model, grid = benchmark_model(10)
    for t in (-1e-9, 1.0 + 1e-9, np.nan):
        with pytest.raises(OutOfRange):
            resample(grid, model.A, [0.5, t])
        with pytest.raises(OutOfRange):
            interp_table(grid, model.A, t)


def _interp_reference(grid, values, t):
    """Single-time linear interpolation, bracket and weight spelled out."""
    i = min(int(t / grid.h), grid.steps - 1)
    w = (t - grid.nodes[i]) / (grid.nodes[i + 1] - grid.nodes[i])
    if w == 0.0:
        return values[i]
    if w == 1.0:
        return values[i + 1]
    return (1.0 - w) * values[i] + w * values[i + 1]


@pytest.mark.parametrize("factor", [1, 2])
def test_node_table_bitwise_at_every_knot(factor):
    # factor 2 is the step-halving grid that verify solves on
    model, grid = random_validated_model(np.random.default_rng(5), steps=30,
                                         time_varying=True)
    solve_grid = TimeGrid(grid.T, factor * grid.steps)
    tab = NodeTable.build(model, solve_grid)
    nodes = solve_grid.nodes
    np.testing.assert_array_equal(tab.grid.knots[0::2], nodes)
    np.testing.assert_array_equal(tab.grid.knots[1::2], 0.5 * (nodes[:-1] + nodes[1:]))
    tables = {f: getattr(model, f) for f in ("A", "B", "a", "C", "D", "H", "h", "K",
                                             "Q", "S", "R", "q", "r")}
    for name, values in tables.items():
        knots = getattr(tab, name)
        assert knots.shape == (2 * solve_grid.steps + 1,) + values.shape[1:]
        for j, t in enumerate(tab.grid.knots):
            want = _interp_reference(grid, values, t)
            np.testing.assert_array_equal(knots[j], want, err_msg=f"{name} knot {j}")
            np.testing.assert_array_equal(interp_table(grid, values, t), want)
    # coefficient-only quantities at every knot
    np.testing.assert_array_equal(tab.KinvH, np.linalg.solve(tab.K, tab.H))
    np.testing.assert_array_equal(tab.Acl, tab.A - tab.C @ tab.KinvH)
    np.testing.assert_allclose(tab.Kinv @ tab.K, np.broadcast_to(np.eye(model.dims.d),
                                                                tab.K.shape), atol=1e-12)


def test_node_table_reuses_model_arrays_on_own_grid():
    model, grid = random_validated_model(np.random.default_rng(6), steps=10,
                                         time_varying=True)
    tab = NodeTable.build(model, grid)
    np.testing.assert_array_equal(tab.A[::2], model.A)
    np.testing.assert_array_equal(tab.R[::2], model.R)


def test_validate_benchmark_passes():
    model, _ = benchmark_model(20)
    report = validate(model)
    assert report.passed
    names = {c.name for c in report.checks}
    assert "A1_coefficients_finite" in names
    assert "A2_K_invertible" in names
    assert "A3_QSRS_psd" in names
    assert all(c.margin >= 0.0 for c in report.checks)


def test_validate_deterministic():
    model, _ = benchmark_model(20)
    assert validate(model) == validate(model)


def test_validate_singular_K_names_node():
    model, grid = benchmark_model(4)
    K = np.ones((5, 1, 1))
    K[2, 0, 0] = 0.0
    report = validate(replace(model, K=K))
    assert not report.passed
    bad = report.check("A2_K_invertible")
    assert not bad.passed
    assert bad.worst_node == 2


def test_validate_nonfinite_K_is_reported():
    model, grid = benchmark_model(50)
    K = np.ones((51, 1, 1))
    K[3, 0, 0] = np.nan
    report = validate(replace(model, K=K))
    assert not report.passed
    for name in ("A1_coefficients_finite", "A2_K_invertible"):
        bad = report.check(name)
        assert not bad.passed
        assert bad.worst_node == 3


def test_validate_ill_conditioned_K():
    model, grid = benchmark_model(4)
    K = np.full((5, 1, 1), 1e-12)
    # tiny but invertible scalar K has condition number 1; force a failure
    # through the model's own condition number cap instead
    report = validate(replace(model, K=K, k_cond_bound=0.5))
    assert not report.check("A2_K_invertible").passed


@pytest.mark.parametrize("field, value", [
    ("psd_tol", 2e-6), ("psd_tol", -1e-12), ("psd_tol", float("nan")),
    ("sym_tol", 1.0), ("sym_tol", -1.0),
    ("k_cond_bound", 0.0), ("k_cond_bound", -1.0), ("k_cond_bound", float("inf")),
])
def test_model_rejects_tolerance_outside_its_bounds(field, value):
    model, _ = benchmark_model(4)
    with pytest.raises(ValueError, match=f"^{field}: expected"):
        replace(model, **{field: value})
    # the bounds themselves, and a stricter condition cap, are accepted
    replace(model, psd_tol=0.0, sym_tol=1e-6, k_cond_bound=0.5)


def test_validate_asymmetric_G():
    grid = TimeGrid(1.0, 4)
    dims = Dimensions(2, 1, 1, 1)
    G = np.array([[1.0, 0.5], [0.0, 1.0]])
    report = validate(constant_model(
        dims, grid, [1.0, 0.0], A=np.zeros((2, 2)), B=[[1.0], [0.0]],
        a=[0.0, 0.0], C=np.zeros((2, 1)), D=np.ones((2, 1)), H=[[1.0, 0.0]],
        h=[0.0], K=[[1.0]], G=G, g=[0.0, 0.0], Q=np.eye(2),
        S=np.zeros((1, 2)), R=[[1.0]], q=[0.0, 0.0], r=[0.0]))
    assert not report.check("A3_G_symmetric").passed


def test_validate_indefinite_QSRS():
    # Q - S^T R^{-1} S = 1 - 4 = -3
    model, _ = scalar_model(S=2.0, steps=4)
    report = validate(model)
    bad = report.check("A3_QSRS_psd")
    assert not bad.passed
    assert bad.margin == pytest.approx(-3.0, abs=1e-6)


def test_validate_R_below_floor():
    model, _ = scalar_model(R=1e-9, steps=4)
    report = validate(model)
    assert not report.check("A3_R_uniformly_definite").passed


def test_validate_nonfinite_coefficient():
    model, grid = benchmark_model(4)
    A = np.zeros((5, 1, 1))
    A[3, 0, 0] = np.nan
    report = validate(replace(model, A=A))
    bad = report.check("A1_coefficients_finite")
    assert not bad.passed
    assert bad.worst_node == 3


def test_validate_nonfinite_x0():
    model, grid = benchmark_model(4)
    report = validate(replace(model, x0=[np.nan]))
    assert not report.passed
    assert not report.check("x0_finite").passed


def test_validate_shape_mismatch():
    model, grid = benchmark_model(4)
    with pytest.raises(ShapeMismatch):
        validate(replace(model, x0=[1.0, 2.0]))


def test_report_summary_lines():
    model, _ = benchmark_model(4)
    text = validate(model).summary()
    assert "A2_K_invertible" in text
    assert "pass" in text
