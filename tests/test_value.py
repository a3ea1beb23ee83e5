import numpy as np
import pytest

from polqg import (
    ControlPolicy,
    NodeTable,
    hat_J_floor,
    iter_path_bundles,
    optimal_value,
    path_cost,
    solve_all,
    tilde_J,
)

from oracles import (
    HAT_FLOOR,
    PDELTAC_INT,
    PID_INT,
    PIDELTA_INT,
    TILDE_J,
    TOTAL,
    benchmark_model,
    oracle_PDeltaC,
    oracle_Pi0_quadrature,
    oracle_tilde_J,
    oracle_total,
    random_validated_model,
    scalar_model,
)


def test_oracle_constants_reproducible():
    # the frozen module constants match their defining quadratures
    assert abs(oracle_tilde_J() - TILDE_J) < 1e-12
    assert abs(oracle_PDeltaC() - PDELTAC_INT) < 1e-12
    assert abs(oracle_total() - TOTAL) < 1e-12
    assert abs(oracle_Pi0_quadrature() - np.tanh(1.0)) < 1e-9
    assert abs(TOTAL - (np.tanh(1.0) + TILDE_J + PDELTAC_INT)) < 1e-15
    assert abs(HAT_FLOOR - (np.tanh(1.0) + PDELTAC_INT)) < 1e-15


def constant_paths(grid, x, u):
    return (np.full((1, grid.steps + 1, 1), x), np.full((1, grid.steps + 1, 1), u))


def test_running_cost_by_hand():
    model, grid = benchmark_model(10, T=2.0)
    X, U = constant_paths(grid, 2.0, 3.0)
    # Q=R=1, S=q=r=0, G=g=0: x^2 + u^2 = 13 per unit time, no terminal cost
    cost = path_cost(NodeTable.build(model, grid), X, U)
    assert cost.shape == (1,)
    assert cost[0] == pytest.approx(13.0 * 2.0, rel=1e-14)


def test_running_cost_cross_terms():
    model, grid = scalar_model(S=0.5, q=2.0, r=-1.0, G=3.0, g=0.5, T=2.0)
    X, U = constant_paths(grid, 2.0, 3.0)
    # x^2 + 2*0.5*x*u + u^2 + 2*2*x - 2*u = 21 per unit time, plus the
    # terminal 3*x^2 + 2*0.5*x = 14
    running = 4.0 + 6.0 + 9.0 + 8.0 - 6.0
    cost = path_cost(NodeTable.build(model, grid), X, U)
    assert cost[0] == pytest.approx(running * 2.0 + 14.0, rel=1e-14)


def test_path_cost_independent_of_batch_size():
    model, grid = benchmark_model(100)
    sol = solve_all(model, grid)
    bundles = list(iter_path_bundles(model, sol, ControlPolicy.filter_feedback(),
                                     300, seed=4))
    X = np.stack([b.X for b in bundles])
    U = np.stack([b.u for b in bundles])
    Xtil = np.stack([b.Xtil for b in bundles])
    whole = path_cost(sol.table, X, U)
    np.testing.assert_array_equal(whole, [b.cost for b in bundles])
    whole_til = path_cost(sol.table, Xtil, 0.0)
    for size in (1, 7, 64):
        parts = [path_cost(sol.table, X[j:j + size], U[j:j + size])
                 for j in range(0, 300, size)]
        np.testing.assert_array_equal(np.concatenate(parts), whole)
        parts = [path_cost(sol.table, Xtil[j:j + size], 0.0)
                 for j in range(0, 300, size)]
        np.testing.assert_array_equal(np.concatenate(parts), whole_til)


def test_benchmark_values_match_oracles():
    model, grid = benchmark_model(2000)
    sol = solve_all(model, grid)
    bd = optimal_value(model, sol)
    assert bd.total == pytest.approx(TOTAL, abs=5e-8)
    assert bd.quadratic_term == pytest.approx(np.tanh(1.0), abs=1e-12)
    assert bd.linear_term == 0.0
    assert bd.PiD_integral == pytest.approx(PID_INT, abs=5e-8)
    assert bd.PiDelta_integral == pytest.approx(PIDELTA_INT, abs=5e-8)
    assert bd.PDeltaC_integral == pytest.approx(PDELTAC_INT, abs=5e-8)
    assert bd.Rinv_integral == 0.0
    assert bd.phia_integral == 0.0
    assert abs(tilde_J(model, sol) - TILDE_J) < 5e-8
    assert abs(hat_J_floor(model, sol) - HAT_FLOOR) < 5e-8


def test_total_is_sum_of_parts():
    rng = np.random.default_rng(21)
    for _ in range(5):
        model, grid = random_validated_model(rng)
        sol = solve_all(model, grid)
        bd = optimal_value(model, sol)
        s = sum(v for k, v in bd.parts().items() if k != "total")
        assert bd.total == pytest.approx(s, rel=1e-14, abs=1e-14)


def test_split_identity_random_models():
    rng = np.random.default_rng(5)
    for i in range(10):
        model, grid = random_validated_model(rng, time_varying=(i % 3 == 0))
        sol = solve_all(model, grid)
        bd = optimal_value(model, sol)
        gap = abs(hat_J_floor(model, sol) + tilde_J(model, sol) - bd.total)
        assert gap <= 1e-10 * (1.0 + abs(bd.total))


def test_quadrature_refinement_is_second_order():
    vals = {}
    for steps in (100, 200, 400):
        model, grid = benchmark_model(steps)
        vals[steps] = optimal_value(model, solve_all(model, grid)).total
    ratio = (vals[100] - vals[200]) / (vals[200] - vals[400])
    assert 3.6 <= ratio <= 4.4


def test_value_increases_with_state_noise():
    totals = []
    for D in (0.5, 1.0, 2.0):
        model, grid = benchmark_model(200, D=D)
        totals.append(optimal_value(model, solve_all(model, grid)).total)
    assert totals[0] < totals[1] < totals[2]


def test_value_all_weights_zero_except_R():
    model, grid = scalar_model(Q=0.0, G=0.0)
    sol = solve_all(model, grid)
    bd = optimal_value(model, sol)
    assert bd.total == 0.0


def test_tilde_zero_without_state_noise():
    model, grid = benchmark_model(100, D=0.0)
    sol = solve_all(model, grid)
    assert tilde_J(model, sol) == 0.0
