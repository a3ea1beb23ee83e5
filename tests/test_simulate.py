import dataclasses
import io

import numpy as np
import pytest

from polqg import (
    ControlPolicy,
    NoiseDraw,
    ShapeMismatch,
    TimeGrid,
    bundle_to_csv,
    draw_noise,
    simulate_closed_loop,
    simulate_error_direct,
    solve_all,
    validate,
)

from oracles import benchmark_model, random_validated_model


def zero_noise(grid, dims):
    return NoiseDraw(grid, np.zeros((grid.steps, dims.d)),
                     np.zeros((grid.steps, dims.k)))


@pytest.fixture(scope="module")
def bench():
    model, grid = benchmark_model(200)
    return model, grid, solve_all(model, grid)


@pytest.fixture(scope="module")
def tv():
    # time-varying coefficients and cost weights, nonzero S, q and r, n=3, m=2
    model, grid = random_validated_model(np.random.default_rng(100), steps=120,
                                         time_varying=True)
    w = 1.0 + grid.nodes[:, None]  # a positive ramp keeps the weights valid
    cw = model.cost
    cost = dataclasses.replace(cw, Q=cw.Q * w[..., None], S=cw.S * w[..., None],
                               R=cw.R * w[..., None], q=cw.q * w, r=cw.r * w)
    model = dataclasses.replace(model, cost=cost)
    assert validate(model).passed
    assert model.dims.n >= 2 and model.coeffs.grid == model.cost.grid == grid
    return model, grid, solve_all(model, grid)


# --------------------------------------------------------------------- noise

def test_draw_reproducible():
    grid = TimeGrid(1.0, 50)
    model, _ = benchmark_model(50)
    a = draw_noise(42, 3, grid, model.dims)
    b = draw_noise(42, 3, grid, model.dims)
    np.testing.assert_array_equal(a.dW, b.dW)
    np.testing.assert_array_equal(a.dWp, b.dWp)


def test_draw_streams_independent_of_order():
    grid = TimeGrid(1.0, 50)
    model, _ = benchmark_model(50)
    late = draw_noise(42, 1000, grid, model.dims)
    again = draw_noise(42, 1000, grid, model.dims)
    np.testing.assert_array_equal(late.dW, again.dW)
    assert not np.array_equal(draw_noise(42, 0, grid, model.dims).dW,
                              draw_noise(42, 1, grid, model.dims).dW)
    assert not np.array_equal(draw_noise(42, 0, grid, model.dims).dW,
                              draw_noise(43, 0, grid, model.dims).dW)


def test_draw_shapes_and_moments():
    grid = TimeGrid(1.0, 400)
    model, _ = benchmark_model(400)
    incs = np.concatenate([draw_noise(7, j, grid, model.dims).dW.ravel()
                           for j in range(400)])
    assert incs.shape == (160000,)
    assert abs(incs.mean()) < 4.0 * np.sqrt(grid.h / incs.size)
    assert abs(incs.var() / grid.h - 1.0) < 4.0 * np.sqrt(2.0 / incs.size)


def test_draw_negative_index_rejected():
    grid = TimeGrid(1.0, 10)
    model, _ = benchmark_model(10)
    with pytest.raises(ValueError):
        draw_noise(0, -1, grid, model.dims)


# ------------------------------------------------------------------- tracking

def test_zero_noise_filter_tracks_exactly(bench):
    model, grid, sol = bench
    bundle = simulate_closed_loop(model, sol, ControlPolicy.filter_feedback(),
                                  zero_noise(grid, model.dims))
    np.testing.assert_array_equal(bundle.X, bundle.Xhat)
    assert (bundle.Xtil == 0.0).all()
    assert (bundle.V == 0.0).all()
    assert (bundle.Vcheck == 0.0).all()


def test_initial_conditions(bench):
    model, grid, sol = bench
    bundle = simulate_closed_loop(model, sol, ControlPolicy.filter_feedback(),
                                  draw_noise(0, 0, grid, model.dims))
    np.testing.assert_array_equal(bundle.X[0], model.x0)
    np.testing.assert_array_equal(bundle.Xhat[0], model.x0)
    assert (bundle.Y[0] == 0.0).all() and (bundle.V[0] == 0.0).all()
    np.testing.assert_array_equal(bundle.Xtil, bundle.X - bundle.Xhat)


# --------------------------------------------------------- error consistency

def test_error_identity_benchmark(bench):
    model, grid, sol = bench
    noise = draw_noise(11, 0, grid, model.dims)
    bundle = simulate_closed_loop(model, sol, ControlPolicy.filter_feedback(),
                                  noise)
    direct = simulate_error_direct(model, sol, noise)
    scale = 1.0 + np.abs(bundle.X).max()
    assert np.abs(bundle.Xtil - direct).max() <= 1e-10 * scale


def test_error_identity_random_time_varying_model():
    rng = np.random.default_rng(13)
    model, grid = random_validated_model(rng, steps=120, time_varying=True)
    sol = solve_all(model, grid)
    for j in range(5):
        noise = draw_noise(99, j, grid, model.dims)
        bundle = simulate_closed_loop(model, sol, ControlPolicy.zero(), noise)
        direct = simulate_error_direct(model, sol, noise)
        scale = 1.0 + np.abs(bundle.X).max()
        assert np.abs(bundle.Xtil - direct).max() <= 1e-10 * scale


def test_error_path_independent_of_policy(bench):
    # the estimation error never sees the control
    model, grid, sol = bench
    noise = draw_noise(5, 2, grid, model.dims)
    a = simulate_closed_loop(model, sol, ControlPolicy.filter_feedback(), noise)
    b = simulate_closed_loop(model, sol, ControlPolicy.zero(), noise)
    assert np.abs(a.Xtil - b.Xtil).max() <= 1e-12


def test_innovation_increments(bench):
    # dV_i = h H Xtil_i + K dW_i, here with H = K = 1
    model, grid, sol = bench
    noise = draw_noise(21, 0, grid, model.dims)
    bundle = simulate_closed_loop(model, sol, ControlPolicy.filter_feedback(),
                                  noise)
    dV = np.diff(bundle.V, axis=0)
    expect = grid.h * bundle.Xtil[:-1] + noise.dW
    np.testing.assert_allclose(dV, expect, atol=1e-12)
    # K = 1 makes the normalized innovation the innovation itself
    np.testing.assert_array_equal(bundle.Vcheck, bundle.V)


# ------------------------------------------------------------------ policies

def test_policy_feedback_matches_kernel(bench, tv):
    # u_i = Theta_i xhat_i - R_i^{-1}(B_i^T phi_i + r_i) from the model's own
    # tables at the nodes, not from the solution's feed-forward
    for model, grid, sol in (bench, tv):
        noise = draw_noise(2, 7, grid, model.dims)
        bundle = simulate_closed_loop(model, sol, ControlPolicy.filter_feedback(),
                                      noise)
        co, cw = model.coeffs, model.cost
        for i in (0, 57, grid.steps):
            v = co.B[i].T @ sol.phi.values[i] + cw.r[i]
            want = sol.Theta.values[i] @ bundle.Xhat[i] - np.linalg.solve(cw.R[i], v)
            np.testing.assert_allclose(bundle.u[i], want, rtol=1e-12, atol=1e-14)


def test_zero_policy_controls(bench):
    model, grid, sol = bench
    bundle = simulate_closed_loop(model, sol, ControlPolicy.zero(),
                                  draw_noise(3, 0, grid, model.dims))
    assert (bundle.u == 0.0).all()


def test_perturbed_zero_offset_is_feedback(bench):
    model, grid, sol = bench
    noise = draw_noise(17, 4, grid, model.dims)
    a = simulate_closed_loop(model, sol, ControlPolicy.filter_feedback(), noise)
    b = simulate_closed_loop(
        model, sol, ControlPolicy.perturbed_feedback(np.zeros(model.dims.m)),
        noise)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.u, b.u)
    assert a.cost == b.cost


def test_perturbed_offset_shifts_first_control(bench):
    model, grid, sol = bench
    noise = draw_noise(17, 4, grid, model.dims)
    a = simulate_closed_loop(model, sol, ControlPolicy.filter_feedback(), noise)
    b = simulate_closed_loop(
        model, sol, ControlPolicy.perturbed_feedback(np.array([0.25])), noise)
    # both filters start at x0, so the offset is exact at the first node
    np.testing.assert_allclose(b.u[0] - a.u[0], [0.25], rtol=1e-14)


def test_open_loop_replays_feedback_run(bench):
    # feeding a recorded control table back in reproduces the whole path
    model, grid, sol = bench
    noise = draw_noise(29, 1, grid, model.dims)
    a = simulate_closed_loop(model, sol, ControlPolicy.filter_feedback(), noise)
    b = simulate_closed_loop(model, sol, ControlPolicy.open_loop(a.u), noise)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.Xhat, b.Xhat)
    np.testing.assert_array_equal(a.u, b.u)
    assert a.cost == b.cost


def test_open_loop_wrong_shape(bench):
    model, grid, sol = bench
    noise = draw_noise(0, 0, grid, model.dims)
    with pytest.raises(ShapeMismatch):
        simulate_closed_loop(model, sol,
                             ControlPolicy.open_loop(np.zeros((3, 1))), noise)
    with pytest.raises(ShapeMismatch):
        simulate_closed_loop(
            model, sol, ControlPolicy.perturbed_feedback(np.zeros((2, 2))),
            noise)


def test_policy_kind_checked():
    with pytest.raises(ValueError):
        ControlPolicy("bang_bang")


def test_grid_mismatch_rejected(bench):
    model, grid, sol = bench
    other = TimeGrid(1.0, grid.steps + 1)
    noise = draw_noise(0, 0, other, model.dims)
    with pytest.raises(ShapeMismatch):
        simulate_closed_loop(model, sol, ControlPolicy.zero(), noise)
    with pytest.raises(ShapeMismatch):
        simulate_error_direct(model, sol, noise)


# ---------------------------------------------------------------------- cost

def test_cost_is_left_riemann_plus_terminal(bench, tv):
    for model, grid, sol in (bench, tv):
        noise = draw_noise(31, 6, grid, model.dims)
        bundle = simulate_closed_loop(model, sol, ControlPolicy.filter_feedback(),
                                      noise)
        cw = model.cost
        acc = 0.0
        for i in range(grid.steps):
            x, u = bundle.X[i], bundle.u[i]
            acc += grid.h * (x @ cw.Q[i] @ x + 2.0 * u @ cw.S[i] @ x
                             + u @ cw.R[i] @ u + 2.0 * cw.q[i] @ x
                             + 2.0 * cw.r[i] @ u)
        xT = bundle.X[-1]
        acc += xT @ cw.G @ xT + 2.0 * cw.g @ xT
        assert bundle.cost == pytest.approx(acc, rel=1e-12)


# ----------------------------------------------------------------------- csv

def test_csv_layout_and_determinism(bench):
    model, grid, sol = bench
    bundle = simulate_closed_loop(model, sol, ControlPolicy.filter_feedback(),
                                  draw_noise(8, 0, grid, model.dims))
    buf1, buf2 = io.StringIO(), io.StringIO()
    bundle_to_csv(bundle, buf1)
    bundle_to_csv(bundle, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    lines = buf1.getvalue().splitlines()
    assert lines[0] == "t,X1,Y1,Xhat1,Xtil1,V1,u1"
    assert len(lines) == grid.steps + 3
    assert lines[-1].startswith("# cost,")
    assert float(lines[-1].split(",")[1]) == bundle.cost
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
