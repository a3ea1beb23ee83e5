import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from polqg import (
    ControlPolicy,
    Dimensions,
    NoiseDraw,
    NonFinite,
    ShapeMismatch,
    TimeGrid,
    bundle_to_csv,
    draw_noise,
    simulate_closed_loop,
    simulate_error_direct,
    solve_all,
    validate,
)
from polqg.simulate import _closed_loop_arrays
from polqg.verify import _noise_stack

from oracles import benchmark_model, closed_loop_reference, random_validated_model


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
    model = dataclasses.replace(
        model, Q=model.Q * w[..., None], S=model.S * w[..., None],
        R=model.R * w[..., None], q=model.q * w, r=model.r * w)
    assert validate(model).passed
    assert model.dims.n >= 2 and model.grid == grid
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


@pytest.mark.parametrize("d, k", [(1, 1), (2, 3)])
def test_rekeyed_draws_equal_fresh_philox(d, k):
    # draw_noise re-keys one generator; each draw of a stack must still be
    # the stream of a fresh Philox keyed by (path_index << 64) | seed
    grid = TimeGrid(1.0, 37)
    dims = Dimensions(1, 1, d, k)
    scale = np.sqrt(grid.h)
    for seed in (0, 42, 2 ** 64 - 1):
        stack = [draw_noise(seed, j, grid, dims) for j in range(25)]
        for j, nd in enumerate(stack):
            gen = np.random.Generator(np.random.Philox(key=(j << 64) | seed))
            np.testing.assert_array_equal(
                nd.dW, scale * gen.standard_normal((grid.steps, d)))
            np.testing.assert_array_equal(
                nd.dWp, scale * gen.standard_normal((grid.steps, k)))


def test_draw_negative_index_rejected():
    grid = TimeGrid(1.0, 10)
    model, _ = benchmark_model(10)
    with pytest.raises(ValueError):
        draw_noise(0, -1, grid, model.dims)


# -------------------------------------------------------------------- kernel

@pytest.fixture(scope="module")
def kernel_cases(bench):
    """The scalar benchmark and the time-varying draws 100 (n=3, m=2) and
    102 (n=2, d=2)."""
    cases = [bench]
    for draw in (100, 102):
        model, grid = random_validated_model(np.random.default_rng(draw),
                                             time_varying=True)
        cases.append((model, grid, solve_all(model, grid)))
    return cases


def all_policies(grid, m):
    rng = np.random.default_rng(4)
    return [ControlPolicy("filter_feedback"), ControlPolicy("zero"),
            ControlPolicy("open_loop", rng.standard_normal((grid.steps + 1, m))),
            ControlPolicy("perturbed_feedback", rng.standard_normal(m)),
            ControlPolicy("perturbed_feedback",
                rng.standard_normal((grid.steps + 1, m)), label="table")]


def test_kernel_matches_per_step_reference(kernel_cases):
    for model, grid, sol in kernel_cases:
        dW, dWp = _noise_stack(23, 0, 9, grid, model.dims)
        for policy in all_policies(grid, model.dims.m):
            got = _closed_loop_arrays(model, sol, policy, dW, dWp)
            want = closed_loop_reference(model, sol, policy, dW, dWp)
            assert got.keys() == want.keys()
            for key in want:
                np.testing.assert_allclose(got[key], want[key], rtol=1e-13,
                                           atol=1e-13, err_msg=key)


def test_nonfinite_noise_names_the_node(bench):
    model, grid, sol = bench
    dW, dWp = _noise_stack(3, 0, 5, grid, model.dims)
    dW[2, 7] = np.inf
    with pytest.raises(NonFinite) as err:
        _closed_loop_arrays(model, sol, ControlPolicy("filter_feedback"), dW, dWp)
    assert (err.value.what, err.value.node) == ("simulate_closed_loop", 8)


def test_kernel_temporaries_stay_below_one_buffer(kernel_cases):
    # all-node terms go into the output buffers: besides its outputs, a
    # call never holds as much as one more (paths, N, max(n, d)) array
    for model, grid, sol in kernel_cases:
        dW, dWp = _noise_stack(5, 0, 300, grid, model.dims)
        dims = model.dims
        buffer = dW.shape[0] * grid.steps * max(dims.n, dims.d) * 8
        for policy in all_policies(grid, dims.m):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                arrs = _closed_loop_arrays(model, sol, policy, dW, dWp)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            outputs = sum(a.nbytes for a in arrs.values())
            assert peak - before < outputs + buffer, (dims, policy.label)
            del arrs


# ------------------------------------------------------------------- tracking

def test_zero_noise_filter_tracks_exactly(bench):
    model, grid, sol = bench
    bundle = simulate_closed_loop(model, sol, ControlPolicy("filter_feedback"),
                                  zero_noise(grid, model.dims))
    np.testing.assert_array_equal(bundle.X, bundle.Xhat)
    assert (bundle.Xtil == 0.0).all()
    assert (bundle.V == 0.0).all()


def test_initial_conditions(bench):
    model, grid, sol = bench
    bundle = simulate_closed_loop(model, sol, ControlPolicy("filter_feedback"),
                                  draw_noise(0, 0, grid, model.dims))
    np.testing.assert_array_equal(bundle.X[0], model.x0)
    np.testing.assert_array_equal(bundle.Xhat[0], model.x0)
    assert (bundle.Y[0] == 0.0).all() and (bundle.V[0] == 0.0).all()
    np.testing.assert_array_equal(bundle.Xtil, bundle.X - bundle.Xhat)


# --------------------------------------------------------- error consistency

def test_error_identity_benchmark(bench):
    model, grid, sol = bench
    noise = draw_noise(11, 0, grid, model.dims)
    bundle = simulate_closed_loop(model, sol, ControlPolicy("filter_feedback"),
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
        bundle = simulate_closed_loop(model, sol, ControlPolicy("zero"), noise)
        direct = simulate_error_direct(model, sol, noise)
        scale = 1.0 + np.abs(bundle.X).max()
        assert np.abs(bundle.Xtil - direct).max() <= 1e-10 * scale


def test_error_path_independent_of_policy(bench):
    # the estimation error never sees the control
    model, grid, sol = bench
    noise = draw_noise(5, 2, grid, model.dims)
    a = simulate_closed_loop(model, sol, ControlPolicy("filter_feedback"), noise)
    b = simulate_closed_loop(model, sol, ControlPolicy("zero"), noise)
    assert np.abs(a.Xtil - b.Xtil).max() <= 1e-12


def test_innovation_increments(bench):
    # dV_i = h H Xtil_i + K dW_i, here with H = K = 1
    model, grid, sol = bench
    noise = draw_noise(21, 0, grid, model.dims)
    bundle = simulate_closed_loop(model, sol, ControlPolicy("filter_feedback"),
                                  noise)
    dV = np.diff(bundle.V, axis=0)
    expect = grid.h * bundle.Xtil[:-1] + noise.dW
    np.testing.assert_allclose(dV, expect, atol=1e-12)


# ------------------------------------------------------------------ policies

def test_policy_feedback_matches_kernel(bench, tv):
    # u_i = Theta_i xhat_i - R_i^{-1}(B_i^T phi_i + r_i) from the model's own
    # tables at the nodes, not from the solution's feed-forward
    for model, grid, sol in (bench, tv):
        noise = draw_noise(2, 7, grid, model.dims)
        bundle = simulate_closed_loop(model, sol, ControlPolicy("filter_feedback"),
                                      noise)
        for i in (0, 57, grid.steps):
            v = model.B[i].T @ sol.phi[i] + model.r[i]
            want = sol.Theta[i] @ bundle.Xhat[i] - np.linalg.solve(model.R[i], v)
            np.testing.assert_allclose(bundle.u[i], want, rtol=1e-12, atol=1e-14)


def test_zero_policy_controls(bench):
    model, grid, sol = bench
    bundle = simulate_closed_loop(model, sol, ControlPolicy("zero"),
                                  draw_noise(3, 0, grid, model.dims))
    assert (bundle.u == 0.0).all()


def test_perturbed_zero_offset_is_feedback(bench):
    model, grid, sol = bench
    noise = draw_noise(17, 4, grid, model.dims)
    a = simulate_closed_loop(model, sol, ControlPolicy("filter_feedback"), noise)
    b = simulate_closed_loop(
        model, sol, ControlPolicy("perturbed_feedback", np.zeros(model.dims.m)),
        noise)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.u, b.u)
    assert a.cost == b.cost


def test_perturbed_offset_shifts_first_control(bench):
    model, grid, sol = bench
    noise = draw_noise(17, 4, grid, model.dims)
    a = simulate_closed_loop(model, sol, ControlPolicy("filter_feedback"), noise)
    b = simulate_closed_loop(
        model, sol, ControlPolicy("perturbed_feedback", np.array([0.25])), noise)
    # both filters start at x0, so the offset is exact at the first node
    np.testing.assert_allclose(b.u[0] - a.u[0], [0.25], rtol=1e-14)


def test_open_loop_replays_feedback_run(bench):
    # feeding a recorded control table back in reproduces the whole path
    model, grid, sol = bench
    noise = draw_noise(29, 1, grid, model.dims)
    a = simulate_closed_loop(model, sol, ControlPolicy("filter_feedback"), noise)
    b = simulate_closed_loop(model, sol, ControlPolicy("open_loop", a.u), noise)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.Xhat, b.Xhat)
    np.testing.assert_array_equal(a.u, b.u)
    assert a.cost == b.cost


def test_open_loop_wrong_shape(bench):
    model, grid, sol = bench
    noise = draw_noise(0, 0, grid, model.dims)
    with pytest.raises(ShapeMismatch):
        simulate_closed_loop(model, sol,
                             ControlPolicy("open_loop", np.zeros((3, 1))), noise)
    with pytest.raises(ShapeMismatch):
        simulate_closed_loop(
            model, sol, ControlPolicy("perturbed_feedback", np.zeros((2, 2))),
            noise)


def test_policy_kind_checked():
    with pytest.raises(ValueError):
        ControlPolicy("bang_bang")


@pytest.mark.parametrize("kind, table", [
    ("zero", [1.0]), ("filter_feedback", [1.0]),
    ("open_loop", None), ("perturbed_feedback", None),
])
def test_policy_table_given_exactly_when_its_kind_reads_one(kind, table):
    with pytest.raises(ValueError, match=f"policy kind '{kind}' reads"):
        ControlPolicy(kind, table)


def test_grid_mismatch_rejected(bench):
    model, grid, sol = bench
    other = TimeGrid(1.0, grid.steps + 1)
    noise = draw_noise(0, 0, other, model.dims)
    with pytest.raises(ShapeMismatch):
        simulate_closed_loop(model, sol, ControlPolicy("zero"), noise)
    with pytest.raises(ShapeMismatch):
        simulate_error_direct(model, sol, noise)


# ---------------------------------------------------------------------- cost

def test_cost_is_left_riemann_plus_terminal(bench, tv):
    for model, grid, sol in (bench, tv):
        noise = draw_noise(31, 6, grid, model.dims)
        bundle = simulate_closed_loop(model, sol, ControlPolicy("filter_feedback"),
                                      noise)
        acc = 0.0
        for i in range(grid.steps):
            x, u = bundle.X[i], bundle.u[i]
            acc += grid.h * (x @ model.Q[i] @ x + 2.0 * u @ model.S[i] @ x
                             + u @ model.R[i] @ u + 2.0 * model.q[i] @ x
                             + 2.0 * model.r[i] @ u)
        xT = bundle.X[-1]
        acc += xT @ model.G @ xT + 2.0 * model.g @ xT
        assert bundle.cost == pytest.approx(acc, rel=1e-12)


# ----------------------------------------------------------------------- csv

def test_csv_matches_per_value_reference(tv):
    model, grid, sol = tv
    bundle = simulate_closed_loop(model, sol, ControlPolicy("filter_feedback"),
                                  draw_noise(8, 0, grid, model.dims))
    n, d, m = model.dims.n, model.dims.d, model.dims.m
    cols = (["t"] + [f"X{j+1}" for j in range(n)] + [f"Y{j+1}" for j in range(d)]
            + [f"Xhat{j+1}" for j in range(n)] + [f"Xtil{j+1}" for j in range(n)]
            + [f"V{j+1}" for j in range(d)] + [f"u{j+1}" for j in range(m)])
    # a row per node, each value formatted on its own
    want = [",".join(cols) + "\n"]
    for i, t in enumerate(grid.nodes):
        vals = [t, *bundle.X[i], *bundle.Y[i], *bundle.Xhat[i], *bundle.Xtil[i],
                *bundle.V[i], *bundle.u[i]]
        want.append(",".join(f"{float(v):.17g}" for v in vals) + "\n")
    want.append(f"# cost,{bundle.cost:.17g}\n")
    buf = io.StringIO()
    bundle_to_csv(bundle, buf)
    assert buf.getvalue() == "".join(want)


def test_csv_layout_and_determinism(bench):
    model, grid, sol = bench
    bundle = simulate_closed_loop(model, sol, ControlPolicy("filter_feedback"),
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
