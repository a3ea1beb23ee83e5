import dataclasses
import io

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
    path_cost,
    simulate_closed_loop,
    simulate_error_direct,
    solve_all,
    validate,
)
from polqg import simulate
from polqg.simulate import _closed_loop_arrays, _format_rows_17g
from polqg.verify import _noise_stack

from oracles import (
    benchmark_model,
    closed_loop_reference,
    random_validated_model,
    traced_peak,
)


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


def test_zero_policy_cost_is_the_cost_of_its_controls(kernel_cases):
    # the kernel prices the zero policy with a scalar zero control, which
    # skips the S, R and r terms; its cost is bitwise that of the u it returns
    for model, grid, sol in kernel_cases:
        dW, dWp = _noise_stack(29, 0, 40, grid, model.dims)
        arrs = _closed_loop_arrays(model, sol, ControlPolicy("zero"), dW, dWp)
        assert not arrs["u"].any()
        want = path_cost(sol.table, arrs["X"], arrs["u"])
        np.testing.assert_array_equal(arrs["cost"].view(np.uint64), want.view(np.uint64))


def test_nonfinite_noise_names_the_node(bench):
    model, grid, sol = bench
    dW, dWp = _noise_stack(3, 0, 5, grid, model.dims)
    dW[2, 7] = np.inf
    with pytest.raises(NonFinite) as err:
        _closed_loop_arrays(model, sol, ControlPolicy("filter_feedback"), dW, dWp)
    assert (err.value.what, err.value.node) == ("simulate_closed_loop", 8)


def _slabs_contiguous(a):
    return all(a[:, i].flags.c_contiguous for i in range(a.shape[1]))


def test_kernel_temporaries_stay_below_one_buffer(kernel_cases):
    # all-node terms go into the output buffers: besides its outputs, a
    # call never holds as much as one more (paths, N, max(n, d)) array.
    # Noise and outputs are stored node-major: each per-node slab [:, i]
    # of the step loops is one contiguous block
    for model, grid, sol in kernel_cases:
        dW, dWp = _noise_stack(5, 0, 300, grid, model.dims)
        assert _slabs_contiguous(dW) and _slabs_contiguous(dWp)
        dims = model.dims
        buffer = dW.shape[0] * grid.steps * max(dims.n, dims.d) * 8
        for policy in all_policies(grid, dims.m):
            arrs, peak = traced_peak(_closed_loop_arrays, model, sol, policy, dW, dWp)
            outputs = sum(a.nbytes for a in arrs.values())
            assert peak < outputs + buffer, (dims, policy.label)
            for key in ("X", "Xhat", "u", "dV"):
                assert _slabs_contiguous(arrs[key]), (dims, policy.label, key)
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
    plain = simulate_closed_loop(model, sol, ControlPolicy("filter_feedback"),
                                 draw_noise(8, 0, grid, model.dims))
    n, d, m = model.dims.n, model.dims.d, model.dims.m
    cols = (["t"] + [f"X{j+1}" for j in range(n)] + [f"Y{j+1}" for j in range(d)]
            + [f"Xhat{j+1}" for j in range(n)] + [f"Xtil{j+1}" for j in range(n)]
            + [f"V{j+1}" for j in range(d)] + [f"u{j+1}" for j in range(m)])
    # below 1e-4 and from 1e17 up, %.17g turns to e notation, 2 and 3 digits
    for scales in ({}, {"X": 1e18, "Xhat": 1e18, "Y": 1e-9, "V": 1e-250, "u": 1e120}):
        bundle = dataclasses.replace(plain, **{name: getattr(plain, name) * k
                                               for name, k in scales.items()})
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
        rows = "".join(want[1:-1])
        assert ("e+" in rows and "e-" in rows) == bool(scales)


def _template_17g(block):
    """What the %.17g row template writes for a 2-D block."""
    row = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return (row * len(block)) % tuple(block.ravel().tolist())


@pytest.fixture(scope="module")
def formatter_cases():
    """About 2e5 seeded cells in groups that reach every branch of the
    formatter and its fallback."""
    rng = np.random.default_rng(2026)
    sign = lambda size: rng.choice([-1.0, 1.0], size)
    tens = np.array([float(f"1e{e}") for e in range(-308, 309)])
    near, up, down = [tens], tens, tens
    for _ in range(4):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        near += [up, down]
    near = np.concatenate(near)
    tiny = np.nextafter(2.2250738585072014e-308, 0.0)  # the largest subnormal
    return {
        "scaled_normals": rng.standard_normal(70000)
                          * 10.0 ** rng.integers(-300, 301, 70000),
        "random_bits": rng.integers(0, 2 ** 64, 40000, dtype=np.uint64).view(float),
        "powers_of_ten": np.concatenate([near, -near]),  # +-1..4 ulps
        # odd m / 2**k: every 17-digit tie is one of these
        "dyadic": sign(40000) * (rng.integers(0, 2 ** 52, 40000) * 2 + 1)
                  / 2.0 ** rng.integers(1, 71, 40000),
        "integers": sign(20000) * rng.integers(0, 2 ** 63, 20000, dtype=np.uint64,
                                               endpoint=True).astype(float),
        "range_edges": sign(20000) * 10.0 ** np.concatenate(
            [rng.uniform(-290, -280, 10000), rng.uniform(280, 290, 10000)]),
        "exponents": np.concatenate([1.25 * 10.0 ** np.arange(-310.0, 309.0),
                                     -7.0 * 10.0 ** np.arange(-20.0, 20.0)]),
        "special": np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                             -5e-324, tiny, -tiny, 1e-300, 1e300, 1e-290, 1e290,
                             1.0, -1.0, 0.1, 1e16, 1e17, 1e-5, 1e-4, 9.9999999999999998e-201]),
    }


@pytest.mark.parametrize("case", ["scaled_normals", "random_bits", "powers_of_ten",
                                  "dyadic", "integers", "range_edges", "exponents",
                                  "special"])
def test_format_rows_17g_matches_the_template(formatter_cases, case):
    x = formatter_cases[case]
    blocks = [x[:len(x) // 6 * 6].reshape(-1, 6), x[None, :]]  # and 1 x n
    blocks += [x[i:i + 1, None] for i in range(0, len(x), max(1, len(x) // 50))]  # 1 x 1
    for block in blocks:
        assert _format_rows_17g(block) == _template_17g(block), block.shape


def test_format_rows_17g_falls_back_only_where_it_cannot_prove(monkeypatch):
    cells = []
    real = simulate._cell_17g
    monkeypatch.setattr(simulate, "_cell_17g", lambda x: cells.append(x) or real(x))
    zeros = np.zeros((40, 5))
    zeros[::3] = -0.0
    assert _format_rows_17g(zeros) == _template_17g(zeros)
    assert cells == []
    normals = np.random.default_rng(5).standard_normal((2000, 8))
    assert _format_rows_17g(normals) == _template_17g(normals)
    assert cells == []
    # NaN, infinities, a subnormal, |x| outside (1e-290, 1e290), and the
    # exact tie 1 + 2**-17 = 1.00000762939453125, but not their neighbours
    odd = np.array([[np.nan, np.inf, -np.inf, 5e-324, 1e-291, 1e291, 1 + 2.0 ** -17,
                     1e-289, 1e289, 1 + 2.0 ** -16, 0.0, -0.0]])
    assert _format_rows_17g(odd) == _template_17g(odd)
    np.testing.assert_array_equal(cells, odd[0, :7])


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
