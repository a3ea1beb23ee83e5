import numpy as np
import pytest

from polqg import (
    NodeTable,
    NonFinite,
    PSDViolation,
    TimeGrid,
    compute_curlyA,
    compute_Delta,
    compute_gain,
    compute_Theta,
    integrate_matrix_ode,
    solve_all,
    solve_P,
    solve_phi,
    solve_Pi,
    solve_pi,
    solve_Sigma,
    tilde_J,
)

from oracles import (
    LYAPUNOV_P0,
    benchmark_model,
    closed_form_Pi,
    random_validated_model,
    scalar_model,
)


# ---------------------------------------------------------------- integrator

def test_integrator_constant_rhs_is_exact():
    grid = TimeGrid(2.0, 7)
    vals = integrate_matrix_ode(lambda t, y: np.zeros_like(y),
                                np.array([[3.0]]), grid, "forward")
    assert (vals == 3.0).all()
    vals = integrate_matrix_ode(lambda t, y: np.ones_like(y),
                                np.array([[0.0]]), grid, "backward")
    np.testing.assert_allclose(vals[:, 0, 0], grid.nodes - 2.0, atol=1e-14)


def test_integrator_exponential_forward():
    grid = TimeGrid(1.0, 100)
    vals = integrate_matrix_ode(lambda t, y: y, np.array([[1.0]]), grid,
                                "forward")
    assert abs(vals[-1, 0, 0] - np.e) < 1e-9


def test_integrator_exponential_backward():
    grid = TimeGrid(1.0, 100)
    vals = integrate_matrix_ode(lambda t, y: y, np.array([[np.e]]), grid,
                                "backward")
    assert abs(vals[0, 0, 0] - 1.0) < 1e-9


def test_integrator_fourth_order():
    errs = {}
    for steps in (25, 50):
        grid = TimeGrid(1.0, steps)
        vals = integrate_matrix_ode(lambda t, y: y, np.array([[1.0]]), grid,
                                    "forward")
        errs[steps] = abs(vals[-1, 0, 0] - np.e)
    assert errs[25] / errs[50] >= 12.0


def test_integrator_boundary_stored_unchanged():
    grid = TimeGrid(1.0, 5)
    b = np.array([[1.0 / 3.0]])
    vals = integrate_matrix_ode(lambda t, y: y, b, grid, "forward")
    assert vals[0, 0, 0] == b[0, 0]
    vals = integrate_matrix_ode(lambda t, y: y, b, grid, "backward")
    assert vals[-1, 0, 0] == b[0, 0]


def test_integrator_bad_direction():
    grid = TimeGrid(1.0, 5)
    with pytest.raises(ValueError):
        integrate_matrix_ode(lambda t, y: y, np.zeros((1, 1)), grid, "up")


def test_integrator_blowup_raises_nonfinite():
    grid = TimeGrid(1.0, 50)
    with np.errstate(over="ignore"), pytest.raises(NonFinite):
        integrate_matrix_ode(lambda t, y: y @ y, np.array([[10.0]]), grid,
                             "forward")


def test_blown_up_P_names_the_equation():
    # B=0 leaves dP/dt = -2AP - Q; with A=1000 each backward RK4 step
    # multiplies P by about 8000, which overflows long before t=0
    model, grid = scalar_model(A=1000.0, B=0.0, G=1.0, steps=100)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFinite) as err:
        solve_P(NodeTable.build(model, grid))
    assert err.value.what == "P"
    assert str(err.value).startswith("P: non-finite value at node ")


# ------------------------------------------------------------------- Riccati

def test_P_scalar_riccati_closed_form():
    # A=0, B=R=G=1, Q=0: dP/dt = P^2 with P(1)=1, so P(t) = 1/(2-t)
    model, grid = scalar_model(Q=0.0, G=1.0, steps=200)
    P = solve_P(NodeTable.build(model, grid))
    np.testing.assert_allclose(P[:, 0, 0], 1.0 / (2.0 - grid.nodes),
                               atol=1e-10)


def test_P_lyapunov_closed_form():
    # B=0 removes the quadratic term: dP/dt = 2P - 1 with P(1) = 0
    model, grid = scalar_model(A=-1.0, B=0.0, steps=200)
    P = solve_P(NodeTable.build(model, grid))
    assert abs(P[0, 0, 0] - LYAPUNOV_P0) < 1e-10


def test_P_benchmark_tanh():
    model, grid = benchmark_model(200)
    P = solve_P(NodeTable.build(model, grid))
    np.testing.assert_allclose(P[:, 0, 0], np.tanh(1.0 - grid.nodes),
                               atol=1e-10)


def test_P_zero_when_G_and_Q_zero():
    model, grid = scalar_model(Q=0.0, G=0.0, steps=50)
    P = solve_P(NodeTable.build(model, grid))
    assert (P == 0.0).all()


def test_P_rejects_indefinite_terminal():
    model, grid = scalar_model(G=-1e-3, steps=10)
    with pytest.raises(PSDViolation):
        solve_P(NodeTable.build(model, grid))


def test_P_symmetric_every_node():
    model, grid = random_validated_model(np.random.default_rng(7))
    P = solve_P(NodeTable.build(model, grid))
    assert np.abs(P - P.transpose(0, 2, 1)).max() <= 1e-14


def test_Theta_benchmark_is_minus_P():
    model, grid = benchmark_model(100)
    tab = NodeTable.build(model, grid)
    P = solve_P(tab)
    Theta = compute_Theta(P, tab)
    np.testing.assert_allclose(Theta, -P, rtol=0, atol=1e-15)


# ----------------------------------------------------------------- phi paths

def test_phi_linear_closed_form():
    # A=B=a=0, q=1, g=0: dphi/dt = -1 backward from 0 gives phi = 1 - t
    model, grid = scalar_model(B=0.0, Q=0.0, q=1.0, steps=40)
    tab = NodeTable.build(model, grid)
    P = solve_P(tab)
    phi = solve_phi(tab, compute_Theta(P, tab), P)
    np.testing.assert_allclose(phi[:, 0], 1.0 - grid.nodes, atol=1e-14)


def test_phi_exponential_closed_form():
    # A=1, B=0, q=0, g=1, P=0: dphi/dt = -phi, phi(1) = 1, so phi = e^{1-t}
    model, grid = scalar_model(A=1.0, B=0.0, Q=0.0, g=1.0, steps=100)
    tab = NodeTable.build(model, grid)
    P = solve_P(tab)
    phi = solve_phi(tab, compute_Theta(P, tab), P)
    np.testing.assert_allclose(phi[:, 0], np.exp(1.0 - grid.nodes),
                               atol=1e-8)


def test_phi_zero_benchmark():
    model, grid = benchmark_model(50)
    sol = solve_all(model, grid)
    assert (sol.phi == 0.0).all()
    assert (solve_pi(sol.table, sol.curlyA) == 0.0).all()


# -------------------------------------------------------------- filter paths

def test_Sigma_benchmark_tanh():
    model, grid = benchmark_model(200)
    Sigma = solve_Sigma(NodeTable.build(model, grid))
    np.testing.assert_allclose(Sigma[:, 0, 0], np.tanh(grid.nodes),
                               atol=1e-10)


def test_Sigma_linear_when_H_zero():
    # no observations: dSigma/dt = DD^T, Sigma(t) = t
    model, grid = scalar_model(H=0.0, steps=30)
    Sigma = solve_Sigma(NodeTable.build(model, grid))
    np.testing.assert_allclose(Sigma[:, 0, 0], grid.nodes, atol=1e-14)


def test_Sigma_zero_when_D_zero():
    model, grid = scalar_model(D=0.0, steps=30)
    Sigma = solve_Sigma(NodeTable.build(model, grid))
    assert np.abs(Sigma).max() <= 1e-14


def test_Sigma_time_reversal():
    model, grid = benchmark_model(1000)
    tab = NodeTable.build(model, grid)
    fwd = solve_Sigma(tab)

    # the Riccati right-hand side from the raw coefficients at each knot
    def rhs(j, Sig):
        A, C, D, H, K = tab.A[j], tab.C[j], tab.D[j], tab.H[j], tab.K[j]
        Acl = A - C @ np.linalg.solve(K, H)
        return (Acl @ Sig + Sig @ Acl.T
                - Sig @ H.T @ np.linalg.solve(K @ K.T, H @ Sig)
                + D @ D.T)

    back = integrate_matrix_ode(rhs, fwd[-1], grid, "backward")
    assert np.abs(back - fwd).max() < 1e-9
    assert abs(back[0, 0, 0]) < 1e-9


def test_Delta_and_curlyA_benchmark():
    model, grid = benchmark_model(100)
    tab = NodeTable.build(model, grid)
    Sigma = solve_Sigma(tab)
    Delta = compute_Delta(Sigma, tab)
    curlyA = compute_curlyA(compute_gain(Sigma, tab), tab)
    np.testing.assert_allclose(Delta, Sigma, atol=1e-15)
    np.testing.assert_allclose(curlyA, -Sigma, atol=1e-15)


# ----------------------------------------------------------------- Pi and pi

def test_Pi_linear_when_curlyA_zero():
    # H=0 and A=0 make curlyA = 0: dPi/dt = -Q, Pi(1)=0, so Pi = 1 - t
    model, grid = scalar_model(H=0.0, q=1.0, steps=30)
    tab = NodeTable.build(model, grid)
    Sigma = solve_Sigma(tab)
    curlyA = compute_curlyA(compute_gain(Sigma, tab), tab)
    assert np.abs(curlyA).max() == 0.0
    Pi = solve_Pi(tab, curlyA)
    np.testing.assert_allclose(Pi[:, 0, 0], 1.0 - grid.nodes,
                               atol=1e-14)
    np.testing.assert_allclose(solve_pi(tab, curlyA)[:, 0], 1.0 - grid.nodes,
                               atol=1e-14)


def test_Pi_benchmark_closed_form():
    model, grid = benchmark_model(1000)
    sol = solve_all(model, grid)
    assert abs(sol.Pi[0, 0, 0] - np.tanh(1.0)) < 1e-7
    np.testing.assert_allclose(sol.Pi[:, 0, 0],
                               closed_form_Pi(grid.nodes), atol=1e-7)


@pytest.mark.parametrize("seed", [100, 102])
def test_solve_Pi_is_the_solve_all_path(seed):
    # solve_filter_side steps Pi through solve_Pi, so the two agree bitwise
    model, grid = random_validated_model(np.random.default_rng(seed),
                                         time_varying=True)
    sol = solve_all(model, grid)
    np.testing.assert_array_equal(solve_Pi(sol.table, sol.curlyA), sol.Pi)


# ------------------------------------------------------------------ solve_all

def test_solve_all_benchmark_consistency():
    model, grid = benchmark_model(200)
    sol = solve_all(model, grid)
    np.testing.assert_allclose(sol.Theta, -sol.P, atol=1e-15)
    np.testing.assert_allclose(sol.Delta, sol.Sigma, atol=1e-15)
    np.testing.assert_allclose(sol.curlyA, -sol.Sigma,
                               atol=1e-15)


def test_solve_all_boundaries_bitwise():
    model, grid = random_validated_model(np.random.default_rng(3))
    sol = solve_all(model, grid)
    np.testing.assert_array_equal(sol.P[-1], model.cost.G)
    np.testing.assert_array_equal(sol.Pi[-1], model.cost.G)
    np.testing.assert_array_equal(sol.phi[-1], model.cost.g)
    np.testing.assert_array_equal(solve_pi(sol.table, sol.curlyA)[-1], model.cost.g)
    assert (sol.Sigma[0] == 0.0).all()


def test_solve_all_symmetry_random_models():
    rng = np.random.default_rng(11)
    for _ in range(3):
        model, grid = random_validated_model(rng, time_varying=True)
        sol = solve_all(model, grid)
        for path in (sol.P, sol.Sigma, sol.Pi):
            v = path
            assert np.abs(v - v.transpose(0, 2, 1)).max() <= 1e-13


def _knots(values):
    """Node values and the midpoints between them, linear in between."""
    out = np.empty((2 * len(values) - 1,) + values.shape[1:])
    out[0::2] = values
    out[1::2] = 0.5 * (values[:-1] + values[1:])
    return out


def _per_equation_reference(model, grid):
    """Every solve_all path, each equation on its own RK4 loop with its
    right-hand side written from the raw knot coefficients and a linear
    solve at every stage."""
    tab = NodeTable.build(model, grid)
    n = model.dims.n

    def sym(M):
        return 0.5 * (M + M.T)

    def rhs_P(j, P):
        A, B, S = tab.A[j], tab.B[j], tab.S[j]
        BtPS = B.T @ P + S
        return -(P @ A) - A.T @ P - tab.Q[j] + BtPS.T @ np.linalg.solve(tab.R[j], BtPS)

    def rhs_Sigma(j, Sig):
        A, C, D, H, K = tab.A[j], tab.C[j], tab.D[j], tab.H[j], tab.K[j]
        Acl = A - C @ np.linalg.solve(K, H)
        return (Acl @ Sig + Sig @ Acl.T
                - Sig @ H.T @ np.linalg.solve(K @ K.T, H @ Sig) + D @ D.T)

    P = integrate_matrix_ode(rhs_P, model.cost.G, grid, "backward", post_step=sym)
    Sigma = integrate_matrix_ode(rhs_Sigma, np.zeros((n, n)), grid, "forward",
                                 post_step=sym)
    B, S, R = tab.B[::2], tab.S[::2], tab.R[::2]
    Th_k, P_k = _knots(-np.linalg.solve(R, B.mT @ P + S)), _knots(P)

    def rhs_phi(j, phi):
        Th = Th_k[j]
        return (-(tab.A[j] + tab.B[j] @ Th).T @ phi - Th.T @ tab.r[j]
                - P_k[j] @ tab.a[j] - tab.q[j])

    C, H, K = tab.C[::2], tab.H[::2], tab.K[::2]
    gain = np.linalg.solve(K @ K.mT, (Sigma @ H.mT + C @ K.mT).mT).mT
    Av_k = _knots(tab.A[::2] - gain @ H)

    def rhs_Pi(j, Pi):
        return -(Pi @ Av_k[j]) - Av_k[j].T @ Pi - tab.Q[j]

    return {
        "P": P, "Sigma": Sigma,
        "phi": integrate_matrix_ode(rhs_phi, model.cost.g, grid, "backward"),
        "Pi": integrate_matrix_ode(rhs_Pi, model.cost.G, grid, "backward",
                                   post_step=sym),
    }


@pytest.mark.parametrize("seed", [100, 101, 102, 103])
def test_fused_loops_match_per_equation_reference(seed):
    # time-varying coefficients and cost weights, so an operator read at
    # the wrong knot shows
    model, grid = random_validated_model(np.random.default_rng(seed),
                                         time_varying=True)
    sol = solve_all(model, grid)
    for name, ref in _per_equation_reference(model, grid).items():
        got = getattr(sol, name)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name


@pytest.mark.parametrize("seed", [None, 100, 101, 102, 103])
def test_duality_residual_is_second_order(seed):
    # d/dt tr(Pi Sigma) integrates to tilde_J = int tr(Q Sigma) dt + tr(G Sigma(T));
    # the two sides differ only by the trapezoid error of the value integrals
    residual = {}
    for steps in (100, 400):
        if seed is None:
            model, grid = benchmark_model(steps)
        else:
            model, grid = random_validated_model(np.random.default_rng(seed),
                                                 steps=steps, time_varying=True)
        sol = solve_all(model, grid)
        tJ = tilde_J(model, sol)
        Sigma = sol.Sigma
        dual = (np.trapezoid(np.einsum("tij,tji->t", sol.table.Q[::2], Sigma), grid.nodes)
                + np.trace(model.cost.G @ Sigma[-1]))
        residual[steps] = abs(tJ - dual)
        assert residual[steps] <= grid.h ** 2 * (1.0 + abs(tJ))
    assert 12.0 <= residual[100] / residual[400] <= 20.0


def test_fused_blowup_names_Sigma_and_its_node():
    # C = -1000 makes the filter drift 1000: Sigma overflows going forward
    # while P, stepped in the same loop, stays finite
    model, grid = scalar_model(C=-1000.0, steps=100)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFinite) as err:
        solve_all(model, grid)
    assert err.value.what == "Sigma"
    assert err.value.node == 4


def test_solve_all_single_step_grid():
    model, grid = benchmark_model(1)
    sol = solve_all(model, grid)
    assert np.isfinite(sol.P).all()
    assert sol.P.shape == (2, 1, 1)
