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
    detsolve,
    integrate_matrix_ode,
    optimal_value,
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
    # B=0 leaves dP/dt = -2AP - Q, so P(t) = (G + Q/2A) e^{2A(T-t)} - Q/2A
    # overflows below t = 1 - log(max float / (G + Q/2A)) / 2A; 4000 steps
    # resolve it, and the blow-up names P at the first node below that time
    model, grid = scalar_model(A=1000.0, B=0.0, G=1.0, steps=4000)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFinite) as err:
        solve_P(NodeTable.build(model, grid))
    assert err.value.what == "P"
    assert str(err.value).startswith("P: non-finite value at node ")
    t_over = 1.0 - np.log(np.finfo(float).max / (1.0 + 1.0 / 2000.0)) / 2000.0
    assert err.value.node == int(np.floor(t_over * grid.steps))


def _max_abs_log_det(tab, name, curlyA=None):
    """max_i |log det Phi_i| over the Hamiltonian step maps of one equation;
    every exact map has det 1, so a large value shows an under-resolved grid."""
    F, M, C = detsolve._riccati_operators(tab, name, curlyA)
    Phi = detsolve._rk4_maps(np.block([[F, -M], [-C, -F.mT]]), -np.diff(tab.grid.nodes))
    return np.abs(np.linalg.slogdet(Phi)[1]).max()


def test_singular_map_gives_nan_for_that_node_only():
    # one singular U fails the whole batched solve; the pairs are then
    # solved one by one, so the scan reports the blow-up at its own node
    U = np.stack([np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2)])
    Y = detsolve._solve_right(U, np.ones((3, 2, 2)))
    np.testing.assert_array_equal(Y[0], np.ones((2, 2)))
    assert np.isnan(Y[1]).all()
    np.testing.assert_array_equal(Y[2], np.full((2, 2), 0.5))


def test_log_det_witness_is_zero_on_resolved_grids():
    models = [benchmark_model(400)] + [
        random_validated_model(np.random.default_rng(seed), time_varying=True)
        for seed in (100, 101, 102, 103)]
    for model, grid in models:
        sol = solve_all(model, grid)
        for name in ("P", "Sigma"):
            assert _max_abs_log_det(sol.table, name) <= grid.h ** 5, name
        assert _max_abs_log_det(sol.table, "Pi", sol.curlyA) <= grid.h ** 5


def test_under_resolved_blowup_is_finite_but_witnessed():
    # the 100-step grid of the model above: each step's Hamiltonian map
    # scales U by p(-10) and V by p(10), p the RK4 polynomial, instead of
    # e^{-10} and e^{10}, so P(0) comes out finite and far too small.
    # Nothing in the solve flags it; the step maps' log det does.
    model, grid = scalar_model(A=1000.0, B=0.0, G=1.0, steps=100)
    tab = NodeTable.build(model, grid)
    P = solve_P(tab)
    assert np.isfinite(P).all()
    assert 1e34 < P[0, 0, 0] < 1e35
    assert _max_abs_log_det(tab, "P") > 1.0


def test_under_resolved_filter_drift_fails_on_Pi():
    # C = -1000 makes the filter drift 1000; at 100 steps Sigma is finite
    # and the failure surfaces in Pi, where the Sigma maps' log det shows
    # that Sigma was never resolved
    model, grid = scalar_model(C=-1000.0, steps=100)
    tab = NodeTable.build(model, grid)
    assert _max_abs_log_det(tab, "Sigma") > 1.0
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(PSDViolation) as err:
        solve_all(model, grid)
    assert (err.value.what, err.value.node) == ("Pi", 0)


@pytest.mark.parametrize("A,steps,rtol", [(40.0, 20, 1e-12), (300.0, 100, 1e-12),
                                          (1000.0, 100, 1e-12), (3000.0, 100, 2e-4)])
def test_stiff_P_matches_refined_solve(A, steps, rtol):
    # dP/dt = -2AP + P^2 - 1 settles at A + sqrt(A^2 + 1) within 1/(2A) of
    # t = 1; the Hamiltonian maps carry that steady state for any step, so
    # coarse grids match a 64x-refined solve.  At A=3000 and 100 steps the
    # approach to it is still under-resolved (5999.42 against 6000.00017).
    def P0(n):
        model, grid = scalar_model(A=A, steps=n)
        return solve_P(NodeTable.build(model, grid))[0, 0, 0]

    got, ref = P0(steps), P0(64 * steps)
    assert abs(ref - (A + np.sqrt(A * A + 1.0))) <= 1e-12 * ref
    assert abs(got - ref) <= rtol * ref
    if A == 3000.0:
        assert abs(got - 5999.42) < 0.01


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
    np.testing.assert_array_equal(sol.P[-1], model.G)
    np.testing.assert_array_equal(sol.Pi[-1], model.G)
    np.testing.assert_array_equal(sol.phi[-1], model.g)
    np.testing.assert_array_equal(solve_pi(sol.table, sol.curlyA)[-1], model.g)
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
    """P, Sigma and Pi, each equation on its own RK4 loop with its
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

    P = integrate_matrix_ode(rhs_P, model.G, grid, "backward", post_step=sym)
    Sigma = integrate_matrix_ode(rhs_Sigma, np.zeros((n, n)), grid, "forward",
                                 post_step=sym)
    C, H, K = tab.C[::2], tab.H[::2], tab.K[::2]
    gain = np.linalg.solve(K @ K.mT, (Sigma @ H.mT + C @ K.mT).mT).mT
    Av_k = _knots(tab.A[::2] - gain @ H)

    def rhs_Pi(j, Pi):
        return -(Pi @ Av_k[j]) - Av_k[j].T @ Pi - tab.Q[j]

    return {"P": P, "Sigma": Sigma,
            "Pi": integrate_matrix_ode(rhs_Pi, model.G, grid, "backward",
                                       post_step=sym)}


def _phi_reference(model, grid, P):
    """phi on its own RK4 loop, fed the given P path."""
    tab = NodeTable.build(model, grid)
    B, S, R = tab.B[::2], tab.S[::2], tab.R[::2]
    Th_k, P_k = _knots(-np.linalg.solve(R, B.mT @ P + S)), _knots(P)

    def rhs_phi(j, phi):
        Th = Th_k[j]
        return (-(tab.A[j] + tab.B[j] @ Th).T @ phi - Th.T @ tab.r[j]
                - P_k[j] @ tab.a[j] - tab.q[j])

    return integrate_matrix_ode(rhs_phi, model.g, grid, "backward")


@pytest.mark.parametrize("seed", [100, 101, 102, 103])
def test_fused_loops_match_per_equation_reference(seed):
    # time-varying coefficients and cost weights, so an operator read at
    # the wrong knot shows.  The Riccati paths come from RK4 on their
    # Hamiltonian systems, which differs from RK4 on the Riccati itself by
    # O(h^4) (up to 1.7 h^4 on these draws); phi's maps are its own RK4.
    model, grid = random_validated_model(np.random.default_rng(seed),
                                         time_varying=True)
    sol = solve_all(model, grid)
    for name, ref in _per_equation_reference(model, grid).items():
        got = getattr(sol, name)
        assert np.abs(got - ref).max() <= 4.0 * grid.h ** 4 * np.abs(ref).max(), name
    ref = _phi_reference(model, grid, sol.P)
    assert np.abs(sol.phi - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("seed", [100, 101, 102, 103])
def test_solve_all_matches_refined_solve(seed):
    # the draws are linear in t, so 16x the steps is the same model; P and
    # Sigma are fourth order, phi, Pi and the value second order, because
    # Theta and curlyA reach their knots by linear interpolation
    def solve(steps):
        model, grid = random_validated_model(np.random.default_rng(seed),
                                             steps=steps, time_varying=True)
        sol = solve_all(model, grid)
        return sol, optimal_value(model, sol).total

    (sol, value), (fine, fine_value) = solve(60), solve(960)
    h = sol.grid.h
    for name, tol in (("P", h ** 4), ("Sigma", h ** 4), ("phi", h ** 2), ("Pi", h ** 2)):
        ref = getattr(fine, name)[::16]
        assert np.abs(getattr(sol, name) - ref).max() <= tol * (1.0 + np.abs(ref).max()), name
    assert abs(value - fine_value) <= h ** 2 * (1.0 + abs(fine_value))


def test_solve_all_never_steps_the_rk4_loop(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_all stepped integrate_matrix_ode")

    monkeypatch.setattr(detsolve, "integrate_matrix_ode", refuse)
    model, grid = random_validated_model(np.random.default_rng(100), time_varying=True)
    sol = solve_all(model, grid)
    assert np.isfinite(sol.Pi).all()


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
                + np.trace(model.G @ Sigma[-1]))
        residual[steps] = abs(tJ - dual)
        assert residual[steps] <= grid.h ** 2 * (1.0 + abs(tJ))
    assert 12.0 <= residual[100] / residual[400] <= 20.0


def test_fused_blowup_names_Sigma_and_its_node():
    # H = 0 leaves dSigma/dt = 2A Sigma + DD^T, so with A = 1000 Sigma(t) =
    # (e^{2000 t} - 1)/2000 overflows past t = log(2000 max float)/2000,
    # while P, composed with it, settles near 2A; 4000 steps resolve it
    model, grid = scalar_model(A=1000.0, H=0.0, steps=4000)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFinite) as err:
        solve_all(model, grid)
    assert err.value.what == "Sigma"
    t_over = (np.log(2000.0) + np.log(np.finfo(float).max)) / 2000.0
    assert err.value.node == int(np.ceil(t_over * grid.steps))


def test_solve_all_single_step_grid():
    model, grid = benchmark_model(1)
    sol = solve_all(model, grid)
    assert np.isfinite(sol.P).all()
    assert sol.P.shape == (2, 1, 1)
