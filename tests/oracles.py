"""Shared model builders and independent oracles for expected values.

The scalar benchmark (all coefficients constant: A=0, B=1, a=0, C=0, D=1,
H=1, h=0, K=1, Q=1, S=0, R=1, q=r=0, G=0, g=0, T=1, x0=1) has closed
forms for every deterministic path:

    P(t) = tanh(1-t)          Sigma(t) = tanh(t)
    Theta(t) = -tanh(1-t)     Delta(t) = tanh(t)
    phi = 0                   curlyA(t) = -tanh(t)
    Pi(t) = cosh(t)^2 (tanh 1 - tanh t) = int_t^1 (cosh t / cosh s)^2 ds

The value integrals below were computed from these closed forms with
composite Simpson quadrature at 2^21 panels (oracle_* functions recompute
them; a meta test pins the frozen constants against the oracles).
"""

import tracemalloc

import numpy as np

from polqg import (
    Dimensions,
    ModelSpec,
    TimeGrid,
    validate,
)

# frozen oracle values for the scalar benchmark
P0 = np.tanh(1.0)                       # 0.7615941559557649
SIGMA_HALF = np.tanh(0.5)               # 0.46211715726000974
PI0 = np.tanh(1.0)                      # Pi(0), equals tanh(1) in closed form
TILDE_J = 0.4337808304830271            # = log(cosh(1))
PID_INT = 0.3807970779778824            # int Pi dt = tanh(1)/2
PIDELTA_INT = 0.052983752505144754      # int Pi tanh^2 dt (quadrature)
PDELTAC_INT = 0.061948967712799646      # int tanh(1-t) tanh^2 t dt (quadrature)
HAT_FLOOR = 0.8235431236685645          # tanh(1) + PDELTAC_INT
TOTAL = 1.2573239541515917              # tanh(1) + TILDE_J + PDELTAC_INT
ZERO_CONTROL_COST = 1.5                 # int_0^1 E[(1 + W'(t))^2] dt
LYAPUNOV_P0 = (1.0 - np.exp(-2.0)) / 2.0  # 0.43233235838169365


def simpson(f, a, b, n=2 ** 21):
    x = np.linspace(a, b, n + 1)
    y = f(x)
    h = (b - a) / n
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def closed_form_Pi(t):
    return np.cosh(t) ** 2 * (np.tanh(1.0) - np.tanh(t))


def oracle_Pi0_quadrature(step=1e-5):
    # the integral form, independent of the ODE solver and the closed form
    s = np.arange(0.0, 1.0 + step / 2, step)
    return np.trapezoid((np.cosh(0.0) / np.cosh(s)) ** 2, s)


def oracle_tilde_J():
    return simpson(lambda t: closed_form_Pi(t) * (1.0 + np.tanh(t) ** 2), 0.0, 1.0)


def oracle_PDeltaC():
    return simpson(lambda t: np.tanh(1.0 - t) * np.tanh(t) ** 2, 0.0, 1.0)


def oracle_total():
    return np.tanh(1.0) + oracle_tilde_J() + oracle_PDeltaC()


def _tile(fields, nnodes):
    """Each value repeated along a new leading node axis."""
    return {name: np.repeat(np.asarray(v, dtype=float)[None], nnodes, axis=0)
            for name, v in fields.items()}


def constant_model(dims, grid, x0, *, G, g, delta=1e-6, **fields):
    """ModelSpec whose coefficients and running cost weights hold the same
    value at every node of grid."""
    return ModelSpec(dims, grid, x0, **_tile(fields, grid.steps + 1),
                     G=G, g=g, delta=delta)


def scalar_model(**overrides):
    """Benchmark coefficients with selected entries replaced."""
    vals = dict(A=0.0, B=1.0, a=0.0, C=0.0, D=1.0, H=1.0, h=0.0, K=1.0,
                Q=1.0, S=0.0, R=1.0, q=0.0, r=0.0, G=0.0, g=0.0, x0=1.0,
                T=1.0, steps=100)
    vals.update(overrides)
    grid = TimeGrid(vals["T"], vals["steps"])
    vectors = ("a", "h", "q", "r", "g", "x0")
    arrays = {f: [vals[f]] if f in vectors else [[vals[f]]]
              for f in vals if f not in ("T", "steps")}
    return constant_model(Dimensions(1, 1, 1, 1), grid, **arrays), grid


def benchmark_model(steps, T=1.0, D=1.0, C=0.0):
    grid = TimeGrid(T, steps)
    return constant_model(
        Dimensions(1, 1, 1, 1), grid, [1.0], A=[[0.0]], B=[[1.0]], a=[0.0],
        C=[[C]], D=[[D]], H=[[1.0]], h=[0.0], K=[[1.0]], G=[[0.0]], g=[0.0],
        Q=[[1.0]], S=[[0.0]], R=[[1.0]], q=[0.0], r=[0.0]), grid


def random_validated_model(rng, steps=60, time_varying=False):
    """Random model satisfying every assumption by construction
    (R = LL^T + eps I, Q = S^T R^{-1} S + MM^T, stable-ish A).  With
    time_varying, every coefficient and every running cost weight moves
    linearly between two such draws."""
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    d = int(rng.integers(1, 3))
    k = int(rng.integers(1, 3))
    grid = TimeGrid(1.0, steps)

    def mat(p, q, scale=0.5):
        return scale * rng.standard_normal((p, q))

    A = mat(n, n)
    A = A - (max(np.linalg.eigvals(A).real.max(), 0.0) + 0.3) * np.eye(n)
    K = 0.3 * rng.standard_normal((d, d)) + np.eye(d)
    while np.linalg.cond(K) > 1e3:
        K = 0.3 * rng.standard_normal((d, d)) + np.eye(d)
    fields = dict(A=A, B=mat(n, m, 0.7), a=0.3 * rng.standard_normal(n),
                  C=mat(n, d, 0.4), D=mat(n, k, 0.5), H=mat(d, n, 0.8),
                  h=0.2 * rng.standard_normal(d), K=K)
    if time_varying:
        # linear drift between two endpoint values for each coefficient
        nn = steps + 1
        w = np.linspace(0.0, 1.0, nn).reshape((nn,) + (1,) * 2)
        tables = {}
        for name, v0 in fields.items():
            v0 = np.asarray(v0, dtype=float)
            v1 = v0 + 0.3 * rng.standard_normal(v0.shape)
            wgt = w if v0.ndim == 2 else w[:, :, 0]
            tables[name] = (1.0 - wgt) * v0 + wgt * v1
        # keep K safely invertible along the whole ramp
        if any(np.linalg.cond(tables["K"][i]) > 1e6 for i in range(nn)):
            return random_validated_model(rng, steps, time_varying)
    else:
        tables = _tile(fields, steps + 1)
    A, C, H, K = (tables[f] for f in "ACHK")

    # keep the filter drift A - C K^{-1} H moderate at every node so a
    # fixed-step integration cannot go stiff on an unlucky draw
    worst = max(np.linalg.norm(A[i] - C[i] @ np.linalg.solve(K[i], H[i]), 2)
                for i in range(steps + 1))
    if worst > 3.0:
        return random_validated_model(rng, steps, time_varying)

    def running_weights():
        L = 0.5 * rng.standard_normal((m, m))
        R = L @ L.T + (0.2 + rng.random()) * np.eye(m)
        S = 0.4 * rng.standard_normal((m, n))
        M = 0.5 * rng.standard_normal((n, n))
        Q = S.T @ np.linalg.solve(R, S) + M @ M.T + 0.1 * rng.random() * np.eye(n)
        return {"Q": 0.5 * (Q + Q.T), "S": S, "R": R}

    weights = running_weights()
    LG = 0.5 * rng.standard_normal((n, n))
    G = LG @ LG.T
    g = 0.3 * rng.standard_normal(n)
    # q and r after G and g: this order fixes the draws the tests rely on
    weights["q"] = 0.3 * rng.standard_normal(n)
    weights["r"] = 0.3 * rng.standard_normal(m)
    x0 = rng.standard_normal(n)
    if time_varying:
        # linear drift to a second admissible draw; [[Q, S^T], [S, R]] is
        # positive semidefinite at both ends, so at every mix of them too
        end = running_weights()
        end["q"] = 0.3 * rng.standard_normal(n)
        end["r"] = 0.3 * rng.standard_normal(m)
        w = np.linspace(0.0, 1.0, steps + 1)
        ramps = {}
        for name, v0 in weights.items():
            wgt = w.reshape((-1,) + (1,) * v0.ndim)
            ramps[name] = (1.0 - wgt) * v0 + wgt * end[name]
        tables.update(ramps)
    else:
        tables.update(_tile(weights, steps + 1))
    model = ModelSpec(Dimensions(n, m, d, k), grid, x0, **tables, G=G, g=g)
    assert validate(model).passed
    return model, grid


def traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs) under tracemalloc: its result, and the peak of
    traced memory during the call above what was traced when it began."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - before


def closed_loop_reference(model, sol, policy, dW, dWp):
    """The Euler-Maruyama closed loop stepped one node at a time in the
    order of the polqg.simulate docstring, with plain numpy:

        u_i        = policy(t_i, Xhat_i)
        X_{i+1}    = X_i + (A X_i + B u_i + a) h + C dW_i + D dW'_i
        dV_i       = H (X_i - Xhat_i) h + K dW_i
        Xhat_{i+1} = Xhat_i + (A Xhat_i + B u_i + a) h + L dV_i

    Coefficients and cost weights are the model's own node tables (its grid
    must be the solution grid), Theta and L = sol.gain come from the
    solution, and the feed-forward R^{-1}(B^T phi + r) is solved here.
    dW, dWp are (paths, N, d) and (paths, N, k).  Returns the kernel's
    outputs: X, Xhat, u, dV and the cost, a left Riemann sum of the running
    cost plus the terminal cost."""
    h = np.diff(sol.grid.nodes)
    npaths, N = dW.shape[:2]
    n, m, d = model.dims.n, model.dims.m, model.dims.d
    X = np.empty((npaths, N + 1, n))
    Xhat = np.empty((npaths, N + 1, n))
    u = np.empty((npaths, N + 1, m))
    dV = np.empty((npaths, N, d))
    X[:, 0] = Xhat[:, 0] = model.x0

    def control(i, xh):
        if policy.kind == "zero":
            return np.zeros((npaths, m))
        if policy.kind == "open_loop":
            return np.broadcast_to(policy.table[i], (npaths, m))
        ff = np.linalg.solve(model.R[i], model.B[i].T @ sol.phi[i] + model.r[i])
        uu = xh @ sol.Theta[i].T - ff
        if policy.kind == "perturbed_feedback":
            uu = uu + (policy.table if policy.table.ndim == 1 else policy.table[i])
        return uu

    for i in range(N):
        x, xh = X[:, i], Xhat[:, i]
        u[:, i] = control(i, xh)
        Bu = u[:, i] @ model.B[i].T
        X[:, i + 1] = (x + (x @ model.A[i].T + Bu + model.a[i]) * h[i]
                       + dW[:, i] @ model.C[i].T + dWp[:, i] @ model.D[i].T)
        dV[:, i] = (x - xh) @ model.H[i].T * h[i] + dW[:, i] @ model.K[i].T
        Xhat[:, i + 1] = (xh + (xh @ model.A[i].T + Bu + model.a[i]) * h[i]
                          + dV[:, i] @ sol.gain[i].T)
    u[:, N] = control(N, Xhat[:, N])

    cost = np.zeros(npaths)
    for i in range(N):
        x, uu = X[:, i], u[:, i]
        cost += h[i] * (np.einsum("pa,ab,pb->p", x, model.Q[i], x)
                        + 2.0 * np.einsum("pa,ab,pb->p", uu, model.S[i], x)
                        + np.einsum("pa,ab,pb->p", uu, model.R[i], uu)
                        + 2.0 * x @ model.q[i] + 2.0 * uu @ model.r[i])
    xT = X[:, N]
    cost += np.einsum("pa,ab,pb->p", xT, model.G, xT) + 2.0 * xT @ model.g
    return {"X": X, "Xhat": Xhat, "u": u, "dV": dV, "cost": cost}


def discrete_moments_reference(model, sol, offsets):
    """The exact law of the Euler chain of closed_loop_reference, stepped
    one node at a time in the coordinates (X, Xhat): with L = sol.gain
    and u = Theta Xhat + v, v = offset - R^{-1}(B^T phi + r),

        X_{i+1}    = (I + hA) X + hB Theta Xhat + h (a + B v) + C dW + D dW'
        Xhat_{i+1} = hLH X + (I + hA + hB Theta - hLH) Xhat + h (a + B v) + LK dW

    from X_0 = Xhat_0 = x0.  Coefficients and cost weights are the values
    of sol.table at the solution's nodes, so any grid will do.  Returns
    the expected cost under each offset (an m-vector or one per node), the
    expected cost of Xtil = X - Xhat alone, and Cov Xtil at every node;
    each cost is a left Riemann sum over the moments of X and u plus the
    terminal cost."""
    tab, grid = sol.table, sol.grid
    h = np.diff(grid.nodes)
    N, n = grid.steps, model.dims.n
    A, B, a, C, D, H, K, Q, S, R, q, r = (getattr(tab, f)[::2] for f in
                                          "A B a C D H K Q S R q r".split())
    Th, L = sol.Theta, sol.gain
    ff = [np.linalg.solve(R[i], B[i].T @ sol.phi[i] + r[i]) for i in range(N + 1)]
    # covariance blocks of (X, Xhat), the same for every offset
    Cxx, Cxh, Chh = (np.zeros((N + 1, n, n)) for _ in range(3))
    for i in range(N):
        F = np.block([[np.eye(n) + h[i] * A[i], h[i] * B[i] @ Th[i]],
                      [h[i] * L[i] @ H[i],
                       np.eye(n) + h[i] * (A[i] + B[i] @ Th[i] - L[i] @ H[i])]])
        G = np.block([[C[i], D[i]], [L[i] @ K[i], np.zeros_like(D[i])]])
        P = np.block([[Cxx[i], Cxh[i]], [Cxh[i].T, Chh[i]]])
        P = F @ P @ F.T + h[i] * G @ G.T
        Cxx[i + 1], Cxh[i + 1], Chh[i + 1] = P[:n, :n], P[:n, n:], P[n:, n:]
    Ctil = Cxx - Cxh - Cxh.transpose(0, 2, 1) + Chh
    costs = []
    for off in offsets:
        off = np.broadcast_to(off, (N + 1, model.dims.m))
        mx, mh, cost = model.x0.copy(), model.x0.copy(), 0.0
        for i in range(N):
            v = off[i] - ff[i]
            mu = Th[i] @ mh + v
            cost += h[i] * (np.trace(Q[i] @ Cxx[i]) + mx @ Q[i] @ mx
                            + 2.0 * (np.trace(S[i] @ Cxh[i] @ Th[i].T) + mu @ S[i] @ mx)
                            + np.trace(R[i] @ Th[i] @ Chh[i] @ Th[i].T) + mu @ R[i] @ mu
                            + 2.0 * (q[i] @ mx + r[i] @ mu))
            drift = h[i] * (a[i] + B[i] @ v)
            mx, mh = (mx + h[i] * (A[i] @ mx + B[i] @ Th[i] @ mh) + drift,
                      mh + h[i] * (L[i] @ H[i] @ (mx - mh) + (A[i] + B[i] @ Th[i]) @ mh)
                      + drift)
        costs.append(cost + np.trace(model.G @ Cxx[N]) + mx @ model.G @ mx
                     + 2.0 * model.g @ mx)
    tildeJ = sum(h[i] * np.trace(Q[i] @ Ctil[i]) for i in range(N))
    return np.array(costs), tildeJ + np.trace(model.G @ Ctil[N]), Ctil
