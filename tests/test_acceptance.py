"""Acceptance suite: ten numbered criteria, one printed pass/fail line each.

Every statistical criterion runs on frozen seeds, so the whole suite is
deterministic.  Monte Carlo targets get 3-standard-error bands plus, where
an Euler bias enters, a step-halving allowance measured on a grid with
twice the steps.  The pass/fail lines are written to the real stdout so
they stay visible under pytest's capture.
"""

import sys
import time

import numpy as np
import pytest

from polqg import (
    ControlPolicy,
    brownianity_report,
    compare_policies,
    draw_noise,
    expected_discrete_error_cov,
    hat_J_floor,
    NodeTable,
    NoiseDraw,
    optimal_value,
    run_batch,
    simulate_closed_loop,
    simulate_error_direct,
    simulate_statistics,
    solve_all,
    solve_P,
    solve_Sigma,
    tilde_J,
    validate,
)

from oracles import benchmark_model, random_validated_model

SEED = 20260
N_PATHS = 20000
FEEDBACK = ControlPolicy("filter_feedback")
PERTURBED = ControlPolicy("perturbed_feedback", np.array([0.5]))


def report(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def bench400():
    model, grid = benchmark_model(400)
    return model, grid, solve_all(model, grid)


@pytest.fixture(scope="module")
def bench800():
    model, grid = benchmark_model(800)
    return model, grid, solve_all(model, grid)


@pytest.fixture(scope="module")
def mc_passes(bench400, bench800):
    """One timed 20000-path pass per grid (fine and halved step).  Both
    run the perturbed feedback beside the filter feedback; the fine one
    also runs the zero control and records every probe node."""
    model4, _, sol4 = bench400
    model8, _, sol8 = bench800
    t0 = time.perf_counter()
    st4 = simulate_statistics(model4, sol4, N_PATHS, SEED,
                              probes=(100, 200, 300, 400),
                              policies=[ControlPolicy("zero"), PERTURBED])
    st8 = simulate_statistics(model8, sol8, N_PATHS, SEED,
                              policies=[PERTURBED])
    elapsed = time.perf_counter() - t0
    return st4, st8, elapsed


@pytest.fixture(scope="module")
def probe_reports(mc_passes):
    return {pn: run_batch(mc_passes[0], pn) for pn in (100, 200, 300, 400)}


def test_criterion_01_deterministic_solver_accuracy():
    model, grid = benchmark_model(1000)
    t0 = time.perf_counter()
    tab = NodeTable.build(model, grid)
    P = solve_P(tab)
    Sigma = solve_Sigma(tab)
    elapsed = time.perf_counter() - t0
    errP = abs(P[0, 0, 0] - np.tanh(1.0))
    errS = float(np.abs(Sigma[:, 0, 0] - np.tanh(grid.nodes)).max())
    ok = errP <= 1e-8 and errS <= 1e-8 and elapsed < 1.0
    report(1, ok, f"steps=1000 P(0) err {errP:.2e}, max Sigma err {errS:.2e}, "
                  f"{elapsed:.2f}s")


def test_criterion_02_solver_is_fourth_order():
    errs = {}
    for steps in (100, 200):
        model, grid = benchmark_model(steps)
        P = solve_P(NodeTable.build(model, grid))
        errs[steps] = abs(P[0, 0, 0] - np.tanh(1.0))
    ratio = errs[100] / errs[200]
    report(2, ratio >= 12.0,
           f"P(0) error ratio steps 100/200 = {ratio:.1f} (>= 12 expected)")


def test_criterion_03_filter_error_identity(bench400):
    model, grid, sol = bench400
    t0 = time.perf_counter()
    worst = 0.0
    for j in range(100):
        noise = draw_noise(SEED, j, grid, model.dims)
        bundle = simulate_closed_loop(model, sol, FEEDBACK, noise)
        direct = simulate_error_direct(model, sol, noise)
        scale = 1.0 + float(np.abs(bundle.X).max())
        worst = max(worst, float(np.abs(bundle.Xtil - direct).max()) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    report(3, ok, f"100 paths, worst relative gap {worst:.2e} "
                  f"(<= 1e-10), {elapsed:.2f}s")


def test_criterion_04_realized_cost_matches_value(mc_passes):
    st4, st8, elapsed = mc_passes
    rep4, rep8 = (compare_policies(st).row("filter_feedback")
                  for st in (st4, st8))
    total = st4.analytic_value
    C_h = 2.0 * abs(rep4.cost_mean - rep8.cost_mean)
    gap = abs(rep4.cost_mean - total)
    band = 3.0 * rep4.cost_se + C_h
    extrap = 2.0 * rep8.cost_mean - rep4.cost_mean
    se_x = np.sqrt(4.0 * rep8.cost_se ** 2 + rep4.cost_se ** 2)
    ok = (gap <= band
          and abs(extrap - total) <= 3.0 * se_x
          and elapsed < 120.0)
    report(4, ok,
           f"cost {rep4.cost_mean:.5f}+-{rep4.cost_se:.5f} vs value "
           f"{total:.5f}, gap {gap:.5f} <= {band:.5f}; extrapolated "
           f"{extrap:.5f} within {3.0 * se_x:.5f}; {elapsed:.1f}s")


def test_criterion_05_error_covariance_matches_Sigma(bench400, probe_reports):
    model, grid, sol = bench400
    chain = expected_discrete_error_cov(model, sol)
    worst_ratio, detail = 0.0, []
    for pn in (100, 200, 300, 400):
        rep = probe_reports[pn]
        gap = np.abs(rep.emp_error_cov - sol.Sigma[pn])
        allow = (3.0 * rep.emp_error_cov_se
                 + np.abs(chain[pn] - sol.Sigma[pn]) + 1e-12)
        worst_ratio = max(worst_ratio, float((gap / allow).max()))
        detail.append(f"t={grid.nodes[pn]:.2f}:{float(gap.max()):.4f}")
    report(5, worst_ratio <= 1.0,
           "per-probe |emp cov - Sigma| " + ", ".join(detail)
           + f"; worst gap/band {worst_ratio:.2f} (<= 1)")


def test_criterion_06_error_orthogonal_to_filter(probe_reports):
    worst, detail = 0.0, []
    for pn in (100, 200, 300, 400):
        rep = probe_reports[pn]
        ratio = abs(rep.orth_stat) / (3.0 * rep.orth_se)
        worst = max(worst, ratio)
        detail.append(f"node {pn}: {rep.orth_stat:+.5f}")
    report(6, worst <= 1.0,
           "<Xtil, Xhat> " + ", ".join(detail)
           + f"; worst |stat|/3se {worst:.2f} (<= 1)")


def test_criterion_07_innovation_is_brownian(bench400, mc_passes):
    model, grid, sol = bench400
    br = brownianity_report(mc_passes[0])
    tv_gap = float(np.abs(br.terminal_var - grid.T).max())
    tv_band = float(3.0 * br.terminal_var_se.max())
    lag = float(np.abs(br.lag1_autocorr).max())
    ok = tv_gap <= tv_band and lag <= br.lag1_band
    report(7, ok,
           f"Vcheck(T) var {float(br.terminal_var[0]):.5f} (T=1, band "
           f"{tv_band:.5f}); lag-1 {lag:.2e} (band {br.lag1_band:.2e})")


def test_criterion_08_feedback_beats_alternatives(mc_passes):
    comp4, comp8 = (compare_policies(st) for st in mc_passes[:2])
    pert4, pert8 = (c.row("perturbed_feedback") for c in (comp4, comp8))
    # int <R eps, eps> dt with R = 1, eps = 0.5, T = 1
    pred = 0.25
    C_h = 2.0 * abs(pert4.excess_mean - pert8.excess_mean)
    band = 3.0 * pert4.excess_se + C_h
    zero = comp4.row("zero")
    fb_row = comp4.row("filter_feedback")
    combined_se = max(zero.excess_se,
                      np.hypot(zero.cost_se, fb_row.cost_se))
    ok = (abs(pert4.excess_mean - pred) <= band
          and zero.excess_mean >= 2.0 * combined_se
          and comp4.rows[0].label == "filter_feedback")
    report(8, ok,
           f"perturbation excess {pert4.excess_mean:.5f}+-"
           f"{pert4.excess_se:.5f} vs {pred} (band {band:.5f}); zero-control "
           f"excess {zero.excess_mean:.5f} >= {2.0 * combined_se:.5f}")


def test_criterion_09_value_decomposition_identity():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for i in range(50):
        model, grid = random_validated_model(rng, steps=60,
                                             time_varying=(i % 5 == 0))
        assert validate(model).passed
        sol = solve_all(model, grid)
        total = optimal_value(model, sol).total
        gap = abs(hat_J_floor(model, sol) + tilde_J(model, sol) - total)
        worst = max(worst, gap / (1.0 + abs(total)))
    report(9, worst <= 1e-10,
           f"50 random models, worst relative identity gap {worst:.2e} "
           f"(<= 1e-10)")


def test_criterion_10_degenerate_noise_cases():
    model, grid = benchmark_model(200, D=0.0)
    sol = solve_all(model, grid)
    sig_max = float(np.abs(sol.Sigma).max())
    tj = tilde_J(model, sol)

    model1, grid1 = benchmark_model(200)
    sol1 = solve_all(model1, grid1)
    quiet = NoiseDraw(grid1, np.zeros((grid1.steps, 1)),
                      np.zeros((grid1.steps, 1)))
    bundle = simulate_closed_loop(model1, sol1, FEEDBACK, quiet)
    tracks = bool((bundle.X == bundle.Xhat).all()
                  and (bundle.V == 0.0).all())
    ok = sig_max <= 1e-14 and tj == 0.0 and tracks
    report(10, ok,
           f"D=0: max|Sigma| {sig_max:.1e}, tilde_J {tj!r}; zero-noise run "
           f"tracks exactly: {tracks}")
