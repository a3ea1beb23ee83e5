import numpy as np
import pytest

from polqg import (
    ControlPolicy,
    InsufficientPaths,
    brownianity_report,
    compare_policies,
    decomposition_check,
    default_probe_nodes,
    draw_noise,
    expected_discrete_error_cov,
    iter_path_bundles,
    run_batch,
    simulate_closed_loop,
    simulate_statistics,
    solve_all,
)
from polqg import verify

from oracles import TOTAL, benchmark_model, random_validated_model, scalar_model

FEEDBACK = ControlPolicy("filter_feedback")


@pytest.fixture(scope="module")
def bench100():
    model, grid = benchmark_model(100)
    return model, grid, solve_all(model, grid)


@pytest.fixture(scope="module")
def any_n(bench100):
    """The scalar benchmark and two time-varying draws with n = 3 and 2,
    on which batched matrix products would depend on the batch size."""
    cases = [bench100]
    for draw in (100, 102):
        model, grid = random_validated_model(np.random.default_rng(draw),
                                             time_varying=True)
        cases.append((model, grid, solve_all(model, grid)))
    return cases


@pytest.fixture(scope="module")
def pass4000(bench100):
    model, grid, sol = bench100
    return simulate_statistics(model, sol, 4000, seed=101, probes=(100,))


@pytest.fixture(scope="module")
def batch4000(pass4000):
    return run_batch(pass4000, 100)


def test_default_probe_nodes():
    model, grid = benchmark_model(200)
    assert default_probe_nodes(grid) == (50, 100, 150, 200)


def test_run_batch_requires_two_paths(bench100):
    model, grid, sol = bench100
    with pytest.raises(InsufficientPaths):
        simulate_statistics(model, sol, 1, seed=0, probes=(0,))


def test_run_batch_probe_bounds(bench100):
    model, grid, sol = bench100
    with pytest.raises(IndexError):
        simulate_statistics(model, sol, 8, seed=0, probes=(101,))
    with pytest.raises(KeyError):
        run_batch(simulate_statistics(model, sol, 8, seed=0, probes=(50,)), 100)


def test_run_batch_chunk_invariance(any_n):
    # the same paths aggregated in different chunkings agree bitwise, in
    # every report read off the pass
    for model, grid, sol in any_n:
        pn = grid.steps // 2
        alternatives = [ControlPolicy("zero"), ControlPolicy("perturbed_feedback",
            np.full(model.dims.m, 0.5))]
        passes = [simulate_statistics(model, sol, 100, seed=5, probes=(pn,),
                                      policies=alternatives, chunk_size=cs)
                  for cs in (7, 64, 100)]
        reports = [(run_batch(st, pn), brownianity_report(st),
                    decomposition_check(st)) for st in passes]
        comparisons = [compare_policies(st) for st in passes]
        assert len(comparisons[0].rows) == 3
        for rep, comp in zip(reports[1:], comparisons[1:]):
            assert comp == comparisons[0]
            for got, want in zip(rep, reports[0]):
                for field in got.__dataclass_fields__:
                    np.testing.assert_array_equal(getattr(got, field),
                                                  getattr(want, field), field)


@pytest.mark.parametrize("chunk_size", [0, -5])
def test_chunk_size_below_one_rejected(bench100, chunk_size):
    model, grid, sol = bench100
    with pytest.raises(ValueError, match="chunk_size"):
        simulate_statistics(model, sol, 10, seed=0, chunk_size=chunk_size)
    with pytest.raises(ValueError, match="chunk_size"):
        list(iter_path_bundles(model, sol, FEEDBACK, 10, seed=0,
                               chunk_size=chunk_size))


def test_iter_path_bundles_matches_single_simulation(any_n):
    for model, grid, sol in any_n:
        bundles = list(iter_path_bundles(model, sol, FEEDBACK, 6, seed=17,
                                         chunk_size=4))
        assert len(bundles) == 6
        for j in (0, 3, 5):
            single = simulate_closed_loop(model, sol, FEEDBACK,
                                          draw_noise(17, j, grid, model.dims))
            for field in ("X", "Y", "Xhat", "Xtil", "V", "u"):
                np.testing.assert_array_equal(getattr(bundles[j], field),
                                              getattr(single, field), field)
            assert bundles[j].cost == single.cost


def test_se_shrinks_like_sqrt_n(bench100):
    model, grid, sol = bench100
    small, large = (
        compare_policies(simulate_statistics(model, sol, n, seed=1))
        .row("filter_feedback") for n in (400, 6400))
    ratio = large.cost_se / small.cost_se
    assert 0.20 <= ratio <= 0.31  # ideal 0.25


def test_cost_mean_near_analytic_value(pass4000):
    row = compare_policies(pass4000).row("filter_feedback")
    value = pass4000.analytic_value
    # the Euler bias at steps=100 is well under 0.1 for this model
    assert abs(row.cost_mean - value) <= 3.0 * row.cost_se + 0.1
    assert abs(value - TOTAL) < 1e-3


def test_error_covariance_matches_discrete_chain(bench100, batch4000):
    model, grid, sol = bench100
    rep = batch4000
    chain = expected_discrete_error_cov(model, sol)[rep.probe_node]
    assert (np.abs(rep.emp_error_cov - chain)
            <= 3.5 * rep.emp_error_cov_se + 1e-12).all()


def test_orthogonality(batch4000):
    rep = batch4000
    assert abs(rep.orth_stat) <= 3.5 * rep.orth_se


def test_innovation_statistics(pass4000):
    rep = brownianity_report(pass4000)
    model, grid = benchmark_model(100)
    n_obs = pass4000.n_paths * grid.steps
    assert np.abs(rep.increment_mean).max() <= 3.5 * np.sqrt(grid.h / n_obs)
    assert abs(rep.qv_ratio - 1.0) <= 4.0 * np.sqrt(2.0 / n_obs)


# ----------------------------------------------------------------- policies

def test_compare_policies_rows(bench100):
    model, grid, sol = bench100
    comp = compare_policies(simulate_statistics(
        model, sol, 600, seed=23,
        policies=[ControlPolicy("zero"),
                  ControlPolicy("perturbed_feedback", np.zeros(1), label="same")]))
    means = [r.cost_mean for r in comp.rows]
    assert means == sorted(means)
    assert comp.row("filter_feedback").excess_mean is None
    # zero offset reproduces the baseline under common random numbers
    same = comp.row("same")
    assert same.excess_mean == 0.0 and same.excess_se == 0.0
    assert comp.row("zero").excess_mean > 0.0


def test_compare_policies_zero_control_strictly_worse(bench100):
    model, grid, sol = bench100
    comp = compare_policies(simulate_statistics(
        model, sol, 2000, seed=29, policies=[ControlPolicy("zero")]))
    zero = comp.row("zero")
    assert zero.excess_mean >= 2.0 * zero.excess_se
    assert comp.rows[0].label == "filter_feedback"


def test_compare_policies_duplicate_labels(bench100):
    model, grid, sol = bench100
    # feedback always runs, so an extra policy may not take its label
    with pytest.raises(ValueError):
        simulate_statistics(model, sol, 10, seed=0, policies=[FEEDBACK])
    with pytest.raises(ValueError):
        simulate_statistics(model, sol, 10, seed=0,
                            policies=[ControlPolicy("zero")] * 2)
    with pytest.raises(InsufficientPaths):
        simulate_statistics(model, sol, 1, seed=0,
                            policies=[ControlPolicy("zero")])


# --------------------------------------------------------------- brownianity

def test_brownianity_real_noise(bench100):
    model, grid, sol = bench100
    rep = brownianity_report(simulate_statistics(model, sol, 400, seed=41))
    # iid N(0, h) increments: SE of the pooled mean is sqrt(h / (n N))
    se = np.sqrt(grid.h / (400 * grid.steps))
    assert np.abs(rep.increment_mean).max() <= 3.5 * se
    assert abs(rep.qv_ratio - 1.0) <= 0.05
    assert np.abs(rep.lag1_autocorr).max() <= rep.lag1_band
    assert (np.abs(rep.terminal_var - grid.T) <= 3.5 * rep.terminal_var_se).all()


def test_brownianity_normalizes_by_K():
    # K = 2 gives the innovation increments variance 4h; only K^{-1} dV has
    # the quadratic variation and terminal variance of a Brownian motion
    model, grid = scalar_model(K=2.0, steps=100)
    rep = brownianity_report(simulate_statistics(model, solve_all(model, grid),
                                                 1000, seed=43))
    assert abs(rep.qv_ratio - 1.0) <= 4.0 * np.sqrt(2.0 / (1000 * grid.steps))
    assert (np.abs(rep.terminal_var - grid.T) <= 3.5 * rep.terminal_var_se).all()


def test_brownianity_zero_noise_degenerates_cleanly(bench100, monkeypatch):
    model, grid, sol = bench100

    def zero_noise(seed, j0, j1, grid, dims):
        return (np.zeros((j1 - j0, grid.steps, dims.d)),
                np.zeros((j1 - j0, grid.steps, dims.k)))

    # the pass draws its increments through the module's _noise_stack
    monkeypatch.setattr(verify, "_noise_stack", zero_noise)
    rep = brownianity_report(simulate_statistics(model, sol, 3, seed=0))
    assert (rep.increment_mean == 0.0).all()
    assert rep.qv_ratio == 0.0
    assert (rep.lag1_autocorr == 0.0).all()
    assert (rep.terminal_var == 0.0).all()
    assert np.isfinite(rep.lag1_band)


def test_brownianity_requires_two_paths(bench100):
    model, grid, sol = bench100
    with pytest.raises(InsufficientPaths):
        brownianity_report(simulate_statistics(model, sol, 1, seed=0))


# ------------------------------------------------------------- decomposition

def test_decomposition_cross_terms_vanish(bench100):
    model, grid, sol = bench100
    stats = simulate_statistics(model, sol, 2000, seed=47)
    rep = decomposition_check(stats)
    assert abs(rep.cross_mean) <= 3.5 * rep.cross_se
    assert abs(rep.tildeJ_mean - stats.tildeJ_analytic) <= (
        3.5 * rep.tildeJ_se + 0.05)
    cost_mean = stats.costs["filter_feedback"].mean()
    assert abs(stats.hatJ.mean() + rep.tildeJ_mean - cost_mean) <= (
        3.5 * rep.cross_se + 1e-12)


def test_decomposition_random_model():
    rng = np.random.default_rng(53)
    model, grid = random_validated_model(rng, steps=80)
    sol = solve_all(model, grid)
    rep = decomposition_check(simulate_statistics(model, sol, 1500, seed=59))
    assert abs(rep.cross_mean) <= 4.0 * rep.cross_se + 1e-10


# ------------------------------------------------------- discrete cov oracle

def test_discrete_cov_zero_at_start_and_psd(bench100):
    model, grid, sol = bench100
    chain = expected_discrete_error_cov(model, sol)
    assert (chain[0] == 0.0).all()
    assert (chain[:, 0, 0] >= 0.0).all()


def test_discrete_cov_converges_to_Sigma_first_order():
    gaps = {}
    for steps in (50, 100):
        model, grid = benchmark_model(steps)
        sol = solve_all(model, grid)
        chain = expected_discrete_error_cov(model, sol)
        gaps[steps] = abs(chain[-1, 0, 0] - sol.Sigma[-1, 0, 0])
    assert 1.6 <= gaps[50] / gaps[100] <= 2.4


def test_discrete_cov_matches_empirical_on_coarse_grid():
    # on a coarse grid the chain covariance differs visibly from Sigma,
    # and the empirical covariance follows the chain, not Sigma
    model, grid = benchmark_model(20)
    sol = solve_all(model, grid)
    rep = run_batch(simulate_statistics(model, sol, 4000, seed=61,
                                        probes=(grid.steps,)), grid.steps)
    chain = expected_discrete_error_cov(model, sol)[-1]
    assert (np.abs(rep.emp_error_cov - chain)
            <= 3.5 * rep.emp_error_cov_se).all()
    gap = abs(chain[0, 0] - sol.Sigma[-1, 0, 0])
    if gap > 6.0 * rep.emp_error_cov_se[0, 0]:
        assert (np.abs(rep.emp_error_cov - sol.Sigma[-1])
                > 3.0 * rep.emp_error_cov_se).any()
