"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each test prints one `ACCEPTANCE Cn PASS|FAIL` line (run with ``pytest -s``
to see them all) and then asserts, so a red criterion is both visible and
fatal.  Stated runtime budgets are asserted alongside the numerics.
"""

import time

import numpy as np
import pytest

import epictrl as ec
from epictrl import cli
from epictrl.control import _switching_arrays
from epictrl.model import A, D, E, I, S


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE C{num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def zero_controls(grid, params):
    return ec.ControlSignal.constant(grid.times, 0.0, 0.0, params.v_max)


@pytest.fixture(scope="module")
def uncontrolled_run(covid19):
    params, initial = covid19
    grid = ec.TimeGrid(35.0, 0.01)
    return ec.integrate_forward(initial, zero_controls(grid, params), params, grid)


def random_valid_setup(rng):
    """One admissible model/state/control/schedule draw."""
    n = int(rng.integers(2, 5))
    gamma = np.sort(rng.uniform(0.1, 1.0, size=n))[::-1]
    delta = np.sort(rng.uniform(0.0, 0.02, size=n))[::-1]
    delta = np.minimum(delta, gamma)
    params = ec.ModelParams(
        beta=float(rng.uniform(0.0, 6e-4)),
        epsilon=float(rng.uniform(0.0, 1.0)),
        q=float(rng.uniform(0.0, 1.0)),
        mu=float(rng.uniform(0.0, 1.0)),
        k=float(rng.uniform(0.0, 1.0)),
        z=float(rng.uniform(0.0, 1.0)),
        p=float(rng.uniform(0.0, 1.0)),
        eta=float(rng.uniform(0.0, 1.0)),
        alpha=float(rng.uniform(0.0, 1.0)),
        f=float(rng.uniform(0.0, 1.0)),
        gamma=tuple(gamma),
        delta=tuple(delta),
    )
    pools = rng.uniform(0.0, 2500.0, size=4)
    doses = rng.uniform(0.0, 500.0, size=n)
    initial = ec.StateVector(pools[0], pools[1], pools[2], pools[3], 0.0, 0.0, tuple(doses))
    grid = ec.TimeGrid(35.0, 0.01)
    controls = ec.ControlSignal.constant(
        grid.times, float(rng.uniform(0.0, params.v_max)), float(rng.uniform(0.0, 1.0)), params.v_max
    )
    schedule = None
    if rng.uniform() < 0.5:
        count = int(rng.integers(1, 4))
        nodes = np.sort(rng.choice(np.arange(1, grid.n_steps), size=count, replace=False))
        schedule = ec.ImpulseSchedule(
            tuple(
                ec.ImpulseEvent(float(node * grid.h), tuple(rng.uniform(0.0, 0.3, size=4)))
                for node in nodes
            )
        )
    return params, initial, grid, controls, schedule


def test_c01_positivity_and_conservation(rng):
    start = time.perf_counter()
    worst_neg = 0.0
    worst_drift = 0.0
    for _ in range(200):
        params, initial, grid, controls, schedule = random_valid_setup(rng)
        n0 = ec.total_population(initial)
        traj = ec.integrate_forward(initial, controls, params, grid, schedule)
        floor = traj.states_post.min()
        worst_neg = min(worst_neg, floor / max(n0, 1.0))
        assert floor >= -1e-9 * n0
        if schedule is None and n0 > 0:
            sink = traj.population() + traj.states_post[:, D]
            worst_drift = max(worst_drift, float(np.max(np.abs(sink - n0)) / n0))
    elapsed = time.perf_counter() - start
    ok = worst_neg >= -1e-9 and worst_drift < 1e-6 and elapsed < 60.0
    report(
        1,
        ok,
        f"200 random runs: min compartment {worst_neg:.2e}*N0, "
        f"max (N+D) drift {worst_drift:.2e} rel, {elapsed:.1f}s (< 60s)",
    )
    assert worst_drift < 1e-6
    assert elapsed < 60.0


def test_c02_impulsive_population_bound(covid19, rng):
    params, initial = covid19
    n0 = ec.total_population(initial)
    worst_excess = -np.inf
    for trial in range(20):
        grid = ec.TimeGrid(35.0, 0.01)
        count = int(rng.integers(1, 5))
        nodes = np.sort(rng.choice(np.arange(1, grid.n_steps), size=count, replace=False))
        schedule = ec.ImpulseSchedule(
            tuple(
                ec.ImpulseEvent(float(node * grid.h), tuple(rng.uniform(0.0, 1.0, size=4)))
                for node in nodes
            )
        )
        controls = ec.ControlSignal.constant(
            grid.times, float(rng.uniform(0, params.v_max)), float(rng.uniform(0, 1)), params.v_max
        )
        traj = ec.integrate_forward(initial, controls, params, grid, schedule)
        n_pre = traj.population("pre")
        n_post = traj.population("post")
        jumps = sum(n_post[idx] - n_pre[idx] for idx in traj.impulse_nodes)
        bound = n0 + jumps + 1e-6 * n0
        worst_excess = max(worst_excess, float(n_post.max() - bound))
        assert n_post.max() <= bound
        assert n_pre.max() <= bound
    report(2, True, f"20 random schedules: worst N(t) excess over bound {worst_excess:.2e}")


def test_c03_adjoint_gradient_vs_finite_differences(covid19, default_weights, rng):
    start = time.perf_counter()
    params, initial = covid19
    grid = ec.TimeGrid(35.0, 0.01)
    controls = ec.ControlSignal.constant(grid.times, 0.5 * params.v_max, 0.5, params.v_max)
    worst = 0.0
    for which in ("u", "v"):
        for cell in rng.integers(1, grid.n_steps, size=10):
            fd = ec.finite_difference_gradient(
                initial, params, default_weights, controls, grid, int(cell), 1e-3, which
            )
            ad = ec.adjoint_gradient(
                initial, params, default_weights, controls, grid, int(cell), which
            )
            worst = max(worst, abs(fd - ad) / abs(ad))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3 and elapsed < 30.0
    report(3, ok, f"20 cells: worst relative gap {worst:.2e} (< 1e-3), {elapsed:.1f}s (< 30s)")
    assert worst < 1e-3
    assert elapsed < 30.0


def test_c04_brute_force_dominance(covid19, default_weights):
    start = time.perf_counter()
    params, initial = covid19
    oracle_cfg = ec.OracleConfig(horizon=5.0, segments=5, u_levels=3, v_levels=3)
    best_j, _ = ec.brute_force_optimum(initial, params, default_weights, oracle_cfg)
    grid = ec.TimeGrid(5.0, 0.01)
    sol = ec.fbsm_solve(initial, params, default_weights, grid)
    elapsed = time.perf_counter() - start
    ok = sol.cost <= 1.05 * best_j and elapsed < 120.0
    report(
        4,
        ok,
        f"sweep J={sol.cost:.1f} vs brute-force optimum J={best_j:.1f} "
        f"(ratio {sol.cost / best_j:.4f} <= 1.05), {elapsed:.1f}s (< 120s)",
    )
    assert sol.converged
    assert sol.cost <= 1.05 * best_j
    assert elapsed < 120.0


def test_same_grid_dominance(covid19, default_weights):
    # C04's search, at 7 segments and the sweep's own step, bites where the 1.05 slack does not:
    # a sweep stopped after 10 iterations reads 1.00034 of this optimum
    params, initial = covid19
    oracle_cfg = ec.OracleConfig(horizon=5.0, segments=7, u_levels=3, v_levels=3, h=0.01)
    best_j, _ = ec.brute_force_optimum(initial, params, default_weights, oracle_cfg)
    sol = ec.fbsm_solve(initial, params, default_weights, ec.TimeGrid(5.0, 0.01))
    assert sol.cost <= best_j, (
        f"sweep J={sol.cost:.4f} above the 7-segment optimum J={best_j:.4f}; piecewise-constant "
        "controls are not the sweep's nodal controls, so J <= optimum is a measured margin "
        "(3.56 at 20788.0883 vs 20791.6531), not a theorem"
    )


def test_c05_stationarity_at_convergence(covid19, default_weights, default_solution):
    params, _ = covid19
    sol = default_solution
    u = sol.controls.u
    v = sol.controls.v
    u_raw, v_raw = _switching_arrays(
        sol.state_traj.states_post, sol.adjoint_traj.values_post, params, default_weights
    )
    gain = default_weights.vaccination_gain(params)
    band = 1e-4  # matches the sweep's relative control tolerance
    interior_u = (u > band) & (u < 1.0 - band)
    interior_v = (v > band * params.v_max) & (v < params.v_max * (1.0 - band))
    ok_u = np.abs(u - u_raw)[interior_u] * default_weights.sigma0 <= 1e-3 * default_weights.sigma0
    ok_v = np.abs(v - v_raw)[interior_v] * gain <= 1e-3 * gain
    frac_u = float(np.mean(ok_u))
    frac_v = float(np.mean(ok_v))
    ok = frac_u >= 0.95 and frac_v >= 0.95
    report(
        5,
        ok,
        f"stationarity holds at {100 * frac_u:.1f}% of {int(interior_u.sum())} interior u-nodes "
        f"and {100 * frac_v:.1f}% of {int(interior_v.sum())} interior v-nodes (>= 95%)",
    )
    assert frac_u >= 0.95
    assert frac_v >= 0.95


def test_c06_controlled_vs_uncontrolled_deaths(uncontrolled_run, default_solution):
    d_free = float(uncontrolled_run.states_post[-1, D])
    d_ctrl = float(default_solution.state_traj.states_post[-1, D])
    ok = d_free > 40.0 and d_ctrl < 8.0
    report(6, ok, f"deaths by day 35: uncontrolled {d_free:.1f} (> 40), controlled {d_ctrl:.2f} (< 8)")
    assert d_free > 40.0
    assert d_ctrl < 8.0


def test_c07_susceptible_collapse(covid19, uncontrolled_run, default_solution):
    _, initial = covid19
    threshold = 0.01 * initial.S
    grid = ec.TimeGrid(35.0, 0.01)
    day7 = grid.node_index(7.0)
    s_day7 = float(default_solution.state_traj.states_post[day7, S])
    s_free_end = float(uncontrolled_run.states_post[-1, S])
    controlled_ok = s_day7 < threshold
    flag = ""
    if s_free_end <= threshold:
        flag = (
            f"; flagged: uncontrolled S(35)={s_free_end:.3g} also fell below 1% "
            f"(burnout at this transmission level)"
        )
    report(7, controlled_ok, f"controlled S(7)={s_day7:.3g} < {threshold:.0f}{flag}")
    assert controlled_ok


def test_c08_vaccination_uptake(covid19, default_solution):
    _, initial = covid19
    n0 = ec.total_population(initial)
    share = float(default_solution.state_traj.states_post[-1, -1]) / n0
    ok = 0.60 <= share <= 0.90
    report(
        8,
        ok,
        f"two-dose share V2(35)/N0 = {share:.4f} (required within [0.60, 0.90]; "
        f"the dose-rate cap bounds it near 0.53 for this transmission level, "
        f"so the band cannot be met by any admissible control)",
    )
    assert 0.60 <= share <= 0.90


def test_c09_long_horizon_decay(covid19):
    params, initial = covid19
    grid = ec.TimeGrid(100.0, 0.01)
    controls = ec.ControlSignal.constant(grid.times, params.v_max, 1.0, params.v_max)
    traj = ec.integrate_forward(initial, controls, params, grid)
    states = traj.states_post
    tail = states[-1]
    last_day = grid.node_index(99.0)
    dr = abs(states[-1, 4] - states[last_day, 4])
    dd = abs(states[-1, D] - states[last_day, D])
    ok = max(tail[E], tail[A], tail[I]) < 1e-3 and dr < 1e-3 and dd < 1e-3
    report(
        9,
        ok,
        f"day 100 under full effort: E={tail[E]:.1e}, A={tail[A]:.1e}, I={tail[I]:.1e} (< 1e-3); "
        f"last-day dR={dr:.1e}, dD={dd:.1e} (< 1e-3)",
    )
    assert max(tail[E], tail[A], tail[I]) < 1e-3
    assert dr < 1e-3 and dd < 1e-3


def test_c10_reproduction_number_and_disclosure(covid19, capsys, tmp_path):
    params, initial = covid19
    value = ec.basic_reproduction_number(params, ec.total_population(initial))
    expected = 5e-4 * 1e4 * (0.1 / (0.995 * 0.3) + 1.0 * 0.9 / 0.3)
    config = ec.default_config("covid19")
    path = tmp_path / "c.json"
    ec.save_config(config, str(path))
    assert cli.main(["r0", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    disclosed = "1.52" in out and f"{value:.12g}" in out
    ok = abs(value - expected) <= 1e-9 and disclosed
    report(10, ok, f"R0 = {value:.12g} (formula, +-1e-9) with the 1.52 literature gap disclosed")
    assert abs(value - expected) <= 1e-9
    assert abs(value - 16.6750418760469) <= 1e-9
    assert disclosed


def test_c11_convergence_order(covid19):
    params, initial = covid19
    states = {}
    for h in (0.02, 0.01, 0.005):
        grid = ec.TimeGrid(35.0, h)
        states[h] = ec.integrate_forward(
            initial, zero_controls(grid, params), params, grid
        ).states_post
    d_coarse = np.max(np.abs(states[0.02] - states[0.01][::2]))
    d_fine = np.max(np.abs(states[0.01][::2] - states[0.005][::4]))
    ratio = d_coarse / d_fine
    ok = 12.0 <= ratio <= 20.0
    report(11, ok, f"step-halving error ratio {ratio:.2f} within [12, 20]")
    assert 12.0 <= ratio <= 20.0


def test_c12_deterministic_outputs(tmp_path):
    config_path = str(tmp_path / "covid19.json")
    ec.save_config(ec.default_config("covid19"), config_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["optimize", "--config", config_path, "--out", str(out_a)]) == 0
    assert cli.main(["optimize", "--config", config_path, "--out", str(out_b)]) == 0
    files = ("trajectory.csv", "controls.csv", "adjoints.csv", "summary.json")
    same = all((out_a / f).read_bytes() == (out_b / f).read_bytes() for f in files)
    report(12, same, "two default optimize runs produced byte-identical CSV/JSON outputs")
    assert same
