import dataclasses
import functools
import hashlib
import logging
import math
import operator
import pathlib
import runpy
import shutil
import types

import numpy as np
import pytest

import epictrl as ec
from epictrl.control import (
    OptimalSolution,
    _hamiltonian,
    _running_cost_arrays,
    _switching_arrays,
    _truncated_schedule,
    fbsm_solve,
    transversality_residual,
)
from epictrl import cli, control, native
from epictrl.errors import RangeError
from epictrl.integrator import TimeGrid
from epictrl.model import I
from test_integrator import _bitwise_equal, _random_draw, needs_cc

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _clamped(states, adjoints, params, weights):
    """The PMP controls: the raw ``_switching_arrays`` clipped into their boxes."""
    u_raw, v_raw = _switching_arrays(states, adjoints, params, weights)
    return np.clip(u_raw, 0.0, 1.0), np.clip(v_raw, 0.0, params.v_max)


def zero_controls(grid, params):
    return ec.ControlSignal.constant(grid.times, 0.0, 0.0, params.v_max)


def _ref_total_cost(traj, controls, weights, params):
    """``total_cost`` with the running cost evaluated on the post rows and again on the pre rows."""
    times = traj.node_times
    v_n, u_n = controls.at(times)
    g_left = _running_cost_arrays(traj.states_post[:-1].T, u_n[:-1], v_n[:-1], weights, params)
    g_right = _running_cost_arrays(traj.states_pre[1:].T, u_n[1:], v_n[1:], weights, params)
    terminal = weights.terminal.value(float(times[-1]))
    return float(np.sum(0.5 * np.diff(times) * (g_left + g_right)) + terminal)


def _assert_the_pass_before(sol, before):
    """``sol`` ended unconverged with the pass before one that failed: finite, and bitwise ``before``,
    the same sweep capped at that pass."""
    assert not sol.converged and sol.iterations == before.iterations
    for got, want in (
        (sol.controls.u, before.controls.u),
        (sol.controls.v, before.controls.v),
        (sol.controls.midpoints, before.controls.midpoints),
        (sol.state_traj.states_pre, before.state_traj.states_pre),
        (sol.state_traj.states_post, before.state_traj.states_post),
        (sol.adjoint_traj.values_pre, before.adjoint_traj.values_pre),
        (sol.adjoint_traj.values_post, before.adjoint_traj.values_post),
        (sol.cost_history, before.cost_history),
    ):
        assert _bitwise_equal(got, want) and np.isfinite(got).all()


def solve_small(params, initial, weights, tau=5.0, h=0.01, schedule=None, **opts):
    grid = ec.TimeGrid(tau, h)
    options = ec.SweepOptions(**opts) if opts else None
    return ec.fbsm_solve(initial, params, weights, grid, schedule, options)


class TestTerminalCost:
    def test_shapes_and_slopes(self):
        lin = ec.TerminalCost("linear", 3.0)
        quad = ec.TerminalCost("quadratic", 2.0)
        expo = ec.TerminalCost("exponential", 1.5, rate=0.2)
        assert lin.value(4.0) == 12.0 and lin.slope(4.0) == 3.0
        assert quad.value(3.0) == 18.0 and quad.slope(3.0) == 12.0
        assert expo.value(0.0) == 0.0
        assert expo.slope(2.0) == pytest.approx(1.5 * 0.2 * np.exp(0.4))

    def test_rejects_unknown_kind_and_bad_rate(self):
        with pytest.raises(ValueError):
            ec.TerminalCost("cubic", 1.0)
        with pytest.raises(ValueError):
            ec.TerminalCost("exponential", 1.0, rate=0.0)
        # one rate rule for every kind, as config files have always had it
        with pytest.raises(ValueError):
            ec.TerminalCost("quadratic", 1.0, rate=-1.0)


    def test_rejects_negative_coeff(self):
        with pytest.raises(ValueError, match="coeff: -1.0 below minimum 0.0"):
            ec.TerminalCost("linear", -1.0)


class TestCostWeights:
    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            ec.CostWeights(omega=(1, 1, 1))
        with pytest.raises(ValueError):
            ec.CostWeights(omega=(1, 1, 1, -1))
        with pytest.raises(ValueError):
            ec.CostWeights(sigma0=0.0)
        with pytest.raises(ValueError, match="sigma: negative entry"):
            ec.CostWeights(sigma=(50.0, -1.0))

    def test_vaccination_gain(self, covid19):
        params, _ = covid19
        w = ec.CostWeights(sigma=(50, 50))
        assert w.vaccination_gain(params) == pytest.approx(100.0)
        with pytest.raises(ValueError):
            ec.CostWeights(sigma=(50,)).vaccination_gain(params)


class TestSweepOptions:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(theta=0.0),
            dict(theta=1.5),
            dict(tolerance=float("nan")),
            dict(max_iterations=0),
            dict(max_iterations=2.5),
        ],
    )
    def test_rejected_on_construction(self, bad):
        # not first inside the sweep's backward pass
        with pytest.raises(ValueError):
            ec.SweepOptions(**bad)


class TestRunningCost:
    def test_zero_state_zero_controls(self, covid19, default_weights):
        params, _ = covid19
        zero = ec.StateVector(0, 0, 0, 0, 0, 0, (0, 0))
        assert _running_cost_arrays(zero.as_array(), 0.0, 0.0, default_weights, params) == 0.0

    def test_pure_state_cost(self, covid19):
        params, _ = covid19
        w = ec.CostWeights(omega=(1, 1, 1, 1))
        state = ec.StateVector(1, 1, 1, 1, 0, 0, (0, 0))
        assert _running_cost_arrays(state.as_array(), 0.0, 0.0, w, params) == pytest.approx(4.0)

    def test_treatment_effort_cost(self, covid19):
        # sigma0*u^2/2 with sigma0=50, u=1
        params, _ = covid19
        w = ec.CostWeights(omega=(0, 0, 0, 0), sigma0=50.0)
        zero = ec.StateVector(0, 0, 0, 0, 0, 0, (0, 0))
        assert _running_cost_arrays(zero.as_array(), 1.0, 0.0, w, params) == pytest.approx(25.0)

    def test_vaccination_effort_cost(self, covid19):
        params, _ = covid19
        w = ec.CostWeights(omega=(0, 0, 0, 0), sigma=(30.0, 10.0))
        zero = ec.StateVector(0, 0, 0, 0, 0, 0, (0, 0))
        cost = _running_cost_arrays(zero.as_array(), 0.0, 0.5, w, params)
        assert cost == pytest.approx(0.5 * 40.0 * 0.25)


class TestTotalCost:
    def test_terminal_cost_only(self, covid19):
        params, initial = covid19
        w = ec.CostWeights(omega=(0, 0, 0, 0), terminal=ec.TerminalCost("quadratic", 1.0))
        grid = ec.TimeGrid(3.0, 0.01)
        traj = ec.integrate_forward(initial, zero_controls(grid, params), params, grid)
        assert ec.total_cost(traj, zero_controls(grid, params), w, params) == pytest.approx(9.0)

    def test_constant_state_exact_integral(self, covid19):
        # S=1 with no infectious pools is stationary; integral of omega1*S
        # over two days is exactly 2 under the trapezoid rule
        params, _ = covid19
        w = ec.CostWeights(omega=(1, 0, 0, 0), terminal=ec.TerminalCost("quadratic", 0.0))
        grid = ec.TimeGrid(2.0, 0.01)
        start = ec.StateVector(1, 0, 0, 0, 0, 0, (0, 0))
        traj = ec.integrate_forward(start, zero_controls(grid, params), params, grid)
        assert ec.total_cost(traj, zero_controls(grid, params), w, params) == pytest.approx(2.0)

    def test_quadrature_refinement(self, covid19, default_weights):
        params, initial = covid19
        costs = {}
        for h in (0.01, 0.005):
            grid = ec.TimeGrid(35.0, h)
            controls = zero_controls(grid, params)
            traj = ec.integrate_forward(initial, controls, params, grid)
            costs[h] = ec.total_cost(traj, controls, default_weights, params)
        assert abs(costs[0.01] - costs[0.005]) / costs[0.005] < 1e-6

    @pytest.mark.usefixtures("segment_path")
    def test_one_evaluation_equals_two_bitwise(self):
        # g(post) differs from g(pre) only at the impulse nodes, where it is evaluated again
        config = ec.load_config(str(CONFIG_DIR / "covid19_impulsive.json"))
        params, grid = config.params, config.grid
        rng = np.random.default_rng(11)
        v, u = params.v_max * rng.random(grid.n_steps + 1), rng.random(grid.n_steps + 1)
        for controls in (zero_controls(grid, params), ec.ControlSignal(grid.times, v, u, params.v_max)):
            traj = ec.integrate_forward(config.initial, controls, params, grid, config.schedule)
            assert len(traj.impulse_nodes) == 4
            got = ec.total_cost(traj, controls, config.weights, params)
            assert got.hex() == _ref_total_cost(traj, controls, config.weights, params).hex()

    def test_controls_must_cover_horizon(self, covid19, default_weights):
        params, initial = covid19
        grid = ec.TimeGrid(2.0, 0.01)
        short = ec.TimeGrid(1.0, 0.01)
        traj = ec.integrate_forward(initial, zero_controls(grid, params), params, grid)
        with pytest.raises(ec.GridMismatchError):
            ec.total_cost(traj, zero_controls(short, params), default_weights, params)


class TestAdjointRhs:
    def test_homogeneous_zero(self, covid19):
        params, initial = covid19
        w = ec.CostWeights(omega=(0, 0, 0, 0))
        adj = ec.AdjointVector((0,) * 6, (0, 0))
        out = ec.adjoint_rhs(adj, initial, 0.0, 0.0, params, w)
        assert np.all(out == 0.0)

    def test_forcing_term_isolation(self, covid19):
        params, _ = covid19
        w = ec.CostWeights(omega=(0, 1, 0, 0))
        zero_state = ec.StateVector(0, 0, 0, 0, 0, 0, (0, 0))
        adj = ec.AdjointVector((0,) * 6, (0, 0))
        out = ec.adjoint_rhs(adj, zero_state, 0.0, 0.0, params, w)
        expected = np.zeros(8)
        expected[1] = -1.0
        np.testing.assert_array_equal(out, expected)

    def test_exposed_costate_two_forms_agree(self, covid19, rng):
        # grouped form beta*eps*S*(p1-p2) + k*(p2-(1-z)p3-z*p4) - w2 versus
        # the expanded form beta*eps*S*p1 + (k-beta*eps*S)*p2 - (1-z)k*p3 - zk*p4 - w2
        params, _ = covid19
        pr = ec.ModelParams(**{**params.__dict__, "epsilon": 0.4})
        w = ec.CostWeights(omega=(0.3, 0.7, 1.1, 2.0))
        for _ in range(100):
            state = ec.StateVector(*rng.uniform(0, 5000, size=6), tuple(rng.uniform(0, 5000, 2)))
            adj = ec.AdjointVector(tuple(rng.normal(size=6)), tuple(rng.normal(size=2)))
            u, v = rng.uniform(0, 1), rng.uniform(0, 1)
            got = ec.adjoint_rhs(adj, state, u, v, pr, w)[1]
            bes = pr.beta * pr.epsilon * state.S
            p = adj.p
            expanded = (
                bes * p[0]
                + (pr.k - bes) * p[1]
                - (1 - pr.z) * pr.k * p[2]
                - pr.z * pr.k * p[3]
                - w.omega[1]
            )
            assert got == pytest.approx(expanded, abs=1e-12 * max(1.0, abs(expanded)))

    def test_middle_dose_costate_formula(self, rng):
        # three doses exercise the interior dose-chain rate
        params = ec.ModelParams(
            beta=2e-4, epsilon=0.1, q=0.4, mu=0.8, k=0.5, z=0.3, p=0.2, eta=0.25,
            alpha=0.9, f=0.3, gamma=(1.0, 0.7, 0.4), delta=(0.01, 0.005, 0.0),
        )
        w = ec.CostWeights(sigma=(50.0, 50.0, 50.0))
        for _ in range(20):
            state = ec.StateVector(*rng.uniform(0, 2000, size=6), tuple(rng.uniform(0, 2000, 3)))
            adj = ec.AdjointVector(tuple(rng.normal(size=6)), tuple(rng.normal(size=3)))
            u, v = rng.uniform(0, 1), rng.uniform(0, 1)
            out = ec.adjoint_rhs(adj, state, u, v, params, w)
            expected = -params.delta[1] * adj.p[1] + (
                params.gamma[2] * v + params.delta[1]
            ) * adj.q[1] - params.gamma[2] * v * adj.q[2]
            assert out[7] == pytest.approx(expected, abs=1e-12 * max(1.0, abs(expected)))
            assert out[8] == 0.0

    def test_matches_negative_hamiltonian_gradient(self, covid19, rng):
        # costate rates equal -dH/dx for the S/E/A/I-coupled block whenever
        # the recovered/deceased costates vanish (they always do: their
        # rates are zero and they end at zero)
        params, _ = covid19
        pr = ec.ModelParams(**{**params.__dict__, "epsilon": 0.2})
        w = ec.CostWeights(omega=(0.5, 1.5, 0.9, 2.2))
        eps = 1e-4
        for _ in range(10):
            y = rng.uniform(100, 4000, size=8)
            pq = rng.normal(size=8)
            pq[4] = pq[5] = 0.0
            pq[7] = 0.0  # last dose costate vanishes along adjoint solutions
            adj = ec.AdjointVector(tuple(pq[:6]), tuple(pq[6:]))
            u, v = rng.uniform(0, 1), rng.uniform(0, 1)
            rate = ec.adjoint_rhs(adj, ec.StateVector.from_array(y), u, v, pr, w)
            for comp in (0, 1, 2, 3, 6):
                hi = y.copy()
                lo = y.copy()
                hi[comp] += eps
                lo[comp] -= eps
                grad = (
                    _hamiltonian(ec.StateVector.from_array(hi), adj, u, v, pr, w)
                    - _hamiltonian(ec.StateVector.from_array(lo), adj, u, v, pr, w)
                ) / (2 * eps)
                assert rate[comp] == pytest.approx(-grad, rel=1e-5, abs=1e-5)


class TestHamiltonian:
    def test_zero_adjoint_reduces_to_running_cost(self, covid19, default_weights, rng):
        params, _ = covid19
        state = ec.StateVector(*rng.uniform(0, 100, size=6), tuple(rng.uniform(0, 100, 2)))
        adj = ec.AdjointVector((0,) * 6, (0, 0))
        got = _hamiltonian(state, adj, 0.3, 0.4, params, default_weights)
        want = _running_cost_arrays(state.as_array(), 0.3, 0.4, default_weights, params)
        assert got == pytest.approx(want)

    def test_zero_everything(self, covid19):
        params, _ = covid19
        w = ec.CostWeights(omega=(0, 0, 0, 0))
        zero = ec.StateVector(0, 0, 0, 0, 0, 0, (0, 0))
        adj = ec.AdjointVector((0,) * 6, (0, 0))
        assert _hamiltonian(zero, adj, 0.0, 0.0, params, w) == 0.0

    def test_treatment_gradient_identity(self, covid19, default_weights, rng):
        # dH/du equals sigma0*u - I*(p4-p5); H is quadratic in u so the
        # central difference is exact up to roundoff
        params, _ = covid19
        eps = 1e-4
        for _ in range(20):
            state = ec.StateVector(*rng.uniform(0, 2000, size=6), tuple(rng.uniform(0, 2000, 2)))
            adj = ec.AdjointVector(tuple(rng.normal(size=6)), tuple(rng.normal(size=2)))
            u = rng.uniform(eps, 1 - eps)
            v = rng.uniform(0, 1)
            fd = (
                _hamiltonian(state, adj, u + eps, v, params, default_weights)
                - _hamiltonian(state, adj, u - eps, v, params, default_weights)
            ) / (2 * eps)
            analytic = default_weights.sigma0 * u - state.I * (adj.p[3] - adj.p[4])
            assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-6)

    def test_vaccination_gradient_identity(self, covid19, default_weights, rng):
        # dH/dv equals gain*v - W when the last dose costate is zero, which
        # always holds along adjoint trajectories
        params, _ = covid19
        gain = default_weights.vaccination_gain(params)
        eps = 1e-4
        for _ in range(20):
            state = ec.StateVector(*rng.uniform(0, 2000, size=6), tuple(rng.uniform(0, 2000, 2)))
            q = rng.normal(size=2)
            q[-1] = 0.0
            adj = ec.AdjointVector(tuple(rng.normal(size=6)), tuple(q))
            u = rng.uniform(0, 1)
            v = rng.uniform(eps, 1 - eps)
            fd = (
                _hamiltonian(state, adj, u, v + eps, params, default_weights)
                - _hamiltonian(state, adj, u, v - eps, params, default_weights)
            ) / (2 * eps)
            u_raw, v_raw = _switching_arrays(
                state.as_array(), adj.as_array(), params, default_weights
            )
            analytic = gain * v - gain * float(v_raw)
            assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-6)


class TestControlUpdate:
    def test_zero_switching_function(self, covid19, default_weights):
        params, _ = covid19
        state = ec.StateVector(0, 0, 0, 100, 0, 0, (0, 0))
        adj = ec.AdjointVector((0, 0, 0, 2.0, 2.0, 0), (0, 0))
        u, v = _clamped(state.as_array(), adj.as_array(), params, default_weights)
        assert u == 0.0

    def test_upper_clamp(self, covid19):
        # I=100, p4-p5=2, sigma0=50: raw 4 clamps to 1
        params, _ = covid19
        w = ec.CostWeights(sigma0=50.0)
        state = ec.StateVector(0, 0, 0, 100, 0, 0, (0, 0))
        adj = ec.AdjointVector((0, 0, 0, 2.0, 0, 0), (0, 0))
        u, v = _clamped(state.as_array(), adj.as_array(), params, w)
        assert u == 1.0

    def test_zero_adjoints_give_zero_controls(self, covid19, default_weights):
        params, initial = covid19
        adj = ec.AdjointVector((0,) * 6, (0, 0))
        u, v = _clamped(initial.as_array(), adj.as_array(), params, default_weights)
        assert (u, v) == (0.0, 0.0)

    def test_two_dose_switching_reduces(self, covid19, default_weights, rng):
        # with n=2 the inner sum is empty: W = g1*S*(p1-q1) + g2*q1*V1
        params, _ = covid19
        gain = default_weights.vaccination_gain(params)
        for _ in range(20):
            state = ec.StateVector(*rng.uniform(0, 2000, size=6), tuple(rng.uniform(0, 2000, 2)))
            adj = ec.AdjointVector(tuple(rng.normal(size=6)), tuple(rng.normal(size=2)))
            _, v = _clamped(state.as_array(), adj.as_array(), params, default_weights)
            w_val = params.gamma[0] * state.S * (adj.p[0] - adj.q[0])
            w_val += params.gamma[1] * adj.q[0] * state.V[0]
            expected = min(max(w_val / gain, 0.0), params.v_max)
            assert v == pytest.approx(expected, abs=1e-12)

    def test_degenerate_gain_rejected(self, covid19):
        params, _ = covid19
        w = ec.CostWeights(sigma=(0.0, 0.0))
        state = ec.StateVector(1, 0, 0, 0, 0, 0, (0, 0))
        adj = ec.AdjointVector((0,) * 6, (0, 0))
        with pytest.raises(ec.DegenerateParameterError):
            _clamped(state.as_array(), adj.as_array(), params, w)

    def test_nan_is_a_hard_error(self, covid19, default_weights):
        # a NaN raw control passes the clips, so the step's change is NaN, on which fbsm_solve
        # raises (test_a_nan_raw_control_is_the_same_value_error)
        params, _ = covid19
        rows = np.array([ec.StateVector(1, 0, 0, 0, 0, 0, (0, 0)).as_array()] * 2)
        values = np.zeros_like(rows)
        values[1, 0] = np.nan
        traj = types.SimpleNamespace(node_times=np.array([0.0, 1.0]), states_pre=rows, states_post=rows,
                                     impulse_nodes=())
        adj, zeros = types.SimpleNamespace(values_post=values), np.zeros(2)
        *_, change = control._step(params, default_weights, 0.0, 0.5, traj, adj, zeros, zeros)
        assert math.isnan(change)


class TestFbsmSolve:
    def test_zero_weights_give_zero_controls(self, covid19):
        params, initial = covid19
        w = ec.CostWeights(omega=(0, 0, 0, 0), terminal=ec.TerminalCost("quadratic", 0.0))
        sol = solve_small(params, initial, w, tau=2.0)
        assert sol.converged
        assert np.all(sol.controls.u == 0.0)
        assert np.all(sol.controls.v == 0.0)
        assert sol.cost == 0.0

    def test_box_feasibility(self, covid19, default_weights):
        params, initial = covid19
        sol = solve_small(params, initial, default_weights)
        assert np.all((sol.controls.u >= 0.0) & (sol.controls.u <= 1.0))
        assert np.all((sol.controls.v >= 0.0) & (sol.controls.v <= params.v_max))

    def test_cost_monotone_after_transient(self, covid19, default_weights):
        params, initial = covid19
        sol = solve_small(params, initial, default_weights)
        hist = np.array(sol.cost_history)
        assert sol.converged
        assert np.all(np.diff(hist[3:]) <= 1e-9 * hist[3:-1])

    def test_stationarity_at_interior_nodes(self, covid19, default_weights):
        params, initial = covid19
        sol = solve_small(params, initial, default_weights)
        u, v = sol.controls.u, sol.controls.v
        u_raw, v_raw = _switching_arrays(
            sol.state_traj.states_post, sol.adjoint_traj.values_post, params, default_weights
        )
        band = 1e-4
        interior_u = (u > band) & (u < 1.0 - band)
        interior_v = (v > band * params.v_max) & (v < params.v_max * (1.0 - band))
        res_u = np.abs(u - u_raw)[interior_u] * default_weights.sigma0
        gain = default_weights.vaccination_gain(params)
        res_v = np.abs(v - v_raw)[interior_v] * gain
        assert np.mean(res_u <= 1e-3 * default_weights.sigma0) >= 0.95
        assert np.mean(res_v <= 1e-3 * gain) >= 0.95

    def test_joint_weight_scaling_leaves_argmin(self, covid19, default_weights):
        # doubling (omega, sigma, M) doubles J and leaves the controls unchanged
        params, initial = covid19
        w1 = default_weights
        w2 = ec.CostWeights(
            omega=tuple(2 * x for x in w1.omega),
            sigma0=2 * w1.sigma0,
            sigma=tuple(2 * x for x in w1.sigma),
            terminal=ec.TerminalCost(w1.terminal.kind, 2 * w1.terminal.coeff, w1.terminal.rate),
        )
        s1 = solve_small(params, initial, w1, tau=5.0, h=0.02)
        s2 = solve_small(params, initial, w2, tau=5.0, h=0.02)
        assert s2.cost == pytest.approx(2.0 * s1.cost, rel=1e-12)
        np.testing.assert_allclose(s2.controls.u, s1.controls.u, atol=1e-12)
        np.testing.assert_allclose(s2.controls.v, s1.controls.v, atol=1e-12)

    def test_non_convergence_reported_via_flag(self, covid19, default_weights):
        params, initial = covid19
        sol = solve_small(params, initial, default_weights, max_iterations=2)
        assert not sol.converged
        assert sol.iterations == 2

    def test_running_cost_bound_checked_before_the_first_pass(self, covid19, monkeypatch):
        # the bound load_config enforces holds for library callers too: these
        # weights once gave cost=inf with converged=True after 14 iterations
        params, initial = covid19
        weights = ec.CostWeights(omega=(1e306, 1.0, 1.0, 1.0))
        monkeypatch.setattr(ec.control, "integrate_forward", None)  # no pass may run
        line = "weights: the running-cost bound over tau = 5 is not finite"
        with pytest.raises(RangeError, match=line):
            fbsm_solve(initial, params, weights, TimeGrid(5.0, 0.05))
        with pytest.raises(RangeError, match=line):
            ec.optimize_terminal_time(initial, params, weights, None, (5.0, 6.0), h=0.05)

    def test_overflowing_terminal_cost_checked_before_the_first_pass(self, covid19, monkeypatch):
        # exp(200 * 5) overflows: a RangeError naming the field, as load_config gives,
        # not math's OverflowError from the cost of the first pass
        params, initial = covid19
        weights = ec.CostWeights(terminal=ec.TerminalCost("exponential", 1.0, 200.0))
        monkeypatch.setattr(ec.control, "integrate_forward", None)  # no pass may run
        line = r"^weights\.terminal\.rate: rate\*tau = 1000 overflows exp \(limit 709\.783\)$"
        with pytest.raises(RangeError, match=line):
            fbsm_solve(initial, params, weights, TimeGrid(5.0, 0.05))

    def test_every_pass_is_one_integrate_forward(self, covid19, default_weights, monkeypatch):
        # the returned trajectory is the last of them, which marches every row like the rest
        params, initial = covid19
        passes = []

        def forward(*args, **kwargs):
            passes.append(ec.integrate_forward(*args, **kwargs))
            return passes[-1]

        monkeypatch.setattr(ec.control, "integrate_forward", forward)
        for max_iterations in (3, 500):
            sol = solve_small(params, initial, default_weights, max_iterations=max_iterations)
            assert len(passes) == sol.iterations + 1 and passes[-1] is sol.state_traj
            passes.clear()

    @pytest.mark.usefixtures("segment_path")
    @pytest.mark.parametrize("h, update", [(1.5, 5), (1.75, 3)])
    def test_step_too_coarse_after_the_first_pass_ends_with_the_pass_before(self, h, update, caplog):
        # beta = 2e-4 marches under the zero controls at these steps, but the controls of a later
        # update drive a compartment below the roundoff tolerance
        config = ec.load_config(str(CONFIG_DIR / "covid19.json"))
        params = dataclasses.replace(config.params, beta=2e-4)
        grid, weights = ec.TimeGrid(config.grid.tau, h), config.weights
        with caplog.at_level(logging.WARNING, logger="epictrl"):
            sol = fbsm_solve(config.initial, params, weights, grid, None, config.solver)
        assert f"step too coarse at update {update};" in caplog.text
        options = ec.SweepOptions(max_iterations=update - 1)
        _assert_the_pass_before(sol, fbsm_solve(config.initial, params, weights, grid, None, options))
        stiff = dataclasses.replace(params, beta=0.01)  # the zero controls' own step is too coarse
        with pytest.raises(ec.StabilityError):
            fbsm_solve(config.initial, stiff, weights, ec.TimeGrid(35.0, 1.0))

    @pytest.mark.usefixtures("segment_path")
    @pytest.mark.parametrize("update", [2, 5])
    def test_costates_overflowing_after_the_first_pass_end_with_the_pass_before(
        self, covid19, default_weights, monkeypatch, caplog, update
    ):
        # from the pass of that update on, each forward pass hands the costate march an I of
        # 1e300 at t = 2, whose force of infection overflows the costates there at once
        params, initial = covid19
        grid, forward, passes, first = ec.TimeGrid(5.0, 0.05), control.integrate_forward, [], [update]

        def poisoned(*args, **kwargs):
            passes.append(forward(*args, **kwargs))
            if len(passes) <= first[0]:
                return passes[-1]
            states = passes[-1].states_pre.copy()
            states[40, I] = 1e300
            return dataclasses.replace(passes[-1], states_pre=states, states_post=states)

        monkeypatch.setattr(control, "integrate_forward", poisoned)
        with caplog.at_level(logging.WARNING, logger="epictrl"):
            sol = fbsm_solve(initial, params, default_weights, grid)
        assert f"costates overflowed at update {update};" in caplog.text
        options, passes[:] = ec.SweepOptions(max_iterations=update - 1), []
        _assert_the_pass_before(sol, fbsm_solve(initial, params, default_weights, grid, None, options))
        first[0] = 0  # the zero controls' own pass
        with pytest.raises(ec.StabilityError, match=r"^costates overflowed at t=2; reduce h$"):
            fbsm_solve(initial, params, default_weights, grid)

    def test_samples_controls_once_a_pass_and_the_grid_once(self, covid19, default_weights, monkeypatch):
        # the nodes are the controls' own samples, and the grid's times are built once; a signal's
        # midpoints are interpolated at most once, which both passes share, and on the C path only
        # the first signal's, as C's update forms every later one's; a pass with no impulse node
        # copies no whole table
        params, initial = covid19
        monkeypatch.setattr(native, "_PAYBACK", 0)
        calls = {"interp": 0, "linspace": 0}
        for name in calls:
            def counted(*args, _fn=getattr(np, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        passes = []
        for name in ("integrate_forward", "integrate_adjoint_backward"):
            def kept(*args, _fn=getattr(control, name), **kwargs):
                passes.append(_fn(*args, **kwargs))
                return passes[-1]

            monkeypatch.setattr(control, name, kept)
        for path in ["Python"] + ["C"] * (shutil.which("cc") is not None):
            with monkeypatch.context() as patch:
                if path == "Python":
                    patch.setattr(native, "_library", lambda n, to_exposed: None)
                for max_iterations in (3, 500):
                    calls.update(interp=0, linspace=0)
                    options = ec.SweepOptions(max_iterations=max_iterations)
                    sol = fbsm_solve(initial, params, default_weights, ec.TimeGrid(35.0, 0.01), options=options)
                    interp = 2 if path == "C" else 2 * (sol.iterations + 1)
                    assert calls == {"interp": interp, "linspace": 1}
            assert sol.converged and sol.iterations == 17
        assert len(passes) == 2 * (3 + 1 + 17 + 1) * (1 + (shutil.which("cc") is not None))
        for traj, adj in zip(passes[::2], passes[1::2]):
            assert traj.states_post is traj.states_pre and adj.values_pre is adj.values_post
            assert not (traj.states_pre.flags.writeable or adj.values_post.flags.writeable)

    def test_default_run_regression(self, default_solution):
        assert default_solution.converged
        assert default_solution.iterations <= 500

    def test_gradient_identity_with_last_dose_breakthrough(self):
        # routing the last-dose breakthrough flow into E makes the last
        # costate nonzero; the costate system and switching function pick up
        # the matching terms, so the cost gradient stays exact
        params = ec.ModelParams(
            beta=3e-4, epsilon=0.1, q=0.5, mu=1.0, k=0.5, z=0.2, p=0.1, eta=0.3,
            alpha=0.95, f=0.3, gamma=(1.0, 0.8, 0.6), delta=(0.05, 0.03, 0.01),
            delta_n_to_exposed=True,
        )
        initial = ec.StateVector(6000, 800, 400, 400, 0, 0, (200.0, 100.0, 50.0))
        w = ec.CostWeights(sigma=(50.0, 50.0, 50.0))
        grid = ec.TimeGrid(5.0, 0.01)
        controls = ec.ControlSignal.constant(grid.times, 0.4, 0.5, params.v_max)
        for which in ("u", "v"):
            for cell in (50, 200, 400):
                fd = ec.finite_difference_gradient(
                    initial, params, w, controls, grid, cell, 1e-3, which
                )
                ad = ec.adjoint_gradient(initial, params, w, controls, grid, cell, which)
                assert fd == pytest.approx(ad, rel=1e-3)

    @pytest.mark.parametrize("to_exposed", [False, True])
    @pytest.mark.parametrize("n", [4, 5])
    def test_gradient_identity_on_long_dose_chains(self, covid19, n, to_exposed):
        # the flow V_j -> V_j+1 couples each dose costate to the next with or without the
        # last-dose breakthrough; from four doses on, an interior costate sees a nonzero next one
        params, _ = covid19
        chain = {"gamma": (1.0,) * n, "delta": (0.02,) * (n - 1) + (0.0,)}
        params = ec.ModelParams(**{**params.__dict__, **chain, "delta_n_to_exposed": to_exposed})
        initial = ec.StateVector(8000, 1000, 500, 500, 0, 0, (300.0,) * n)
        w = ec.CostWeights(sigma=(50.0,) * n)
        grid = ec.TimeGrid(10.0, 0.01)
        controls = ec.ControlSignal.constant(grid.times, 0.5 * params.v_max, 0.5, params.v_max)
        for which in ("u", "v"):
            for cell in (50, 250, 450, 650, 850):
                fd = ec.finite_difference_gradient(
                    initial, params, w, controls, grid, cell, 1e-3, which
                )
                ad = ec.adjoint_gradient(initial, params, w, controls, grid, cell, which)
                assert fd == pytest.approx(ad, rel=1e-3)  # C03's bound

    def test_four_dose_chain_solves(self):
        params = ec.ModelParams(
            beta=3e-4, epsilon=0.0, q=0.5, mu=1.0, k=0.5, z=0.2, p=0.1, eta=0.3,
            alpha=0.95, f=0.3, gamma=(1.0, 0.9, 0.8, 0.7), delta=(0.02, 0.01, 0.005, 0.0),
        )
        initial = ec.StateVector(6000, 800, 400, 400, 0, 0, (0.0, 0.0, 0.0, 0.0))
        w = ec.CostWeights(sigma=(50.0,) * 4)
        sol = ec.fbsm_solve(initial, params, w, ec.TimeGrid(3.0, 0.02))
        assert sol.converged
        assert np.all((sol.controls.u >= 0) & (sol.controls.u <= 1))
        assert np.all((sol.controls.v >= 0) & (sol.controls.v <= params.v_max))

    def test_variational_derivative_matches_sweep_gradient(self, covid19, default_weights, rng):
        # bump J along a hat at one node: the cost change predicted by the
        # costate integrand agrees with the central difference
        params, initial = covid19
        grid = ec.TimeGrid(5.0, 0.01)
        controls = ec.ControlSignal.constant(grid.times, 0.3, 0.4, params.v_max)
        for which in ("u", "v"):
            for cell in rng.integers(1, grid.n_steps, size=3):
                fd = ec.finite_difference_gradient(
                    initial, params, default_weights, controls, grid, int(cell), 1e-4, which
                )
                ad = ec.adjoint_gradient(
                    initial, params, default_weights, controls, grid, int(cell), which
                )
                assert fd == pytest.approx(ad, rel=1e-3)


class TestOptimizeTerminalTime:
    def test_pure_terminal_cost_picks_lower_bound(self, covid19):
        params, initial = covid19
        w = ec.CostWeights(omega=(0, 0, 0, 0), terminal=ec.TerminalCost("quadratic", 1.0))
        tau_star, sol = ec.optimize_terminal_time(initial, params, w, None, (2.0, 5.0), h=0.05)
        assert tau_star == pytest.approx(2.0)
        assert sol.cost == pytest.approx(4.0)
        assert sol.transversality_residual is not None

    def test_grid_probe_brackets_search_answer(self, covid19, default_weights):
        params, initial = covid19
        opts = ec.SweepOptions(max_iterations=200)
        tau_star, _ = ec.optimize_terminal_time(
            initial, params, default_weights, None, (2.0, 4.0), h=0.05, options=opts
        )
        probes = np.linspace(2.0, 4.0, 8)
        costs = []
        for tau in probes:
            grid = ec.TimeGrid(float(tau), 0.05)
            costs.append(ec.fbsm_solve(initial, params, default_weights, grid, None, opts).cost)
        k = int(np.argmin(costs))
        lo = probes[max(0, k - 1)]
        hi = probes[min(len(probes) - 1, k + 1)]
        assert lo - 1e-9 <= tau_star <= hi + 1e-9

    def test_residual_is_locally_minimal(self, covid19, default_weights):
        params, initial = covid19
        opts = ec.SweepOptions(max_iterations=300)
        window = (28.0, 35.0)
        tau_star, sol = ec.optimize_terminal_time(
            initial, params, default_weights, None, window, h=0.05, options=opts
        )
        span = window[1] - window[0]
        for probe in (tau_star - 0.1 * span, tau_star + 0.1 * span):
            if not window[0] <= probe <= window[1]:
                continue
            grid = ec.TimeGrid(float(probe), 0.05)
            other = ec.fbsm_solve(initial, params, default_weights, grid, None, opts)
            assert abs(sol.transversality_residual) <= abs(
                transversality_residual(other, params, default_weights)
            ) + 1e-9

    def test_bad_range_rejected(self, covid19, default_weights):
        params, initial = covid19
        with pytest.raises(ec.RangeError):
            ec.optimize_terminal_time(initial, params, default_weights, None, (5.0, 2.0))
        with pytest.raises(ec.RangeError):
            ec.optimize_terminal_time(initial, params, default_weights, None, (0.0, 2.0))

    def test_schedule_truncated_to_horizon(self, covid19, default_weights):
        params, initial = covid19
        sched = ec.ImpulseSchedule((ec.ImpulseEvent(3.0, (0.1, 0.1, 0.1, 0.1)),))
        opts = ec.SweepOptions(max_iterations=100)
        tau_star, sol = ec.optimize_terminal_time(
            initial, params, default_weights, sched, (2.0, 4.0), h=0.05, options=opts
        )
        assert 2.0 <= tau_star <= 4.0
        assert sol.converged


# The horizon search before it became one solve at tau_min, verbatim: a
# golden-section search that sweeps every probed horizon and keeps the
# cheapest.
log = logging.getLogger("epictrl")

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _ref_optimize_terminal_time(
    initial,
    params,
    weights,
    schedule,
    tau_range,
    h=0.01,
    options=None,
    tau_tol=0.1,
):
    tau_min, tau_max = float(tau_range[0]), float(tau_range[1])
    if not 0.0 < tau_min < tau_max:
        raise RangeError(f"need 0 < tau_min < tau_max, got ({tau_min}, {tau_max})")
    if tau_max - tau_min < tau_tol:
        raise RangeError("search range narrower than the tolerance")

    evaluated: dict[float, OptimalSolution] = {}

    def solve_at(tau: float) -> float:
        grid = TimeGrid(tau, h)
        sol = fbsm_solve(
            initial, params, weights, grid, _truncated_schedule(schedule, grid.tau, h), options
        )
        evaluated[tau] = sol
        log.debug("terminal-time probe tau=%.6g -> J=%.6g", tau, sol.cost)
        return sol.cost

    a, b = tau_min, tau_max
    solve_at(a)
    solve_at(b)
    c = b - _INVPHI * (b - a)
    d_ = a + _INVPHI * (b - a)
    fc, fd = solve_at(c), solve_at(d_)
    while (b - a) > tau_tol:
        if fc < fd:
            b = d_
            d_, fd = c, fc
            c = b - _INVPHI * (b - a)
            fc = solve_at(c)
        else:
            a = c
            c, fc = d_, fd
            d_ = a + _INVPHI * (b - a)
            fd = solve_at(d_)

    tau_star = min(evaluated, key=lambda t: evaluated[t].cost)
    best = evaluated[tau_star]
    residual = transversality_residual(best, params, weights)
    best = OptimalSolution(
        controls=best.controls,
        state_traj=best.state_traj,
        adjoint_traj=best.adjoint_traj,
        cost=best.cost,
        iterations=best.iterations,
        converged=best.converged,
        transversality_residual=residual,
        cost_history=best.cost_history,
    )
    return tau_star, best


def _bitwise_equal(a, b) -> bool:
    """Equal shapes and bytes: unlike ``np.array_equal``, tells -0.0 from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a, b) and a.tobytes() == b.tobytes()


_EVENT_AT_3 = ec.ImpulseSchedule((ec.ImpulseEvent(3.0, (0.1, 0.1, 0.1, 0.1)),))
_NO_STATE_COST = (0.0, 0.0, 0.0, 0.0)


class TestHorizonSeedEquivalence:
    """One solve at tau_min gives exactly what the golden-section search gave."""

    @pytest.mark.parametrize(
        "disease, weights, schedule, window, options",
        [
            ("covid19", ec.CostWeights(), None, (2.0, 4.0), None),
            ("covid19", ec.CostWeights(omega=_NO_STATE_COST), None, (2.0, 5.0), None),
            ("covid19", ec.CostWeights(), _EVENT_AT_3, (2.0, 4.0), None),
            (
                "covid19",
                ec.CostWeights(terminal=ec.TerminalCost("linear", 3.0)),
                None,
                (2.0, 4.0),
                None,
            ),
            (
                "covid19",
                ec.CostWeights(terminal=ec.TerminalCost("exponential", 1.5, rate=0.2)),
                None,
                (2.0, 4.0),
                None,
            ),
            (
                "covid19",
                ec.CostWeights(omega=_NO_STATE_COST, terminal=ec.TerminalCost("quadratic", 0.0)),
                None,
                (2.0, 4.0),
                None,
            ),
            ("ebola", ec.CostWeights(), None, (2.0, 4.0), None),
            ("covid19", ec.CostWeights(), None, (2.0, 4.0), ec.SweepOptions(0.7, max_iterations=5)),
        ],
        ids=[
            "covid19",
            "terminal-only",
            "event-at-3",
            "linear",
            "exponential",
            "all-tie",
            "ebola",
            "five-iterations",
        ],
    )
    def test_bitwise_equal_to_golden_section(self, disease, weights, schedule, window, options):
        params, initial = ec.preset(disease)
        ref_tau, ref = _ref_optimize_terminal_time(
            initial, params, weights, schedule, window, h=0.05, options=options
        )
        tau_star, sol = ec.optimize_terminal_time(
            initial, params, weights, schedule, window, h=0.05, options=options
        )
        assert tau_star == ref_tau == window[0]
        for got, want in (
            (sol.controls.u, ref.controls.u),
            (sol.controls.v, ref.controls.v),
            (sol.state_traj.states_pre, ref.state_traj.states_pre),
            (sol.state_traj.states_post, ref.state_traj.states_post),
            (sol.adjoint_traj.values_pre, ref.adjoint_traj.values_pre),
            (sol.adjoint_traj.values_post, ref.adjoint_traj.values_post),
            (sol.cost, ref.cost),
            (sol.transversality_residual, ref.transversality_residual),
            (sol.cost_history, ref.cost_history),
        ):
            assert _bitwise_equal(got, want)
        assert (sol.iterations, sol.converged) == (ref.iterations, ref.converged)

    @pytest.mark.parametrize("schedule", [None, _EVENT_AT_3], ids=["no-events", "event-at-3"])
    def test_residual_is_running_cost_plus_terminal_slope(self, covid19, default_weights, schedule):
        # the costates vanish at tau, so H(tau) keeps only the running cost
        params, initial = covid19
        tau_star, sol = ec.optimize_terminal_time(
            initial, params, default_weights, schedule, (3.0, 4.0), h=0.05
        )
        last = len(sol.state_traj.node_times) - 1
        v_end, u_end = sol.controls.at(tau_star)
        g_end = _running_cost_arrays(
            sol.state_traj.states_post[last], u_end, v_end, default_weights, params
        )
        expected = g_end + default_weights.terminal.slope(tau_star)
        assert sol.transversality_residual == pytest.approx(expected, rel=1e-12)
        assert sol.transversality_residual >= 0.0


class TestCompiledUpdate:
    """C's ``update`` (``native._update``) against its numpy twin ``control._step``: the cost
    cells, the PMP controls, their relaxation and change, and the midpoints."""

    @staticmethod
    def _draw(rng, n, to_exposed):
        """A forward pass with impulse nodes; costates whose raw controls fall below, inside and
        above their boxes; controls in the box; and nodes where raw u and both controls are -0.0."""
        params, initial, weights, grid, _, schedule = _random_draw(rng, n, to_exposed, 3, tau=2.0, h=0.02)
        u, v = rng.uniform(0.0, 1.0, grid.n_steps + 1), rng.uniform(0.0, params.v_max, grid.n_steps + 1)
        controls = ec.ControlSignal(grid.times, v, u, params.v_max)
        traj = ec.integrate_forward(initial, controls, params, grid, schedule)
        pre, post = traj.states_pre.copy(), traj.states_post.copy()
        values = rng.normal(size=pre.shape) * 10.0 ** rng.uniform(-4.0, 1.0, pre.shape)
        zero = [j for j in rng.choice(grid.n_steps, 8, replace=False) if j not in traj.impulse_nodes]
        pre[zero] = post[zero] = 0.0  # I = 0 and p4 - p5 < 0: raw u is -0.0, and so is raw v
        values[zero] = -np.abs(values[zero])  # without delta_n_to_exposed, as p1 - q1 < 0 too
        values[zero, 3], values[zero, 0] = values[zero, 4] - 1.0, values[zero, 6] - 1.0
        u[zero] = v[zero] = -0.0
        traj = dataclasses.replace(traj, states_pre=pre, states_post=post)
        adj = ec.AdjointTrajectory(grid.times, values, values, traj.impulse_nodes)
        return params, weights, traj, adj, u, v, zero

    @needs_cc
    @pytest.mark.parametrize("to_exposed", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bitwise_equal_to_the_numpy_step(self, n, to_exposed):
        rng = np.random.default_rng(10 * n + to_exposed)
        params, weights, traj, adj, u, v, zero = self._draw(rng, n, to_exposed)
        theta, v_max, times = float(rng.uniform(0.1, 1.0)), params.v_max, traj.node_times
        u_raw, v_raw = _switching_arrays(traj.states_post, adj.values_post, params, weights)
        for raw, box in ((u_raw, 1.0), (v_raw, v_max)):  # every branch of both clips
            assert (raw < 0.0).any() and ((0.0 < raw) & (raw < box)).any() and (raw > box).any()
        assert len(zero) > 3 and len(traj.impulse_nodes) == 3 and np.signbit(u_raw[zero]).all()
        assert np.signbit(v_raw[zero]).all() != to_exposed
        cost = ec.total_cost(traj, ec.ControlSignal(times, v, u, v_max), weights, params)
        mid = 0.5 * (times[:-1] + times[1:])

        step = native._library(n, to_exposed)["update"]
        gain = weights.vaccination_gain(params)
        cells, u1, v1, (vm, um), got = step(params, weights, gain, theta, traj, adj, u, v)
        twin_cells, u_new, v_new, no_midpoints, change = control._step(
            params, weights, gain, theta, traj, adj, u, v
        )
        assert no_midpoints is None  # the next signal interpolates its own
        assert np.signbit(u1[zero]).all() and np.signbit(v1[zero]).all() != to_exposed
        for ours, theirs in (
            (u1, u_new),
            (v1, v_new),
            (vm, np.interp(mid, times, v_new)),
            (um, np.interp(mid, times, u_new)),
            (got, change),
            (cells, twin_cells),
        ):
            assert _bitwise_equal(ours, theirs)
        assert float(np.sum(cells) + weights.terminal.value(float(times[-1]))).hex() == cost.hex()
        assert not (vm.flags.writeable or um.flags.writeable)
        for column in (3, 6):  # a NaN in raw u, then in raw v
            values = adj.values_post.copy()
            values[5, column] = np.nan
            poisoned = dataclasses.replace(adj, values_post=values)
            for fn in (step, control._step):
                assert math.isnan(fn(params, weights, gain, theta, traj, poisoned, u, v)[-1])
        with pytest.raises(IndexError):
            step(params, weights, gain, theta, traj, adj, u[:-1], v[:-1])

    @needs_cc
    def test_every_bound_array_is_checked_before_the_c_call(self):
        # each array the update reads is checked at its first use and its shape at every use: one
        # shorter than the grid, misshapen, strided or non-float raises IndexError before the C loop
        params, weights, traj, adj, u, v, _ = self._draw(np.random.default_rng(3), 3, True)
        calls, gain = [], weights.vaccination_gain(params)
        step = functools.partial(native._update, lambda *args: calls.append(args) or 0.0)
        assert step(params, weights, gain, 0.5, traj, adj, u, v)[-1] == 0.0 and len(calls) == 1
        times, pre, post, values = traj.node_times, traj.states_pre, traj.states_post, adj.values_post
        passes = types.SimpleNamespace  # the pass tables as the update reads them, unchecked
        bad = [(passes(node_times=np.repeat(times, 2)[::2], states_pre=pre, states_post=post), adj, u, v),
               (passes(node_times=times, states_pre=pre[:-1], states_post=post), adj, u, v),
               (passes(node_times=times, states_pre=pre, states_post=np.ascontiguousarray(post[:, 1:])), adj, u, v),
               (passes(node_times=times, states_pre=np.asfortranarray(pre), states_post=post), adj, u, v),
               (traj, passes(values_post=values.astype(np.float32)), u, v),
               (traj, passes(values_post=values[::-1]), u, v),
               (traj, adj, u[:-1], v), (traj, adj, u, np.zeros((len(v), 1))), (traj, adj, u, memoryview(v))]
        for args in bad:
            with pytest.raises(IndexError):
                step(params, weights, gain, 0.5, *args)
        assert len(calls) == 1

    @pytest.mark.usefixtures("segment_path")
    def test_a_nan_raw_control_is_the_same_value_error(self, covid19, default_weights, monkeypatch):
        params, initial = covid19
        backward = control.integrate_adjoint_backward

        def poisoned(*args, **kwargs):
            adj = backward(*args, **kwargs)
            values = adj.values_post.copy()
            values[7, 3] = np.nan
            return dataclasses.replace(adj, values_post=values)

        monkeypatch.setattr(control, "integrate_adjoint_backward", poisoned)
        with pytest.raises(ValueError, match="^NaN encountered in control update$"):
            fbsm_solve(initial, params, default_weights, ec.TimeGrid(5.0, 0.05))


_DEFAULT_PAYBACK = native._PAYBACK


def _pinned_sha256() -> dict:
    """The four ``optimize`` outputs' sha256s that the benchmark pins (``benchmarks/workloads.py``)."""
    return runpy.run_path(str(CONFIG_DIR.parent / "benchmarks" / "workloads.py"))["OPTIMIZE_SHA256"]


@pytest.mark.usefixtures("segment_path")
class TestSweepBinder:
    """A sweep's passes write two tables of each kind, and the update two blocks, in turn
    (``integrator._Binder``): what one pass hands on stays as it was, and so does every solution."""

    def test_a_second_sweep_leaves_the_first_solution_as_it_was(self, covid19, default_weights):
        params, initial = covid19
        grid = ec.TimeGrid(5.0, 0.05)
        events = ec.ImpulseSchedule((ec.ImpulseEvent(2.0, (0.1, 0.2, 0.0, 0.05)),))
        other = dataclasses.replace(params, beta=7e-4)
        for schedule in (None, events):
            first = fbsm_solve(initial, params, default_weights, grid, schedule)
            arrays = [first.state_traj.states_pre, first.state_traj.states_post, first.adjoint_traj.values_pre,
                      first.adjoint_traj.values_post, first.controls.u, first.controls.v, *first.controls.midpoints]
            kept = [x.copy() for x in arrays], first.cost_history
            second = fbsm_solve(initial, other, default_weights, grid, schedule)
            assert second.cost_history != first.cost_history
            for x, was in zip(arrays, kept[0]):
                assert _bitwise_equal(x, was) and not x.flags.writeable
            assert first.cost_history is kept[1] and isinstance(kept[1], tuple)

    def test_a_cold_sweep_asks_for_c_where_it_did_and_writes_the_pinned_bytes(self, tmp_path, monkeypatch):
        # the default payback and no steps marched yet: the C marches, where they build, take over
        # at the 12th of the 36 passes, at step 42,000, as before the passes shared their tables
        monkeypatch.setattr(native, "_PAYBACK", _DEFAULT_PAYBACK)
        monkeypatch.setattr(native, "_STEPS", {})
        library, asked = native._library, []
        monkeypatch.setattr(native, "_library", lambda *kind: asked.append(native._STEPS[kind]) or library(*kind))
        argv = ["optimize", "--config", str(CONFIG_DIR / "covid19.json"), "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert asked[0] == 42_000 and native._STEPS[2, False] == 36 * 3500
        for name, digest in _pinned_sha256().items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@needs_cc
def test_alternating_sweeps_repeat_their_first_run_bitwise(covid19, default_weights, monkeypatch):
    # one process sweeps three configs in turn on the C path: covid19, covid19 with another beta
    # and h, and three doses with impulses (every preset has two).  Each array's address and
    # shape are taken once while it lives, so a later sweep must find none of an earlier one's
    monkeypatch.setattr(native, "_PAYBACK", 0)
    params, initial = covid19
    other = ec.ModelParams(**{**params.__dict__, "beta": 7e-4})
    three = ec.ModelParams(**{**params.__dict__, "gamma": (1.0, 0.8, 0.6), "delta": (5e-4, 1e-4, 0.0)})
    events = tuple(ec.ImpulseEvent(t, (0.1, 0.2, 0.0, 0.05)) for t in (2.0, 6.5))
    runs = [
        (initial, params, default_weights, TimeGrid(10.0, 0.01), None),
        (initial, other, default_weights, TimeGrid(10.0, 0.02), None),
        (ec.StateVector(8000.0, 1000.0, 500.0, 500.0, 0.0, 0.0, (0.0,) * 3), three,
         dataclasses.replace(default_weights, sigma=(50.0,) * 3), TimeGrid(10.0, 0.01), ec.ImpulseSchedule(events)),
    ]
    options = ec.SweepOptions(max_iterations=6)
    first = [fbsm_solve(*run, options) for run in runs]
    assert all(native._marches(run[1].n, run[1].delta_n_to_exposed, 0) for run in runs)
    for _ in range(2):
        for run, want in zip(runs, first):
            got = fbsm_solve(*run, options)
            for ours, theirs in (
                (got.state_traj.states_pre, want.state_traj.states_pre),
                (got.state_traj.states_post, want.state_traj.states_post),
                (got.adjoint_traj.values_pre, want.adjoint_traj.values_pre),
                (got.adjoint_traj.values_post, want.adjoint_traj.values_post),
                (got.controls.u, want.controls.u),
                (got.controls.v, want.controls.v),
                (got.cost_history, want.cost_history),
            ):
                assert _bitwise_equal(ours, theirs)


def _ref_fbsm_solve(initial, params, weights, grid, schedule, options):
    """``fbsm_solve`` less its fault checks and log, written out from the public passes:
    each iteration one ``integrate_forward``, one ``integrate_adjoint_backward`` and one cost."""
    opts = options
    times = grid.times
    v_max = params.v_max
    u = np.zeros_like(times)
    v = np.zeros_like(times)
    history = []
    converged = False
    for it in range(opts.max_iterations + 1):
        controls = ec.ControlSignal(times, v, u, v_max)
        traj = ec.integrate_forward(initial, controls, params, grid, schedule)
        adj = ec.integrate_adjoint_backward(traj, controls, params, weights, grid, schedule)
        history.append(ec.total_cost(traj, controls, weights, params))
        if converged or it == opts.max_iterations:
            break
        u_star, v_star = _clamped(traj.states_post, adj.values_post, params, weights)
        u_new = np.clip(opts.theta * u_star + (1.0 - opts.theta) * u, 0.0, 1.0)
        v_new = np.clip(opts.theta * v_star + (1.0 - opts.theta) * v, 0.0, v_max)
        change = float(np.max(np.abs(u_new - u) + np.abs(v_new - v) / v_max))
        u, v = u_new, v_new
        converged = change < opts.tolerance
    return OptimalSolution(
        controls=controls,
        state_traj=traj,
        adjoint_traj=adj,
        cost=history[-1],
        iterations=it,
        converged=converged,
        cost_history=tuple(history),
    )


class TestSweepProperties:
    """Seeded draws of admissible problems: the sweep ends converged or says it did not,
    with finite outputs no costlier than doing nothing, bitwise those of ``_ref_fbsm_solve``."""

    def test_random_problems(self):
        rng = np.random.default_rng(2026)
        ended = set()
        for draw in range(20):
            n, impulses, to_exposed = int(rng.integers(2, 6)), int(rng.integers(0, 4)), draw % 2 == 1
            # every draw converges in 15 to 17 iterations; a fifth are stopped before that
            options = ec.SweepOptions(max_iterations=12 if draw % 5 == 0 else 60)
            params, initial, weights, grid, _, schedule = _random_draw(
                rng, n, to_exposed, impulses, h=0.05
            )
            sol = fbsm_solve(initial, params, weights, grid, schedule, options)
            ref = _ref_fbsm_solve(initial, params, weights, grid, schedule, options)
            arrays = (
                (sol.controls.grid, ref.controls.grid),
                (sol.controls.u, ref.controls.u),
                (sol.controls.v, ref.controls.v),
                (sol.state_traj.node_times, ref.state_traj.node_times),
                (sol.state_traj.states_pre, ref.state_traj.states_pre),
                (sol.state_traj.states_post, ref.state_traj.states_post),
                (sol.adjoint_traj.node_times, ref.adjoint_traj.node_times),
                (sol.adjoint_traj.values_pre, ref.adjoint_traj.values_pre),
                (sol.adjoint_traj.values_post, ref.adjoint_traj.values_post),
                (sol.cost_history, ref.cost_history),
            )
            for got, want in arrays:
                assert _bitwise_equal(got, want)
                assert np.all(np.isfinite(got))
            assert sol.cost == ref.cost == sol.cost_history[-1]
            assert (sol.iterations, sol.converged) == (ref.iterations, ref.converged)
            assert sol.converged or sol.iterations == options.max_iterations
            assert sol.state_traj.impulse_nodes == ref.state_traj.impulse_nodes
            assert sol.cost <= sol.cost_history[0]  # the first pass runs the zero controls
            ended.add(sol.converged)
        assert ended == {True, False}

    def test_coarse_steps_end_converged_or_say_so(self, covid19, default_weights, monkeypatch):
        # steps up to 2 and beta from 1e-4 to 1e-3, on short horizons: a StabilityError comes only
        # from the first pass, which runs the zero controls; the C and the Python update agree
        params, initial = covid19
        monkeypatch.setattr(native, "_PAYBACK", 0)
        rng = np.random.default_rng(9)
        ended = []
        for _ in range(24):
            drawn = dataclasses.replace(params, beta=float(rng.uniform(1e-4, 1e-3)))
            grid = ec.TimeGrid(float(rng.uniform(5.0, 15.0)), float(rng.uniform(0.1, 2.0)))
            options = ec.SweepOptions(max_iterations=60)
            try:
                sol = fbsm_solve(initial, drawn, default_weights, grid, None, options)
            except ec.StabilityError:
                with pytest.raises(ec.StabilityError):
                    ec.integrate_forward(initial, zero_controls(grid, drawn), drawn, grid)
                ended.append("first pass")
                continue
            with monkeypatch.context() as patch:
                patch.setattr(native, "_library", lambda n, to_exposed: None)
                python = fbsm_solve(initial, drawn, default_weights, grid, None, options)
            outputs = ("controls.u", "controls.v", "state_traj.states_post", "adjoint_traj.values_post")
            for name in (*outputs, "cost_history"):
                got, want = (operator.attrgetter(name)(x) for x in (sol, python))
                assert _bitwise_equal(got, want) and np.isfinite(got).all()
            assert (sol.iterations, sol.converged) == (python.iterations, python.converged)
            ended.append("converged" if sol.converged else "ended early")
            assert sol.converged or sol.iterations < options.max_iterations
        assert set(ended) == {"converged", "ended early", "first pass"}
