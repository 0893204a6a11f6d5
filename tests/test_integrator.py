import functools
import logging
import re
import shutil
import subprocess

import numpy as np
import pytest

import epictrl as ec
from epictrl.control import CostWeights, _hamiltonian, _running_cost_arrays
from epictrl.integrator import _Binder, _sampled_controls
from epictrl import model, native
from epictrl.model import A, D, E, I, R, S, V0, ModelParams, _NEGATIVE_TOL, _kernels


def zero_controls(grid, params):
    return ec.ControlSignal.constant(grid.times, 0.0, 0.0, params.v_max)


class TestTimeGrid:
    def test_whole_number_of_steps(self):
        grid = ec.TimeGrid(35.0, 0.01)
        assert grid.n_steps == 3500
        assert grid.times.shape == (3501,)
        assert grid.times[0] == 0.0
        assert grid.times[-1] == pytest.approx(35.0)

    def test_rounds_horizon_and_records_request(self):
        grid = ec.TimeGrid(1.004, 0.01)
        assert grid.n_steps == 100
        assert grid.tau == pytest.approx(1.0)
        assert grid.tau_requested == 1.004

    def test_derived_fields_are_not_arguments(self):
        with pytest.raises(TypeError):
            ec.TimeGrid(35.0, 0.01, n_steps=7)
        with pytest.raises(TypeError):
            ec.TimeGrid(35.0, 0.01, tau_requested=1.0)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            ec.TimeGrid(1.0, 0.0)
        with pytest.raises(ValueError):
            ec.TimeGrid(0.001, 0.01)
        with pytest.raises(ValueError, match="h: too small"):
            ec.TimeGrid(1e300, 1e-10)

    def test_caps_the_step_count(self):
        # a sweep holds about 350 bytes a step, so a grid takes 10^6 steps at most
        assert ec.TimeGrid(1.0, 1e-6).n_steps == 10**6
        line = r"^TimeGrid: h: too small: tau/h = 1000001 steps, above the cap of 1,000,000 \(a sweep"
        with pytest.raises(ValueError, match=line):
            ec.TimeGrid(1.000001, 1e-6)

    def test_node_index_snaps_and_rejects(self):
        grid = ec.TimeGrid(10.0, 0.01)
        assert grid.node_index(0.25) == 25
        with pytest.raises(ec.ScheduleError):
            grid.node_index(0.255)
        with pytest.raises(ec.ScheduleError):
            grid.node_index(11.0)


class TestSampledControls:
    """The passes read a signal's own node samples and its cached midpoints when it is sampled on
    the grid they march; both are what interpolating it there gives."""

    @pytest.fixture
    def signal(self, rng):
        grid = ec.TimeGrid(2.0, 0.1)
        v, u = 3.0 * rng.random(21), rng.random(21)
        v[[0, 5, 6]] = u[[0, 9, 20]] = -0.0  # in the box, and two -0.0 neighbours
        return grid, ec.ControlSignal(grid.times, v, u, 3.0)

    def test_samples_equal_interpolation_bitwise(self, signal):
        grid, controls = signal
        times = grid.times
        shared = _sampled_controls(controls, grid)
        assert shared[0] is controls.v and shared[1] is controls.u
        assert shared[2:] == controls.midpoints
        # a copy of the grid is not the grid: np.interp samples the controls there
        interpolated = (*controls.at(times.copy()), *controls.at(0.5 * (times[:-1] + times[1:])))
        for got, want in zip(shared, interpolated, strict=True):
            assert _bitwise_equal(got, want)
        assert np.signbit(shared[0][[0, 5, 6]]).all() and np.signbit(shared[1][[0, 9, 20]]).all()

    def test_cached_arrays_are_read_only(self, signal):
        grid, controls = signal
        assert grid.times is grid.times and controls.midpoints is controls.midpoints
        for cached in (grid.times, *controls.midpoints):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 1.0


class TestIntegrateForward:
    def test_zero_state_stays_zero(self, covid19):
        params, _ = covid19
        grid = ec.TimeGrid(2.0, 0.01)
        zero = ec.StateVector(0, 0, 0, 0, 0, 0, (0, 0))
        traj = ec.integrate_forward(zero, zero_controls(grid, params), params, grid)
        assert np.all(traj.states_post == 0.0)

    def test_population_plus_deaths_conserved(self, covid19):
        params, initial = covid19
        grid = ec.TimeGrid(35.0, 0.01)
        traj = ec.integrate_forward(initial, zero_controls(grid, params), params, grid)
        sink = traj.population() + traj.states_post[:, D]
        assert np.max(np.abs(sink - 10000.0)) / 10000.0 < 1e-6

    def test_population_monotone_between_impulses(self, covid19):
        params, initial = covid19
        grid = ec.TimeGrid(10.0, 0.01)
        traj = ec.integrate_forward(initial, zero_controls(grid, params), params, grid)
        n = traj.population()
        assert np.all(np.diff(n) <= 1e-9)

    def test_non_negative_compartments(self, covid19):
        params, initial = covid19
        grid = ec.TimeGrid(35.0, 0.01)
        controls = ec.ControlSignal.constant(grid.times, params.v_max, 1.0, params.v_max)
        traj = ec.integrate_forward(initial, controls, params, grid)
        assert traj.states_post.min() >= -1e-9 * 10000.0

    def test_jump_doubles_frozen_susceptibles(self, covid19):
        # pure-S start with no infectious pools: dynamics freeze, so the
        # t=1 impulse with lam1=1 is the only change
        params, _ = covid19
        grid = ec.TimeGrid(2.0, 0.01)
        pure_s = ec.StateVector(100, 0, 0, 0, 0, 0, (0, 0))
        sched = ec.ImpulseSchedule((ec.ImpulseEvent(1.0, (1.0, 0, 0, 0)),))
        traj = ec.integrate_forward(pure_s, zero_controls(grid, params), params, grid, sched)
        node = grid.node_index(1.0)
        assert traj.states_pre[node, S] == pytest.approx(100.0)
        assert traj.states_post[node, S] == pytest.approx(200.0)
        assert traj.states_post[-1, S] == pytest.approx(200.0)

    def test_impulse_rows_duplicated(self, covid19):
        params, initial = covid19
        grid = ec.TimeGrid(2.0, 0.01)
        sched = ec.ImpulseSchedule((ec.ImpulseEvent(1.0, (0.1, 0.1, 0.1, 0.1)),))
        traj = ec.integrate_forward(initial, zero_controls(grid, params), params, grid, sched)
        times = traj.times
        assert len(times) == len(grid.times) + 1
        dup = np.nonzero(np.diff(times) == 0.0)[0]
        assert len(dup) == 1
        assert times[dup[0]] == pytest.approx(1.0)

    def test_impulse_bookkeeping_exact(self, covid19, rng):
        params, initial = covid19
        grid = ec.TimeGrid(5.0, 0.01)
        events = tuple(
            ec.ImpulseEvent(t, tuple(rng.uniform(0, 1, size=4))) for t in (1.0, 2.5, 4.0)
        )
        sched = ec.ImpulseSchedule(events)
        traj = ec.integrate_forward(initial, zero_controls(grid, params), params, grid, sched)
        for ev in events:
            node = grid.node_index(ev.time)
            pre = traj.states_pre[node]
            gained = traj.population()[node] - traj.population("pre")[node]
            expected = sum(l * x for l, x in zip(ev.lam, pre[:4]))
            assert gained == pytest.approx(expected, rel=1e-12)
        # between jumps the living population still declines
        n_post = traj.population()
        n_pre = traj.population("pre")
        declines = n_pre[1:] - n_post[:-1]
        assert np.all(declines <= 1e-9)

    def test_off_grid_impulse_rejected(self, covid19):
        params, initial = covid19
        grid = ec.TimeGrid(2.0, 0.01)
        sched = ec.ImpulseSchedule((ec.ImpulseEvent(1.0005, (0.1, 0, 0, 0)),))
        with pytest.raises(ec.ScheduleError):
            ec.integrate_forward(initial, zero_controls(grid, params), params, grid, sched)

    def test_impulse_outside_horizon_rejected(self, covid19):
        params, initial = covid19
        grid = ec.TimeGrid(2.0, 0.01)
        sched = ec.ImpulseSchedule((ec.ImpulseEvent(2.0, (0.1, 0, 0, 0)),))
        with pytest.raises(ec.ScheduleError):
            ec.integrate_forward(initial, zero_controls(grid, params), params, grid, sched)

    def test_blowup_raises_stability_error(self, covid19):
        params, initial = covid19
        stiff = ec.ModelParams(**{**params.__dict__, "beta": 0.01})
        grid = ec.TimeGrid(35.0, 1.0)
        with pytest.raises(ec.StabilityError):
            ec.integrate_forward(initial, zero_controls(grid, stiff), stiff, grid)

    def test_richardson_ratio_is_fourth_order(self, covid19):
        params, initial = covid19
        trajs = {}
        for h in (0.02, 0.01, 0.005):
            grid = ec.TimeGrid(10.0, h)
            trajs[h] = ec.integrate_forward(initial, zero_controls(grid, params), params, grid)
        x1 = trajs[0.02].states_post
        x2 = trajs[0.01].states_post[::2]
        x4 = trajs[0.005].states_post[::4]
        ratio = np.max(np.abs(x1 - x2)) / np.max(np.abs(x2 - x4))
        assert 12.0 <= ratio <= 20.0


class TestAdjointVector:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            ec.AdjointVector((1, 2, 3), (0.0,))
        vec = ec.AdjointVector((1, 2, 3, 4, 5, 6), (7, 8))
        assert np.all(vec.as_array() == np.arange(1.0, 9.0))


class TestIntegrateAdjointBackward:
    def test_zero_forcing_keeps_adjoints_zero(self, covid19):
        # no epidemic-cost weights and no infectious pools: homogeneous
        # system from a zero terminal state
        params, _ = covid19
        grid = ec.TimeGrid(2.0, 0.01)
        weights = ec.CostWeights(omega=(0, 0, 0, 0))
        pure_s = ec.StateVector(500, 0, 0, 0, 0, 0, (0, 0))
        controls = zero_controls(grid, params)
        traj = ec.integrate_forward(pure_s, controls, params, grid)
        adj = ec.integrate_adjoint_backward(traj, controls, params, weights, grid)
        assert np.all(adj.values_post == 0.0)

    def test_decoupled_symptomatic_costate_closed_form(self, covid19):
        # with beta=0, u=0, omega=(0,0,0,1): p4' = f*p4 - 1 and p4(tau)=0,
        # so p4(t) = (1 - exp(-f*(tau-t)))/f
        params, initial = covid19
        p0 = ec.ModelParams(**{**params.__dict__, "beta": 0.0})
        weights = ec.CostWeights(omega=(0, 0, 0, 1))
        grid = ec.TimeGrid(5.0, 0.01)
        controls = zero_controls(grid, p0)
        traj = ec.integrate_forward(initial, controls, p0, grid)
        adj = ec.integrate_adjoint_backward(traj, controls, p0, weights, grid)
        t = grid.times
        exact = (1.0 - np.exp(-p0.f * (grid.tau - t))) / p0.f
        check = np.linspace(0, grid.n_steps, 10, dtype=int)
        for node in check:
            assert adj.values_post[node, 3] == pytest.approx(exact[node], abs=1e-6)

    def test_recovered_and_deceased_costates_stay_zero(self, default_solution):
        # exactly +0.0 (bytes, which -0.0 fails), as is q_n without its breakthrough
        # flow: the backward pass does no arithmetic on these rows at all
        adj = default_solution.adjoint_traj
        rng = np.random.default_rng(95)
        cases = [(adj, [4, 5])]
        for n in (2, 3, 4, 5):
            params, initial, weights, grid, controls, schedule = _random_draw(rng, n, False, 2)
            traj = ec.integrate_forward(initial, controls, params, grid, schedule)
            adj = ec.integrate_adjoint_backward(traj, controls, params, weights, grid, schedule)
            cases.append((adj, [4, 5, n + 5]))
        for adj, zero in cases:
            for values in (adj.values_pre, adj.values_post):
                assert values[:, zero].tobytes() == np.zeros((len(values), len(zero))).tobytes()

    def test_terminal_condition_exact(self, default_solution):
        assert np.all(default_solution.adjoint_traj.values_post[-1] == 0.0)

    def test_grid_mismatch_rejected(self, covid19, default_weights):
        params, initial = covid19
        grid = ec.TimeGrid(2.0, 0.01)
        other = ec.TimeGrid(2.0, 0.02)
        controls = zero_controls(grid, params)
        traj = ec.integrate_forward(initial, controls, params, grid)
        with pytest.raises(ec.GridMismatchError):
            ec.integrate_adjoint_backward(
                traj, zero_controls(other, params), params, default_weights, other
            )

    def test_schedule_mismatch_rejected(self, covid19, default_weights):
        params, initial = covid19
        grid = ec.TimeGrid(2.0, 0.01)
        controls = zero_controls(grid, params)
        traj = ec.integrate_forward(initial, controls, params, grid)
        sched = ec.ImpulseSchedule((ec.ImpulseEvent(1.0, (0.1, 0, 0, 0)),))
        with pytest.raises(ec.GridMismatchError):
            ec.integrate_adjoint_backward(traj, controls, params, default_weights, grid, sched)

    def test_multiplicative_jump_matches_cost_gradient(self, covid19, default_weights):
        # the costate jump convention is validated against central
        # differences of the cost: the multiplicative form tracks the true
        # gradient at cells upstream of the impulses, the additive form
        # visibly does not
        params, initial = covid19
        grid = ec.TimeGrid(5.0, 0.01)
        sched = ec.ImpulseSchedule(
            (
                ec.ImpulseEvent(1.5, (0.3, 0.2, 0.1, 0.4)),
                ec.ImpulseEvent(3.0, (0.2, 0.2, 0.2, 0.2)),
            )
        )
        controls = ec.ControlSignal.constant(grid.times, 0.5, 0.5, params.v_max)
        for which in ("u", "v"):
            for cell in (40, 90, 120):
                fd = ec.finite_difference_gradient(
                    initial, params, default_weights, controls, grid, cell, 1e-3, which,
                    schedule=sched,
                )
                mult = ec.adjoint_gradient(
                    initial, params, default_weights, controls, grid, cell, which,
                    schedule=sched,
                )
                assert abs(fd - mult) / abs(fd) < 1e-3

    def test_adjoint_impulse_jump_modes(self, covid19, default_weights):
        params, initial = covid19
        grid = ec.TimeGrid(2.0, 0.01)
        lam = (0.2, 0.1, 0.0, 0.3)
        sched = ec.ImpulseSchedule((ec.ImpulseEvent(1.0, lam),))
        controls = zero_controls(grid, params)
        traj = ec.integrate_forward(initial, controls, params, grid, sched)
        node = grid.node_index(1.0)
        mult = ec.integrate_adjoint_backward(traj, controls, params, default_weights, grid, sched)
        np.testing.assert_allclose(
            mult.values_pre[node, :4], mult.values_post[node, :4] * (1.0 + np.array(lam))
        )


# Reference for the seed-equivalence tests below: the numpy formulation that
# the float step loops replaced, kept verbatim (the removed midpoint-state
# mode and literal costate jump aside).  Both passes must reproduce it bit for
# bit.

# Jumps act on the first four compartments (S, E, A, I) and their costates.
_JUMP_SLOTS = 4


def _ref_deriv(y: np.ndarray, v: float, u: float, pr: ModelParams) -> np.ndarray:
    """Right-hand side of the controlled dynamics on the canonical layout."""
    g, d = pr.gamma, pr.delta
    n = len(g)
    s, e, a, i = y[S], y[E], y[A], y[I]
    force = pr.epsilon * e + (1.0 - pr.q) * i + pr.mu * a
    infect = pr.beta * force * s
    leak = 0.0
    for j in range(n - 1):
        leak += d[j] * y[V0 + j]
    if pr.delta_n_to_exposed:
        leak += d[n - 1] * y[V0 + n - 1]
    out = np.empty_like(y)
    out[S] = -infect - g[0] * v * s
    out[E] = infect - pr.k * e + leak
    out[A] = (1.0 - pr.z) * pr.k * e - pr.eta * a
    out[I] = pr.z * pr.k * e + (1.0 - pr.p) * pr.eta * a - pr.f * i - u * i
    out[R] = pr.alpha * pr.f * i + u * i + pr.p * pr.eta * a
    out[D] = (1.0 - pr.alpha) * pr.f * i
    out[V0] = g[0] * v * s - g[1] * v * y[V0] - d[0] * y[V0]
    for j in range(1, n - 1):
        out[V0 + j] = g[j] * v * y[V0 + j - 1] - g[j + 1] * v * y[V0 + j] - d[j] * y[V0 + j]
    out[V0 + n - 1] = g[n - 1] * v * y[V0 + n - 2]
    if pr.delta_n_to_exposed:
        out[V0 + n - 1] -= d[n - 1] * y[V0 + n - 1]
    return out


def _ref_apply_impulse(y: np.ndarray, lam) -> np.ndarray:
    out = y.copy()
    out[S] *= 1.0 + lam[0]
    out[E] *= 1.0 + lam[1]
    out[A] *= 1.0 + lam[2]
    out[I] *= 1.0 + lam[3]
    return out


def _ref_adjoint_deriv(pq, y, v, u, pr: ModelParams, weights: CostWeights):
    """Costate derivative on the canonical layout [p1..p6, q1..qn]."""
    w1, w2, w3, w4 = weights.omega
    g, d = pr.gamma, pr.delta
    n = len(g)
    p1, p2, p3, p4, p5, p6 = pq[0], pq[1], pq[2], pq[3], pq[4], pq[5]
    qd = pq[6:]
    s = y[S]
    force = pr.epsilon * y[E] + (1.0 - pr.q) * y[I] + pr.mu * y[A]
    out = np.empty_like(pq)
    out[0] = pr.beta * force * (p1 - p2) + g[0] * v * (p1 - qd[0]) - w1
    out[1] = (
        pr.beta * pr.epsilon * s * (p1 - p2)
        + pr.k * (p2 - (1.0 - pr.z) * p3 - pr.z * p4)
        - w2
    )
    out[2] = (
        pr.beta * pr.mu * s * (p1 - p2)
        + pr.eta * p3
        - (1.0 - pr.p) * pr.eta * p4
        - w3
    )
    out[3] = (
        pr.beta * (1.0 - pr.q) * s * (p1 - p2)
        + u * (p4 - p5)
        + pr.f * (p4 - pr.alpha * p5)
        - (1.0 - pr.alpha) * pr.f * p6
        - w4
    )
    out[4] = 0.0
    out[5] = 0.0
    out[6] = d[0] * (qd[0] - p2) + g[1] * v * (qd[0] - qd[1])
    for j in range(1, n - 1):
        out[6 + j] = -d[j] * p2 + (g[j + 1] * v + d[j]) * qd[j] - g[j + 1] * v * qd[j + 1]
    out[6 + n - 1] = d[n - 1] * (qd[n - 1] - p2) if pr.delta_n_to_exposed else 0.0
    return out


def _ref_forward(initial, controls, params, grid, schedule=None):
    """Seed forward step loop; returns (states_pre, states_post)."""
    imap = _Binder(params, grid, schedule).imap
    v_n, u_n, v_m, u_m = _sampled_controls(controls, grid)
    times = grid.times
    h = grid.h
    steps = grid.n_steps
    dim = 6 + params.n

    y = initial.as_array()
    n0 = float(y.sum() - y[D])
    tol = 1e-9 * n0
    pre = np.empty((steps + 1, dim))
    post = np.empty((steps + 1, dim))
    pre[0] = post[0] = y

    for i in range(steps):
        k1 = _ref_deriv(y, v_n[i], u_n[i], params)
        k2 = _ref_deriv(y + (0.5 * h) * k1, v_m[i], u_m[i], params)
        k3 = _ref_deriv(y + (0.5 * h) * k2, v_m[i], u_m[i], params)
        k4 = _ref_deriv(y + h * k3, v_n[i + 1], u_n[i + 1], params)
        y1 = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        lowest = y1.min()
        if lowest < 0.0:
            if lowest < -tol:
                raise ec.StabilityError(
                    f"compartment reached {lowest:.3e} at t={times[i + 1]:.6g}; reduce h"
                )
            np.maximum(y1, 0.0, out=y1)
        pre[i + 1] = y1
        lam = imap.get(i + 1)
        if lam is not None:
            y1 = _ref_apply_impulse(y1, lam)
        post[i + 1] = y1
        y = y1
    return pre, post


def _ref_backward(traj, controls, params, weights, grid, schedule=None):
    """Seed backward step loop; returns (values_pre, values_post)."""
    imap = _Binder(params, grid, schedule).imap
    v_n, u_n, v_m, u_m = _sampled_controls(controls, grid)
    h = grid.h
    steps = grid.n_steps
    dim = 6 + params.n
    pre = np.empty((steps + 1, dim))
    post = np.empty((steps + 1, dim))

    pq = np.zeros(dim)
    pre[steps] = post[steps] = pq
    for i in range(steps - 1, -1, -1):
        x_right = traj.states_pre[i + 1]
        x_left = traj.states_post[i]
        x_mid = 0.5 * (x_left + x_right)
        k1 = _ref_adjoint_deriv(pq, x_right, v_n[i + 1], u_n[i + 1], params, weights)
        k2 = _ref_adjoint_deriv(pq - (0.5 * h) * k1, x_mid, v_m[i], u_m[i], params, weights)
        k3 = _ref_adjoint_deriv(pq - (0.5 * h) * k2, x_mid, v_m[i], u_m[i], params, weights)
        k4 = _ref_adjoint_deriv(pq - h * k3, x_left, v_n[i], u_n[i], params, weights)
        pq = pq - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        post[i] = pq
        lam = imap.get(i)
        if lam is not None:
            pq = pq.copy()
            pq[:_JUMP_SLOTS] *= 1.0 + np.asarray(lam)
        pre[i] = pq
    return pre, post


def _ref_rows(node_times, pre, post, impulse_nodes):
    """Seed row views: (times, rows), every impulse node listed twice."""
    dup = set(impulse_nodes)
    times, rows = [], []
    for j in range(len(node_times)):
        times.append(node_times[j])
        rows.append(pre[j])
        if j in dup:
            times.append(node_times[j])
            rows.append(post[j])
    return np.array(times), np.array(rows)


def _random_draw(rng, n, delta_n_to_exposed, impulses, tau=4.0, h=0.01):
    """Admissible model, state, weights and piecewise-linear controls, with impulses on a
    number of random interior nodes or on the given ones."""
    gamma = np.sort(rng.uniform(0.1, 1.0, size=n))[::-1]
    delta = np.minimum(np.sort(rng.uniform(0.0, 0.05, size=n))[::-1], gamma)
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
        delta_n_to_exposed=delta_n_to_exposed,
    )
    pools = rng.uniform(0.0, 2500.0, size=4)
    doses = rng.uniform(0.0, 500.0, size=n)
    initial = ec.StateVector(*pools, 0.0, 0.0, tuple(doses))
    weights = ec.CostWeights(
        omega=tuple(rng.uniform(0.0, 2.0, size=4)), sigma0=50.0, sigma=tuple(rng.uniform(10, 90, size=n))
    )
    grid = ec.TimeGrid(tau, h)
    # controls sampled on a coarser grid, so stage midpoints interpolate
    knots = np.linspace(0.0, grid.tau, 9)
    controls = ec.ControlSignal(
        knots, rng.uniform(0.0, params.v_max, size=9), rng.uniform(0.0, 1.0, size=9), params.v_max
    )
    schedule = None
    if impulses:
        if isinstance(impulses, int):
            impulses = np.sort(rng.choice(np.arange(1, grid.n_steps), size=impulses, replace=False))
        schedule = ec.ImpulseSchedule(
            tuple(
                ec.ImpulseEvent(float(node * grid.h), tuple(rng.uniform(0.0, 0.5, size=4)))
                for node in impulses
            )
        )
    return params, initial, weights, grid, controls, schedule


def _bitwise_equal(a, b) -> bool:
    """Equal shapes and bytes: unlike ``np.array_equal``, tells -0.0 from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a, b) and a.tobytes() == b.tobytes()


def _assert_both_passes_match(params, initial, weights, grid, controls, schedule):
    traj = ec.integrate_forward(initial, controls, params, grid, schedule)
    pre, post = _ref_forward(initial, controls, params, grid, schedule)
    assert _bitwise_equal(traj.states_pre, pre)
    assert _bitwise_equal(traj.states_post, post)
    adj = ec.integrate_adjoint_backward(traj, controls, params, weights, grid, schedule)
    a_pre, a_post = _ref_backward(traj, controls, params, weights, grid, schedule)
    assert _bitwise_equal(adj.values_pre, a_pre)
    assert _bitwise_equal(adj.values_post, a_post)
    return traj, adj


@pytest.mark.usefixtures("segment_path")
class TestSeedEquivalence:
    """Both passes against the numpy reference, on the C marches from the first step and on the
    Python march, the fallback where no C compiler is found."""

    @pytest.mark.parametrize("delta_n_to_exposed", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_passes_bitwise_equal_to_numpy_reference(self, n, delta_n_to_exposed):
        rng = np.random.default_rng(1000 * n + delta_n_to_exposed)
        for impulses in range(4):
            draw = _random_draw(rng, n, delta_n_to_exposed, impulses)
            _assert_both_passes_match(*draw)
        if n == 3:
            # one-step runs between impulses at either end of the 400-step grid
            for nodes in ((1, 399), (1, 2), (398, 399)):
                _assert_both_passes_match(*_random_draw(rng, n, delta_n_to_exposed, nodes))

    def test_default_scenario_with_adjacent_impulses(self, covid19, default_weights):
        # the full 3500-step covid19 grid, with impulses on two adjacent
        # nodes: the step between them starts and ends at a jump
        params, initial = covid19
        grid = ec.TimeGrid(35.0, 0.01)
        controls = ec.ControlSignal.constant(grid.times, 0.3, 0.4, params.v_max)
        sched = ec.ImpulseSchedule(
            (
                ec.ImpulseEvent(3243 * grid.h, (0.4, 0.3, 0.2, 0.1)),
                ec.ImpulseEvent(3244 * grid.h, (0.1, 0.2, 0.3, 0.4)),
            )
        )
        _assert_both_passes_match(params, initial, default_weights, grid, controls, sched)

    def test_positivity_clamp_matches(self, covid19, default_weights, caplog):
        # a huge inert recovered pool widens the clamp tolerance, so the
        # coarse step's overshoot of E below zero is clamped, not fatal
        params, _ = covid19
        fast = ec.ModelParams(**{**params.__dict__, "beta": 0.02})
        initial = ec.StateVector(50.0, 100.0, 100.0, 400.0, 1e12, 0.0, (0.0, 0.0))
        grid = ec.TimeGrid(10.0, 0.5)
        controls = zero_controls(grid, fast)
        with caplog.at_level(logging.DEBUG, logger="epictrl"):
            traj, _ = _assert_both_passes_match(fast, initial, default_weights, grid, controls, None)
        x = traj.states_pre
        clamped = np.flatnonzero((x[:-1, E] > 0.0) & (x[1:, E] == 0.0))
        assert clamped.size
        # the forward pass reports its clamps once, with their count and the lowest value
        (record,) = [r for r in caplog.records if "clamped" in r.getMessage()]
        count, lowest = record.args
        assert record.levelno == logging.DEBUG and count >= clamped.size
        assert -_NEGATIVE_TOL * (initial.as_array().sum() - initial.D) <= lowest < 0.0

    def test_coarse_step_still_raises(self, covid19):
        params, initial = covid19
        grid = ec.TimeGrid(35.0, 1.0)
        doubled = ec.ImpulseSchedule(tuple(ec.ImpulseEvent(t, (1.0,) * 4) for t in (2.0, 20.0)))
        # at h=1 a stiff beta fails the first step; the preset's fails only after the
        # arrivals at t=2 double S, E, A and I: in the second run of steps, at t=3
        for beta, schedule, t in ((0.01, None, "t=1;"), (params.beta, doubled, "t=3;")):
            stiff = ec.ModelParams(**{**params.__dict__, "beta": beta})
            controls = zero_controls(grid, stiff)
            with pytest.raises(ec.StabilityError) as ref:
                _ref_forward(initial, controls, stiff, grid, schedule)
            with pytest.raises(ec.StabilityError) as new:
                ec.integrate_forward(initial, controls, stiff, grid, schedule)
            assert str(new.value) == str(ref.value)
            assert t in str(new.value)

    def test_row_views_match_loops(self):
        params, initial, weights, grid, controls, schedule = _random_draw(
            np.random.default_rng(7), 3, False, 3
        )
        traj, adj = _assert_both_passes_match(params, initial, weights, grid, controls, schedule)
        for got_t, got_rows, pre, post in (
            (traj.times, traj.states, traj.states_pre, traj.states_post),
            (adj.times, adj.values, adj.values_pre, adj.values_post),
        ):
            times, rows = _ref_rows(grid.times, pre, post, traj.impulse_nodes)
            assert _bitwise_equal(got_t, times)
            assert _bitwise_equal(got_rows, rows)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_single_calls_exact(self, n):
        rng = np.random.default_rng(n)
        for dn in (False, True):
            params, _, weights, _, _, _ = _random_draw(rng, n, dn, 0)
            y = rng.uniform(0.0, 5000.0, size=n + 6)
            pq = rng.normal(0.0, 10.0, size=n + 6)
            v, u = float(rng.uniform(0.0, params.v_max)), float(rng.uniform(0.0, 1.0))
            state = ec.StateVector.from_array(y)
            adjoint = ec.AdjointVector.from_array(pq)
            assert _bitwise_equal(ec.vector_field(state, v, u, params), _ref_deriv(y, v, u, params))
            assert _bitwise_equal(
                ec.adjoint_rhs(adjoint, state, u, v, params, weights),
                _ref_adjoint_deriv(pq, y, v, u, params, weights),
            )
            ham = float(
                _running_cost_arrays(y, u, v, weights, params) + pq @ _ref_deriv(y, v, u, params)
            )
            assert _bitwise_equal(_hamiltonian(state, adjoint, u, v, params, weights), ham)

    def test_rates_bound_per_model(self):
        # two models with the same dose count and flag share one compiled step;
        # marched alternately, each must still run on its own rates
        rng = np.random.default_rng(4242)
        draws = [_random_draw(rng, 3, True, 2) for _ in range(2)]
        assert draws[0][0] != draws[1][0]
        for _ in range(2):
            for draw in draws:
                _assert_both_passes_match(*draw)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_generated_kernels_are_complex_safe(self, n):
        # complex-step differentiation needs the fields and steps to be
        # arithmetic only: a zero imaginary part must leave the real parts
        # bitwise the float results
        rng = np.random.default_rng(50 + n)
        for dn in (False, True):
            params, _, weights, _, _, _ = _random_draw(rng, n, dn, 0)
            state, state_step = _kernels(params)
            costate, _ = _kernels(params, weights.omega)
            y = rng.uniform(0.0, 5000.0, size=n + 6)
            pq = rng.normal(0.0, 10.0, size=n + 6)
            vu = tuple(rng.uniform(0.0, [params.v_max, 1.0]).tolist())
            point = (*rng.uniform(0.0, 5000.0, size=4).tolist(), *vu)
            c = lambda a: tuple(x + 0j for x in a)  # noqa: E731
            yc, pqc = (y + 0j).tolist(), (pq + 0j).tolist()
            rows, rowsc = y[state_step.rows].tolist(), (y[state_step.rows] + 0j).tolist()
            for real, cplx in (
                (state(y.tolist(), vu), state(yc, c(vu))),
                (state_step(rows, 0.01, vu), state_step(rowsc, 0.01, c(vu))),
                (costate(pq.tolist(), point), costate(pqc, c(point))),
            ):
                assert _bitwise_equal(np.real(np.array(cplx)), real)


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


def _march_both(monkeypatch, run):
    """``run()`` on the native march, then on the Python march."""
    native_result = run()
    with monkeypatch.context() as patch:
        patch.setattr(native, "_library", lambda n, to_exposed: None)
        return native_result, run()


def _runs_c(march) -> bool:
    """Whether a march of ``model._kernels`` runs its C loop."""
    return march.func is native._run


class TestNativeMarch:
    """The compiled marches against the Python march they are translated from."""

    @pytest.fixture(autouse=True)
    def from_the_first_step(self, monkeypatch):
        monkeypatch.setattr(native, "_PAYBACK", 0)

    @needs_cc
    @pytest.mark.parametrize("to_exposed", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_built_for_every_dose_count(self, n, to_exposed):
        # the state and costate marches, the CSV formatter, the sweep's step between passes and
        # the oracle's segment kernel
        assert set(native._library(n, to_exposed)) == {False, True, "format", "update", "segment"}

    @pytest.fixture
    def clamping(self, covid19):
        """test_positivity_clamp_matches's scenario at a coarser step, which clamps twice."""
        params, _ = covid19
        fast = ec.ModelParams(**{**params.__dict__, "beta": 0.02})
        initial = ec.StateVector(50.0, 100.0, 100.0, 400.0, 1e12, 0.0, (0.0, 0.0))
        grid = ec.TimeGrid(10.0, 0.7)
        return fast, initial, grid, zero_controls(grid, fast)

    @needs_cc
    def test_clamped_rows_equal_python_march(self, clamping, monkeypatch, caplog):
        # at each clamp the march returns the node to integrate_forward, which clamps and
        # writes that row, then resumes the march there
        fast, initial, grid, controls = clamping
        assert _runs_c(_kernels(fast, march=True))
        with caplog.at_level(logging.DEBUG, logger="epictrl"):
            ours, theirs = _march_both(
                monkeypatch, lambda: ec.integrate_forward(initial, controls, fast, grid)
            )
        assert _bitwise_equal(ours.states_pre, theirs.states_pre)
        assert _bitwise_equal(ours.states_post, theirs.states_post)
        clamps = [r.args for r in caplog.records if "clamped" in r.getMessage()]
        assert len(clamps) == 2 and clamps[0] == clamps[1] and clamps[0][0] >= 2

    @needs_cc
    def test_both_marches_stop_at_the_first_negative_row(self, clamping, monkeypatch):
        fast, initial, grid, controls = clamping
        nodes = _sampled_controls(controls, grid)

        def run():
            march, out = _kernels(fast, march=True), np.full((grid.n_steps + 1, 8), np.nan)
            y0, a0 = initial.as_array().tolist(), (float(nodes[0][0]), float(nodes[1][0]))
            return _runs_c(march), *march(y0, a0, grid.h, 0, grid.n_steps, out, *nodes), out

        (c, node, y, out), (python, *theirs) = _march_both(monkeypatch, run)
        assert c and not python
        assert node == theirs[0] and 0 < node < grid.n_steps and min(y) < 0.0
        assert _bitwise_equal(y, theirs[1]) and out.tobytes() == theirs[2].tobytes()
        assert np.isnan(out[node:]).all()

    @needs_cc
    def test_too_coarse_step_raises_like_python_march(self, covid19, monkeypatch):
        params, initial = covid19
        grid = ec.TimeGrid(35.0, 1.0)
        doubled = ec.ImpulseSchedule(tuple(ec.ImpulseEvent(t, (1.0,) * 4) for t in (2.0, 20.0)))
        for beta, schedule, t in ((0.01, None, "t=1;"), (params.beta, doubled, "t=3;")):
            stiff = ec.ModelParams(**{**params.__dict__, "beta": beta})
            controls = zero_controls(grid, stiff)

            def run():
                with pytest.raises(ec.StabilityError) as caught:
                    ec.integrate_forward(initial, controls, stiff, grid, schedule)
                return str(caught.value)

            ours, theirs = _march_both(monkeypatch, run)
            assert ours == theirs and t in ours

    @needs_cc
    def test_short_buffers_are_refused(self, covid19):
        params, initial = covid19
        march = _kernels(params, march=True)
        assert _runs_c(march)
        y, nodes = initial.as_array().tolist(), np.zeros(11)
        with pytest.raises(IndexError):
            march(y, (0.0, 0.0), 0.1, 0, 10, np.empty((5, 8)), nodes, nodes, nodes, nodes)
        out = np.empty((11, 8))
        out.setflags(write=False)
        with pytest.raises(IndexError):
            march(y, (0.0, 0.0), 0.1, 0, 10, out, nodes, nodes, nodes, nodes)

    @needs_cc
    @pytest.mark.parametrize("costate", [False, True])
    def test_every_bound_buffer_is_checked_before_each_c_call(self, covid19, costate):
        # each array a march reads or writes is checked at every call, though its address is
        # taken once: a short, misshapen, strided, non-float or (to be written) read-only one, or
        # a memoryview, raises IndexError before the C loop runs
        params, initial = covid19
        calls = []
        built = _kernels(params, (1.0,) * 4 if costate else None, march=True)
        assert _runs_c(built)
        march = functools.partial(native._run, lambda *args: calls.append(args) or 0, *built.args[1:])
        y, a = [0.0] * 8, (1.0, 2.0, 3.0, 4.0, 0.0, 0.0) if costate else (0.0, 0.0)
        good = {"out": np.zeros((11, 8)), "vn": np.zeros(11), "un": np.zeros(11), "vm": np.zeros(10),
                "um": np.zeros(10), **({"x": np.zeros((10, 8))} if costate else {})}
        bad = [("out", np.zeros((10, 8))), ("out", np.zeros((11, 7))), ("out", np.zeros(88)),
               ("out", np.asfortranarray(np.zeros((11, 8)))), ("vn", np.zeros(10)), ("un", np.zeros((11, 1))),
               ("vm", np.zeros(9)), ("um", np.zeros(10, np.float32)), ("vn", np.zeros(22)[::2]),
               ("un", memoryview(np.zeros(11)))]
        bad += [("x", np.zeros((9, 8))), ("x", np.zeros((10, 9))), ("x", np.zeros((8, 10)).T)] if costate else []
        assert march(y, a, -0.1, 0, 10, *good.values()) == (0, y) and len(calls) == 1
        for name, buffer in bad:
            with pytest.raises(IndexError):
                march(y, a, -0.1, 0, 10, *{**good, name: buffer}.values())
        with pytest.raises(IndexError):
            march(y, a, -0.1, -1, 10, *good.values())
        good["out"].setflags(write=False)  # after its address was taken
        with pytest.raises(IndexError):
            march(y, a, -0.1, 0, 10, *good.values())
        assert len(calls) == 1

    def test_an_address_leaves_with_its_array(self):
        # the entry of an array dies with it, so a new array at the same id gets its own address
        table = np.zeros((3, 8))
        address, key = native._address(table, 3, 8, write=True), id(table)
        assert native._ADDRESSES[key][1] == address == table.ctypes.data
        with pytest.raises(ValueError, match="resize"):  # the weak reference pins the memory
            table.resize((6, 8))
        del table
        assert key not in native._ADDRESSES

    @needs_cc
    def test_read_only_samples_march_like_writable_ones(self, covid19, default_weights, monkeypatch):
        # the passes hand both marches a signal's read-only midpoints and the grid's read-only times
        params, initial = covid19
        grid = ec.TimeGrid(5.0, 0.05)
        rng = np.random.default_rng(7)
        v, u = params.v_max * rng.random(101), rng.random(101)
        controls = ec.ControlSignal(grid.times, v, u, params.v_max)
        assert not controls.midpoints[0].flags.writeable
        copied = ec.ControlSignal(grid.times.copy(), controls.v, controls.u, params.v_max)

        def run(signal):
            traj = ec.integrate_forward(initial, signal, params, grid)
            return traj, ec.integrate_adjoint_backward(traj, signal, params, default_weights, grid)

        assert _runs_c(_kernels(params, march=True))
        (traj, adj), *refs = *_march_both(monkeypatch, lambda: run(controls)), run(copied)
        for ref_traj, ref_adj in refs:  # the Python march, and the C march on writable samples
            assert _bitwise_equal(traj.states_pre, ref_traj.states_pre)
            assert _bitwise_equal(adj.values_post, ref_adj.values_post)

    @pytest.mark.parametrize(
        "line",
        ["x0 = y0 / 6.0", "x0 = abs(y0)", "x0 = y0 ** 2", "x0, x1 = y0, y1", "if y0 < 0.0:", "pass"],
    )
    def test_translation_rejects_a_foreign_line(self, line):
        _, prologue, loop, marched = model._source(2, False, False, True)
        at = loop.index("x0 = y0 + half * s0")
        native._translate("march", False, 8, prologue, loop, marched)  # the generated lines translate
        with pytest.raises(ValueError, match="no C translation"):
            native._translate("march", False, 8, prologue, [*loop[:at], line, *loop[at:]], marched)

    @needs_cc
    @pytest.mark.parametrize("to_exposed", [False, True])
    @pytest.mark.parametrize("n", [2, 5])
    def test_generated_c_has_no_warnings(self, n, to_exposed):
        # the library's parts, joined as native._library joins them, pass -Wall -Werror, so that
        # an unused or misdeclared name the translator writes fails here
        marches = [native._translate(f"march{k}", costate, n + 6, *model._source(n, to_exposed, costate, True)[1:])[0]
                   for k, costate in enumerate(native._KINDS)]
        kernel, _ = native._kernel(n + 6, *model._source(n, to_exposed, False, False)[1:])
        source = "\n".join([native._HEADER, *marches, native._FORMAT, native._UPDATE, kernel])
        cmd = ["cc", "-std=c99", "-fsyntax-only", "-Wall", "-Werror", "-x", "c", "-"]
        checked = subprocess.run(cmd, input=source, text=True, capture_output=True, timeout=60)
        assert checked.returncode == 0, checked.stderr

    @pytest.mark.parametrize("fault", ["no compiler", "compile error", None])
    def test_logs_once_which_march_runs(self, fault, covid19, monkeypatch, caplog, tmp_path):
        if fault is None and shutil.which("cc") is None:
            pytest.skip("no C compiler")
        if fault == "no compiler":
            monkeypatch.setenv("PATH", str(tmp_path))
        elif fault == "compile error":
            monkeypatch.setattr(native, "_HEADER", "#error refused")
        monkeypatch.setattr(native, "_library", functools.cache(native._library.__wrapped__))
        monkeypatch.setattr(native, "_STEPS", {})
        params, _ = covid19
        with caplog.at_level(logging.DEBUG, logger="epictrl"):
            built = [_kernels(params, march=True), _kernels(params, (1.0,) * 4, march=True)]
        (record,) = [r for r in caplog.records if "marches" in r.getMessage()]
        assert [_runs_c(march) for march in built] == [fault is None] * 2
        assert ("C marches from step 0, compiled in" if fault is None else "Python marches (") in record.getMessage()


class TestNativePayback:
    """A process runs the Python marches of a dose count until they, with the pass about to
    run, reach ``native._PAYBACK`` steps, about what a compile costs, and compiles then."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The steps counted at each call of a stand-in for the compile, and its march."""
        asked = []

        def fake(*args):
            raise AssertionError("a stand-in march does not run")

        def library(n, to_exposed):
            asked.append(native._STEPS[n, to_exposed])
            return dict.fromkeys(native._KINDS, fake)

        monkeypatch.setattr(native, "_STEPS", {})
        monkeypatch.setattr(native, "_PAYBACK", 1000)
        monkeypatch.setattr(native, "_library", library)
        return asked, fake

    def test_compiles_once_the_steps_pay(self, built, covid19):
        built, fake = built
        params, _ = covid19
        assert _kernels(params, march=True, steps=600).func is not fake
        assert _kernels(params, (1.0,) * 4, march=True, steps=399).func is not fake
        assert _kernels(params, march=True, steps=1).func is fake  # 1000 steps
        assert _kernels(params, (1.0,) * 4, march=True, steps=600).func is fake
        assert built == [1000, 1600]

    def test_counts_each_dose_count_and_flag_apart(self, built, covid19):
        built, fake = built
        params, _ = covid19
        other = ec.ModelParams(**{**params.__dict__, "delta_n_to_exposed": True})
        assert _kernels(params, march=True, steps=999).func is not fake
        assert _kernels(other, march=True, steps=999).func is not fake
        assert _kernels(other, march=True, steps=1000).func is fake  # one pass that pays alone
        assert built == [1999] and native._STEPS == {(2, False): 999, (2, True): 1999}

    def test_an_oracle_search_counts_its_seed_march(self, built, covid19, default_weights):
        # C04's nine constant candidates, 5 segments of 20 steps each, count 900 steps at the
        # search's one ``_marches`` call, as nine forward passes of 100 steps would; a second
        # search reaches the payback there and runs no forward pass on the stand-in march
        built, _ = built
        params, initial = covid19
        cfg = ec.OracleConfig(horizon=5.0, segments=5, u_levels=3, v_levels=3)
        ec.brute_force_optimum(initial, params, default_weights, cfg)
        assert built == [] and native._STEPS == {(2, False): 900}
        best_j, _ = ec.brute_force_optimum(initial, params, default_weights, cfg)
        assert built == [1800] and best_j == 20794.074592123383

    def test_field_and_step_count_nothing(self, built, covid19):
        built, _ = built
        params, _ = covid19
        _kernels(params)
        _kernels(params, (1.0,) * 4)
        assert built == [] and native._STEPS == {}


def _naming(source: str, name: str) -> list[str]:
    """The stripped lines of ``source`` that name ``name``."""
    return [line.strip() for line in source.splitlines() if re.search(rf"\b{name}\b", line)]


def _only_carried(source: str, name: str) -> bool:
    """``name`` is only unpacked from y, written to a node row and returned: no arithmetic
    reads it and nothing but the unpacking assigns it."""
    return all(
        line.endswith(", = y") or line.startswith(("put(out", "return 0, [", "return j, ["))
        for line in _naming(source, name)
    )


class TestGeneratedRows:
    """The state march marches every row; the costate march and the oracle's step compute
    only what their callers read: a structural guard, so that losing it shows without a timer."""

    @pytest.mark.parametrize("to_exposed", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_marches_leave_out_rows_nothing_reads(self, n, to_exposed):
        state = functools.partial(model._state_rows, n, to_exposed)
        costate = functools.partial(model._costate_rows, n, to_exposed)
        costate_march = "\n".join(model._march_lines([], costate, "SEAI", n + 6)[0])
        full_march = "\n".join(model._march_lines([], state, "", n + 6)[0])
        step = "\n".join(model._kernel_lines([], state, "", n + 6)[0]).split("def step")[1]
        # no other row, the cost or the control update reads R, D or V_n, and their
        # costates stay +0.0, unless V_n leaks into E
        unread = {R, D} | (set() if to_exposed else {V0 + n - 1})
        assert not re.search(r"\b0\.0\b", costate_march)  # not as x - 0.0 or c * 0.0 either
        for j in range(n):  # the step holds one point, so forms g_j * v once
            assert step.count(f"g{j} * ") == 1
        for c in range(V0 + n):
            name, update = f"y{c}", f"y{c} = y{c} + sixth * (s{c} + k{c})"
            assert update in _naming(full_march, name)  # every pass marches every row
            if c in unread:
                assert _only_carried(costate_march, name)
                assert not _naming(step, name)
            else:
                for source in (costate_march, step):
                    assert update in _naming(source, name)
