"""Cost functional, costate system, PMP control updates, and the sweep solver.

The objective charges a linear epidemic cost on the S/E/A/I pools plus
quadratic control effort, integrated over the horizon, plus a convex
increasing terminal cost.  First-order optimality gives clamped feedback
formulas for both controls in terms of the costates; the forward-backward
sweep iterates state integration, costate integration, and relaxed control
updates until the controls stop moving.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateParameterError, GridMismatchError, RangeError
from .integrator import (
    AdjointTrajectory,
    AdjointVector,
    TimeGrid,
    integrate_adjoint_backward,
    integrate_forward,
)
from .model import (
    A,
    E,
    I,
    S,
    V0,
    ControlSignal,
    ImpulseSchedule,
    ModelParams,
    StateVector,
    Trajectory,
    _costate_deriv,
    _deriv,
    _entry_faults,
    _number_faults,
    _raise_faults,
)

log = logging.getLogger("epictrl")
# Largest x for which math.exp(x) is a finite float.
_EXP_LIMIT = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class TerminalCost:
    """Convex increasing end-of-horizon penalty.

    Supported shapes: ``linear`` c*tau, ``quadratic`` c*tau**2, and
    ``exponential`` c*(exp(a*tau) - 1).  A zero coefficient disables the
    penalty.
    """

    kind: str = "quadratic"
    coeff: float = 1.0
    rate: float = 1.0

    def __post_init__(self):
        _raise_faults(self)

    @staticmethod
    def violations(values) -> list[str]:
        """Faults of the given fields as "field: reason": a known kind, coeff >= 0, rate > 0."""
        kind = values.get("kind", "linear")
        known = kind in ("linear", "quadratic", "exponential")
        out = [] if known else [f"kind: unknown kind {kind!r}"]
        out += _number_faults(values, ("coeff",), 0.0)
        return out + _number_faults(values, ("rate",), positive=True)

    def horizon_fault(self, tau: float) -> str:
        """Why the penalty cannot be evaluated at horizon tau as "field: reason", or "":
        exp(rate*tau) overflows, or the value or slope overflows to inf."""
        if self.kind == "exponential" and self.rate * tau > _EXP_LIMIT:
            return f"rate: rate*tau = {self.rate * tau:.6g} overflows exp (limit {_EXP_LIMIT:.6g})"
        if not (math.isfinite(self.value(tau)) and math.isfinite(self.slope(tau))):
            return f"coeff: {self.coeff:.6g} overflows the value or slope at tau = {tau:.6g}"
        return ""

    def value(self, tau: float) -> float:
        if self.kind == "linear":
            return self.coeff * tau
        if self.kind == "quadratic":
            return self.coeff * tau * tau
        return self.coeff * (math.exp(self.rate * tau) - 1.0)

    def slope(self, tau: float) -> float:
        if self.kind == "linear":
            return self.coeff
        if self.kind == "quadratic":
            return 2.0 * self.coeff * tau
        return self.coeff * self.rate * math.exp(self.rate * tau)


@dataclass(frozen=True)
class CostWeights:
    """Objective weights: epidemic-cost rates, control gains, terminal cost."""

    omega: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    sigma0: float = 50.0
    sigma: tuple[float, ...] = (50.0, 50.0)
    terminal: TerminalCost = field(default_factory=TerminalCost)

    def __post_init__(self):
        object.__setattr__(self, "omega", tuple(float(x) for x in self.omega))
        object.__setattr__(self, "sigma", tuple(float(x) for x in self.sigma))
        _raise_faults(self)

    @staticmethod
    def violations(values) -> list[str]:
        """Faults of the given fields as "field: reason": four omega and any sigma >= 0,
        sigma0 > 0; one sigma per dose is checked against the params of a config."""
        return (
            _entry_faults(values, "omega", exact=4)
            + _number_faults(values, ("sigma0",), positive=True)
            + _entry_faults(values, "sigma", least=0)
        )

    def vaccination_gain(self, params: ModelParams) -> float:
        """Quadratic coefficient of the vaccination effort, sum sigma_i*gamma_i^2; ValueError
        unless sigma holds one gain per dose."""
        return sum(s * g * g for s, g in zip(self.sigma, params.gamma, strict=True))


@dataclass(frozen=True)
class SweepOptions:
    """Knobs for the forward-backward sweep."""

    theta: float = 0.5
    tolerance: float = 1e-4
    max_iterations: int = 500

    def __post_init__(self):
        _raise_faults(self)

    @staticmethod
    def violations(values) -> list[str]:
        """Faults of the given fields as "field: reason": theta in (0, 1], tolerance > 0 and
        an integer max_iterations >= 1."""
        out = _number_faults(values, ("theta",), hi=1.0, positive=True)
        out += _number_faults(values, ("tolerance",), positive=True)
        its = values.get("max_iterations", 1)
        if not isinstance(its, int) or isinstance(its, bool) or its < 1:
            out.append("max_iterations: expected a positive integer")
        return out


@dataclass(frozen=True)
class OptimalSolution:
    """Converged sweep output: controls, trajectories, cost, diagnostics."""

    controls: ControlSignal
    state_traj: Trajectory
    adjoint_traj: AdjointTrajectory
    cost: float
    iterations: int
    converged: bool
    transversality_residual: float | None = None
    cost_history: tuple[float, ...] = ()


def _running_cost_arrays(states, u, v, weights: CostWeights, params: ModelParams):
    """Running cost; ``states[S]`` .. ``states[I]`` are floats or arrays over nodes."""
    w1, w2, w3, w4 = weights.omega
    gain = weights.vaccination_gain(params)
    return (
        w1 * states[S]
        + w2 * states[E]
        + w3 * states[A]
        + w4 * states[I]
        + 0.5 * weights.sigma0 * u * u
        + 0.5 * gain * v * v
    )


def total_cost(
    traj: Trajectory,
    controls: ControlSignal,
    weights: CostWeights,
    params: ModelParams,
) -> float:
    """Trapezoidal quadrature of the running cost plus the terminal penalty.

    Each grid cell uses the post-jump state at its left node and the pre-jump
    state at its right node, so impulse discontinuities never smear across a
    cell.
    """
    times = traj.node_times
    if controls.tau < times[-1] - 1e-9 * max(1.0, times[-1]):
        raise GridMismatchError("controls do not cover the trajectory horizon")
    v_n = np.interp(times, controls.grid, controls.v)
    u_n = np.interp(times, controls.grid, controls.u)
    g_left = _running_cost_arrays(traj.states_post[:-1].T, u_n[:-1], v_n[:-1], weights, params)
    g_right = _running_cost_arrays(traj.states_pre[1:].T, u_n[1:], v_n[1:], weights, params)
    steps = np.diff(times)
    terminal = weights.terminal.value(float(times[-1]))
    return float(np.sum(0.5 * steps * (g_left + g_right)) + terminal)


def adjoint_rhs(
    adjoint: AdjointVector,
    state: StateVector,
    u: float,
    v: float,
    params: ModelParams,
    weights: CostWeights,
) -> np.ndarray:
    """Time derivative of the costates, in the layout [p1..p6, q1..qn]."""
    if len(adjoint.q) != params.n or state.n != params.n:
        raise ValueError("costate/state dose counts must match the parameters")
    pq, y = adjoint.as_array().tolist(), state.as_array().tolist()
    return np.array(_costate_deriv(pq, y, v, u, params, weights.omega))


def _hamiltonian(
    state: StateVector,
    adjoint: AdjointVector,
    u: float,
    v: float,
    params: ModelParams,
    weights: CostWeights,
) -> float:
    """Running cost plus costate-weighted dynamics."""
    y = state.as_array()
    pq = adjoint.as_array()
    return float(
        _running_cost_arrays(y, float(u), float(v), weights, params)
        + pq @ np.array(_deriv(y.tolist(), float(v), float(u), params))
    )


def _switching_arrays(states, adjoints, params: ModelParams, weights: CostWeights):
    """Raw stationary controls I*(p4-p5)/sigma0 and W/(sum sigma*gamma^2)."""
    g = params.gamma
    n = params.n
    gain = weights.vaccination_gain(params)
    if weights.sigma0 <= 0.0 or gain <= 0.0:
        raise DegenerateParameterError("control-update denominators must be positive")
    p1 = adjoints[..., 0]
    q1 = adjoints[..., 6]
    u_raw = states[..., I] * (adjoints[..., 3] - adjoints[..., 4]) / weights.sigma0
    w = g[0] * states[..., S] * (p1 - q1) + g[1] * q1 * states[..., V0]
    for j in range(1, n - 1):
        w = w + adjoints[..., 6 + j] * (
            g[j + 1] * states[..., V0 + j] - g[j] * states[..., V0 + j - 1]
        )
    if params.delta_n_to_exposed:
        # nonzero last costate: its last-chain-link sensitivity enters too
        w = w - g[n - 1] * adjoints[..., 6 + n - 1] * states[..., V0 + n - 2]
    v_raw = w / gain
    return u_raw, v_raw


def _clamped_controls(states, adjoints, params, weights):
    u_raw, v_raw = _switching_arrays(states, adjoints, params, weights)
    if np.any(np.isnan(u_raw)) or np.any(np.isnan(v_raw)):
        raise ValueError("NaN encountered in control update")
    return np.clip(u_raw, 0.0, 1.0), np.clip(v_raw, 0.0, params.v_max)


def fbsm_solve(
    initial: StateVector,
    params: ModelParams,
    weights: CostWeights,
    grid: TimeGrid,
    schedule: ImpulseSchedule | None = None,
    options: SweepOptions | None = None,
) -> OptimalSolution:
    """Forward-backward sweep for the vaccination/treatment control pair.

    Starting from zero controls, each iteration integrates the states
    forward, the costates backward, computes the clamped stationary controls,
    and relaxes toward them.  The sweep stops when the largest per-node
    control change, measured relative to each control's box width, drops
    below the tolerance.  Non-convergence is reported through the
    ``converged`` flag, never as an exception.
    """
    opts = options or SweepOptions()
    times = grid.times
    v_max = params.v_max
    u = np.zeros_like(times)
    v = np.zeros_like(times)
    history = []
    converged = False

    # pass `it` evaluates the controls after `it` updates; no update follows the last pass
    for it in range(opts.max_iterations + 1):
        controls = ControlSignal(times, v, u, v_max)
        traj = integrate_forward(initial, controls, params, grid, schedule)
        adj = integrate_adjoint_backward(traj, controls, params, weights, grid, schedule)
        history.append(total_cost(traj, controls, weights, params))
        if converged or it == opts.max_iterations:
            break
        u_star, v_star = _clamped_controls(traj.states_post, adj.values_post, params, weights)
        u_new = np.clip(opts.theta * u_star + (1.0 - opts.theta) * u, 0.0, 1.0)
        v_new = np.clip(opts.theta * v_star + (1.0 - opts.theta) * v, 0.0, v_max)
        change = float(np.max(np.abs(u_new - u) + np.abs(v_new - v) / v_max))
        u, v = u_new, v_new
        log.debug("sweep iteration %d: J=%.6g, control change %.3e", it + 1, history[-1], change)
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


def _truncated_schedule(schedule: ImpulseSchedule | None, tau: float, h: float):
    """Drop events at or beyond the candidate horizon."""
    if schedule is None:
        return None
    kept = tuple(ev for ev in schedule.events if ev.time < tau - 0.5 * h)
    return ImpulseSchedule(kept) if kept else None


def transversality_residual(solution: OptimalSolution, params: ModelParams, weights: CostWeights) -> float:
    """Free-time optimality defect H(tau) + M'(tau) for a converged solution."""
    last = len(solution.state_traj.node_times) - 1
    state = solution.state_traj.state_at(last, side="post")
    adjoint = solution.adjoint_traj.at(last, side="post")
    tau = float(solution.state_traj.node_times[-1])
    v_end, u_end = solution.controls.at(tau)
    ham = _hamiltonian(state, adjoint, float(u_end), float(v_end), params, weights)
    return ham + weights.terminal.slope(tau)


def optimize_terminal_time(
    initial: StateVector,
    params: ModelParams,
    weights: CostWeights,
    schedule: ImpulseSchedule | None,
    tau_range: tuple[float, float],
    h: float = 0.01,
    options: SweepOptions | None = None,
) -> tuple[float, OptimalSolution]:
    """Cheapest horizon in ``tau_range`` and its solution: always the lower end.

    The optimal cost J*(tau) never decreases in tau.  The running cost is
    non-negative (omega, sigma >= 0 and states are clamped at zero), and every
    terminal-cost kind is non-decreasing for tau > 0.  ``TimeGrid`` rounds a
    horizon to whole steps of the same h, so for tau < tau' the grid of tau is
    a prefix of the grid of tau', and impulses at or beyond tau only touch the
    later cells.  The optimal controls for tau', cut at tau, are thus
    admissible for tau with the same states up to tau, a running cost that
    drops the later cells and a terminal cost no larger, so
    J*(tau) <= J*(tau').  Hence one sweep at MIN answers the search.

    Impulse events from h/2 before MIN on are dropped.  The free-time
    optimality defect H(tau) + M'(tau) is recorded as the certificate: the
    costates vanish at tau (no event within h/2 of it, and the terminal cost
    depends on tau alone), so it equals g(tau) + M'(tau) >= 0, the slope
    dJ*/dtau at MIN.
    """
    tau_min, tau_max = float(tau_range[0]), float(tau_range[1])
    if not 0.0 < tau_min < tau_max:
        raise RangeError(f"need 0 < tau_min < tau_max, got ({tau_min}, {tau_max})")
    grid = TimeGrid(tau_min, h)
    fault = weights.terminal.horizon_fault(grid.tau)
    if fault:
        raise RangeError(f"at tau_min = {grid.tau:.6g}, weights.terminal.{fault}")
    best = fbsm_solve(
        initial, params, weights, grid, _truncated_schedule(schedule, grid.tau, h), options
    )
    return tau_min, replace(
        best, transversality_residual=transversality_residual(best, params, weights)
    )
