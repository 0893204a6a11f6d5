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

from . import native
from .errors import DegenerateParameterError, GridMismatchError, RangeError, StabilityError
from .integrator import (
    AdjointTrajectory,
    AdjointVector,
    TimeGrid,
    _Binder,
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
    _entry_faults,
    _number_faults,
    _kernels,
    _raise_faults,
)

log = logging.getLogger("epictrl")
# Largest x for which math.exp(x) is a finite float.
_EXP_LIMIT = math.log(np.finfo(float).max)
_NAN_UPDATE = "NaN encountered in control update"


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


def _running_cost_fault(initial: StateVector, params: ModelParams, weights: CostWeights, tau, schedule):
    """The fault "weights: ..." when the bound on the running cost over tau is not finite,
    else "".  The rows of the vector field sum to zero, so only arrivals grow the
    population (D included); u <= 1 and v <= v_max bound the effort terms."""
    events = schedule.events if schedule is not None else ()
    people = sum(initial.as_array().tolist()) * math.prod(1.0 + max(ev.lam) for ev in events)
    gain, v_max = weights.vaccination_gain(params), params.v_max
    g_max = sum(weights.omega) * people + 0.5 * weights.sigma0 + 0.5 * gain * v_max * v_max
    if math.isfinite(tau * g_max):
        return ""
    return f"weights: the running-cost bound over tau = {tau:.6g} is not finite"


def _cost_fault(initial: StateVector, params: ModelParams, weights: CostWeights, tau, schedule):
    """The running-cost fault, else the terminal cost's at tau as "weights.terminal.field: ..."."""
    fault = weights.terminal.horizon_fault(tau)
    fault = fault and f"weights.terminal.{fault}"
    return _running_cost_fault(initial, params, weights, tau, schedule) or fault


def _cost_cells(traj: Trajectory, v_n, u_n, weights: CostWeights, params: ModelParams) -> np.ndarray:
    """The trapezoid cells of the running cost over ``traj``, controls v_n, u_n at its nodes: each uses
    the post-jump state at its left node and the pre-jump one at its right, so no impulse smears
    across a cell; as the two differ only at impulse nodes, only their post rows are costed apart."""
    g = _running_cost_arrays(traj.states_pre.T, u_n, v_n, weights, params)
    g_left, jumps = g[:-1].copy(), list(traj.impulse_nodes)
    if jumps:
        g_left[jumps] = _running_cost_arrays(traj.states_post[jumps].T, u_n[jumps], v_n[jumps], weights, params)
    return 0.5 * np.diff(traj.node_times) * (g_left + g[1:])


def total_cost(
    traj: Trajectory,
    controls: ControlSignal,
    weights: CostWeights,
    params: ModelParams,
) -> float:
    """Trapezoidal quadrature of the running cost (``_cost_cells``) plus the terminal penalty."""
    times = traj.node_times
    if controls.tau < times[-1] - 1e-9 * max(1.0, times[-1]):
        raise GridMismatchError("controls do not cover the trajectory horizon")
    v_n, u_n = controls.at(times)
    terminal = weights.terminal.value(float(times[-1]))
    return float(np.sum(_cost_cells(traj, v_n, u_n, weights, params)) + terminal)


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
    field, _ = _kernels(params, weights.omega)
    return np.array(field(adjoint.as_array().tolist(), (state.S, state.E, state.A, state.I, v, u)))


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
        + pq @ np.array(_kernels(params)[0](y.tolist(), (float(v), float(u))))
    )


def _update_gain(params: ModelParams, weights: CostWeights) -> float:
    """sum sigma*gamma^2; DegenerateParameterError unless it and sigma0 are positive."""
    gain = weights.vaccination_gain(params)
    if weights.sigma0 <= 0.0 or gain <= 0.0:
        raise DegenerateParameterError("control-update denominators must be positive")
    return gain


def _switching_arrays(states, adjoints, params: ModelParams, weights: CostWeights):
    """Raw stationary controls I*(p4-p5)/sigma0 and W/(sum sigma*gamma^2)."""
    g = params.gamma
    n = params.n
    gain = _update_gain(params, weights)
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


def _step(pr: ModelParams, weights: CostWeights, gain: float, theta: float, traj, adj, u, v, binder=None):
    """``native._update``'s contract in numpy (``_switching_arrays`` forms ``gain`` itself, and the
    arrays are new, so no ``binder`` lends a block): the cost cells, the relaxed next u and v,
    read-only, None for their midpoint samples (the next signal forms them) and the largest scaled
    change, NaN where a raw control is NaN."""
    u_raw, v_raw = _switching_arrays(traj.states_post, adj.values_post, pr, weights)
    u_new = np.clip(theta * np.clip(u_raw, 0.0, 1.0) + (1.0 - theta) * u, 0.0, 1.0)
    v_new = np.clip(theta * np.clip(v_raw, 0.0, pr.v_max) + (1.0 - theta) * v, 0.0, pr.v_max)
    change = float(np.max(np.abs(u_new - u) + np.abs(v_new - v) / pr.v_max))
    for x in (u_new, v_new):
        x.setflags(write=False)
    return _cost_cells(traj, v, u, weights, pr), u_new, v_new, None, change


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
    ``converged`` flag, never as an exception; weights whose running cost has no
    finite bound over the horizon, or whose terminal cost overflows there, raise
    RangeError before the first pass; a step too coarse, or costates that
    overflow, raise StabilityError in the first pass, and in a later one end the
    sweep unconverged with the pass before it.  Every pass is one
    ``integrate_forward``, which marches every compartment, and one
    ``integrate_adjoint_backward``.  One step call between them forms the pass's
    cost cells, the relaxed next controls and their change: ``native._update``
    once the passes run as C, which also forms the next signal's midpoint
    samples, else its numpy twin ``_step``, bitwise equal.  All three take the
    sweep's ``_Binder`` and write its buffers in turn; no later pass or sweep
    writes the arrays a solution holds, all read-only.
    """
    fault = _cost_fault(initial, params, weights, grid.tau, schedule)
    if fault:
        raise RangeError(fault)
    opts = options or SweepOptions()
    binder = _Binder(params, grid, schedule, initial)
    times = grid.times
    u = v = np.zeros_like(times)
    u.setflags(write=False)
    midpoints = gain = None
    terminal = weights.terminal.value(float(times[-1]))
    history = []
    converged = False

    # pass `it` evaluates the controls after `it` updates; no update follows the last pass
    for it in range(opts.max_iterations + 1):
        signal = ControlSignal._unchecked(times, v, u, params.v_max, midpoints)  # u, v clipped into the box
        try:
            fault = "step too coarse"
            forward = integrate_forward(initial, signal, params, grid, schedule, binder=binder)
            fault = "costates overflowed"
            backward = integrate_adjoint_backward(forward, signal, params, weights, grid, schedule, binder=binder)
        except StabilityError:
            if not it:
                raise
            log.warning("%s at update %d; ending with the pass before it", fault, it)
            it, converged = it - 1, False
            break
        controls, traj, adj = signal, forward, backward
        compiled = native._marches(params.n, params.delta_n_to_exposed, 0)
        gain = gain or _update_gain(params, weights)
        cells, u_new, v_new, midpoints, change = (compiled["update"] if compiled else _step)(
            params, weights, gain, opts.theta, traj, adj, u, v, binder
        )
        history.append(float(np.add.reduce(cells) + terminal))  # np.sum's pairwise sum
        if converged or it == opts.max_iterations:
            break
        if math.isnan(change):
            raise ValueError(_NAN_UPDATE)
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
