"""Fixed-step RK4 integration of the state and adjoint systems.

Forward runs march the controlled dynamics over a uniform grid, applying the
instantaneous arrival jumps at scheduled nodes.  Backward runs integrate the
costate system from its zero terminal condition, applying the matching
adjoint jumps.  Both record pre-jump and post-jump values at impulse nodes so
trajectories represent the discontinuities losslessly.

Both step loops run on plain Python floats: numpy's per-call cost on vectors
of n + 6 elements would otherwise dominate.  Both step through
``model._rk4_step``: the forward pass over ``model._deriv``, the step the
brute-force oracle runs on a compartment-major batch of candidates, and the
backward pass over ``model._costate_deriv`` with step -h.  Every
floating-point operation keeps the order of the numpy formulation, and the
tests hold both passes bitwise equal to a numpy reference implementation.
Each pass writes one array row per node and copies it to the other side of
the jumps, patched at the impulse nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, ScheduleError
from .model import (
    D,
    ControlSignal,
    ImpulseSchedule,
    ModelParams,
    StateVector,
    Trajectory,
    _NEGATIVE_TOL,
    _apply_impulse,
    _costate_deriv,
    _deriv,
    _number_faults,
    _raise_faults,
    _rk4_step,
    _row_view,
    _too_coarse,
)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid over [0, tau] with step h.

    The horizon is rounded to the nearest whole number of steps; the value
    requested by the caller is kept in ``tau_requested``.
    """

    tau: float
    h: float
    n_steps: int = field(default=0, init=False)
    tau_requested: float = field(default=0.0, init=False)

    def __post_init__(self):
        _raise_faults(self)
        steps = int(round(self.tau / self.h))
        object.__setattr__(self, "tau_requested", self.tau)
        object.__setattr__(self, "n_steps", steps)
        object.__setattr__(self, "tau", steps * self.h)

    @staticmethod
    def violations(values) -> list[str]:
        """Faults as "field: reason": tau, h > 0, and a finite tau/h that rounds to 1 or more."""
        out = _number_faults(values, ("tau", "h"), positive=True)
        if not out and "tau" in values and "h" in values:
            steps = values["tau"] / values["h"]
            if steps <= 0.5:
                out.append("tau: shorter than half a step")
            elif steps == math.inf:
                out.append("h: too small to count the steps of tau")
        return out

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.tau, self.n_steps + 1)

    def node_index(self, t: float) -> int:
        """Interior node of an impulse at t; ScheduleError if off the grid or outside (0, tau)."""
        i = int(round(t / self.h))
        if 0.0 < t < self.tau and abs(t - i * self.h) > 1e-9 * max(1.0, self.tau):
            raise ScheduleError(f"impulse at t={t} is off the grid (h={self.h})")
        if not 0 < i < self.n_steps:
            raise ScheduleError(f"impulse at t={t} outside (0, {self.tau})")
        return i


@dataclass(frozen=True)
class AdjointVector:
    """Costates paired with the compartments: p for S..D, q for V1..Vn."""

    p: tuple[float, ...]
    q: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(float(x) for x in self.p))
        object.__setattr__(self, "q", tuple(float(x) for x in self.q))
        if len(self.p) != 6:
            raise ValueError("need exactly six compartment costates")
        if len(self.q) < 1:
            raise ValueError("need at least one dose costate")

    def as_array(self) -> np.ndarray:
        return np.array([*self.p, *self.q])

    @classmethod
    def from_array(cls, pq: np.ndarray) -> "AdjointVector":
        pq = np.asarray(pq, dtype=float)
        return cls(tuple(pq[:6]), tuple(pq[6:]))


@dataclass(frozen=True)
class AdjointTrajectory:
    """Time-gridded costates with pre/post values at impulse nodes."""

    node_times: np.ndarray
    values_pre: np.ndarray
    values_post: np.ndarray
    impulse_nodes: tuple[int, ...] = field(default_factory=tuple)

    @property
    def times(self) -> np.ndarray:
        return _row_view(self.node_times, self.node_times, self.impulse_nodes)

    @property
    def values(self) -> np.ndarray:
        return _row_view(self.values_pre, self.values_post, self.impulse_nodes)

    def at(self, node: int, side: str = "post") -> AdjointVector:
        arr = self.values_post if side == "post" else self.values_pre
        return AdjointVector.from_array(arr[node])


def _impulse_nodes(schedule: ImpulseSchedule | None, grid: TimeGrid) -> tuple[dict[int, tuple], list[str]]:
    """Schedule events keyed by interior grid node, and a fault per event off the grid or
    on the node of an earlier event."""
    imap: dict[int, tuple] = {}
    faults = []
    for ev in schedule.events if schedule is not None else ():
        try:
            idx = grid.node_index(ev.time)
        except ScheduleError as exc:
            faults.append(str(exc))
            continue
        if idx in imap:
            faults.append(f"two impulses snap to the same grid node t={ev.time}")
        imap.setdefault(idx, ev.lam)
    return imap, faults


def _impulse_map(schedule: ImpulseSchedule | None, grid: TimeGrid) -> dict[int, tuple]:
    """Map schedule events onto interior grid nodes; ScheduleError for the first fault."""
    imap, faults = _impulse_nodes(schedule, grid)
    if faults:
        raise ScheduleError(faults[0])
    return imap


def _sampled_controls(controls: ControlSignal, grid: TimeGrid):
    """Control values at grid nodes and step midpoints."""
    if controls.tau < grid.tau - 1e-9 * max(1.0, grid.tau):
        raise GridMismatchError(
            f"controls end at t={controls.tau} but the grid runs to t={grid.tau}"
        )
    times = grid.times
    mid_times = 0.5 * (times[:-1] + times[1:])
    v_n = np.interp(times, controls.grid, controls.v)
    u_n = np.interp(times, controls.grid, controls.u)
    v_m = np.interp(mid_times, controls.grid, controls.v)
    u_m = np.interp(mid_times, controls.grid, controls.u)
    return v_n, u_n, v_m, u_m


def _patched(rows: np.ndarray, jumped: dict[int, list]) -> np.ndarray:
    """A copy of ``rows`` with the row of each impulse node replaced by its jumped value."""
    out = rows.copy()
    for node, row in jumped.items():
        out[node] = row
    return out


def integrate_forward(
    initial: StateVector,
    controls: ControlSignal,
    params: ModelParams,
    grid: TimeGrid,
    schedule: ImpulseSchedule | None = None,
) -> Trajectory:
    """March the controlled dynamics over the grid with classic RK4.

    At every impulse node the pre-jump state is recorded, the arrival jump is
    applied, and the post-jump state is recorded before marching continues.
    Compartments driven negative by roundoff are clamped to zero when their
    magnitude is at most 1e-9 times the initial living population; anything
    larger raises StabilityError (the step size is too coarse).

    The step loop runs on Python floats and is bitwise equal to the same RK4
    written with numpy vectors.
    """
    if initial.n != params.n:
        raise ValueError(f"state has {initial.n} dose compartments, params expect {params.n}")
    imap = _impulse_map(schedule, grid)
    # memoryviews index as Python floats without holding a list of them
    v_n, u_n, v_m, u_m = (memoryview(x) for x in _sampled_controls(controls, grid))
    times = grid.times
    h = grid.h
    steps = grid.n_steps
    dim = 6 + params.n

    y0 = initial.as_array()
    n0 = float(y0.sum() - y0[D])
    tol = _NEGATIVE_TOL * n0
    pre = np.empty((steps + 1, dim))
    pre[0] = y0
    jumped = {}
    y = y0.tolist()
    end = (v_n[0], u_n[0], params)

    for i in range(steps):
        start, end = end, (v_n[i + 1], u_n[i + 1], params)
        y = _rk4_step(_deriv, y, h, start, (v_m[i], u_m[i], params), end)
        lowest = min(y)
        if lowest < 0.0:
            if lowest < -tol:
                raise _too_coarse(lowest, times[i + 1])
            y = [0.0 if x < 0.0 else x for x in y]  # keeps -0.0, like np.maximum
        pre[i + 1] = y
        lam = imap.get(i + 1)
        if lam is not None:
            y = jumped[i + 1] = _apply_impulse(y, lam)

    return Trajectory(
        node_times=times,
        states_pre=pre,
        states_post=_patched(pre, jumped),
        impulse_nodes=tuple(sorted(imap)),
    )


def integrate_adjoint_backward(
    traj: Trajectory,
    controls: ControlSignal,
    params: ModelParams,
    weights,
    grid: TimeGrid,
    schedule: ImpulseSchedule | None = None,
) -> AdjointTrajectory:
    """Integrate the costate system backward from its zero terminal value.

    The trajectory must come from ``integrate_forward`` on the same grid and
    controls; of the ``control.CostWeights`` only the running-cost weights
    ``omega`` enter.  States at interior RK stages are linearly interpolated
    between the segment endpoints.

    Each step is ``model._rk4_step`` with step -h over
    ``model._costate_deriv`` on Python floats, bitwise equal to the same RK4
    written with numpy vectors.

    At impulse nodes the costates of the jumped compartments are multiplied
    by (1 + lam_l), the transpose of the diagonal arrival jump.
    """
    times = grid.times
    if len(traj.node_times) != len(times) or np.max(np.abs(traj.node_times - times)) > 1e-9 * max(
        1.0, grid.tau
    ):
        raise GridMismatchError("trajectory grid does not match the integration grid")
    imap = _impulse_map(schedule, grid)
    if set(imap) != set(traj.impulse_nodes):
        raise GridMismatchError("schedule impulse nodes do not match the trajectory's")

    v_n, u_n, v_m, u_m = (memoryview(x) for x in _sampled_controls(controls, grid))
    h = grid.h
    steps = grid.n_steps
    omega = weights.omega
    post = np.empty((steps + 1, 6 + params.n))
    jumped = {}
    pq = [0.0] * post.shape[1]
    post[steps] = pq
    left = (traj.states_pre[steps].tolist(), v_n[steps], u_n[steps], params, omega)

    for i in range(steps - 1, -1, -1):
        # step i runs from node i + 1 (right) back to node i (left), with the
        # arguments of _costate_deriv at each; the states either side of node
        # i + 1 differ only if it is an impulse node
        right = left
        if i + 1 in imap:
            right = (traj.states_pre[i + 1].tolist(), v_n[i + 1], u_n[i + 1], params, omega)
        left = (traj.states_post[i].tolist(), v_n[i], u_n[i], params, omega)
        mid = ([0.5 * (a + b) for a, b in zip(left[0], right[0])], v_m[i], u_m[i], params, omega)
        pq = _rk4_step(_costate_deriv, pq, -h, right, mid, left)
        post[i] = pq
        lam = imap.get(i)
        if lam is not None:
            pq = jumped[i] = _apply_impulse(pq, lam)

    return AdjointTrajectory(
        node_times=times,
        values_pre=_patched(post, jumped),
        values_post=post,
        impulse_nodes=tuple(sorted(imap)),
    )
