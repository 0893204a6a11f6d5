"""Fixed-step RK4 integration of the state and adjoint systems.

Forward runs march the controlled dynamics over a uniform grid, applying the
instantaneous arrival jumps at scheduled nodes.  Backward runs integrate the
costate system from its zero terminal condition, applying the matching
adjoint jumps.  Both record pre-jump and post-jump values at impulse nodes so
trajectories represent the discontinuities losslessly.

Both passes run scalar code: numpy's per-call cost on vectors of n + 6
elements would otherwise dominate.  ``model`` generates each pass whole for
the dose count: a ``march`` whose loop holds the value in local names and
inlines the RK4 stages, called once per run of steps between impulse nodes,
which ``native`` builds in C from the same generated lines, where ``cc`` is
found, once a process has marched enough steps to pay for the compile.  Either
march is called alike: the C loop starts from the values that its Python
prologue forms at each call.  The state march steps every compartment in every
pass and stops at the first node where one is below zero, which the forward
pass clamps before it resumes the march there.  The costate march steps with
-h, forms each node's point-only terms once and does no arithmetic on the
costates that stay zero, not even in the other rows.  Every floating-point
operation keeps the order of the numpy formulation, and the tests hold both
passes, C or Python, bitwise equal to a numpy reference implementation.  Each
pass writes one array row per node: a sweep's passes write two tables of each
kind in turn (``_Binder``), so that each leaves the one before it whole, and a
pass called alone writes a fresh one.  A pass with impulse nodes copies its
table to the other side of the jumps and patches their rows; a pass without
one hands the same table out as both sides; either way read-only.  The costate
march reads the four state columns it needs in place from the forward pass's
table.  The C marches take an array's address once while it lives
(``native._address``).  A ``ControlSignal`` on the grid's own ``times`` (built
once per grid) gives the passes its own node samples and its midpoint samples,
which both passes of a sweep iteration share: interpolated once per signal and
cached on it, or formed by the sweep's C step along with the controls (its
numpy twin, ``control._step``, leaves them to the signal); they are read-only,
since every pass and cost shares them.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, ScheduleError, StabilityError
from .model import (
    D,
    ControlSignal,
    ImpulseSchedule,
    ModelParams,
    StateVector,
    Trajectory,
    _NEGATIVE_TOL,
    _apply_impulse,
    _kernels,
    _number_faults,
    _raise_faults,
    _row_view,
    _too_coarse,
)

log = logging.getLogger("epictrl")
# the most steps a grid holds: a sweep's tracemalloc peak is about 350 bytes a step at 5 doses
# (352 at 7,000 to 70,000 steps), so a sweep on the largest grid holds about 0.35 GB
_MAX_STEPS = 1_000_000


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
        """Faults as "field: reason": tau, h > 0, and a tau/h that rounds to 1 to ``_MAX_STEPS``."""
        out = _number_faults(values, ("tau", "h"), positive=True)
        if not out and "tau" in values and "h" in values:
            steps = values["tau"] / values["h"]
            if steps <= 0.5:
                out.append("tau: shorter than half a step")
            elif steps == math.inf:
                out.append("h: too small to count the steps of tau")
            elif round(steps) > _MAX_STEPS:
                out.append(f"h: too small: tau/h = {steps:.7g} steps, above the cap of {_MAX_STEPS:,} "
                           "(a sweep holds about 350 bytes a step)")
        return out

    @functools.cached_property
    def times(self) -> np.ndarray:
        """The node times, built once and read-only."""
        times = np.linspace(0.0, self.tau, self.n_steps + 1)
        times.setflags(write=False)
        return times

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


def _sampled_controls(controls: ControlSignal, grid: TimeGrid):
    """Control values at grid nodes and step midpoints, the controls' own if sampled on the grid."""
    times = grid.times
    if controls.grid is times:
        return controls.v, controls.u, *controls.midpoints
    if controls.tau < grid.tau - 1e-9 * max(1.0, grid.tau):
        raise GridMismatchError(
            f"controls end at t={controls.tau} but the grid runs to t={grid.tau}"
        )
    return (*controls.at(times), *controls.at(0.5 * (times[:-1] + times[1:])))


def _patched(rows: np.ndarray, jumped: dict[int, list]) -> np.ndarray:
    """A copy of ``rows`` with the row of each impulse node replaced by its jumped value or, with no
    impulse node, ``rows`` itself, as both sides of the pass share it; both read-only."""
    out = rows.copy() if jumped else rows
    for node, row in jumped.items():
        out[node] = row
    rows.setflags(write=False)
    out.setflags(write=False)
    return out


class _Binder:
    """What the passes of one sweep share, set up once: the validated impulse map and its cuts, the
    start row and its clamp floor, and the buffers the passes write, which ``take`` lends in turn.
    ``control.fbsm_solve`` binds one per sweep; a pass called without one binds its own."""

    def __init__(self, params: ModelParams, grid: TimeGrid, schedule=None, initial: StateVector | None = None):
        if initial is not None and initial.n != params.n:
            raise ValueError(f"state has {initial.n} dose compartments, params expect {params.n}")
        self.imap, faults = _impulse_nodes(schedule, grid)
        if faults:
            raise ScheduleError(faults[0])
        self.nodes = tuple(sorted(self.imap))
        self.cuts = list(zip([0, *self.nodes], [*self.nodes, grid.n_steps]))
        self.shape = grid.n_steps + 1, 6 + params.n
        self._lent: dict = {}
        if initial is not None:
            y0 = initial.as_array()
            self.start, self.floor = y0.tolist(), -(_NEGATIVE_TOL * float(y0.sum() - y0[D]))

    def take(self, kind: str, make):
        """The buffer of ``kind`` for this pass: ``make()``'s at each of the first two takes, then
        the older of those two, so that the pass before keeps its own."""
        lent = self._lent.setdefault(kind, [])
        if len(lent) < 2:
            lent.append(make())
        else:
            lent.reverse()
        return lent[-1]

    def table(self, kind: str, fill) -> np.ndarray:
        """The node table of ``kind`` for this pass, writable, made full of ``fill``: the row that
        every march of the kind starts from and none writes."""
        out = self.take(kind, lambda: np.full(self.shape, fill))
        out.setflags(write=True)
        return out


def integrate_forward(
    initial: StateVector,
    controls: ControlSignal,
    params: ModelParams,
    grid: TimeGrid,
    schedule: ImpulseSchedule | None = None,
    *,
    binder: _Binder | None = None,
) -> Trajectory:
    """March the controlled dynamics over the grid with classic RK4.

    At every impulse node the pre-jump state is recorded, the arrival jump is
    applied, and the post-jump state is recorded before marching continues.
    Compartments driven negative by roundoff are clamped to zero (logged at
    DEBUG) when their magnitude is at most 1e-9 times the initial living
    population; anything larger raises StabilityError (the step is too coarse).

    The step loop, C or Python (``model._kernels``), is bitwise equal to the same
    RK4 with numpy vectors, over every compartment; it stops at each node with a
    compartment below zero, which this pass clamps, writes and resumes from.
    A sweep hands in its ``binder``, bound to the same arguments.
    """
    b = binder or _Binder(params, grid, schedule, initial)
    v_n, u_n, *_ = samples = _sampled_controls(controls, grid)
    march = _kernels(params, march=True, steps=grid.n_steps)
    pre = b.table("forward", b.start)
    jumped = {}
    y = b.start
    clamped: list[float] = []
    for i0, i1 in b.cuts:
        node, y = march(y, (float(v_n[i0]), float(u_n[i0])), grid.h, i0, i1, pre, *samples)
        while node:  # a step left some compartment below zero there
            lowest = min(y)
            if lowest < b.floor:
                raise _too_coarse(lowest, grid.times[node])
            clamped.append(lowest)
            pre[node] = y = [0.0 if x < 0.0 else x for x in y]  # keeps -0.0, like np.maximum
            node, y = march(y, (float(v_n[node]), float(u_n[node])), grid.h, node, i1, pre, *samples)
        lam = b.imap.get(i1)
        if lam is not None:
            y = jumped[i1] = _apply_impulse(y, lam)
    if clamped:
        log.debug("forward pass: %d steps clamped to zero, lowest %.3e", len(clamped), min(clamped))

    return Trajectory(
        node_times=grid.times,
        states_pre=pre,
        states_post=_patched(pre, jumped),
        impulse_nodes=b.nodes,
    )


def integrate_adjoint_backward(
    traj: Trajectory,
    controls: ControlSignal,
    params: ModelParams,
    weights,
    grid: TimeGrid,
    schedule: ImpulseSchedule | None = None,
    *,
    binder: _Binder | None = None,
) -> AdjointTrajectory:
    """Integrate the costate system backward from its zero terminal value.

    The trajectory must come from ``integrate_forward`` on the same grid and
    controls; of the ``control.CostWeights`` only the running-cost weights
    ``omega`` enter.  States at interior RK stages are linearly interpolated
    between the segment endpoints.

    The generated costate march, C or Python (``model._kernels``), steps with
    -h, bitwise equal to the same RK4 written with numpy vectors; it reads
    only the S, E, A and I states.

    At impulse nodes the costates of the jumped compartments are multiplied
    by (1 + lam_l), the transpose of the diagonal arrival jump.  An overflowed
    costate stays inf or NaN to the march's end, so the value at each cut tells:
    StabilityError names the first non-finite node in march order.  A sweep
    hands in its ``binder``, bound to the same arguments.
    """
    times = grid.times
    if traj.node_times is not times and (len(traj.node_times) != len(times) or np.max(
            np.abs(traj.node_times - times)) > 1e-9 * max(1.0, grid.tau)):
        raise GridMismatchError("trajectory grid does not match the integration grid")
    b = binder or _Binder(params, grid, schedule)
    if set(b.imap) != set(traj.impulse_nodes):
        raise GridMismatchError("schedule impulse nodes do not match the trajectory's")

    v_n, u_n, *_ = samples = _sampled_controls(controls, grid)
    march = _kernels(params, weights.omega, march=True, steps=grid.n_steps)
    post = b.table("costate", 0.0)
    jumped = {}
    pq = [0.0] * b.shape[1]
    for i0, i1 in reversed(b.cuts):
        # the states either side of node i1 differ if it is an impulse node
        right = (*traj.states_pre[i1, :4].tolist(), float(v_n[i1]), float(u_n[i1]))
        _, pq = march(pq, right, -grid.h, i0, i1, post, *samples, traj.states_post)
        lam = b.imap.get(i0)
        if lam is not None:
            pq = jumped[i0] = _apply_impulse(pq, lam)
        if not all(map(math.isfinite, pq)):  # rows i1 - 1 down to i0, then the jump at i0
            bad = np.flatnonzero(~np.isfinite(post[i0:i1]).all(axis=1))
            t = times[i0 + bad[-1] if bad.size else i0]
            raise StabilityError(f"costates overflowed at t={t:.6g}; reduce h")

    return AdjointTrajectory(
        node_times=times,
        values_pre=_patched(post, jumped),
        values_post=post,
        impulse_nodes=b.nodes,
    )
