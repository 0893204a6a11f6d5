"""Independent validators for the sweep solver.

``brute_force_optimum`` exhaustively enumerates piecewise-constant control
pairs on a coarse segment grid, giving a search-free reference optimum.  It
marches all candidates in lockstep through the sweep's own ``_rk4_step`` and
``_deriv`` on a compartment-major batch (one row of candidates each).
``finite_difference_gradient`` probes the cost functional directly with
central differences, to be compared against the costate-based gradient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .control import (
    CostWeights,
    _running_cost_arrays,
    _switching_arrays,
    total_cost,
)
from .errors import BoxViolationError, ExplosionGuardError
from .integrator import TimeGrid, integrate_adjoint_backward, integrate_forward
from .model import (
    D,
    _NEGATIVE_TOL,
    ControlSignal,
    ModelParams,
    StateVector,
    _rk4_step,
    _too_coarse,
)

_CANDIDATE_GUARD = 10_000_000
_CHUNK = 65536


@dataclass(frozen=True)
class OracleConfig:
    """Size of the brute-force search: horizon, segment count, level counts."""

    horizon: float
    segments: int = 5
    u_levels: int = 3
    v_levels: int = 3
    h: float = 0.05

    def __post_init__(self):
        if self.horizon <= 0 or self.h <= 0:
            raise ValueError("horizon and step must be positive")
        if self.segments < 1 or self.u_levels < 2 or self.v_levels < 2:
            raise ValueError("need at least one segment and two levels per control")
        if self.u_levels**self.segments * self.v_levels**self.segments > _CANDIDATE_GUARD:
            raise ExplosionGuardError(
                f"{self.u_levels}^{self.segments} * {self.v_levels}^{self.segments} "
                f"candidates exceed the {_CANDIDATE_GUARD} guard"
            )

    @property
    def candidates(self) -> int:
        return self.u_levels**self.segments * self.v_levels**self.segments


def _integrate_batch_cost(
    y0: np.ndarray,
    u_seg: np.ndarray,
    v_seg: np.ndarray,
    params: ModelParams,
    weights: CostWeights,
    config: OracleConfig,
) -> np.ndarray:
    """Cost of every candidate, marching all of them in lockstep with
    ``_rk4_step`` on one row of M candidates per compartment.

    As in ``integrate_forward``, a step that leaves a compartment below the
    negative tolerance raises StabilityError; smaller negatives are roundoff
    and are clamped to zero.
    """
    m = u_seg.shape[0]
    seg_len = config.horizon / config.segments
    steps = max(1, int(round(seg_len / config.h)))
    h = seg_len / steps
    tol = _NEGATIVE_TOL * float(y0.sum() - y0[D])
    y = list(np.tile(y0[:, None], (1, m)))
    cost = np.zeros(m)
    for seg in range(config.segments):
        u = u_seg[:, seg]
        v = v_seg[:, seg]
        for k in range(steps):
            g_left = _running_cost_arrays(y, u, v, weights, params)
            y = _rk4_step(y, h, v, u, v, u, v, u, params)
            for x in y:
                lowest = x.min()
                if lowest < 0.0:
                    if lowest < -tol:
                        raise _too_coarse(lowest, (seg * steps + k + 1) * h)
                    np.maximum(x, 0.0, out=x)
            cost += (0.5 * h) * (g_left + _running_cost_arrays(y, u, v, weights, params))
    return cost + weights.terminal.value(config.horizon)


def brute_force_optimum(
    initial: StateVector,
    params: ModelParams,
    weights: CostWeights,
    config: OracleConfig,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Exhaustive minimum over piecewise-constant control pairs.

    Returns the best cost and the winning per-segment (u, v) levels.  The
    candidate count is bounded at construction of the config; enumeration is
    chunked so memory stays flat.
    """
    if initial.n != params.n:
        raise ValueError("state and parameter dose counts must match")
    u_choices = np.linspace(0.0, 1.0, config.u_levels)
    v_choices = np.linspace(0.0, params.v_max, config.v_levels)
    u_combos = np.array(list(itertools.product(u_choices, repeat=config.segments)))
    v_combos = np.array(list(itertools.product(v_choices, repeat=config.segments)))
    n_v = len(v_combos)
    total = len(u_combos) * n_v
    y0 = initial.as_array()

    best_cost = np.inf
    best_pair = None
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total))
        u_seg = u_combos[idx // n_v]
        v_seg = v_combos[idx % n_v]
        costs = _integrate_batch_cost(y0, u_seg, v_seg, params, weights, config)
        k = int(np.argmin(costs))
        if costs[k] < best_cost:
            best_cost = float(costs[k])
            best_pair = (u_seg[k].copy(), v_seg[k].copy())
    return best_cost, best_pair


def piecewise_signal(
    u_seg: np.ndarray, v_seg: np.ndarray, horizon: float, grid: TimeGrid, v_max: float = 1.0
) -> ControlSignal:
    """Sample per-segment constant levels onto a dense grid.

    Linear interpolation of the samples reproduces the steps exactly except
    for a one-cell ramp at each segment boundary.
    """
    times = grid.times
    seg_len = horizon / len(u_seg)
    idx = np.minimum((times / seg_len).astype(int), len(u_seg) - 1)
    return ControlSignal(times, np.asarray(v_seg)[idx], np.asarray(u_seg)[idx], v_max)


def _bump(controls: ControlSignal, cell_index: int, eps: float, which: str) -> tuple[ControlSignal, ControlSignal]:
    if which not in ("u", "v"):
        raise ValueError("which must be 'u' or 'v'")
    base = controls.u if which == "u" else controls.v
    hi = 1.0 if which == "u" else controls.v_max
    x = float(base[cell_index])
    if x - eps < 0.0 or x + eps > hi:
        raise BoxViolationError(
            f"bump of {eps} at cell {cell_index} leaves the {which} box [0, {hi}]"
        )
    plus = base.copy()
    minus = base.copy()
    plus[cell_index] += eps
    minus[cell_index] -= eps
    if which == "u":
        return (
            ControlSignal(controls.grid, controls.v, plus, controls.v_max),
            ControlSignal(controls.grid, controls.v, minus, controls.v_max),
        )
    return (
        ControlSignal(controls.grid, plus, controls.u, controls.v_max),
        ControlSignal(controls.grid, minus, controls.u, controls.v_max),
    )


def finite_difference_gradient(
    initial: StateVector,
    params: ModelParams,
    weights: CostWeights,
    controls: ControlSignal,
    grid: TimeGrid,
    cell_index: int,
    epsilon: float,
    which: str = "u",
    schedule=None,
) -> float:
    """Central-difference dJ/d(eps) for a unit bump at one control node."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    plus, minus = _bump(controls, cell_index, epsilon, which)
    j_plus = total_cost(integrate_forward(initial, plus, params, grid, schedule), plus, weights, params)
    j_minus = total_cost(
        integrate_forward(initial, minus, params, grid, schedule), minus, weights, params
    )
    return (j_plus - j_minus) / (2.0 * epsilon)


def adjoint_gradient(
    initial: StateVector,
    params: ModelParams,
    weights: CostWeights,
    controls: ControlSignal,
    grid: TimeGrid,
    cell_index: int,
    which: str = "u",
    schedule=None,
    adjoint_impulse: str = "multiplicative",
) -> float:
    """Costate-based dJ/d(eps) for the same unit bump.

    Evaluates the switching integrand (sigma0*u - I*(p4-p5), or its
    vaccination analogue) along one forward/backward pass and integrates it
    against the bump's hat profile.
    """
    traj = integrate_forward(initial, controls, params, grid, schedule)
    adj = integrate_adjoint_backward(
        traj, controls, params, weights, grid, schedule, adjoint_impulse=adjoint_impulse
    )
    times = grid.times
    v_n = np.interp(times, controls.grid, controls.v)
    u_n = np.interp(times, controls.grid, controls.u)
    u_raw, v_raw = _switching_arrays(traj.states_post, adj.values_post, params, weights)
    if which == "u":
        integrand = weights.sigma0 * (u_n - u_raw)
    elif which == "v":
        integrand = weights.vaccination_gain(params) * (v_n - v_raw)
    else:
        raise ValueError("which must be 'u' or 'v'")
    # Trapezoid weight of the hat profile: h at interior nodes, h/2 at the ends.
    weight = grid.h if 0 < cell_index < grid.n_steps else 0.5 * grid.h
    return float(weight * integrand[cell_index])
