"""Independent validators for the sweep solver.

``brute_force_optimum`` exhaustively enumerates piecewise-constant control
pairs on a coarse segment grid, giving a search-free reference optimum.  It
marches each shared control prefix once, depth-first in chunks of at most
``_CHUNK`` candidates, through the sweep's own ``_rk4_step`` and ``_deriv``
on a compartment-major batch (one row of candidates each).
``finite_difference_gradient`` probes the cost functional directly with
central differences, to be compared against the costate-based gradient.
"""

from __future__ import annotations

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
    _deriv,
    _rk4_step,
    _too_coarse,
)

_CANDIDATE_GUARD = 10_000_000
_CHUNK = 8192


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


def _leaf_costs(
    y0: np.ndarray,
    u_choices: np.ndarray,
    v_choices: np.ndarray,
    params: ModelParams,
    weights: CostWeights,
    config: OracleConfig,
):
    """Yield ``(first, costs)`` per leaf chunk of the prefix tree, depth-first.

    Candidates sharing their first s segments share one trajectory through
    them.  From one row holding ``y0``, each segment repeats every live
    prefix into its u_levels*v_levels children, with level pair p = (u level
    p // v_levels, v level p % v_levels), ``_CHUNK`` children at a time,
    each chunk marched to the leaves before the next.  ``costs`` are whole
    candidate costs in tree order (the level pairs as digits, first segment
    most significant); ``first`` is the tree index of ``costs[0]``.

    Each row runs ``_rk4_step`` as ``integrate_forward`` runs a float state:
    a step that leaves a compartment below the negative tolerance raises
    StabilityError; smaller negatives are roundoff and are clamped to zero.
    """
    n_pairs = config.u_levels * config.v_levels
    u_pair = np.repeat(u_choices, config.v_levels)
    v_pair = np.tile(v_choices, config.u_levels)
    seg_len = config.horizon / config.segments
    steps = max(1, int(round(seg_len / config.h)))
    h = seg_len / steps
    tol = _NEGATIVE_TOL * float(y0.sum() - y0[D])
    terminal = weights.terminal.value(config.horizon)

    def march(y, cost, first, seg):
        if seg == config.segments:
            yield first, cost + terminal
            return
        children = len(cost) * n_pairs
        for lo in range(0, children, _CHUNK):
            parent, pair = np.divmod(np.arange(lo, min(lo + _CHUNK, children)), n_pairs)
            u, v = u_pair[pair], v_pair[pair]
            yc, c = [x[parent] for x in y], cost[parent]
            vu = (v, u, params)
            g_left = _running_cost_arrays(yc, u, v, weights, params)
            for k in range(steps):
                yc = _rk4_step(_deriv, yc, h, vu, vu, vu)
                for x in yc:
                    lowest = x.min()
                    if lowest < 0.0:
                        if lowest < -tol:
                            raise _too_coarse(lowest, (seg * steps + k + 1) * h)
                        np.maximum(x, 0.0, out=x)
                g_right = _running_cost_arrays(yc, u, v, weights, params)
                c += (0.5 * h) * (g_left + g_right)
                g_left = g_right
            yield from march(yc, c, first * n_pairs + lo, seg + 1)

    yield from march(list(y0[:, None]), np.zeros(1), 0, 0)


def brute_force_optimum(
    initial: StateVector,
    params: ModelParams,
    weights: CostWeights,
    config: OracleConfig,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Exhaustive minimum over piecewise-constant control pairs.

    Returns the best cost and the winning per-segment (u, v) levels.  A tie
    goes to the first candidate in u-sequence-major order: the u level
    numbers of all segments, then the v level numbers, first segment most
    significant.  The candidate count is bounded at construction of the
    config; ``_leaf_costs`` holds at most ``_CHUNK`` rows per segment and
    only a running best is kept, so memory stays flat.
    """
    if initial.n != params.n:
        raise ValueError("state and parameter dose counts must match")
    u_choices = np.linspace(0.0, 1.0, config.u_levels)
    v_choices = np.linspace(0.0, params.v_max, config.v_levels)
    tree_shape = (config.u_levels, config.v_levels) * config.segments
    flat_shape = tree_shape[0::2] + tree_shape[1::2]
    best = (np.inf, -1)
    for first, costs in _leaf_costs(initial.as_array(), u_choices, v_choices, params, weights, config):
        j = costs.min()
        if j <= best[0]:
            digits = np.unravel_index(first + np.flatnonzero(costs == j), tree_shape)
            index = np.ravel_multi_index(digits[0::2] + digits[1::2], flat_shape)
            best = min(best, (float(j), int(index.min())))
    if best[1] < 0:
        return best[0], None
    digits = list(np.unravel_index(best[1], flat_shape))
    return best[0], (u_choices[digits[: config.segments]], v_choices[digits[config.segments :]])


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
) -> float:
    """Costate-based dJ/d(eps) for the same unit bump.

    Evaluates the switching integrand (sigma0*u - I*(p4-p5), or its
    vaccination analogue) along one forward/backward pass and integrates it
    against the bump's hat profile.
    """
    traj = integrate_forward(initial, controls, params, grid, schedule)
    adj = integrate_adjoint_backward(traj, controls, params, weights, grid, schedule)
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
