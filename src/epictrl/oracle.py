"""Independent validators for the sweep solver.

``brute_force_optimum`` is an exact search over piecewise-constant control
pairs on a coarse segment grid.  It marches each shared control prefix once,
depth-first in chunks of at most ``_CHUNK`` candidates, through the generated
RK4 state ``step`` (``model._kernels``) on a compartment-major batch (one row
per compartment the cost reads), and drops a candidate before a chunk or after
any step once it is proved costlier than the best leaf found.
``finite_difference_gradient`` probes the cost functional directly with
central differences, to be compared against the costate-based gradient.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .control import (
    CostWeights,
    _cost_fault,
    _running_cost_arrays,
    _switching_arrays,
    total_cost,
)
from .errors import BoxViolationError, ExplosionGuardError, RangeError
from .integrator import TimeGrid, integrate_adjoint_backward, integrate_forward
from .model import (
    D,
    _NEGATIVE_TOL,
    ControlSignal,
    ModelParams,
    StateVector,
    _kernels,
    _too_coarse,
)

log = logging.getLogger("epictrl")
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
    incumbent,
):
    """Yield ``(first, costs)`` per leaf chunk of the prefix tree, depth-first.

    Candidates sharing their first s segments share one trajectory through
    them.  From one row holding ``y0``, each segment repeats every live
    prefix into its u_levels*v_levels children, with level pair p = (u level
    p // v_levels, v level p % v_levels), ``_CHUNK`` children at a time,
    each chunk marched to the leaves before the next.  ``costs`` are whole
    candidate costs in tree order (the level pairs as digits, first segment
    most significant); ``first`` is the tree index of ``costs[0]``.

    Branch and bound: a row whose prefix cost plus the terminal cost exceeds
    ``incumbent()`` (the best leaf cost so far, never rising), tested before a
    chunk is marched and after every RK4 step, is dropped at once and never
    marched again; its leaves are yielded as +inf, and an emptied chunk is
    skipped.  Cost increments are >= 0 (omega, sigma, states >= 0) and rounded
    addition is monotone, so a dropped row leads to neither the minimum nor a
    tie.  A level's chunks go in ascending order of their cheapest parent.

    Each row runs the RK4 step that ``integrate_forward`` runs on a float
    state, less the compartments no row reads (``step.rows``): a step that
    leaves one below the negative tolerance raises StabilityError (only
    marched rows step, so a dropped row never raises); smaller negatives are
    roundoff and are clamped to zero.
    """
    n_pairs = config.u_levels * config.v_levels
    u_pair = np.repeat(u_choices, config.v_levels)
    v_pair = np.tile(v_choices, config.u_levels)
    seg_len = config.horizon / config.segments
    steps = max(1, int(round(seg_len / config.h)))
    h = seg_len / steps
    tol = _NEGATIVE_TOL * float(y0.sum() - y0[D])
    terminal = weights.terminal.value(config.horizon)
    _, step = _kernels(params)
    marched = row_steps = 0

    def march(y, cost, first, seg):
        nonlocal marched, row_steps
        if seg == config.segments:
            yield first, cost + terminal
            return
        children = len(cost) * n_pairs
        los = range(0, children, _CHUNK)
        cheapest = [cost[lo // n_pairs : (lo + _CHUNK - 1) // n_pairs + 1].min() for lo in los]
        for _, lo in sorted(zip(cheapest, los)):
            parent, pair = np.divmod(np.arange(lo, min(lo + _CHUNK, children)), n_pairs)
            keep = np.flatnonzero(cost[parent] + terminal <= incumbent())
            marched += len(keep)
            yc, c = [x[parent[keep]] for x in y], cost[parent[keep]]
            u, v = u_pair[pair[keep]], v_pair[pair[keep]]
            vu = (v, u)
            g_left = _running_cost_arrays(yc, u, v, weights, params)
            for k in range(steps):
                if not len(keep):
                    break
                row_steps += len(keep)
                yc = step(yc, h, vu, vu, vu)
                for x in yc:
                    lowest = x.min()
                    if lowest < 0.0:
                        if lowest < -tol:
                            raise _too_coarse(lowest, (seg * steps + k + 1) * h)
                        np.maximum(x, 0.0, out=x)
                g_right = _running_cost_arrays(yc, u, v, weights, params)
                c += (0.5 * h) * (g_left + g_right)
                g_left = g_right
                live = c + terminal <= incumbent()
                if not live.all():
                    keep, c, g_left, u, v = keep[live], c[live], g_left[live], u[live], v[live]
                    yc, vu = [x[live] for x in yc], (v, u)
            if not len(keep):
                continue
            if len(keep) < len(pair):  # the dropped rows hold +inf, so their children drop
                wide = np.full((len(yc) + 1, len(pair)), np.inf)
                wide[:, keep] = [*yc, c]
                *yc, c = wide
            yield from march(yc, c, first * n_pairs + lo, seg + 1)

    yield from march(list(y0[step.rows, None]), np.zeros(1), 0, 0)
    rows = sum(n_pairs**s for s in range(1, config.segments + 1))
    counts = (marched, rows, row_steps, rows * steps)
    log.debug("oracle: marched %d of %d prefix-tree rows, %d of %d row-steps", *counts)


def brute_force_optimum(
    initial: StateVector,
    params: ModelParams,
    weights: CostWeights,
    config: OracleConfig,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Exact minimum over piecewise-constant control pairs, skipping every
    subtree proved costlier than the best leaf found (``_leaf_costs``).

    Returns the best cost and the winning per-segment (u, v) levels, bitwise
    those of marching every candidate.  A tie goes to the first candidate in
    u-sequence-major order: the u level numbers of all segments, then the v
    level numbers, first segment most significant.  The candidate count is
    bounded at construction of the config; ``_leaf_costs`` holds at most
    ``_CHUNK`` rows per segment and only a running best is kept, so memory
    stays flat.  As in ``fbsm_solve``, weights whose running cost has no
    finite bound over the horizon, or whose terminal cost overflows there,
    raise RangeError.
    """
    if initial.n != params.n:
        raise ValueError("state and parameter dose counts must match")
    if fault := _cost_fault(initial, params, weights, config.horizon, None):
        raise RangeError(fault)
    u_choices = np.linspace(0.0, 1.0, config.u_levels)
    v_choices = np.linspace(0.0, params.v_max, config.v_levels)
    tree_shape = (config.u_levels, config.v_levels) * config.segments
    flat_shape = tree_shape[0::2] + tree_shape[1::2]
    best = (np.inf, -1)
    leaves = _leaf_costs(
        initial.as_array(), u_choices, v_choices, params, weights, config, lambda: best[0]
    )
    for first, costs in leaves:
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
