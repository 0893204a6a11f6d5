"""Independent validators for the sweep solver.

``brute_force_optimum`` is an exact search over piecewise-constant control
pairs on a coarse segment grid.  It marches each shared control prefix once, depth-first
in chunks of at most ``_CHUNK`` candidates, a chunk through its segment in one call of the
generated RK4 state ``step`` (``model._kernels``) in numpy (``_segment``) or, once the marches
are compiled, in C from the same lines.  It drops a candidate before a chunk or after any step
once a proved lower bound on its cost exceeds the best leaf found or, at first, the cheapest
constant control pair's cost, which the same segment call prices.  Each row carries its flat
candidate number, by which the argmin of the marched leaves breaks ties.
``finite_difference_gradient`` probes the cost functional directly with
central differences, to be compared against the costate-based gradient.
"""

from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass, replace

import numpy as np

from .control import (
    CostWeights,
    _cost_fault,
    _running_cost_arrays,
    _switching_arrays,
    total_cost,
)
from .errors import BoxViolationError, ExplosionGuardError, RangeError, StabilityError
from .integrator import TimeGrid, integrate_adjoint_backward, integrate_forward
from .model import (
    A,
    D,
    E,
    I,
    S,
    _NEGATIVE_TOL,
    ControlSignal,
    ModelParams,
    StateVector,
    _kernels,
    _number_faults,
    _raise_faults,
    _too_coarse,
)
from . import native

log = logging.getLogger("epictrl")
_CANDIDATE_GUARD = 10_000_000
_CHUNK = 8192
_MARGIN = 1e-6  # relative slack of the cost-to-go bound and the first incumbent, for rounding


@dataclass(frozen=True)
class OracleConfig:
    """Size of the brute-force search: horizon, segment count, level counts."""

    horizon: float
    segments: int = 5
    u_levels: int = 3
    v_levels: int = 3
    h: float = 0.05

    def __post_init__(self):
        faults = _number_faults(vars(self), ("horizon", "h"), positive=True)
        for name, least in (("segments", 1), ("u_levels", 2), ("v_levels", 2)):
            if not isinstance(k := getattr(self, name), int) or isinstance(k, bool) or k < least:
                faults.append(f"{name}: expected an integer >= {least}")
        _raise_faults(self, faults)
        if self.candidates > _CANDIDATE_GUARD:
            raise ExplosionGuardError(f"{self.u_levels}^{self.segments} * {self.v_levels}^{self.segments} "
                                      f"candidates exceed the {_CANDIDATE_GUARD} guard")

    @property
    def candidates(self) -> int:
        return self.u_levels**self.segments * self.v_levels**self.segments


def _segment_steps(config: OracleConfig) -> tuple[int, float]:
    """RK4 steps per segment and their length."""
    steps = max(1, int(round(config.horizon / config.segments / config.h)))
    return steps, config.horizon / config.segments / steps


def _cost_to_go(y0, params: ModelParams, weights: CostWeights, h: float, total: int, rows):
    """``(lb, state)``: lb[c][r] * y_c bounds from below the running cost that pool c of E, A
    and I, if weighted, adds over the last r of ``total`` RK4 steps of length h; or lb is {}
    and ``state`` says why the bound is off.  For u <= 1, v <= v_max and a living population
    N <= N0 (y0's), the marched ``rows`` leave at most at a = beta*max(eps, 1-q, mu)*N0 +
    gamma1*v_max (S), k (E), eta (A), f + 1 (I), gamma_(j+1)*v_max + delta_j (V_j; V_n: delta_n).
    Proof, for 2t = h*max(a) <= 3/8 (else off) and m = (1-t)^2 - t.  Each pool obeys
    y' = P(y) - a(y)*y: the inflow P >= 0 is monotone, with P(l*y) >= l*l*P(y) for l <= 1
    (degree <= 2, coefficients >= 0), and 0 <= a(y) <= a while the stages are >= 0, as
    N' = -(1-alpha)*f*I <= 0 then.  So Y2, Y3 >= (1-t)y, Y3 >= m*Y2, Y4 >= (1-2t)y +
    h*P(Y2)*(m*m - t) >= 0, y+ >= (1 - 2t + 2t*t/3)y >= 0 (clamps fix only roundoff).  E, A
    and I keep a(y) on a segment: y+ = R(-z)y + h*sum_j b_j*P(Y_j), z = h*a(y) <= 1, with
    6b = (1 - z + z^2/2 - z^3/4, 2 - z + z^2/2, 2 - z, 1) >= 0 and R(-z) = 1 - z + z^2/2 -
    z^3/6 + z^4/24 falling, so y+ >= rho*y, rho = R(-h*a).  The trapezoid terms of the last
    r steps sum to omega_c*y_c*sum_(k<r) (rho^k + rho^(k+1))*h/2 or more; lb keeps 1 - _MARGIN.
    """
    g, d, v_max = params.gamma, params.delta, params.v_max
    force = params.beta * max(params.epsilon, 1.0 - params.q, params.mu) * float(y0.sum() - y0[D])
    rates = [force + g[0] * v_max, params.k, params.eta, params.f + 1.0, 0.0, 0.0]
    rates += [gj * v_max + dj for gj, dj in zip((*g[1:], 0.0), d)]  # V_n is marched if it leaks
    worst = max(rows, key=rates.__getitem__)
    if h * rates[worst] > 0.375:
        name = "SEAIRD"[worst] if worst <= D else f"V{worst - D}"
        return {}, f"off: h*{rates[worst]:.6g} > 0.375 for {name}"
    rho = np.polyval([1.0 / 24.0, -1.0 / 6.0, 0.5, -1.0, 1.0], h * np.array(rates[E : I + 1]))
    first = np.array(weights.omega[E : I + 1]) * (1.0 + rho) * (0.5 * h * (1.0 - _MARGIN))
    table = np.cumsum(np.c_[np.zeros(3), first[:, None] * rho[:, None] ** np.arange(total)], axis=1)
    lb = {c: table[c - E] for c in (E, A, I) if weights.omega[c] > 0.0}
    return lb, "on" if lb else "off: no weight on E, A or I"


def _segment(pr, weights, h: float, tol: float, limit: float, lb: dict, y, c, i, u, v, first: int, steps: int, left: int):
    """March rows y (one per candidate) of costs c, candidate numbers i and controls u, v ``steps`` RK4
    steps of length h from step ``first``, ``left`` before the leaves, with the step ``integrate_forward``
    runs less the compartments no row reads (``step.rows``, y's columns).  A step that leaves one below
    the negative tolerance raises StabilityError; smaller negatives are roundoff, clamped to zero.  Then
    each row adds its trapezoid cell and is dropped if its bound exceeds the limit.  Returns the rows
    kept, their costs and numbers, and the row-steps marched; ``native._segment`` is its C twin."""
    (_, step), yc, row_steps = _kernels(pr), list(y.T), 0
    g_left = _running_cost_arrays(yc, u, v, weights, pr)
    for k in range(steps):
        if not len(c):
            break
        row_steps += len(c)
        yc = step(yc, h, (v, u))
        for x in yc:
            lowest = x.min()
            if lowest < 0.0:
                if lowest < -tol:
                    raise _too_coarse(lowest, (first + k + 1) * h)
                np.maximum(x, 0.0, out=x)
        g_right = _running_cost_arrays(yc, u, v, weights, pr)
        c += (0.5 * h) * (g_left + g_right)
        g_left = g_right
        row_bound = sum((lb_j[left - k - 1] * yc[j] for j, lb_j in lb.items()), c)
        if row_bound.max() > limit:
            live = row_bound <= limit
            c, i, g_left, u, v = c[live], i[live], g_left[live], u[live], v[live]
            yc = [x[live] for x in yc]
    return np.column_stack(yc), c, i, row_steps


def _leaf_costs(
    y0: np.ndarray,
    u_choices: np.ndarray,
    v_choices: np.ndarray,
    params: ModelParams,
    weights: CostWeights,
    config: OracleConfig,
    incumbent,
):
    """Yield ``(index, costs)`` per chunk of marched leaves of the prefix tree, depth-first.

    Candidates sharing their first s segments share one trajectory through
    them.  From one row holding ``y0``, each segment repeats every live
    prefix into its u_levels*v_levels children, with level pair p = (u level
    p // v_levels, v level p % v_levels), ``_CHUNK`` children at a time,
    each chunk marched to the leaves before the next.  ``costs`` are whole
    candidate costs and ``index`` their flat candidate numbers: the u level
    numbers of all segments, then the v level numbers, first segment most
    significant (a child's is its parent's plus its level pair's ``offset``).

    Branch and bound: a row whose prefix cost, plus the terminal cost, plus ``_cost_to_go``'s
    lower bound on the cost of the row's steps left (A*'s admissible bound; 0 where h times
    some marched exit-rate bound exceeds 3/8 or E, A and I weigh nothing), exceeds
    ``incumbent(seed)`` (at least the best leaf cost, never rising) times 1 + ``_MARGIN``, tested
    before a chunk is marched and after every RK4 step, is dropped at once: neither it nor
    any of its leaves is marched or yielded again.  Cost increments are >= 0 (omega, sigma,
    states >= 0), rounded addition is monotone and ``_MARGIN`` far exceeds the test's
    rounding, so a dropped row leads to neither the minimum nor a tie.

    A chunk is marched through its segment by one ``_segment`` call, or by one call of its C
    twin once the marches are compiled; only marched rows step, so a dropped row never raises.
    First the same call marches the constant candidates from y0, unbounded, ``_CHUNK`` at a time:
    seed is their least leaf cost times 1 + ``_MARGIN``, of the chunks that raise no StabilityError.
    """
    n_pairs = config.u_levels * config.v_levels
    u_digit, v_digit = np.divmod(np.arange(n_pairs), config.v_levels)
    u_pair, v_pair = u_choices[u_digit], v_choices[v_digit]
    rest = np.arange(config.segments)[::-1, None]  # the segments after each one
    u_place = config.u_levels**rest * config.v_levels**config.segments
    offset = u_digit * u_place + v_digit * config.v_levels**rest  # [segment, level pair]
    steps, h = _segment_steps(config)
    tol = _NEGATIVE_TOL * float(y0.sum() - y0[D])
    terminal = weights.terminal.value(config.horizon)
    _, step = _kernels(params)
    total, seed, slack = config.segments * steps, np.inf, 1.0 + _MARGIN
    lb, state = _cost_to_go(y0, params, weights, h, total, step.rows)
    segment = (native._marches(params.n, params.delta_n_to_exposed, n_pairs * total) or {}).get("segment", _segment)
    for pair in np.split(np.arange(n_pairs), range(_CHUNK, n_pairs, _CHUNK)):  # the constant candidates
        with contextlib.suppress(StabilityError):
            c = segment(params, weights, h, tol, np.inf, {}, np.tile(y0[step.rows], (len(pair), 1)),
                        np.zeros(len(pair)), 1.0 * pair, u_pair[pair], v_pair[pair], 0, total, total)[1]
            seed = min(seed, (c.min() + terminal) * slack)
    marched, row_steps, start = 0, 0, incumbent(seed)

    def march(y, cost, index, seg):
        nonlocal marched, row_steps
        if seg == config.segments:
            yield index.astype(np.int64), cost + terminal
            return
        left = (config.segments - seg) * steps
        parent_bound = sum((lb_j[left] * y[:, j] for j, lb_j in lb.items()), cost)
        children = len(cost) * n_pairs
        for lo in range(0, children, _CHUNK):
            parent, pair = np.divmod(np.arange(lo, min(lo + _CHUNK, children)), n_pairs)
            keep = parent_bound[parent] <= (limit := incumbent(seed) * slack - terminal)
            parent, pair = parent[keep], pair[keep]
            if not len(parent):
                continue
            marched += len(parent)
            yc, c, i, count = segment(params, weights, h, tol, limit, lb, y[parent], cost[parent],
                                      index[parent] + offset[seg, pair], u_pair[pair], v_pair[pair],
                                      seg * steps, steps, left)
            row_steps += count
            if len(c):
                yield from march(yc, c, i, seg + 1)

    yield from march(y0[None, step.rows], np.zeros(1), np.zeros(1), 0)
    rows = sum(n_pairs**s for s in range(1, config.segments + 1))
    counts = (marched, rows, row_steps, rows * steps, start, state)
    line = "oracle: marched %d of %d prefix-tree rows, %d of %d row-steps; incumbent %.17g"
    log.debug(line + " at the start; cost-to-go bound %s", *counts)


def brute_force_optimum(
    initial: StateVector,
    params: ModelParams,
    weights: CostWeights,
    config: OracleConfig,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Exact minimum over piecewise-constant control pairs, skipping every subtree whose cost
    bound (``_leaf_costs``) exceeds the best leaf found or, at first, the cheapest constant
    pair's leaf cost, priced by the search's own segment march, times 1 + ``_MARGIN``.

    Returns the best cost and the winning per-segment (u, v) levels, bitwise
    those of marching every candidate.  A tie goes to the lowest flat
    candidate number that ``_leaf_costs`` yields: the u level numbers of all
    segments, then the v level numbers, first segment most significant.  The
    candidate count is bounded at construction of the config; ``_leaf_costs``
    holds at most ``_CHUNK`` rows per segment and only a running best is
    kept, so memory stays flat.  As in ``fbsm_solve``, weights whose running
    cost has no finite bound over the horizon, or whose terminal cost
    overflows there, raise RangeError.
    """
    if initial.n != params.n:
        raise ValueError("state and parameter dose counts must match")
    if fault := _cost_fault(initial, params, weights, config.horizon, None):
        raise RangeError(fault)
    u_choices = np.linspace(0.0, 1.0, config.u_levels)
    v_choices = np.linspace(0.0, params.v_max, config.v_levels)
    best, y0 = (np.inf, -1), initial.as_array()
    leaves = _leaf_costs(y0, u_choices, v_choices, params, weights, config, lambda seed: min(best[0], seed))
    for index, costs in leaves:
        j = costs.min()
        if j <= best[0]:
            best = min(best, (float(j), int(index[costs == j].min())))
    if best[1] < 0:
        return best[0], None
    shape = (config.u_levels,) * config.segments + (config.v_levels,) * config.segments
    digits = list(np.unravel_index(best[1], shape))
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
    return replace(controls, **{which: plus}), replace(controls, **{which: minus})


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
    if not epsilon > 0:  # NaN too
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
    v_n, u_n = controls.at(grid.times)
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
