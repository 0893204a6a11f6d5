"""Domain types and the controlled compartmental vector field.

Compartments are a susceptible pool S, an incubating pool E, an asymptomatic
pool A, a symptomatic pool I, recovered R, deceased D, and an ordered chain of
vaccination-dose pools V1..Vn (people whose latest dose is the i-th).  Two
controls act on the system: a vaccination effort v(t) in [0, 1/gamma1] moving
people along S -> V1 -> ... -> Vn, and a treatment effort u(t) in [0, 1]
moving symptomatic people to R.

The canonical array layout used throughout the package is

    [S, E, A, I, R, D, V1, ..., Vn]

so a state vector has n + 6 components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DegenerateParameterError, StabilityError

# Indices into the canonical state layout.
S, E, A, I, R, D = 0, 1, 2, 3, 4, 5
V0 = 6  # first vaccination compartment

# A step may leave a compartment below zero by at most this fraction of the
# initial living population (roundoff, clamped to zero); lower means the step
# is too coarse.
_NEGATIVE_TOL = 1e-9


# Value rules.  Each config component states its rules once, in a static
# ``violations`` that returns every fault as "field: reason" and skips absent
# fields; its constructor raises on any fault, and the config-file validator
# calls the same function with the values of the right JSON type.


def _number_faults(values, names, lo=None, hi=None, positive=False) -> list[str]:
    """A fault for each of ``names`` in ``values`` that is not finite or not in range."""
    out = []
    for name in names:
        if name not in values:
            continue
        x = values[name]
        if not math.isfinite(x):
            out.append(f"{name}: not finite")
        elif positive and x <= 0:
            out.append(f"{name}: must be positive")
        elif lo is not None and x < lo:
            out.append(f"{name}: {float(x)} below minimum {lo}")
        elif hi is not None and x > hi:
            out.append(f"{name}: {float(x)} above maximum {hi}")
    return out


def _entry_faults(
    values, name, least=1, exact=None, hi=math.inf, bad="negative entry", chain=False
) -> list[str]:
    """The first fault of list ``values[name]``: its length, a non-finite entry, one outside
    [0, hi], or, for a dose ``chain``, an entry above the one before it."""
    xs = values.get(name)
    if xs is None:
        return []
    if exact is not None and len(xs) != exact:
        return [f"{name}: expected exactly {exact} entries"]
    if len(xs) < least:
        return [f"{name}: expected a list of at least {least} numbers"]
    if not all(math.isfinite(x) for x in xs):
        return [f"{name}: not finite"]
    if any(not 0.0 <= x <= hi for x in xs):
        return [f"{name}: {bad}"]
    if chain and any(a < b for a, b in zip(xs, xs[1:])):
        return [f"{name}: not non-increasing"]
    return []


def _field_values(component) -> dict:
    """A dataclass's fields by name, read with getattr: ``vars()`` would build the instance
    dict, which takes later attribute reads, ``_deriv``'s among them, off CPython's fast path."""
    return {f.name: getattr(component, f.name) for f in fields(component)}


def _raise_faults(component, faults: list[str] | None = None) -> None:
    """ValueError naming every fault of a component; by default, its ``violations``."""
    faults = component.violations(_field_values(component)) if faults is None else faults
    if faults:
        raise ValueError(f"{type(component).__name__}: " + "; ".join(faults))


@dataclass(frozen=True)
class StateVector:
    """Compartment populations at one instant (persons, all non-negative)."""

    S: float
    E: float
    A: float
    I: float
    R: float
    D: float
    V: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "V", tuple(float(x) for x in self.V))
        _raise_faults(self)

    @staticmethod
    def violations(values) -> list[str]:
        """Faults of the given fields as "field: reason": finite, non-negative, one dose or more."""
        out = _number_faults(values, ("S", "E", "A", "I", "R", "D"), 0.0)
        return out + _entry_faults(values, "V")

    @property
    def n(self) -> int:
        return len(self.V)

    def as_array(self) -> np.ndarray:
        """Canonical layout [S, E, A, I, R, D, V1..Vn]."""
        return np.array([self.S, self.E, self.A, self.I, self.R, self.D, *self.V])

    @classmethod
    def from_array(cls, y: np.ndarray) -> "StateVector":
        y = np.asarray(y, dtype=float)
        return cls(y[S], y[E], y[A], y[I], y[R], y[D], tuple(y[V0:]))


@dataclass(frozen=True)
class ModelParams:
    """Epidemiological rates and dose-specific vaccination/breakthrough rates.

    beta is the transmission coefficient (per person per day); epsilon, q, mu
    weight the infectiousness of the E, I, A pools inside the force of
    infection.  k is the incubation exit rate, z the symptomatic fraction,
    eta the asymptomatic exit rate with recovered fraction p, f the
    symptomatic exit rate with survival fraction alpha.  gamma[i] multiplies
    the vaccination control for the (i+1)-th dose, delta[i] is the
    breakthrough rate out of V_{i+1} back into E.

    ``delta_n_to_exposed`` routes the last-dose breakthrough flow
    delta_n * V_n into E as well; by default that flow is absent (the last
    dose is treated as fully protective, delta_n ~ 0).
    """

    beta: float
    epsilon: float
    q: float
    mu: float
    k: float
    z: float
    p: float
    eta: float
    alpha: float
    f: float
    gamma: tuple[float, ...]
    delta: tuple[float, ...]
    delta_n_to_exposed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(float(x) for x in self.gamma))
        object.__setattr__(self, "delta", tuple(float(x) for x in self.delta))
        _raise_faults(self)

    @staticmethod
    def violations(values) -> list[str]:
        """Faults of the given fields as "field: reason": rates in [0, 1], epsilon, mu >= 0, and
        equally long non-increasing dose chains of two or more, gamma[0] > 0, delta <= gamma."""
        out = _number_faults(values, ("beta", "eta", "p", "k", "z", "alpha", "f", "q"), 0.0, 1.0)
        out += _number_faults(values, ("epsilon", "mu"), 0.0)
        g_faults = _entry_faults(values, "gamma", least=2, chain=True)
        d_faults = _entry_faults(values, "delta", least=2, chain=True)
        out += g_faults + d_faults
        g = None if g_faults else values.get("gamma")
        d = None if d_faults else values.get("delta")
        if g is not None and g[0] <= 0:
            out.append("gamma: first entry must be positive")
        if g is not None and d is not None:
            if len(d) != len(g):
                out.append("delta: length differs from gamma")
            elif any(gi < di for gi, di in zip(g, d)):
                out.append("delta: exceeds gamma at some dose")
        return out

    @property
    def n(self) -> int:
        return len(self.gamma)

    @property
    def v_max(self) -> float:
        """Upper bound of the vaccination-control box, 1/gamma1."""
        return 1.0 / self.gamma[0]


@dataclass(frozen=True)
class ControlSignal:
    """Sampled (v, u) control pair on a strictly increasing time grid.

    Values between samples are defined by linear interpolation.
    """

    grid: np.ndarray
    v: np.ndarray
    u: np.ndarray
    v_max: float = 1.0

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.v, dtype=float)
        u = np.asarray(self.u, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "u", u)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("control grid needs at least two samples")
        if grid[0] != 0.0:
            raise ValueError("control grid must start at t=0")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("control grid must be strictly increasing")
        if v.shape != grid.shape or u.shape != grid.shape:
            raise ValueError("control samples must match the grid shape")
        if np.any(u < 0) or np.any(u > 1):
            raise ValueError("treatment control outside [0, 1]")
        if np.any(v < 0) or np.any(v > self.v_max * (1 + 1e-12)):
            raise ValueError(f"vaccination control outside [0, {self.v_max}]")

    @property
    def tau(self) -> float:
        return float(self.grid[-1])

    def at(self, t):
        """Linearly interpolated (v, u) at time(s) t."""
        return np.interp(t, self.grid, self.v), np.interp(t, self.grid, self.u)

    @classmethod
    def constant(cls, grid: np.ndarray, v: float, u: float, v_max: float = 1.0) -> "ControlSignal":
        grid = np.asarray(grid, dtype=float)
        return cls(grid, np.full_like(grid, float(v)), np.full_like(grid, float(u)), v_max)


@dataclass(frozen=True)
class ImpulseEvent:
    """One arrival event: at time t, the S/E/A/I pools grow by rates lam."""

    time: float
    lam: tuple[float, float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(float(x) for x in self.lam))
        _raise_faults(self)

    @staticmethod
    def violations(values) -> list[str]:
        """Faults of the given fields as "field: reason": a positive time, four rates in [0, 1]."""
        return _number_faults(values, ("time",), positive=True) + _entry_faults(
            values, "lam", exact=4, hi=1.0, bad="impulse rate out of [0,1]"
        )


@dataclass(frozen=True)
class ImpulseSchedule:
    """Ordered arrival events, all strictly inside the simulation horizon."""

    events: tuple[ImpulseEvent, ...]

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        _raise_faults(self, self.violations(self.times))

    @staticmethod
    def violations(times) -> list[str]:
        """A fault for each event time not after every earlier one; None skips a time."""
        out, last = [], -math.inf
        for i, t in enumerate(times):
            if t is not None:
                if t <= last:
                    out.append(f"events[{i}].time: not strictly increasing")
                last = max(last, t)
        return out

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(ev.time for ev in self.events)


def _row_view(pre: np.ndarray, post: np.ndarray, impulse_nodes) -> np.ndarray:
    """Rows of ``pre`` in node order, each impulse node followed by its ``post`` row."""
    jumps = np.asarray(impulse_nodes, dtype=int)
    return np.insert(pre, jumps + 1, post[jumps], axis=0)


@dataclass(frozen=True)
class Trajectory:
    """Time-gridded states; impulse nodes carry a pre-jump and a post-jump value.

    ``node_times`` has one entry per grid node.  ``states_pre[j]`` is the
    left-limit at node j and ``states_post[j]`` the right-limit; the two
    differ only at impulse nodes.  ``times``/``states`` expose the flattened
    row view in which every impulse time appears twice (pre then post).
    """

    node_times: np.ndarray
    states_pre: np.ndarray
    states_post: np.ndarray
    impulse_nodes: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.states_pre.shape != self.states_post.shape:
            raise ValueError("pre/post state arrays must have equal shape")
        if len(self.node_times) != self.states_pre.shape[0]:
            raise ValueError("grid and states must have the same length")

    @property
    def n(self) -> int:
        return self.states_pre.shape[1] - 6

    @property
    def times(self) -> np.ndarray:
        return _row_view(self.node_times, self.node_times, self.impulse_nodes)

    @property
    def states(self) -> np.ndarray:
        return _row_view(self.states_pre, self.states_post, self.impulse_nodes)

    def state_at(self, node: int, side: str = "post") -> StateVector:
        arr = self.states_post if side == "post" else self.states_pre
        return StateVector.from_array(arr[node])

    def population(self, side: str = "post") -> np.ndarray:
        """Living population N at every grid node (deceased excluded)."""
        arr = self.states_post if side == "post" else self.states_pre
        return arr.sum(axis=1) - arr[:, D]


def _deriv(y, v: float, u: float, pr: ModelParams) -> list[float]:
    """Right-hand side of the controlled dynamics on the canonical layout.

    ``y`` is a sequence of compartments and the result a list: floats for one
    run, where numpy's per-call cost would dominate, or (M,) arrays (and ``v``,
    ``u`` floats or (M,) arrays) for a batch of M runs.  Only indexing and
    arithmetic are used, so each batch column equals its float run bitwise.
    """
    g, d = pr.gamma, pr.delta
    n = len(g)
    s, e, a, i = y[S], y[E], y[A], y[I]
    vd = y[V0:]
    force = pr.epsilon * e + (1.0 - pr.q) * i + pr.mu * a
    infect = pr.beta * force * s
    leak = 0.0
    for j in range(n - 1):
        leak += d[j] * vd[j]
    if pr.delta_n_to_exposed:
        leak += d[n - 1] * vd[n - 1]
    out = [
        -infect - g[0] * v * s,
        infect - pr.k * e + leak,
        (1.0 - pr.z) * pr.k * e - pr.eta * a,
        pr.z * pr.k * e + (1.0 - pr.p) * pr.eta * a - pr.f * i - u * i,
        pr.alpha * pr.f * i + u * i + pr.p * pr.eta * a,
        (1.0 - pr.alpha) * pr.f * i,
        g[0] * v * s - g[1] * v * vd[0] - d[0] * vd[0],
    ]
    for j in range(1, n - 1):
        out.append(g[j] * v * vd[j - 1] - g[j + 1] * v * vd[j] - d[j] * vd[j])
    last = g[n - 1] * v * vd[n - 2]
    if pr.delta_n_to_exposed:
        last -= d[n - 1] * vd[n - 1]
    out.append(last)
    return out


def _costate_deriv(pq, y, v: float, u: float, pr: ModelParams, omega) -> list[float]:
    """Costate derivative [p1..p6, q1..qn], minus the state gradient of the Hamiltonian
    with running-cost weights ``omega``; on floats, like ``_deriv``."""
    w1, w2, w3, w4 = omega
    g, d = pr.gamma, pr.delta
    n = len(g)
    p1, p2, p3, p4, p5, p6 = pq[:6]
    qd = pq[6:]
    s = y[S]
    dp = p1 - p2
    out = [
        pr.beta * (pr.epsilon * y[E] + (1.0 - pr.q) * y[I] + pr.mu * y[A]) * dp
        + g[0] * v * (p1 - qd[0])
        - w1,
        pr.beta * pr.epsilon * s * dp + pr.k * (p2 - (1.0 - pr.z) * p3 - pr.z * p4) - w2,
        pr.beta * pr.mu * s * dp + pr.eta * p3 - (1.0 - pr.p) * pr.eta * p4 - w3,
        pr.beta * (1.0 - pr.q) * s * dp + u * (p4 - p5) + pr.f * (p4 - pr.alpha * p5)
        - (1.0 - pr.alpha) * pr.f * p6 - w4,
        0.0,
        0.0,
        d[0] * (qd[0] - p2) + g[1] * v * (qd[0] - qd[1]),
    ]
    for j in range(1, n - 1):
        x = -d[j] * p2 + (g[j + 1] * v + d[j]) * qd[j]
        if pr.delta_n_to_exposed:
            # the last costate is nonzero once its breakthrough flow exists,
            # so the chain coupling it normally kills must be kept
            x -= g[j + 1] * v * qd[j + 1]
        out.append(x)
    out.append(d[n - 1] * (qd[n - 1] - p2) if pr.delta_n_to_exposed else 0.0)
    return out


def _rk4_step(f, y, h: float, a0, am, a1) -> list:
    """One RK4 step of ``f(y, *a)``, the arguments ``a`` taken at the step's start (a0),
    midpoint (am) and end (a1).  A negative h steps backward in time, exactly: it only
    flips the sign of each stage's increment."""
    half, sixth = 0.5 * h, h / 6.0
    k1 = f(y, *a0)
    k2 = f([x + half * k for x, k in zip(y, k1)], *am)
    k3 = f([x + half * k for x, k in zip(y, k2)], *am)
    k4 = f([x + h * k for x, k in zip(y, k3)], *a1)
    return [x + sixth * (a + 2.0 * b + 2.0 * c + d) for x, a, b, c, d in zip(y, k1, k2, k3, k4)]


def _too_coarse(lowest: float, t: float) -> StabilityError:
    """The error for a step that left a compartment below the negative tolerance."""
    return StabilityError(f"compartment reached {lowest:.3e} at t={t:.6g}; reduce h")


def vector_field(state: StateVector, v: float, u: float, params: ModelParams) -> np.ndarray:
    """Time derivative of every compartment, in the canonical layout.

    Requires at least two dose compartments and a state whose dose count
    matches the parameters.
    """
    if state.n != params.n:
        raise ValueError(f"state has {state.n} dose compartments, params expect {params.n}")
    if not 0.0 <= u <= 1.0:
        raise ValueError("treatment control outside [0, 1]")
    if not 0.0 <= v <= params.v_max:
        raise ValueError(f"vaccination control outside [0, {params.v_max}]")
    return np.array(_deriv(state.as_array().tolist(), v, u, params))


def _apply_impulse(y, lam) -> list[float]:
    """Arrival jump on a float sequence: S, E, A, I scaled by (1 + lam_i)."""
    return [x * (1.0 + l) for x, l in zip(y[:4], lam)] + list(y[4:])


def total_population(state: StateVector) -> float:
    """Living population: every compartment except the deceased pool."""
    return state.S + state.E + state.A + state.I + state.R + sum(state.V)


def basic_reproduction_number(params: ModelParams, n0: float) -> float:
    """Epidemic threshold value beta*N0*(z/(alpha*f) + mu*(1-z)/eta).

    Below 1 the infection dies out on its own; above 1 an outbreak grows
    until depletion or control.
    """
    if params.alpha * params.f == 0.0 or params.eta == 0.0:
        raise DegenerateParameterError(
            "reproduction number undefined when alpha*f = 0 or eta = 0"
        )
    return params.beta * n0 * (
        params.z / (params.alpha * params.f) + params.mu * (1.0 - params.z) / params.eta
    )
