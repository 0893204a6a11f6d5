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

import functools
import math
import re
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from . import native
from .errors import DegenerateParameterError, StabilityError

# Indices into the canonical state layout.
S, E, A, I, R, D = 0, 1, 2, 3, 4, 5
V0 = 6  # first vaccination compartment

# A step may leave a compartment below zero by at most this fraction of the initial living
# population (roundoff, clamped to zero); lower means the step is too coarse.
_NEGATIVE_TOL = 1e-9


# Value rules.  Each config component states its rules once, in a static ``violations`` that
# returns every fault as "field: reason" and skips absent fields; its constructor raises on any
# fault, and the config-file validator calls it with the values of the right JSON type.


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
    dict, which takes later attribute reads off CPython's fast path."""
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


def _check_box(v, u, v_max: float) -> None:
    """ValueError unless every u is in [0, 1] and every v in [0, v_max], widened by 1e-12 of v_max
    for roundoff; NaN is in neither."""
    if not np.all((u >= 0.0) & (u <= 1.0)):
        raise ValueError("treatment control outside [0, 1]")
    if not np.all((v >= 0.0) & (v <= v_max * (1 + 1e-12))):
        raise ValueError(f"vaccination control outside [0, {v_max}]")


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
        if not (np.all(np.diff(grid) > 0) and math.isfinite(grid[-1])):  # so NaN and inf fail
            raise ValueError("control grid must be finite and strictly increasing")
        if v.shape != grid.shape or u.shape != grid.shape:
            raise ValueError("control samples must match the grid shape")
        _check_box(v, u, self.v_max)

    @property
    def tau(self) -> float:
        return float(self.grid[-1])

    def at(self, t):
        """Linearly interpolated (v, u) at time(s) t; the samples themselves at ``self.grid``."""
        if t is self.grid:  # where np.interp returns them too: fp[j] at exactly xp[j]
            return self.v, self.u
        return np.interp(t, self.grid, self.v), np.interp(t, self.grid, self.u)

    @functools.cached_property
    def midpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """(v, u) at the midpoint of each grid step, sampled once and read-only."""
        samples = self.at(0.5 * (self.grid[:-1] + self.grid[1:]))
        for x in samples:
            x.setflags(write=False)
        return samples

    @classmethod
    def _unchecked(
        cls, grid: np.ndarray, v: np.ndarray, u: np.ndarray, v_max: float, midpoints=None
    ) -> "ControlSignal":
        """A signal on float arrays known to pass ``__post_init__``'s checks, which it skips, with
        its read-only ``midpoints`` samples if given."""
        signal = object.__new__(cls)
        signal.__dict__.update(grid=grid, v=v, u=u, v_max=v_max)
        if midpoints is not None:
            signal.__dict__["midpoints"] = midpoints  # where the cached property keeps them
        return signal

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
    """Rows of ``pre`` in node order, each impulse node followed by its ``post`` row: a new array,
    or ``pre`` itself where it has no impulse node and is read-only, as a sweep's tables are."""
    jumps = np.asarray(impulse_nodes, dtype=int)
    return np.insert(pre, jumps + 1, post[jumps], axis=0) if jumps.size or pre.flags.writeable else pre


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


# The state and costate fields, each stated once as source lines over variable names, from
# which their RK4 steps and sweep passes are generated as straight-line code.  The lines keep
# the operation order of the numpy formulation; a product of rates is one bound constant only
# where Python's left-to-right evaluation already formed it, and a term two rows share is
# computed once.  A field is taken at a point, a prefix ``pt`` of the names of its values
# (v, u, and for the costates S, E, A, I) and of the terms that the point alone determines.
_RATES = """\
beta, eps, mu, k, z, eta, f, alpha = pr.beta, pr.epsilon, pr.mu, pr.k, pr.z, pr.eta, pr.f, pr.alpha
q1, z1, p1e = 1.0 - pr.q, 1.0 - z, (1.0 - pr.p) * eta
z1k, zk, pe, af, af1 = z1 * k, z * k, pr.p * eta, alpha * f, (1.0 - alpha) * f
be, bm, bq = beta * eps, beta * mu, beta * q1
{g}, = pr.gamma
{d}, = pr.delta
"""


def _state_rows(n: int, to_exposed: bool, y, pt, out) -> list[str]:
    """Lines setting ``out`` to the state derivative at the names ``y`` and the point ``pt``."""
    (s, e, a, i), w, v, u, gv = y[:4], y[V0:], pt + "v", pt + "u", pt + "gv"
    leaks = range(n if to_exposed else n - 1)
    lines = [f"infect = beta * (eps * {e} + q1 * {i} + mu * {a}) * {s}", f"ui = {u} * {i}"]
    lines += [f"{gv}{j} = g{j} * {v}" for j in range(n)]
    lines += [f"fl{j} = {gv}{j} * {([s] + w)[j]}" for j in range(n)]  # into dose j + 1
    lines += [f"dw{j} = d{j} * {w[j]}" for j in leaks]  # breakthrough out of dose j + 1
    leak = " + ".join(["0.0"] + [f"dw{j}" for j in leaks])
    rows = ["-infect - fl0", f"infect - k * {e} + ({leak})", f"z1k * {e} - eta * {a}"]
    rows += [f"zk * {e} + p1e * {a} - f * {i} - ui", f"af * {i} + ui + pe * {a}", f"af1 * {i}"]
    rows += [f"fl{j} - fl{j + 1} - dw{j}" for j in range(n - 1)]
    rows.append(f"fl{n - 1} - dw{n - 1}" if to_exposed else f"fl{n - 1}")
    return lines + [f"{o} = {r}" for o, r in zip(out, rows)]


def _costate_rows(n: int, to_exposed: bool, pq, pt, out) -> list[str]:
    """Lines setting ``out`` to the costate derivative, minus the state gradient of the
    Hamiltonian, at the names ``pq`` = [p1..p6, q1..qn] and the point ``pt``."""
    (p1, p2, p3, p4, p5, p6), q, (s, e, a, i, v, u) = pq[:6], pq[6:], (pt + c for c in "SEAIvu")
    fo, be, bm, bq, gv = (pt + c for c in ("fo", "be", "bm", "bq", "gv"))
    lines = [f"{fo} = beta * (eps * {e} + q1 * {i} + mu * {a})", f"{be} = be * {s}"]
    lines += [f"{bm} = bm * {s}", f"{bq} = bq * {s}", *(f"{gv}{j} = g{j} * {v}" for j in range(n))]
    rows = [f"{fo} * dp + {gv}0 * ({p1} - {q[0]}) - w1"]
    rows += [f"{be} * dp + k * ({p2} - z1 * {p3} - z * {p4}) - w2"]
    rows += [f"{bm} * dp + eta * {p3} - p1e * {p4} - w3"]
    rows += [f"{bq} * dp + {u} * ({p4} - {p5}) + f * ({p4} - alpha * {p5}) - af1 * {p6} - w4"]
    rows += ["0.0", "0.0", f"d0 * ({q[0]} - {p2}) + {gv}1 * ({q[0]} - {q[1]})"]
    for j in range(1, n - 1):
        rows.append(f"-d{j} * {p2} + ({gv}{j + 1} + d{j}) * {q[j]} - {gv}{j + 1} * {q[j + 1]}")
    rows.append(f"d{n - 1} * ({q[n - 1]} - {p2})" if to_exposed else "0.0")
    # a costate named 0.0 holds +0.0, so its terms go: x - c*(+0.0) = x for finite c >= 0
    rows = [re.sub(r" - (\w+ \* )?0\.0\b", "", row) for row in rows]
    return lines + [f"dp = {p1} - {p2}"] + [f"{o} = {r}" for o, r in zip(out, rows)]


def _block(header: str, lines) -> list[str]:
    return [header, *(f"    {line}" for line in lines)]


def _rk4_lines(rows, dim: int, every: bool) -> tuple[list[str], list[int]]:
    """Lines advancing y0.. in place by one RK4 step of ``rows`` from the point a0_ over a1_ to
    a2_, all bound with their terms, with h, half and sixth (a negative h steps back exactly),
    and the rows they march: not one that is the literal 0.0, which holds +0.0 (the costates
    start there) and reads as 0.0, nor without ``every`` one no row reads, which keeps its value."""
    y, x, s, k = ([f"{name}{c}" for c in range(dim)] for name in "yxsk")
    zero = {c for c in range(dim) if f"{k[c]} = 0.0" in rows(y, "a0_", k)}
    y, x = (["0.0" if c in zero else names[c] for c in range(dim)] for names in (y, x))
    reads = set(re.findall(r"\w+", " ".join(rows(x, "a1_", k))))
    live = [c for c in range(dim) if c not in zero and (every or x[c] in reads)]

    def field(ins, pt, out):  # less the point's own lines and the rows not marched
        out = [o if c in live else "_" for c, o in enumerate(out)]
        return [ln for ln in rows(ins, pt, out) if not ln.startswith((pt, "_ = "))]

    def stage(size, ks):  # the next stage's state, where its field reads it
        return [f"{x[c]} = {y[c]} + {size} * {ks[c]}" for c in live if x[c] in reads]

    # s sums the stage derivatives k1 + 2.0*k2 + 2.0*k3 + k4 left to right as they come,
    # so that a batch holds one stage's arrays at a time
    total = [f"{s[c]} = {s[c]} + 2.0 * {k[c]}" for c in live]
    lines = [*field(y, "a0_", s), *stage("half", s), *field(x, "a1_", k), *stage("half", k)]
    lines += [*total, *field(x, "a1_", k), *stage("h", k), *total, *field(x, "a2_", k)]
    return lines + [f"{y[c]} = {y[c]} + sixth * ({s[c]} + {k[c]})" for c in live], live


def _point_lines(rows, dim: int, pt: str) -> list[str]:
    """The lines of ``rows`` that set the terms of the point ``pt``."""
    return [line for line in rows([""] * dim, pt, [""] * dim) if line.startswith(pt)]


def _kernel_lines(head, rows, cols, dim: int) -> tuple[list[str], list[str], list[str], list[int]]:
    """Source lines of ``bind(pr, omega)``, which runs ``head`` and returns the field
    ``field(y, a0)`` of ``rows`` and, for the states, its RK4 step ``step(y, h, a0)`` with the
    point a0 held over the step (the costates step only in their march), which marches the
    rows ``step.rows`` of y that some row reads.  ``a0`` holds a point's ``cols`` and v, u.  Then the
    parts of the step that ``native._kernel`` shares: its prologue, ``name = expr`` lines and rows."""
    y, k = [f"y{c}" for c in range(dim)], [f"k{c}" for c in range(dim)]
    at = f"{', '.join(f'a0_{r}' for r in (*cols, 'v', 'u'))}, = a0"
    field = [f"{', '.join(y)}, = y", at, *rows(y, "a0_", k), f"return [{', '.join(k)}]"]
    lines = [*head, *_block("def field(y, a0):", field)]
    if cols:
        return _block("def bind(pr, omega):", [*lines, "return field, None"]), [], [], []
    rk4, live = _rk4_lines(rows, dim, every=False)
    # the one point's terms, then each stage at that point
    rk4 = [*_point_lines(rows, dim, "a0_"), *(re.sub(r"\ba[12]_", "a0_", line) for line in rk4)]
    ys, prologue = ", ".join(y[c] for c in live), ["half = 0.5 * h", "sixth = h / 6.0"]
    step = [f"{ys}, = y", at, *prologue, *rk4, f"return [{ys}]"]
    lines += [*_block("def step(y, h, a0):", step), f"step.rows = {live}"]
    return _block("def bind(pr, omega):", [*lines, "return field, step"]), [*head, *prologue], rk4, live


def _march_lines(head, rows, cols, dim: int) -> tuple[list[str], list[str], list[str], list[int]]:
    """Source lines of ``march(pr, omega, y, a, h, i0, i1, out, vn, un, vm, um[, x])``, which steps
    ``rows`` from the value ``y`` at the point ``a`` (as in ``bind``) to each node between i0 and i1,
    writing the value there to that row of ``out``; ``vn``, ``un`` and ``vm``, ``um`` sample the
    controls at the nodes and midpoints.  The costates step back with a negative h over the state
    table ``x``, whose first columns are ``cols``.  Every row but a literal 0.0 is marched
    (``_rk4_lines``).  It returns (0, the last value) or, at the first node where a state row is below
    zero, (that node, its value) with that row unwritten.  Then the parts the C loop shares
    (``native._translate``): the prologue, which runs ``head`` and binds what the loop starts from,
    the loop's ``name = expr`` lines, and the rows tested for a stop."""
    ys, j = ", ".join(f"y{c}" for c in range(dim)), "i" if cols else "j"
    terms = functools.partial(_point_lines, rows, dim)
    rk4, live = _rk4_lines(rows, dim, every=True)
    body = [*(f"a2_{r} = x[{j}, {c}]" for c, r in enumerate(cols)), f"a2_v = vn[{j}]", f"a2_u = un[{j}]"]
    body += [*terms("a2_"), *(f"a1_{r} = 0.5 * (a2_{r} + a0_{r})" for r in cols)]
    body += ["a1_v = vm[i]", "a1_u = um[i]", *terms("a1_"), *rk4]
    carry = [f"{a} = a2_{a[3:]}" for a in sorted(set(re.findall(r"\ba0_\w+", " ".join(body))))]
    loop = [*([] if cols else ["j = i + 1"]), *carry, *body]
    prologue = [*head, f"{ys}, = y", f"{', '.join(f'a2_{r}' for r in (*cols, 'v', 'u'))}, = a"]
    prologue += [*terms("a2_"), "half = 0.5 * h", "sixth = h / 6.0"]
    marched = [] if cols else live
    stop = _block(f"if {' or '.join(f'y{c} < 0.0' for c in marched)}:", [f"return j, [{ys}]"])
    header = "for i in range(i1 - 1, i0 - 1, -1):" if cols else "for i in range(i0, i1):"
    step = [*loop, *(stop if marched else []), f"put(out, {8 * dim} * {j}, {ys})"]
    arrays = f"vn, un, vm, um{', x' if cols else ''}"  # indexed as memoryviews, which give floats
    lines = [*prologue, f"put, {arrays} = Struct('{dim}d').pack_into, *map(memoryview, ({arrays},))"]
    lines += [*_block(header, step), f"return 0, [{ys}]"]
    march = _block(f"def march(pr, omega, y, a, h, i0, i1, out, {arrays}):", lines)
    return march, prologue, loop, marched


def _source(n: int, to_exposed: bool, costate: bool, march: bool):
    """For n doses, what ``_kernel_lines`` or, with ``march``, ``_march_lines`` returns."""
    rows = functools.partial(_costate_rows if costate else _state_rows, n, to_exposed)
    names = {key: ", ".join(f"{key}{j}" for j in range(n)) for key in ("g", "d")}
    head = _RATES.format(**names).splitlines() + (["w1, w2, w3, w4 = omega"] if costate else [])
    args = (head, rows, "SEAI" if costate else "", n + 6)
    return (_march_lines if march else _kernel_lines)(*args)


@functools.cache
def _binder(n: int, to_exposed: bool, costate: bool, march: bool):
    """``_source``'s function, compiled once."""
    lines = _source(n, to_exposed, costate, march)
    source = "\n".join(lines[0])
    namespace: dict = {"Struct": struct.Struct}
    exec(compile(source, f"<epictrl {n} {to_exposed} {costate} {march}>", "exec"), namespace)
    return namespace["march" if march else "bind"]


def _kernels(pr: ModelParams, omega=None, march: bool = False, steps: int = 0):
    """The state field ``field(y, (v, u))`` and RK4 step ``step(y, h, (v, u))`` of the rows
    ``step.rows`` bound to ``pr``, or given the weights ``omega`` the costate field
    ``field(pq, (S, E, A, I, v, u))`` and None; with ``march``, their ``_march_lines`` pass of
    ``steps`` steps, in C once ``native._marches`` finds that pays, either way bound to
    ``(pr, omega)`` and called alike.  Field and step take floats,
    or (M,) arrays for M runs: as they only unpack and do arithmetic, a batch column equals its
    float run bitwise, and input with zero imaginary part gives the float results as real parts."""
    kind = pr.n, pr.delta_n_to_exposed
    compiled = march and native._marches(*kind, steps)
    bound = compiled[omega is not None] if compiled else _binder(*kind, omega is not None, march)
    return functools.partial(bound, pr, omega) if march else bound(pr, omega)


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
    _check_box(v, u, params.v_max)
    return np.array(_kernels(params)[0](state.as_array().tolist(), (v, u)))


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
