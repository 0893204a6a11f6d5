"""Disease presets and run-configuration files.

A run configuration is a JSON document with the top-level sections
``params``, ``initial``, ``weights``, ``grid``, ``schedule``, ``solver``,
and ``flags``.  Times are days, populations are persons.  Unknown keys are
rejected so typos cannot silently change a run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .control import CostWeights, SweepOptions, TerminalCost
from .errors import ParseError, ScheduleError, UnknownPresetError
from .integrator import TimeGrid
from .model import ImpulseEvent, ImpulseSchedule, ModelParams, StateVector

_PARAM_KEYS = {"beta", "epsilon", "q", "mu", "k", "z", "p", "eta", "alpha", "f", "gamma", "delta"}
_INITIAL_KEYS = {"S", "E", "A", "I", "R", "D", "V"}
_WEIGHT_KEYS = {"omega", "sigma0", "sigma", "terminal"}
_TERMINAL_KEYS = {"kind", "coeff", "rate"}
_GRID_KEYS = {"tau", "h"}
_SOLVER_KEYS = {"relaxation", "tolerance", "max_iterations"}
_FLAG_KEYS = {"adjoint_impulse", "include_delta_n"}
_TOP_KEYS = {"params", "initial", "weights", "grid", "schedule", "solver", "flags"}

# Transmission coefficient from the COVID-19 scenario, reused by the other
# presets whose sources do not state one.
_SHARED = dict(beta=5e-4, epsilon=0.0, q=0.5, mu=1.0, gamma=(1.0, 1.0), delta=(5e-4, 0.0))
_PRESET_PARAMS = {
    "covid19": dict(_SHARED, k=0.54, z=0.1, p=0.02, eta=0.3, alpha=0.995, f=0.3),
    "ebola": dict(_SHARED, k=0.0023, z=0.76, p=0.02, eta=0.178, alpha=0.26, f=0.178),
    "influenza": dict(_SHARED, k=0.526, z=0.667, p=0.9, eta=0.244, alpha=0.98, f=0.244),
}
# All presets start from the same population split; only covid19's source
# states one, the others reuse it.
_PRESET_INITIAL = dict(S=8000.0, E=1000.0, A=500.0, I=500.0, R=0.0, D=0.0, V=(0.0, 0.0))

PRESET_NAMES = tuple(sorted(_PRESET_PARAMS))


def preset(disease: str) -> tuple[ModelParams, StateVector]:
    """Model parameters and initial state for a named disease."""
    if disease not in _PRESET_PARAMS:
        raise UnknownPresetError(f"unknown disease {disease!r}; choose from {PRESET_NAMES}")
    return ModelParams(**_PRESET_PARAMS[disease]), StateVector(**_PRESET_INITIAL)


def default_schedule(tau: float = 35.0) -> ImpulseSchedule:
    """Demo arrival schedule: every seventh day, five-percent growth of S/E/A/I."""
    events = tuple(
        ImpulseEvent(float(day), (0.05, 0.05, 0.05, 0.05))
        for day in range(7, int(tau), 7)
        if day < tau
    )
    return ImpulseSchedule(events)


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs: model, start, objective, grid, solver knobs."""

    params: ModelParams
    initial: StateVector
    weights: CostWeights
    grid: TimeGrid
    schedule: ImpulseSchedule | None = None
    solver: SweepOptions = SweepOptions()


def default_config(disease: str = "covid19", impulsive: bool = False) -> RunConfig:
    params, initial = preset(disease)
    grid = TimeGrid(35.0, 0.01)
    schedule = default_schedule(grid.tau) if impulsive else None
    return RunConfig(params=params, initial=initial, weights=CostWeights(), grid=grid, schedule=schedule)


def _check_number(raw, path, out, lo=None, hi=None):
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        out.append(f"{path}: expected a number")
        return None
    x = float(raw)
    if lo is not None and x < lo:
        out.append(f"{path}: {x} below minimum {lo}")
    if hi is not None and x > hi:
        out.append(f"{path}: {x} above maximum {hi}")
    return x


def _check_vector(raw, path, out, min_len=1):
    if not isinstance(raw, list) or len(raw) < min_len:
        out.append(f"{path}: expected a list of at least {min_len} numbers")
        return None
    vals = []
    for i, x in enumerate(raw):
        v = _check_number(x, f"{path}[{i}]", out)
        vals.append(0.0 if v is None else v)
    return vals


def _check_keys(section, path, allowed, required, out):
    if not isinstance(section, dict):
        out.append(f"{path}: expected an object")
        return False
    for key in section:
        if key not in allowed:
            out.append(f"{path}.{key}: unknown key")
    for key in required:
        if key not in section:
            out.append(f"{path}.{key}: missing")
    return True


def validate_raw_config(raw: dict) -> list[str]:
    """Every violation in a parsed config document, never just the first."""
    out: list[str] = []
    if not isinstance(raw, dict):
        return ["top level: expected an object"]
    for key in raw:
        if key not in _TOP_KEYS:
            out.append(f"{key}: unknown key")
    for key in ("params", "initial", "grid"):
        if key not in raw:
            out.append(f"{key}: missing")

    n_doses = None
    pm = raw.get("params")
    if pm is not None and _check_keys(pm, "params", _PARAM_KEYS, _PARAM_KEYS, out):
        for name in ("beta", "eta", "p", "k", "z", "alpha", "f", "q"):
            if name in pm:
                _check_number(pm[name], f"params.{name}", out, 0.0, 1.0)
        for name in ("epsilon", "mu"):
            if name in pm:
                _check_number(pm[name], f"params.{name}", out, 0.0)
        gamma = _check_vector(pm.get("gamma", []), "params.gamma", out, 2)
        delta = _check_vector(pm.get("delta", []), "params.delta", out, 2)
        if gamma is not None:
            n_doses = len(gamma)
            if any(a < b for a, b in zip(gamma, gamma[1:])):
                out.append("params.gamma: not non-increasing")
            if gamma and gamma[0] <= 0:
                out.append("params.gamma: first entry must be positive")
            if any(x < 0 for x in gamma):
                out.append("params.gamma: negative entry")
        if delta is not None:
            if any(a < b for a, b in zip(delta, delta[1:])):
                out.append("params.delta: not non-increasing")
            if any(x < 0 for x in delta):
                out.append("params.delta: negative entry")
        if gamma is not None and delta is not None:
            if len(gamma) != len(delta):
                out.append("params.delta: length differs from params.gamma")
            elif any(g < d for g, d in zip(gamma, delta)):
                out.append("params.delta: exceeds params.gamma at some dose")

    ini = raw.get("initial")
    if ini is not None and _check_keys(ini, "initial", _INITIAL_KEYS, _INITIAL_KEYS, out):
        for name in ("S", "E", "A", "I", "R", "D"):
            if name in ini:
                _check_number(ini[name], f"initial.{name}", out, 0.0)
        vvec = _check_vector(ini.get("V", []), "initial.V", out, 1)
        if vvec is not None:
            if any(x < 0 for x in vvec):
                out.append("initial.V: negative entry")
            if n_doses is not None and len(vvec) != n_doses:
                out.append(f"initial.V: expected {n_doses} entries to match params.gamma")

    wt = raw.get("weights")
    if wt is not None and _check_keys(wt, "weights", _WEIGHT_KEYS, set(), out):
        omega = wt.get("omega")
        if omega is not None:
            vals = _check_vector(omega, "weights.omega", out, 4)
            if vals is not None:
                if len(vals) != 4:
                    out.append("weights.omega: expected exactly four entries")
                if any(x < 0 for x in vals):
                    out.append("weights.omega: negative entry")
        if "sigma0" in wt:
            s0 = _check_number(wt["sigma0"], "weights.sigma0", out)
            if s0 is not None and s0 <= 0:
                out.append("weights.sigma0: must be positive")
        sigma = wt.get("sigma")
        if sigma is not None:
            vals = _check_vector(sigma, "weights.sigma", out, 1)
            if vals is not None:
                if any(x < 0 for x in vals):
                    out.append("weights.sigma: negative entry")
                if n_doses is not None and len(vals) != n_doses:
                    out.append(f"weights.sigma: expected {n_doses} entries to match params.gamma")
        term = wt.get("terminal")
        if term is not None and _check_keys(term, "weights.terminal", _TERMINAL_KEYS, {"kind"}, out):
            kind = term.get("kind")
            if kind not in ("linear", "quadratic", "exponential", None):
                out.append(f"weights.terminal.kind: unknown kind {kind!r}")
            if "coeff" in term:
                _check_number(term["coeff"], "weights.terminal.coeff", out, 0.0)
            if "rate" in term:
                rate = _check_number(term["rate"], "weights.terminal.rate", out)
                if rate is not None and rate <= 0:
                    out.append("weights.terminal.rate: must be positive")

    tau = None
    gr = raw.get("grid")
    if gr is not None and _check_keys(gr, "grid", _GRID_KEYS, _GRID_KEYS, out):
        tau = _check_number(gr.get("tau"), "grid.tau", out)
        h = _check_number(gr.get("h"), "grid.h", out)
        if tau is not None and tau <= 0:
            out.append("grid.tau: must be positive")
        if h is not None and h <= 0:
            out.append("grid.h: must be positive")

    sch = raw.get("schedule")
    if sch is not None:
        if _check_keys(sch, "schedule", {"events"}, {"events"}, out):
            events = sch.get("events")
            if not isinstance(events, list):
                out.append("schedule.events: expected a list")
            else:
                prev = 0.0
                for i, ev in enumerate(events):
                    path = f"schedule.events[{i}]"
                    if not _check_keys(ev, path, {"time", "lambda"}, {"time", "lambda"}, out):
                        continue
                    t = _check_number(ev.get("time"), f"{path}.time", out)
                    if t is not None:
                        if t <= prev:
                            out.append(f"{path}.time: not strictly increasing")
                        if tau is not None and not 0.0 < t < tau:
                            out.append(f"{path}.time: outside (0, {tau})")
                        prev = t if t > prev else prev
                    lam = ev.get("lambda")
                    vals = _check_vector(lam, f"{path}.lambda", out, 4)
                    if vals is not None:
                        if len(vals) != 4:
                            out.append(f"{path}.lambda: expected exactly four rates")
                        if any(not 0.0 <= x <= 1.0 for x in vals):
                            out.append(f"{path}.lambda: impulse rate out of [0,1]")

    sv = raw.get("solver")
    if sv is not None and _check_keys(sv, "solver", _SOLVER_KEYS, set(), out):
        if "relaxation" in sv:
            th = _check_number(sv["relaxation"], "solver.relaxation", out)
            if th is not None and not 0.0 < th <= 1.0:
                out.append("solver.relaxation: must lie in (0, 1]")
        if "tolerance" in sv:
            tl = _check_number(sv["tolerance"], "solver.tolerance", out)
            if tl is not None and tl <= 0:
                out.append("solver.tolerance: must be positive")
        if "max_iterations" in sv:
            mi = sv["max_iterations"]
            if not isinstance(mi, int) or isinstance(mi, bool) or mi < 1:
                out.append("solver.max_iterations: expected a positive integer")

    fl = raw.get("flags")
    if fl is not None and _check_keys(fl, "flags", _FLAG_KEYS, set(), out):
        if "adjoint_impulse" in fl and fl["adjoint_impulse"] not in ("multiplicative", "literal"):
            out.append("flags.adjoint_impulse: expected 'multiplicative' or 'literal'")
        if "include_delta_n" in fl and not isinstance(fl["include_delta_n"], bool):
            out.append("flags.include_delta_n: expected a boolean")

    return out


def _build(raw: dict) -> RunConfig:
    pm = dict(raw["params"])
    fl = raw.get("flags", {})
    params = ModelParams(
        beta=pm["beta"],
        epsilon=pm["epsilon"],
        q=pm["q"],
        mu=pm["mu"],
        k=pm["k"],
        z=pm["z"],
        p=pm["p"],
        eta=pm["eta"],
        alpha=pm["alpha"],
        f=pm["f"],
        gamma=tuple(pm["gamma"]),
        delta=tuple(pm["delta"]),
        delta_n_to_exposed=bool(fl.get("include_delta_n", False)),
    )
    ini = raw["initial"]
    initial = StateVector(
        S=ini["S"], E=ini["E"], A=ini["A"], I=ini["I"], R=ini["R"], D=ini["D"], V=tuple(ini["V"])
    )
    wt = raw.get("weights", {})
    term = wt.get("terminal", {})
    default_sigma = tuple(50.0 for _ in params.gamma)
    weights = CostWeights(
        omega=tuple(wt.get("omega", (1.0, 1.0, 1.0, 1.0))),
        sigma0=wt.get("sigma0", 50.0),
        sigma=tuple(wt.get("sigma", default_sigma)),
        terminal=TerminalCost(
            kind=term.get("kind", "quadratic"),
            coeff=term.get("coeff", 1.0),
            rate=term.get("rate", 1.0),
        ),
    )
    grid = TimeGrid(raw["grid"]["tau"], raw["grid"]["h"])
    schedule = None
    if raw.get("schedule") is not None:
        schedule = ImpulseSchedule(
            tuple(
                ImpulseEvent(ev["time"], tuple(ev["lambda"]))
                for ev in raw["schedule"]["events"]
            )
        )
    sv = raw.get("solver", {})
    solver = SweepOptions(
        theta=sv.get("relaxation", 0.5),
        tolerance=sv.get("tolerance", 1e-4),
        max_iterations=sv.get("max_iterations", 500),
        adjoint_impulse=fl.get("adjoint_impulse", "multiplicative"),
    )
    return RunConfig(
        params=params, initial=initial, weights=weights, grid=grid, schedule=schedule, solver=solver
    )


def config_to_raw(config: RunConfig) -> dict:
    """Plain-JSON form of a config, the inverse of loading."""
    p = config.params
    raw = {
        "params": {
            "beta": p.beta,
            "epsilon": p.epsilon,
            "q": p.q,
            "mu": p.mu,
            "k": p.k,
            "z": p.z,
            "p": p.p,
            "eta": p.eta,
            "alpha": p.alpha,
            "f": p.f,
            "gamma": list(p.gamma),
            "delta": list(p.delta),
        },
        "initial": {
            "S": config.initial.S,
            "E": config.initial.E,
            "A": config.initial.A,
            "I": config.initial.I,
            "R": config.initial.R,
            "D": config.initial.D,
            "V": list(config.initial.V),
        },
        "weights": {
            "omega": list(config.weights.omega),
            "sigma0": config.weights.sigma0,
            "sigma": list(config.weights.sigma),
            "terminal": {
                "kind": config.weights.terminal.kind,
                "coeff": config.weights.terminal.coeff,
                "rate": config.weights.terminal.rate,
            },
        },
        "grid": {"tau": config.grid.tau_requested, "h": config.grid.h},
        "schedule": None,
        "solver": {
            "relaxation": config.solver.theta,
            "tolerance": config.solver.tolerance,
            "max_iterations": config.solver.max_iterations,
        },
        "flags": {
            "adjoint_impulse": config.solver.adjoint_impulse,
            "include_delta_n": config.params.delta_n_to_exposed,
        },
    }
    if config.schedule is not None:
        raw["schedule"] = {
            "events": [{"time": ev.time, "lambda": list(ev.lam)} for ev in config.schedule.events]
        }
    return raw


def _cross_violations(config: RunConfig) -> list[str]:
    """Checks that span components: sigma against the doses, impulses against the grid."""
    out = []
    if len(config.weights.sigma) != config.params.n:
        out.append("weights.sigma: length differs from the dose count")
    elif config.weights.vaccination_gain(config.params) <= 0:
        out.append("weights.sigma: vaccination gain sum must be positive")
    if config.schedule is not None:
        for ev in config.schedule.events:
            try:
                idx = config.grid.node_index(ev.time)
            except ScheduleError:
                out.append(f"schedule: impulse at t={ev.time} is off the grid (h={config.grid.h})")
                continue
            if idx <= 0 or idx >= config.grid.n_steps:
                out.append(f"schedule: impulse at t={ev.time} outside (0, {config.grid.tau})")
    return out


def validate_config(config: RunConfig | dict) -> list[str]:
    """Violation list for a config; typed configs add cross-component checks."""
    if isinstance(config, dict):
        return validate_raw_config(config)
    return validate_raw_config(config_to_raw(config)) + _cross_violations(config)


def load_config(path: str) -> RunConfig:
    """Parse and fully validate a config file.

    Raises ParseError carrying either the JSON syntax location or the full
    list of validation violations.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    violations = validate_raw_config(raw)
    if violations:
        raise ParseError(f"{path}: invalid config:\n  " + "\n  ".join(violations))
    config = _build(raw)
    cross = _cross_violations(config)
    if cross:
        raise ParseError(f"{path}: invalid config:\n  " + "\n  ".join(cross))
    return config


def save_config(config: RunConfig, path: str) -> None:
    """Write a config as formatted JSON; loading it back is the identity."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_raw(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
