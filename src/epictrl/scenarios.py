"""Disease presets and run-configuration files.

A run configuration is a JSON document with the top-level sections
``params``, ``initial``, ``weights``, ``grid``, ``schedule``, ``solver``,
and ``flags``.  Times are days, populations are persons.  Unknown keys are
rejected so typos cannot silently change a run.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

from .control import CostWeights, SweepOptions, TerminalCost
from .errors import ParseError, UnknownPresetError
from .integrator import TimeGrid, _impulse_nodes
from .model import ImpulseEvent, ImpulseSchedule, ModelParams, StateVector, _field_values

# The JSON type of each key of a section; None leaves a value (an enum) to the
# component's rules alone.
_NUMBER, _NUMBERS, _BOOL, _LIST = "a number", "a list of numbers", "a boolean", "a list"
_SHAPES = {
    "params": dict.fromkeys(("beta", "epsilon", "q", "mu", "k", "z", "p", "eta", "alpha"), _NUMBER)
    | {"f": _NUMBER, "gamma": _NUMBERS, "delta": _NUMBERS},
    "initial": dict.fromkeys(("S", "E", "A", "I", "R", "D"), _NUMBER) | {"V": _NUMBERS},
    "weights": {"omega": _NUMBERS, "sigma0": _NUMBER, "sigma": _NUMBERS, "terminal": None},
    "weights.terminal": {"kind": None, "coeff": _NUMBER, "rate": _NUMBER},
    "grid": {"tau": _NUMBER, "h": _NUMBER},
    "schedule": {"events": _LIST},
    "event": {"time": _NUMBER, "lambda": _NUMBERS},
    "solver": {"relaxation": _NUMBER, "tolerance": _NUMBER, "max_iterations": _NUMBER},
    "flags": {"include_delta_n": _BOOL},
}
_REQUIRED = {"params": _SHAPES["params"], "initial": _SHAPES["initial"], "grid": _SHAPES["grid"]}
_TOP_KEYS = ("params", "initial", "weights", "grid", "schedule", "solver", "flags")
# Config keys named differently from the component field they set.
_FIELDS = {"relaxation": "theta", "lambda": "lam"}
_KEYS = {field: key for key, field in _FIELDS.items()}
# The section each component's rules check.
_COMPONENTS = dict(params=ModelParams, initial=StateVector, weights=CostWeights, grid=TimeGrid)

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


def _is_number(x) -> bool:
    """A float, or an integer a float can hold: json keeps integer literals exact, however long."""
    return isinstance(x, float) or (
        isinstance(x, int) and not isinstance(x, bool) and abs(x) <= sys.float_info.max
    )


def _shaped(section, path: str, shape: dict, required, out: list[str]) -> dict:
    """The entries of a JSON object that have their JSON type.

    Appends a line to ``out`` for a non-object, an unknown or missing key, and
    each entry of the wrong type.
    """
    if not isinstance(section, dict):
        out.append(f"{path}: expected an object")
        return {}
    out += [f"{path}.{key}: unknown key" for key in section if key not in shape]
    out += [f"{path}.{key}: missing" for key in required if key not in section]
    good = {}
    for key, kind in shape.items():
        if key not in section:
            continue
        x = section[key]
        if (
            (kind == _NUMBER and not _is_number(x))
            or (kind == _NUMBERS and not (isinstance(x, list) and all(map(_is_number, x))))
            or (kind == _BOOL and not isinstance(x, bool))
            or (kind == _LIST and not isinstance(x, list))
        ):
            out.append(f"{path}.{key}: expected {kind}")
        else:
            good[key] = x
    return good


def _prefixed(path: str, faults: list[str]) -> list[str]:
    """Component faults "field: reason" as "path.key: reason"."""
    out = []
    for fault in faults:
        name, reason = fault.split(": ", 1)
        out.append(f"{path}.{_KEYS.get(name, name)}: {reason}")
    return out


def _fields(section: dict) -> dict:
    """A section's entries keyed by the component field each one sets."""
    return {_FIELDS.get(key, key): x for key, x in section.items()}


def _section_violations(raw) -> list[str]:
    """JSON-shape faults and each component's value-rule faults, section by section."""
    if not isinstance(raw, dict):
        return ["top level: expected an object"]
    out = [f"{key}: unknown key" for key in raw if key not in _TOP_KEYS]
    out += [f"{key}: missing" for key in _REQUIRED if key not in raw]

    def shaped(key):
        if key not in raw:
            return {}
        return _shaped(raw[key], key, _SHAPES[key], _REQUIRED.get(key, ()), out)

    for key, component in _COMPONENTS.items():
        fields = shaped(key)
        out += _prefixed(key, component.violations(fields))
        if key == "weights" and "terminal" in fields:
            path = "weights.terminal"
            terminal = _shaped(fields["terminal"], path, _SHAPES[path], ("kind",), out)
            out += _prefixed(path, TerminalCost.violations(terminal))
    if raw.get("schedule") is not None:
        times = []
        schedule = _shaped(raw["schedule"], "schedule", _SHAPES["schedule"], ("events",), out)
        for i, ev in enumerate(schedule.get("events", ())):
            path = f"schedule.events[{i}]"
            event = _shaped(ev, path, _SHAPES["event"], _SHAPES["event"], out)
            out += _prefixed(path, ImpulseEvent.violations(_fields(event)))
            times.append(event.get("time"))
        out += _prefixed("schedule", ImpulseSchedule.violations(times))
    solver = _fields(shaped("solver"))
    shaped("flags")  # its one key sets a ModelParams field, and has no value rule
    return out + _prefixed("solver", SweepOptions.violations(solver))


def _build(raw: dict) -> RunConfig:
    """The config of a document that ``_section_violations`` finds clean."""
    flags = raw.get("flags", {})
    params = ModelParams(**raw["params"], delta_n_to_exposed=flags.get("include_delta_n", False))
    weights = dict(raw.get("weights", {}))
    terminal = TerminalCost(**weights.pop("terminal", {}))
    schedule = raw.get("schedule")
    if schedule is not None:
        schedule = ImpulseSchedule(
            tuple(ImpulseEvent(ev["time"], ev["lambda"]) for ev in schedule["events"])
        )
    return RunConfig(
        params=params,
        initial=StateVector(**raw["initial"]),
        weights=CostWeights(**{"sigma": (50.0,) * params.n, **weights}, terminal=terminal),
        grid=TimeGrid(**raw["grid"]),
        schedule=schedule,
        solver=SweepOptions(**_fields(raw.get("solver", {}))),
    )


def _json_object(component, skip=()) -> dict:
    """A component's fields keyed by config key, with lists for tuples."""
    return {
        _KEYS.get(name, name): list(x) if isinstance(x, tuple) else x
        for name, x in _field_values(component).items()
        if name not in skip
    }


def config_to_raw(config: RunConfig) -> dict:
    """Plain-JSON form of a config, the inverse of loading."""
    weights, schedule = config.weights, config.schedule
    return {
        "params": _json_object(config.params, ("delta_n_to_exposed",)),
        "initial": _json_object(config.initial),
        "weights": _json_object(weights, ("terminal",))
        | {"terminal": _json_object(weights.terminal)},
        "grid": {"tau": config.grid.tau_requested, "h": config.grid.h},
        "schedule": None
        if schedule is None
        else {"events": [_json_object(ev) for ev in schedule.events]},
        "solver": _json_object(config.solver),
        "flags": {"include_delta_n": config.params.delta_n_to_exposed},
    }


def _cross_violations(config: RunConfig) -> list[str]:
    """Checks that span components: the per-dose lists against the dose count of
    params.gamma, a positive vaccination gain, a finite bound on the running cost over the
    horizon, each impulse on its own interior grid node, and a terminal cost that can be
    evaluated at tau."""
    n = config.params.n
    counts = {"initial.V": config.initial.n, "weights.sigma": len(config.weights.sigma)}
    out = [
        f"{where}: expected {n} entries to match params.gamma"
        for where, k in counts.items()
        if k != n
    ]
    if counts["weights.sigma"] == n:
        w, tau, v_max = config.weights, config.grid.tau, config.params.v_max
        gain = w.vaccination_gain(config.params)
        if gain <= 0:
            out.append("weights.sigma: vaccination gain sum must be positive")
        # the rows of the vector field sum to zero, so only arrivals grow the
        # population (D included); u <= 1 and v <= v_max bound the effort terms
        events = config.schedule.events if config.schedule is not None else ()
        people = sum(config.initial.as_array().tolist())
        people *= math.prod(1.0 + max(ev.lam) for ev in events)
        g_max = sum(w.omega) * people + 0.5 * w.sigma0 + 0.5 * gain * v_max * v_max
        if not math.isfinite(tau * g_max):
            out.append(f"weights: the running-cost bound over tau = {tau:.6g} is not finite")
    out += [f"schedule: {fault}" for fault in _impulse_nodes(config.schedule, config.grid)[1]]
    fault = config.weights.terminal.horizon_fault(config.grid.tau)
    return out + _prefixed("weights.terminal", [fault] if fault else [])


def validate_raw_config(raw: dict) -> list[str]:
    """Every violation in a parsed config document, never just the first: the sections,
    then, once they pass, the cross-component checks.  ``load_config`` runs the same."""
    return _section_violations(raw) or _cross_violations(_build(raw))


def validate_config(config: RunConfig | dict) -> list[str]:
    """Violation list for a config document, or the cross-component checks of a typed config,
    whose components have passed their own rules on construction."""
    if isinstance(config, dict):
        return validate_raw_config(config)
    return _cross_violations(config)


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
    return _build(raw)


def save_config(config: RunConfig, path: str) -> None:
    """Write a config as formatted JSON; loading it back is the identity."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_raw(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
