import copy
import dataclasses
import json
import pathlib
import re

import pytest

import epictrl as ec
from epictrl import scenarios
from epictrl.scenarios import config_to_raw, default_config, validate_raw_config

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def covid_raw():
    return config_to_raw(default_config("covid19"))


def with_value(doc, path, value):
    """A copy of ``doc`` with the entry at ``path`` (keys and indices) set to ``value``."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def json_paths(node, path=()):
    """The path of every number and every list in a JSON document."""
    if isinstance(node, dict):
        for key, x in node.items():
            yield from json_paths(x, path + (key,))
    elif isinstance(node, list):
        yield path
        for i, x in enumerate(node):
            yield from json_paths(x, path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def corpus():
    """covid19.json with one number set to a bad value, or one list emptied or lengthened."""
    base = json.loads((CONFIG_DIR / "covid19.json").read_text())
    for path in json_paths(base):
        node = base
        for key in path:
            node = node[key]
        if isinstance(node, list):
            yield with_value(base, path, [])
            yield with_value(base, path, node + node[-1:])
        else:
            for value in (-1, 0, float("nan"), float("inf"), float("-inf"), 1e300, None, "x"):
                yield with_value(base, path, value)


def load_raw(tmp_path, raw):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(raw))
    return ec.load_config(str(path))


class TestPresets:
    def test_covid19_values(self):
        params, initial = ec.preset("covid19")
        assert params.k == 0.54
        assert params.beta == 5e-4
        assert params.alpha == 0.995
        assert params.gamma == (1.0, 1.0)
        assert params.delta == (5e-4, 0.0)
        assert (initial.S, initial.E, initial.A, initial.I) == (8000, 1000, 500, 500)
        assert initial.V == (0.0, 0.0)

    def test_ebola_values(self):
        params, _ = ec.preset("ebola")
        assert params.alpha == 0.26
        assert params.k == 0.0023
        assert params.z == 0.76
        assert params.eta == params.f == 0.178

    def test_influenza_values(self):
        params, _ = ec.preset("influenza")
        assert params.p == 0.9
        assert params.z == 0.667
        assert params.alpha == 0.98

    def test_unknown_preset_rejected(self):
        with pytest.raises(ec.UnknownPresetError):
            ec.preset("measles")

    @pytest.mark.parametrize("disease", ec.PRESET_NAMES)
    @pytest.mark.parametrize("impulsive", [False, True])
    def test_presets_validate_cleanly(self, disease, impulsive):
        config = default_config(disease, impulsive=impulsive)
        assert ec.validate_config(config) == []


class TestValidateRawConfig:
    def test_valid_document(self):
        assert validate_raw_config(covid_raw()) == []

    def test_gamma_not_non_increasing(self):
        raw = covid_raw()
        raw["params"]["gamma"] = [1.0, 2.0]
        violations = validate_raw_config(raw)
        assert any("gamma: not non-increasing" in v for v in violations)

    def test_impulse_rate_out_of_range(self):
        raw = covid_raw()
        raw["schedule"] = {"events": [{"time": 7.0, "lambda": [1.5, 0, 0, 0]}]}
        violations = validate_raw_config(raw)
        assert any("impulse rate out of [0,1]" in v for v in violations)

    def test_unknown_keys_reported(self):
        raw = covid_raw()
        raw["params"]["betta"] = 1.0
        raw["extra_section"] = {}
        violations = validate_raw_config(raw)
        assert any("betta: unknown key" in v for v in violations)
        assert any("extra_section: unknown key" in v for v in violations)

    def test_collects_every_violation(self):
        raw = covid_raw()
        raw["params"]["gamma"] = [1.0, 2.0]
        raw["params"]["beta"] = 3.0
        raw["initial"]["S"] = -5
        violations = validate_raw_config(raw)
        assert len(violations) >= 3

    def test_missing_sections_reported(self):
        violations = validate_raw_config({})
        assert {"params: missing", "initial: missing", "grid: missing"} <= set(violations)


class TestRejectedDocuments:
    @pytest.mark.parametrize(
        "path, value, line",
        [
            (("params", "epsilon"), float("nan"), "params.epsilon: not finite"),
            (("params", "mu"), float("inf"), "params.mu: not finite"),
            (("grid", "tau"), float("inf"), "grid.tau: not finite"),
            (("initial", "V", 1), float("inf"), "initial.V: not finite"),
            (("initial", "S"), 10**400, "initial.S: expected a number"),
            # these three once passed the raw checks, then leaked ValueError from a constructor
            (("weights", "terminal", "kind"), None, "weights.terminal.kind: unknown kind None"),
            (("grid",), {"tau": 0.004, "h": 0.01}, "grid.tau: shorter than half a step"),
            (("params", "beta"), float("nan"), "params.beta: not finite"),
        ],
        ids=["eps-nan", "mu-inf", "tau-inf", "V-inf", "S-int", "kind-null", "half-step", "beta-nan"],
    )
    def test_value_rules_reach_the_raw_validator(self, tmp_path, path, value, line):
        raw = with_value(covid_raw(), path, value)
        assert validate_raw_config(raw) == [line]
        with pytest.raises(ec.ParseError, match=line):
            load_raw(tmp_path, raw)

    @pytest.mark.parametrize(
        "path, value, line",
        [
            (("weights",), None, "weights: expected an object"),
            (("params",), {}, "params.beta: missing"),
            (("flags", "include_delta_n"), "yes", "flags.include_delta_n: expected a boolean"),
            (("schedule",), {"events": {}}, "schedule.events: expected a list"),
            (
                ("weights", "sigma"),
                [0.0, 0.0],
                "weights.sigma: vaccination gain sum must be positive",
            ),
            (("initial", "V"), [0.0] * 3, "initial.V: expected 2 entries to match params.gamma"),
            (("flags", "adjoint_impulse"), "multiplicative", "flags.adjoint_impulse: unknown key"),
        ],
        ids=["object", "missing", "boolean", "list", "gain", "dose-count", "jump-rule"],
    )
    def test_shape_and_dose_checks(self, tmp_path, path, value, line):
        raw = with_value(covid_raw(), path, value)
        assert validate_raw_config(raw)[0] == line
        with pytest.raises(ec.ParseError, match=line):
            load_raw(tmp_path, raw)

    @pytest.mark.parametrize(
        "key, value",
        [("omega", [1e306, 1.0, 1.0, 1.0]), ("sigma", [1e308, 1e308])],
        ids=["omega", "sigma"],
    )
    def test_running_cost_bound_must_be_finite(self, tmp_path, key, value):
        # each once loaded and then solved to a cost of inf (omega) or nan (sigma)
        raw = with_value(covid_raw(), ("grid",), {"tau": 5.0, "h": 0.05})
        raw["weights"][key] = value
        line = "weights: the running-cost bound over tau = 5 is not finite"
        assert ec.validate_config(raw) == [line]
        with pytest.raises(ec.ParseError, match=line):
            load_raw(tmp_path, raw)

    def test_generated_corpus_loads_or_raises_parse_error(self, tmp_path):
        docs = list(corpus())
        assert len(docs) > 250
        for raw in docs:
            try:
                load_raw(tmp_path, raw)
                loaded = True
            except ec.ParseError:
                loaded = False
            assert (validate_raw_config(raw) == []) == loaded, raw


class TestValidateConfig:
    def test_off_grid_schedule_is_cross_checked(self):
        config = default_config("covid19", impulsive=True)
        bad = ec.RunConfig(
            params=config.params,
            initial=config.initial,
            weights=config.weights,
            grid=ec.TimeGrid(35.0, 0.01),
            schedule=ec.ImpulseSchedule((ec.ImpulseEvent(7.0042, (0.05,) * 4),)),
            solver=config.solver,
        )
        violations = ec.validate_config(bad)
        assert any("off the grid" in v for v in violations)

    def test_sigma_length_cross_checked(self):
        config = default_config("covid19")
        bad = ec.RunConfig(
            params=config.params,
            initial=config.initial,
            weights=ec.CostWeights(sigma=(50.0,)),
            grid=config.grid,
            schedule=None,
            solver=config.solver,
        )
        violations = ec.validate_config(bad)
        assert any("sigma" in v for v in violations)

    def test_step_count_is_capped(self):
        # h = 1e-12 at tau = 35 asks for 3.5e13 steps, tables no machine holds
        raw = with_value(covid_raw(), ("grid", "h"), 1e-12)
        (line,) = ec.validate_config(raw)
        assert line.startswith("grid.h: too small: tau/h = 3.5e+13 steps, above the cap of 1,000,000")

    def test_one_line_per_fault(self):
        config = default_config("covid19")
        bad = ec.RunConfig(
            params=config.params,
            initial=config.initial,
            weights=ec.CostWeights(sigma=(50.0,)),
            grid=ec.TimeGrid(35.0, 0.01),
            schedule=ec.ImpulseSchedule((ec.ImpulseEvent(40.0, (0.05,) * 4),)),
            solver=config.solver,
        )
        assert ec.validate_config(bad) == [
            "weights.sigma: expected 2 entries to match params.gamma",
            "schedule: impulse at t=40.0 outside (0, 35.0)",
        ]


class TestLoadSaveConfig:
    def test_round_trip_identity(self, tmp_path):
        for impulsive in (False, True):
            config = default_config("covid19", impulsive=impulsive)
            path = tmp_path / f"cfg_{impulsive}.json"
            ec.save_config(config, str(path))
            again = ec.load_config(str(path))
            assert again == config

    def test_load_reports_all_violations(self, tmp_path):
        raw = covid_raw()
        raw["params"]["gamma"] = [1.0, 2.0]
        raw["schedule"] = {"events": [{"time": 7.0, "lambda": [1.5, 0, 0, 0]}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ec.ParseError) as err:
            ec.load_config(str(path))
        message = str(err.value)
        assert "gamma: not non-increasing" in message
        assert "impulse rate out of [0,1]" in message

    def test_load_rejects_off_grid_impulse(self, tmp_path):
        # passes the section checks; the cross-component grid check catches it,
        # in the validator as in load_config
        raw = covid_raw()
        raw["grid"] = {"tau": 35.0, "h": 0.01}
        raw["schedule"] = {"events": [{"time": 7.0042, "lambda": [0.05] * 4}]}
        assert validate_raw_config(raw) == ["schedule: impulse at t=7.0042 is off the grid (h=0.01)"]
        path = tmp_path / "off_grid.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ec.ParseError) as err:
            ec.load_config(str(path))
        assert "off the grid" in str(err.value)

    def test_load_rejects_two_impulses_on_one_node(self, tmp_path):
        # 7.0000000001 is on the h=0.05 grid within tolerance and snaps to the
        # node of the day-7 event; a sweep would stop at it mid-run
        raw = json.loads((CONFIG_DIR / "covid19_impulsive.json").read_text())
        raw["grid"]["h"] = 0.05
        raw["schedule"]["events"].insert(1, {"time": 7.0000000001, "lambda": [0.05] * 4})
        fault = "schedule: two impulses snap to the same grid node t=7.0000000001"
        with pytest.raises(ec.ParseError, match=fault):
            load_raw(tmp_path, raw)
        config = default_config("covid19", impulsive=True)
        events = config.schedule.events
        extra = ec.ImpulseEvent(7.0000000001, (0.05,) * 4)
        config = dataclasses.replace(
            config,
            grid=ec.TimeGrid(35.0, 0.05),
            schedule=ec.ImpulseSchedule(events[:1] + (extra,) + events[1:]),
        )
        assert ec.validate_config(config) == [fault]

    def test_load_rejects_terminal_cost_that_overflows(self, tmp_path):
        # exp(30 * 35) is beyond the largest float
        raw = covid_raw()
        raw["weights"]["terminal"] = {"kind": "exponential", "coeff": 1.0, "rate": 30.0}
        with pytest.raises(ec.ParseError, match=r"weights.terminal.rate: rate\*tau = 1050 overflows"):
            load_raw(tmp_path, raw)
        assert ec.validate_config(raw) == [
            "weights.terminal.rate: rate*tau = 1050 overflows exp (limit 709.783)"
        ]
        raw["weights"]["terminal"]["rate"] = 20.0
        assert load_raw(tmp_path, raw).weights.terminal.rate == 20.0

    @pytest.mark.parametrize(
        "terminal",
        [
            # exp(20 * 35) is finite, 1e10 times it is not
            {"kind": "exponential", "coeff": 1e10, "rate": 20.0},
            {"kind": "quadratic", "coeff": 1e306, "rate": 1.0},
        ],
        ids=["exponential", "quadratic"],
    )
    def test_load_rejects_terminal_cost_whose_value_overflows(self, tmp_path, terminal):
        raw = covid_raw()
        raw["weights"]["terminal"] = terminal
        line = f"weights.terminal.coeff: {terminal['coeff']:g} overflows the value or slope at tau = 35"
        assert validate_raw_config(raw) == [line]
        with pytest.raises(ec.ParseError, match=re.escape(line)):
            load_raw(tmp_path, raw)

    @pytest.mark.parametrize("name", ["covid19.json", "covid19_impulsive.json"])
    def test_load_builds_the_config_once(self, name, monkeypatch):
        # the cross-component checks run on the config that load_config returns
        builds = []
        build = scenarios._build
        monkeypatch.setattr(scenarios, "_build", lambda raw: builds.append(1) or build(raw))
        config = ec.load_config(str(CONFIG_DIR / name))
        assert builds == [1] and config == build(json.loads((CONFIG_DIR / name).read_text()))

    def test_syntax_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"params": \n !}')
        with pytest.raises(ec.ParseError) as err:
            ec.load_config(str(path))
        assert ":2:" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ec.ParseError):
            ec.load_config(str(tmp_path / "nope.json"))

    @pytest.mark.parametrize(
        "name",
        ["covid19.json", "covid19_impulsive.json", "ebola.json", "influenza.json"],
    )
    def test_shipped_configs_are_valid(self, name):
        config = ec.load_config(str(CONFIG_DIR / name))
        assert ec.validate_config(config) == []
