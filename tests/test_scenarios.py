import json
import pathlib

import pytest

import epictrl as ec
from epictrl.scenarios import config_to_raw, default_config, validate_raw_config

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def covid_raw():
    return config_to_raw(default_config("covid19"))


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
        # passes the raw checks; only the cross-component grid check catches it
        raw = covid_raw()
        raw["grid"] = {"tau": 35.0, "h": 0.01}
        raw["schedule"] = {"events": [{"time": 7.0042, "lambda": [0.05] * 4}]}
        assert validate_raw_config(raw) == []
        path = tmp_path / "off_grid.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ec.ParseError) as err:
            ec.load_config(str(path))
        assert "off the grid" in str(err.value)

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
