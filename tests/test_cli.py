import csv
import dataclasses
import json
import math
import os
import pathlib
import shutil

import numpy as np
import pytest

import epictrl as ec
from epictrl import cli, native
from epictrl.scenarios import default_config, save_config


def small_config(tmp_path, name="cfg.json", tau=5.0, h=0.02, impulsive=False, **changes):
    config = default_config("covid19", impulsive=impulsive)
    grid = ec.TimeGrid(tau, h)
    schedule = ec.default_schedule(tau) if impulsive else None
    config = dataclasses.replace(config, grid=grid, schedule=schedule)
    if changes:
        config = dataclasses.replace(config, **changes)
    path = tmp_path / name
    save_config(config, str(path))
    return config, str(path)


def overflowing_costates(tmp_path) -> str:
    """covid19 with S = 0, beta = 1, tau = 5 and h = 0.05, whose first costate march overflows."""
    raw = json.loads((pathlib.Path(__file__).resolve().parent.parent / "configs" / "covid19.json").read_text())
    raw["initial"]["S"], raw["params"]["beta"], raw["grid"] = 0.0, 1.0, {"tau": 5.0, "h": 0.05}
    path = tmp_path / "overflowing.json"
    path.write_text(json.dumps(raw))
    return str(path)


def _unit(rng, hi=1.0) -> float:
    """0, ``hi`` or a uniform draw below it, a quarter, a quarter and a half of the time."""
    return float(rng.choice([0.0, hi, rng.uniform(0.0, hi), rng.uniform(0.0, hi)]))


def random_config(rng) -> dict:
    """A run config drawn over the schema that validate_config accepts: 2 to 5 doses, both flags,
    rates of 0 and 1 among them, arrivals in some, short horizons and coarse steps."""
    n = int(rng.integers(2, 6))
    gamma = sorted(rng.uniform(0.05, 1.0, n).tolist(), reverse=True)
    delta = [min(g, d) for g, d in zip(gamma, sorted((_unit(rng, 0.05) for _ in range(n)), reverse=True))]
    params = {name: _unit(rng) for name in ("q", "k", "z", "p", "eta", "alpha", "f", "epsilon", "mu")}
    params |= {"beta": _unit(rng) * float(rng.choice([1e-3, 1.0])), "gamma": gamma, "delta": delta}
    pools = (rng.uniform(0.0, 5000.0, 6) * (rng.random(6) < 0.8)).tolist()
    initial = dict(zip("SEAIRD", pools)) | {"V": (rng.uniform(0.0, 500.0, n) * (rng.random(n) < 0.5)).tolist()}
    terminal = {"kind": str(rng.choice(["linear", "quadratic", "exponential"])), "coeff": _unit(rng, 10.0),
                "rate": float(rng.uniform(0.01, 1.0))}
    weights = {"omega": [_unit(rng, 2.0) for _ in range(4)], "sigma0": float(rng.uniform(1.0, 100.0)),
               "sigma": [_unit(rng, 100.0) for _ in range(n)], "terminal": terminal}
    tau, h = float(rng.choice([1.0, 2.0, 3.0, 5.0])), float(rng.choice([0.05, 0.1, 0.25, 0.5]))
    steps, schedule = int(round(tau / h)), None
    if rng.random() < 0.4 and steps > 2:
        nodes = sorted(rng.choice(np.arange(1, steps), size=2, replace=False).tolist())
        schedule = {"events": [{"time": node * h, "lambda": [_unit(rng) for _ in range(4)]} for node in nodes]}
    solver = {"relaxation": float(rng.uniform(0.2, 1.0)), "tolerance": 1e-3, "max_iterations": 25}
    return {"params": params, "initial": initial, "weights": weights, "grid": {"tau": tau, "h": h},
            "schedule": schedule, "solver": solver, "flags": {"include_delta_n": bool(rng.random() < 0.5)}}


def read_trajectory(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = np.array([[float(x) for x in row] for row in reader])
    return header, rows


def test_csv_row_template_formats_like_each_value():
    values = [-0.0, 5e-324, 1e16, 123456789012.5, np.inf, -np.inf, np.nan, 1.0 / 3.0]
    table = np.column_stack([values, -np.array(values)])
    (body,), back = cli._python_format(table, True)
    assert body.decode().splitlines() == [f"{format(x, '.12g')},{format(-x, '.12g')}" for x in values]
    assert np.array_equal(back.view(np.uint64), python_csv(table)[1].view(np.uint64))
    (row,), back = cli._python_format(np.array([values]), False)
    assert row == (",".join(format(x, ".12g") for x in values) + "\r\n").encode() and back is None


@pytest.fixture()
def format12():
    """``format12`` of the compiled library, wrapped to count its calls."""
    library = native._library(2, False)
    if library is None:
        pytest.skip("no C compiler")
    fn, calls = library["format"].args[0], []
    return lambda *args: calls.append(args[1]) or fn(*args), calls


def python_csv(table):
    fields = [["%.12g" % x for x in row] for row in table.tolist()]
    back = np.array([[float(f) for f in row] for row in fields]).reshape(table.shape)
    return "".join(",".join(row) + "\r\n" for row in fields).encode(), back


def assert_python_bytes(table, blocks, back):
    """``blocks`` and ``back``, and the Python writer's (``cli._python_format``) of ``table``, are
    the bytes of ``python_csv`` and the values they read back as, bitwise; returns those bytes."""
    want_body, want_back = python_csv(table)
    for body, got in ((blocks, back), cli._python_format(table, True)):
        assert b"".join(body) == want_body
        assert np.array_equal(got.view(np.uint64), want_back.view(np.uint64))
    return want_body


def test_c_formatter_writes_python_bytes_and_reads_back_bitwise(format12):
    # every exponent: raw bit patterns (subnormals, nan and inf among them), wide magnitudes,
    # short decimals, ties and near-ties of the 12th digit, and both sides of each power of ten
    rng = np.random.default_rng(20240817)
    count = 10_000
    powers = 10.0 ** np.arange(-13, 36)
    values = np.concatenate([
        rng.integers(0, 2**64, count, dtype=np.uint64).view(np.float64),
        rng.integers(1, 2**52, count // 10, dtype=np.uint64).view(np.float64),  # subnormal
        rng.standard_normal(3 * count) * 10.0 ** rng.uniform(-14, 36, 3 * count),
        rng.integers(1, 10**12, count) / 10.0 ** rng.integers(0, 23, count),
        (rng.integers(10**11, 10**12, count) + 0.5) * 10.0 ** rng.integers(-11, 12, count),
        np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 1234567890.125, 999999999999.5, 99999999999.95, 1e22],
    ])
    table = np.concatenate([values, -values])[: values.size // 7 * 14].reshape(-1, 7)
    fn, calls = format12
    blocks, back = native._format(fn, table)
    assert_python_bytes(table, blocks, back)
    assert table.size > 10**5 and len(calls) < table.size // 2  # the C loop wrote most of them


def test_c_formatter_writes_from_1e_minus_11_on(format12):
    # on [1e-11, 2^-36) the exponent estimate is one low (-12); values of both signs across
    # [7e-12, 1.5e-11], each a quarter or more from a tie, which C writes from 1e-11 on and
    # hands Python below it
    rng = np.random.default_rng(1455)
    count = 496
    frac = rng.uniform(0.1, 0.4, count) + rng.integers(0, 2, count) / 2
    above = (rng.integers(10**11, 15 * 10**10, count) + frac) / 1e22
    below = (rng.integers(7 * 10**11, 10**12, count) + frac) / 1e23
    edges = [1e-11, np.nextafter(1e-11, 1.0), 2.0**-36, np.nextafter(2.0**-36, 0.0), 1.5e-11,
             np.nextafter(1.5e-11, 0.0), np.nextafter(1e-11, 0.0), 7e-12]
    values = rng.permutation(np.concatenate([above, below, edges]))
    table = np.concatenate([values, -values]).reshape(-1, 8)  # 250 rows: one block
    fn, calls = format12
    blocks, back = native._format(fn, table)
    assert_python_bytes(table, blocks, back)
    assert [i - 1 for i in calls[1:]] == np.flatnonzero(np.abs(table) < 1e-11).tolist()


def test_c_formatter_resumes_within_a_row(format12):
    # an exact tie and a nan stop the C loop twice in one row, which stays exact
    table = np.array([[1.5, 1234567890.125, -2.5e-7, np.nan, 0.1, -0.0], [3.0, 4e30, 5e-9, 6.0, 7.0, 8.0]])
    fn, calls = format12
    blocks, back = native._format(fn, table)
    assert calls == [0, 2, 4]
    assert_python_bytes(table, blocks, back)


def test_c_formatter_hands_python_the_values_at_block_boundaries(format12, monkeypatch):
    # blocks of two rows: a nan ends the first block and an exact tie starts the second
    monkeypatch.setattr(native, "_BLOCK", 2)
    table = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, np.nan], [1234567890.125, 6.0, 7.0], [8.0, 9.0, 0.1]])
    fn, calls = format12
    blocks, back = native._format(fn, table)
    assert calls == [0, 6, 6, 7]  # block [0, 6) stops at 5, block [6, 12) at once at 6
    assert [block.count(b"\r\n") for block in blocks] == [2, 2]
    assert_python_bytes(table, blocks, back)


def test_c_formatter_fixed_width_copies_fit_one_row_blocks(format12, monkeypatch):
    # the widest field of each layout, signs and all, in blocks of one row: the copies a field
    # makes at fixed widths run past its end, into the room the block buffer leaves after it,
    # and no further, which bytes after that buffer show
    monkeypatch.setattr(native, "_BLOCK", 1)
    buffers = []

    class Guarded:  # numpy, but with 64 canary bytes after each text buffer _format allocates
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, shape, dtype=float):
            if dtype is not np.uint8:
                return np.empty(shape, dtype)
            buffers.append((whole := np.full(shape + 64, 0xAB, np.uint8), shape))
            return whole[:shape]

    monkeypatch.setattr(native, "np", Guarded())
    widest = [-0.000123456789012, -1.23456789012e-11, -123456789012.0, -1.23456789012e32, -0.0]
    widest += [-9.87654321098e-11, -12345678901.2, -0.123456789012, -1.2e-5, -999999999999.0, -1.0]
    fn, calls = format12
    for cols in (1, 2, len(widest)):
        table = np.array(widest * cols).reshape(-1, cols)
        blocks, back = native._format(fn, table)
        want_body = assert_python_bytes(table, blocks, back)
        assert [len(block) for block in blocks] == [len(line) + 2 for line in want_body.split(b"\r\n")[:-1]]
        assert native._format(fn, table, read_back=False) == (blocks, None)
        assert cli._python_format(table, False) == ([want_body], None)
    assert len(buffers) == 6 and all((whole[size:] == 0xAB).all() for whole, size in buffers)


def test_six_digit_halves_split_exactly_into_pairs():
    # format12's fixed point: y = h * 429497 holds h / 10^4 in its high 32 bits, and each step
    # of y = (y mod 2^32) * 100 the next two digits, for every six-digit half h
    h = np.arange(10**6, dtype=np.uint64)
    y, pairs = h * np.uint64(429497), []
    for _ in range(3):
        pairs.append(y >> np.uint64(32))
        y = (y & np.uint64(0xFFFFFFFF)) * np.uint64(100)
    assert all(np.array_equal(p, h // 10**k % 100) for p, k in zip(pairs, (4, 2, 0)))


def test_global_seed_option_is_rejected(capsys):
    # the solver is deterministic, and nothing read the former --seed
    for argv in (["--seed=1", "r0", "--config", "cfg.json"], ["r0", "--config", "cfg.json", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_one_parser_serves_every_call_like_fresh_ones(tmp_path, capsys):
    # main builds its parser once a process; a run of different commands, usage errors and
    # error lines through that one parser prints, writes and exits as fresh parsers do
    _, cfg = small_config(tmp_path)

    def run(out):
        seen = []
        for argv in (
            ["r0", "--config", cfg],
            ["simulate", "--config", cfg, "--controls", "max", "--out", str(out / "max")],
            ["simulate", "--config", cfg],  # no --out: a usage error
            ["compare", "--diseases", "nope", "--out", str(out / "cmp")],
            ["frobnicate"],
            ["simulate", "--config", cfg, "--out", str(out / "none")],
            ["r0", "--config", cfg, "--free-tau", "1", "2"],
            ["r0", "--config", cfg],
        ):
            if out.name == "fresh":
                cli._build_parser.cache_clear()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = f"exit {exc.code}"
            seen.append((code, *capsys.readouterr()))
        files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        return seen, files, [(out / name).read_bytes() for name in files]

    fresh = run(tmp_path / "fresh")
    assert run(tmp_path / "shared") == fresh and cli._build_parser() is cli._build_parser()
    assert [code for code, *_ in fresh[0]] == [0, 0, "exit 2", 1, "exit 2", 0, "exit 2", 0]
    assert len(fresh[1]) == 4  # two simulate runs, each a trajectory and a summary


class TestSimulate:
    def test_one_run_compiles_nothing(self, tmp_path, monkeypatch):
        # its one pass of 3500 steps costs less in the Python march than a compile
        _, cfg = small_config(tmp_path, tau=35.0, h=0.01)
        monkeypatch.setattr(native, "_STEPS", {})
        monkeypatch.setattr(native, "_library", lambda n, to_exposed: pytest.fail("compiled"))
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert native._STEPS == {(2, False): 3500}

    def test_zero_initial_state(self, tmp_path):
        zero = ec.StateVector(0, 0, 0, 0, 0, 0, (0, 0))
        _, cfg = small_config(tmp_path, initial=zero)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_trajectory(out / "trajectory.csv")
        assert np.all(rows[:, 1:9] == 0.0)
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["susceptible_below_1pct_day"] is None
        assert summary["infected_below_1pct_day"] is None

    def test_crossing_day_null_when_not_reached(self, tmp_path):
        # two uncontrolled days are not enough for S to fall below 1%
        _, cfg = small_config(tmp_path, tau=2.0)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--controls", "none", "--out", str(out)]) == 0
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["susceptible_below_1pct_day"] is None

    def test_controls_modes_change_outcome(self, tmp_path):
        _, cfg = small_config(tmp_path, tau=10.0)
        out_none = tmp_path / "none"
        out_max = tmp_path / "max"
        assert cli.main(["simulate", "--config", cfg, "--controls", "none", "--out", str(out_none)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--controls", "max", "--out", str(out_max)]) == 0
        with open(out_none / "summary.json") as fh:
            none_summary = json.load(fh)
        with open(out_max / "summary.json") as fh:
            max_summary = json.load(fh)
        assert max_summary["final_deceased"] < none_summary["final_deceased"]
        assert max_summary["final_last_dose"] > 0.0

    def test_invalid_config_exits_nonzero(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    def test_too_many_steps_is_an_error_line(self, tmp_path, capsys):
        # h = 1e-12 at tau = 35 once passed validation and ended in a MemoryError traceback
        _, cfg = small_config(tmp_path)
        with open(cfg) as fh:
            raw = json.load(fh)
        raw["grid"] = {"tau": 35.0, "h": 1e-12}
        with open(cfg, "w") as fh:
            json.dump(raw, fh)
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error" in line] == [f"error: {cfg}: invalid config:"]
        assert "grid.h: too small: tau/h = 3.5e+13 steps" in err and "Traceback" not in err
        assert not out.exists()

    def test_non_finite_config_exits_nonzero(self, tmp_path):
        _, cfg = small_config(tmp_path)
        with open(cfg) as fh:
            raw = json.load(fh)
        raw["params"]["epsilon"] = float("nan")
        with open(cfg, "w") as fh:
            json.dump(raw, fh)
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "command, fault, reason",
        [
            ("simulate", "missing-controls", "No such file or directory"),
            ("simulate", "empty-controls", "expected header 't,u,v'"),
            ("simulate", "out-is-a-file", "File exists"),
            ("optimize", "out-is-a-file", "File exists"),
            ("simulate", "no-rows", "no control samples"),
            ("simulate", "short-row", "not enough values to unpack (expected 3, got 2)"),
            ("simulate", "not-a-number", "could not convert string to float: 'x'"),
            ("simulate", "no-controls-file", "--controls file requires --controls-file PATH"),
        ],
    )
    def test_file_faults_are_error_lines(self, tmp_path, capsys, command, fault, reason):
        # a missing, empty or malformed controls file, a missing --controls-file, or an
        # --out naming a file, ends the run with one "error: <path>[:<line>]: ..." line
        # and status 1, not a traceback
        _, cfg = small_config(tmp_path)
        controls, out = tmp_path / "controls.csv", tmp_path / "out"
        argv = [command, "--config", cfg, "--out", str(out)]
        text = {"empty-controls": "", "no-rows": "t,u,v\n", "short-row": "t,u,v\n0,0.5\n"}
        text["not-a-number"] = "t,u,v\n0,0.5,x\n"
        where = {"out-is-a-file": f"{out}: ", "no-controls-file": ""}
        where |= {"short-row": f"{controls}:2: ", "not-a-number": f"{controls}:2: "}
        if fault == "out-is-a-file":
            out.write_text("")
        elif fault == "no-controls-file":
            argv += ["--controls", "file"]
        else:
            argv += ["--controls", "file", "--controls-file", str(controls)]
        if fault in text:
            controls.write_text(text[fault])
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {where.get(fault, f'{controls}: ')}{reason}\n"

    @pytest.mark.parametrize("column", [0, 1, 2], ids=["t", "u", "v"])
    def test_nan_in_the_controls_file_is_an_error_line(self, tmp_path, capsys, column):
        # a nan once passed every check, and the run wrote nan rows and "cost": NaN, which is not JSON
        _, cfg = small_config(tmp_path)
        rows = [[0.0, 0.5, 0.5], [2.5, 0.5, 0.5], [5.0, 0.5, 0.5]]
        rows[1][column] = math.nan
        controls, out = tmp_path / "controls.csv", tmp_path / "out"
        controls.write_text("t,u,v\n" + "".join(f"{t},{u},{v}\n" for t, u, v in rows))
        capsys.readouterr()
        argv = ["simulate", "--config", cfg, "--controls", "file", "--controls-file", str(controls)]
        assert cli.main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {controls}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_controls_from_file_reproduces_optimized_run(self, tmp_path):
        # controls.csv rounds to 12 significant digits, so replaying it
        # reproduces the optimized trajectory to that precision
        _, cfg = small_config(tmp_path)
        out_opt = tmp_path / "opt"
        assert cli.main(["optimize", "--config", cfg, "--out", str(out_opt)]) == 0
        out_sim = tmp_path / "sim"
        rc = cli.main(
            [
                "simulate",
                "--config",
                cfg,
                "--controls",
                "file",
                "--controls-file",
                str(out_opt / "controls.csv"),
                "--out",
                str(out_sim),
            ]
        )
        assert rc == 0
        _, opt_rows = read_trajectory(out_opt / "trajectory.csv")
        _, sim_rows = read_trajectory(out_sim / "trajectory.csv")
        np.testing.assert_allclose(sim_rows, opt_rows, rtol=1e-9, atol=1e-9)


class TestOptimize:
    def test_outputs_written_and_summary_consistent(self, tmp_path):
        config, cfg = small_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        for name in ("trajectory.csv", "controls.csv", "adjoints.csv", "summary.json"):
            assert (out / name).exists()
        header, rows = read_trajectory(out / "trajectory.csv")
        assert header == ["t", "S", "E", "A", "I", "R", "D", "V1", "V2", "u", "v"]
        with open(out / "summary.json") as fh:
            summary = json.load(fh)

        t = rows[:, 0]
        y = rows[:, 1:9]
        u = rows[:, 9]
        v = rows[:, 10]
        living = y.sum(axis=1) - y[:, 5]
        assert summary["final_population"] == pytest.approx(living[-1], rel=1e-9)
        assert summary["final_deceased"] == pytest.approx(y[-1, 5], rel=1e-9)
        assert summary["peak_infected"] == pytest.approx(y[:, 3].max(), rel=1e-9)
        assert summary["peak_asymptomatic"] == pytest.approx(y[:, 2].max(), rel=1e-9)
        assert summary["final_recovered"] == pytest.approx(y[-1, 4], rel=1e-9)
        assert summary["final_last_dose"] == pytest.approx(y[-1, 7], rel=1e-9)
        crossing = t[np.nonzero(y[:, 0] < 0.01 * y[0, 0])[0][0]]
        assert summary["susceptible_below_1pct_day"] == pytest.approx(crossing, rel=1e-9)

        w = config.weights
        gain = w.vaccination_gain(config.params)
        g = (
            w.omega[0] * y[:, 0]
            + w.omega[1] * y[:, 1]
            + w.omega[2] * y[:, 2]
            + w.omega[3] * y[:, 3]
            + 0.5 * w.sigma0 * u * u
            + 0.5 * gain * v * v
        )
        j = float(np.sum(0.5 * np.diff(t) * (g[:-1] + g[1:]))) + w.terminal.value(t[-1])
        assert summary["cost"] == pytest.approx(j, rel=1e-9)
        assert summary["converged"] is True
        assert summary["iterations"] >= 1

    def test_native_and_python_marches_write_the_same_bytes(self, tmp_path, monkeypatch):
        # C marches and formatter from the first step, from a step mid-sweep on, and never
        _, cfg = small_config(tmp_path, tau=35.0, h=0.05, impulsive=True)
        assert (native._library(2, False) is None) == (shutil.which("cc") is None)
        runs = {
            "optimize": ["optimize", "--config", cfg],
            "simulate": ["simulate", "--config", cfg, "--controls", "max"],
            "compare": ["compare", "--impulsive"],
        }
        monkeypatch.setattr(native, "_PAYBACK", 0)
        for name, argv in runs.items():
            assert cli.main([*argv, "--out", str(tmp_path / "native" / name)]) == 0
        library, asked = native._library, []
        monkeypatch.setattr(native, "_PAYBACK", 5000)
        monkeypatch.setattr(native, "_STEPS", {})
        monkeypatch.setattr(native, "_library", lambda *kind: asked.append(native._STEPS[kind]) or library(*kind))
        assert cli.main([*runs["optimize"], "--out", str(tmp_path / "switched" / "optimize")]) == 0
        assert 5000 <= asked[0] < 5700 < native._STEPS[2, False]  # 700 steps a pass
        monkeypatch.setattr(native, "_library", lambda n, to_exposed: None)
        for name, argv in runs.items():
            assert cli.main([*argv, "--out", str(tmp_path / "python" / name)]) == 0
        files = sorted(p.relative_to(tmp_path / "python") for p in (tmp_path / "python").rglob("*.*"))
        assert len(files) == 4 + 2 + 3 * 4 + 1
        for name in files:
            sides = ("native", "switched", "python") if name.parts[0] == "optimize" else ("native", "python")
            assert len({(tmp_path / side / name).read_bytes() for side in sides}) == 1, name

    def test_nonconvergence_exits_two_but_writes(self, tmp_path):
        _, cfg = small_config(tmp_path, solver=ec.SweepOptions(max_iterations=1))
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", cfg, "--out", str(out)]) == 2
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["converged"] is False

    @pytest.mark.parametrize("h", [1.5, 1.75])
    def test_step_too_coarse_after_the_first_pass_exits_two_but_writes(self, tmp_path, caplog, h):
        # beta = 2e-4 marches under the zero controls, and a later update's controls do not
        params = dataclasses.replace(default_config("covid19").params, beta=2e-4)
        _, cfg = small_config(tmp_path, tau=35.0, h=h, params=params)
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", cfg, "--out", str(out)]) == 2
        assert "step too coarse at update" in caplog.text
        assert json.loads((out / "summary.json").read_text())["converged"] is False
        for name in ("trajectory.csv", "controls.csv", "adjoints.csv"):
            assert np.isfinite(np.loadtxt(out / name, delimiter=",", skiprows=1)).all()

    def test_impulse_rows_and_population_bookkeeping(self, tmp_path):
        _, cfg = small_config(tmp_path, tau=10.0, impulsive=True)
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_trajectory(out / "trajectory.csv")
        t = rows[:, 0]
        dup = np.nonzero(np.diff(t) == 0.0)[0]
        assert len(dup) == 1  # one event at day 7
        pre = rows[dup[0]]
        post = rows[dup[0] + 1]
        living_pre = pre[1:9].sum() - pre[6]
        living_post = post[1:9].sum() - post[6]
        expected = 0.05 * (pre[1] + pre[2] + pre[3] + pre[4])
        assert living_post - living_pre == pytest.approx(expected, rel=1e-9)

    def test_free_tau_records_residual(self, tmp_path):
        _, cfg = small_config(tmp_path, tau=4.0, h=0.05, solver=ec.SweepOptions(max_iterations=150))
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", cfg, "--free-tau", "2", "4", "--out", str(out)]) == 0
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["transversality_residual"] is not None

    @pytest.mark.parametrize("tau, free_tau", [(35.0, None), (5.0, ["30", "40"])])
    def test_overflowing_terminal_cost_is_an_error_line(self, tmp_path, capsys, tau, free_tau):
        # exp(rate * tau) overflows at the config's tau, or only at the free
        # horizon's lower end, where the free-time search solves
        terminal = ec.TerminalCost("exponential", 1.0, 30.0)
        _, cfg = small_config(tmp_path, tau=tau, h=0.05, weights=ec.CostWeights(terminal=terminal))
        out = tmp_path / "out"
        argv = ["optimize", "--config", cfg, "--out", str(out)]
        assert cli.main(argv + (["--free-tau", *free_tau] if free_tau else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflows exp" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_overflowing_costates_are_an_error_line(self, tmp_path, capsys):
        # covid19 with S = 0, beta = 1, tau = 5 and h = 0.05, so h*beta*N0 = 100: the states stay
        # finite and 39 costate rows overflow in the first backward pass, the first at t = 1.9;
        # this once ended in "NaN encountered in control update"
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", overflowing_costates(tmp_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: costates overflowed at t=1.9; reduce h"]
        assert not out.exists()

    def test_running_out_of_memory_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "fbsm_solve", exhausted)
        _, cfg = small_config(tmp_path)
        assert cli.main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: MemoryError"]

    def test_random_configs_end_in_an_exit_code_and_finite_files(self, tmp_path, capsys):
        # 40 draws over what validate_config accepts: a run exits 0 or 2 with four files of finite
        # numbers, or 1 with one error line, from validation or the sweep's first iteration only
        rng = np.random.default_rng(27)
        raws = [json.loads(pathlib.Path(overflowing_costates(tmp_path)).read_text())]
        raws += [random_config(rng) for _ in range(39)]
        ends = []
        for i, raw in enumerate(raws):
            cfg, out = tmp_path / f"{i}.json", tmp_path / str(i)
            cfg.write_text(json.dumps(raw))
            rc = cli.main(["optimize", "--config", str(cfg), "--out", str(out)])
            err = capsys.readouterr().err
            assert rc in (0, 1, 2) and "Traceback" not in err, (i, err)
            ends.append(rc)
            if rc == 1:  # a validation error's line is followed by its faults, indented
                line = err.splitlines()[0]
                assert line.startswith("error: ") and err.count("error") == 1 and not out.exists()
                try:
                    config = ec.load_config(str(cfg))
                except ec.ParseError:
                    continue
                assert err == line + "\n"
                with pytest.raises((ec.EpictrlError, ValueError)) as raised:
                    options = ec.SweepOptions(max_iterations=1)  # its second pass may only end the sweep
                    ec.fbsm_solve(config.initial, config.params, config.weights, config.grid, config.schedule, options)
                assert line == f"error: {raised.value}"
                continue
            for name in ("trajectory.csv", "controls.csv", "adjoints.csv"):
                assert np.isfinite(np.loadtxt(out / name, delimiter=",", skiprows=1)).all(), (i, name)
            summary = json.loads((out / "summary.json").read_text(), parse_constant=pytest.fail)
            assert all(math.isfinite(x) for x in summary.values() if isinstance(x, float)), i
        assert {0, 1, 2} <= set(ends)

    def test_byte_identical_reruns(self, tmp_path):
        _, cfg = small_config(tmp_path)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert cli.main(["optimize", "--config", cfg, "--out", str(a)]) == 0
        assert cli.main(["optimize", "--config", cfg, "--out", str(b)]) == 0
        for name in ("trajectory.csv", "controls.csv", "adjoints.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestCompare:
    def test_unknown_disease_leaves_no_output(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["compare", "--diseases", "covid19", "plague", "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_single_disease_layout(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["compare", "--diseases", "covid19", "--out", str(out)])
        assert rc == 0
        assert (out / "covid19" / "summary.json").exists()
        with open(out / "comparison.csv", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            first = next(reader)
        assert header[:2] == ["disease", "t"]
        assert first[0] == "covid19"

    def test_all_presets_converge_and_rank(self, tmp_path):
        # regression: full defaults for all three diseases, and the severe
        # disease recovers fewer people than the mild ones
        out = tmp_path / "out"
        rc = cli.main(["compare", "--diseases", "covid19", "ebola", "influenza", "--out", str(out)])
        assert rc == 0
        summaries = {}
        for disease in ("covid19", "ebola", "influenza"):
            with open(out / disease / "summary.json") as fh:
                summaries[disease] = json.load(fh)
            assert summaries[disease]["converged"] is True
        assert summaries["ebola"]["final_recovered"] < summaries["covid19"]["final_recovered"]


class TestR0:
    def run_r0(self, capsys, tmp_path, name, **changes):
        _, cfg = small_config(tmp_path, name=name, **changes)
        assert cli.main(["r0", "--config", cfg]) == 0
        out = capsys.readouterr().out
        value = float(out.splitlines()[0].split("=")[1])
        return value, out

    def test_prints_formula_value_and_note(self, capsys, tmp_path):
        value, out = self.run_r0(capsys, tmp_path, "a.json")
        assert value == pytest.approx(16.6750418760469, abs=1e-9)
        assert "1.52" in out

    def test_zero_transmission(self, capsys, tmp_path):
        config = default_config("covid19")
        params = ec.ModelParams(**{**config.params.__dict__, "beta": 0.0})
        value, _ = self.run_r0(capsys, tmp_path, "b.json", params=params)
        assert value == 0.0

    def test_linear_in_beta(self, capsys, tmp_path):
        config = default_config("covid19")
        params = ec.ModelParams(**{**config.params.__dict__, "beta": 1e-3})
        doubled, _ = self.run_r0(capsys, tmp_path, "c.json", params=params)
        base, _ = self.run_r0(capsys, tmp_path, "d.json")
        assert doubled == pytest.approx(2.0 * base, rel=1e-9)
