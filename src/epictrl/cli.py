"""Command-line front end: simulate, optimize, compare, r0.

Every command reads a JSON run configuration (or a named disease preset for
``compare``), runs deterministically, and writes CSV time series plus a JSON
summary.  Numbers are serialized as "%.12g" with no timestamps, so identical
inputs produce byte-identical outputs, written by C once the marches are compiled, else by Python.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .control import OptimalSolution, fbsm_solve, optimize_terminal_time, total_cost
from .errors import EpictrlError, UnknownPresetError
from .integrator import integrate_forward
from .model import A, D, E, I, R, S, ControlSignal
from .scenarios import PRESET_NAMES, RunConfig, default_config, load_config
from . import model, native

log = logging.getLogger("epictrl")


@dataclass(frozen=True)
class RunSummary:
    """Headline numbers of one run; crossing days are None when never reached."""

    final_population: float
    final_deceased: float
    peak_infected: float
    peak_asymptomatic: float
    susceptible_below_1pct_day: float | None
    exposed_below_1pct_day: float | None
    infected_below_1pct_day: float | None
    final_last_dose: float
    final_recovered: float
    cost: float
    iterations: int | None = None
    converged: bool | None = None
    transversality_residual: float | None = None


def _r12(x: float) -> float:
    return float(format(float(x), ".12g"))


def _first_crossing(times: np.ndarray, values: np.ndarray, threshold: float) -> float | None:
    if threshold <= 0.0:
        return None
    below = np.nonzero(values < threshold)[0]
    return float(times[below[0]]) if below.size else None


def _python_format(table: np.ndarray, read_back: bool = True) -> tuple[list[bytes], np.ndarray | None]:
    """``native._format``'s contract by Python's ``%``: the rows of the 2-D ``table`` as one block of
    "%.12g" CSV text, a row one ``%`` of a template, and with ``read_back`` the table it reads back as."""
    template = ",".join(["%.12g"] * table.shape[1])
    lines = [template % tuple(row) for row in table.tolist()]
    back = np.loadtxt(lines, delimiter=",", ndmin=2) if read_back else None
    return ["".join(line + "\r\n" for line in lines).encode()], back


def summarize(
    table: np.ndarray,
    cost: float,
    iterations: int | None = None,
    converged: bool | None = None,
    transversality_residual: float | None = None,
) -> RunSummary:
    """Summary computed from the values the trajectory CSV reads back as, matching it exactly."""
    t = table[:, 0]
    y = table[:, 1:-2]
    living = y.sum(axis=1) - y[:, D]
    return RunSummary(
        final_population=_r12(living[-1]),
        final_deceased=_r12(y[-1, D]),
        peak_infected=_r12(y[:, I].max()),
        peak_asymptomatic=_r12(y[:, A].max()),
        susceptible_below_1pct_day=_first_crossing(t, y[:, S], 0.01 * y[0, S]),
        exposed_below_1pct_day=_first_crossing(t, y[:, E], 0.01 * y[0, E]),
        infected_below_1pct_day=_first_crossing(t, y[:, I], 0.01 * y[0, I]),
        final_last_dose=_r12(y[-1, -1]),
        final_recovered=_r12(y[-1, R]),
        cost=_r12(cost),
        iterations=iterations,
        converged=converged,
        transversality_residual=None
        if transversality_residual is None
        else _r12(transversality_residual),
    )


def _write_lines(path: str, header: list[str], body: list[bytes]) -> None:
    with open(path, "wb") as fh:
        # names and numbers need no quoting, and "\r\n" is the csv module's row terminator
        fh.writelines((",".join(header).encode() + b"\r\n", *body))


def _write_trajectory(path: str, traj, controls: ControlSignal, fmt) -> tuple[list[bytes], np.ndarray]:
    """Write ``traj`` under ``controls`` by ``fmt``; returns the rows and the table they read back as."""
    v_rows, u_rows = controls.at(times := traj.times)  # the controls' own samples on a sweep's grid
    body, back = fmt(np.column_stack((times, traj.states, u_rows, v_rows)), True)
    n = back.shape[1] - 9  # t, six pools, n doses, u, v
    header = ["t", "S", "E", "A", "I", "R", "D"] + [f"V{i + 1}" for i in range(n)] + ["u", "v"]
    _write_lines(path, header, body)
    return body, back


def _write_controls(path: str, controls: ControlSignal, fmt) -> None:
    _write_lines(path, ["t", "u", "v"], fmt(np.column_stack((controls.grid, controls.u, controls.v)), False)[0])


def _write_adjoints(path: str, adjoint_traj, fmt) -> None:
    values = adjoint_traj.values
    n = values.shape[1] - 6
    header = ["t"] + [f"p{i + 1}" for i in range(6)] + [f"q{i + 1}" for i in range(n)]
    _write_lines(path, header, fmt(np.column_stack((adjoint_traj.times, values)), False)[0])


def _write_summary(path: str, summary: RunSummary) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_controls_file(path: str, v_max: float) -> ControlSignal:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if [c.strip() for c in next(reader, [])] != ["t", "u", "v"]:
            raise EpictrlError(f"{path}: expected header 't,u,v'")
        try:
            rows = [(float(t), float(u), float(v)) for t, u, v in reader]
        except ValueError as exc:  # names the row being read
            raise EpictrlError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise EpictrlError(f"{path}: no control samples")
    t, u, v = (np.array(col) for col in zip(*rows))
    try:
        return ControlSignal(t, v, u, v_max)
    except ValueError as exc:  # a sample out of its box or not finite, or a time out of order
        raise EpictrlError(f"{path}: {exc}") from None


def _controls_for_mode(config: RunConfig, mode: str, controls_file: str | None) -> ControlSignal:
    times = config.grid.times
    v_max = config.params.v_max
    if mode == "none":
        return ControlSignal.constant(times, 0.0, 0.0, v_max)
    if mode == "max":
        return ControlSignal.constant(times, v_max, 1.0, v_max)
    if mode == "file":
        if controls_file is None:
            raise EpictrlError("--controls file requires --controls-file PATH")
        return _read_controls_file(controls_file, v_max)
    raise EpictrlError(f"unknown controls mode {mode!r}")


def cmd_simulate(config: RunConfig, mode: str, controls_file: str | None, out_dir: str) -> int:
    controls = _controls_for_mode(config, mode, controls_file)
    traj = integrate_forward(
        config.initial, controls, config.params, config.grid, config.schedule
    )
    cost = total_cost(traj, controls, config.weights, config.params)
    os.makedirs(out_dir, exist_ok=True)
    _, table = _write_trajectory(os.path.join(out_dir, "trajectory.csv"), traj, controls, _formatter(config))
    _write_summary(os.path.join(out_dir, "summary.json"), summarize(table, cost))
    return 0


def _formatter(config: RunConfig):
    """``native._format`` where this process has compiled the marches of ``config``, else its twin."""
    library = native._marches(config.params.n, config.params.delta_n_to_exposed, 0)
    return library["format"] if library else _python_format


def _write_solution(out_dir: str, config: RunConfig, solution: OptimalSolution) -> list[bytes]:
    """Write every output of a solved run; returns the trajectory CSV rows, in blocks."""
    fmt, path = _formatter(config), os.path.join(out_dir, "trajectory.csv")
    os.makedirs(out_dir, exist_ok=True)
    body, back = _write_trajectory(path, solution.state_traj, solution.controls, fmt)
    _write_controls(os.path.join(out_dir, "controls.csv"), solution.controls, fmt)
    _write_adjoints(os.path.join(out_dir, "adjoints.csv"), solution.adjoint_traj, fmt)
    summary = summarize(
        back,
        solution.cost,
        iterations=solution.iterations,
        converged=solution.converged,
        transversality_residual=solution.transversality_residual,
    )
    _write_summary(os.path.join(out_dir, "summary.json"), summary)
    return body


def cmd_optimize(config: RunConfig, free_tau: tuple[float, float] | None, out_dir: str) -> int:
    if free_tau is not None:
        tau_star, solution = optimize_terminal_time(
            config.initial,
            config.params,
            config.weights,
            config.schedule,
            free_tau,
            h=config.grid.h,
            options=config.solver,
        )
        log.info("optimal horizon %.6g days", tau_star)
    else:
        solution = fbsm_solve(
            config.initial, config.params, config.weights, config.grid, config.schedule, config.solver
        )
    _write_solution(out_dir, config, solution)
    if not solution.converged:
        print("sweep did not converge; outputs written and flagged", file=sys.stderr)
        return 2
    return 0


def cmd_compare(diseases: list[str], impulsive: bool, out_dir: str) -> int:
    unknown = [d for d in diseases if d not in PRESET_NAMES]
    if unknown:
        raise UnknownPresetError(f"unknown disease(s) {unknown}; choose from {PRESET_NAMES}")
    worst = 0
    merged = []
    n = 0
    for disease in diseases:
        config = default_config(disease, impulsive=impulsive)
        solution = fbsm_solve(
            config.initial, config.params, config.weights, config.grid, config.schedule, config.solver
        )
        sub = os.path.join(out_dir, disease)
        body = _write_solution(sub, config, solution)
        if not solution.converged:
            worst = 2
        n = max(n, config.params.n)
        lines = (line for block in body for line in block.splitlines())
        merged.extend(b"%s,%s\r\n" % (disease.encode(), line) for line in lines)
    header = ["disease", "t", "S", "E", "A", "I", "R", "D"] + [f"V{i + 1}" for i in range(n)] + ["u", "v"]
    os.makedirs(out_dir, exist_ok=True)
    _write_lines(os.path.join(out_dir, "comparison.csv"), header, merged)
    return worst


def cmd_r0(config: RunConfig) -> int:
    n0 = model.total_population(config.initial)
    value = model.basic_reproduction_number(config.params, n0)
    print(f"R0 = {float(value):.12g}")
    print(
        "note: the literature value reported for this covid-19 scenario is 1.52; "
        "the threshold formula with these exact inputs gives the figure above, "
        "and the gap is documented rather than resolved here."
    )
    return 0


@functools.cache  # one parser a process: parsing does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epictrl",
        description="Simulate and optimally control a multi-dose vaccination epidemic model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate the model under fixed controls")
    sim.add_argument("--config", required=True, help="run configuration JSON")
    sim.add_argument("--controls", default="none", choices=["none", "max", "file"])
    sim.add_argument("--controls-file", default=None, help="CSV with header t,u,v")
    sim.add_argument("--out", required=True, help="output directory")

    opt = sub.add_parser("optimize", help="solve for the optimal control pair")
    opt.add_argument("--config", required=True)
    opt.add_argument(
        "--free-tau",
        nargs=2,
        type=float,
        metavar=("MIN", "MAX"),
        default=None,
        help="free horizon in [MIN, MAX]: solved at MIN, where J* is least, and H+M' reported",
    )
    opt.add_argument("--out", required=True)

    cmp_ = sub.add_parser("compare", help="run several disease presets side by side")
    cmp_.add_argument("--diseases", nargs="+", default=list(PRESET_NAMES))
    cmp_.add_argument("--impulsive", action="store_true", help="use the default arrival schedule")
    cmp_.add_argument("--out", required=True)

    r0 = sub.add_parser("r0", help="print the basic reproduction number")
    r0.add_argument("--config", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("EPICTRL_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), stream=sys.stderr)
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compare":
            return cmd_compare(args.diseases, args.impulsive, args.out)
        config = load_config(args.config)
        if args.command == "simulate":
            return cmd_simulate(config, args.controls, args.controls_file, args.out)
        if args.command == "optimize":
            free = tuple(args.free_tau) if args.free_tau else None
            return cmd_optimize(config, free, args.out)
        if args.command == "r0":
            return cmd_r0(config)
        raise EpictrlError(f"unknown command {args.command!r}")
    except (EpictrlError, ValueError, OSError, MemoryError) as exc:
        reason = f"{exc.filename}: {exc.strerror}" if getattr(exc, "filename", None) else str(exc) or type(exc).__name__
        print(f"error: {reason}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
