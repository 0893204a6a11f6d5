"""The benchmark workloads and the pinned references their outputs must match.

Each workload prepares its inputs once (``prepare``), then runs one
operation per call to ``op`` and checks that operation's outputs with
``check``.  Every call into the package goes through a module attribute
(``cli.main``, ``integrator.integrate_forward``, ...), so a tracer that
swaps those attributes sees the calls.

Why these four.  BENCHMARK.json lists only ``optimize`` and ``oracle``; the
other two are run by hand (``--workload NAME``).  On the 2-core machine the
benchmark was written on, 30-second runs spread by 0.15-0.27 of their
median even with the busy loop of ``busy.py``, close to the largest bound a
metric may have; 50-second runs spread by about 0.1.  The time allowed for
all runs buys 50-second runs for two workloads only, and these two reach
every module between them.

* ``optimize``  - the ROADMAP's headline run: ``epictrl optimize`` on
  configs/covid19.json, one trajectory, 17 sweep iterations, ~1 MB of CSV.
* ``free_tau``  - ``optimize --free-tau 28 35`` on the impulsive preset at
  h=0.05: 13 sweeps with truncated arrival schedules, so the horizon search
  and the impulse jumps of both passes dominate.  ``optimize`` bypasses it.
  A 10-14 s operation leaves only a few samples per run.
* ``oracle``    - the C04 certification: exhaustive 59,049-candidate
  lockstep RK4 search plus the tau=5 sweep it certifies.  The only batched
  marcher user; it runs no backward pass over candidates.
* ``ensemble``  - the ``simulate`` path at scale: seeded random admissible
  scenarios of C01's shape (2-4 doses, constant controls, arrivals in half),
  forward pass plus cost quadrature only.  One operation is a batch of
  ``ENSEMBLE_BATCH`` draws.

Only ``ensemble`` takes its inputs from the seed; the other three run one
fixed input each, because their references are pinned to that input.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# Outputs of the seed commit.  `optimize` must stay byte-identical
# (ROADMAP: CLI outputs change only when a PR says why and by how much).
OPTIMIZE_SHA256 = {
    "trajectory.csv": "180891596251466c247c979a4c72f4d75ae74747893884cec105fb7477827b7d",
    "controls.csv": "684934f668e79b05863cdd000752f7f1e038548f348590a0261d238df836cd0b",
    "adjoints.csv": "1094727e36cb37f4c6a4de04ca31c028932d4c0b9011e204c4b2a7af5d170662",
    "summary.json": "22ef8b7ff7476ff1df515ac57446e70c22237b08b55350afed6623cc44e86800",
}
OPTIMIZE_COST = 30463.4839391
OPTIMIZE_ITERATIONS = 17
FREE_TAU_STAR = 28.0
FREE_TAU_COST = 30281.487261
ORACLE_BEST_J = 20794.074592123383
ORACLE_SWEEP_RATIO = 1.05
# Weighted sum of the final states of the first ENSEMBLE_CHECK_DRAWS draws of
# seed 0; integration-order changes may move it only at roundoff level.
ENSEMBLE_CHECK_SEED = 0
ENSEMBLE_CHECK_DRAWS = 5
ENSEMBLE_CHECKSUM = 195344.48785591382
ENSEMBLE_BATCH = 20  # draws per operation, a tenth of C01's 200
COST_RTOL = 1e-9
CHECKSUM_RTOL = 1e-9


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


@dataclass
class Outcome:
    """What one operation produced, reduced to the values its check needs."""

    ok: bool
    cost_rel_err: float
    detail: str = ""


@dataclass
class Workload:
    """Prepared inputs of one workload plus its op/check pair."""

    name: str
    config_path: str
    out_dir: str
    state: dict = field(default_factory=dict)

    def next_input(self, ec):
        """Input of the next operation, made outside the timed region."""
        return None

    def op(self, ec, inp):
        raise NotImplementedError

    def check(self, result) -> Outcome:
        raise NotImplementedError

    def final_check(self, ec) -> Outcome:
        """Checks made once per run, outside the timed operations."""
        return Outcome(True, 0.0)

    def sample(self, ec):
        """(params, initial, weights) for timing single vector-field calls."""
        config = ec.scenarios.load_config(self.config_path)
        return config.params, config.initial, config.weights


def _read_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Optimize(Workload):
    def op(self, ec, inp):
        return ec.cli.main(["optimize", "--config", self.config_path, "--out", self.out_dir])

    def check(self, exit_code) -> Outcome:
        summary = _read_summary(self.out_dir)
        err = rel_err(summary["cost"], OPTIMIZE_COST)
        bad = [
            name
            for name, digest in OPTIMIZE_SHA256.items()
            if _sha256(os.path.join(self.out_dir, name)) != digest
        ]
        ok = (
            exit_code == 0
            and summary["converged"] is True
            and summary["iterations"] == OPTIMIZE_ITERATIONS
            and err <= COST_RTOL
            and not bad
        )
        detail = f"exit {exit_code}, J={summary['cost']}, {summary['iterations']} iterations"
        if bad:
            detail += f", outputs differ from the seed commit: {bad}"
        return Outcome(ok, err, detail)


class FreeTau(Workload):
    def op(self, ec, inp):
        return ec.cli.main(
            ["optimize", "--config", self.config_path, "--free-tau", "28", "35", "--out", self.out_dir]
        )

    def check(self, exit_code) -> Outcome:
        summary = _read_summary(self.out_dir)
        with open(os.path.join(self.out_dir, "controls.csv"), encoding="utf-8") as fh:
            tau_star = float(fh.read().splitlines()[-1].split(",")[0])
        err = rel_err(summary["cost"], FREE_TAU_COST)
        ok = (
            exit_code == 0
            and summary["converged"] is True
            and tau_star == FREE_TAU_STAR
            and err <= COST_RTOL
        )
        return Outcome(ok, err, f"exit {exit_code}, tau*={tau_star}, J={summary['cost']}")


class Oracle(Workload):
    def next_input(self, ec):
        if "config" not in self.state:
            self.state["config"] = ec.scenarios.load_config(self.config_path)
        return self.state["config"]

    def op(self, ec, config):
        oracle_cfg = ec.oracle.OracleConfig(horizon=5.0, segments=5, u_levels=3, v_levels=3)
        best_j, _ = ec.oracle.brute_force_optimum(
            config.initial, config.params, config.weights, oracle_cfg
        )
        grid = ec.integrator.TimeGrid(5.0, 0.01)
        sol = ec.control.fbsm_solve(config.initial, config.params, config.weights, grid)
        return best_j, sol.cost, sol.converged

    def check(self, result) -> Outcome:
        best_j, sweep_j, converged = result
        err = rel_err(best_j, ORACLE_BEST_J)
        ok = converged and err <= COST_RTOL and sweep_j <= ORACLE_SWEEP_RATIO * best_j
        return Outcome(ok, err, f"oracle J={best_j:.10g}, sweep J={sweep_j:.10g}")


def draw_scenario(ec, rng):
    """One admissible model/state/control/schedule draw of C01's shape."""
    n = int(rng.integers(2, 5))
    gamma = np.sort(rng.uniform(0.1, 1.0, size=n))[::-1]
    delta = np.minimum(np.sort(rng.uniform(0.0, 0.02, size=n))[::-1], gamma)
    unit = rng.uniform(0.0, 1.0, size=9)
    params = ec.model.ModelParams(
        beta=float(rng.uniform(0.0, 6e-4)),
        epsilon=float(unit[0]),
        q=float(unit[1]),
        mu=float(unit[2]),
        k=float(unit[3]),
        z=float(unit[4]),
        p=float(unit[5]),
        eta=float(unit[6]),
        alpha=float(unit[7]),
        f=float(unit[8]),
        gamma=tuple(gamma),
        delta=tuple(delta),
    )
    pools = rng.uniform(0.0, 2500.0, size=4)
    doses = rng.uniform(0.0, 500.0, size=n)
    initial = ec.model.StateVector(*pools, 0.0, 0.0, tuple(doses))
    grid = ec.integrator.TimeGrid(35.0, 0.01)
    controls = ec.model.ControlSignal.constant(
        grid.times, float(rng.uniform(0.0, params.v_max)), float(rng.uniform(0.0, 1.0)), params.v_max
    )
    schedule = None
    if rng.uniform() < 0.5:
        count = int(rng.integers(1, 4))
        nodes = np.sort(rng.choice(np.arange(1, grid.n_steps), size=count, replace=False))
        schedule = ec.model.ImpulseSchedule(
            tuple(
                ec.model.ImpulseEvent(float(node * grid.h), tuple(rng.uniform(0.0, 0.3, size=4)))
                for node in nodes
            )
        )
    weights = ec.control.CostWeights(sigma=(50.0,) * n)
    return params, initial, grid, controls, schedule, weights


def _simulate(ec, draw):
    params, initial, grid, controls, schedule, weights = draw
    traj = ec.integrator.integrate_forward(initial, controls, params, grid, schedule)
    cost = ec.control.total_cost(traj, controls, weights, params)
    return traj, cost


def _final_state_checksum(trajs) -> float:
    return float(sum(t.states_post[-1] @ np.arange(1.0, t.states_post.shape[1] + 1.0) for t in trajs))


class Ensemble(Workload):
    """One operation integrates a batch of fresh draws; inputs come from the seed.

    A batch, not a single draw, is the unit because a shared 2-core
    machine's speed can switch between two levels within seconds: the
    median of 0.2 s draws jumps with the share of time spent at each level,
    while a batch averages over it, as the sweeps of the other workloads do.
    """

    batch = ENSEMBLE_BATCH

    def next_input(self, ec):
        return [draw_scenario(ec, self.state["rng"]) for _ in range(ENSEMBLE_BATCH)]

    def sample(self, ec):
        params, initial, *_, weights = draw_scenario(ec, np.random.default_rng(self.state["seed"]))
        return params, initial, weights

    def op(self, ec, draws):
        return [(draw, *_simulate(ec, draw)) for draw in draws]

    def check(self, results) -> Outcome:
        ok, worst_floor, worst_drift = True, 0.0, 0.0
        for (_, initial, _, _, schedule, _), traj, cost in results:
            n0 = initial.S + initial.E + initial.A + initial.I + initial.R + sum(initial.V)
            floor = float(traj.states_post.min())
            ok = ok and floor >= -1e-9 * n0 and math.isfinite(cost)
            worst_floor = min(worst_floor, floor / max(n0, 1.0))
            if schedule is None and n0 > 0:
                sink = traj.states_post.sum(axis=1)  # living population plus deceased
                drift = float(np.max(np.abs(sink - n0)) / n0)
                ok = ok and drift < 1e-6
                worst_drift = max(worst_drift, drift)
        return Outcome(
            ok, 0.0, f"{len(results)} draws: min {worst_floor:.2e}*N0, drift {worst_drift:.2e}"
        )

    def final_check(self, ec) -> Outcome:
        rng = np.random.default_rng(ENSEMBLE_CHECK_SEED)
        trajs = [_simulate(ec, draw_scenario(ec, rng))[0] for _ in range(ENSEMBLE_CHECK_DRAWS)]
        checksum = _final_state_checksum(trajs)
        err = rel_err(checksum, ENSEMBLE_CHECKSUM)
        return Outcome(err <= CHECKSUM_RTOL, err, f"seed-{ENSEMBLE_CHECK_SEED} checksum {checksum!r}")


KINDS = {"optimize": Optimize, "free_tau": FreeTau, "oracle": Oracle, "ensemble": Ensemble}
NAMES = tuple(KINDS)


def prepare(name: str, root: str, out_root: str, seed: int) -> Workload:
    """Create the workload's output directory and generated inputs."""
    out_dir = os.path.join(out_root, name)
    os.makedirs(out_dir, exist_ok=True)
    config_path = os.path.join(root, "configs", "covid19.json")
    if name == "free_tau":
        with open(os.path.join(root, "configs", "covid19_impulsive.json"), encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["grid"]["h"] = 0.05
        config_path = os.path.join(out_dir, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh, indent=2, sort_keys=True)
    workload = KINDS[name](name, config_path, os.path.join(out_dir, "run"))
    workload.state.update(seed=seed, rng=np.random.default_rng(seed))
    return workload
