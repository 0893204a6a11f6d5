import dataclasses
import functools
import itertools
import logging
import re
import shutil

import numpy as np
import pytest

import epictrl as ec
from epictrl import native, oracle
from epictrl.control import _running_cost_arrays
from epictrl.model import D, _NEGATIVE_TOL, A, E, I, S, V0, _kernels, _too_coarse


class TestOracleConfig:
    def test_guard_against_explosion(self):
        with pytest.raises(ec.ExplosionGuardError):
            ec.OracleConfig(horizon=5.0, segments=9, u_levels=10, v_levels=10)

    def test_candidate_count(self):
        cfg = ec.OracleConfig(horizon=5.0, segments=5, u_levels=3, v_levels=3)
        assert cfg.candidates == 3**5 * 3**5

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            ec.OracleConfig(horizon=0.0)
        with pytest.raises(ValueError):
            ec.OracleConfig(horizon=5.0, segments=0)
        with pytest.raises(ValueError):
            ec.OracleConfig(horizon=5.0, u_levels=1)

    @pytest.mark.parametrize(
        "field, value, line",
        [
            ("h", float("nan"), "h: not finite"),
            ("horizon", float("nan"), "horizon: not finite"),
            ("h", float("inf"), "h: not finite"),
            ("segments", 2.5, "segments: expected an integer >= 1"),
            ("u_levels", True, "u_levels: expected an integer >= 2"),
            ("v_levels", 3.0, "v_levels: expected an integer >= 2"),
        ],
    )
    def test_malformed_sizes_name_their_field(self, field, value, line):
        # once a float conversion error, a numpy IndexError or a running-cost RangeError
        with pytest.raises(ValueError, match=f"^OracleConfig: {line}$"):
            ec.OracleConfig(**{"horizon": 5.0, field: value})


def _params(n: int, delta_n_to_exposed: bool) -> ec.ModelParams:
    gamma = (1.0, 0.7, 0.4, 0.2)[:n]
    delta = (0.01, 0.005, 0.002, 0.001)[:n]
    return ec.ModelParams(
        beta=2e-4, epsilon=0.1, q=0.4, mu=0.8, k=0.5, z=0.3, p=0.2, eta=0.25,
        alpha=0.9, f=0.3, gamma=gamma, delta=delta, delta_n_to_exposed=delta_n_to_exposed,
    )


_THREE_DOSES = (
    _params(3, True),
    ec.StateVector(6000.0, 800.0, 400.0, 300.0, 100.0, 0.0, (500.0, 300.0, 200.0)),
    ec.CostWeights(sigma=(50.0, 50.0, 50.0)),
)


def _bitwise_equal(a, b) -> bool:
    """Equal shapes and bytes: unlike ``np.array_equal``, tells -0.0 from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a, b) and a.tobytes() == b.tobytes()


class TestSharedBatchPath:
    """The oracle's compartment-major batch runs the sweep's own float code."""

    @pytest.mark.parametrize("delta_n_to_exposed", [False, True])
    @pytest.mark.parametrize("n", [2, 3])
    def test_batch_columns_bitwise_equal_to_float_runs(self, n, delta_n_to_exposed, rng):
        params = _params(n, delta_n_to_exposed)
        m = 40
        y = rng.uniform(0.0, 5000.0, size=(n + 6, m))
        v = rng.uniform(0.0, params.v_max, size=m)
        u = rng.uniform(0.0, 1.0, size=m)
        field, rk4 = _kernels(params)
        deriv = np.array(field(list(y), (v, u)))
        step = np.array(rk4(list(y[rk4.rows]), 0.05, (v, u)))
        for j in range(m):
            col, point = y[:, j].tolist(), (float(v[j]), float(u[j]))
            assert _bitwise_equal(deriv[:, j], field(col, point))
            assert _bitwise_equal(step[:, j], rk4(y[rk4.rows, j].tolist(), 0.05, point))


# The oracle's marcher before it shared the sweep's RK4 step, verbatim: its own
# vector field on an (M, n+6) batch and its own inline RK4.
def _ref_batch_deriv(y: np.ndarray, v: np.ndarray, u: np.ndarray, pr: ec.ModelParams) -> np.ndarray:
    g, d = pr.gamma, pr.delta
    n = len(g)
    s, e, a, i = y[:, S], y[:, E], y[:, A], y[:, I]
    force = pr.epsilon * e + (1.0 - pr.q) * i + pr.mu * a
    infect = pr.beta * force * s
    leak = y[:, V0 : V0 + n - 1] @ np.asarray(d[: n - 1])
    if pr.delta_n_to_exposed:
        leak = leak + d[n - 1] * y[:, V0 + n - 1]
    out = np.empty_like(y)
    out[:, S] = -infect - g[0] * v * s
    out[:, E] = infect - pr.k * e + leak
    out[:, A] = (1.0 - pr.z) * pr.k * e - pr.eta * a
    out[:, I] = pr.z * pr.k * e + (1.0 - pr.p) * pr.eta * a - (pr.f + u) * i
    out[:, 4] = (pr.alpha * pr.f + u) * i + pr.p * pr.eta * a
    out[:, 5] = (1.0 - pr.alpha) * pr.f * i
    out[:, V0] = g[0] * v * s - (g[1] * v + d[0]) * y[:, V0]
    for j in range(1, n - 1):
        out[:, V0 + j] = g[j] * v * y[:, V0 + j - 1] - (g[j + 1] * v + d[j]) * y[:, V0 + j]
    out[:, V0 + n - 1] = g[n - 1] * v * y[:, V0 + n - 2]
    if pr.delta_n_to_exposed:
        out[:, V0 + n - 1] -= d[n - 1] * y[:, V0 + n - 1]
    return out


def _ref_running_cost_arrays(states, u, v, weights, params):
    w1, w2, w3, w4 = weights.omega
    gain = weights.vaccination_gain(params)
    return (
        w1 * states[..., S]
        + w2 * states[..., E]
        + w3 * states[..., A]
        + w4 * states[..., I]
        + 0.5 * weights.sigma0 * u * u
        + 0.5 * gain * v * v
    )


def _ref_integrate_batch_cost(y0, u_seg, v_seg, params, weights, config):
    m = u_seg.shape[0]
    seg_len = config.horizon / config.segments
    steps = max(1, int(round(seg_len / config.h)))
    h = seg_len / steps
    y = np.tile(y0, (m, 1))
    cost = np.zeros(m)
    for seg in range(config.segments):
        u = u_seg[:, seg]
        v = v_seg[:, seg]
        for _ in range(steps):
            g_left = _ref_running_cost_arrays(y, u, v, weights, params)
            k1 = _ref_batch_deriv(y, v, u, params)
            k2 = _ref_batch_deriv(y + (0.5 * h) * k1, v, u, params)
            k3 = _ref_batch_deriv(y + (0.5 * h) * k2, v, u, params)
            k4 = _ref_batch_deriv(y + h * k3, v, u, params)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            np.maximum(y, 0.0, out=y)
            cost += (0.5 * h) * (g_left + _ref_running_cost_arrays(y, u, v, weights, params))
    return cost + weights.terminal.value(config.horizon)


# The oracle's marcher before it shared control prefixes, verbatim: every
# candidate marched in lockstep through every segment.
def _integrate_batch_cost(y0, u_seg, v_seg, params, weights, config):
    """Cost of every candidate, marching all of them in lockstep with the
    generated RK4 step on one row of M candidates per compartment.

    As in ``integrate_forward``, a step that leaves a compartment below the
    negative tolerance raises StabilityError; smaller negatives are roundoff
    and are clamped to zero.
    """
    m = u_seg.shape[0]
    seg_len = config.horizon / config.segments
    steps = max(1, int(round(seg_len / config.h)))
    h = seg_len / steps
    tol = _NEGATIVE_TOL * float(y0.sum() - y0[D])
    _, step = _kernels(params)
    y = list(np.tile(y0[step.rows, None], (1, m)))  # the compartments the step marches
    cost = np.zeros(m)
    for seg in range(config.segments):
        u = u_seg[:, seg]
        v = v_seg[:, seg]
        for k in range(steps):
            g_left = _running_cost_arrays(y, u, v, weights, params)
            y = step(y, h, (v, u))
            for x in y:
                lowest = x.min()
                if lowest < 0.0:
                    if lowest < -tol:
                        raise _too_coarse(lowest, (seg * steps + k + 1) * h)
                    np.maximum(x, 0.0, out=x)
            cost += (0.5 * h) * (g_left + _running_cost_arrays(y, u, v, weights, params))
    return cost + weights.terminal.value(config.horizon)


def _flat_candidates(params, config):
    """Every candidate's per-segment u and v levels in the flat marcher's order:
    index U * n_v + V over the u and v level sequences, first segment most significant."""
    u_choices = np.linspace(0.0, 1.0, config.u_levels)
    v_choices = np.linspace(0.0, params.v_max, config.v_levels)
    u_combos = np.array(list(itertools.product(u_choices, repeat=config.segments)))
    v_combos = np.array(list(itertools.product(v_choices, repeat=config.segments)))
    idx = np.arange(len(u_combos) * len(v_combos))
    return u_combos[idx // len(v_combos)], v_combos[idx % len(v_combos)]


def _tree_costs(initial, params, weights, config):
    """Every candidate's cost from the prefix-tree march, placed at its flat candidate number."""
    u_choices = np.linspace(0.0, 1.0, config.u_levels)
    v_choices = np.linspace(0.0, params.v_max, config.v_levels)
    costs = np.full(config.candidates, np.nan)
    seen = np.zeros(config.candidates, dtype=int)
    # an incumbent of +inf drops nothing, so every candidate is marched
    leaves = oracle._leaf_costs(
        initial.as_array(), u_choices, v_choices, params, weights, config, lambda _: np.inf
    )
    for index, chunk in leaves:
        assert len(chunk) <= oracle._CHUNK
        costs[index] = chunk
        np.add.at(seen, index, 1)
    assert np.all(seen == 1)
    return costs


class TestOracleSeedEquivalence:
    """Per-candidate costs against the oracle's former private marcher.

    Not bitwise: the former vector field factored (f + u)*I and
    (gamma2*v + delta1)*V1, and summed the dose leak with a matrix product.
    """

    def _assert_costs_match(self, params, initial, weights):
        cfg = ec.OracleConfig(horizon=3.0, segments=2, u_levels=3, v_levels=3, h=0.05)
        u_seg, v_seg = _flat_candidates(params, cfg)
        got = _tree_costs(initial, params, weights, cfg)
        ref = _ref_integrate_batch_cost(initial.as_array(), u_seg, v_seg, params, weights, cfg)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
        best_j, _ = ec.brute_force_optimum(initial, params, weights, cfg)
        assert best_j == pytest.approx(ref.min(), rel=1e-12)

    def test_covid19(self, covid19, default_weights):
        params, initial = covid19
        self._assert_costs_match(params, initial, default_weights)

    def test_three_doses_with_breakthrough_to_exposed(self):
        self._assert_costs_match(*_THREE_DOSES)


def _piecewise_signal(u_seg, v_seg, horizon, grid, v_max=1.0):
    """Sample per-segment constant levels onto a dense grid.

    Linear interpolation of the samples reproduces the steps exactly except
    for a one-cell ramp at each segment boundary.
    """
    times = grid.times
    seg_len = horizon / len(u_seg)
    idx = np.minimum((times / seg_len).astype(int), len(u_seg) - 1)
    return ec.ControlSignal(times, np.asarray(v_seg)[idx], np.asarray(u_seg)[idx], v_max)


@pytest.mark.usefixtures("segment_path")
class TestPrefixTreeMatchesFlatMarch:
    """Every candidate's cost from the prefix-tree march equals the flat lockstep
    marcher's bitwise, and the reported optimum is the flat marcher's first argmin,
    with either segment path."""

    @pytest.mark.parametrize(
        "shape, chunk",
        [
            (dict(horizon=1.0, segments=5, u_levels=3, v_levels=3, h=0.05), None),
            (dict(horizon=3.0, segments=2, u_levels=5, v_levels=5, h=0.05), None),
            (dict(horizon=3.0, segments=3, u_levels=2, v_levels=4, h=0.05), None),
            (dict(horizon=1.8, segments=6, u_levels=2, v_levels=3, h=0.1), None),
            (dict(horizon=3.0, segments=3, u_levels=3, v_levels=3, h=0.05, doses=3), None),
            # 8 then 64 children: the parents split before the last segment
            (dict(horizon=3.0, segments=3, u_levels=2, v_levels=4, h=0.05), 20),
        ],
        ids=["c04-short", "2seg-5x5", "3seg-2x4", "6seg-2x3-h0.1", "3doses-to-exposed", "chunk20"],
    )
    def test_costs_bitwise_and_first_argmin(self, shape, chunk, covid19, default_weights, monkeypatch):
        shape = dict(shape)
        if shape.pop("doses", 2) == 3:
            params, initial, weights = _THREE_DOSES
        else:
            (params, initial), weights = covid19, default_weights
        if chunk is not None:
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
        cfg = ec.OracleConfig(**shape)
        u_seg, v_seg = _flat_candidates(params, cfg)
        ref = _integrate_batch_cost(initial.as_array(), u_seg, v_seg, params, weights, cfg)
        assert _bitwise_equal(_tree_costs(initial, params, weights, cfg), ref)
        k = int(np.argmin(ref))
        best_j, (u_best, v_best) = ec.brute_force_optimum(initial, params, weights, cfg)
        assert _bitwise_equal(best_j, ref[k])
        assert _bitwise_equal(u_best, u_seg[k]) and _bitwise_equal(v_best, v_seg[k])

    @pytest.mark.parametrize(
        "ties, split, v_levels",
        [([4, 2], None, (1.0, 0.0)), ([4, 2], 3, (1.0, 0.0)), ([1, 2], 3, (0.0, 1.0))],
        ids=["one-chunk", "later-chunk-wins", "earlier-chunk-wins"],
    )
    def test_tie_goes_to_the_first_candidate_in_flat_order(
        self, ties, split, v_levels, covid19, default_weights, monkeypatch
    ):
        # 2 segments of 2 x 2 levels, so u stays 0 on every tied candidate: flat index 1 has
        # v levels (0,1), 2 has (1,0) and 4 has u levels (0,1).  The chunks come in the
        # prefix tree's order, so flat indices 4 and 5 come before 2 and 3.
        params, initial = covid19
        cfg = ec.OracleConfig(horizon=2.0, segments=2, u_levels=2, v_levels=2)
        costs = np.full(16, 5.0)
        costs[ties] = 1.0
        order = np.array([0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15])
        parts = [order] if split is None else [order[:split], order[split:]]
        chunks = [(index, costs[index]) for index in parts]
        monkeypatch.setattr(oracle, "_leaf_costs", lambda *args: iter(chunks))
        best_j, (u_best, v_best) = ec.brute_force_optimum(initial, params, default_weights, cfg)
        assert best_j == 1.0
        assert list(u_best) == [0.0, 0.0]
        assert list(v_best) == [level * params.v_max for level in v_levels]


def _search_record(caplog) -> tuple:
    """(rows marched, rows in the tree, row-steps marched, row-steps in the tree, starting
    incumbent, cost-to-go bound state) of the one prefix-tree record among the captured logs."""
    (record,) = [r for r in caplog.records if "prefix-tree rows" in r.getMessage()]
    assert record.levelno == logging.DEBUG
    line = (
        "oracle: marched %d of %d prefix-tree rows, %d of %d row-steps; "
        "incumbent %.17g at the start; cost-to-go bound %s"
    )
    assert record.getMessage() == line % record.args
    return record.args


def _marched_rows(caplog) -> tuple[int, int, int, int]:
    """The four counts of the one prefix-tree record among the captured logs."""
    return _search_record(caplog)[:4]


@pytest.mark.usefixtures("segment_path")
class TestBranchAndBound:
    """The search skips subtrees proved costlier than its best leaf, and still returns the
    exhaustive search's optimum bitwise, the kept ties and C04's counts with either segment path."""

    @pytest.mark.parametrize("ties", [False, True], ids=["plain", "forced-ties"])
    def test_matches_the_exhaustive_argmin_on_random_searches(self, ties, monkeypatch, caplog):
        rng = np.random.default_rng(20240817 + ties)
        marched = total = mid_segment = 0
        combos = itertools.product((2, 3), (False, True), ("linear", "quadratic", "exponential"))
        for n, to_exposed, kind in combos:
            params = _params(n, to_exposed)
            if ties:
                # no susceptibles or vaccinees and no dose gains: v moves nobody and costs
                # nothing, so candidates that differ only in v levels cost the same bitwise
                initial = ec.StateVector(0.0, 800.0, 400.0, 300.0, 100.0, 0.0, (0.0,) * n)
                sigma = (0.0,) * n
            else:
                initial = ec.StateVector(6000.0, 800.0, 400.0, 300.0, 100.0, 0.0, (200.0,) * n)
                sigma = tuple(rng.uniform(1.0, 100.0, n))
            omega = rng.uniform(0.0, 2.0, 4) * (rng.random(4) < 0.6)  # some entries zero
            terminal = ec.TerminalCost(kind, float(rng.uniform(0.0, 50.0)), float(rng.uniform(0.1, 1.0)))
            weights = ec.CostWeights(tuple(omega), float(rng.uniform(1.0, 100.0)), sigma, terminal)
            cfg = ec.OracleConfig(
                horizon=float(rng.uniform(0.5, 1.5)), segments=int(rng.integers(2, 4)),
                u_levels=int(rng.integers(2, 4)), v_levels=int(rng.integers(2, 4)), h=0.1,
            )
            # small chunks split every level, so that some chunks are dropped whole
            monkeypatch.setattr(oracle, "_CHUNK", int(rng.integers(3, 30)))
            ref = _tree_costs(initial, params, weights, cfg)
            k = int(np.argmin(ref))
            if ties:
                assert np.count_nonzero(ref == ref[k]) >= cfg.v_levels**cfg.segments
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="epictrl"):
                best_j, (u_best, v_best) = ec.brute_force_optimum(initial, params, weights, cfg)
            u_seg, v_seg = _flat_candidates(params, cfg)
            assert _bitwise_equal(best_j, ref[k])
            assert _bitwise_equal(u_best, u_seg[k]) and _bitwise_equal(v_best, v_seg[k])
            rows, of, row_steps, steps_of = _marched_rows(caplog)
            marched, total = marched + rows, total + of
            # a row dropped inside a segment marches fewer than that segment's steps
            mid_segment += row_steps < rows * (steps_of // of)
        assert marched < total  # the draws do prune
        assert mid_segment >= 1

    def test_ties_with_the_incumbent_are_kept(self, covid19, default_weights, caplog):
        # with zero state weights and dose gains a candidate costs its u effort plus the
        # terminal cost, so every all-zero-u candidate costs exactly the terminal cost, as
        # does each of its partial costs plus the terminal cost: an incumbent equal to it
        # drops none of them, at a chunk or after a step, but drops every row at u = 1
        # after its first step, and yields none of their leaves
        params, initial = covid19
        terminal = ec.TerminalCost("linear", 3.0)
        weights = ec.CostWeights((0.0,) * 4, 50.0, (0.0, 0.0), terminal)
        cfg = ec.OracleConfig(horizon=2.0, segments=2, u_levels=2, v_levels=3)
        u_choices, v_choices = np.linspace(0.0, 1.0, 2), np.linspace(0.0, params.v_max, 3)
        y0, j = initial.as_array(), terminal.value(2.0)
        with caplog.at_level(logging.DEBUG, logger="epictrl"):
            leaves = list(oracle._leaf_costs(y0, u_choices, v_choices, params, weights, cfg, lambda _: j))
        index = np.concatenate([index for index, _ in leaves])
        costs = np.concatenate([chunk for _, chunk in leaves])
        # the all-zero-u candidates are the first 3**2 in flat order
        assert sorted(index) == list(range(9))
        assert np.all(costs == j)
        # 20 steps a segment: 6 rows, of which 3 at u = 1 step once, then the 18 children of
        # the other 3, of which 9 at u = 1 step once
        assert _marched_rows(caplog) == (6 + 18, 6 + 36, 3 * 20 + 3 + 9 * 20 + 9, (6 + 36) * 20)

    def test_c04_marches_at_most_5_percent_of_the_tree(
        self, covid19, default_weights, caplog, monkeypatch
    ):
        params, initial = covid19
        cfg = ec.OracleConfig(horizon=5.0, segments=5, u_levels=3, v_levels=3)
        yielded = []
        leaf_costs = oracle._leaf_costs

        def recorded(*args):
            for index, costs in leaf_costs(*args):
                yielded.append((index, costs))
                yield index, costs

        monkeypatch.setattr(oracle, "_leaf_costs", recorded)
        with caplog.at_level(logging.DEBUG, logger="epictrl"):
            best_j, (u_best, v_best) = ec.brute_force_optimum(initial, params, default_weights, cfg)
        marched, total, row_steps, steps_total, start, state = _search_record(caplog)
        assert total == sum(9**s for s in range(1, 6)) == 66_429
        # under the search's own incumbent only marched leaves are yielded: finite costs at
        # distinct flat candidate numbers
        index = np.concatenate([index for index, _ in yielded])
        assert np.all(np.isfinite(np.concatenate([costs for _, costs in yielded])))
        assert len(np.unique(index)) == len(index) and 0 <= index.min() <= index.max() < cfg.candidates
        # 1,485 rows and 13,287 row-steps with the cost-to-go bound and the starting incumbent;
        # 21,222 and 269,371 with neither
        assert marched <= 0.05 * total
        assert steps_total == 20 * total and row_steps <= 0.02 * steps_total
        assert state == "on"
        # the search starts from the cheapest constant candidate's leaf cost times 1 + _MARGIN
        # (TestSeedFromItsOwnMarch checks that bitwise against the exhaustive tree)
        assert start == 20866.575090999821 > best_j
        assert best_j == 20794.074592123383
        assert list(u_best) == [1.0] * 5
        assert list(v_best) == [level * params.v_max for level in (1.0, 1.0, 1.0, 0.5, 0.0)]


def _flat_history(y0, u_seg, v_seg, params, weights, config):
    """Steps per segment, their length, and every candidate's cost so far and marched rows at
    the start and after each step of the flat lockstep march (``_integrate_batch_cost``)."""
    steps, h = oracle._segment_steps(config)
    _, step = _kernels(params)
    y = list(np.tile(y0[step.rows, None], (1, u_seg.shape[0])))
    history = [(np.zeros(u_seg.shape[0]), y)]
    for seg in range(config.segments):
        u, v = u_seg[:, seg], v_seg[:, seg]
        for _ in range(steps):
            g_left = _running_cost_arrays(y, u, v, weights, params)
            y = [np.maximum(x, 0.0) for x in step(y, h, (v, u))]
            g_right = _running_cost_arrays(y, u, v, weights, params)
            history.append((history[-1][0] + (0.5 * h) * (g_left + g_right), y))
    return steps, h, history


def _exit_rates(params, initial) -> dict:
    """Each marched compartment's exit-rate bound, by name, for u <= 1 and v <= v_max."""
    g, d, n0 = params.gamma, params.delta, ec.total_population(initial)
    force = params.beta * max(params.epsilon, 1.0 - params.q, params.mu) * n0
    rates = {"S": force + g[0] * params.v_max, "E": params.k, "A": params.eta, "I": params.f + 1.0}
    rates |= {f"V{j + 1}": g[j + 1] * params.v_max + d[j] for j in range(params.n - 1)}
    if params.delta_n_to_exposed:
        rates[f"V{params.n}"] = d[-1]
    return rates


class TestCostToGoBound:
    """The cost-to-go bound never exceeds what a row must still pay, so the search with it
    keeps the exhaustive optimum; where a step is too long for its proof, it is off."""

    def test_admissible_on_small_trees_and_off_for_long_steps(self, caplog):
        rng = np.random.default_rng(20261019)
        seen = {"on": 0, "off": 0}
        for n, to_exposed, empty in itertools.product((2, 3, 4), (False, True), (False, True)):
            params = _params(n, to_exposed)
            # with no susceptibles or vaccinees nothing enters E, which decays at exactly its
            # exit-rate bound, so the bound is tight on E when u and v cost nothing
            s0, v0 = (0.0, 0.0) if empty else (6000.0, 200.0)
            initial = ec.StateVector(s0, 800.0, 400.0, 300.0, 100.0, 0.0, (v0,) * n)
            omega = rng.uniform(0.0, 2.0, 4) * (rng.random(4) < 0.6)  # some entries zero
            terminal = ec.TerminalCost("linear", float(rng.uniform(0.0, 50.0)))
            sigma = tuple(rng.uniform(0.0, 100.0, n))
            weights = ec.CostWeights(tuple(omega), float(rng.uniform(1.0, 100.0)), sigma, terminal)
            # h = 0.1 keeps every h * exit-rate bound under 0.375; h = 0.3 does not
            cfg = ec.OracleConfig(
                horizon=float(rng.uniform(0.9, 1.5)), segments=int(rng.integers(2, 4)),
                u_levels=int(rng.integers(2, 4)), v_levels=int(rng.integers(2, 4)),
                h=float(rng.choice([0.1, 0.3])),
            )
            y0 = initial.as_array()
            u_seg, v_seg = _flat_candidates(params, cfg)
            leaf = _tree_costs(initial, params, weights, cfg)
            steps, h, history = _flat_history(y0, u_seg, v_seg, params, weights, cfg)
            total = cfg.segments * steps
            lb, state = oracle._cost_to_go(y0, params, weights, h, total, _kernels(params)[1].rows)
            rates = _exit_rates(params, initial)
            worst = max(rates, key=rates.get)
            if h * rates[worst] > 0.375:
                assert lb == {} and re.fullmatch(rf"off: h\*\S+ > 0\.375 for {worst}", state)
            elif not omega[1:].any():
                assert lb == {} and state == "off: no weight on E, A or I"
            else:
                assert sorted(lb) == [c for c in (E, A, I) if omega[c] > 0.0] and state == "on"
            seen[state[:3].strip(":")] += 1
            # at every node, the cost so far plus the terminal cost and the bound on the steps
            # left is at most the cost of the cheapest leaf under it
            u_index, v_index = np.divmod(np.arange(cfg.candidates), cfg.v_levels**cfg.segments)
            for taken, (cost, y) in enumerate(history):
                depth = 0 if taken == 0 else (taken - 1) // steps + 1
                key = u_index // cfg.u_levels ** (cfg.segments - depth) * cfg.v_levels**depth
                key += v_index // cfg.v_levels ** (cfg.segments - depth)
                cheapest = np.full(key.max() + 1, np.inf)
                np.minimum.at(cheapest, key, leaf)
                bound = cost + terminal.value(cfg.horizon)
                for c, lb_c in lb.items():
                    bound = bound + lb_c[total - taken] * y[c]
                assert np.all(bound <= cheapest[key])
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="epictrl"):
                best_j, (u_best, v_best) = ec.brute_force_optimum(initial, params, weights, cfg)
            k = int(np.argmin(leaf))
            assert _bitwise_equal(best_j, leaf[k])
            assert _bitwise_equal(u_best, u_seg[k]) and _bitwise_equal(v_best, v_seg[k])
            start, logged = _search_record(caplog)[4:]
            assert logged == state and start >= best_j
        assert seen["on"] >= 3 and seen["off"] >= 3


class TestRatesBoundPerModel:
    """Models with the same dose count and breakthrough flag share one compiled step,
    but each oracle search binds the rates of its own model (the sweep passes:
    ``test_integrator.TestSeedEquivalence::test_rates_bound_per_model``)."""

    def test_alternating_models_match_their_references(self):
        params, initial, weights = _THREE_DOSES
        other = dataclasses.replace(params, beta=3e-4, k=0.35, f=0.2, delta=(0.02, 0.01, 0.0))
        models = (params, other)
        cfg = ec.OracleConfig(horizon=1.0, segments=2, u_levels=2, v_levels=2, h=0.05)
        y0 = initial.as_array()
        for _ in range(2):
            for params in models:
                u_seg, v_seg = _flat_candidates(params, cfg)
                flat = _integrate_batch_cost(y0, u_seg, v_seg, params, weights, cfg)
                assert _bitwise_equal(_tree_costs(initial, params, weights, cfg), flat)
                # the flat march shares the generated step; this reference does not
                ref = _ref_integrate_batch_cost(y0, u_seg, v_seg, params, weights, cfg)
                np.testing.assert_allclose(flat, ref, rtol=1e-12, atol=0.0)


class TestBruteForceOptimum:
    def test_zero_objective_prefers_zero_controls(self, covid19):
        params, initial = covid19
        w = ec.CostWeights(omega=(0, 0, 0, 0), terminal=ec.TerminalCost("quadratic", 0.0))
        cfg = ec.OracleConfig(horizon=2.0, segments=2, u_levels=2, v_levels=2)
        best_j, (u_seg, v_seg) = ec.brute_force_optimum(initial, params, w, cfg)
        assert best_j == 0.0
        assert np.all(u_seg == 0.0)
        assert np.all(v_seg == 0.0)

    def test_single_segment_bang_bang_enumeration(self, covid19, default_weights):
        # four candidates; the reported minimum must match re-integrating each
        # candidate with the production marcher on the oracle's grid
        params, initial = covid19
        cfg = ec.OracleConfig(horizon=2.0, segments=1, u_levels=2, v_levels=2, h=0.01)
        best_j, _ = ec.brute_force_optimum(initial, params, default_weights, cfg)
        grid = ec.TimeGrid(2.0, 0.01)
        costs = []
        for u_level in (0.0, 1.0):
            for v_level in (0.0, params.v_max):
                controls = ec.ControlSignal.constant(grid.times, v_level, u_level, params.v_max)
                traj = ec.integrate_forward(initial, controls, params, grid)
                costs.append(ec.total_cost(traj, controls, default_weights, params))
        assert best_j == pytest.approx(min(costs), rel=1e-6)

    def test_sweep_dominates_coarse_oracle(self, covid19, default_weights):
        params, initial = covid19
        cfg = ec.OracleConfig(horizon=2.0, segments=1, u_levels=2, v_levels=2)
        best_j, _ = ec.brute_force_optimum(initial, params, default_weights, cfg)
        grid = ec.TimeGrid(2.0, 0.01)
        sol = ec.fbsm_solve(initial, params, default_weights, grid)
        assert sol.cost <= 1.05 * best_j

    def test_refining_levels_never_hurts(self, covid19, default_weights):
        # {0, .5, 1} is a subset of {0, .25, .5, .75, 1}
        params, initial = covid19
        coarse = ec.OracleConfig(horizon=2.0, segments=2, u_levels=3, v_levels=3)
        fine = ec.OracleConfig(horizon=2.0, segments=2, u_levels=5, v_levels=5)
        j_coarse, _ = ec.brute_force_optimum(initial, params, default_weights, coarse)
        j_fine, _ = ec.brute_force_optimum(initial, params, default_weights, fine)
        assert j_fine <= j_coarse + 1e-9

    def test_refining_segments_never_hurts(self, covid19, default_weights):
        # every 1-segment candidate is also a 2-segment candidate
        params, initial = covid19
        one = ec.OracleConfig(horizon=2.0, segments=1, u_levels=3, v_levels=3)
        two = ec.OracleConfig(horizon=2.0, segments=2, u_levels=3, v_levels=3)
        j_one, _ = ec.brute_force_optimum(initial, params, default_weights, one)
        j_two, _ = ec.brute_force_optimum(initial, params, default_weights, two)
        assert j_two <= j_one + 1e-9

    def test_unbounded_running_cost_is_a_range_error(self, covid19):
        # as in fbsm_solve: the search refuses weights whose running cost overflows,
        # instead of returning (inf, None) after numpy overflow warnings
        params, initial = covid19
        weights = ec.CostWeights(omega=(1e306, 1.0, 1.0, 1.0))
        cfg = ec.OracleConfig(horizon=5.0, segments=2, u_levels=2, v_levels=2)
        with pytest.raises(ec.RangeError, match="running-cost bound over tau = 5 is not finite"):
            ec.brute_force_optimum(initial, params, weights, cfg)
        with pytest.raises(ec.RangeError, match="running-cost bound over tau = 5 is not finite"):
            ec.fbsm_solve(initial, params, weights, ec.TimeGrid(5.0, 0.05))

    def test_overflowing_terminal_cost_is_a_range_error(self, covid19, monkeypatch):
        # exp(200 * 5) overflows: the search refuses it before it marches anything,
        # instead of raising math's OverflowError
        params, initial = covid19
        weights = ec.CostWeights(terminal=ec.TerminalCost("exponential", 1.0, 200.0))
        cfg = ec.OracleConfig(horizon=5.0, segments=2, u_levels=2, v_levels=2)
        monkeypatch.setattr(oracle, "_leaf_costs", None)
        line = r"^weights\.terminal\.rate: rate\*tau = 1000 overflows exp \(limit 709\.783\)$"
        with pytest.raises(ec.RangeError, match=line):
            ec.brute_force_optimum(initial, params, weights, cfg)

    def test_coarse_step_raises_like_the_forward_pass(self, covid19, default_weights):
        # one 2-day step at full vaccination drives S far below zero: the
        # oracle refuses it, as integrate_forward does, instead of clamping
        params, initial = covid19
        cfg = ec.OracleConfig(horizon=4.0, segments=2, h=2.0)
        with pytest.raises(ec.StabilityError, match="at t=2; reduce h"):
            ec.brute_force_optimum(initial, params, default_weights, cfg)
        grid = ec.TimeGrid(4.0, 2.0)
        controls = ec.ControlSignal.constant(grid.times, params.v_max, 1.0, params.v_max)
        with pytest.raises(ec.StabilityError, match="at t=2; reduce h"):
            ec.integrate_forward(initial, controls, params, grid)

    def test_roundoff_negatives_clamped_like_the_forward_pass(self, covid19, default_weights):
        # a huge inert recovered pool widens the negative tolerance, so the
        # coarse step's overshoot of E below zero is clamped, not fatal; every
        # candidate's cost matches the forward pass, which clamps the same way
        params, _ = covid19
        fast = ec.ModelParams(**{**params.__dict__, "beta": 0.02})
        initial = ec.StateVector(50.0, 100.0, 100.0, 400.0, 1e12, 0.0, (0.0, 0.0))
        cfg = ec.OracleConfig(horizon=10.0, segments=1, u_levels=2, v_levels=2, h=0.5)
        # one segment of 2 x 2 levels: the flat order is the product order
        levels = list(itertools.product((0.0, 1.0), (0.0, 0.5 * fast.v_max)))
        leaves = oracle._leaf_costs(
            initial.as_array(), np.array([0.0, 1.0]), np.array([0.0, 0.5 * fast.v_max]),
            fast, default_weights, cfg, lambda _: np.inf,
        )
        costs = np.full(4, np.nan)
        for index, chunk in leaves:
            costs[index] = chunk
        grid = ec.TimeGrid(10.0, 0.5)
        clamped = False
        for (u, v), cost in zip(levels, costs):
            controls = ec.ControlSignal.constant(grid.times, v, u, fast.v_max)
            traj = ec.integrate_forward(initial, controls, fast, grid)
            e = traj.states_pre[:, E]
            clamped |= bool(np.any((e[:-1] > 0.0) & (e[1:] == 0.0)))
            expected = ec.total_cost(traj, controls, default_weights, fast)
            assert cost == pytest.approx(expected, rel=1e-12)
        assert clamped

    def test_piecewise_signal_reproduces_segment_levels(self, covid19):
        params, _ = covid19
        grid = ec.TimeGrid(4.0, 0.01)
        sig = _piecewise_signal(
            np.array([0.0, 1.0]), np.array([1.0, 0.0]), 4.0, grid, params.v_max
        )
        v, u = sig.at(0.5)
        assert (v, u) == (1.0, 0.0)
        v, u = sig.at(3.5)
        assert (v, u) == (0.0, 1.0)


class TestFiniteDifferenceGradient:
    def test_zero_state_weights_leave_only_effort_gradient(self, covid19):
        # with omega=0 the costates vanish, so the cost gradient reduces to
        # the control-effort term sigma0*u*h at an interior cell, and is 0
        # everywhere once the controls are 0 (checked via the costate route,
        # which needs no box-leaving perturbation)
        params, initial = covid19
        w = ec.CostWeights(omega=(0, 0, 0, 0), terminal=ec.TerminalCost("quadratic", 0.0))
        grid = ec.TimeGrid(2.0, 0.01)
        controls = ec.ControlSignal.constant(grid.times, 0.5, 0.5, params.v_max)
        for cell in (10, 50, 150):
            fd = ec.finite_difference_gradient(
                initial, params, w, controls, grid, cell, 1e-3, "u"
            )
            assert fd == pytest.approx(w.sigma0 * 0.5 * grid.h, rel=1e-9)
        resting = ec.ControlSignal.constant(grid.times, 0.0, 0.0, params.v_max)
        for cell in (10, 50, 150):
            ad = ec.adjoint_gradient(initial, params, w, resting, grid, cell, "u")
            assert ad == pytest.approx(0.0, abs=1e-12)

    def test_box_violation_rejected(self, covid19, default_weights):
        params, initial = covid19
        grid = ec.TimeGrid(2.0, 0.01)
        controls = ec.ControlSignal.constant(grid.times, 0.0, 0.0, params.v_max)
        with pytest.raises(ec.BoxViolationError):
            ec.finite_difference_gradient(
                initial, params, default_weights, controls, grid, 10, 1e-3, "u"
            )

    @pytest.mark.parametrize("epsilon", [0.0, -1e-3, float("nan")])
    def test_epsilon_must_be_positive(self, covid19, default_weights, epsilon):
        # a NaN bump once passed the check and gave a NaN gradient
        params, initial = covid19
        grid = ec.TimeGrid(2.0, 0.1)
        controls = ec.ControlSignal.constant(grid.times, 0.1, 0.5, params.v_max)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            ec.finite_difference_gradient(initial, params, default_weights, controls, grid, 5, epsilon)

    def test_matches_costate_gradient(self, covid19, default_weights, rng):
        params, initial = covid19
        grid = ec.TimeGrid(5.0, 0.01)
        controls = ec.ControlSignal.constant(grid.times, 0.5, 0.5, params.v_max)
        for which in ("u", "v"):
            for cell in rng.integers(1, grid.n_steps, size=4):
                fd = ec.finite_difference_gradient(
                    initial, params, default_weights, controls, grid, int(cell), 1e-3, which
                )
                ad = ec.adjoint_gradient(
                    initial, params, default_weights, controls, grid, int(cell), which
                )
                assert fd == pytest.approx(ad, rel=1e-3)

    def test_halving_epsilon_converges_quadratically(self, covid19, default_weights):
        params, initial = covid19
        grid = ec.TimeGrid(5.0, 0.01)
        controls = ec.ControlSignal.constant(grid.times, 0.3, 0.4, params.v_max)
        cell = 200
        estimates = {
            eps: ec.finite_difference_gradient(
                initial, params, default_weights, controls, grid, cell, eps, "u"
            )
            for eps in (0.2, 0.1, 0.05)
        }
        d1 = estimates[0.2] - estimates[0.1]
        d2 = estimates[0.1] - estimates[0.05]
        assert d1 / d2 == pytest.approx(4.0, rel=0.15)


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


@pytest.mark.usefixtures("segment_path")
class TestClampAndRaiseOnBothPaths:
    """The forward pass's clamps and its StabilityError with either segment path."""

    test_coarse_step_raises_like_the_forward_pass = (
        TestBruteForceOptimum.test_coarse_step_raises_like_the_forward_pass
    )
    test_roundoff_negatives_clamped_like_the_forward_pass = (
        TestBruteForceOptimum.test_roundoff_negatives_clamped_like_the_forward_pass
    )


@pytest.mark.usefixtures("segment_path")
class TestSeedFromItsOwnMarch:
    """The search starts from its own leaf costs of the constant candidates (one level pair in
    every segment): the least of them times 1 + ``_MARGIN``, bitwise, on either segment path."""

    @pytest.mark.parametrize(
        "shape, chunk",
        [
            (dict(horizon=5.0, segments=5, u_levels=3, v_levels=3), None),
            # 8 constant candidates, in chunks of 5 and 3
            (dict(horizon=3.0, segments=3, u_levels=2, v_levels=4), 5),
        ],
        ids=["c04", "two-chunks"],
    )
    def test_starting_incumbent_is_the_least_constant_leaf(
        self, shape, chunk, covid19, default_weights, monkeypatch, caplog
    ):
        params, initial = covid19
        if chunk is not None:
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
        cfg = ec.OracleConfig(**shape)
        u_seg, v_seg = _flat_candidates(params, cfg)
        constant = np.all(u_seg == u_seg[:, :1], axis=1) & np.all(v_seg == v_seg[:, :1], axis=1)
        assert np.count_nonzero(constant) == cfg.u_levels * cfg.v_levels
        seed = _tree_costs(initial, params, default_weights, cfg)[constant].min() * (1.0 + oracle._MARGIN)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="epictrl"):
            best_j, _ = ec.brute_force_optimum(initial, params, default_weights, cfg)
        assert _bitwise_equal(_search_record(caplog)[4], seed) and seed > best_j


def _search_on(path, monkeypatch, caplog, initial, params, weights, cfg):
    """On ``path``, the search's optimum and its debug record's arguments, or its StabilityError's
    message and None, and how many segments ran in C."""
    calls = []
    with monkeypatch.context() as patch, caplog.at_level(logging.DEBUG, logger="epictrl"):
        patch.setattr(native, "_PAYBACK", 0)
        if path == "numpy":
            patch.setattr(native, "_library", lambda n, to_exposed: None)
        else:
            library = native._library(params.n, params.delta_n_to_exposed)
            kernel = library["segment"]
            patch.setitem(library, "segment", lambda *args: calls.append(1) or kernel(*args))
        caplog.clear()
        try:
            found = ec.brute_force_optimum(initial, params, weights, cfg)
        except ec.StabilityError as exc:
            return str(exc), None, len(calls)
        return found, _search_record(caplog), len(calls)


def _same_optimum(a, b) -> bool:
    (j_a, (u_a, v_a)), (j_b, (u_b, v_b)) = a, b
    return _bitwise_equal(j_a, j_b) and _bitwise_equal(u_a, u_b) and _bitwise_equal(v_a, v_b)


def _fast_clamping():
    """test_roundoff_negatives_clamped_like_the_forward_pass's model and state: coarse steps whose
    negatives are clamped, as a huge inert recovered pool widens the tolerance."""
    params, _ = ec.preset("covid19")
    fast = ec.ModelParams(**{**params.__dict__, "beta": 0.02})
    return fast, ec.StateVector(50.0, 100.0, 100.0, 400.0, 1e12, 0.0, (0.0, 0.0))


@needs_cc
class TestSegmentKernel:
    """C's ``segment`` (``native._segment``) against its numpy twin ``oracle._segment``: the same
    optimum, counts and errors, bitwise, and every buffer checked before the C call."""

    @pytest.mark.parametrize(
        "shape",
        [dict(horizon=5.0, segments=5), dict(horizon=5.0, segments=7, h=0.01)],
        ids=["c04", "same-grid-dominance"],
    )
    def test_c04_and_same_grid_searches_agree(self, shape, covid19, default_weights, monkeypatch, caplog):
        params, initial = covid19
        cfg = ec.OracleConfig(u_levels=3, v_levels=3, **shape)
        found_c, record_c, calls = _search_on("C", monkeypatch, caplog, initial, params, default_weights, cfg)
        found, record, _ = _search_on("numpy", monkeypatch, caplog, initial, params, default_weights, cfg)
        assert _same_optimum(found_c, found) and record_c == record
        assert calls == cfg.segments + 1  # one C call per chunk: the seed's, then one per tree level
        if cfg.segments == 5:
            assert found[0] == 20794.074592123383 and list(found[1][0]) == [1.0] * 5
            assert list(found[1][1]) == [level * params.v_max for level in (1.0, 1.0, 1.0, 0.5, 0.0)]
            assert record[:4] == (1485, 66_429, 13_287, 1_328_580)

    def test_random_searches_agree(self, monkeypatch, caplog):
        # TestBranchAndBound's draws, with forced ties in half, pruned mid-segment and in chunks
        rng = np.random.default_rng(20261020)
        for n, to_exposed, ties in itertools.product((2, 3), (False, True), (False, True)):
            params = _params(n, to_exposed)
            s0, v0 = (0.0, 0.0) if ties else (6000.0, 200.0)
            initial = ec.StateVector(s0, 800.0, 400.0, 300.0, 100.0, 0.0, (v0,) * n)
            omega = rng.uniform(0.0, 2.0, 4) * (rng.random(4) < 0.6)
            sigma = (0.0,) * n if ties else tuple(rng.uniform(1.0, 100.0, n))
            terminal = ec.TerminalCost("quadratic", float(rng.uniform(0.0, 50.0)))
            weights = ec.CostWeights(tuple(omega), float(rng.uniform(1.0, 100.0)), sigma, terminal)
            cfg = ec.OracleConfig(horizon=float(rng.uniform(0.5, 1.5)), segments=int(rng.integers(2, 4)),
                                  u_levels=int(rng.integers(2, 4)), v_levels=int(rng.integers(2, 4)), h=0.1)
            monkeypatch.setattr(oracle, "_CHUNK", int(rng.integers(3, 30)))
            found_c, record_c, calls = _search_on("C", monkeypatch, caplog, initial, params, weights, cfg)
            found, record, _ = _search_on("numpy", monkeypatch, caplog, initial, params, weights, cfg)
            assert _same_optimum(found_c, found) and record_c == record and calls > 0

    @pytest.mark.parametrize("h, at", [(2.0, "t=2;"), (0.8, "t=3;")])  # 0.8: two 1-day steps a segment
    def test_stability_errors_match(self, h, at, covid19, default_weights, monkeypatch, caplog):
        # a step too coarse for some candidate raises the same error, at the same step, on both
        params, initial = covid19
        cfg = ec.OracleConfig(horizon=4.0, segments=2, h=h)
        args = (initial, params, default_weights, cfg)
        (message_c, record_c, calls), (message, record, _) = (
            _search_on(path, monkeypatch, caplog, *args) for path in ("C", "numpy")
        )
        assert message_c == message and f" at {at} reduce h" in message
        assert record_c is record is None and calls >= 1

    @pytest.mark.parametrize("nan", [False, True], ids=["drops", "a-nan-row"])
    def test_kernel_bitwise_on_clamps_drops_and_nan(self, nan, rng):
        # rows that clamp roundoff negatives of E and V1, about half dropped mid-segment; a NaN
        # row makes its compartments' minima and the largest bound NaN: nothing clamps or drops
        params, initial = _fast_clamping()
        y0, (_, step) = initial.as_array(), _kernels(params)
        m, steps, h = 300, 5, 0.5
        y = np.tile(y0[step.rows], (m, 1)) * rng.uniform(0.95, 1.05, (m, len(step.rows)))
        if nan:
            y[7, S] = np.nan
        u, v = rng.choice([0.0, 1.0], m), rng.choice([0.0, 0.5 * params.v_max], m)
        c, i = rng.uniform(0.0, 9.0, m), np.arange(m) * 1.0
        lb = {E: rng.uniform(0.0, 0.01, 9), I: rng.uniform(0.0, 0.01, 9)}  # none for A
        weights = ec.CostWeights(omega=(1.0, 0.5, 0.0, 2.0), sigma=(6.0, 3.0))
        kernel = native._library(2, False)["segment"]

        def both(limit, tol=1e-9 * float(y0.sum())):  # NaNs match as NaNs, whatever their sign bits
            runs = []
            for run in (kernel, oracle._segment):
                try:
                    rows = (x.copy() for x in (y, c, i, u, v))
                    runs.append(run(params, weights, h, tol, limit, lb, *rows, 5, steps, 8))
                except ec.StabilityError as exc:
                    runs.append(str(exc))
            if isinstance(runs[1], str):
                assert runs[0] == runs[1]
                return runs[1]
            for a, b in zip(runs[0][:3], runs[1][:3]):
                assert np.array_equal(np.isnan(a), np.isnan(b)) and _bitwise_equal(a[a == a], b[b == b])
            assert runs[0][3] == runs[1][3]
            return runs[1]

        kept, costs, _, row_steps = both(np.inf)
        clamped = kept[:, [E, step.rows.index(V0)]] == 0.0  # E and V1 clamped in many rows
        assert row_steps == m * steps and np.count_nonzero(clamped) > 100
        # u = 1 costs about twice what u = 0 does: those rows pass the midpoint before the last step
        kept, costs, index, row_steps = both(0.5 * (np.nanmin(costs) + np.nanmax(costs)))
        if nan:
            assert len(costs) == m and row_steps == m * steps
        else:
            assert 0 < len(costs) < m and m < row_steps < m * steps and np.all(np.diff(index) > 0)
            # a row whose last bound equals the limit is kept, while the rows above it are dropped
            bounds = costs + lb[E][8 - steps] * kept[:, E] + lb[I][8 - steps] * kept[:, I]
            tie = np.sort(bounds)[len(bounds) // 2]
            assert len(both(tie)[1]) == np.count_nonzero(bounds <= tie) < len(bounds)
            # the first negative of the first step that leaves one, below the tolerance, raises
            yc = list(y.T)
            for k in range(steps):
                yc = step(yc, h, (v, u))
                if lows := [x.min() for x in yc if x.min() < 0.0]:
                    break
            assert f"reached {lows[0]:.3e} at t={(6 + k) * h:.6g};" in both(np.inf, -lows[0] / 1.5)

    def test_every_kernel_buffer_is_checked_before_the_c_call(self, covid19):
        # a short, misshapen, strided, non-float or read-only array, or a short bound table,
        # raises IndexError before the C loop runs
        params, _ = covid19
        calls = []
        built = native._library(params.n, params.delta_n_to_exposed)["segment"]
        kernel = functools.partial(native._segment, lambda *args: calls.append(args) or 0, *built.args[1:])
        m, width = 4, len(_kernels(params)[1].rows)
        good = {"y": np.zeros((m, width)), "c": np.zeros(m), "i": np.zeros(m), "u": np.zeros(m), "v": np.zeros(m)}
        lb = {E: np.zeros(10), I: np.zeros(10)}

        def run(lb=lb, **changed):
            return kernel(params, ec.CostWeights(), 0.05, 0.0, 0.0, lb, *{**good, **changed}.values(), 0, 10, 10)

        assert run()[3] == 0 and len(calls) == 1
        bad = [("y", np.zeros((m - 1, width))), ("y", np.zeros((m, width + 1))), ("y", np.zeros(m * width)),
               ("y", np.asfortranarray(np.zeros((m, width)))), ("u", np.zeros(m - 1)), ("v", np.zeros((m, 1))),
               ("i", np.arange(m)), ("u", np.zeros(m, np.float32)), ("v", np.zeros(2 * m)[::2])]
        for name, buffer in bad:
            with pytest.raises(IndexError):
                run(**{name: buffer})
        with pytest.raises(IndexError):
            run(lb={E: np.zeros(10), I: np.zeros(9)})
        good["c"].setflags(write=False)  # after its address was taken
        with pytest.raises(IndexError):
            run()
        assert len(calls) == 1
