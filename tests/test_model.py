import dataclasses

import numpy as np
import pytest

import epictrl as ec
from epictrl.model import A, D, E, I, R, S, V0, _apply_impulse


def table1_state():
    return ec.StateVector(S=8000, E=1000, A=500, I=500, R=0, D=0, V=(0.0, 0.0))


class TestStateVector:
    def test_rejects_negative_compartment(self):
        with pytest.raises(ValueError):
            ec.StateVector(-1, 0, 0, 0, 0, 0, (0, 0))
        with pytest.raises(ValueError):
            ec.StateVector(1, 0, 0, 0, 0, 0, (0, -2))

    def test_rejects_empty_dose_chain(self):
        with pytest.raises(ValueError):
            ec.StateVector(1, 0, 0, 0, 0, 0, ())

    def test_array_round_trip(self):
        st = table1_state()
        again = ec.StateVector.from_array(st.as_array())
        assert again == st


class TestModelParams:
    def test_gamma_must_be_non_increasing(self):
        with pytest.raises(ValueError):
            ec.ModelParams(
                beta=0.1, epsilon=0, q=0.5, mu=1, k=0.5, z=0.1, p=0.1, eta=0.3,
                alpha=0.9, f=0.3, gamma=(1.0, 2.0), delta=(0.0, 0.0),
            )

    def test_delta_cannot_exceed_gamma(self):
        with pytest.raises(ValueError):
            ec.ModelParams(
                beta=0.1, epsilon=0, q=0.5, mu=1, k=0.5, z=0.1, p=0.1, eta=0.3,
                alpha=0.9, f=0.3, gamma=(0.5, 0.5), delta=(0.6, 0.0),
            )

    def test_rates_must_stay_in_unit_interval(self):
        with pytest.raises(ValueError):
            ec.ModelParams(
                beta=1.5, epsilon=0, q=0.5, mu=1, k=0.5, z=0.1, p=0.1, eta=0.3,
                alpha=0.9, f=0.3, gamma=(1.0, 1.0), delta=(0.0, 0.0),
            )

    @pytest.mark.parametrize(
        "gamma, delta, fault",
        [
            ((0.0, 0.0), (0.0, 0.0), "gamma: first entry must be positive"),
            ((float("inf"), 1.0), (0.0, 0.0), "gamma: not finite"),
            ((1.0, 1.0), (0.0, 5e-4), "delta: not non-increasing"),
            ((1.0, 1.0), (5e-4, 0.0, 0.0), "delta: length differs from gamma"),
        ],
        ids=["first-dose", "gamma-inf", "delta-order", "delta-length"],
    )
    def test_dose_chain_rules(self, covid19, gamma, delta, fault):
        params, _ = covid19
        with pytest.raises(ValueError, match=fault):
            dataclasses.replace(params, gamma=gamma, delta=delta)

    @pytest.mark.parametrize("name, value", [("epsilon", float("nan")), ("mu", float("inf"))])
    def test_non_finite_rejected(self, covid19, name, value):
        params, _ = covid19
        with pytest.raises(ValueError, match=f"{name}: not finite"):
            dataclasses.replace(params, **{name: value})

    def test_v_max_is_inverse_first_uptake(self, covid19):
        params, _ = covid19
        assert params.v_max == 1.0


class TestControlSignal:
    def test_bounds_enforced(self):
        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            ec.ControlSignal(grid, np.zeros(11), np.full(11, 1.5))
        with pytest.raises(ValueError):
            ec.ControlSignal(grid, np.full(11, 2.5), np.zeros(11), v_max=2.0)

    def test_grid_must_start_at_zero_and_increase(self):
        with pytest.raises(ValueError):
            ec.ControlSignal(np.array([0.5, 1.0]), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            ec.ControlSignal(np.array([0.0, 0.0, 1.0]), np.zeros(3), np.zeros(3))

    def test_linear_interpolation_between_samples(self):
        sig = ec.ControlSignal(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        v, u = sig.at(0.25)
        assert v == pytest.approx(0.25)
        assert u == pytest.approx(0.75)


class TestImpulseSchedule:
    def test_rates_in_unit_interval(self):
        with pytest.raises(ValueError):
            ec.ImpulseEvent(1.0, (1.5, 0, 0, 0))

    def test_time_must_be_positive(self):
        with pytest.raises(ValueError, match="time: must be positive"):
            ec.ImpulseEvent(0.0, (0, 0, 0, 0))

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            ec.ImpulseSchedule((ec.ImpulseEvent(2.0, (0, 0, 0, 0)), ec.ImpulseEvent(2.0, (0, 0, 0, 0))))


class TestTransmissibilityForce:
    # the force epsilon*E + (1-q)*I + mu*A, read off the infection flow -dS/dt = beta*force*S
    @staticmethod
    def force(state, params):
        return -ec.vector_field(state, 0.0, 0.0, params)[S] / (params.beta * state.S)

    def test_zero_infectious_pools(self, covid19):
        params, _ = covid19
        state = ec.StateVector(100, 0, 0, 0, 0, 0, (0, 0))
        assert self.force(state, params) == 0.0

    def test_table1_hand_value(self, covid19):
        # eps=0, q=0.5, mu=1 with E=1000, I=500, A=500: 0 + 0.5*500 + 500
        params, initial = covid19
        assert self.force(initial, params) == pytest.approx(750.0)

    def test_only_exposed_term_survives(self):
        params = ec.ModelParams(
            beta=0.1, epsilon=1.0, q=1.0, mu=0.0, k=0.5, z=0.1, p=0.1, eta=0.3,
            alpha=0.9, f=0.3, gamma=(1.0, 1.0), delta=(0.0, 0.0),
        )
        state = ec.StateVector(1, 7, 3, 9, 0, 0, (0, 0))
        assert self.force(state, params) == pytest.approx(7.0)


class TestVectorField:
    def test_zero_state_is_equilibrium(self, covid19):
        params, _ = covid19
        zero = ec.StateVector(0, 0, 0, 0, 0, 0, (0, 0))
        assert np.all(ec.vector_field(zero, 0.3, 0.7, params) == 0.0)

    def test_table1_hand_values(self, covid19):
        # Lambda = 750, so dS = -5e-4*750*8000 = -3000 and dD = 0.005*0.3*500 = 0.75
        params, initial = covid19
        d = ec.vector_field(initial, 0.0, 0.0, params)
        assert d[S] == pytest.approx(-3000.0)
        assert d[D] == pytest.approx(0.75)

    def test_conservation_identities(self, covid19):
        # Summing every component telescopes to zero (living + deceased is
        # conserved); dropping the deceased row leaves (alpha-1)*f*I.
        params, initial = covid19
        d = ec.vector_field(initial, 0.0, 0.0, params)
        assert d.sum() == pytest.approx(0.0, abs=1e-10)
        n_dot = d.sum() - d[D]
        assert n_dot == pytest.approx((params.alpha - 1.0) * params.f * initial.I)
        assert n_dot == pytest.approx(-0.75)

    def test_dose_count_mismatch_rejected(self, covid19):
        params, _ = covid19
        state = ec.StateVector(1, 0, 0, 0, 0, 0, (0, 0, 0))
        with pytest.raises(ValueError):
            ec.vector_field(state, 0.0, 0.0, params)

    def test_control_bounds_rejected(self, covid19):
        params, initial = covid19
        with pytest.raises(ValueError):
            ec.vector_field(initial, 0.0, 1.5, params)
        with pytest.raises(ValueError):
            ec.vector_field(initial, params.v_max * 1.01, 0.0, params)

    def test_linear_in_each_control(self, covid19, rng):
        # three-point collinearity in u and in v, state held fixed
        params, _ = covid19
        for _ in range(20):
            state = ec.StateVector(*rng.uniform(0, 1000, size=6), tuple(rng.uniform(0, 1000, size=2)))
            v0, v1 = rng.uniform(0, params.v_max, size=2)
            u0, u1 = rng.uniform(0, 1, size=2)
            d_lo = ec.vector_field(state, v0, u0, params)
            d_hi = ec.vector_field(state, v0, u1, params)
            d_mid = ec.vector_field(state, v0, 0.5 * (u0 + u1), params)
            np.testing.assert_allclose(d_mid, 0.5 * (d_lo + d_hi), rtol=1e-12, atol=1e-12)
            d_lo = ec.vector_field(state, v0, u0, params)
            d_hi = ec.vector_field(state, v1, u0, params)
            d_mid = ec.vector_field(state, 0.5 * (v0 + v1), u0, params)
            np.testing.assert_allclose(d_mid, 0.5 * (d_lo + d_hi), rtol=1e-12, atol=1e-12)

    def test_three_dose_chain_matches_hand_expansion(self):
        params = ec.ModelParams(
            beta=0.0, epsilon=0, q=0.5, mu=1, k=0.5, z=0.1, p=0.1, eta=0.3,
            alpha=0.9, f=0.3, gamma=(1.0, 0.8, 0.5), delta=(0.2, 0.1, 0.0),
        )
        state = ec.StateVector(100, 0, 0, 0, 0, 0, (10.0, 20.0, 30.0))
        v = 0.5
        d = ec.vector_field(state, v, 0.0, params)
        assert d[V0] == pytest.approx(1.0 * v * 100 - 0.8 * v * 10 - 0.2 * 10)
        assert d[V0 + 1] == pytest.approx(0.8 * v * 10 - 0.5 * v * 20 - 0.1 * 20)
        assert d[V0 + 2] == pytest.approx(0.5 * v * 20)
        assert d[E] == pytest.approx(0.2 * 10 + 0.1 * 20)

    def test_last_dose_breakthrough_flag(self):
        params = ec.ModelParams(
            beta=0.0, epsilon=0, q=0.5, mu=1, k=0.0, z=0.1, p=0.1, eta=0.0,
            alpha=0.9, f=0.0, gamma=(1.0, 1.0), delta=(0.2, 0.1),
            delta_n_to_exposed=True,
        )
        state = ec.StateVector(0, 0, 0, 0, 0, 0, (0.0, 50.0))
        d = ec.vector_field(state, 0.0, 0.0, params)
        assert d[E] == pytest.approx(0.1 * 50.0)
        assert d[V0 + 1] == pytest.approx(-0.1 * 50.0)


class TestApplyImpulse:
    def test_identity_jump(self):
        y = table1_state().as_array().tolist()
        assert _apply_impulse(y, (0, 0, 0, 0)) == y

    def test_susceptible_only_growth(self):
        out = _apply_impulse([100, 5, 6, 7, 8, 9, 1.0, 2.0], (0.1, 0, 0, 0))
        assert out[S] == pytest.approx(110.0)
        assert out[E:] == [5, 6, 7, 8, 9, 1.0, 2.0]

    def test_doubling_at_maximal_rate(self):
        out = _apply_impulse([50, 50, 50, 50, 0, 0, 0, 0], (1, 1, 1, 1))
        assert out[: R] == [100, 100, 100, 100]

    def test_population_bookkeeping(self, rng):
        for _ in range(20):
            st = ec.StateVector(*rng.uniform(0, 500, size=6), tuple(rng.uniform(0, 500, size=2)))
            lam = tuple(rng.uniform(0, 1, size=4))
            out = ec.StateVector.from_array(_apply_impulse(st.as_array().tolist(), lam))
            gained = ec.total_population(out) - ec.total_population(st)
            expected = lam[0] * st.S + lam[1] * st.E + lam[2] * st.A + lam[3] * st.I
            assert gained == pytest.approx(expected, rel=1e-12)


class TestTotalPopulation:
    def test_zero_state(self):
        assert ec.total_population(ec.StateVector(0, 0, 0, 0, 0, 0, (0, 0))) == 0.0

    def test_table1_total(self, covid19):
        _, initial = covid19
        assert ec.total_population(initial) == pytest.approx(10000.0)

    def test_deceased_excluded(self):
        assert ec.total_population(ec.StateVector(1, 0, 0, 0, 0, 99, (0, 0))) == 1.0


class TestBasicReproductionNumber:
    def test_zero_transmission(self, covid19):
        params, _ = covid19
        p0 = ec.ModelParams(**{**params.__dict__, "beta": 0.0})
        assert ec.basic_reproduction_number(p0, 1e4) == 0.0

    def test_covid19_hand_value(self, covid19):
        # 5e-4 * 1e4 * (0.1/(0.995*0.3) + 1.0*0.9/0.3), evaluated by hand
        params, initial = covid19
        expected = 5e-4 * 1e4 * (0.1 / (0.995 * 0.3) + 1.0 * 0.9 / 0.3)
        got = ec.basic_reproduction_number(params, ec.total_population(initial))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(16.6750418760469, abs=1e-9)

    def test_fully_symptomatic_branch(self, covid19):
        params, _ = covid19
        p1 = ec.ModelParams(**{**params.__dict__, "z": 1.0, "mu": 123.0})
        got = ec.basic_reproduction_number(p1, 2000.0)
        assert got == pytest.approx(p1.beta * 2000.0 / (p1.alpha * p1.f))

    def test_degenerate_parameters_rejected(self, covid19):
        params, _ = covid19
        bad = ec.ModelParams(**{**params.__dict__, "f": 0.0})
        with pytest.raises(ec.DegenerateParameterError):
            ec.basic_reproduction_number(bad, 1e4)
        bad = ec.ModelParams(**{**params.__dict__, "eta": 0.0})
        with pytest.raises(ec.DegenerateParameterError):
            ec.basic_reproduction_number(bad, 1e4)
