import math

import numpy as np
import pytest

from wireqls import dynamics, protocol

# worked-point rates (the circuit budget of the paper-electron scenario)
WORKED_PARAMS = dynamics.ExchangeParams(
    omega_ex=9.805193007690105,
    gamma_L=0.9828657198346223,
    gamma_S=0.10920730220384693,
    n_bar=0.6206164582293086,
)
# frozen output of the matrix-exponential oracle at these rates, n_max=4
# (truncation-converged: n_max=5 agrees to 3e-6)
WORKED_SWAP_FIDELITY = 0.7946201921735309


class TestStateObject:
    def test_fock_state_properties(self):
        state = dynamics.TwoModeState.fock(4, 1, 0)
        state.validate()
        assert state.trace() == pytest.approx(1.0)
        assert state.level_population("S", 1) == 1.0
        assert state.level_population("L", 0) == 1.0
        assert state.occupation("S") == 1.0
        assert state.total_quanta() == 1.0

    def test_fock_bounds(self):
        with pytest.raises(ValueError):
            dynamics.TwoModeState.fock(4, 5, 0)
        with pytest.raises(ValueError):
            dynamics.TwoModeState.fock(1, 0, 0)  # n_max must be >= 2

    def test_validation_catches_bad_states(self):
        state = dynamics.TwoModeState.fock(2, 0, 0)
        state.rho[0, 1] = 0.5  # not Hermitian
        with pytest.raises(ValueError):
            state.validate()
        state = dynamics.TwoModeState.fock(2, 0, 0)
        state.rho[0, 0] = 0.2  # trace off
        with pytest.raises(ValueError):
            state.validate()

    def test_params_validation(self):
        with pytest.raises(ValueError):
            dynamics.ExchangeParams(-1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            dynamics.ExchangeParams(1.0, 0.0, 0.0, -0.5)


class TestLiouvillian:
    @pytest.mark.parametrize("n_max", [2, 3, 5])
    def test_generator_is_the_master_equation(self, n_max):
        # H and the collapse operators C as dense 2-D arrays, so that the
        # column-stacked vec and the transpose/conjugate conventions are pinned
        rng = np.random.default_rng(n_max)
        params = dynamics.ExchangeParams(
            omega_ex=10 ** rng.uniform(0.5, 1.5),
            gamma_L=10 ** rng.uniform(-2, 0),
            gamma_S=10 ** rng.uniform(-2, 0),
            n_bar=rng.uniform(0.0, 0.6),
            detuning=rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(0.0, 1.0),
        )
        n = n_max + 1
        a = np.diag(np.sqrt(np.arange(1.0, n)), 1)
        a_s, a_l = np.kron(a, np.eye(n)), np.kron(np.eye(n), a)
        h = params.omega_ex * (a_s.conj().T @ a_l + a_s @ a_l.conj().T)
        h = h + params.detuning * (a_s.conj().T @ a_s)
        collapse = []
        for a_i, gamma in ((a_s, params.gamma_S), (a_l, params.gamma_L)):
            collapse.append(math.sqrt(gamma * (params.n_bar + 1.0)) * a_i)
            collapse.append(math.sqrt(gamma * params.n_bar) * a_i.conj().T)
        x = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
        rho = x + x.conj().T
        rho = rho / np.trace(rho)
        expected = -1j * (h @ rho - rho @ h)
        for c in collapse:
            cdc = c.conj().T @ c
            expected += c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc)
        got = dynamics.liouvillian(params, n_max) @ rho.flatten("F")
        want = expected.flatten("F")
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestEvolve:
    def test_zero_generator_is_identity(self):
        state = dynamics.TwoModeState.fock(3, 1, 0)
        out = dynamics.evolve(
            state, dynamics.ExchangeParams(0.0, 0.0, 0.0, 0.0), t=17.3
        )
        np.testing.assert_array_equal(out.rho, state.rho)

    def test_ideal_full_swap(self):
        params = dynamics.ExchangeParams(10.0, 0.0, 0.0, 0.0)
        state = dynamics.TwoModeState.fock(4, 1, 0)
        out = dynamics.evolve(state, params, t=math.pi / (2.0 * params.omega_ex))
        idx = 0 * 5 + 1  # |n_S, n_L> = |0, 1>
        assert out.rho[idx, idx].real == pytest.approx(1.0, abs=1e-6)
        assert dynamics.swap_fidelity(params) == pytest.approx(1.0, abs=1e-6)

    def test_trace_hermiticity_positivity_preserved(self):
        state = dynamics.TwoModeState.fock(4, 1, 0)
        out = dynamics.evolve(state, WORKED_PARAMS, t=0.05)
        out.validate()
        assert abs(out.trace() - 1.0) < 1e-9

    def test_lossless_total_quanta_conserved(self):
        params = dynamics.ExchangeParams(7.0, 0.0, 0.0, 0.0, detuning=2.0)
        state = dynamics.TwoModeState.fock(4, 2, 1)
        total0 = state.total_quanta()
        t = 0.0
        for dt in (0.03, 0.11, 0.21):
            state = dynamics.evolve(state, params, dt)
            t += dt
            assert abs(state.total_quanta() - total0) < 1e-8

    def test_integrator_matches_matrix_exponential(self):
        f_rk4 = dynamics.swap_fidelity(WORKED_PARAMS, method="rk4")
        f_expm = dynamics.swap_fidelity(WORKED_PARAMS, method="expm")
        assert abs(f_rk4 - f_expm) < 1e-8

    def test_time_step_convergence(self):
        h = 1.0 / (dynamics.RATE_FACTOR * dynamics.rate_scale(WORKED_PARAMS))
        f1 = dynamics.swap_fidelity(WORKED_PARAMS, step=h)
        f2 = dynamics.swap_fidelity(WORKED_PARAMS, step=0.5 * h)
        assert abs(f1 - f2) < 1e-8

    def test_unknown_method_rejected(self):
        state = dynamics.TwoModeState.fock(2, 0, 0)
        with pytest.raises(ValueError):
            dynamics.evolve(state, WORKED_PARAMS, 0.1, method="euler")

    def test_thermalization_of_single_damped_mode(self):
        # w_ex = 0: the L mode relaxes to the bath occupation within 1%
        n_bar = 0.2
        params = dynamics.ExchangeParams(0.0, 1.0, 0.0, n_bar)
        state = dynamics.TwoModeState.fock(4, 0, 0)
        out = dynamics.evolve(state, params, t=8.0)
        assert abs(out.occupation("L") - n_bar) / n_bar < 0.01
        assert out.occupation("S") == pytest.approx(0.0, abs=1e-12)

    def test_truncation_overflow_raises(self):
        # hot bath pushes steady-state weight onto the top level
        params = dynamics.ExchangeParams(0.0, 1.0, 0.0, 2.0)
        state = dynamics.TwoModeState.fock(3, 0, 0)
        with pytest.raises(dynamics.TruncationError):
            dynamics.evolve(state, params, t=4.0)


class TestSwapFidelity:
    def test_worked_point_value_frozen(self):
        # golden value from the matrix-exponential oracle at these rates,
        # truncation-converged; pins the number the cycle simulation uses
        f = dynamics.swap_fidelity(WORKED_PARAMS)
        assert f == pytest.approx(WORKED_SWAP_FIDELITY, abs=1e-6)

    def test_detuning_suppresses_exchange(self):
        params = dynamics.ExchangeParams(
            10.0, 0.0, 0.0, 0.0, detuning=100.0
        )
        assert dynamics.swap_fidelity(params) < 0.1

    def test_requires_positive_exchange_rate(self):
        with pytest.raises(ValueError):
            dynamics.swap_fidelity(dynamics.ExchangeParams(0.0, 0.0, 0.0, 0.0))

    def test_monotone_in_damping_and_occupation(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            base = dynamics.ExchangeParams(
                omega_ex=10 ** rng.uniform(0.5, 1.5),
                gamma_L=10 ** rng.uniform(-2, 0),
                gamma_S=10 ** rng.uniform(-2, 0),
                n_bar=rng.uniform(0.0, 0.6),
            )
            f0 = dynamics.swap_fidelity(base, method="expm")
            for field, factor in (
                ("gamma_L", 1.7),
                ("gamma_S", 1.7),
                ("n_bar", 1.5),
            ):
                kwargs = {
                    "omega_ex": base.omega_ex,
                    "gamma_L": base.gamma_L,
                    "gamma_S": base.gamma_S,
                    "n_bar": base.n_bar,
                }
                kwargs[field] = kwargs[field] * factor + 0.05
                worse = dynamics.ExchangeParams(**kwargs)
                assert dynamics.swap_fidelity(worse, method="expm") <= f0 + 1e-9


class TestSwapProbability:
    def test_oracle_shares_the_production_record(self):
        # one ExchangeParams, defined next to the closed form, not a copy
        assert dynamics.ExchangeParams is protocol.ExchangeParams

    def test_worked_point_value_frozen(self):
        # truncation-free closed form; the n_max=4 oracle above sits 2.7e-6 high
        p = protocol.swap_probability(WORKED_PARAMS)
        assert p == pytest.approx(0.7946174499841379, abs=1e-8)

    def test_ideal_lossless_swap_is_one(self):
        params = protocol.ExchangeParams(10.0, 0.0, 0.0, 0.0)
        assert protocol.swap_probability(params) == pytest.approx(1.0, abs=1e-12)

    def test_lossless_detuned_value(self):
        # oracle value of swap_fidelity at n_max=5, method="expm"
        params = protocol.ExchangeParams(10.0, 0.0, 0.0, 0.0, detuning=100.0)
        assert protocol.swap_probability(params) == pytest.approx(
            0.0375385358560, abs=1e-12
        )

    def test_matches_fock_oracle_with_detuning(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            omega_ex = 10 ** rng.uniform(0.5, 1.5)
            params = protocol.ExchangeParams(
                omega_ex=omega_ex,
                gamma_L=10 ** rng.uniform(-2, 0),
                gamma_S=10 ** rng.uniform(-2, 0),
                n_bar=rng.uniform(0.0, 0.2),
                detuning=omega_ex * rng.uniform(-1.0, 1.0),
            )
            oracle = dynamics.swap_fidelity(params, n_max=5, method="expm")
            assert abs(protocol.swap_probability(params) - oracle) < 1e-7

    def test_critically_damped_propagator(self):
        # (gamma_L - gamma_S)/4 = omega_ex: degenerate eigenvalues, s = 0
        params = protocol.ExchangeParams(1.0, 4.0, 0.0, 0.01)
        oracle = dynamics.swap_fidelity(params, n_max=4, method="expm")
        assert abs(protocol.swap_probability(params) - oracle) < 1e-8

    def test_heavy_damping_leaves_the_bath_state(self):
        # both modes relax long before the exchange completes: the logic
        # mode ends thermal at n_bar = 0.5, P(1) = n_bar/(1 + n_bar)^2
        params = protocol.ExchangeParams(1.0, 1e4, 1e4, 0.5)
        assert protocol.swap_probability(params) == pytest.approx(2.0 / 9.0, abs=1e-12)

    def test_huge_bath_occupation_is_finite(self):
        # (1 + N)^3 would overflow here; the bath state's P(1) ~ 1/N remains
        params = protocol.ExchangeParams(1.0, 1.0, 1.0, 1e302)
        p = protocol.swap_probability(params)
        assert math.isfinite(p) and 0.0 <= p <= 1.0

    def test_requires_positive_exchange_rate(self):
        with pytest.raises(ValueError):
            protocol.swap_probability(protocol.ExchangeParams(0.0, 0.1, 0.1, 0.1))
