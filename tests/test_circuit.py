import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wireqls import circuit
from wireqls import config as cfg
from wireqls.constants import E, M_E, M_P, TWO_PI

from conftest import C_P, DETUNE, OMEGA_Z, R_P, T_ENV, assert_rel, bose


def placed(detune: float, res=None, omega_z: float = OMEGA_Z) -> circuit.ResonatorParams:
    """The resonator of `res` (the worked one by default) placed `detune`
    line widths below omega_z."""
    C_p, R_p = (C_P, R_P) if res is None else (res.C_p, res.R_p)
    return circuit.ResonatorParams.detuned_below(C_p, R_p, omega_z, detune)


def oracle_impedance(L, C, R, omega):
    """Direct complex-arithmetic oracle, written independently of the
    module's internals."""
    return 1.0 / complex(1.0 / R, omega * C - 1.0 / (omega * L))


class TestResonatorParams:
    def test_derived_quantities_consistent(self, stock_resonator):
        res = stock_resonator
        assert res.omega_res == pytest.approx(OMEGA_Z - DETUNE * res.delta_omega_res)
        assert res.quality_factor == pytest.approx(
            res.omega_res / res.delta_omega_res, rel=1e-14
        )

    def test_quality_factor_near_6000(self, stock_resonator):
        assert_rel(stock_resonator.quality_factor, 6000.0, 0.10)

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            circuit.ResonatorParams(L_p=0.0, C_p=C_P, R_p=R_P)
        with pytest.raises(ValueError):
            circuit.ResonatorParams(L_p=1e-7, C_p=-C_P, R_p=R_P)

    def test_detuned_below_rejects_bad_placement(self):
        with pytest.raises(ValueError):
            circuit.ResonatorParams.detuned_below(C_P, R_P, OMEGA_Z, 0.0)
        with pytest.raises(ValueError):
            # detuning so large omega_res would be negative
            circuit.ResonatorParams.detuned_below(C_P, R_P, 1e3, 1.0)


class TestImpedance:
    def test_real_at_resonance(self, stock_resonator):
        z = circuit.impedance(stock_resonator, stock_resonator.omega_res)
        assert z.real == pytest.approx(R_P, rel=1e-12)
        assert abs(z.imag) < 1e-6 * R_P

    def test_magnitude_vanishes_at_low_frequency(self, stock_resonator):
        z = circuit.impedance(stock_resonator, 1e-3)
        assert abs(z) < 1e-6

    def test_worked_point_against_oracle(self, stock_resonator):
        z = circuit.impedance(stock_resonator, OMEGA_Z)
        z_oracle = oracle_impedance(
            stock_resonator.L_p, stock_resonator.C_p, stock_resonator.R_p, OMEGA_Z
        )
        assert cmath.isclose(z, z_oracle, rel_tol=1e-12)
        # rounded magnitudes of the worked example
        assert_rel(z.real, 1.39e2, 0.01)
        assert_rel(z.imag, -8.33e3, 0.01)

    def test_rejects_nonpositive_frequency(self, stock_resonator):
        with pytest.raises(ValueError):
            circuit.impedance(stock_resonator, 0.0)
        with pytest.raises(ValueError):
            circuit.impedance(stock_resonator, -1.0)

    def test_kramers_consistency(self, stock_resonator):
        # Re Z > 0 for all omega > 0; Im Z = 0 exactly at omega_res
        rng = np.random.default_rng(7)
        for _ in range(200):
            omega = 10 ** rng.uniform(0, 12)
            z = circuit.impedance(stock_resonator, omega)
            assert z.real > 0.0
        below = circuit.impedance(stock_resonator, 0.999 * stock_resonator.omega_res)
        above = circuit.impedance(stock_resonator, 1.001 * stock_resonator.omega_res)
        assert below.imag > 0.0 > above.imag  # inductive below, capacitive above

    @pytest.mark.parametrize("detune", [10.0, 20.0, 50.0, 100.0])
    def test_capacitive_limit_dominance(self, detune):
        res = circuit.ResonatorParams.detuned_below(C_P, R_P, OMEGA_Z, detune)
        z = circuit.impedance(res, OMEGA_Z)
        assert abs(z.imag) / z.real >= 10.0

    def test_capacitive_limit_asymptotic_scalings(self):
        # Re Z ~ delta^-2 and Im Z ~ delta^-1 within 5% across the scan
        detunes = np.linspace(10.0, 100.0, 19)
        re_scaled, im_scaled = [], []
        for d in detunes:
            res = circuit.ResonatorParams.detuned_below(C_P, R_P, OMEGA_Z, d)
            delta = OMEGA_Z - res.omega_res
            z = circuit.impedance(res, OMEGA_Z)
            re_scaled.append(z.real * delta**2)
            im_scaled.append(abs(z.imag) * delta)
        for arr in (np.asarray(re_scaled), np.asarray(im_scaled)):
            assert arr.max() / arr.min() - 1.0 < 0.05


class TestSeriesEquivalent:
    def test_inductance_value_electron_1mm(self, trap_logic):
        eq = circuit.series_equivalent(trap_logic)
        assert eq.l == pytest.approx(M_E * (2e-3 / E) ** 2, rel=1e-14)
        assert_rel(eq.l, 1.42e2, 0.01)

    def test_inductance_quadratic_in_trap_size(self, trap_logic, trap_spectroscopy):
        l_small = circuit.series_equivalent(trap_logic).l
        l_big = circuit.series_equivalent(trap_spectroscopy).l
        assert l_big / l_small == pytest.approx(9.0, rel=1e-12)

    def test_no_pulling_when_reactance_zero(self, trap_logic):
        eq = circuit.series_equivalent(trap_logic, z_im=0.0)
        assert eq.omega_z0 == trap_logic.omega_z

    def test_type_invariant(self, trap_logic):
        eq = circuit.series_equivalent(trap_logic, z_im=-8350.0)
        assert eq.l * eq.c * eq.omega_z0**2 == pytest.approx(1.0, rel=1e-14)

    def test_mass_scaling_is_exact(self, trap_logic):
        l_e = circuit.series_equivalent(trap_logic).l
        l_p = circuit.series_equivalent(trap_logic._replace(m=M_P)).l
        assert l_p / l_e == pytest.approx(M_P / M_E, rel=1e-14)


class TestExchangeAndDissipation:
    def test_exchange_time_matches_worked_value(self, paper_budget):
        assert_rel(paper_budget.t_ex, 0.160, 0.05)

    def test_symmetric_reduction(self):
        assert circuit.exchange_rate(100.0, 2.0, 2.0) == pytest.approx(100.0 / 4.0)

    def test_linearity_in_reactance(self):
        one = circuit.exchange_rate(100.0, 2.0, 8.0)
        two = circuit.exchange_rate(200.0, 2.0, 8.0)
        assert two == pytest.approx(2.0 * one, rel=1e-15)

    def test_zero_inductance_rejected(self):
        with pytest.raises(ValueError):
            circuit.exchange_rate(100.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            circuit.exchange_time(0.0)

    def test_dissipation_worked_value(self, paper_budget):
        # the small logic-trap inductance dominates
        assert_rel(paper_budget.gamma, 0.98, 0.01)
        assert paper_budget.gamma == pytest.approx(paper_budget.gamma_L)
        assert paper_budget.gamma_L > paper_budget.gamma_S


class TestThermalOccupation:
    def test_worked_point(self):
        n = circuit.thermal_occupation(OMEGA_Z, 0.010)
        assert abs(n - 0.62) <= 0.02
        assert n == pytest.approx(bose(OMEGA_Z, 0.010), rel=1e-12)

    def test_zero_temperature(self):
        assert circuit.thermal_occupation(OMEGA_Z, 0.0) == 0.0

    def test_underflows_to_zero_when_exp_overflows(self):
        # hbar w / k_B T ~ 960 at 10 uK: exp overflows, the occupation is 0
        assert circuit.thermal_occupation(OMEGA_Z, 1e-5) == 0.0
        # k_B T underflows to zero: no division by zero, the occupation is 0
        assert circuit.thermal_occupation(OMEGA_Z, 1e-320) == 0.0
        # the last temperatures expm1 still reaches keep the Bose value
        n = circuit.thermal_occupation(OMEGA_Z, 1.4e-5)
        assert 0.0 < n == pytest.approx(bose(OMEGA_Z, 1.4e-5), rel=1e-9)

    def test_low_frequency_proton_regime(self):
        n = circuit.thermal_occupation(TWO_PI * 1e6, 0.010)
        assert n == pytest.approx(bose(TWO_PI * 1e6, 0.010), rel=1e-12)
        # direct Bose value ~2.1e2; the often-quoted 300 is order-of-magnitude
        assert 100.0 <= n <= 300.0
        assert_rel(n, 2.1e2, 0.02)


class TestQlsBudget:
    def test_figure_matches_worked_value(self, paper_budget):
        assert_rel(paper_budget.figure, 0.098, 0.05)
        assert paper_budget.feasible

    def test_budget_products_exact(self, paper_budget):
        assert paper_budget.t_ex * paper_budget.omega_ex == pytest.approx(
            math.pi / 2.0, rel=1e-14
        )
        assert paper_budget.figure == paper_budget.t_ex * paper_budget.n_bar * paper_budget.gamma

    def test_c_t_definition(self, paper_budget):
        z_im = abs(paper_budget.z_at_omega_z.imag)
        assert paper_budget.c_T == pytest.approx(1.0 / (OMEGA_Z * z_im), rel=1e-14)

    def test_zero_temperature_always_feasible(
        self, stock_resonator, trap_logic, trap_spectroscopy
    ):
        budget = circuit.qls_budget(stock_resonator, trap_logic, trap_spectroscopy, 0.0)
        assert budget.figure == 0.0
        assert budget.feasible

    def test_overflowing_occupation_raises(
        self, stock_resonator, trap_logic, trap_spectroscopy
    ):
        # k_B T / (hbar omega_z) past the float range: an inf n_bar would give
        # an inf figure and a nan swap probability downstream
        with pytest.raises(circuit.OccupationOverflow, match="overflows"):
            circuit.qls_budget(stock_resonator, trap_logic, trap_spectroscopy, 1.7e308)

    @pytest.mark.parametrize("T, detune", [(1.0e305, 0.01), (1.0e300, 1.0e-6)])
    def test_overflowing_figure_raises(self, trap_logic, trap_spectroscopy, T, detune):
        # n_bar is finite (~1e307 at 1e305 K), but t_ex * n_bar * gamma is not
        assert math.isfinite(circuit.thermal_occupation(OMEGA_Z, T))
        with pytest.raises(circuit.OccupationOverflow, match="figure overflows"):
            circuit.qls_budget(placed(detune), trap_logic, trap_spectroscopy, T)

    @pytest.mark.parametrize("small", ["trap_L", "trap_S"])
    def test_pulled_trap_is_named(self, stock_resonator, trap_logic, trap_spectroscopy, small):
        # a 10 nm trap's l is so small that -Im Z / l exceeds omega_z; the
        # other trap keeps its size
        traps = {"trap_L": trap_logic, "trap_S": trap_spectroscopy}
        traps[small] = traps[small]._replace(d_eff=1.0e-8)
        with pytest.raises(circuit.UncoupledInput, match="bare axial frequency negative") as exc:
            circuit.qls_budget(stock_resonator, traps["trap_L"], traps["trap_S"], T_ENV)
        assert exc.value.culprit == small

    def test_vanishing_reactance_names_the_resonator(self, trap_logic, trap_spectroscopy):
        # C_p so large that omega_res rounds to omega_z: Im Z is exactly zero
        res = circuit.ResonatorParams.detuned_below(1.0e200, R_P, OMEGA_Z, DETUNE)
        with pytest.raises(circuit.UncoupledInput, match="vanishes") as exc:
            circuit.qls_budget(res, trap_logic, trap_spectroscopy, T_ENV)
        assert exc.value.culprit == "res"

    def test_overflowing_inductance_product_names_the_traps(self, trap_logic, trap_spectroscopy):
        # two 1e100 m traps make l_L l_S overflow, so |Im Z| / (2 sqrt(l_L l_S))
        # is exactly zero whatever the resonator; the traps, not Im Z, are at fault
        res = circuit.ResonatorParams.detuned_below(1.0e103, 1.0e-110, OMEGA_Z, DETUNE)
        traps = [t._replace(d_eff=1.0e100) for t in (trap_logic, trap_spectroscopy)]
        with pytest.raises(circuit.UncoupledInput, match="l_L \\* l_S of the two traps") as exc:
            circuit.qls_budget(res, *traps, T_ENV)
        assert exc.value.culprit == "traps"

    def test_underflowing_exchange_rate_names_the_resonator(self, trap_logic, trap_spectroscopy):
        # |Im Z| ~2e-204 ohm over a finite sqrt(l_L l_S) ~1e148 H rounds to zero
        res = circuit.ResonatorParams.detuned_below(1.0e195, 1.0e-202, OMEGA_Z, DETUNE)
        traps = [t._replace(d_eff=1.0e70) for t in (trap_logic, trap_spectroscopy)]
        with pytest.raises(circuit.UncoupledInput, match="exchange rate underflows") as exc:
            circuit.qls_budget(res, *traps, T_ENV)
        assert exc.value.culprit == "res"

    def test_proton_preset_marginal(self):
        trap_l = circuit.TrapParams(1e-3, TWO_PI * 1e6, 6.0, 9000.0, 0.010, M_P, E)
        trap_s = circuit.TrapParams(3e-3, TWO_PI * 1e6, 6.0, 4.0, 0.010, M_P, E)
        res = circuit.ResonatorParams.detuned_below(C_P, 1e9, TWO_PI * 1e6, DETUNE)
        budget = circuit.qls_budget(res, trap_l, trap_s, 0.010)
        assert budget.n_bar >= 100.0
        assert not budget.feasible

    def test_mismatched_axial_frequencies_rejected(
        self, stock_resonator, trap_logic
    ):
        other = circuit.TrapParams(3e-3, OMEGA_Z * 1.01, 6.0, 4.0, 0.010, M_E, E)
        with pytest.raises(ValueError, match="same axial frequency"):
            circuit.qls_budget(stock_resonator, trap_logic, other, T_ENV)

    def test_uses_the_resonator_it_is_given(
        self, stock_resonator, trap_logic, trap_spectroscopy, paper_budget
    ):
        # the budget reads L_p as given, and solves no placement of its own
        assert paper_budget.resonator is stock_resonator
        moved = stock_resonator._replace(L_p=stock_resonator.L_p * 1.001)
        budget = circuit.qls_budget(moved, trap_logic, trap_spectroscopy, T_ENV)
        assert budget.resonator is moved
        assert budget.z_at_omega_z == circuit.impedance(moved, OMEGA_Z)
        assert budget.z_at_omega_z != paper_budget.z_at_omega_z
        assert budget.figure != paper_budget.figure

    def test_feasible_iff_figure_below_threshold(self, trap_logic, trap_spectroscopy):
        # figures 2.92 and 0.975 straddle the fixed threshold of 1.0
        assert circuit.FEASIBILITY_THRESHOLD == 1.0
        budgets = [
            circuit.qls_budget(placed(d), trap_logic, trap_spectroscopy, T_ENV)
            for d in (1.0, 3.0)
        ]
        assert [b.feasible for b in budgets] == [False, True]
        assert 0.95 < budgets[1].figure < 1.0 < budgets[0].figure

    def test_figure_scales_inversely_with_detuning(self, trap_logic, trap_spectroscopy):
        # capacitive-limit scaling: figure ~ 1/detuning
        figures = [
            circuit.qls_budget(placed(d), trap_logic, trap_spectroscopy, T_ENV).figure
            for d in (20.0, 40.0, 80.0)
        ]
        assert figures[0] > figures[1] > figures[2]
        assert figures[0] / figures[1] == pytest.approx(2.0, rel=0.05)
        assert figures[1] / figures[2] == pytest.approx(2.0, rel=0.05)


def _scan_detuning(res, trap_L, trap_S, T, constraint):
    """First point of the 0.25-linewidth grid from 1 to 1000 line widths
    whose figure meets `constraint`, or None: the scan the closed-form
    inverse replaced, kept as its oracle. Each point places `res` anew."""
    for i in range(3997):
        detuning = 1.0 + i * 0.25
        res_at = placed(detuning, res, trap_L.omega_z)
        if circuit.qls_budget(res_at, trap_L, trap_S, T).figure <= constraint:
            return detuning
    return None


class TestOptimizeDetuning:
    def test_inverts_worked_example(self, stock_resonator, trap_logic, trap_spectroscopy):
        d = circuit.optimize_detuning(
            stock_resonator, trap_logic, trap_spectroscopy, T_ENV, constraint=0.098
        )
        assert d is not None
        assert 28.0 <= d <= 32.0

    def test_monotone_in_constraint(self, stock_resonator, trap_logic, trap_spectroscopy):
        loose = circuit.optimize_detuning(
            stock_resonator, trap_logic, trap_spectroscopy, T_ENV, constraint=0.9
        )
        tight = circuit.optimize_detuning(
            stock_resonator, trap_logic, trap_spectroscopy, T_ENV, constraint=0.1
        )
        assert loose is not None and tight is not None
        assert loose < tight

    def test_unreachable_constraint_is_infeasible(
        self, stock_resonator, trap_logic, trap_spectroscopy
    ):
        result = circuit.optimize_detuning(
            stock_resonator, trap_logic, trap_spectroscopy, T_ENV,
            constraint=1e-9,
        )
        assert result is None

    def test_mismatched_axial_frequencies_rejected(self, stock_resonator, trap_logic):
        other = circuit.TrapParams(3e-3, OMEGA_Z * 1.01, 6.0, 4.0, 0.010, M_E, E)
        with pytest.raises(ValueError, match="same axial frequency"):
            circuit.optimize_detuning(stock_resonator, trap_logic, other, T_ENV, 0.1)

    def test_invalid_constraint_rejected(
        self, stock_resonator, trap_logic, trap_spectroscopy
    ):
        with pytest.raises(ValueError):
            circuit.optimize_detuning(
                stock_resonator, trap_logic, trap_spectroscopy, T_ENV, constraint=1.5
            )

    # from 5 mK up, the detuning stays above ~0.8 line widths, where
    # qls_budget's own w C - 1/(w L) resolves the figure to ~1e-12
    @settings(max_examples=60, deadline=None)
    @given(T=st.floats(0.005, 0.030), target=st.floats(0.01, 0.99))
    def test_inverse_meets_target_and_agrees_with_scan(
        self, stock_resonator, trap_logic, trap_spectroscopy, T, target
    ):
        args = (stock_resonator, trap_logic, trap_spectroscopy, T, target)
        d = circuit.optimize_detuning(*args)
        assert d is not None
        budget = circuit.qls_budget(placed(d), trap_logic, trap_spectroscopy, T)
        assert_rel(budget.figure, target, 1e-9)
        # the grid's first point at or above max(d, 1.0), up to the
        # rounding of a figure that lands on the target at a grid point
        edge = max(d, 1.0)
        scan = _scan_detuning(*args)
        if edge > 1000.0 * (1.0 + 1e-9):
            assert scan is None
        else:
            assert scan is not None
            assert edge * (1.0 - 1e-9) <= scan < edge * (1.0 + 1e-9) + 0.25

    def test_paper_electron_beyond_the_old_scan_cap(self):
        rc = cfg.load_config("paper-electron")
        traps = (rc.trap_logic, rc.trap_spectroscopy)
        T = rc.environment_temperature
        d = circuit.optimize_detuning(rc.resonator, *traps, T, 0.003)
        assert d == pytest.approx(1065.15, abs=0.01)
        res = placed(d, rc.resonator, rc.trap_logic.omega_z)
        assert_rel(circuit.qls_budget(res, *traps, T).figure, 0.003, 1e-9)

    def test_zero_temperature_needs_no_detuning(
        self, stock_resonator, trap_logic, trap_spectroscopy
    ):
        args = (stock_resonator, trap_logic, trap_spectroscopy, 0.0, 0.5)
        assert circuit.optimize_detuning(*args) == 0.0
        assert _scan_detuning(*args) == 1.0


class TestCommonAxialFrequency:
    def test_returns_the_logic_traps_frequency(self, trap_logic):
        within = trap_logic._replace(omega_z=OMEGA_Z * (1.0 + 1e-13))
        assert circuit.common_axial_frequency(trap_logic, within) == OMEGA_Z
        assert circuit.common_axial_frequency(within, trap_logic) == within.omega_z

    def test_rejects_a_mismatch_beyond_rounding(self, trap_logic):
        beyond = trap_logic._replace(omega_z=OMEGA_Z * (1.0 + 1e-11))
        with pytest.raises(ValueError, match="same axial frequency"):
            circuit.common_axial_frequency(trap_logic, beyond)


class TestTrapParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            circuit.TrapParams(-1e-3, OMEGA_Z, 6.0, 0.0, 0.01, M_E, E)
        with pytest.raises(ValueError):
            circuit.TrapParams(1e-3, 0.0, 6.0, 0.0, 0.01, M_E, E)
        with pytest.raises(ValueError):
            circuit.TrapParams(1e-3, OMEGA_Z, 0.0, 0.0, 0.01, M_E, E)
        with pytest.raises(ValueError):
            circuit.TrapParams(1e-3, OMEGA_Z, 6.0, 0.0, -0.01, M_E, E)

    @pytest.mark.parametrize("d_eff", [1e200, 1e-170, 1e-200])
    def test_inductance_outside_the_float_range_rejected(self, d_eff):
        # l = m (2 d_eff / q)^2 overflows, or underflows to zero
        with pytest.raises(ValueError, match="d_eff puts l"):
            circuit.TrapParams(d_eff, OMEGA_Z, 6.0, 0.0, 0.01, M_E, E)

    @pytest.mark.parametrize("omega_z", [math.inf, math.nan])
    def test_non_finite_axial_frequency_rejected(self, omega_z):
        with pytest.raises(ValueError, match="omega_z"):
            circuit.TrapParams(1e-3, omega_z, 6.0, 0.0, 0.01, M_E, E)
