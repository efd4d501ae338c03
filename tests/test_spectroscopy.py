import numpy as np
import pytest

from wireqls import spectroscopy
from wireqls.constants import E, HBAR, K_B, M_E, TWO_PI

from conftest import OMEGA_Z, assert_rel


class TestBottleDelta:
    def test_worked_value(self):
        delta = spectroscopy.bottle_delta(9000.0, OMEGA_Z)
        assert_rel(delta, TWO_PI * 23.0, 0.05)

    def test_zero_gradient(self):
        assert spectroscopy.bottle_delta(0.0, OMEGA_Z) == 0.0

    def test_linear_ratio_in_gradient(self):
        small = spectroscopy.bottle_delta(300.0, OMEGA_Z)
        large = spectroscopy.bottle_delta(9000.0, OMEGA_Z)
        assert large / small == pytest.approx(30.0, rel=1e-12)

    def test_sign_follows_gradient(self):
        assert spectroscopy.bottle_delta(-9000.0, OMEGA_Z) < 0.0


class TestCyclotronBroadening:
    def test_zero_temperature(self):
        assert spectroscopy.cyclotron_broadening(4.0, 0.0, OMEGA_Z) == 0.0

    def test_golden_value_from_arithmetic_oracle(self):
        # independent inline arithmetic of (q B2 / m) * k_B T / (m w^2)
        expected = (E * 4.0 / M_E) * (K_B * 0.010 / (M_E * OMEGA_Z**2))
        value = spectroscopy.cyclotron_broadening(4.0, 0.010, OMEGA_Z)
        assert value == pytest.approx(expected, rel=1e-14)
        assert value == pytest.approx(0.06752365596271745, rel=1e-12)

    def test_scalings(self):
        base = spectroscopy.cyclotron_broadening(4.0, 0.010, OMEGA_Z)
        assert spectroscopy.cyclotron_broadening(8.0, 0.010, OMEGA_Z) == pytest.approx(
            2.0 * base, rel=1e-14
        )
        assert spectroscopy.cyclotron_broadening(4.0, 0.020, OMEGA_Z) == pytest.approx(
            2.0 * base, rel=1e-14
        )
        assert spectroscopy.cyclotron_broadening(
            4.0, 0.010, 2.0 * OMEGA_Z
        ) == pytest.approx(base / 4.0, rel=1e-14)


class TestHeating:
    def test_worked_point_below_one_quantum_per_second(self):
        model = spectroscopy.HeatingModel()
        rate = spectroscopy.heating_rate(model, OMEGA_Z, 1e-3, 0.010)
        assert rate < 1.0
        assert_rel(rate, 0.1085, 0.01)

    def test_noise_conversion_oracle(self):
        # S_E evaluated by hand, then the standard conversion q^2 S / (4 m hbar w)
        model = spectroscopy.HeatingModel()
        s_e = 1e-12 * (200e6 / 1e6) ** -1 * (1e-3 / 100e-6) ** -2 * (0.010 / 6.0) ** 0.5
        assert spectroscopy.electric_field_noise(
            model, OMEGA_Z, 1e-3, 0.010
        ) == pytest.approx(s_e, rel=1e-12)
        expected = E**2 * s_e / (4.0 * M_E * HBAR * OMEGA_Z)
        assert spectroscopy.heating_rate(model, OMEGA_Z, 1e-3, 0.010) == pytest.approx(
            expected, rel=1e-12
        )

    def test_linear_in_noise_density(self):
        one = spectroscopy.heating_rate(spectroscopy.HeatingModel(), OMEGA_Z, 1e-3, 0.010)
        two = spectroscopy.heating_rate(
            spectroscopy.HeatingModel(S_E_ref=2e-12), OMEGA_Z, 1e-3, 0.010
        )
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_distance_scaling(self):
        model = spectroscopy.HeatingModel()
        near = spectroscopy.heating_rate(model, OMEGA_Z, 100e-6, 0.010)
        far = spectroscopy.heating_rate(model, OMEGA_Z, 1e-3, 0.010)
        assert near / far == pytest.approx(100.0, rel=1e-12)

    def test_alternate_temperature_reading_exposed(self):
        # the 4 K stage reading is a parameter away and scales as sqrt(T)
        model = spectroscopy.HeatingModel()
        cold = spectroscopy.heating_rate(model, OMEGA_Z, 1e-3, 0.010)
        warm = spectroscopy.heating_rate(model, OMEGA_Z, 1e-3, 4.0)
        assert warm / cold == pytest.approx((4.0 / 0.010) ** 0.5, rel=1e-12)


class TestHomogeneityProperties:
    """All four formulas obey their stated power laws over wide ranges."""

    def test_power_laws_over_six_decades(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            w = 10 ** rng.uniform(5, 11)
            b2 = 10 ** rng.uniform(-1, 5)
            t = 10 ** rng.uniform(-3, 3)
            k = 10 ** rng.uniform(-2, 2)
            assert spectroscopy.bottle_delta(k * b2, w) == pytest.approx(
                k * spectroscopy.bottle_delta(b2, w), rel=1e-12
            )
            assert spectroscopy.bottle_delta(b2, k * w) == pytest.approx(
                spectroscopy.bottle_delta(b2, w) / k, rel=1e-12
            )
            assert spectroscopy.cyclotron_broadening(b2, k * t, w) == pytest.approx(
                k * spectroscopy.cyclotron_broadening(b2, t, w), rel=1e-12
            )
            model = spectroscopy.HeatingModel()
            assert spectroscopy.electric_field_noise(
                model, k * w, 1e-3, t
            ) == pytest.approx(
                spectroscopy.electric_field_noise(model, w, 1e-3, t) / k, rel=1e-12
            )


def test_shift_set_for_trap(trap_logic):
    shifts = spectroscopy.shift_set_for_trap(trap_logic)
    assert shifts.delta == pytest.approx(
        spectroscopy.bottle_delta(trap_logic.B2_local, trap_logic.omega_z), rel=1e-14
    )
    assert shifts.broadening == pytest.approx(
        spectroscopy.cyclotron_broadening(
            trap_logic.B2_local, trap_logic.T_axial, trap_logic.omega_z
        ),
        rel=1e-14,
    )
