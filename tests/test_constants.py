import math
import re

import numpy as np
import pytest

from wireqls import circuit, constants, dynamics, magnetics, protocol
from wireqls import config as cfg


def test_codata_values_positive_and_sane():
    c = constants
    assert c.E > 0 and c.M_E > 0 and c.HBAR > 0
    assert math.isclose(c.G_E, 2.002319, rel_tol=1e-6)
    assert c.M_P / c.M_E == pytest.approx(1836.15267, rel=1e-6)


def test_cyclotron_frequency_electron_at_6t():
    # independent arithmetic: |q| B / m with the frozen constants
    expected = constants.E * 6.0 / constants.M_E
    value = constants.cyclotron_frequency(6.0)
    assert value == expected
    assert value == pytest.approx(1.055e12, rel=5e-4)


def test_cyclotron_frequency_rejects_bad_domain():
    with pytest.raises(ValueError):
        constants.cyclotron_frequency(0.0)
    with pytest.raises(ValueError):
        constants.cyclotron_frequency(-1.0)
    with pytest.raises(ValueError):
        constants.cyclotron_frequency(6.0, m=0.0)
    with pytest.raises(ValueError):
        constants.cyclotron_frequency(6.0, q=0.0)


def test_cyclotron_frequency_linear_in_field():
    assert constants.cyclotron_frequency(12.0) == pytest.approx(
        2.0 * constants.cyclotron_frequency(6.0), rel=1e-15
    )


def test_unit_round_trip_is_exact():
    for x in (1.0, 200e6, 3.7e-3, 8.25e11):
        assert constants.hz_to_angular(constants.angular_to_hz(x)) == pytest.approx(
            x, rel=1e-15
        )
        assert constants.angular_to_hz(constants.hz_to_angular(x)) == pytest.approx(
            x, rel=1e-15
        )


def test_particle_presets():
    m, q = constants.particle_mass_charge("positron")
    assert (m, q) == (constants.M_E, constants.E)
    m_p, _ = constants.particle_mass_charge("proton")
    assert m_p == constants.M_P
    with pytest.raises(ValueError):
        constants.particle_mass_charge("muon")


def _paper_protocol():
    return protocol.build_protocol(cfg.load_config("paper-electron"))


# (a valid record, one field set to a value its check rejects, the message)
CHECKED_CASES = {
    "ResonatorParams": (
        lambda: circuit.ResonatorParams(1e-6, 1e-11, 5e5),
        {"C_p": 0.0}, "resonator C_p must be positive",
    ),
    "TrapParams": (
        lambda: circuit.TrapParams(1e-3, 1.2e9, 6.0, 9000.0, 0.01, constants.M_E, constants.E),
        {"omega_z": math.inf}, "omega_z must be finite",
    ),
    "RingMagnet": (
        lambda: magnetics.RingMagnet(5e-3, 1.5e-2, 5e-3, 1.9e6),
        {"height": 0.0}, "height must be positive",
    ),
    "ExchangeParams": (
        lambda: protocol.ExchangeParams(10.0, 1.0, 0.5, 0.6),
        {"n_bar": -1.0}, "n_bar must be non-negative",
    ),
    "TwoModeState": (
        lambda: dynamics.TwoModeState.fock(2, 1, 0),
        {"n_max": 3}, "rho must be 16x16 for n_max=3",
    ),
    "DetectionModel": (
        lambda: protocol.DetectionModel(0.05, 0.8, 10.0),
        {"averaging_time": 0.0}, "averaging_time must be positive",
    ),
    "DriveModel": (
        lambda: protocol.DriveModel((0.0, 1.0)),
        {"profile": "lorentzian"}, "profile must be 'exponential' or 'gaussian'",
    ),
    "ProtocolConfig": (
        _paper_protocol, {"cycles": 0}, "cycles must be at least 1",
    ),
    "Lineshape": (
        lambda: protocol.Lineshape(np.zeros(2), np.full(2, 0.5), np.full(2, 0.1), 10),
        {"fractions": np.array([0.5, 1.5])}, "fractions must lie in [0, 1]",
    ),
}


def test_every_checked_record_has_a_case():
    assert {c.__name__ for c in constants.Checked.__subclasses__()} == set(CHECKED_CASES)


@pytest.mark.parametrize("name", sorted(CHECKED_CASES))
def test_checked_record_rejects_bad_value_built_and_replaced(name):
    make, bad, message = CHECKED_CASES[name]
    record = make()
    assert type(record).__name__ == name
    assert type(record)(*record) == record
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        type(record)(**{**record._asdict(), **bad})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        record._replace(**bad)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        type(record)._make({**record._asdict(), **bad}.values())
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])


def test_calibration_rejects_a_non_finite_magnetization():
    ring = magnetics.RingMagnet.saturated(5e-3, 1.5e-2, 5e-3)
    with pytest.raises(ValueError, match="^magnetization must be finite$"):
        ring.calibrated_to(1e308)
