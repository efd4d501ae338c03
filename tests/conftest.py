import math

import pytest

from wireqls import circuit
from wireqls.constants import E, M_E, TWO_PI

# Worked electron operating point used across the suite.
C_P = 10e-12
R_P = 500e3
OMEGA_Z = TWO_PI * 200e6
DETUNE = 30.0
T_ENV = 0.010


@pytest.fixture(scope="session")
def trap_logic() -> circuit.TrapParams:
    return circuit.TrapParams(
        d_eff=1e-3, omega_z=OMEGA_Z, B=6.0, B2_local=9000.0,
        T_axial=T_ENV, m=M_E, q=E,
    )


@pytest.fixture(scope="session")
def trap_spectroscopy() -> circuit.TrapParams:
    return circuit.TrapParams(
        d_eff=3e-3, omega_z=OMEGA_Z, B=6.0, B2_local=4.0,
        T_axial=T_ENV, m=M_E, q=E,
    )


@pytest.fixture(scope="session")
def stock_resonator() -> circuit.ResonatorParams:
    return circuit.ResonatorParams.detuned_below(C_P, R_P, OMEGA_Z, DETUNE)


@pytest.fixture(scope="session")
def paper_budget(stock_resonator, trap_logic, trap_spectroscopy) -> circuit.ExchangeBudget:
    return circuit.qls_budget(
        stock_resonator, trap_logic, trap_spectroscopy, T_ENV, DETUNE
    )


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def assert_rel(value: float, reference: float, tol: float) -> None:
    assert rel_err(value, reference) <= tol, (
        f"{value!r} vs {reference!r} (rel err {rel_err(value, reference):.3g} > {tol})"
    )


def bose(omega: float, temperature: float) -> float:
    """Independent Bose-occupation oracle used by the budget tests."""
    from wireqls.constants import HBAR, K_B

    if temperature == 0.0:
        return 0.0
    return 1.0 / (math.exp(HBAR * omega / (K_B * temperature)) - 1.0)
