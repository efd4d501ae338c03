"""Single-trap frequency shifts, linewidths, and the heating estimate.

A quadratic field gradient B2 couples the cyclotron and spin quantum
numbers to the axial frequency,

    w_z(n_c, m_s) = w_z0 + delta * (n_c + 1/2 + (g/2) m_s),
    delta = hbar q B2 / (m^2 w_z),

so a single quantum jump moves w_z by delta. The same gradient couples to
the thermal axial amplitude <z^2> = k_B T_z / (m w_z^2) and broadens the
cyclotron line by Delta_w_c = q B2 <z^2> / m. Anomalous motional heating
is estimated from a scaled electric-field noise density converted through
Gamma_h = q^2 S_E(w) / (4 m hbar w).
"""

from typing import NamedTuple

from .circuit import TrapParams
from .constants import E, HBAR, K_B, M_E, NON_NEGATIVE, POSITIVE, TWO_PI

__all__ = [
    "ShiftSet",
    "HeatingModel",
    "bottle_delta",
    "cyclotron_broadening",
    "electric_field_noise",
    "heating_rate",
    "shift_set_for_trap",
]


class ShiftSet(NamedTuple):
    """Per-trap shift/linewidth bundle; delta carries the sign of B2."""

    delta: float       # bottle shift per quantum [rad/s]
    broadening: float  # thermal cyclotron linewidth [rad/s]


class HeatingModel(NamedTuple):
    """Scaled electric-field noise density.

    S_E(w, d, T) = S_E_ref * (f/ref_freq)^freq_exp * (d/ref_dist)^dist_exp
                 * (T/ref_temp)^temp_exp, with f = w/2pi. Defaults encode
    the conservative trap-noise scaling: 1e-12 V^2 m^-2 Hz^-1 at 1 MHz,
    100 um, 6 K, falling as 1/f and 1/d^2 and rising as sqrt(T).
    """

    S_E_ref: float = 1e-12     # [V^2 m^-2 Hz^-1]
    freq_exp: float = -1.0
    dist_exp: float = -2.0
    temp_exp: float = 0.5
    ref_freq: float = 1e6      # [Hz]
    ref_dist: float = 100e-6   # [m]
    ref_temp: float = 6.0      # [K]


def bottle_delta(B2: float, omega_z: float, m: float = M_E, q: float = E) -> float:
    """Bottle shift per quantum, hbar |q| B2 / (m^2 omega_z) [rad/s]."""
    POSITIVE.check("omega_z", omega_z)
    return HBAR * abs(q) * B2 / (m**2 * omega_z)


def cyclotron_broadening(
    B2: float, T_z: float, omega_z: float, m: float = M_E, q: float = E
) -> float:
    """Thermal cyclotron linewidth (q B2 / m) * k_B T_z / (m omega_z^2)."""
    NON_NEGATIVE.check("T_z", T_z)
    POSITIVE.check("omega_z", omega_z)
    return abs(q) * B2 / m * (K_B * T_z / (m * omega_z**2))


def electric_field_noise(
    model: HeatingModel, omega_z: float, d_eff: float, T: float
) -> float:
    """Evaluate the scaled noise density S_E at (omega_z, d_eff, T)."""
    POSITIVE.check("omega_z", omega_z)
    POSITIVE.check("d_eff", d_eff)
    POSITIVE.check("T", T)
    f = omega_z / TWO_PI
    return (
        model.S_E_ref
        * (f / model.ref_freq) ** model.freq_exp
        * (d_eff / model.ref_dist) ** model.dist_exp
        * (T / model.ref_temp) ** model.temp_exp
    )


def heating_rate(
    model: HeatingModel,
    omega_z: float,
    d_eff: float,
    T: float,
    m: float = M_E,
    q: float = E,
) -> float:
    """Motional heating rate in quanta/s.

    Converts the field-noise density through the standard single-mode
    relation Gamma_h = q^2 S_E(omega_z) / (4 m hbar omega_z). The noise
    density itself gives only S_E; this conversion is the conventional
    ion-trap one and is the implementer-supplied step here.
    """
    s_e = electric_field_noise(model, omega_z, d_eff, T)
    return q**2 * s_e / (4.0 * m * HBAR * omega_z)


def shift_set_for_trap(trap: TrapParams) -> ShiftSet:
    """Bundle the shift and linewidth of the trap's particle."""
    m, q = trap.m, trap.q
    return ShiftSet(
        delta=bottle_delta(trap.B2_local, trap.omega_z, m=m, q=q),
        broadening=cyclotron_broadening(
            trap.B2_local, trap.T_axial, trap.omega_z, m=m, q=q
        ),
    )
