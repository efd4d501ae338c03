"""Physical constants (frozen CODATA 2018 snapshot) and unit conventions.

Every quantity in this package is SI. Angular frequencies are rad/s
internally; anything quoted in Hz crosses the boundary through
``hz_to_angular`` / ``angular_to_hz`` exactly once.

The package's records are named tuples; `Checked` validates the ones whose
values have a range.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi

# Values frozen from the CODATA 2018 adjustment; scipy tracks newer
# adjustments, so these are pinned here to keep golden numbers bit-stable.
E = 1.602176634e-19        # elementary charge [C]
M_E = 9.1093837015e-31     # electron mass [kg]
HBAR = 1.054571817e-34     # reduced Planck constant [J s]
K_B = 1.380649e-23         # Boltzmann constant [J/K]
C_LIGHT = 299792458.0      # speed of light [m/s]
M_P = 1.67262192369e-27    # proton mass [kg]
G_E = 2.00231930436256     # electron g-factor magnitude (dimensionless)

# (mass [kg], |charge| [C]) presets accepted in scenario files
PARTICLES: dict[str, tuple[float, float]] = {
    "electron": (M_E, E),
    "positron": (M_E, E),
    "proton": (M_P, E),
}


def hz_to_angular(f: float) -> float:
    """Convert a frequency in Hz to rad/s (multiply by 2*pi)."""
    return TWO_PI * f


def angular_to_hz(omega: float) -> float:
    """Convert an angular frequency in rad/s to Hz (divide by 2*pi)."""
    return omega / TWO_PI


def cyclotron_frequency(B: float, q: float = E, m: float = M_E) -> float:
    """Cyclotron frequency |q|B/m in rad/s for a charge q in field B.

    B and m must be positive; q may carry either sign.
    """
    if B <= 0:
        raise ValueError("magnetic field must be positive")
    if m <= 0:
        raise ValueError("mass must be positive")
    if q == 0:
        raise ValueError("charge must be nonzero")
    return abs(q) * B / m


def particle_mass_charge(name: str) -> tuple[float, float]:
    """Look up the (mass, |charge|) preset for a particle name."""
    try:
        return PARTICLES[name]
    except KeyError:
        raise ValueError(
            f"unknown particle {name!r}; expected one of {sorted(PARTICLES)}"
        ) from None


class Checked:
    """Mixin that validates a named-tuple record on every construction.

    A record puts it before its NamedTuple base, `class R(Checked, _RFields)`,
    declares `__slots__ = ()` and defines `_check`, which raises ValueError.
    `_replace` builds through `_make`, so a replaced record is checked too.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
