"""Physical constants (frozen CODATA 2018 snapshot) and unit conventions.

Every quantity in this package is SI. Angular frequencies are rad/s
internally; anything quoted in Hz crosses the boundary through
``hz_to_angular`` / ``angular_to_hz`` exactly once.

The package's records are named tuples, one class each. A record declares
a field's interval on the field's own line, `Annotated[float, POSITIVE]`,
with the same `Range` as the schema's leaves; `@checked` tests those
ranges, then the record's `_check`, on every construction. A function tests
its arguments with the same ranges through `Range.check`, as
`POSITIVE.check("T", T)`, and NaN fails every range.
`linspace` gives the evenly spaced grids of the field profile, a sweep and
the drive, bit for bit as numpy would, without numpy.
"""

import functools
import math
import sys
from typing import NamedTuple

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


class Range(NamedTuple):
    """The closed interval lo <= x <= hi a number accepts: a schema leaf's,
    or a record field's declared as `Annotated[float, <Range>]`."""

    lo: float
    hi: float
    text: str  # the error message

    def check(self, name: str, value: float) -> None:
        """Raise ValueError("<name> <text>") unless lo <= value <= hi; NaN fails."""
        if not self.lo <= value <= self.hi:
            raise ValueError(f"{name} {self.text}")


# math.ulp(0.0) is the least positive float, so lo <= x means x > 0
POSITIVE = Range(math.ulp(0.0), math.inf, "must be positive")
NON_NEGATIVE = Range(0.0, math.inf, "must be non-negative")
PROBABILITY = Range(0.0, 1.0, "must lie in [0, 1]")
FINITE = Range(-sys.float_info.max, sys.float_info.max, "must be finite")


def hz_to_angular(f: float) -> float:
    """Convert a frequency in Hz to rad/s (multiply by 2*pi)."""
    return TWO_PI * f


def angular_to_hz(omega: float) -> float:
    """Convert an angular frequency in rad/s to Hz (divide by 2*pi)."""
    return omega / TWO_PI


def cyclotron_frequency(B: float, q: float = E, m: float = M_E) -> float:
    """Cyclotron frequency |q|B/m in rad/s for a charge q in field B.

    B and m must be positive; q is finite and nonzero, of either sign.
    """
    POSITIVE.check("B", B)
    FINITE.check("q", q)
    if q == 0:
        raise ValueError("q must be nonzero")
    POSITIVE.check("m", m)
    return abs(q) * B / m


def particle_mass_charge(name: str) -> tuple[float, float]:
    """Look up the (mass, |charge|) preset for a particle name."""
    try:
        return PARTICLES[name]
    except KeyError:
        raise ValueError(
            f"unknown particle {name!r}; expected one of {sorted(PARTICLES)}"
        ) from None


def linspace(start: float, stop: float, num: int) -> list[float]:
    """`num` evenly spaced floats from `start` to `stop`, both included.

    The same arithmetic as `numpy.linspace`, so the values agree bit for
    bit: i * step + start, with i / (num - 1) * (stop - start) + start where
    the step underflows to zero, and the last value set to `stop`.
    """
    NON_NEGATIVE.check("num", num)
    start, stop = float(start), float(stop)
    delta = stop - start
    if num <= 1:
        return [0.0 * delta + start] * num
    div = num - 1
    step = delta / div
    if step == 0.0:
        values = [i / div * delta + start for i in range(num)]
    else:
        values = [i * step + start for i in range(num)]
    values[-1] = stop
    return values


def checked(cls):
    """Check a NamedTuple record on every construction, `_replace` included:
    each `Range` its fields are annotated with, in field order, then its
    `_check` if it has one; either raises ValueError. The constructor keeps
    its signature."""
    new, check = cls.__new__, getattr(cls, "_check", None)
    ranges = tuple(
        (i, name, bound)
        for i, name in enumerate(cls._fields)
        for bound in getattr(cls.__annotations__[name], "__metadata__", ())
        if isinstance(bound, Range)
    )

    @functools.wraps(new)
    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        for i, name, bound in ranges:
            bound.check(name, self[i])
        if check is not None:
            check(self)
        return self

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls
