"""On-axis field and gradients of a uniformly magnetized ring magnet.

The bottle ring is an annular cylinder with uniform axial magnetization M.
In the magnetic-charge picture it is equivalent to two uniformly charged
annular disks (surface density +M on the top face, -M on the bottom), and
the on-axis field of a charged annulus has the closed form

    B_face(u) = (mu0 M / 2) * [u/sqrt(u^2 + a^2) - u/sqrt(u^2 + b^2)],

with a, b the inner and outer radii and u the axial distance from the face.
The total field is the top-face term minus the bottom-face term; it is
smooth everywhere on the axis (a > 0 keeps the axis away from the charge),
so the gradients B1 = dB/dz and B2 = (1/2) d^2B/dz^2 follow by direct
differentiation. B2 as stored includes that factor 1/2.

Everything is linear in M, so ratios of field values between positions are
pure geometry; `RingMagnet.calibrated_to` exploits this to pin B2 at the
trap center to a target value.

The field is evaluated with arithmetic operators only: a float position
gives floats without numpy, and an ndarray of positions gives ndarrays.
`field_profile` yields one row (z, B, B1, B2) per position as it is taken,
so `write_profile_csv` streams a profile of any length in constant memory.
"""

import math
from collections.abc import Iterable
from typing import IO, NamedTuple

from .constants import Checked

__all__ = [
    "MU0_M_SATURATION",
    "RingMagnet",
    "on_axis_field",
    "gradients",
    "fd_gradients",
    "field_profile",
    "write_profile_csv",
]

MU_0 = 4e-7 * math.pi  # vacuum permeability [H/m]

# Saturation polarization mu0*M of the cobalt-iron class [T]; a strongly
# susceptible ring in a tesla-scale background is fully saturated.
MU0_M_SATURATION = 2.35


class _RingFields(NamedTuple):
    r_in: float           # inner radius [m]
    r_out: float          # outer radius [m]
    height: float         # axial extent [m]
    magnetization: float  # axial magnetization M [A/m]
    center_z: float = 0.0


class RingMagnet(Checked, _RingFields):
    """Uniformly axially magnetized annular cylinder."""

    __slots__ = ()

    def _check(self) -> None:
        if not 0.0 < self.r_in < self.r_out:
            raise ValueError("require 0 < r_in < r_out")
        try:  # the axis's largest terms: a position on a face, u = 0
            _face_term(0.0, self.r_in**2)
        except ArithmeticError:
            raise ValueError("r_in outside the float range of the face terms") from None
        if self.height <= 0:
            raise ValueError("height must be positive")
        if not math.isfinite(self.magnetization):
            raise ValueError("magnetization must be finite")

    @classmethod
    def saturated(
        cls,
        r_in: float,
        r_out: float,
        height: float,
        mu0_m: float = MU0_M_SATURATION,
        center_z: float = 0.0,
    ) -> "RingMagnet":
        """Ring at full saturation, specified by mu0*M in tesla."""
        return cls(r_in, r_out, height, mu0_m / MU_0, center_z)

    def calibrated_to(self, b2_target: float) -> "RingMagnet":
        """Rescale M so that B2 equals `b2_target` at the ring center.

        Linearity in M makes this a pure rescaling; the field shape is
        untouched.
        """
        _, b2 = gradients(self, self.center_z)
        if b2 == 0.0:
            raise ValueError("B2 vanishes at the calibration point")
        return self._replace(magnetization=self.magnetization * b2_target / b2)


def _face_term(u, r2):
    # u / sqrt(u^2 + r^2) and its first two derivatives, for one radius
    inv = (u * u + r2) ** -0.5
    return u * inv, r2 * inv**3, -3.0 * r2 * u * inv**5


def _derivatives(ring: RingMagnet, z):
    """B, dB/dz, d2B/dz2 of the ring's own on-axis field."""
    scale = 0.5 * MU_0 * ring.magnetization
    a2 = ring.r_in**2
    b2 = ring.r_out**2
    u_top = z - (ring.center_z + 0.5 * ring.height)
    u_bot = z - (ring.center_z - 0.5 * ring.height)
    ta0, ta1, ta2 = _face_term(u_top, a2)
    tb0, tb1, tb2 = _face_term(u_top, b2)
    ba0, ba1, ba2 = _face_term(u_bot, a2)
    bb0, bb1, bb2 = _face_term(u_bot, b2)
    field = scale * ((ta0 - tb0) - (ba0 - bb0))
    d1 = scale * ((ta1 - tb1) - (ba1 - bb1))
    d2 = scale * ((ta2 - tb2) - (ba2 - bb2))
    return field, d1, d2


def on_axis_field(ring: RingMagnet, z):
    """On-axis field B_z(z) of the ring in tesla.

    Accepts a float or an ndarray of positions; decays like |z|^-3 far away
    (dipole limit) and is even about the ring midplane.
    """
    return _derivatives(ring, z)[0]


def gradients(ring: RingMagnet, z):
    """(B1, B2) = (dB/dz, (1/2) d^2B/dz^2) at z, analytically.

    B1 is odd and B2 even about the ring midplane; both scale linearly
    with the magnetization.
    """
    _, d1, d2 = _derivatives(ring, z)
    return d1, 0.5 * d2


def fd_gradients(ring: RingMagnet, z: float, step: float | None = None):
    """(B1, B2) by Richardson-extrapolated central differences.

    Independent check of the analytic derivative path; intended as a test
    oracle. `step` defaults to a small fraction of the local length scale
    (good to ~1e-8 relative within a few ring diameters; roundoff degrades
    it in the far tail where the field has decayed away). Raises if the
    step underflows at the evaluation point.
    """
    h = step if step is not None else max(ring.r_out, abs(z - ring.center_z)) * 5e-3
    if z + h == z or z + 0.5 * h == z:
        raise ValueError("finite-difference step underflows at this z")

    def d1(hh):
        return (on_axis_field(ring, z + hh) - on_axis_field(ring, z - hh)) / (2.0 * hh)

    def d2(hh):
        return (
            on_axis_field(ring, z + hh)
            - 2.0 * on_axis_field(ring, z)
            + on_axis_field(ring, z - hh)
        ) / hh**2

    # one Richardson level removes the O(h^2) error term of both stencils
    b1 = (4.0 * d1(0.5 * h) - d1(h)) / 3.0
    b2 = (4.0 * d2(0.5 * h) - d2(h)) / 3.0
    return b1, 0.5 * b2


def field_profile(ring: RingMagnet, z, background: float = 0.0):
    """Yield the row (z, B, B1, B2) at each position of `z`, computed as it
    is taken; `background` adds a uniform solenoid field to B and leaves the
    gradients untouched. B2 carries the (1/2) d^2B/dz^2 convention."""
    for v in map(float, z):
        field, d1, d2 = _derivatives(ring, v)
        yield v, field + background, d1, 0.5 * d2


def write_profile_csv(
    rows: Iterable[tuple[float, float, float, float]],
    stream: IO[str],
    markers: dict[str, float] | None = None,
) -> None:
    """Write the profile rows (z, B, B1, B2) in order as CSV in SI units.

    `markers` maps row labels (e.g. trap sites) to positions; a row whose z
    lies within 1e-15 m of markers carries their labels, joined by `+` in
    the order given, in a trailing `site` column.
    """
    marks = (markers or {}).items()
    stream.write("z_m,B_T,B1_T_per_m,B2_T_per_m2,site\n")
    for z, b, b1, b2 in rows:
        site = "+".join([label for label, mz in marks if abs(z - mz) <= 1e-15])
        stream.write(f"{float(z)!r},{float(b)!r},{float(b1)!r},{float(b2)!r},{site}\n")
