"""Equivalent-circuit model of the two-trap coupling network.

A parallel LCR resonator (the shared detection/coupling circuit) presents a
Lorentzian impedance Z(w) = [1/R_p + i w C_p + 1/(i w L_p)]^-1 to the
coupling wire. Each trapped particle's axial mode is the series-mode
equivalent l = m (2 d_eff / q)^2, c = 1/(l w_z0^2). Detuning the resonator
below the common axial frequency makes the circuit capacitive
(|Im Z| >> Re Z); the reactive part then mediates a coherent quantum
exchange between the two axial modes at

    w_ex = |Im Z(w_z)| / (2 sqrt(l_L l_S)),   t_ex = pi / (2 w_ex),

while the resistive part damps each mode at Re Z(w_z) / l_i. The product
t_ex * n_bar * Gamma (exchange time, thermal occupation of the bath, worst
damping rate) is the feasibility figure of merit: the exchange is reliable
when it is well below one.
"""

import math
from typing import NamedTuple

from .constants import HBAR, K_B, Checked

__all__ = [
    "ResonatorParams",
    "TrapParams",
    "SeriesModeEquivalent",
    "ExchangeBudget",
    "impedance",
    "series_equivalent",
    "exchange_rate",
    "exchange_time",
    "thermal_occupation",
    "OccupationOverflow",
    "UncoupledInput",
    "common_axial_frequency",
    "qls_budget",
    "optimize_detuning",
    "FEASIBILITY_THRESHOLD",
]

FEASIBILITY_THRESHOLD = 1.0  # an exchange is feasible iff its figure lies below


class _ResonatorFields(NamedTuple):
    L_p: float  # [H]
    C_p: float  # [F]
    R_p: float  # [Ohm]


class ResonatorParams(Checked, _ResonatorFields):
    """Parallel LCR resonator: inductance, capacitance, parallel resistance."""

    __slots__ = ()

    def _check(self) -> None:
        for name in ("L_p", "C_p", "R_p"):
            if getattr(self, name) <= 0:
                raise ValueError(f"resonator {name} must be positive")

    @property
    def omega_res(self) -> float:
        """Center frequency 1/sqrt(L_p C_p) [rad/s]."""
        return 1.0 / math.sqrt(self.L_p * self.C_p)

    @property
    def delta_omega_res(self) -> float:
        """Full width 1/(C_p R_p) [rad/s]."""
        return 1.0 / (self.C_p * self.R_p)

    @property
    def quality_factor(self) -> float:
        """Q = R_p * omega_res * C_p = omega_res / delta_omega_res."""
        return self.R_p * self.omega_res * self.C_p

    @staticmethod
    def time_constant(C_p: float, R_p: float) -> float:
        """C_p * R_p, the inverse of the resonator's linewidth [s]."""
        if not 0.0 < (tau := C_p * R_p) < math.inf:  # blame the smaller, or the larger
            culprit = "R_p" if (R_p < C_p) == (tau == 0.0) else "C_p"
            raise ValueError(f"{culprit} puts C_p * R_p beyond the float range")
        return tau

    @classmethod
    def detuned_below(
        cls, C_p: float, R_p: float, omega_z: float, detune_linewidths: float
    ) -> "ResonatorParams":
        """Solve for L_p so that omega_res sits the requested number of line
        widths below omega_z (the trap-voltage retuning convention)."""
        if detune_linewidths <= 0:
            raise ValueError("detuning must be positive (resonator below omega_z)")
        if omega_z <= 0:
            raise ValueError("omega_z must be positive")
        width = 1.0 / cls.time_constant(C_p, R_p)
        omega_res = omega_z - detune_linewidths * width
        if omega_res <= 0:
            raise ValueError("places omega_res at or below zero")
        if not 0.0 < (square := omega_res * omega_res) * C_p < math.inf:  # ** would raise
            culprit = "omega_z" if math.isinf(square) else "C_p"
            raise ValueError(f"{culprit} puts omega_res**2 * C_p beyond the float range")
        placed = cls(L_p=1.0 / (square * C_p), C_p=C_p, R_p=R_p)
        if math.isinf(placed.quality_factor):  # R_p omega_res C_p
            culprit = "R_p" if R_p > C_p else "C_p"
            raise ValueError(f"{culprit} puts the quality factor beyond the float range")
        return placed


class _TrapFields(NamedTuple):
    d_eff: float     # effective trap size [m]
    omega_z: float   # resonator-shifted axial frequency [rad/s]
    B: float         # axial magnetic field [T]
    B2_local: float  # local quadratic field gradient [T/m^2]
    T_axial: float   # axial mode temperature [K]
    m: float         # particle mass [kg]
    q: float         # particle charge [C]


class TrapParams(Checked, _TrapFields):
    """One trap's geometry, operating point and trapped particle."""

    __slots__ = ()

    def _check(self) -> None:
        if self.d_eff <= 0:
            raise ValueError("d_eff must be positive")
        try:
            l = _series_l(self)
        except OverflowError:
            l = math.inf
        if not 0.0 < l < math.inf:
            raise ValueError("d_eff puts l = m (2 d_eff / q)^2 outside the float range")
        if self.omega_z <= 0:
            raise ValueError("omega_z must be positive")
        if not math.isfinite(self.omega_z):
            raise ValueError("omega_z must be finite")
        if self.B <= 0:
            raise ValueError("B must be positive")
        if not 0.0 < abs(self.q) * self.B / self.m < math.inf:
            raise ValueError("B puts the cyclotron frequency q B / m outside the float range")
        if self.T_axial < 0:
            raise ValueError("T_axial must be non-negative")


class SeriesModeEquivalent(NamedTuple):
    """Series-lc equivalent of one axial mode; l*c*omega_z0^2 = 1."""

    l: float         # [H]
    c: float         # [F]
    omega_z0: float  # bare axial frequency without the resonator [rad/s]


class ExchangeBudget(NamedTuple):
    """Derived exchange/dissipation numbers for one operating point.

    `figure` is t_ex * n_bar * gamma by construction, and `feasible` is set
    iff figure < FEASIBILITY_THRESHOLD. gamma_L/gamma_S are the two
    single-mode damping rates whose max is `gamma`; they feed the closed-form
    swap probability directly.
    """

    z_at_omega_z: complex   # resonator impedance at the operating point [Ohm]
    c_T: float              # capacitive-limit replacement 1/(w_z |Im Z|) [F]
    omega_ex: float         # exchange rate [rad/s]
    t_ex: float             # full exchange time pi/(2 w_ex) [s]
    gamma: float            # max single-mode dissipation rate [1/s]
    n_bar: float            # thermal occupation of the axial bath
    figure: float           # t_ex * n_bar * gamma
    gamma_L: float          # logic-branch damping Re Z / l_L [1/s]
    gamma_S: float          # spectroscopy-branch damping Re Z / l_S [1/s]
    l_L: float              # logic series inductance [H]
    l_S: float              # spectroscopy series inductance [H]
    resonator: ResonatorParams  # as placed, the one the budget was given
    feasible: bool


def impedance(res: ResonatorParams, omega: float) -> complex:
    """Complex impedance of the parallel LCR at angular frequency omega.

    Z(w) = [1/R_p + i w C_p + 1/(i w L_p)]^-1. Purely real (= R_p) at
    omega_res; inductive (Im > 0) below, capacitive (Im < 0) above.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    admittance = 1.0 / res.R_p + 1j * omega * res.C_p + 1.0 / (1j * omega * res.L_p)
    return 1.0 / admittance


def _series_l(trap: TrapParams) -> float:
    return trap.m * (2.0 * trap.d_eff / trap.q) ** 2


def series_equivalent(trap: TrapParams, z_im: float = 0.0) -> SeriesModeEquivalent:
    """Series-mode equivalent of the trap's particle.

    l = m (2 d_eff / q)^2. The resonator pulls the axial frequency by
    -Im[Z(w_z)]/l, so the bare frequency that the trap voltage must realize
    is omega_z0 = omega_z + Im[Z(w_z)]/l; c follows from l c omega_z0^2 = 1.
    """
    l = _series_l(trap)
    omega_z0 = trap.omega_z + z_im / l
    if omega_z0 <= 0:
        raise ValueError("frequency pulling drives the bare axial frequency negative")
    return SeriesModeEquivalent(l=l, c=1.0 / (l * omega_z0**2), omega_z0=omega_z0)


def exchange_rate(z_im_abs: float, l_L: float, l_S: float) -> float:
    """Exchange rate |Im Z(w_z)| / (2 sqrt(l_L l_S)) in rad/s."""
    if l_L <= 0 or l_S <= 0:
        raise ValueError("series inductances must be positive")
    if z_im_abs < 0:
        raise ValueError("z_im_abs is a magnitude and must be non-negative")
    return z_im_abs / (2.0 * math.sqrt(l_L * l_S))


def exchange_time(omega_ex: float) -> float:
    """Full swap time pi/(2 omega_ex) in seconds."""
    if omega_ex <= 0:
        raise ValueError("omega_ex must be positive")
    return math.pi / (2.0 * omega_ex)


class OccupationOverflow(OverflowError):
    """The thermal occupation, or the budget figure it scales, lies beyond
    the float range."""


class UncoupledInput(ValueError):
    """The input of `qls_budget` that `culprit` names ("res", "trap_L",
    "trap_S" or "traps") admits no exchange: Im Z(w_z) vanishes or the
    exchange rate |Im Z| / (2 sqrt(l_L l_S)) rounds to zero (both "res"; it
    is "traps" where l_L l_S overflows), or the pulling drives that trap's
    bare axial frequency to or below zero."""

    def __init__(self, culprit: str, message: str):
        super().__init__(message)
        self.culprit = culprit


def thermal_occupation(omega_z: float, T: float) -> float:
    """Bose-Einstein occupation 1/[exp(hbar w / k_B T) - 1]; zero at T=0.

    Raises OccupationOverflow where k_B T / (hbar w) exceeds the float range.
    """
    if omega_z <= 0:
        raise ValueError("omega_z must be positive")
    if T < 0:
        raise ValueError("temperature must be non-negative")
    if K_B * T == 0.0:  # T = 0, or k_B T underflows: the occupation is zero
        return 0.0
    try:
        n_bar = 1.0 / math.expm1(HBAR * omega_z / (K_B * T))
    except OverflowError:  # hbar w / k_B T > ~709.8: the occupation underflows
        return 0.0
    if math.isinf(n_bar):  # 1 / expm1 of a subnormal
        raise OccupationOverflow("thermal occupation overflows")
    return n_bar


def common_axial_frequency(trap_L: TrapParams, trap_S: TrapParams) -> float:
    """The axial frequency both traps are tuned to, the logic trap's omega_z;
    raises ValueError when the two differ beyond rounding."""
    if not math.isclose(trap_L.omega_z, trap_S.omega_z, rel_tol=1e-12):
        raise ValueError("both traps must be tuned to the same axial frequency")
    return trap_L.omega_z


def qls_budget(
    res: ResonatorParams, trap_L: TrapParams, trap_S: TrapParams, T: float
) -> ExchangeBudget:
    """Compose impedance -> series equivalents -> exchange budget for the
    resonator `res` as placed (see ResonatorParams.detuned_below) and the
    traps' common axial frequency. Raises UncoupledInput naming the input
    that admits no exchange, and OccupationOverflow where n_bar or the
    figure lies beyond the float range.

    Returns an ExchangeBudget; `feasible` is set iff
    t_ex * n_bar * gamma < FEASIBILITY_THRESHOLD.
    """
    omega_z = common_axial_frequency(trap_L, trap_S)
    z = impedance(res, omega_z)
    z_im_abs = abs(z.imag)
    if z_im_abs == 0.0:
        raise UncoupledInput(
            "res", "Im Z(omega_z) vanishes; no reactive coupling at this detuning"
        )
    eq = {}
    for culprit, trap in (("trap_L", trap_L), ("trap_S", trap_S)):
        try:
            eq[culprit] = series_equivalent(trap, z_im=z.imag)
        except ValueError as exc:  # the pulling drives its bare frequency negative
            raise UncoupledInput(culprit, str(exc)) from None
    eq_L, eq_S = eq["trap_L"], eq["trap_S"]
    w_ex = exchange_rate(z_im_abs, eq_L.l, eq_S.l)
    if w_ex == 0.0:
        if math.isinf(eq_L.l * eq_S.l):  # the traps, not Im Z, zero the rate
            raise UncoupledInput(
                "traps", "l_L * l_S of the two traps overflows; the exchange rate rounds to zero"
            )
        raise UncoupledInput("res", "the exchange rate underflows to zero")
    t_ex = exchange_time(w_ex)
    gamma_L = z.real / eq_L.l
    gamma_S = z.real / eq_S.l
    gamma = max(gamma_L, gamma_S)
    n_bar = thermal_occupation(omega_z, T)
    figure = t_ex * n_bar * gamma
    if not math.isfinite(figure):
        raise OccupationOverflow("budget figure overflows")
    return ExchangeBudget(
        z_at_omega_z=z,
        c_T=1.0 / (omega_z * z_im_abs),
        omega_ex=w_ex,
        t_ex=t_ex,
        gamma=gamma,
        n_bar=n_bar,
        figure=figure,
        gamma_L=gamma_L,
        gamma_S=gamma_S,
        l_L=eq_L.l,
        l_S=eq_S.l,
        resonator=res,
        feasible=figure < FEASIBILITY_THRESHOLD,
    )


def optimize_detuning(
    res: ResonatorParams,
    trap_L: TrapParams,
    trap_S: TrapParams,
    T: float,
    constraint: float,
) -> float | None:
    """Smallest detuning [line widths] whose figure meets `constraint`.

    The figure t_ex * n_bar * gamma is K / (R_p |B|), with
    K = pi n_bar sqrt(l_L l_S) / min(l_L, l_S) and the resonator
    susceptance B = C_p (w_z^2 - w_res^2) / w_z at
    w_res = w_z - detuning / (C_p R_p). It falls strictly as the detuning
    grows, so figure = constraint inverts exactly: w_res^2 = w_z^2 - x with
    x = w_z K / (C_p R_p constraint), and
    detuning = C_p R_p x / (w_z + sqrt(w_z^2 - x)), a form free of the
    cancellation in w_z - w_res. Returns None when x >= w_z^2 (w_res would
    reach zero). At n_bar = 0 (T = 0) every positive detuning meets the
    constraint, and the result is 0.0.
    """
    if not 0.0 < constraint < 1.0:
        raise ValueError("constraint must lie in (0, 1)")
    omega_z = common_axial_frequency(trap_L, trap_S)
    l_L = series_equivalent(trap_L).l
    l_S = series_equivalent(trap_S).l
    k = math.pi * thermal_occupation(omega_z, T) * math.sqrt(l_L * l_S) / min(l_L, l_S)
    tau = res.C_p * res.R_p
    x = omega_z * k / (tau * constraint)
    if x >= omega_z**2:
        return None
    return tau * x / (omega_z + math.sqrt(omega_z**2 - x))
