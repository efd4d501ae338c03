"""State machine and Monte Carlo for the seven-step readout sequence.

One spectroscopy cycle:

  (i)   decouple from the resonator, sideband-cool both axial modes
        (residual thermal occupation survives with the configured n_bar);
  (ii)  apply the spectroscopy drive near the cyclotron line, exciting
        n_c: 0 -> 1 with a probability given by the drive lineshape at the
        current detuning (thermally broadened profile, drifted by magnet
        field noise);
  (iii) sideband pi-pulse on the spectroscopy particle,
        |n_z, n_c> = |0, 1> -> |1, 0>, conditional on n_c = 1;
  (iv)  close the switches: the wire exchanges the axial quanta of the two
        particles with the swap probability from the open-system model;
  (v)   sideband pi-pulse on the logic particle, |1, 0> -> |0, 1>;
  (vi)  measure the logic particle's axial frequency; the bottle shift
        reveals n_c^L, with Gaussian frequency noise set by the averaging
        time, thresholded into a declared jump;
  (vii) bookkeeping and return to (i).

Stage failures are silent (nothing is heralded before step vi). Cycles at
distinct detuning points use independent RNG streams derived from
(seed, point index), so scans are reproducible and order independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics
from .circuit import ExchangeBudget
from .constants import G_E
from .spectroscopy import ShiftSet

__all__ = [
    "DetectionModel",
    "DriveModel",
    "ProtocolConfig",
    "ProtocolRecords",
    "Lineshape",
    "TimingBudget",
    "drive_probability",
    "readout_shift",
    "resolve_swap_probability",
    "point_rng",
    "simulate_point",
    "lineshape_scan",
    "analytic_jump_probability",
    "fitted_center_width",
    "center_uncertainty",
    "day_scale_center_report",
    "required_averaging_time",
    "timing_budget",
    "write_records_csv",
    "write_lineshape_csv",
]

SECONDS_PER_MINUTE = 60.0

# detection-speedup model: required averaging time is
# (2 z sigma_nu / delta)^2, floored by the measurement overhead, compared
# against a bottle DETECTION_BOTTLE_RATIO times smaller
DETECTION_SNR_Z = 3.0
DETECTION_TIME_FLOOR = 0.050  # [s]
DETECTION_BOTTLE_RATIO = 30.0

RECORDS_CHUNK = 4096  # record rows formatted per write


@dataclass(frozen=True)
class DetectionModel:
    """Axial-frequency estimator: white frequency noise over an averaging
    window, thresholded at `threshold` (conventionally delta_L/2)."""

    averaging_time: float  # [s]
    noise_density: float   # [rad/s per sqrt(Hz)]
    threshold: float       # [rad/s]

    def __post_init__(self) -> None:
        if self.averaging_time <= 0:
            raise ValueError("averaging_time must be positive")
        if self.noise_density < 0:
            raise ValueError("noise_density must be non-negative")

    @property
    def sigma(self) -> float:
        """Frequency-estimate standard deviation after averaging."""
        return self.noise_density / math.sqrt(self.averaging_time)


@dataclass(frozen=True)
class DriveModel:
    """Spectroscopy drive: detuning grid plus excitation lineshape.

    The thermal (Boltzmann) lineshape is exponential, nonzero only above
    the line center, with 1/e width equal to the trap's cyclotron
    broadening; "gaussian" is the symmetric alternative for sensitivity
    checks. `peak_probability` is the excitation probability exactly on
    the line center.
    """

    detunings: tuple[float, ...]  # drive detuning grid [rad/s]
    profile: str = "exponential"
    peak_probability: float = 1.0

    def __post_init__(self) -> None:
        if self.profile not in ("exponential", "gaussian"):
            raise ValueError("profile must be 'exponential' or 'gaussian'")
        if not 0.0 <= self.peak_probability <= 1.0:
            raise ValueError("peak_probability must lie in [0, 1]")


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything one cycle needs; see module docstring for the sequence."""

    budget: ExchangeBudget
    shifts_L: ShiftSet
    shifts_S: ShiftSet
    pi_pulse_fidelity: float
    sideband_cooling_residual: float  # residual n_bar after step (i)
    detection: DetectionModel
    drive: DriveModel
    field_noise: float                # relative field step per sqrt(minute)
    cycles: int
    seed: int
    omega_c_spec: float               # spectroscopy cyclotron frequency [rad/s]
    cooling_time: float = 0.100       # [s]
    pulse_time: float = 1e-3          # [s] per sideband pulse
    mode: str = "cyclotron"           # or "anomaly"
    swap_probability: float | None = None  # override; default from dynamics

    def __post_init__(self) -> None:
        if not 0.0 <= self.pi_pulse_fidelity <= 1.0:
            raise ValueError("pi_pulse_fidelity must lie in [0, 1]")
        if self.sideband_cooling_residual < 0:
            raise ValueError("sideband_cooling_residual must be non-negative")
        if self.cycles < 1:
            raise ValueError("cycles must be at least 1")
        if self.mode not in ("cyclotron", "anomaly"):
            raise ValueError("mode must be 'cyclotron' or 'anomaly'")
        if not 0.0 < self.detection.threshold < self.shifts_L.delta:
            raise ValueError(
                "detection threshold must lie between 0 and the logic-trap delta"
            )
        if self.field_noise < 0:
            raise ValueError("field_noise must be non-negative")
        if self.omega_c_spec <= 0:
            raise ValueError("omega_c_spec must be positive")

    @property
    def cycle_time(self) -> float:
        """Wall-clock duration of one full cycle."""
        return (
            self.cooling_time
            + 2.0 * self.pulse_time
            + self.budget.t_ex
            + self.detection.averaging_time
        )


@dataclass(frozen=True, eq=False)
class ProtocolRecords:
    """Outcome log of one point's cycles, one array entry per cycle;
    declared_jump holds exactly where the measured shift reached the
    threshold."""

    cycle: np.ndarray            # 0, 1, ..., cycles - 1
    n_c_after_drive: np.ndarray  # int
    transfer_s_ok: np.ndarray    # bool
    exchange_ok: np.ndarray      # bool
    transfer_l_ok: np.ndarray    # bool
    measured_shift: np.ndarray   # [rad/s]
    declared_jump: np.ndarray    # bool
    wall_time: np.ndarray        # cumulative at cycle end [s]


@dataclass(frozen=True)
class Lineshape:
    """Declared-jump fraction per drive detuning with binomial errors."""

    detunings: np.ndarray  # [rad/s]
    fractions: np.ndarray
    errors: np.ndarray
    cycles: int

    def __post_init__(self) -> None:
        if np.any(self.fractions < 0.0) or np.any(self.fractions > 1.0):
            raise ValueError("fractions must lie in [0, 1]")
        if np.any(self.errors < 0.0):
            raise ValueError("errors must be non-negative")


@dataclass(frozen=True)
class TimingBudget:
    """Per-stage durations and the bottle-scaling detection comparison."""

    stages: dict[str, float]
    total: float
    exchange_dominates: bool
    detection_speedup: float  # vs. a bottle DETECTION_BOTTLE_RATIO times smaller


def drive_probability(
    drive: DriveModel,
    width: float,
    detuning: float | np.ndarray,
    drift: float | np.ndarray = 0.0,
) -> float | np.ndarray:
    """Excitation probability of the drive at a detuning from the nominal
    line center, with the center displaced by `drift`; scalars or arrays.

    Exponents are clipped where the profile has already underflowed to
    zero (exp(-745.2) is the last nonzero double), so the branch np.where
    discards cannot overflow.
    """
    x = np.subtract(detuning, drift)
    if width == 0.0:
        return drive.peak_probability * (x == 0.0)
    if drive.profile == "exponential":
        decay = np.exp(-np.clip(x, 0.0, 800.0 * width) / width)
        return drive.peak_probability * np.where(x >= 0.0, decay, 0.0)
    z = np.minimum(np.abs(x), 40.0 * width) / width
    return drive.peak_probability * np.exp(-0.5 * z * z)


def readout_shift(config: ProtocolConfig) -> float:
    """True logic-trap axial shift of a completed jump, from the bottle
    shift formula.

    Cyclotron mode: one transferred cyclotron quantum, shift = delta_L
    exactly. Anomaly mode: the drive also toggles the spin flag, so the
    readout shift is the full quantum-number difference,
    delta_L * (1 + (g/2) * delta_m_s) with delta_m_s = -1 (tiny and
    negative; practical anomaly detection waits for the cyclotron decay,
    outside this machine).
    """
    delta = config.shifts_L.delta
    if config.mode == "cyclotron":
        return delta
    return delta * (1.0 - 0.5 * G_E)


def resolve_swap_probability(config: ProtocolConfig) -> float:
    """Exchange success probability for step (iv).

    Uses the configured override when present, otherwise the closed-form
    open-system swap probability at the budget's rates.
    """
    if config.swap_probability is not None:
        return config.swap_probability
    b = config.budget
    return dynamics.swap_probability(
        dynamics.ExchangeParams(b.omega_ex, b.gamma_L, b.gamma_S, b.n_bar)
    )


def _residual_excited_probability(n_bar: float) -> float:
    """P(n_z >= 1) of a thermal state with mean occupation n_bar."""
    return n_bar / (1.0 + n_bar)


def _detection_probability(shift: float, sigma: float, threshold: float) -> float:
    """P(measured >= threshold | true shift), Gaussian estimator noise."""
    if sigma == 0.0:
        return 1.0 if shift >= threshold else 0.0
    return 0.5 * math.erfc((threshold - shift) / (sigma * math.sqrt(2.0)))


def point_rng(seed: int, point_index: int) -> np.random.Generator:
    """Deterministic per-point RNG stream, independent across points."""
    return np.random.default_rng([seed, point_index])


def simulate_point(
    config: ProtocolConfig, detuning: float, point_index: int = 0
) -> ProtocolRecords:
    """Run `config.cycles` cycles at one drive detuning.

    Each stage is one boolean array operation over all cycles. The
    cyclotron line center random-walks with the magnet field noise: each
    cycle adds a Gaussian step of relative size
    field_noise * sqrt(cycle_time / minute) to the line position. Every
    draw is made whatever the config, so the stream never branches on it:
    six uniform rows, then two normal rows, one row at a time (the same
    stream as one (6, n) and one (2, n) block), each uniform row reduced
    to its stage outcome as soon as it is drawn.
    """
    n = config.cycles
    rng = point_rng(config.seed, point_index)
    p_res = _residual_excited_probability(config.sideband_cooling_residual)
    p_pi = config.pi_pulse_fidelity
    # the six uniform rows, each kept only as its stage's outcome
    n_z_s = rng.random(n) < p_res  # (i) residual occupation after cooling
    n_z_l = rng.random(n) < p_res
    u_drive = rng.random(n)  # (ii) compared once the drift is known
    pi_s = rng.random(n) < p_pi  # (iii)
    swap = rng.random(n) < resolve_swap_probability(config)  # (iv)
    pi_l = rng.random(n) < p_pi  # (v)
    # the first normal row: the field walk's steps
    drift = np.cumsum(rng.standard_normal(n)) * (
        config.field_noise
        * config.omega_c_spec
        * math.sqrt(config.cycle_time / SECONDS_PER_MINUTE)
    )

    # (ii) spectroscopy drive
    excited = u_drive < drive_probability(
        config.drive, config.shifts_S.broadening, detuning, drift
    )
    del u_drive, drift
    # (iii) sideband transfer on S, only from |n_z, n_c> = |0, 1>
    transfer_s = excited & ~n_z_s & pi_s
    n_z_s = n_z_s | transfer_s
    # (iv) wire exchange of the axial quanta, only when they differ
    exchange = (n_z_s != n_z_l) & swap
    n_z_l = n_z_l ^ exchange
    # (v) sideband transfer on L, only from |n_z, n_c> = |1, 0>
    transfer_l = n_z_l & pi_l
    # (vi) axial-frequency measurement of the logic particle, with the
    # second normal row as its noise
    noise = rng.standard_normal(n)
    measured = readout_shift(config) * transfer_l + config.detection.sigma * noise
    # (vii) bookkeeping
    return ProtocolRecords(
        cycle=np.arange(n),
        n_c_after_drive=excited.astype(int),
        transfer_s_ok=transfer_s,
        exchange_ok=exchange,
        transfer_l_ok=transfer_l,
        measured_shift=measured,
        declared_jump=measured >= config.detection.threshold,
        wall_time=np.arange(1, n + 1) * config.cycle_time,
    )


def lineshape_scan(config: ProtocolConfig) -> Lineshape:
    """Declared-jump fraction across the drive detuning grid.

    Reproducible given the config seed; per-point streams are independent,
    so points may be evaluated in any order (or concurrently) without
    changing the result.
    """
    detunings = np.asarray(config.drive.detunings, dtype=float)
    if detunings.size == 0:
        raise ValueError("drive detuning grid must be non-empty")
    fractions = np.empty(detunings.size)
    errors = np.empty(detunings.size)
    for k, det in enumerate(detunings):
        records = simulate_point(config, float(det), k)
        f = np.count_nonzero(records.declared_jump) / config.cycles
        fractions[k] = f
        errors[k] = math.sqrt(f * (1.0 - f) / config.cycles)
    return Lineshape(
        detunings=detunings, fractions=fractions, errors=errors, cycles=config.cycles
    )


def analytic_jump_probability(
    config: ProtocolConfig,
    detuning: float,
    swap_probability: float | None = None,
) -> float:
    """Exact declared-jump probability of one cycle: the independent
    oracle the Monte Carlo must converge to.

    The stage chain is affine in the drive probability p_exc:

        P = D0 + (D1 - D0) * pi * [r + (1 - r) * pi * s * p_exc]

    with r the residual excitation after cooling, pi the pi-pulse
    fidelity, s the swap probability, and D1 and D0 the detection
    probabilities with and without a completed jump. The swap mixes the two
    axial occupations, so the logic mode leaves step (iv) excited with
    probability (1 - s) r + s [r + (1 - r) pi p_exc], the bracket, and
    step (v) and the detection act on that. The line's contrast is
    peak * (1 - r) * pi^2 * s * (D1 - D0) over a background of
    D0 + (D1 - D0) * pi * r.
    """
    p_swap = (
        swap_probability
        if swap_probability is not None
        else resolve_swap_probability(config)
    )
    r = _residual_excited_probability(config.sideband_cooling_residual)
    p_pi = config.pi_pulse_fidelity
    p_exc = float(drive_probability(config.drive, config.shifts_S.broadening, detuning))
    sigma = config.detection.sigma
    threshold = config.detection.threshold
    d1 = _detection_probability(readout_shift(config), sigma, threshold)
    d0 = _detection_probability(0.0, sigma, threshold)
    return d0 + (d1 - d0) * p_pi * (r + (1.0 - r) * p_pi * p_swap * p_exc)


def _moment(lineshape: Lineshape) -> tuple[np.ndarray, float, float]:
    """Clipped excitation weights, their sum and their first moment (the
    fitted center)."""
    w = np.clip(lineshape.fractions, 0.0, None)
    total = w.sum()
    if total <= 0.0:
        raise ValueError("lineshape has no excitation to fit")
    return w, total, float((w * lineshape.detunings).sum() / total)


def fitted_center_width(lineshape: Lineshape) -> tuple[float, float]:
    """Excitation-weighted first moment and standard deviation of the line.

    For the one-sided exponential profile the standard deviation equals the
    1/e width and the first moment sits one width above the edge; for the
    Gaussian profile the standard deviation is the Gaussian sigma.
    """
    w, total, center = _moment(lineshape)
    var = float((w * (lineshape.detunings - center) ** 2).sum() / total)
    return center, math.sqrt(max(var, 0.0))


def center_uncertainty(lineshape: Lineshape) -> float:
    """Statistical error of the fitted center, propagated from the
    per-point binomial errors."""
    _, total, center = _moment(lineshape)
    partials = (lineshape.detunings - center) / total
    return float(np.sqrt(((partials * lineshape.errors) ** 2).sum()))


def day_scale_center_report(
    config: ProtocolConfig, total_duration: float = 86400.0
) -> dict:
    """Order-of-magnitude report of the line-center uncertainty after a
    long measurement campaign.

    Distributes `total_duration` of wall-clock time evenly over the drive
    grid, runs the Monte Carlo with the configured field-noise walk, and
    fits the center. Returns the fitted center, its statistical
    uncertainty, the uncertainty relative to the cyclotron frequency, and
    the expected field-walk drift over the campaign. When the walk carries
    the line off the grid entirely (no excitation recorded), the fit
    entries are None and only the walk scale is meaningful. Reporting
    only; day-scale projections also hinge on drift tracking and cycle
    overheads outside this model.
    """
    points = len(config.drive.detunings)
    cycles = max(1, int(total_duration / config.cycle_time / points))
    day_config = replace(config, cycles=cycles)
    shape = lineshape_scan(day_config)
    walk_sigma = (
        config.field_noise
        * config.omega_c_spec
        * math.sqrt(total_duration / SECONDS_PER_MINUTE)
    )
    report = {
        "cycles_per_point": cycles,
        "total_cycles": cycles * points,
        "simulated_duration_s": cycles * points * config.cycle_time,
        "walk_sigma_rad_per_s": walk_sigma,
        "center_rad_per_s": None,
        "center_sigma_rad_per_s": None,
        "relative_center_uncertainty": None,
    }
    if shape.fractions.sum() > 0.0:
        center, _ = fitted_center_width(shape)
        sigma = center_uncertainty(shape)
        report["center_rad_per_s"] = center
        report["center_sigma_rad_per_s"] = sigma
        report["relative_center_uncertainty"] = sigma / config.omega_c_spec
    return report


def required_averaging_time(delta: float, noise_density: float) -> float:
    """Averaging time needed to resolve a shift `delta` at DETECTION_SNR_Z
    sigma against the threshold delta/2: (2 z noise / delta)^2, floored by
    the DETECTION_TIME_FLOOR overhead."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return max(
        (2.0 * DETECTION_SNR_Z * noise_density / delta) ** 2, DETECTION_TIME_FLOOR
    )


def timing_budget(config: ProtocolConfig) -> TimingBudget:
    """Stage durations, totals, and the detection-speedup comparison.

    The speedup compares the required averaging time at the configured
    logic-trap shift against a bottle DETECTION_BOTTLE_RATIO times smaller
    (detection time scales as delta^-2 at fixed noise density, capped by
    the per-measurement overhead floor).
    """
    stages = {
        "cooling": config.cooling_time,
        "pulses": 2.0 * config.pulse_time,
        "exchange": config.budget.t_ex,
        "detection": config.detection.averaging_time,
    }
    exchange_dominates = all(
        stages["exchange"] >= v for k, v in stages.items() if k != "exchange"
    )
    delta = config.shifts_L.delta
    noise = config.detection.noise_density
    t_small = required_averaging_time(delta / DETECTION_BOTTLE_RATIO, noise)
    t_large = required_averaging_time(delta, noise)
    return TimingBudget(
        stages=stages,
        total=config.cycle_time,
        exchange_dominates=exchange_dominates,
        detection_speedup=t_small / t_large,
    )


def write_records_csv(records: ProtocolRecords, stream) -> None:
    """Record stream as CSV; shifts in rad/s, times in seconds.

    Rows are formatted and written RECORDS_CHUNK at a time, so the text
    held in memory does not grow with the table.
    """
    stream.write(
        "cycle,n_c_after_drive,transfer_s_ok,exchange_ok,transfer_l_ok,"
        "measured_shift_rad_per_s,declared_jump,wall_time_s\n"
    )
    # the bool columns as 0/1 ints, so one %-template formats a whole row
    columns = (
        records.cycle,
        records.n_c_after_drive,
        records.transfer_s_ok.view(np.uint8),
        records.exchange_ok.view(np.uint8),
        records.transfer_l_ok.view(np.uint8),
        records.measured_shift,
        records.declared_jump.view(np.uint8),
        records.wall_time,
    )
    row = "%d,%d,%d,%d,%d,%r,%d,%r\n".__mod__
    for lo in range(0, len(records.cycle), RECORDS_CHUNK):
        rows = zip(*(c[lo : lo + RECORDS_CHUNK].tolist() for c in columns))
        stream.write("".join(map(row, rows)))


def write_lineshape_csv(
    lineshape: Lineshape, stream, summary: dict[str, float] | None = None
) -> None:
    """Lineshape as CSV (detuning, fraction, error) with summary lines
    appended as '# key = value' comments."""
    stream.write("detuning_rad_per_s,excitation_fraction,stat_error\n")
    for d, f, e in zip(lineshape.detunings, lineshape.fractions, lineshape.errors):
        stream.write(f"{float(d)!r},{float(f)!r},{float(e)!r}\n")
    for key, value in (summary or {}).items():
        stream.write(f"# {key} = {float(value)!r}\n")
