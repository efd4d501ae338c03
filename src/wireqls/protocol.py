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
        particles with the closed-form swap probability of the damped
        exchange (`swap_probability`);
  (v)   sideband pi-pulse on the logic particle, |1, 0> -> |0, 1>;
  (vi)  measure the logic particle's axial frequency; the bottle shift
        reveals n_c^L, with Gaussian frequency noise set by the averaging
        time, thresholded into a declared jump;
  (vii) bookkeeping and return to (i).

Stage failures are silent (nothing is heralded before step vi). `_stages`
alone composes steps (iii)-(v), for the Monte Carlo and the closed form.
Cycles at distinct detuning points use independent RNG streams derived from
(seed, point index), so scans are reproducible and order independent.
"""

import cmath
import math
from collections.abc import Iterable, Iterator
from typing import NamedTuple

# the package's modules before numpy, so none compiles with numpy resident
from . import config as cfg
from . import spectroscopy
from .circuit import ExchangeBudget
from .constants import G_E, Checked, angular_to_hz, cyclotron_frequency, linspace
from .schema import ConfigError
from .spectroscopy import ShiftSet

import numpy as np

__all__ = [
    "build_protocol",
    "DetectionModel",
    "DriveModel",
    "ExchangeParams",
    "ProtocolConfig",
    "ProtocolRecords",
    "Lineshape",
    "ReadoutChain",
    "TimingBudget",
    "drive_probability",
    "swap_probability",
    "resolve_swap_probability",
    "readout_chain",
    "point_rng",
    "record_blocks",
    "lineshape_scan",
    "analytic_jump_probability",
    "vanishing_inputs",
    "fitted_center_width",
    "center_uncertainty",
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

# above |x| for any standard normal x that numpy's Generator draws (its
# ziggurat tail stops near 13.7), so sigma * x is finite where this is
NORMAL_BOUND = 16.0
RECORDS_CHUNK = 1024  # record rows formatted per write, cycles per block past ONE_BLOCK
ONE_BLOCK = 8192  # a point of at most this many cycles is drawn as one block
# a record row's text around its two floats, by numpy index: the four stage
# flags as the bits of a code, n_c_after_drive highest, and declared_jump
_FLAGS_TEXT = np.array([",".join(f"{c:04b}") + "," for c in range(16)], dtype=object)
_JUMP_TEXT = np.array([",0,", ",1,"], dtype=object)


class _ExchangeFields(NamedTuple):
    omega_ex: float      # beam-splitter coupling [rad/s]
    gamma_L: float       # logic-mode damping [1/s]
    gamma_S: float       # spectroscopy-mode damping [1/s]
    n_bar: float         # bath occupation
    detuning: float = 0.0  # omega_z mismatch between the traps [rad/s]


class ExchangeParams(Checked, _ExchangeFields):
    """Rates of the damped two-mode exchange, step (iv); all in SI angular
    units. `dynamics` gives its master equation."""

    __slots__ = ()

    def _check(self) -> None:
        if self.omega_ex < 0 or self.gamma_L < 0 or self.gamma_S < 0:
            raise ValueError("rates must be non-negative")
        if self.n_bar < 0:
            raise ValueError("n_bar must be non-negative")


class _DetectionFields(NamedTuple):
    averaging_time: float  # [s]
    noise_density: float   # [rad/s per sqrt(Hz)]
    threshold: float       # [rad/s]


class DetectionModel(Checked, _DetectionFields):
    """Axial-frequency estimator: white frequency noise over an averaging
    window, thresholded at `threshold` (conventionally delta_L/2)."""

    __slots__ = ()

    def _check(self) -> None:
        if self.averaging_time <= 0:
            raise ValueError("averaging_time must be positive")
        if self.noise_density < 0:
            raise ValueError("noise_density must be non-negative")

    @property
    def sigma(self) -> float:
        """Frequency-estimate standard deviation after averaging."""
        return self.noise_density / math.sqrt(self.averaging_time)


class _DriveFields(NamedTuple):
    detunings: tuple[float, ...]  # drive detuning grid [rad/s]
    profile: str = "exponential"
    peak_probability: float = 1.0


class DriveModel(Checked, _DriveFields):
    """Spectroscopy drive: detuning grid plus excitation lineshape.

    The thermal (Boltzmann) lineshape is exponential, nonzero only above
    the line center, with 1/e width equal to the trap's cyclotron
    broadening; "gaussian" is the symmetric alternative for sensitivity
    checks. `peak_probability` is the excitation probability exactly on
    the line center.
    """

    __slots__ = ()

    def _check(self) -> None:
        if self.profile not in ("exponential", "gaussian"):
            raise ValueError("profile must be 'exponential' or 'gaussian'")
        if not 0.0 <= self.peak_probability <= 1.0:
            raise ValueError("peak_probability must lie in [0, 1]")


class _ProtocolFields(NamedTuple):
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
    swap_probability: float | None = None  # override; default from the budget


class ProtocolConfig(Checked, _ProtocolFields):
    """Everything one cycle needs; see module docstring for the sequence."""

    __slots__ = ()

    def _check(self) -> None:
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


class ProtocolRecords(NamedTuple):
    """Outcome log of one point's cycles, or of one block of them, one
    array entry per cycle; declared_jump holds exactly where the measured
    shift reached the threshold."""

    cycle: np.ndarray            # 0, 1, ..., cycles - 1
    n_c_after_drive: np.ndarray  # int
    transfer_s_ok: np.ndarray    # bool
    exchange_ok: np.ndarray      # bool
    transfer_l_ok: np.ndarray    # bool
    measured_shift: np.ndarray   # [rad/s]
    declared_jump: np.ndarray    # bool
    wall_time: np.ndarray        # cumulative at cycle end [s]


class _LineshapeFields(NamedTuple):
    detunings: np.ndarray  # [rad/s]
    fractions: np.ndarray
    errors: np.ndarray
    cycles: int


class Lineshape(Checked, _LineshapeFields):
    """Declared-jump fraction per drive detuning with binomial errors."""

    __slots__ = ()

    def _check(self) -> None:
        if np.any(self.fractions < 0.0) or np.any(self.fractions > 1.0):
            raise ValueError("fractions must lie in [0, 1]")
        if np.any(self.errors < 0.0):
            raise ValueError("errors must be non-negative")


class ReadoutChain(NamedTuple):
    """The links of one config's readout chain, resolved once for the Monte
    Carlo, the closed form and the zero-line diagnosis, which all run them
    through `_stages`. The closed form is exact at zero field noise only:
    it takes `drive_probability` at zero drift, where the Monte Carlo walks
    the line center by `walk_step` a cycle."""

    residual: float   # r, P(n_z >= 1) after cooling: n_bar / (1 + n_bar)
    pi: float         # sideband pi-pulse fidelity, steps (iii) and (v)
    swap: float       # s, exchange success probability, step (iv)
    shift: float      # true logic-trap shift of a completed jump [rad/s]
    sigma: float      # frequency-estimate noise [rad/s]
    threshold: float  # declared-jump threshold [rad/s]
    d0: float         # P(declared | no jump)
    d1: float         # P(declared | jump)
    width: float      # drive line width, the spectroscopy broadening [rad/s]
    walk_step: float  # line-center walk per cycle, per unit normal step [rad/s]


class TimingBudget(NamedTuple):
    """Per-stage durations and the bottle-scaling detection comparison."""

    stages: dict[str, float]
    total: float
    exchange_dominates: bool
    detection_speedup: float  # vs. a bottle DETECTION_BOTTLE_RATIO times smaller


def build_protocol(config: cfg.RunConfig, seed: int | None = None) -> ProtocolConfig:
    """Assemble the full per-cycle configuration from the scenario.

    Two leaves are checked against the logic trap's bottle shift delta_L:
    traps.logic.b2_tesla_per_m2 must make it positive, and
    protocol.detection.threshold_hz must lie between 0 and delta_L."""
    if (p := config.protocol) is None:
        raise ConfigError("protocol", "missing required key")
    detection, drive, grid = p["detection"], p["drive"], p["drive"]["grid"]
    seed = config.seed if seed is None else seed
    if seed < 0:
        raise ConfigError("seed", f"must be non-negative, got {seed}")
    budget = cfg.build_budget(config)
    trap_s = config.trap_spectroscopy
    shifts_l = spectroscopy.shift_set_for_trap(config.trap_logic)
    if not shifts_l.delta > 0.0:  # no readout threshold lies between 0 and delta
        raise ConfigError(
            "traps.logic.b2_tesla_per_m2", "must give a positive bottle shift"
        )
    if (shifts_s := spectroscopy.shift_set_for_trap(trap_s)).broadening < 0.0:
        raise ConfigError("traps.spectroscopy.b2_tesla_per_m2",  # the line would vanish
                          "must give a non-negative cyclotron linewidth")
    threshold = detection["threshold_hz"]
    if threshold is None:
        threshold = 0.5 * shifts_l.delta
    elif not 0.0 < threshold < shifts_l.delta:
        delta_hz = angular_to_hz(shifts_l.delta)
        raise ConfigError("protocol.detection.threshold_hz", "must lie between 0 and "
                          f"the logic-trap delta, {delta_hz!r} Hz")
    pc = ProtocolConfig(
        budget=budget,
        shifts_L=shifts_l,
        shifts_S=shifts_s,
        pi_pulse_fidelity=p["pi_pulse_fidelity"],
        sideband_cooling_residual=p["sideband_cooling_residual"],
        detection=DetectionModel(
            averaging_time=detection["averaging_time_s"],
            noise_density=detection["noise_density_hz_per_sqrt_hz"],
            threshold=threshold,
        ),
        drive=DriveModel(
            detunings=tuple(linspace(grid["start_hz"], grid["stop_hz"], grid["points"])),
            profile=drive["profile"],
            peak_probability=drive["peak_probability"],
        ),
        field_noise=p["field_noise_per_sqrt_minute"],
        cycles=p["cycles"],
        seed=seed,
        omega_c_spec=cyclotron_frequency(trap_s.B, trap_s.q, trap_s.m),
        cooling_time=p["cooling_time_s"],
        pulse_time=p["pulse_time_s"],
        mode=p["mode"],
    )
    if not pc.detection.sigma * NORMAL_BOUND < math.inf:  # no finite measured shift
        raise ConfigError("protocol.detection", "noise_density_hz_per_sqrt_hz over the "
                          "root of averaging_time_s puts the frequency noise beyond the "
                          "float range")
    if not math.isfinite(pc.cycle_time * pc.cycles):  # the last wall time
        raise ConfigError("protocol", "cooling_time_s, pulse_time_s and detection."
                          "averaging_time_s put cycles x cycle time beyond the float range")
    return pc


def drive_probability(
    drive: DriveModel,
    width: float,
    detuning: float | np.ndarray,
    drift: float | np.ndarray = 0.0,
) -> float | np.ndarray:
    """Excitation probability of the drive at a detuning from the nominal
    line center, with the center displaced by `drift`; scalars or arrays.

    Exponents are clipped where the profile has already underflowed to
    zero (exp(-745.2) is the last nonzero double), so they stay finite, and
    exp is taken only above -746: numpy's exp is ~20x slower on arguments
    that underflow, and a drifting line leaves most cycles there.
    """
    x = np.subtract(detuning, drift)
    if width == 0.0:
        return drive.peak_probability * (x == 0.0)
    if drive.profile == "exponential":
        exponent = -np.clip(x, 0.0, 800.0 * width) / width
        live = (x >= 0.0) & (exponent > -746.0)  # one-sided; nan reads as 0
    else:
        z = np.minimum(np.abs(x), 40.0 * width) / width
        exponent = -0.5 * z * z
        live = ~(exponent <= -746.0)  # nan stays nan
    decay = np.exp(exponent, out=np.zeros_like(exponent), where=live)
    return drive.peak_probability * decay


def swap_probability(params: ExchangeParams) -> float:
    """Closed-form P(n_L = 1) after a full exchange from |1, 0>.

    The exchange is quadratic with linear damping, so it acts on the logic
    mode as a phase-insensitive Gaussian channel (Weedbrook et al., RMP 84,
    621 (2012)); no Fock truncation enters. The mode amplitudes obey
    d(a_S, a_L)/dt = A (a_S, a_L) with
    A = -i[[detuning, w_ex], [w_ex, 0]] - diag(gamma_S, gamma_L)/2, so
    u = exp(A t) at t = pi/(2 w_ex) gives the channel's transmissivity
    eta = |u_LS|^2 and added thermal noise N = n_bar (1 - |u_LS|^2 - |u_LL|^2).
    A single quantum through that channel lands in n_L = 1 with
    probability (N + eta)/(1 + N)^2 - 2 eta N/(1 + N)^3. With x = 1/(1 + N)
    that is x (N x + eta (1 - N) x^2), whose factors all lie within [-1, 1],
    so no N overflows it, and which keeps full precision as N goes to 0.
    Agrees with the Fock-space oracle `dynamics.swap_fidelity` up to its
    truncation error.
    """
    if params.omega_ex <= 0:
        raise ValueError("swap probability requires a positive exchange rate")
    t = math.pi / (2.0 * params.omega_ex)
    # entries of A t, so the exchange entry is -i pi/2 at any rate
    a = (-1j * params.detuning - 0.5 * params.gamma_S) * t
    d = -0.5 * params.gamma_L * t
    c = -0.5j * math.pi
    # u = e^m [cosh(s) + (A t - m) sinh(s)/s] with m +- s the eigenvalues of
    # A t; away from s = 0 it is built from e^{m +- s}, which decay under
    # damping, so a large damping rate underflows instead of overflowing
    m = 0.5 * (a + d)
    half = 0.5 * (a - d)
    s = cmath.sqrt(half * half + c * c)
    if abs(s) < 1e-4:
        growth = cmath.exp(m)
        sinhc = growth * (1.0 + s * s / 6.0)
        cosh = growth * (1.0 + s * s / 2.0)
    else:
        up, down = cmath.exp(m + s), cmath.exp(m - s)
        sinhc = (up - down) / (2.0 * s)
        cosh = 0.5 * (up + down)
    u_ls = c * sinhc
    u_ll = cosh - half * sinhc
    eta = abs(u_ls) ** 2
    noise = params.n_bar * (1.0 - eta - abs(u_ll) ** 2)
    x = 1.0 / (1.0 + noise)
    return x * (noise * x + eta * (1.0 - noise) * x * x)


def resolve_swap_probability(config: ProtocolConfig) -> float:
    """Exchange success probability for step (iv).

    Uses the configured override when present, otherwise the closed-form
    swap probability at the budget's rates.
    """
    if config.swap_probability is not None:
        return config.swap_probability
    b = config.budget
    return swap_probability(ExchangeParams(b.omega_ex, b.gamma_L, b.gamma_S, b.n_bar))


def readout_chain(config: ProtocolConfig) -> ReadoutChain:
    """The readout chain of `config`. In anomaly mode the drive also
    toggles the spin flag, so the readout shift is the full quantum-number
    difference delta_L * (1 - g/2), tiny and negative."""
    n_bar = config.sideband_cooling_residual
    delta = config.shifts_L.delta
    shift = delta if config.mode == "cyclotron" else delta * (1.0 - 0.5 * G_E)
    sigma, threshold = config.detection.sigma, config.detection.threshold
    # Gaussian tails of the estimator noise, steps when it is zero
    d0, d1 = (float(x >= threshold) if sigma == 0.0
              else 0.5 * math.erfc((threshold - x) / (sigma * math.sqrt(2.0)))
              for x in (0.0, shift))
    minutes = config.cycle_time / SECONDS_PER_MINUTE
    walk_step = config.field_noise * config.omega_c_spec * math.sqrt(minutes)
    return ReadoutChain(
        n_bar / (1.0 + n_bar), config.pi_pulse_fidelity, resolve_swap_probability(config),
        shift, sigma, threshold, d0, d1, config.shifts_S.broadening, walk_step,
    )


def point_rng(seed: int, point_index: int) -> np.random.Generator:
    """Deterministic per-point RNG stream, independent across points."""
    return np.random.default_rng([seed, point_index])


def _row_cursor(seed: int, point_index: int, draws: int) -> np.random.Generator:
    """The point's stream, moved on by `draws` 64-bit draws."""
    rng = point_rng(seed, point_index)
    rng.bit_generator.advance(draws)
    return rng


def record_blocks(
    config: ProtocolConfig, detuning: float, point_index: int = 0
) -> Iterator[ProtocolRecords]:
    """Run `config.cycles` cycles at one drive detuning, yielding the
    records in cycle order: one block for a point of at most `ONE_BLOCK`
    cycles, else blocks of `RECORDS_CHUNK` cycles, so memory is bounded.

    `_stages` runs on a whole block at once. The cyclotron line center
    random-walks with the magnet field noise: each cycle adds a Gaussian
    step of relative size field_noise * sqrt(cycle_time / minute) to the
    line position. Every draw is made whatever the config, so the stream
    never branches on it: six uniform rows, then two normal rows of
    `cycles` values each (the same stream as one (6, n) and one (2, n)
    block), each uniform row reduced to its hit as soon as it is drawn.
    The blocks join into the same table either way.

    The readout chain is resolved when this is called, so a failing
    set-up raises before any block is drawn.
    """
    return _draw_blocks(config, detuning, point_index, readout_chain(config))


def _draw_blocks(
    config: ProtocolConfig, detuning: float, point_index: int, chain: ReadoutChain
) -> Iterator[ProtocolRecords]:
    n = config.cycles
    if n <= ONE_BLOCK:
        # one block: the eight rows one after another from the point's stream
        block = n
        rows = (point_rng(config.seed, point_index),) * 8
    else:
        block = RECORDS_CHUNK
        # a cursor per row: uniform row r starts after r * n draws (one draw
        # a value), and so does the first normal row at r = 6; a normal
        # value takes a varying number of draws, so the second normal row's
        # start is found by drawing the first one and throwing it away
        rows = [_row_cursor(config.seed, point_index, r * n) for r in range(7)]
        noise_row = _row_cursor(config.seed, point_index, 6 * n)
        for lo in range(0, n, block):
            noise_row.standard_normal(min(block, n - lo))
        rows.append(noise_row)
    (res_s_row, res_l_row, drive_row, pi_s_row, swap_row, pi_l_row, step_row,
     noise_row) = rows
    walked = 0.0  # the field walk's sum of steps before this block
    for lo in range(0, n, block):
        m = min(block, n - lo)
        # the six uniform rows, each kept only as its stage's outcome
        n_z_s = res_s_row.random(m) < chain.residual  # (i) residual n_z after cooling
        n_z_l = res_l_row.random(m) < chain.residual
        u_drive = drive_row.random(m)  # (ii) compared once the drift is known
        pi_s = pi_s_row.random(m) < chain.pi  # (iii)
        swap = swap_row.random(m) < chain.swap  # (iv)
        pi_l = pi_l_row.random(m) < chain.pi  # (v)
        # the first normal row: the field walk's steps; the running sum
        # enters through the block's first step, so the sums are those of
        # one cumsum over the whole row
        steps = step_row.standard_normal(m)
        if lo:
            steps[0] += walked
        walk = np.cumsum(steps)
        walked = walk[-1]
        del steps

        # (ii) spectroscopy drive
        excited = u_drive < drive_probability(
            config.drive, chain.width, detuning, walk * chain.walk_step
        )
        del u_drive, walk
        transfer_s, exchange, transfer_l = _stages(n_z_s, n_z_l, excited, pi_s, swap, pi_l)
        # (vi) axial-frequency measurement of the logic particle, with the
        # second normal row as its noise
        noise = noise_row.standard_normal(m)
        measured = chain.shift * transfer_l + chain.sigma * noise
        # (vii) bookkeeping
        yield ProtocolRecords(
            cycle=np.arange(lo, lo + m),
            n_c_after_drive=excited.astype(int),
            transfer_s_ok=transfer_s,
            exchange_ok=exchange,
            transfer_l_ok=transfer_l,
            measured_shift=measured,
            declared_jump=measured >= chain.threshold,
            wall_time=np.arange(lo + 1, lo + m + 1) * config.cycle_time,
        )


def _stages(n_z_s, n_z_l, excited, pi_s, swap, pi_l):
    """Steps (iii)-(v), (transfer_s, exchange, transfer_l), from bool arrays
    of whether each draw hit, one entry a cycle or a hit pattern."""
    # (iii) sideband transfer on S, only from |n_z, n_c> = |0, 1>
    transfer_s = excited & ~n_z_s & pi_s
    # (iv) wire exchange of the axial quanta, only when they differ
    exchange = ((n_z_s | transfer_s) != n_z_l) & swap
    # (v) sideband transfer on L, only from |n_z, n_c> = |1, 0>
    transfer_l = (n_z_l ^ exchange) & pi_l
    return transfer_s, exchange, transfer_l


def _jump_sum(hit_probabilities: tuple[float, ...]) -> float:
    """P(transfer_l) when `_stages`' six draws hit with these probabilities:
    a sum over the 64 hit patterns, exact for any boolean chain of stages."""
    p = np.array(hit_probabilities)[:, None]
    hits = (np.arange(64) >> np.arange(6)[:, None] & 1).astype(bool)
    weights = np.where(hits, p, 1.0 - p).prod(axis=0)
    return float(weights[_stages(*hits)[2]].sum())


def lineshape_scan(config: ProtocolConfig) -> Lineshape:
    """Declared-jump fraction across the drive detuning grid, counted over
    each point's `record_blocks`.

    Reproducible given the config seed; per-point streams are independent,
    so points may be evaluated in any order (or concurrently) without
    changing the result.
    """
    detunings = np.asarray(config.drive.detunings, dtype=float)
    if detunings.size == 0:
        raise ValueError("drive detuning grid must be non-empty")
    chain = readout_chain(config)
    fractions = np.empty(detunings.size)
    errors = np.empty(detunings.size)
    for k, det in enumerate(detunings):
        blocks = _draw_blocks(config, float(det), k, chain)
        f = sum(np.count_nonzero(b.declared_jump) for b in blocks) / config.cycles
        fractions[k] = f
        errors[k] = math.sqrt(f * (1.0 - f) / config.cycles)
    return Lineshape(
        detunings=detunings, fractions=fractions, errors=errors, cycles=config.cycles
    )


def analytic_jump_probability(
    config: ProtocolConfig, detuning: float, swap_probability: float | None = None
) -> float:
    """Exact declared-jump probability of one cycle, the value the Monte
    Carlo must converge to: D0 + (D1 - D0) * `_jump_sum`, with D1 and D0
    the detection probabilities with and without a completed jump, all
    read from `readout_chain`.

    Exact at zero field noise only: p_exc is `drive_probability` at zero
    drift, while the Monte Carlo walks the line center. `swap_probability`,
    when given, stands in for the config's own.
    """
    if swap_probability is not None:
        config = config._replace(swap_probability=swap_probability)
    c = readout_chain(config)
    r, p_exc = c.residual, float(drive_probability(config.drive, c.width, detuning))
    return c.d0 + (c.d1 - c.d0) * _jump_sum((r, r, p_exc, c.pi, c.swap, c.pi))


def vanishing_inputs(config: ProtocolConfig) -> list[str]:
    """The scenario keys whose values zero the line, (D1 - D0) * `_jump_sum`
    above the false-jump floor D0, at every grid point; empty if none does.
    `protocol.mode` is named when D1 <= D0, any other key when the sum is
    zero with its stage and the cooling residual as configured and every
    other draw a certain hit (the drive at the grid's largest p_exc)."""
    c = readout_chain(config)
    r, drive = c.residual, config.drive
    p_max = np.max(drive_probability(drive, c.width, drive.detunings))
    drive_key = "grid" if drive.peak_probability else "peak_probability"
    hit_probabilities = {
        "protocol.pi_pulse_fidelity": (r, r, 1.0, c.pi, 1.0, c.pi),
        f"protocol.drive.{drive_key}": (r, r, p_max, 1.0, 1.0, 1.0),
        "resonator": (r, r, 1.0, 1.0, c.swap, 1.0),
    }
    names = [] if c.d1 - c.d0 > 0.0 else ["protocol.mode"]
    return names + [name for name, p in hit_probabilities.items() if not _jump_sum(p) > 0.0]


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


def write_records_csv(
    blocks: Iterable[ProtocolRecords], stream, rows: int | None = None
) -> int:
    """Record table as CSV from its blocks in cycle order; shifts in rad/s,
    times in seconds. Returns the number of declared jumps. `rows` is the
    table's row count, where the caller knows it before the first block.

    Rows are formatted and written RECORDS_CHUNK at a time, so the text
    held in memory does not grow with the table. A chunk is one %-template
    with five values a row: the cycle, the flag text, the shift, the jump
    text and the time.

    The two float columns are the text `repr` gives. A table of at most
    ONE_BLOCK rows takes it from `repr` itself: loading orjson costs more
    than it saves below ~9,000 rows. A longer table, or one of unknown
    length, makes it in bulk with `_float_texts`. orjson prints a double
    with the same shortest digits that round-trip, the rule `repr` follows,
    so the two differ only in layout: `repr` switches to exponent form
    below 1e-4 and from 1e16 in magnitude, orjson at other points (0.00001
    against 1e-05, 1e16 against 1e+16), and orjson writes nan and +-inf as
    null. Values outside 1e-4 <= |x| < 1e16, zero and the non-finite ones
    included, go through `repr` itself, so every byte is `repr`'s.
    """
    stream.write(
        "cycle,n_c_after_drive,transfer_s_ok,exchange_ok,transfer_l_ok,"
        "measured_shift_rad_per_s,declared_jump,wall_time_s\n"
    )
    float_texts = _float_texts if rows is None or rows > ONE_BLOCK else _repr_texts
    jumps = 0
    for records in blocks:
        jumps += int(np.count_nonzero(records.declared_jump))
        for lo in range(0, len(records.cycle), RECORDS_CHUNK):
            r = slice(lo, lo + RECORDS_CHUNK)
            flags = (records.n_c_after_drive[r] << 3 | records.transfer_s_ok[r] << 2
                     | records.exchange_ok[r] << 1 | records.transfer_l_ok[r])
            cycle = records.cycle[r].tolist()
            values = [None] * (5 * len(cycle))
            values[0::5] = cycle
            values[1::5] = _FLAGS_TEXT[flags].tolist()
            values[2::5] = float_texts(records.measured_shift[r])
            values[3::5] = _JUMP_TEXT[records.declared_jump[r].view(np.uint8)].tolist()
            values[4::5] = float_texts(records.wall_time[r])
            stream.write(("%d,%s%s%s%s\n" * len(cycle)) % tuple(values))
    return jumps


def _repr_texts(column: np.ndarray) -> list[str]:
    """`repr` of each value of a column widened to double."""
    return list(map(repr, column.astype(np.float64, copy=False).tolist()))


def _float_texts(column: np.ndarray) -> list[str]:
    """`repr` of each value of a column widened to double: orjson's text
    inside 1e-4 <= |x| < 1e16, where its layout is `repr`'s, and `repr`
    outside (see `write_records_csv`)."""
    import orjson  # only a record table past ONE_BLOCK rows loads it

    # orjson rejects a strided array, and prints a float32 with float32's digits
    x = np.ascontiguousarray(column, dtype=np.float64)
    text = orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
    texts = text.split(",") if text else []
    size = np.abs(x)
    for i in np.flatnonzero(~((size >= 1e-4) & (size < 1e16))).tolist():
        texts[i] = repr(float(x[i]))
    return texts


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
