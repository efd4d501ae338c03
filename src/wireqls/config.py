"""Scenario configuration: strict schema, loading, and domain builders.

Configs are YAML with nested blocks. Unknown keys are rejected, missing
required keys are reported with their dotted path, and every frequency-like
quantity is written in Hz in the file and converted to rad/s exactly once
here. The `magnet` and `protocol` blocks are optional; commands that need a
missing block fail with its key path.

Schema (units in key names; * = optional):

    scenario: <name>            seed: <int>          particle: electron|positron|proton
    output: {format: csv|records, directory*}
    resonator: {C_p_farad, R_p_ohm, detune_linewidths | detune_hz}
    environment: {temperature_k}
    traps:
      logic / spectroscopy:
        {d_eff_m, axial_frequency_hz, field_tesla, b2_tesla_per_m2, temperature_k}
    magnet*:
      {inner_radius_m, outer_radius_m, height_m, mu0_magnetization_tesla,
       center_z_m*, background_field_tesla*, calibrate_b2_tesla_per_m2*,
       profile: {z_min_m, z_max_m, samples (2 to 100000), logic_site_m*,
                 spectroscopy_site_m*}}  (positions within +-10 m)
    protocol*:
      {cycles (1 to 1000000; cycles x drive.grid.points at most 1e8),
       pi_pulse_fidelity (in [0, 1]),
       sideband_cooling_residual (>= 0), cooling_time_s* (>= 0),
       pulse_time_s* (>= 0), mode* (cyclotron|anomaly),
       field_noise_per_sqrt_minute* (>= 0),
       detection: {averaging_time_s (> 0), noise_density_hz_per_sqrt_hz (>= 0),
                   threshold_hz*},
       drive: {profile* (exponential|gaussian), peak_probability* (in [0, 1]),
               grid: {start_hz, stop_hz (both within +-1e12),
                      points (1 to 100000)}}}

Both traps share one axial frequency. `lineshape` and `protocol` also need
a positive logic-trap bottle shift, so a positive traps.logic.b2_tesla_per_m2.

Bundled scenarios (`paper-electron`, `paper-proton`) may be named in place
of a path.

Parsing a scenario and building its budget need no numpy; `build_protocol`
imports the array modules when it is called.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

import yaml

from . import circuit, magnetics, spectroscopy
from .constants import cyclotron_frequency, hz_to_angular, particle_mass_charge

if TYPE_CHECKING:
    from . import protocol

__all__ = [
    "ConfigError",
    "RunConfig",
    "MagnetSpec",
    "ProtocolSpec",
    "parse_config",
    "load_config",
    "dump_config",
    "bundled_scenarios",
    "build_resonator",
    "build_budget",
    "build_ring",
    "build_protocol",
    "linspace",
]

OUTPUT_FORMATS = ("csv", "records")
# a `lineshape` point holds its record columns (36 bytes a cycle) and, while
# it draws, a few float rows; `protocol` draws and writes one block at a time
MAX_CYCLES = 1_000_000
# cycles over the whole drive grid, about 12 s of Monte Carlo at ~0.12 us a cycle
MAX_TOTAL_CYCLES = 100_000_000
MAX_GRID = 100_000  # detuning grid points, field profile samples
MAX_DRIVE_HZ = 1.0e12  # |drive grid end| [Hz], above any modelled cyclotron line
MAX_PROFILE_M = 10.0  # |field profile end or trap site| [m]
MODES = ("cyclotron", "anomaly")
DRIVE_PROFILES = ("exponential", "gaussian")


class ConfigError(ValueError):
    """Schema violation; `path` is the dotted key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class _Block:
    """One mapping level of the config; tracks consumed keys."""

    def __init__(self, data: dict, path: str):
        if not isinstance(data, dict):
            raise ConfigError(path or "<root>", "expected a mapping")
        self.data = data
        self.path = path
        self.seen: set[str] = set()

    def _key(self, name: str) -> str:
        return f"{self.path}.{name}" if self.path else name

    def take(
        self, name: str, kind: type, required: bool = True, default=None, bound=None
    ):
        """The value at `name`, checked against `kind`; a float beyond
        +-`bound` is rejected."""
        self.seen.add(name)
        if name not in self.data:
            if required:
                raise ConfigError(self._key(name), "missing required key")
            return default
        value = self.data[name]
        if kind is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(self._key(name), f"expected a number, got {value!r}")
            if not abs(value) <= sys.float_info.max:  # also rejects nan
                raise ConfigError(
                    self._key(name), f"expected a finite number, got {value!r}"
                )
            if bound is not None and abs(value) > bound:
                raise ConfigError(self._key(name), f"must lie within +-{bound:g}")
            return float(value)
        if kind is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(self._key(name), f"expected an integer, got {value!r}")
            return value
        if kind is str:
            if not isinstance(value, str):
                raise ConfigError(self._key(name), f"expected a string, got {value!r}")
            return value
        raise AssertionError(f"unsupported kind {kind}")

    def block(self, name: str, required: bool = True) -> "_Block | None":
        self.seen.add(name)
        if name not in self.data:
            if required:
                raise ConfigError(self._key(name), "missing required key")
            return None
        return _Block(self.data[name], self._key(name))

    def finish(self) -> None:
        unknown = set(self.data) - self.seen
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(self._key(key), "unknown key")


@dataclass(frozen=True)
class MagnetSpec:
    ring: magnetics.RingMagnet  # as specified, before any calibration
    calibrate_b2: float | None
    background: float
    z_min: float
    z_max: float
    samples: int
    logic_site: float
    spectroscopy_site: float


@dataclass(frozen=True)
class ProtocolSpec:
    cycles: int
    pi_pulse_fidelity: float
    sideband_cooling_residual: float
    cooling_time: float
    pulse_time: float
    mode: str
    field_noise: float
    averaging_time: float
    noise_density: float       # [rad/s per sqrt(Hz)]
    threshold: float | None    # [rad/s]; None = delta_L/2
    drive_profile: str
    peak_probability: float
    grid_start: float          # [rad/s]
    grid_stop: float
    grid_points: int


@dataclass(frozen=True)
class RunConfig:
    """Validated scenario; `raw` is the parsed mapping itself, for
    round-trips and sweeps; treat it as read-only."""

    scenario: str
    seed: int
    output_format: str
    output_dir: str | None
    particle: str
    C_p: float
    R_p: float
    detune_linewidths: float
    environment_temperature: float
    trap_logic: circuit.TrapParams
    trap_spectroscopy: circuit.TrapParams
    magnet: MagnetSpec | None
    protocol: ProtocolSpec | None
    raw: dict


def _parse_trap(block: _Block, m: float, q: float) -> circuit.TrapParams:
    keys = dict(
        d_eff=block.take("d_eff_m", float),
        omega_z=hz_to_angular(block.take("axial_frequency_hz", float)),
        B=block.take("field_tesla", float),
        B2_local=block.take("b2_tesla_per_m2", float),
        T_axial=block.take("temperature_k", float),
    )
    block.finish()
    # the model owns the ranges; its error gains the block's key path (the
    # keys are taken before the try, as ConfigError is itself a ValueError)
    try:
        return circuit.TrapParams(**keys, m=m, q=q)
    except ValueError as exc:
        raise ConfigError(block.path, str(exc)) from None


def _parse_magnet(block: _Block) -> MagnetSpec:
    keys = dict(
        r_in=block.take("inner_radius_m", float),
        r_out=block.take("outer_radius_m", float),
        height=block.take("height_m", float),
        mu0_m=block.take("mu0_magnetization_tesla", float),
        center_z=block.take("center_z_m", float, required=False, default=0.0),
    )
    try:  # as in _parse_trap
        ring = magnetics.RingMagnet.saturated(**keys)
    except ValueError as exc:
        raise ConfigError(block.path, str(exc)) from None
    calibrate = block.take("calibrate_b2_tesla_per_m2", float, required=False)
    background = block.take("background_field_tesla", float, required=False, default=0.0)
    profile = block.block("profile")
    spec = MagnetSpec(
        ring=ring,
        calibrate_b2=calibrate,
        background=background,
        z_min=profile.take("z_min_m", float, bound=MAX_PROFILE_M),
        z_max=profile.take("z_max_m", float, bound=MAX_PROFILE_M),
        samples=profile.take("samples", int),
        logic_site=profile.take(
            "logic_site_m", float, required=False, default=0.0, bound=MAX_PROFILE_M
        ),
        spectroscopy_site=profile.take(
            "spectroscopy_site_m", float, required=False, default=0.05,
            bound=MAX_PROFILE_M,
        ),
    )
    profile.finish()
    block.finish()
    if spec.z_min >= spec.z_max:
        raise ConfigError(f"{block.path}.profile.z_min_m", "z_min_m must be < z_max_m")
    if spec.samples < 2:
        raise ConfigError(f"{block.path}.profile.samples", "need at least 2 samples")
    if spec.samples > MAX_GRID:
        raise ConfigError(f"{block.path}.profile.samples", f"at most {MAX_GRID} samples")
    return spec


def _parse_protocol(block: _Block) -> ProtocolSpec:
    detection = block.block("detection")
    averaging = detection.take("averaging_time_s", float)
    noise = hz_to_angular(detection.take("noise_density_hz_per_sqrt_hz", float))
    threshold_hz = detection.take("threshold_hz", float, required=False)
    detection.finish()
    drive = block.block("drive")
    profile = drive.take("profile", str, required=False, default="exponential")
    peak = drive.take("peak_probability", float, required=False, default=1.0)
    grid = drive.block("grid")
    spec = ProtocolSpec(
        cycles=block.take("cycles", int),
        pi_pulse_fidelity=block.take("pi_pulse_fidelity", float),
        sideband_cooling_residual=block.take("sideband_cooling_residual", float),
        cooling_time=block.take("cooling_time_s", float, required=False, default=0.100),
        pulse_time=block.take("pulse_time_s", float, required=False, default=1e-3),
        mode=block.take("mode", str, required=False, default="cyclotron"),
        field_noise=block.take(
            "field_noise_per_sqrt_minute", float, required=False, default=0.0
        ),
        averaging_time=averaging,
        noise_density=noise,
        threshold=None if threshold_hz is None else hz_to_angular(threshold_hz),
        drive_profile=profile,
        peak_probability=peak,
        grid_start=hz_to_angular(grid.take("start_hz", float, bound=MAX_DRIVE_HZ)),
        grid_stop=hz_to_angular(grid.take("stop_hz", float, bound=MAX_DRIVE_HZ)),
        grid_points=grid.take("points", int),
    )
    grid.finish()
    drive.finish()
    block.finish()
    # a bad value exits 2 with its key path; ProtocolConfig, DriveModel and
    # DetectionModel repeat their range checks for library callers
    path = block.path
    if spec.grid_points < 1:
        raise ConfigError(f"{path}.drive.grid.points", "need at least one point")
    if spec.grid_points > MAX_GRID:
        raise ConfigError(f"{path}.drive.grid.points", f"at most {MAX_GRID} points")
    if spec.cycles < 1:
        raise ConfigError(f"{path}.cycles", "need at least one cycle")
    if spec.cycles > MAX_CYCLES:
        raise ConfigError(f"{path}.cycles", f"at most {MAX_CYCLES} cycles")
    if spec.cycles * spec.grid_points > MAX_TOTAL_CYCLES:
        raise ConfigError(
            f"{path}.cycles",
            f"at most {MAX_TOTAL_CYCLES} cycles over the drive grid "
            f"({spec.grid_points} points)",
        )
    if not 0.0 <= spec.pi_pulse_fidelity <= 1.0:
        raise ConfigError(f"{path}.pi_pulse_fidelity", "must lie in [0, 1]")
    if spec.sideband_cooling_residual < 0.0:
        raise ConfigError(f"{path}.sideband_cooling_residual", "must be non-negative")
    if spec.mode not in MODES:
        raise ConfigError(f"{path}.mode", f"must be one of {MODES}")
    if spec.drive_profile not in DRIVE_PROFILES:
        raise ConfigError(f"{path}.drive.profile", f"must be one of {DRIVE_PROFILES}")
    if not 0.0 <= spec.peak_probability <= 1.0:
        raise ConfigError(f"{path}.drive.peak_probability", "must lie in [0, 1]")
    if spec.averaging_time <= 0.0:
        raise ConfigError(f"{path}.detection.averaging_time_s", "must be positive")
    if spec.noise_density < 0.0:
        raise ConfigError(
            f"{path}.detection.noise_density_hz_per_sqrt_hz", "must be non-negative"
        )
    if spec.field_noise < 0.0:
        raise ConfigError(f"{path}.field_noise_per_sqrt_minute", "must be non-negative")
    if spec.cooling_time < 0.0:
        raise ConfigError(f"{path}.cooling_time_s", "must be non-negative")
    if spec.pulse_time < 0.0:
        raise ConfigError(f"{path}.pulse_time_s", "must be non-negative")
    return spec


def parse_config(data: dict) -> RunConfig:
    """Validate a mapping against the strict schema and build a RunConfig.

    The RunConfig keeps `data` itself as `raw`, not a copy, so the caller
    must not mutate `data` afterwards; `dump_config` returns a copy.
    """
    root = _Block(data, "")
    scenario = root.take("scenario", str)
    seed = root.take("seed", int)
    output = root.block("output", required=False)
    output_format = "csv"
    output_dir = None
    if output is not None:
        output_format = output.take("format", str, required=False, default="csv")
        output_dir = output.take("directory", str, required=False)
        output.finish()
    if output_format not in OUTPUT_FORMATS:
        raise ConfigError("output.format", f"must be one of {OUTPUT_FORMATS}")
    particle = root.take("particle", str)
    try:
        mass, charge = particle_mass_charge(particle)
    except ValueError as exc:
        raise ConfigError("particle", str(exc)) from None

    res = root.block("resonator")
    c_p = res.take("C_p_farad", float)
    r_p = res.take("R_p_ohm", float)
    detune = res.take("detune_linewidths", float, required=False)
    detune_hz = res.take("detune_hz", float, required=False)
    res.finish()
    if (detune is None) == (detune_hz is None):
        raise ConfigError(
            "resonator.detune_linewidths",
            "give exactly one of detune_linewidths or detune_hz",
        )
    if detune is None:
        # absolute placement below omega_z, expressed in resonator linewidths
        detune = hz_to_angular(detune_hz) * c_p * r_p

    env = root.block("environment")
    env_t = env.take("temperature_k", float)
    env.finish()

    traps = root.block("traps")
    trap_logic = _parse_trap(traps.block("logic"), mass, charge)
    trap_spec = _parse_trap(traps.block("spectroscopy"), mass, charge)
    traps.finish()

    magnet_block = root.block("magnet", required=False)
    magnet = _parse_magnet(magnet_block) if magnet_block is not None else None

    protocol_block = root.block("protocol", required=False)
    proto = _parse_protocol(protocol_block) if protocol_block is not None else None

    root.finish()

    if c_p <= 0 or r_p <= 0:
        raise ConfigError("resonator", "C_p_farad and R_p_ohm must be positive")
    if detune <= 0:
        raise ConfigError("resonator.detune_linewidths", "must be positive")
    if env_t < 0:
        raise ConfigError("environment.temperature_k", "must be non-negative")
    # the same tolerance as circuit.qls_budget, which keeps its own check
    if not math.isclose(trap_logic.omega_z, trap_spec.omega_z, rel_tol=1e-12):
        raise ConfigError(
            "traps.spectroscopy.axial_frequency_hz",
            "must equal traps.logic.axial_frequency_hz",
        )

    return RunConfig(
        scenario=scenario,
        seed=seed,
        output_format=output_format,
        output_dir=output_dir,
        particle=particle,
        C_p=c_p,
        R_p=r_p,
        detune_linewidths=detune,
        environment_temperature=env_t,
        trap_logic=trap_logic,
        trap_spectroscopy=trap_spec,
        magnet=magnet,
        protocol=proto,
        raw=data,
    )


def bundled_scenarios() -> list[str]:
    """Names of the scenario files shipped with the package."""
    pkg = resources.files(__package__) / "scenarios"
    return sorted(p.name[: -len(".yaml")] for p in pkg.iterdir() if p.name.endswith(".yaml"))


def load_config(path_or_name: str | Path) -> RunConfig:
    """Load a scenario from a file path or a bundled scenario name."""
    path = Path(path_or_name)
    if path.is_file():
        text = path.read_text()
    else:
        candidate = resources.files(__package__) / "scenarios" / f"{path_or_name}.yaml"
        if not candidate.is_file():
            raise ConfigError(
                "scenario",
                f"{path_or_name!r} is neither a file nor a bundled scenario "
                f"(bundled: {bundled_scenarios()})",
            )
        text = candidate.read_text()
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:  # one line: the problem and its position
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = " ".join((getattr(exc, "problem", None) or str(exc)).split())
        raise ConfigError("<root>", f"invalid YAML: {problem}{where}") from None
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a mapping")
    return parse_config(data)


def dump_config(config: RunConfig) -> dict:
    """The validated scenario as a plain mapping (inverse of parse_config)."""
    return copy.deepcopy(config.raw)


def build_resonator(config: RunConfig) -> circuit.ResonatorParams:
    """Resonator placed the configured number of linewidths below omega_z."""
    return circuit.ResonatorParams.detuned_below(
        config.C_p, config.R_p, config.trap_logic.omega_z, config.detune_linewidths
    )


def build_budget(config: RunConfig) -> circuit.ExchangeBudget:
    """Exchange/dissipation budget at the configured operating point."""
    return circuit.qls_budget(
        build_resonator(config),
        config.trap_logic,
        config.trap_spectroscopy,
        config.environment_temperature,
        config.detune_linewidths,
    )


def build_ring(config: RunConfig) -> magnetics.RingMagnet:
    """Bottle ring, calibrated when the scenario requests it."""
    if config.magnet is None:
        raise ConfigError("magnet", "missing required key")
    ring = config.magnet.ring
    if config.magnet.calibrate_b2 is not None:
        ring = ring.calibrated_to(config.magnet.calibrate_b2)
    return ring


def build_protocol(
    config: RunConfig, seed: int | None = None
) -> protocol.ProtocolConfig:
    """Assemble the full per-cycle configuration from the scenario."""
    from . import protocol

    if config.protocol is None:
        raise ConfigError("protocol", "missing required key")
    spec = config.protocol
    seed = config.seed if seed is None else seed
    if seed < 0:
        raise ConfigError("seed", f"must be non-negative, got {seed}")
    budget = build_budget(config)
    trap_s = config.trap_spectroscopy
    shifts_l = spectroscopy.shift_set_for_trap(config.trap_logic)
    if not shifts_l.delta > 0.0:  # no readout threshold lies between 0 and delta
        raise ConfigError(
            "traps.logic.b2_tesla_per_m2", "must give a positive bottle shift"
        )
    shifts_s = spectroscopy.shift_set_for_trap(trap_s)
    threshold = spec.threshold if spec.threshold is not None else 0.5 * shifts_l.delta
    detunings = tuple(linspace(spec.grid_start, spec.grid_stop, spec.grid_points))
    return protocol.ProtocolConfig(
        budget=budget,
        shifts_L=shifts_l,
        shifts_S=shifts_s,
        pi_pulse_fidelity=spec.pi_pulse_fidelity,
        sideband_cooling_residual=spec.sideband_cooling_residual,
        detection=protocol.DetectionModel(
            averaging_time=spec.averaging_time,
            noise_density=spec.noise_density,
            threshold=threshold,
        ),
        drive=protocol.DriveModel(
            detunings=detunings,
            profile=spec.drive_profile,
            peak_probability=spec.peak_probability,
        ),
        field_noise=spec.field_noise,
        cycles=spec.cycles,
        seed=seed,
        omega_c_spec=cyclotron_frequency(trap_s.B, trap_s.q, trap_s.m),
        cooling_time=spec.cooling_time,
        pulse_time=spec.pulse_time,
        mode=spec.mode,
    )


def linspace(start: float, stop: float, num: int) -> list[float]:
    """`num` evenly spaced floats from `start` to `stop`, both included.

    The same arithmetic as `numpy.linspace`, so the values agree bit for
    bit: i * step + start, with i / (num - 1) * (stop - start) + start where
    the step underflows to zero, and the last value set to `stop`.
    """
    if num < 0:
        raise ValueError(f"Number of samples, {num}, must be non-negative.")
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


def set_by_path(data: dict, dotted: str, value) -> dict:
    """Copy `data` with the numeric leaf at `dotted` replaced by `value`.

    Only the mappings along the path are copied; the copy shares every
    other block with `data`, so neither may be mutated in place. Used by
    parameter sweeps; the leaf must already exist and be numeric.
    An integral value on an integer leaf is written as an int, so integer
    leaves can be swept.
    """
    *parents, leaf = dotted.split(".")
    out = node = dict(data)
    for part in parents:
        child = node.get(part)
        if not isinstance(child, dict):
            raise ConfigError(dotted, "no such key in the scenario")
        node[part] = dict(child)
        node = node[part]
    if leaf not in node:
        raise ConfigError(dotted, "no such key in the scenario")
    current = node[leaf]
    if isinstance(current, bool) or not isinstance(current, (int, float)):
        raise ConfigError(dotted, "sweep axis must name a numeric leaf")
    if isinstance(current, int) and float(value).is_integer():
        value = int(value)
    node[leaf] = value
    return out
