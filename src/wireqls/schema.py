"""What a scenario may contain, and the walk that checks it.

`SCHEMA` has one row per leaf, and one walk over the scenario (`_walk`)
checks every leaf against its row, rejects unknown keys and reports a
missing required key, each by its dotted path as a `ConfigError`.
Frequencies are written in Hz and converted to rad/s exactly once, there.
The `magnet` and `protocol` blocks are optional and walk to None when left
out. `config` builds the scenario model from the walked leaves and adds
the checks that span several of them.

Every command compiles this module and `config`, and a compile's transient
memory adds to the process's peak RSS where no bytecode is cached, so the
rows and the walk live apart from the model that reads them.

A leaf's interval is a `constants.Range`, the same class the checked
records annotate their fields with.
"""

import math

from .constants import (
    FINITE, NON_NEGATIVE, PARTICLES, POSITIVE, PROBABILITY, Range, hz_to_angular,
)

__all__ = ["SCHEMA", "ConfigError"]

OUTPUT_FORMATS = ("csv", "records")
# caps a point's time; `lineshape` and `protocol` draw it in bounded blocks
MAX_CYCLES = 1_000_000
# cycles over the whole drive grid, about 12 s of Monte Carlo at ~0.12 us a cycle
MAX_TOTAL_CYCLES = 100_000_000
MAX_GRID = 100_000  # detuning grid points, field profile samples
MAX_DRIVE_HZ = 1.0e12  # |drive grid end| [Hz], above any modelled cyclotron line
MAX_PROFILE_M = 10.0  # |field profile end, trap site or ring center|, ring size [m]


PROFILE_EXTENT = Range(-MAX_PROFILE_M, MAX_PROFILE_M, f"must lie within +-{MAX_PROFILE_M:g}")
RING_SIZE = Range(-math.inf, MAX_PROFILE_M, f"must be at most {MAX_PROFILE_M:g}")
DRIVE_EXTENT = Range(-MAX_DRIVE_HZ, MAX_DRIVE_HZ, f"must lie within +-{MAX_DRIVE_HZ:g}")
CYCLES = Range(1, MAX_CYCLES, f"must lie in [1, {MAX_CYCLES}]")
GRID_POINTS = Range(1, MAX_GRID, f"must lie in [1, {MAX_GRID}]")
PROFILE_SAMPLES = Range(2, MAX_GRID, f"must lie in [2, {MAX_GRID}]")

HZ = "Hz"  # kind of a frequency leaf: a number in Hz, read as rad/s
REQUIRED = "required"  # default of a leaf the scenario must give
OPTIONAL_BLOCKS = ("magnet", "protocol")  # left out, they read as None

# One row per leaf: dotted key path; kind (str, int, float or HZ); default
# (REQUIRED, or the value a left-out key reads as, None for no value); the
# accepted Range or choices (None: any value of the kind). A float must also
# be finite; a Range applies to the number as written, before any Hz
# conversion.
SCHEMA = (
    ("scenario", str, REQUIRED, None),
    ("seed", int, REQUIRED, None),  # `build_protocol` rejects a negative seed
    ("particle", str, REQUIRED, tuple(PARTICLES)),
    ("output.format", str, "csv", OUTPUT_FORMATS),
    ("output.directory", str, None, None),
    ("resonator.C_p_farad", float, REQUIRED, POSITIVE),
    ("resonator.R_p_ohm", float, REQUIRED, POSITIVE),
    ("resonator.detune_linewidths", float, None, POSITIVE),
    ("resonator.detune_hz", HZ, None, None),  # in linewidths, it must be positive
    ("environment.temperature_k", float, REQUIRED, NON_NEGATIVE),
    # circuit.TrapParams owns the trap ranges
    ("traps.logic.d_eff_m", float, REQUIRED, None),
    ("traps.logic.axial_frequency_hz", HZ, REQUIRED, None),
    ("traps.logic.field_tesla", float, REQUIRED, None),
    ("traps.logic.b2_tesla_per_m2", float, REQUIRED, None),
    ("traps.logic.temperature_k", float, REQUIRED, None),
    ("traps.spectroscopy.d_eff_m", float, REQUIRED, None),
    ("traps.spectroscopy.axial_frequency_hz", HZ, REQUIRED, None),
    ("traps.spectroscopy.field_tesla", float, REQUIRED, None),
    ("traps.spectroscopy.b2_tesla_per_m2", float, REQUIRED, None),
    ("traps.spectroscopy.temperature_k", float, REQUIRED, None),
    # magnetics.RingMagnet owns the geometry ranges below the size cap
    ("magnet.inner_radius_m", float, REQUIRED, RING_SIZE),
    ("magnet.outer_radius_m", float, REQUIRED, RING_SIZE),
    ("magnet.height_m", float, REQUIRED, RING_SIZE),
    ("magnet.mu0_magnetization_tesla", float, REQUIRED, None),
    ("magnet.center_z_m", float, 0.0, PROFILE_EXTENT),
    ("magnet.background_field_tesla", float, 0.0, None),
    ("magnet.calibrate_b2_tesla_per_m2", float, None, None),
    ("magnet.profile.z_min_m", float, REQUIRED, PROFILE_EXTENT),
    ("magnet.profile.z_max_m", float, REQUIRED, PROFILE_EXTENT),
    ("magnet.profile.samples", int, REQUIRED, PROFILE_SAMPLES),
    ("magnet.profile.logic_site_m", float, 0.0, PROFILE_EXTENT),
    ("magnet.profile.spectroscopy_site_m", float, 0.05, PROFILE_EXTENT),
    ("protocol.cycles", int, REQUIRED, CYCLES),
    ("protocol.pi_pulse_fidelity", float, REQUIRED, PROBABILITY),
    ("protocol.sideband_cooling_residual", float, REQUIRED, NON_NEGATIVE),
    ("protocol.cooling_time_s", float, 0.100, NON_NEGATIVE),
    ("protocol.pulse_time_s", float, 1e-3, NON_NEGATIVE),
    ("protocol.mode", str, "cyclotron", ("cyclotron", "anomaly")),
    ("protocol.field_noise_per_sqrt_minute", float, 0.0, NON_NEGATIVE),
    ("protocol.detection.averaging_time_s", float, REQUIRED, POSITIVE),
    ("protocol.detection.noise_density_hz_per_sqrt_hz", HZ, REQUIRED, NON_NEGATIVE),
    ("protocol.detection.threshold_hz", HZ, None, None),  # None: delta_L/2
    ("protocol.drive.profile", str, "exponential", ("exponential", "gaussian")),
    ("protocol.drive.peak_probability", float, 1.0, PROBABILITY),
    ("protocol.drive.grid.start_hz", HZ, REQUIRED, DRIVE_EXTENT),
    ("protocol.drive.grid.stop_hz", HZ, REQUIRED, DRIVE_EXTENT),
    ("protocol.drive.grid.points", int, REQUIRED, GRID_POINTS),
)


class ConfigError(ValueError):
    """Schema violation; `path` is the dotted key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _block_tree() -> dict:
    """SCHEMA by block path: (leaf rows, child blocks, known keys)."""
    tree: dict[str, tuple[list, dict]] = {}
    for row in SCHEMA:
        block, _, name = row[0].rpartition(".")
        tree.setdefault(block, ([], {}))[0].append((name, *row))
        while block:  # the block is a child of its parent, and so on up
            parent, _, key = block.rpartition(".")
            tree.setdefault(parent, ([], {}))[1][key] = block
            block = parent
    return {
        path: (
            tuple(rows),
            tuple((key, child, child in OPTIONAL_BLOCKS) for key, child in kids.items()),
            frozenset(kids).union(row[0] for row in rows),
        )
        for path, (rows, kids) in tree.items()
    }


_TREE = _block_tree()


def _leaf(path: str, kind, accept, value):
    """`value` checked against its SCHEMA row; a float comes back as float,
    and an HZ leaf in rad/s."""
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(path, f"expected a string, got {value!r}")
        if accept is not None and value not in accept:
            raise ConfigError(path, f"must be one of {accept}")
        return value
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(path, f"expected an integer, got {value!r}")
    else:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(path, f"expected a number, got {value!r}")
        if not abs(value) <= FINITE.hi:  # also rejects nan
            raise ConfigError(path, f"expected a finite number, got {value!r}")
        value = float(value)
    if accept is not None and not accept.lo <= value <= accept.hi:
        raise ConfigError(path, accept.text)
    if kind is HZ and not abs(value := hz_to_angular(value)) <= FINITE.hi:
        raise ConfigError(path, "must be finite in rad/s, 2 pi times the value in Hz")
    return value


def _walk(data, path: str, absent: str | None = None) -> dict:
    """The checked leaves of the block at `path`, keyed as in the scenario,
    with each child block as a nested mapping (None for a left-out optional
    block). A left-out required block is walked as empty, with `absent` its
    path, which its first missing required key reports."""
    if not isinstance(data, dict):
        raise ConfigError(path or "<root>", "expected a mapping")
    leaves, blocks, known = _TREE[path]
    if not known.issuperset(data):
        key = min(data.keys() - known, key=str)
        raise ConfigError(f"{path}.{key}" if path else str(key), "unknown key")
    out = {}
    for name, leaf, kind, default, accept in leaves:
        if name in data:
            out[name] = _leaf(leaf, kind, accept, data[name])
        elif default is REQUIRED:
            raise ConfigError(absent or leaf, "missing required key")
        else:
            out[name] = default
    for name, block, optional in blocks:
        if name in data:
            out[name] = _walk(data[name], block)
        else:
            out[name] = None if optional else _walk({}, block, absent or block)
    return out
