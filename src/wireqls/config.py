"""Scenario configuration: strict schema, loading and the exchange budget.

Configs are YAML with nested blocks. `SCHEMA` has one row per leaf, and one
walk over the scenario (`_walk`) checks every leaf against its row, rejects
unknown keys and reports a missing required key, each by its dotted path.
Frequencies are written in Hz and converted to rad/s exactly once, there.
The `magnet` and `protocol` blocks are optional; commands that need a
missing block fail with its key path.

A leaf of those blocks goes from its `SCHEMA` row through `_walk` into
`RunConfig.magnet` or `.protocol` (keyed as in the file, defaults filled in,
in rad/s), and from there to the code that reads it by key
(`protocol.build_protocol`, `cmd_field`). A new leaf is its row plus that code.

`parse_config` adds the checks that span several leaves: one resonator
placement, a profile that starts below its end, a bound on the cycles over
the whole drive grid, and one axial frequency for both traps. `circuit`
owns the trap ranges, the common axial frequency and the placement (so
`RunConfig.resonator` is placed once, here), `magnetics.RingMagnet` the
ring ranges; their errors gain a key path. `SCHEMA` only caps the ring's
inner and outer radius and height, and its center's distance from the
origin, at `MAX_PROFILE_M`.

Every command compiles this module, and a compile's transient memory adds
to the process's peak RSS, so code only some commands run lives with them:
`build_protocol` in `protocol` (`config.build_protocol` still resolves),
`build_ring` in `cmd_field`, and the PyYAML reader in `yaml_loader`, which
`load_config` imports only for text that is not plain block YAML. Bundled
scenarios (`paper-electron`, `paper-proton`) may be named in place of a
path. Parsing a scenario and building its budget need no numpy, and a
scenario loads `magnetics` only where it has a `magnet` block.
"""

import math
import re
import sys
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import circuit
from .constants import PARTICLES, hz_to_angular, particle_mass_charge

if TYPE_CHECKING:
    from . import magnetics

__all__ = [
    "SCHEMA",
    "ConfigError",
    "RunConfig",
    "parse_config",
    "load_config",
    "bundled_scenarios",
    "build_budget",
]

OUTPUT_FORMATS = ("csv", "records")
# caps a point's time; `lineshape` and `protocol` draw it in bounded blocks
MAX_CYCLES = 1_000_000
# cycles over the whole drive grid, about 12 s of Monte Carlo at ~0.12 us a cycle
MAX_TOTAL_CYCLES = 100_000_000
MAX_GRID = 100_000  # detuning grid points, field profile samples
MAX_DRIVE_HZ = 1.0e12  # |drive grid end| [Hz], above any modelled cyclotron line
MAX_PROFILE_M = 10.0  # |field profile end, trap site or ring center|, ring size [m]


class Range(NamedTuple):
    """The closed interval lo <= x <= hi a numeric leaf accepts."""

    lo: float
    hi: float
    text: str  # the error message


# math.ulp(0.0) is the least positive float, so lo <= x means x > 0
POSITIVE = Range(math.ulp(0.0), math.inf, "must be positive")
NON_NEGATIVE = Range(0.0, math.inf, "must be non-negative")
PROBABILITY = Range(0.0, 1.0, "must lie in [0, 1]")
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
_FLOAT_MAX = sys.float_info.max
# A line of plain block YAML: indent, then a blank, a comment, `key:` or
# `key: value` with value an int, float or word as PyYAML resolves them (a
# float needs its dot and a signed exponent), then an optional comment.
_BLOCK_LINE = re.compile(
    r"( *)(?:([A-Za-z_][A-Za-z0-9_]*):(?: +(?:([-+]?(?:0|[1-9][0-9]*))"
    r"|([-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?)|([A-Za-z][A-Za-z0-9_-]*)))?"
    r"(?= |$))? *(?:#.*)?"
)
# words PyYAML reads as a bool or null, and any other casing of them
_NOT_WORDS = frozenset(("yes", "no", "true", "false", "on", "off", "null"))
# keeps keys under libyaml's 1024 characters and ints under int()'s digit cap
_MAX_LINE = 200


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
        if not abs(value) <= _FLOAT_MAX:  # also rejects nan
            raise ConfigError(path, f"expected a finite number, got {value!r}")
        value = float(value)
    if accept is not None and not accept.lo <= value <= accept.hi:
        raise ConfigError(path, accept.text)
    if kind is HZ and not abs(value := hz_to_angular(value)) <= _FLOAT_MAX:
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


class RunConfig(NamedTuple):
    """Validated scenario; `magnet` and `protocol` are the walked blocks (None
    when left out), `raw` the parsed mapping itself. Treat all as read-only."""

    scenario: str
    seed: int
    output_format: str
    output_dir: str | None
    particle: str
    resonator: circuit.ResonatorParams  # placed below the common axial frequency
    detune_linewidths: float
    environment_temperature: float
    trap_logic: circuit.TrapParams
    trap_spectroscopy: circuit.TrapParams
    ring: "magnetics.RingMagnet | None"  # as specified, before any calibration
    magnet: dict | None
    protocol: dict | None
    raw: dict


def parse_config(data: dict) -> RunConfig:
    """Validate a mapping against `SCHEMA` and build a RunConfig.

    The RunConfig keeps `data` itself as `raw`, not a copy, so the caller
    must not mutate `data` afterwards.
    """
    return _build(_walk(data, ""), data)


def _build(v: dict, data: dict) -> RunConfig:
    """The RunConfig of `data`, whose walked leaves are `v`: the checks
    that span several leaves, and the trap and ring models."""
    res = v["resonator"]
    detune = res["detune_linewidths"]
    if (detune is None) == (res["detune_hz"] is None):
        raise ConfigError(
            "resonator.detune_linewidths",
            "give exactly one of detune_linewidths or detune_hz",
        )
    if detune is None:
        # absolute placement below omega_z, expressed in resonator linewidths
        detune = res["detune_hz"] * res["C_p_farad"] * res["R_p_ohm"]
        if detune <= 0:
            raise ConfigError("resonator.detune_hz", "must be positive")

    # the models own these ranges; their errors gain the block's key path
    mass, charge = particle_mass_charge(v["particle"])
    traps = {}
    for name, t in v["traps"].items():
        try:
            traps[name] = circuit.TrapParams(
                d_eff=t["d_eff_m"], omega_z=t["axial_frequency_hz"],
                B=t["field_tesla"], B2_local=t["b2_tesla_per_m2"],
                T_axial=t["temperature_k"], m=mass, q=charge,
            )
        except ValueError as exc:
            raise ConfigError(f"traps.{name}", str(exc)) from None
    try:
        omega_z = circuit.common_axial_frequency(traps["logic"], traps["spectroscopy"])
    except ValueError:
        raise ConfigError(
            "traps.spectroscopy.axial_frequency_hz",
            "must equal traps.logic.axial_frequency_hz",
        ) from None
    try:
        resonator = circuit.ResonatorParams.detuned_below(
            res["C_p_farad"], res["R_p_ohm"], omega_z, detune
        )
    except ValueError as exc:
        named = {"omega_z": "traps.logic.axial_frequency_hz", "C_p": "resonator.C_p_farad",
                 "R_p": "resonator.R_p_ohm"}
        key = "resonator." + ("detune_linewidths" if res["detune_hz"] is None else "detune_hz")
        raise ConfigError(named.get(str(exc).split()[0], key), str(exc)) from None

    ring = None
    if (m := v["magnet"]) is not None:
        from . import magnetics

        try:
            ring = magnetics.RingMagnet.saturated(
                r_in=m["inner_radius_m"], r_out=m["outer_radius_m"],
                height=m["height_m"], mu0_m=m["mu0_magnetization_tesla"],
                center_z=m["center_z_m"],
            )
        except ValueError as exc:
            raise ConfigError("magnet", str(exc)) from None
        if m["profile"]["z_min_m"] >= m["profile"]["z_max_m"]:
            raise ConfigError("magnet.profile.z_min_m", "z_min_m must be < z_max_m")

    if (p := v["protocol"]) is not None:
        points = p["drive"]["grid"]["points"]
        if p["cycles"] * points > MAX_TOTAL_CYCLES:
            raise ConfigError(
                "protocol.cycles",
                f"at most {MAX_TOTAL_CYCLES} cycles over the drive grid "
                f"({points} points)",
            )

    return RunConfig(
        scenario=v["scenario"],
        seed=v["seed"],
        output_format=v["output"]["format"],
        output_dir=v["output"]["directory"],
        particle=v["particle"],
        resonator=resonator,
        detune_linewidths=detune,
        environment_temperature=v["environment"]["temperature_k"],
        trap_logic=traps["logic"],
        trap_spectroscopy=traps["spectroscopy"],
        ring=ring,
        magnet=m,
        protocol=p,
        raw=data,
    )


def bundled_scenarios() -> list[str]:
    """Names of the scenario files shipped with the package."""
    pkg = resources.files(__package__) / "scenarios"
    return sorted(p.name[: -len(".yaml")] for p in pkg.iterdir() if p.name.endswith(".yaml"))


def _read_block_yaml(text: str) -> dict | None:
    """The mapping `text` holds, as `yaml.safe_load` gives it, when every
    line is plain block YAML (`_BLOCK_LINE`) and the blocks nest by indent;
    None for any other text, an empty one, a duplicate key, a `key:` with
    no block under it, or a bool or null word."""
    root: dict = {}
    stack = [(-1, None)]  # (indent, mapping) of each open block
    opened = root  # the block a `key:` line opened, until its first key
    for line in text.split("\n"):
        if len(line) > _MAX_LINE or not line.isprintable():
            return None  # tabs, CR, BOM and other controls among them
        match = _BLOCK_LINE.fullmatch(line)
        if match is None:
            return None
        indent, key, integer, real, word = match.groups()
        if key is None:
            continue
        depth = len(indent)
        if opened is not None:
            if depth <= stack[-1][0]:
                return None
            stack.append((depth, opened))
            opened = None
        while depth < stack[-1][0]:
            stack.pop()
        node = stack[-1][1]
        if depth != stack[-1][0] or key in node or key.lower() in _NOT_WORDS:
            return None
        if integer is not None:
            node[key] = int(integer)
        elif real is not None:
            node[key] = float(real)
        elif word is None:
            node[key] = opened = {}
        elif word.lower() in _NOT_WORDS:
            return None
        else:
            node[key] = word
    return root if opened is None else None


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
    data = _read_block_yaml(text)
    if data is None:  # the only path that loads PyYAML
        from .yaml_loader import load_yaml

        data = load_yaml(text)
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a mapping")
    return parse_config(data)


def build_budget(config: RunConfig) -> circuit.ExchangeBudget:
    """Exchange/dissipation budget at the configured operating point."""
    try:
        return circuit.qls_budget(
            config.resonator,
            config.trap_logic,
            config.trap_spectroscopy,
            config.environment_temperature,
        )
    except circuit.OccupationOverflow as exc:
        raise ConfigError("environment.temperature_k", str(exc)) from None
    except circuit.UncoupledInput as exc:  # no exchange: Im Z, one trap, or both ("traps")
        keys = {"res": "resonator", "trap_L": "traps.logic", "trap_S": "traps.spectroscopy"}
        raise ConfigError(keys.get(exc.culprit, exc.culprit), str(exc)) from None


def __getattr__(name: str):
    # `build_protocol` lives in `protocol`, which loads numpy, and resolves here too
    if name == "build_protocol":
        from .protocol import build_protocol

        return build_protocol
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
