"""Scenario model: the validated RunConfig, the loader and the exchange budget.

`parse_config` walks a scenario against `schema.SCHEMA`, then adds the
checks that span several leaves: one resonator placement, a profile that
starts below its end, a bound on the cycles over the whole drive grid, and
one axial frequency for both traps. `circuit` owns the trap ranges, the
common axial frequency and the placement (so `RunConfig.resonator` is
placed once, here), `magnetics.RingMagnet` the ring ranges; their errors
gain a key path.

A leaf of the optional `magnet` and `protocol` blocks goes from its
`SCHEMA` row through the walk into `RunConfig.magnet` or `.protocol` (keyed
as in the file, defaults filled in, in rad/s), and from there to the code
that reads it by key (`protocol.build_protocol`, `cmd_field`). A new leaf
is its row plus that code.

Every command compiles this module, and a compile's transient memory adds
to the process's peak RSS, so the schema is in `schema`, and code only some
commands run lives with them: `build_protocol` in `protocol`
(`config.build_protocol` still resolves), `build_ring` in `cmd_field`, and
the PyYAML reader in `yaml_loader`, which `load_config` imports only for
text that is not plain block YAML. Bundled scenarios (`paper-electron`,
`paper-proton`) may be named in place of a path. Parsing a scenario and
building its budget need no numpy, and a scenario loads `magnetics` only
where it has a `magnet` block.
"""

import re
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import circuit
from .constants import particle_mass_charge
from .schema import MAX_TOTAL_CYCLES, ConfigError, _walk

if TYPE_CHECKING:
    from . import magnetics

__all__ = [
    "RunConfig",
    "parse_config",
    "load_config",
    "bundled_scenarios",
    "build_budget",
]

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
# the leaf a placement error names by its first word; others name the detuning
_PLACEMENT_KEYS = {"omega_z": "traps.logic.axial_frequency_hz",
                   "C_p": "resonator.C_p_farad", "R_p": "resonator.R_p_ohm"}


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
    detune, detune_hz = res["detune_linewidths"], res["detune_hz"]
    if (detune is None) == (detune_hz is None):
        raise ConfigError(
            "resonator.detune_linewidths",
            "give exactly one of detune_linewidths or detune_hz",
        )
    key = "resonator." + ("detune_linewidths" if detune_hz is None else "detune_hz")
    if detune is None:
        # absolute placement below omega_z, expressed in resonator linewidths;
        # C_p * R_p is checked first, so that its underflow names its factor
        if detune_hz <= 0:
            raise ConfigError(key, "must be positive")
        try:
            circuit.ResonatorParams.time_constant(res["C_p_farad"], res["R_p_ohm"])
        except ValueError as exc:
            raise ConfigError(_PLACEMENT_KEYS[str(exc).split()[0]], str(exc)) from None
        if (detune := detune_hz * res["C_p_farad"] * res["R_p_ohm"]) == 0.0:
            raise ConfigError(key, "detune_hz * C_p * R_p underflows to zero linewidths")

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
        raise ConfigError(_PLACEMENT_KEYS.get(str(exc).split()[0], key), str(exc)) from None

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
