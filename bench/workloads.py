"""Seeded workload generators for the wireqls benchmark.

Each workload turns a seed into a set of scenario mappings (written as YAML
into a scratch directory, so the program only ever sees generated files)
and a command list that a single closed-loop client runs in order, one
child process at a time. The same seed always yields the same scenarios
and commands; the stdlib `random.Random` stream is used so the inputs do
not depend on the numpy version under test.

Workloads
---------
design-loop     budget (text and records), field and 200-600 point sweeps
                on variants of the electron and proton presets. Interpreter
                start-up, imports and config parsing dominate; no swap
                solve and no Monte Carlo run here.
readout-scan    lineshape and protocol at the bundled 46 points x 400
                cycles on electron variants with budget figure 0.01-0.10
                at 5-15 mK. One swap solve per command, about half its
                time.
drift-campaign  day-scale lineshape (6000 cycles x 46 points) with magnet
                drift 1e-10 per sqrt(minute), beside a 50,000-cycle
                protocol record stream written to --out. The Monte Carlo
                kernel and record output dominate.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import yaml

# Nominal presets, kept here rather than read from the package so that a
# change to the bundled scenario files cannot change the benchmark inputs.
ELECTRON = {
    "scenario": "paper-electron",
    "seed": 20230601,
    "particle": "electron",
    "output": {"format": "csv"},
    "resonator": {"C_p_farad": 1.0e-11, "R_p_ohm": 5.0e5, "detune_linewidths": 30.0},
    "environment": {"temperature_k": 0.010},
    "traps": {
        "logic": {
            "d_eff_m": 1.0e-3,
            "axial_frequency_hz": 2.0e8,
            "field_tesla": 6.0,
            "b2_tesla_per_m2": 9000.0,
            "temperature_k": 0.010,
        },
        "spectroscopy": {
            "d_eff_m": 3.0e-3,
            "axial_frequency_hz": 2.0e8,
            "field_tesla": 6.0,
            "b2_tesla_per_m2": 4.0,
            "temperature_k": 0.010,
        },
    },
    "magnet": {
        "inner_radius_m": 5.0e-3,
        "outer_radius_m": 1.5e-2,
        "height_m": 5.0e-3,
        "mu0_magnetization_tesla": 2.35,
        "center_z_m": 0.0,
        "background_field_tesla": 6.0,
        "calibrate_b2_tesla_per_m2": 9000.0,
        "profile": {
            "z_min_m": -0.02,
            "z_max_m": 0.08,
            "samples": 201,
            "logic_site_m": 0.0,
            "spectroscopy_site_m": 0.05,
        },
    },
    "protocol": {
        "cycles": 400,
        "pi_pulse_fidelity": 0.99,
        "sideband_cooling_residual": 0.02,
        "cooling_time_s": 0.100,
        "pulse_time_s": 1.0e-3,
        "mode": "cyclotron",
        "field_noise_per_sqrt_minute": 0.0,
        "detection": {"averaging_time_s": 0.050, "noise_density_hz_per_sqrt_hz": 0.127},
        "drive": {
            "profile": "exponential",
            "peak_probability": 0.8,
            "grid": {"start_hz": -0.01, "stop_hz": 0.08, "points": 46},
        },
    },
}

PROTON = {
    "scenario": "paper-proton",
    "seed": 20230601,
    "particle": "proton",
    "output": {"format": "csv"},
    "resonator": {"C_p_farad": 1.0e-11, "R_p_ohm": 1.0e9, "detune_linewidths": 30.0},
    "environment": {"temperature_k": 0.010},
    "traps": {
        "logic": {
            "d_eff_m": 1.0e-3,
            "axial_frequency_hz": 1.0e6,
            "field_tesla": 6.0,
            "b2_tesla_per_m2": 9000.0,
            "temperature_k": 0.010,
        },
        "spectroscopy": {
            "d_eff_m": 3.0e-3,
            "axial_frequency_hz": 1.0e6,
            "field_tesla": 6.0,
            "b2_tesla_per_m2": 4.0,
            "temperature_k": 0.010,
        },
    },
}

HBAR = 1.054571817e-34  # CODATA 2018, independent of the package constants
K_B = 1.380649e-23

# Budget figure of the electron preset at 10 mK times the detuning in
# linewidths: the figure falls as 1/detune (capacitive limit) and scales
# with n_bar, which places a variant at a chosen figure to within ~1%.
ELECTRON_FIGURE_X_DETUNE = 0.0975 * 30.0
# The budget calls a figure below 1 feasible, but the program's n_max=4
# swap solve raises TruncationError from a figure of ~0.14 at 12.5-15 mK
# (~0.13-0.15 over 5-15 mK). Every command of a workload must succeed, so
# that the failure count is the same whatever the host's speed; 0.10 keeps
# a margin below that edge and still holds the paper's point (0.0975).
READOUT_FIGURE_RANGE = (0.01, 0.10)
READOUT_TEMPERATURE_RANGE = (0.005, 0.015)
DAY_CYCLES_PER_POINT = 6000              # 46 x 6000 x 0.31 s ~ one day
DRIFT_FIELD_NOISE = 1.0e-10              # per sqrt(minute), the magnet figure
RECORD_STREAM_CYCLES = 50_000
BLOCK = 8                                # variants per stratified block
DESIGN_BLOCKS = 6                        # blocks of eight design variants
READOUT_BLOCKS = 8                       # blocks of BLOCK readout variants
DRIFT_VARIANTS = 16


@dataclass(frozen=True)
class Command:
    """One CLI invocation: `wireqls <kind> --config <scenario>.yaml <args>`."""

    kind: str                 # CLI subcommand
    scenario: str             # stem of a generated scenario file
    args: tuple[str, ...]     # further CLI arguments
    variant: str              # variant id, for failure listings
    params: dict = field(default_factory=dict)   # drawn variant parameters
    expect: dict = field(default_factory=dict)   # what the output checks need
    label: str = ""           # command kind used for per-kind statistics

    @property
    def tag(self) -> str:
        return self.label or self.kind


def thermal_occupation(axial_frequency_hz: float, temperature_k: float) -> float:
    """Bose-Einstein n_bar from CODATA constants (an independent oracle)."""
    if temperature_k == 0.0:
        return 0.0
    return 1.0 / math.expm1(HBAR * 2.0 * math.pi * axial_frequency_hz / (K_B * temperature_k))


def _stratified(rng: random.Random, n: int) -> list[float]:
    """n draws in [0, 1), one per equal stratum, in shuffled order."""
    strata = list(range(n))
    rng.shuffle(strata)
    return [(s + rng.random()) / n for s in strata]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _set_temperature(scenario: dict, temperature_k: float) -> None:
    scenario["environment"]["temperature_k"] = temperature_k
    for trap in scenario["traps"].values():
        trap["temperature_k"] = temperature_k


def _budget_expect(scenario: dict, nominal: str | None = None) -> dict:
    return {
        "nominal": nominal,
        "scenario": scenario["scenario"],
        "axial_frequency_hz": scenario["traps"]["logic"]["axial_frequency_hz"],
        "temperature_k": scenario["environment"]["temperature_k"],
    }


SWEEP_AXES = {
    "environment.temperature_k": (0.002, 0.05),
    "resonator.detune_linewidths": (5.0, 200.0),
    "resonator.R_p_ohm": (1.0e5, 5.0e6),
}


def _design_commands(
    rng: random.Random, name: str, scenario: dict, with_field: bool, nominal: str | None
) -> list[Command]:
    # the proton's 1 MHz axial frequency leaves no room for a low-R_p
    # (wide) resonator 30 linewidths below it, so it sweeps the first two
    axes = list(SWEEP_AXES)[:2] if scenario["particle"] == "proton" else list(SWEEP_AXES)
    axis = rng.choice(axes)
    lo, hi = SWEEP_AXES[axis]
    points = rng.randint(200, 600)
    budget = _budget_expect(scenario, nominal)
    params = {"detune_linewidths": scenario["resonator"]["detune_linewidths"],
              "temperature_k": scenario["environment"]["temperature_k"]}
    cmds = [
        Command("budget", name, (), name, params, budget),
        Command("budget", name, ("--format", "records"), name, params, budget,
                label="budget-records"),
    ]
    if with_field:
        profile = scenario["magnet"]["profile"]
        cmds.append(Command("field", name, (), name, params, {
            "samples": profile["samples"],
            "b2_target": scenario["magnet"]["calibrate_b2_tesla_per_m2"],
        }))
    cmds.append(Command(
        "sweep", name, ("--axis", axis, "--range", f"{lo!r}:{hi!r}:{points}"), name,
        dict(params, axis=axis, points=points),
        dict(budget, axis=axis, start=lo, stop=hi, points=points),
    ))
    return cmds


def design_loop(seed: int) -> tuple[dict[str, dict], list[Command]]:
    """Budget/field/sweep design iterations on electron and proton variants.

    Each block runs both nominal presets (whose budgets are checked against
    the paper's numbers) and six variants: detune 5-200 linewidths
    (log-uniform), temperature 4-20 mK, R_p 1e5-5e6 Ohm and 200-2000
    profile samples for electrons. The ring geometry stays the paper's:
    `field`'s own finite-difference spot check reads fd_agreement_ok = 0
    for about one random geometry in 400 (a check point next to a zero of
    B2), while at the paper's geometry it reads at most 7e-9 against its
    1e-6 limit for every sample count in 200-2000.
    """
    rng = random.Random(f"design-loop:{seed}")
    scenarios: dict[str, dict] = {}
    commands: list[Command] = []
    for b in range(DESIGN_BLOCKS):
        detunes = _stratified(rng, 6)
        temps = _stratified(rng, 6)
        for k in range(8):
            name = f"d{b}-{k}"
            if k == 0:
                scenario, nominal, electron = copy.deepcopy(ELECTRON), "paper-electron", True
            elif k == 1:
                scenario, nominal, electron = copy.deepcopy(PROTON), "paper-proton", False
            else:
                electron = k < 6
                scenario = copy.deepcopy(ELECTRON if electron else PROTON)
                nominal = None
                scenario["resonator"]["detune_linewidths"] = round(
                    _log_uniform(detunes[k - 2], 5.0, 200.0), 6)
                _set_temperature(scenario, round(0.004 + 0.016 * temps[k - 2], 6))
                if electron:
                    scenario["resonator"]["R_p_ohm"] = round(
                        _log_uniform(rng.random(), 1.0e5, 5.0e6), 1)
                    scenario["magnet"]["profile"]["samples"] = rng.randint(200, 2000)
            scenario["scenario"] = name
            scenarios[name] = scenario
            commands += _design_commands(rng, name, scenario, electron, nominal)
    return scenarios, commands


def readout_scan(seed: int) -> tuple[dict[str, dict], list[Command]]:
    """lineshape + protocol per feasible electron variant.

    Variants are Latin-hypercube draws per block of eight over the budget
    figure (log-uniform over READOUT_FIGURE_RANGE, placed through the
    detuning) and the temperature (5-15 mK), plus a Monte Carlo seed.
    """
    rng = random.Random(f"readout-scan:{seed}")
    n_bar_ref = thermal_occupation(2.0e8, 0.010)
    scenarios: dict[str, dict] = {}
    commands: list[Command] = []
    for b in range(READOUT_BLOCKS):
        figures = _stratified(rng, BLOCK)
        temps = _stratified(rng, BLOCK)
        for k in range(BLOCK):
            name = f"r{b}-{k}"
            figure = _log_uniform(figures[k], *READOUT_FIGURE_RANGE)
            lo, hi = READOUT_TEMPERATURE_RANGE
            temperature = round(lo + (hi - lo) * temps[k], 6)
            n_bar = thermal_occupation(2.0e8, temperature)
            detune = round(ELECTRON_FIGURE_X_DETUNE * (n_bar / n_bar_ref) / figure, 6)
            mc_seed = rng.randrange(2**31)
            scenario = copy.deepcopy(ELECTRON)
            scenario["scenario"] = name
            scenario["resonator"]["detune_linewidths"] = detune
            _set_temperature(scenario, temperature)
            scenarios[name] = scenario
            params = {"figure_target": round(figure, 4), "detune_linewidths": detune,
                      "temperature_k": temperature, "mc_seed": mc_seed}
            proto = scenario["protocol"]
            seed_args = ("--seed", str(mc_seed))
            commands += [
                Command("lineshape", name, seed_args, name, params, {
                    "points": proto["drive"]["grid"]["points"],
                    "cycles": proto["cycles"], "zero_drift": True, "mc_seed": mc_seed}),
                Command("protocol", name, seed_args, name, params, {
                    "cycles": proto["cycles"], "zero_drift": True, "mc_seed": mc_seed}),
            ]
    return scenarios, commands


def drift_campaign(seed: int) -> tuple[dict[str, dict], list[Command]]:
    """Day-scale drifting lineshape and a 50,000-cycle record stream.

    Variants keep the nominal operating point (so the swap solve stays a
    minor, non-failing share) and draw the Monte Carlo seed, the pi-pulse
    fidelity (0.97-0.995), the cooling residual (0.01-0.04) and the drive
    peak probability (0.7-0.9).
    """
    rng = random.Random(f"drift-campaign:{seed}")
    scenarios: dict[str, dict] = {}
    commands: list[Command] = []
    for k in range(DRIFT_VARIANTS):
        name = f"c{k}"
        mc_seed = rng.randrange(2**31)
        base = copy.deepcopy(ELECTRON)
        proto = base["protocol"]
        proto["field_noise_per_sqrt_minute"] = DRIFT_FIELD_NOISE
        proto["pi_pulse_fidelity"] = round(rng.uniform(0.97, 0.995), 6)
        proto["sideband_cooling_residual"] = round(rng.uniform(0.01, 0.04), 6)
        proto["drive"]["peak_probability"] = round(rng.uniform(0.7, 0.9), 6)
        params = {"mc_seed": mc_seed, "pi_pulse_fidelity": proto["pi_pulse_fidelity"],
                  "sideband_cooling_residual": proto["sideband_cooling_residual"],
                  "peak_probability": proto["drive"]["peak_probability"]}
        day = copy.deepcopy(base)
        day["scenario"] = f"{name}-day"
        day["protocol"]["cycles"] = DAY_CYCLES_PER_POINT
        stream = copy.deepcopy(base)
        stream["scenario"] = f"{name}-stream"
        stream["protocol"]["cycles"] = RECORD_STREAM_CYCLES
        scenarios[day["scenario"]] = day
        scenarios[stream["scenario"]] = stream
        seed_args = ("--seed", str(mc_seed))
        commands += [
            Command("lineshape", day["scenario"], seed_args, name, params, {
                "points": proto["drive"]["grid"]["points"], "cycles": DAY_CYCLES_PER_POINT,
                "zero_drift": False, "mc_seed": mc_seed}),
            Command("protocol", stream["scenario"], seed_args, name, params, {
                "cycles": RECORD_STREAM_CYCLES, "zero_drift": False, "out": True,
                "mc_seed": mc_seed}),
        ]
    return scenarios, commands


WORKLOADS = {
    "design-loop": design_loop,
    "readout-scan": readout_scan,
    "drift-campaign": drift_campaign,
}


def generate(workload: str, seed: int) -> tuple[dict[str, dict], list[Command]]:
    """Scenarios and the ordered command list of one workload and seed."""
    return WORKLOADS[workload](seed)


def write_scenarios(scenarios: dict[str, dict], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, scenario in scenarios.items():
        (directory / f"{name}.yaml").write_text(yaml.safe_dump(scenario, sort_keys=True))


def mc_cycles(cmd: Command) -> int:
    """Monte Carlo cycles a command runs when it completes (points x cycles)."""
    if cmd.kind == "lineshape":
        return cmd.expect["points"] * cmd.expect["cycles"]
    if cmd.kind == "protocol":
        return cmd.expect["cycles"]
    return 0
