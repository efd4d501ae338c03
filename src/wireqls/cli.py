"""Command-line surface: budget, field, lineshape, protocol, sweep.

Every command takes --config (a scenario file path or a bundled scenario
name) and writes CSV/text to stdout, or into --out <dir> when given; `main`
writes it once, after the command has computed and checked everything.
`protocol` checks its set-up the same way, then hands `main` a writer that
draws and writes the record table block by block; `lineshape` counts each
point's jumps over the same blocks, so neither grows with the cycles.
`lineshape` and `protocol` take --seed to override the scenario seed;
`budget` takes --format to switch between the human-readable report and JSON
records; `sweep` takes --axis and --range. Exit codes: 0 success, 2 schema
errors (with the offending key path), 1 other domain errors.

numpy and the Monte Carlo module are imported by the commands that compute
arrays (`lineshape`, `protocol`), so `budget`, `field` and `sweep` start
without them; `json` is imported only by `budget --format records`.

A process enters through `run` (`python -m wireqls.cli` and the installed
`wireqls` script), which turns the cyclic collector off before `main` and,
once `main` has returned, runs the atexit handlers, flushes stdout and
stderr and ends the process with `os._exit`. A command leaves the same few
hundred cyclic objects whatever its size, so the collections during numpy's
import and the interpreter's teardown of every module buy nothing. `main`
leaves the collector as it found it, so in-process callers keep their own.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import io
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import circuit
from . import config as cfg
from . import magnetics
from .constants import angular_to_hz

if TYPE_CHECKING:
    from collections.abc import Callable
    from typing import TextIO

    Writer = Callable[[TextIO], None]

__all__ = ["main", "run"]


def _fmt(x) -> str:
    return repr(float(x))


def _emit(body: str | Writer, out_dir: str | None, filename: str) -> None:
    """Write a command's output to stdout, or to `filename` in `out_dir`;
    `body` is the text, or a function that writes it to a stream."""
    write = body if callable(body) else lambda stream: stream.write(body)
    if out_dir is None:
        if sys.stdout is None:  # started with its stdout closed
            raise OSError("stdout is closed")
        write(sys.stdout)
        sys.stdout.flush()  # a failed write is reported here, not at exit
        return
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    with open(path / filename, "w") as stream:
        write(stream)


def _budget_dict(rc: cfg.RunConfig) -> dict:
    budget = cfg.build_budget(rc)
    return {
        "scenario": rc.scenario,
        "particle": rc.particle,
        "omega_z_rad_per_s": rc.trap_logic.omega_z,
        "detune_linewidths": rc.detune_linewidths,
        "omega_res_rad_per_s": budget.resonator.omega_res,
        "resonator_width_rad_per_s": budget.resonator.delta_omega_res,
        "quality_factor": budget.resonator.quality_factor,
        "re_z_ohm": budget.z_at_omega_z.real,
        "im_z_ohm": budget.z_at_omega_z.imag,
        "c_T_farad": budget.c_T,
        "l_L_henry": budget.l_L,
        "l_S_henry": budget.l_S,
        "omega_ex_rad_per_s": budget.omega_ex,
        "t_ex_s": budget.t_ex,
        "gamma_per_s": budget.gamma,
        "gamma_L_per_s": budget.gamma_L,
        "gamma_S_per_s": budget.gamma_S,
        "n_bar": budget.n_bar,
        "figure": budget.figure,
        "feasible": budget.feasible,
        "threshold": circuit.FEASIBILITY_THRESHOLD,
    }


def cmd_budget(rc: cfg.RunConfig, args: argparse.Namespace) -> tuple[str, str]:
    d = _budget_dict(rc)
    if (args.format or rc.output_format) == "records":
        import json
        return "budget.json", json.dumps(d, indent=2, sort_keys=True) + "\n"
    lines = [
        f"scenario: {d['scenario']} ({d['particle']})",
        f"omega_z: {_fmt(d['omega_z_rad_per_s'])} rad/s"
        f" ({_fmt(angular_to_hz(d['omega_z_rad_per_s']))} Hz)",
        f"resonator placement: omega_res = omega_z - {_fmt(d['detune_linewidths'])}"
        f" linewidths = {_fmt(d['omega_res_rad_per_s'])} rad/s",
        f"resonator width: {_fmt(d['resonator_width_rad_per_s'])} rad/s"
        f"  Q: {_fmt(d['quality_factor'])}",
        f"Z(omega_z): {_fmt(d['re_z_ohm'])} {'' if d['im_z_ohm'] < 0 else '+'}"
        f"{_fmt(d['im_z_ohm'])}j Ohm  (C_T: {_fmt(d['c_T_farad'])} F)",
        f"l_L: {_fmt(d['l_L_henry'])} H  l_S: {_fmt(d['l_S_henry'])} H",
        f"omega_ex: {_fmt(d['omega_ex_rad_per_s'])} rad/s  t_ex: {_fmt(d['t_ex_s'])} s",
        f"Gamma: {_fmt(d['gamma_per_s'])} 1/s"
        f"  (logic {_fmt(d['gamma_L_per_s'])}, spectroscopy {_fmt(d['gamma_S_per_s'])})",
        f"n_bar: {_fmt(d['n_bar'])}",
        f"figure t_ex*n_bar*Gamma: {_fmt(d['figure'])}",
        f"feasible: {'yes' if d['feasible'] else 'NO'}"
        f" (threshold {_fmt(d['threshold'])})",
    ]
    if not d["feasible"]:
        lines.append(
            "WARNING: figure exceeds the feasibility threshold; "
            "the exchange decoheres before completing"
        )
    return "budget.txt", "\n".join(lines) + "\n"


def cmd_field(rc: cfg.RunConfig, args: argparse.Namespace) -> tuple[str, str]:
    ring = cfg.build_ring(rc)
    p = rc.magnet["profile"]
    sites = {p["logic_site_m"]: "logic", p["spectroscopy_site_m"]: "spectroscopy"}
    grid = sorted(set(cfg.linspace(p["z_min_m"], p["z_max_m"], p["samples"])) | set(sites))
    profile = magnetics.field_profile(
        ring, grid, background=rc.magnet["background_field_tesla"]
    )
    buf = io.StringIO()
    magnetics.write_profile_csv(profile, buf, markers=sites)
    # independent-derivative spot check, appended as an agreement flag; each
    # gradient's error is relative to its largest magnitude over the checked
    # points, so a point near a zero of B1 or B2 does not inflate it
    zs = grid[:: max(1, len(grid) // 8)]
    analytic = [magnetics.gradients(ring, z) for z in zs]
    fd = [magnetics.fd_gradients(ring, z) for z in zs]
    worst = 0.0
    for k in (0, 1):
        scale = max(abs(a[k]) for a in analytic)
        if scale > 0.0:
            err = max(abs(a[k] - f[k]) for a, f in zip(analytic, fd))
            worst = max(worst, err / scale)
    buf.write(f"# fd_agreement_max_rel_err = {worst!r}\n")
    buf.write(f"# fd_agreement_ok = {int(worst <= 1e-6)}\n")
    return "field.csv", buf.getvalue()


def cmd_lineshape(rc: cfg.RunConfig, args: argparse.Namespace) -> tuple[str, str]:
    import numpy as np

    from . import protocol

    pc = cfg.build_protocol(rc, seed=args.seed)
    shape = protocol.lineshape_scan(pc)
    if not shape.fractions.any():  # name what zeroes the line, else the cycles
        names = ", ".join(protocol.vanishing_inputs(pc))
        why = (f"zero line from {names}" if names
               else f"no jump in protocol.cycles = {pc.cycles} cycles a point")
        raise ValueError(f"lineshape has no excitation to fit: {why}")
    center, width = protocol.fitted_center_width(shape)
    summary = {
        "jump_rate": float(np.mean(shape.fractions)),
        "fitted_center_rad_per_s": center,
        "fitted_width_rad_per_s": width,
        "center_uncertainty_rad_per_s": protocol.center_uncertainty(shape),
    }
    buf = io.StringIO()
    protocol.write_lineshape_csv(shape, buf, summary=summary)
    return "lineshape.csv", buf.getvalue()


def cmd_protocol(rc: cfg.RunConfig, args: argparse.Namespace) -> tuple[str, Writer]:
    from . import protocol

    # record stream at zero drive detuning (on the nominal line center);
    # record_blocks resolves the swap probability now, and the writer draws
    # and writes the table one block of cycles at a time
    pc = cfg.build_protocol(rc, seed=args.seed)
    blocks = protocol.record_blocks(pc, 0.0, point_index=0)

    def write(stream: TextIO) -> None:
        jumps = protocol.write_records_csv(blocks, stream)
        stream.write(f"# jump_rate = {jumps / pc.cycles!r}\n")

    return "records.csv", write


def cmd_sweep(rc: cfg.RunConfig, args: argparse.Namespace) -> tuple[str, str]:
    try:
        start, stop, points = args.range.split(":")
        start, stop, points = float(start), float(stop), int(points)
        if points < 0:
            raise ValueError(points)
    except (ValueError, TypeError):
        raise cfg.ConfigError("range", "expected start:stop:points") from None
    if points > cfg.MAX_GRID:
        raise cfg.ConfigError("range", f"at most {cfg.MAX_GRID} points")
    values = cfg.linspace(start, stop, points)
    header = (
        f"{args.axis},omega_ex_rad_per_s,t_ex_s,gamma_per_s,n_bar,figure,feasible\n"
    )
    rows = [header]
    for value, swept in zip(values, cfg.sweep_configs(rc, args.axis, values)):
        b = cfg.build_budget(swept)
        rows.append(
            f"{_fmt(value)},{_fmt(b.omega_ex)},{_fmt(b.t_ex)},{_fmt(b.gamma)},"
            f"{_fmt(b.n_bar)},{_fmt(b.figure)},{int(b.feasible)}\n"
        )
    return "sweep.csv", "".join(rows)


_FLAGS = {
    "--format": dict(choices=cfg.OUTPUT_FORMATS, default=None),
    "--seed": dict(type=int, default=None, help="override scenario seed"),
    "--axis": dict(required=True, help="dotted config path"),
    "--range": dict(required=True, help="start:stop:points"),
}

# name -> (command, help, the flags it reads beyond --config and --out); a
# command computes and checks everything first, then returns (output
# filename, text) or (output filename, function writing the text to a stream)
_COMMANDS = {
    "budget": (cmd_budget, "exchange/dissipation budget report", ("--format",)),
    "field": (cmd_field, "bottle-ring on-axis field profile CSV", ()),
    "lineshape": (cmd_lineshape, "quantum-jump lineshape scan CSV", ("--seed",)),
    "protocol": (cmd_protocol, "per-cycle protocol record stream CSV", ("--seed",)),
    "sweep": (cmd_sweep, "budget report swept along one config axis",
              ("--axis", "--range")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wireqls",
        description="Budgets, field profiles, and Monte Carlo for "
        "wire-coupled two-trap quantum logic readout.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario path or bundled name")
        p.add_argument("--out", default=None, help="output directory (default stdout)")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = cfg.load_config(args.config)
        filename, body = _COMMANDS[args.command][0](rc, args)
        _emit(body, args.out if args.out is not None else rc.output_dir, filename)
        return 0
    except cfg.ConfigError as exc:
        status, report = 2, f"config error: {exc}"
    except (ValueError, OSError, ArithmeticError) as exc:
        status, report = 1, f"error: {exc}"
    if sys.stderr is not None:  # None when the process started without fd 2
        with contextlib.suppress(OSError):  # a failed report changes no status
            print(report, file=sys.stderr)
    return status


def run() -> None:
    """Process entry: `main` with the collector off, then the atexit
    handlers, the flush of stdout and stderr, and `os._exit` with `main`'s
    status, skipping the interpreter's teardown (see the module docstring)."""
    gc.disable()
    status = main()
    atexit._run_exitfuncs()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        with contextlib.suppress(OSError):  # main reported it, or nothing can be
            stream.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
