"""Command-line surface: budget, field, lineshape, protocol, sweep.

`parse_args` reads argv from the `_COMMANDS` and `_FLAGS` tables as the
standard library's parser would (`--flag value`, `--flag=value`, a unique
prefix, a negative number as a value). A command computes and checks
everything, then `main` writes its output to stdout or --out <dir>: as one
text, or, for `field` and `protocol`, through a writer that computes and
writes one block at a time, so their memory does not grow with the output.
Exit codes: 0 success or help, 2 usage and schema errors, 1 other errors.
`run`, the process entry, turns the cyclic collector off, calls `main`, runs
the atexit handlers, flushes stdout and stderr and ends with `os._exit`.
"""

from __future__ import annotations

import atexit
import contextlib
import gc
import io
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import circuit
from . import config as cfg
from . import magnetics
from .constants import angular_to_hz

if TYPE_CHECKING:
    from collections.abc import Callable
    from typing import NoReturn, TextIO

    Writer = Callable[[TextIO], None]

__all__ = ["main", "parse_args", "run"]


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


def cmd_budget(rc: cfg.RunConfig, args: SimpleNamespace) -> tuple[str, str]:
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


PROFILE_BLOCK = 256  # positions a block of `field`'s profile; 1024 already shows in its RSS


def cmd_field(rc: cfg.RunConfig, args: SimpleNamespace) -> tuple[str, Writer]:
    ring = cfg.build_ring(rc)
    p = rc.magnet["profile"]
    sites = {"logic": p["logic_site_m"], "spectroscopy": p["spectroscopy_site_m"]}
    grid = cfg.linspace(p["z_min_m"], p["z_max_m"], p["samples"])
    grid = sorted(set(grid).union(sites.values()))
    # independent-derivative spot check of the printed gradients, appended as an
    # agreement flag; each error is relative to the gradient's largest magnitude
    # over the checked rows, so a row near a zero of B1 or B2 does not inflate it
    checked = grid[:: max(1, len(grid) // 8)]
    profile = magnetics.field_profile(ring, checked)
    analytic = list(zip(profile.B1, profile.B2))
    fd = [magnetics.fd_gradients(ring, z) for z in checked]
    worst = 0.0
    for k in (0, 1):
        scale = max(abs(a[k]) for a in analytic)
        if scale > 0.0:
            err = max(abs(a[k] - f[k]) for a, f in zip(analytic, fd))
            worst = max(worst, err / scale)
    background = rc.magnet["background_field_tesla"]
    blocks = (magnetics.field_profile(ring, grid[i:i + PROFILE_BLOCK], background)
              for i in range(0, len(grid), PROFILE_BLOCK))

    def write(stream: TextIO) -> None:
        magnetics.write_profile_csv(blocks, stream, markers=sites)
        stream.write(f"# fd_agreement_max_rel_err = {worst!r}\n")
        stream.write(f"# fd_agreement_ok = {int(worst <= 1e-6)}\n")

    return "field.csv", write


def cmd_lineshape(rc: cfg.RunConfig, args: SimpleNamespace) -> tuple[str, str]:
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


def cmd_protocol(rc: cfg.RunConfig, args: SimpleNamespace) -> tuple[str, Writer]:
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


def cmd_sweep(rc: cfg.RunConfig, args: SimpleNamespace) -> tuple[str, str]:
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
    "--config": dict(required=True, help="scenario path or bundled name"),
    "--out": dict(default=None, help="output directory (default stdout)"),
    "--format": dict(choices=cfg.OUTPUT_FORMATS, default=None, help="csv (report) or records"),
    "--seed": dict(type=int, default=None, help="override scenario seed"),
    "--axis": dict(required=True, help="dotted config path"),
    "--range": dict(required=True, help="start:stop:points"),
}

# name -> (command, help, the flags it reads beyond --config and --out); a command
# returns (output filename, text or a function writing the text to a stream)
_COMMANDS = {
    "budget": (cmd_budget, "exchange/dissipation budget report", ("--format",)),
    "field": (cmd_field, "bottle-ring on-axis field profile CSV", ()),
    "lineshape": (cmd_lineshape, "quantum-jump lineshape scan CSV", ("--seed",)),
    "protocol": (cmd_protocol, "per-cycle protocol record stream CSV", ("--seed",)),
    "sweep": (cmd_sweep, "budget report swept along one config axis", ("--axis", "--range")),
}

_USAGE = {None: "wireqls [-h] {" + ",".join(_COMMANDS) + "} ...", **{
    name: " ".join(["wireqls", name, "[-h] --config --out", *flags])
    for name, (_, _, flags) in _COMMANDS.items()}}


def _stop(status: int, text: str, command: str | None = None) -> NoReturn:
    if status:  # a usage error
        prog = "wireqls" if command is None else f"wireqls {command}"
        text = f"usage: {_USAGE[command]}\n{prog}: error: {text}"
    with contextlib.suppress(AttributeError, OSError):  # no stream, or a closed one
        (sys.stderr if status else sys.stdout).write(text + "\n")
    raise SystemExit(status)


def _help(flag: str, text: str | None, command: str | None) -> NoReturn:
    if text is not None and not (flag == "-h" and text and not text.strip("h")):  # -hh is help
        _stop(2, f"argument -h/--help: ignored explicit argument {text!r}", command)
    lines = [f"  {n:10} {a}\n  {'':10} {_USAGE[n]}" for n, (_, a, _) in _COMMANDS.items()]
    lines += ["", *(f"  {f:10} {spec.get('help', '')}" for f, spec in _FLAGS.items())]
    _stop(0, "\n".join([f"usage: {_USAGE[None]}", "", *lines]))


def _option(arg: str, options: tuple[str, ...], command: str | None):
    """None for a value (a negative number too), else (the option or None, its text)."""
    if arg[:1] != "-" or arg == "-":
        return None
    name, eq, text = arg.partition("=")
    if arg in (known := ("-h", *options)) or eq and name in known:  # exact, before `=`
        return (arg, None) if arg in known else (name, text)
    if arg[:2] == "-h":
        return "-h", arg[2:]
    if len(hits := [o for o in options if arg[1] == "-" and o.startswith(name)]) > 1:
        _stop(2, f"ambiguous option: {arg} could match {', '.join(hits)}", command)
    if hits:
        return hits[0], text if eq else None
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg else (None, None)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """`argv` read as the standard library's parser reads it (see tests)."""
    for i, arg in enumerate([*argv, "--"]):  # flags before the command: help or unknown
        if arg == "--" or not (word := _option(arg, ("--help",), None)):
            break
        if word[0]:
            _help(*word, None)
    if (command := argv[i] if i < len(argv) else None) not in _COMMANDS:
        _stop(2, "the following arguments are required: command" if command is None
              else f"argument command: invalid choice: {command!r}")
    flags, rest, extras = ("--config", "--out", *_COMMANDS[command][2]), argv[i + 1:], argv[:i]
    cut = rest.index("--") if "--" in rest else len(rest)  # no flag after `--`
    words = [_option(arg, ("--help", *flags), command) for arg in rest[:cut]] + [("--",)]
    values, j = dict.fromkeys(flags), 0
    while j < cut:
        word, j = words[j], j + 1
        if word is None or word[0] is None:
            extras.append(rest[j - 1])
        elif word[0] in ("-h", "--help"):
            _help(*word, command)
        else:
            flag, text = word
            if text is None:
                if words[j] is not None:
                    _stop(2, f"argument {flag}: expected one argument", command)
                text, j = rest[j], j + 1
            spec, values[flag] = _FLAGS[flag], None
            with contextlib.suppress(ValueError):
                values[flag] = spec.get("type", str)(text)
            if values[flag] is None or values[flag] not in spec.get("choices", [values[flag]]):
                _stop(2, f"argument {flag}: invalid value: {text!r}", command)
    if missing := [f for f in flags if _FLAGS[f].get("required") and values[f] is None]:
        _stop(2, f"the following arguments are required: {', '.join(missing)}", command)
    if extras := extras + rest[cut:]:
        _stop(2, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, **{f[2:]: v for f, v in values.items()})


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
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
    """Process entry: `main`, without the interpreter's teardown (see above)."""
    gc.disable()
    status = main()
    atexit._run_exitfuncs()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        with contextlib.suppress(OSError):  # main reported it, or nothing can be
            stream.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
