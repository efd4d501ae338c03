"""Command-line surface: budget, field, lineshape, protocol, sweep.

Every command takes --config (a scenario file path or a bundled scenario
name) and writes CSV/text to stdout, or into --out <dir> when given.
--seed overrides the scenario seed; --format switches budget output between
the human-readable report and JSON records. Exit codes: 0 success, 2 schema
errors (with the offending key path), 1 other domain errors.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import config as cfg
from . import magnetics, protocol
from .constants import angular_to_hz

__all__ = ["main"]


def _fmt(x) -> str:
    return repr(float(x))


def _emit(text: str, out_dir: str | None, filename: str) -> None:
    if out_dir is None:
        sys.stdout.write(text)
    else:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / filename).write_text(text)


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
        "threshold": budget.threshold,
    }


def cmd_budget(rc: cfg.RunConfig, out_dir: str | None, fmt: str) -> int:
    d = _budget_dict(rc)
    if fmt == "records":
        _emit(json.dumps(d, indent=2, sort_keys=True) + "\n", out_dir, "budget.json")
        return 0
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
    _emit("\n".join(lines) + "\n", out_dir, "budget.txt")
    return 0


def cmd_field(rc: cfg.RunConfig, out_dir: str | None) -> int:
    if rc.magnet is None:
        raise cfg.ConfigError("magnet", "missing required key")
    ring = cfg.build_ring(rc)
    spec = rc.magnet
    grid = np.linspace(spec.z_min, spec.z_max, spec.samples)
    sites = {spec.logic_site: "logic", spec.spectroscopy_site: "spectroscopy"}
    grid = np.union1d(grid, np.asarray(list(sites)))
    profile = magnetics.field_profile(ring, grid, background=spec.background)
    buf = io.StringIO()
    magnetics.write_profile_csv(profile, buf, markers=sites)
    # independent-derivative spot check, appended as an agreement flag; each
    # gradient's error is relative to its largest magnitude over the checked
    # points, so a point near a zero of B1 or B2 does not inflate it
    zs = grid[:: max(1, len(grid) // 8)]
    analytic = np.array([magnetics.gradients(ring, float(z)) for z in zs])
    fd = np.array([magnetics.fd_gradients(ring, float(z)) for z in zs])
    scale = np.abs(analytic).max(axis=0)
    err = np.abs(analytic - fd).max(axis=0)
    worst = float(np.max(err / np.where(scale > 0.0, scale, np.inf), initial=0.0))
    buf.write(f"# fd_agreement_max_rel_err = {worst!r}\n")
    buf.write(f"# fd_agreement_ok = {int(worst <= 1e-6)}\n")
    _emit(buf.getvalue(), out_dir, "field.csv")
    return 0


def cmd_lineshape(rc: cfg.RunConfig, out_dir: str | None, seed: int | None) -> int:
    pc = cfg.build_protocol(rc, seed=seed)
    shape = protocol.lineshape_scan(pc)
    center, width = protocol.fitted_center_width(shape)
    summary = {
        "jump_rate": float(np.mean(shape.fractions)),
        "fitted_center_rad_per_s": center,
        "fitted_width_rad_per_s": width,
        "center_uncertainty_rad_per_s": protocol.center_uncertainty(shape),
    }
    buf = io.StringIO()
    protocol.write_lineshape_csv(shape, buf, summary=summary)
    _emit(buf.getvalue(), out_dir, "lineshape.csv")
    return 0


def cmd_protocol(rc: cfg.RunConfig, out_dir: str | None, seed: int | None) -> int:
    # record stream at zero drive detuning (on the nominal line center)
    pc = cfg.build_protocol(rc, seed=seed)
    records = protocol.simulate_point(pc, 0.0, point_index=0)
    buf = io.StringIO()
    protocol.write_records_csv(records, buf)
    rate = int(np.count_nonzero(records.declared_jump)) / pc.cycles
    buf.write(f"# jump_rate = {rate!r}\n")
    _emit(buf.getvalue(), out_dir, "records.csv")
    return 0


def cmd_sweep(rc: cfg.RunConfig, axis: str, values, out_dir: str | None) -> int:
    header = (
        f"{axis},omega_ex_rad_per_s,t_ex_s,gamma_per_s,n_bar,figure,feasible\n"
    )
    rows = [header]
    for value in values:
        data = cfg.set_by_path(rc.raw, axis, float(value))
        swept = cfg.parse_config(data)
        b = cfg.build_budget(swept)
        rows.append(
            f"{_fmt(value)},{_fmt(b.omega_ex)},{_fmt(b.t_ex)},{_fmt(b.gamma)},"
            f"{_fmt(b.n_bar)},{_fmt(b.figure)},{int(b.feasible)}\n"
        )
    _emit("".join(rows), out_dir, "sweep.csv")
    return 0


def _parse_range(spec: str) -> np.ndarray:
    try:
        start, stop, points = spec.split(":")
        return np.linspace(float(start), float(stop), int(points))
    except (ValueError, TypeError):
        raise cfg.ConfigError("range", "expected start:stop:points") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wireqls",
        description="Budgets, field profiles, and Monte Carlo for "
        "wire-coupled two-trap quantum logic readout.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("budget", "exchange/dissipation budget report"),
        ("field", "bottle-ring on-axis field profile CSV"),
        ("lineshape", "quantum-jump lineshape scan CSV"),
        ("protocol", "per-cycle protocol record stream CSV"),
        ("sweep", "budget report swept along one config axis"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario path or bundled name")
        p.add_argument("--out", default=None, help="output directory (default stdout)")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        p.add_argument("--format", choices=cfg.OUTPUT_FORMATS, default=None)
        if name == "sweep":
            p.add_argument("--axis", required=True, help="dotted config path")
            p.add_argument("--range", required=True, help="start:stop:points")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = cfg.load_config(args.config)
        fmt = args.format or rc.output_format
        out_dir = args.out if args.out is not None else rc.output_dir
        if args.command == "budget":
            return cmd_budget(rc, out_dir, fmt)
        if args.command == "field":
            return cmd_field(rc, out_dir)
        if args.command == "lineshape":
            return cmd_lineshape(rc, out_dir, args.seed)
        if args.command == "protocol":
            return cmd_protocol(rc, out_dir, args.seed)
        if args.command == "sweep":
            return cmd_sweep(rc, args.axis, _parse_range(args.range), out_dir)
        raise AssertionError(f"unhandled command {args.command}")
    except cfg.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
