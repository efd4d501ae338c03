"""`wireqls budget`: the exchange/dissipation budget at the scenario's
operating point, as a text report or, with `--format records`, as JSON."""

from types import SimpleNamespace

from . import circuit
from . import config as cfg
from .constants import angular_to_hz

__all__ = ["cmd_budget"]


def _fmt(x) -> str:
    return repr(float(x))


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
