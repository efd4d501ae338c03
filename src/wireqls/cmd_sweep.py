"""`wireqls sweep`: the exchange budget along one numeric leaf of the
scenario, one CSV row per swept value."""

from types import SimpleNamespace

from . import config as cfg

__all__ = ["cmd_sweep"]


def _fmt(x) -> str:
    return repr(float(x))


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
