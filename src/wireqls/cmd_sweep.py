"""`wireqls sweep`: the exchange budget along one numeric leaf of the
scenario, one CSV row per swept value. The scenario edits that only a
sweep makes, `set_by_path` and `sweep_configs`, live here, so that no
other command compiles them."""

import math
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import config as cfg
from .constants import linspace
from .schema import MAX_GRID, SCHEMA, ConfigError, _leaf, _walk

if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

__all__ = ["cmd_sweep", "set_by_path", "sweep_configs"]


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


def sweep_configs(
    config: cfg.RunConfig, dotted: str, values: "Iterable[float]"
) -> "Iterator[cfg.RunConfig]":
    """`cfg.parse_config(set_by_path(config.raw, dotted, value))` for each
    of `values`. The scenario is walked once; each point re-checks only the
    swept leaf, then runs the checks that span several leaves."""
    walked = _walk(config.raw, "")
    rows = {row[0]: row for row in SCHEMA}
    for value in values:
        data = set_by_path(config.raw, dotted, value)
        leaf = data
        for key in dotted.split("."):
            leaf = leaf[key]  # the value as set_by_path wrote it
        _, kind, _, accept = rows[dotted]
        swept = _leaf(dotted, kind, accept, leaf)
        yield cfg._build(set_by_path(walked, dotted, swept), data)


def _fmt(x) -> str:
    return repr(float(x))


def cmd_sweep(rc: cfg.RunConfig, args: SimpleNamespace) -> tuple[str, str]:
    try:
        start, stop, points = args.range.split(":")
        start, stop, points = float(start), float(stop), int(points)
        if points < 0:
            raise ValueError(points)
    except (ValueError, TypeError):
        raise ConfigError("range", "expected start:stop:points") from None
    if points > MAX_GRID:
        raise ConfigError("range", f"at most {MAX_GRID} points")
    if not all(map(math.isfinite, (start, stop, stop - start))):  # else a point is nan
        raise ConfigError("range", "start, stop and stop - start must be finite")
    values = linspace(start, stop, points)
    header = (
        f"{args.axis},omega_ex_rad_per_s,t_ex_s,gamma_per_s,n_bar,figure,feasible\n"
    )
    rows = [header]
    for value, swept in zip(values, sweep_configs(rc, args.axis, values)):
        b = cfg.build_budget(swept)
        rows.append(
            f"{_fmt(value)},{_fmt(b.omega_ex)},{_fmt(b.t_ex)},{_fmt(b.gamma)},"
            f"{_fmt(b.n_bar)},{_fmt(b.figure)},{int(b.feasible)}\n"
        )
    return "sweep.csv", "".join(rows)
