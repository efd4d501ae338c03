"""`wireqls field`: the bottle ring's on-axis field profile as CSV, with a
finite-difference spot check of its gradients. The ring, the grid and the
check are resolved first; the writer then computes and writes the profile
one row at a time. Only this command calibrates the ring (`build_ring`),
so no other command compiles that code."""

from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import config as cfg
from . import magnetics
from .constants import linspace
from .schema import ConfigError

if TYPE_CHECKING:
    from typing import TextIO

    from .cli import Writer

__all__ = ["build_ring", "cmd_field"]


def build_ring(config: cfg.RunConfig) -> magnetics.RingMagnet:
    """Bottle ring, calibrated when the scenario requests it."""
    if config.magnet is None:
        raise ConfigError("magnet", "missing required key")
    b2 = config.magnet["calibrate_b2_tesla_per_m2"]
    try:
        return config.ring if b2 is None else config.ring.calibrated_to(b2)
    except ValueError as exc:  # a vanishing B2, or a rescaled M beyond the float range
        raise ConfigError("magnet.calibrate_b2_tesla_per_m2", str(exc)) from None


def cmd_field(rc: cfg.RunConfig, args: SimpleNamespace) -> "tuple[str, Writer]":
    ring = build_ring(rc)
    p = rc.magnet["profile"]
    sites = {"logic": p["logic_site_m"], "spectroscopy": p["spectroscopy_site_m"]}
    grid = linspace(p["z_min_m"], p["z_max_m"], p["samples"])
    grid = sorted(set(grid).union(sites.values()))
    # independent-derivative spot check of the printed gradients, appended as an
    # agreement flag; each error is relative to the gradient's largest magnitude
    # over the checked rows, so a row near a zero of B1 or B2 does not inflate it
    checked = grid[:: max(1, len(grid) // 8)]
    analytic = [magnetics.gradients(ring, z) for z in checked]
    fd = [magnetics.fd_gradients(ring, z) for z in checked]
    worst = 0.0
    for k in (0, 1):
        scale = max(abs(a[k]) for a in analytic)
        if scale > 0.0:
            err = max(abs(a[k] - f[k]) for a, f in zip(analytic, fd))
            worst = max(worst, err / scale)
    rows = magnetics.field_profile(ring, grid, rc.magnet["background_field_tesla"])

    def write(stream: "TextIO") -> None:
        magnetics.write_profile_csv(rows, stream, markers=sites)
        stream.write(f"# fd_agreement_max_rel_err = {worst!r}\n")
        stream.write(f"# fd_agreement_ok = {int(worst <= 1e-6)}\n")

    return "field.csv", write
