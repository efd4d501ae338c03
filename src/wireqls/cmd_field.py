"""`wireqls field`: the bottle ring's on-axis field profile as CSV, with a
finite-difference spot check of its gradients."""

from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import config as cfg
from . import magnetics

if TYPE_CHECKING:
    from typing import TextIO

    from .cli import Writer

__all__ = ["PROFILE_BLOCK", "cmd_field"]

PROFILE_BLOCK = 256  # positions a block of `field`'s profile; 1024 already shows in its RSS


def cmd_field(rc: cfg.RunConfig, args: SimpleNamespace) -> "tuple[str, Writer]":
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

    def write(stream: "TextIO") -> None:
        magnetics.write_profile_csv(blocks, stream, markers=sites)
        stream.write(f"# fd_agreement_max_rel_err = {worst!r}\n")
        stream.write(f"# fd_agreement_ok = {int(worst <= 1e-6)}\n")

    return "field.csv", write
