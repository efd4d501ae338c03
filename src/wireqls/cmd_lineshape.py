"""`wireqls lineshape`: the Monte Carlo quantum-jump lineshape over the
drive grid as CSV, with its fitted center and width."""

import io
from types import SimpleNamespace

from . import config as cfg
from . import protocol

__all__ = ["cmd_lineshape"]


def cmd_lineshape(rc: cfg.RunConfig, args: SimpleNamespace) -> tuple[str, str]:
    pc = protocol.build_protocol(rc, seed=args.seed)
    shape = protocol.lineshape_scan(pc)
    if not shape.fractions.any():  # name what zeroes the line, else the cycles
        names = ", ".join(protocol.vanishing_inputs(pc))
        why = (f"zero line from {names}" if names
               else f"no jump in protocol.cycles = {pc.cycles} cycles a point")
        raise ValueError(f"lineshape has no excitation to fit: {why}")
    center, width = protocol.fitted_center_width(shape)
    summary = {
        "jump_rate": float(shape.fractions.mean()),
        "fitted_center_rad_per_s": center,
        "fitted_width_rad_per_s": width,
        "center_uncertainty_rad_per_s": protocol.center_uncertainty(shape),
    }
    buf = io.StringIO()
    protocol.write_lineshape_csv(shape, buf, summary=summary)
    return "lineshape.csv", buf.getvalue()
