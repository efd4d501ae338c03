"""`wireqls protocol`: the per-cycle record stream of one point, on the
nominal line center, as CSV with its jump rate."""

from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import config as cfg
from . import protocol

if TYPE_CHECKING:
    from typing import TextIO

    from .cli import Writer

__all__ = ["cmd_protocol"]


def cmd_protocol(rc: cfg.RunConfig, args: SimpleNamespace) -> "tuple[str, Writer]":
    # record stream at zero drive detuning (on the nominal line center);
    # record_blocks resolves the swap probability now, and the writer draws
    # and writes the table one block of cycles at a time
    pc = protocol.build_protocol(rc, seed=args.seed)
    blocks = protocol.record_blocks(pc, 0.0, point_index=0)

    def write(stream: "TextIO") -> None:
        jumps = protocol.write_records_csv(blocks, stream, rows=pc.cycles)
        stream.write(f"# jump_rate = {jumps / pc.cycles!r}\n")

    return "records.csv", write
