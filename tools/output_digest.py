#!/usr/bin/env python3
"""Print a digest of the command line's output bytes, one line a command.

    python tools/output_digest.py <src dir> > digest.txt

It generates the scenarios of the benchmark's three workloads
(`bench/workloads.py`) at seeds 1 and 2 into a temporary directory and runs
every distinct command among them, then six commands on each bundled
scenario with and without `--out`, each as `python -m wireqls.cli` with
`<src dir>` on PYTHONPATH. A line holds the command's arguments, its exit
code and the sha256 of its stdout, its stderr and each file it wrote under
`--out`. Paths are relative to the temporary directory, so two source trees
give equal lines exactly where their output bytes are equal: run it on the
`src` of two checkouts and diff the digests.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEEDS = (1, 2)
BUNDLED = ("paper-electron", "paper-proton")
BUNDLED_ARGS = (
    ("budget",),
    ("budget", "--format", "records"),
    ("field",),
    ("sweep", "--axis", "environment.temperature_k", "--range", "0.002:0.05:20"),
    ("lineshape",),
    ("protocol",),
)


def commands(workdir: Path) -> list[list[str]]:
    """Every distinct command, in order, with its scenarios written under
    `workdir`; a command that ends in `--out out` writes its files there."""
    sys.path.insert(0, str(BENCH))
    import workloads

    argvs = []
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            folder = f"{name}-{seed}"
            scenarios, cmds = workloads.generate(name, seed)
            workloads.write_scenarios(scenarios, workdir / folder)
            for cmd in cmds:
                argv = [cmd.kind, "--config", f"{folder}/{cmd.scenario}.yaml", *cmd.args]
                argvs.append(argv + ["--out", "out"] if cmd.expect.get("out") else argv)
    for scenario in BUNDLED:
        for kind, *args in BUNDLED_ARGS:
            argv = [kind, "--config", scenario, *args]
            argvs += [argv, argv + ["--out", "out"]]
    distinct = {tuple(argv): argv for argv in argvs}
    return list(distinct.values())


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(src: Path, workdir: Path, argv: list[str]) -> str:
    """One command's line: argv, exit code, and the sha256 of its outputs."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "wireqls.cli", *argv], cwd=workdir,
                          env=env, capture_output=True, stdin=subprocess.DEVNULL)
    fields = [" ".join(argv), f"exit={proc.returncode}",
              f"stdout={_sha(proc.stdout)}", f"stderr={_sha(proc.stderr)}"]
    out = workdir / "out"
    if out.is_dir():
        fields += [f"{p.name}={_sha(p.read_bytes())}" for p in sorted(out.iterdir())]
        shutil.rmtree(out)
    return " ".join(fields)


def main() -> None:
    if len(sys.argv) != 2 or not (Path(sys.argv[1]) / "wireqls").is_dir():
        sys.exit("usage: output_digest.py <src dir holding the wireqls package>")
    src = Path(sys.argv[1]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for argv in commands(workdir):
            print(digest(src, workdir, argv), flush=True)


if __name__ == "__main__":
    main()
