"""Golden output bytes: each case's exit code and the sha256 of its stdout,
its stderr and every file it writes under --out, run in process through
`cli.main`; a subset also runs as `python -m wireqls.cli` in a child
process and must give the same bytes.

The hashes live in tests/golden/cli.json next to numpy's version, because
`Generator`'s distributions are not promised stable across numpy
releases; a different numpy fails every case and says so. A change that
alters output on purpose regenerates the file:

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.regenerate()"
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from wireqls import cli
from wireqls import config as cfg

from conftest import package_env

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
ELECTRON = (Path(cfg.__file__).parent / "scenarios" / "paper-electron.yaml").read_text()

# scenario files derived from paper-electron by one text edit each:
# (the line as bundled, its replacement)
VARIANTS = {
    "cycles-5000": ("  cycles: 400\n", "  cycles: 5000\n"),
    "cycles-3000": ("  cycles: 400\n", "  cycles: 3000\n"),
    "duplicate-key": ("seed: 20230601\n", "seed: 20230601\nseed: 5\n"),
    "unknown-key": ("  cycles: 400\n", "  cycles: 400\n  cycle_count: 400\n"),
    "out-of-range": ("  pi_pulse_fidelity: 0.99\n", "  pi_pulse_fidelity: 1.5\n"),
    "pi-zero": ("  pi_pulse_fidelity: 0.99\n", "  pi_pulse_fidelity: 0\n"),
    "anomaly": ("  mode: cyclotron\n", "  mode: anomaly\n"),
}


def _cases() -> dict[str, list[str]]:
    """Case name -> argv; {dir} stands for a directory holding the variant
    scenarios, and each case's --out directory is its own under it."""
    cases = {}
    for scenario in ("paper-electron", "paper-proton"):
        cases[f"budget/{scenario}"] = ["budget", "--config", scenario]
        cases[f"budget-records/{scenario}"] = [
            "budget", "--config", scenario, "--format", "records"
        ]
        cases[f"field/{scenario}"] = ["field", "--config", scenario]
        for command in ("lineshape", "protocol"):
            cases[f"{command}/{scenario}"] = [command, "--config", scenario]
            cases[f"{command}-seed-7/{scenario}"] = [
                command, "--config", scenario, "--seed", "7"
            ]
    cases["sweep/temperature"] = [
        "sweep", "--config", "paper-electron",
        "--axis", "environment.temperature_k", "--range", "0.004:0.02:33",
    ]
    cases["sweep/cycles"] = [
        "sweep", "--config", "paper-electron",
        "--axis", "protocol.cycles", "--range", "100:1000:4",
    ]
    cases["protocol-out/cycles-5000"] = [
        "protocol", "--config", "{dir}/cycles-5000.yaml", "--out", "{dir}/out"
    ]
    cases["lineshape/cycles-3000"] = ["lineshape", "--config", "{dir}/cycles-3000.yaml"]
    for name in ("duplicate-key", "unknown-key", "out-of-range"):
        cases[f"budget/{name}"] = ["budget", "--config", f"{{dir}}/{name}.yaml"]
    for name in ("pi-zero", "anomaly"):
        cases[f"lineshape/{name}"] = ["lineshape", "--config", f"{{dir}}/{name}.yaml"]
    return cases


CASES = _cases()

# the cases also run as a process: one of each command and output form,
# the record stream to --out, an exit 1 and an exit 2
PROCESS_CASES = [
    "budget/paper-electron", "budget-records/paper-electron", "field/paper-electron",
    "sweep/temperature", "lineshape/paper-electron", "protocol/paper-electron",
    "protocol-out/cycles-5000", "lineshape/pi-zero", "budget/unknown-key",
]


def _write_variants(directory: Path) -> None:
    for name, (old, new) in VARIANTS.items():
        assert ELECTRON.count(old) == 1, old
        (directory / f"{name}.yaml").write_text(ELECTRON.replace(old, new))


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def run_case(argv: list[str], directory: Path, process: bool = False) -> dict:
    """Exit code and hashes of one case, its --out directory made fresh; run
    through `cli.main`, or as `python -m wireqls.cli` when `process`."""
    argv = [a.replace("{dir}", str(directory)) for a in argv]
    out_dir = directory / "out"
    if out_dir.exists():
        for path in out_dir.iterdir():
            path.unlink()
    if process:
        child = subprocess.run(
            [sys.executable, "-m", "wireqls.cli", *argv],
            capture_output=True, env=package_env(),
        )
        code, stdout, stderr = child.returncode, child.stdout, child.stderr
    else:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        stdout, stderr = out.getvalue(), err.getvalue()
    files = {}
    if out_dir.exists():
        files = {p.name: _sha(p.read_bytes()) for p in sorted(out_dir.iterdir())}
    return {"exit": code, "stdout": _sha(stdout), "stderr": _sha(stderr), "files": files}


def regenerate() -> None:
    """Rewrite the golden file from this checkout's output."""
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _write_variants(directory)
        cases = {
            name: {"argv": argv, **run_case(argv, directory)}
            for name, argv in CASES.items()
        }
    GOLDEN.parent.mkdir(exist_ok=True)
    text = json.dumps({"numpy": np.__version__, "cases": cases}, indent=1)
    GOLDEN.write_text(text + "\n")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def variant_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("golden")
    _write_variants(directory)
    return directory


def test_golden_file_lists_every_case(golden):
    assert {name: case["argv"] for name, case in golden["cases"].items()} == CASES


@pytest.mark.parametrize("name, process", [
    *(pytest.param(name, False, id=name) for name in CASES),
    *(pytest.param(name, True, id=f"{name}-process") for name in PROCESS_CASES),
])
def test_output_bytes_match_golden(golden, variant_dir, name, process):
    if golden["numpy"] != np.__version__:
        pytest.fail(
            f"golden hashes were made with numpy {golden['numpy']}, this is numpy "
            f"{np.__version__}; its random streams may differ, so regenerate "
            "tests/golden/cli.json (see this module's docstring)"
        )
    expected = dict(golden["cases"][name])
    del expected["argv"]
    assert run_case(CASES[name], variant_dir, process) == expected
