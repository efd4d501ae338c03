"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(workload, tmp_path):
    first, again, other = (workloads.generate(workload, s) for s in (3, 3, 4))
    assert first == again
    assert first[0] != other[0] and first[1] != other[1]
    for name in ("a", "b"):
        workloads.write_scenarios(first[0], tmp_path / name)
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_readout_variants_span_the_figure_range():
    scenarios, commands = workloads.readout_scan(1)
    figures = sorted(c.params["figure_target"] for c in commands[::2])
    lo, hi = workloads.READOUT_FIGURE_RANGE
    assert lo <= figures[0] < 0.0135 and 0.075 < figures[-1] <= hi
    assert len(scenarios) == len(commands) // 2


def test_metric_names_units_and_benchmark_json_agree_with_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = ("setup_wall_s", "cmd_p50_wall_s", "cmds_per_wall_s", "cmd_tail_s",
                "mc_cycles_per_s", "error_rate", "host_ref_ms")
    names = [m[0] for m in run.END_TO_END] + [m[0] for m in run.LAYER_METRICS] + list(reported)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m[1]) for m in run.END_TO_END + run.LAYER_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in run.LAYER_METRICS]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def _span(name, start, end, parent=None, error=None):
    return Span(name, start, end, parent, 0, error)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("config.a", 1.0, 4.0, 0),
        _span("config.b", 3.0, 6.0, 0),        # overlaps a: union [1, 6]
        _span("circuit.c", 2.0, 3.0, 1),
        _span("circuit.d", 9.5, 11.0, 0),      # runs past its parent: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 5.0 - 0.5, 2.0, 3.0, 1.0, 1.5])
    stats = tracing.function_stats(spans)
    assert stats["config.a"].calls == 1 and stats["config.a"].inclusive == 3.0
    assert stats["circuit.c"].self_time == pytest.approx(1.0)


def test_raised_counts_the_innermost_span_only():
    spans = [
        _span("protocol.lineshape_scan", 0.0, 3.0, None, "TruncationError"),
        _span("dynamics.swap_fidelity", 0.5, 2.5, 0, "TruncationError"),
        _span("dynamics.evolve", 0.6, 2.4, 1, "TruncationError"),
        _span("dynamics.liouvillian", 0.7, 0.8, 2),
    ]
    assert tracing.raised(spans, "TruncationError") == 1


def test_tracer_records_nested_spans_and_restores_the_modules(tmp_path):
    from wireqls import config

    original = config.parse_config
    scenarios, _ = workloads.design_loop(1)
    workloads.write_scenarios({"x": scenarios["d0-0"]}, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        config.load_config(tmp_path / "x.yaml")
    finally:
        tracer.uninstall()
    assert config.parse_config is original
    names = [s.name for s in tracer.spans]
    assert "config.load_config" in names and "config.parse_config" in names
    parse = next(s for s in tracer.spans if s.name == "config.parse_config")
    assert tracer.spans[parse.parent].name == "config.load_config"
    assert not any(name in tracing.PER_CYCLE for _, _, name in tracer.targets())


def test_parse_importtime_counts_each_package_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        10 |        300 |   wireqls.config",
        "import time:        20 |        320 | wireqls",
        "import time:         5 |        400 | wireqls.cli",
        "import time:        30 |         30 | yaml",
    ])
    times = tracing.parse_importtime(text, ("numpy", "yaml", "wireqls"))
    assert times == pytest.approx({"numpy": 150e-6, "yaml": 30e-6, "wireqls": 720e-6})


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    value, percentile, n = run.tail([float(v) for v in range(40)])
    assert (value, percentile, n) == (29.0, 75.0, 40)


def _cli(argv) -> str:
    from wireqls import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Genuine outputs of each command on generated scenarios."""
    directory = tmp_path_factory.mktemp("scenarios")
    design, design_cmds = workloads.design_loop(1)
    readout, readout_cmds = workloads.readout_scan(1)
    workloads.write_scenarios({**design, **readout}, directory)
    ok = next(c for c in readout_cmds if c.kind == "lineshape" and c.params["figure_target"] < 0.05)
    protocol = next(c for c in readout_cmds if c.kind == "protocol" and c.variant == ok.variant)
    got = {}
    for cmd in design_cmds[:4] + [ok, protocol]:
        text = _cli(run.cli_argv(cmd, directory, None))
        got[cmd.tag] = (cmd, text, directory / f"{cmd.scenario}.yaml")
    return got


def _check(outputs, tag, text=None):
    cmd, good, scenario = outputs[tag]
    oracle = checks.Oracle() if cmd.kind in ("lineshape", "protocol") else None
    checks.check_output(cmd, good if text is None else text, None, oracle, scenario)


def test_checks_accept_genuine_outputs(outputs):
    assert sorted(outputs) == ["budget", "budget-records", "field", "lineshape", "protocol",
                               "sweep"]
    for tag in outputs:
        _check(outputs, tag)


def _truncated(text: str) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[: len(lines) // 2]) + lines[len(lines) // 2][:5]


@pytest.mark.parametrize("tag", ["field", "sweep", "lineshape", "protocol", "budget-records"])
def test_checks_reject_a_truncated_output(outputs, tag):
    with pytest.raises(checks.CheckError):
        _check(outputs, tag, _truncated(outputs[tag][1]))


def test_field_check_rejects_a_flipped_agreement_flag(outputs):
    good = outputs["field"][1]
    assert "# fd_agreement_ok = 1\n" in good
    with pytest.raises(checks.CheckError):
        _check(outputs, "field", good.replace("fd_agreement_ok = 1", "fd_agreement_ok = 0"))


def test_budget_check_rejects_a_flipped_feasibility(outputs):
    good = outputs["budget"][1]
    with pytest.raises(checks.CheckError):
        _check(outputs, "budget", good.replace("feasible: yes", "feasible: NO"))


def test_lineshape_check_rejects_fractions_off_the_analytic_line(outputs):
    cmd, good, _ = outputs["lineshape"]
    n, cycles = cmd.expect["points"], cmd.expect["cycles"]
    lines = good.splitlines()
    rows = [line.split(",") for line in lines[1:1 + n]]
    # move the most excited point down by ten standard errors, keeping the
    # row, its error and the summary self-consistent
    i = max(range(n), key=lambda k: float(rows[k][1]))
    f = float(rows[i][1])
    hits = round(f * cycles) - math.ceil(10 * math.sqrt(f * (1 - f) / cycles) * cycles)
    f = hits / cycles
    rows[i][1:] = [repr(f), repr(math.sqrt(f * (1 - f) / cycles))]
    rate = sum(float(r[1]) for r in rows) / n
    summary = [f"# jump_rate = {rate!r}" if line.startswith("# jump_rate") else line
               for line in lines[1 + n:]]
    text = "\n".join([lines[0]] + [",".join(r) for r in rows] + summary) + "\n"
    with pytest.raises(checks.CheckError, match="analytic"):
        _check(outputs, "lineshape", text)


def test_lineshape_check_rejects_a_ten_percent_bias_on_every_point(outputs):
    cmd, good, scenario = outputs["lineshape"]
    n, cycles = cmd.expect["points"], cmd.expect["cycles"]
    lines = good.splitlines()
    rows = [line.split(",") for line in lines[1:1 + n]]
    for r in rows:
        f = round(0.9 * float(r[1]) * cycles) / cycles
        r[1:] = [repr(f), repr(math.sqrt(f * (1 - f) / cycles))]
    rate = sum(float(r[1]) for r in rows) / n
    summary = [f"# jump_rate = {rate!r}" if line.startswith("# jump_rate") else line
               for line in lines[1 + n:]]
    text = "\n".join([lines[0]] + [",".join(r) for r in rows] + summary) + "\n"
    oracle = checks.Oracle()
    probs = oracle.jump_probabilities(scenario, cmd.expect["mc_seed"],
                                      [float(r[0]) for r in rows])
    for f, p in zip((float(r[1]) for r in rows), probs):   # no single point fails
        checks._z_check(f, p, cycles, "point")
    with pytest.raises(checks.CheckError, match="pooled"):
        checks.check_output(cmd, text, None, oracle, scenario)


def test_a_traceback_on_stderr_fails_the_command():
    trace = "Traceback (most recent call last):\n  ...\nRuntimeError: boom\n"
    assert checks.failure(0, trace).startswith("traceback")
    assert checks.failure(1, "error: bad\n").startswith("exit 1")
    assert checks.failure(0, "") is None


def test_closed_form_swap_probability_matches_the_lindblad_oracle():
    from wireqls import dynamics

    params = dynamics.ExchangeParams(9.805193007690105, 0.9828657198346223,
                                     0.10920730220384693, 0.6206164582293086)
    exact = dynamics.swap_fidelity(params, n_max=6, method="expm")
    closed = checks.swap_probability(params.omega_ex, params.gamma_L, params.gamma_S,
                                     params.n_bar)
    assert closed == pytest.approx(exact, abs=1e-7)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "design-loop", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0 and proc.stdout == ""


def test_spawned_child_peak_rss_excludes_the_benchmark_process(tmp_path):
    ballast = bytearray(96 << 20)
    ballast[::4096] = b"\1" * len(ballast[::4096])  # resident in this process
    spawner = run.Spawner(dict(os.environ), tmp_path)
    try:
        wall, code, peak = spawner.run([sys.executable, "-c", "pass"],
                                       tmp_path / "out", tmp_path / "err")
    finally:
        spawner.close()
    assert code == 0 and wall > 0.0
    assert peak < 64.0, f"a bare interpreter peaked at {peak:.0f} MB"
    del ballast
