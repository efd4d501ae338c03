#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the wireqls command line.

    python3 bench/run.py --workload design-loop --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/` of that checkout and nothing is installed. The workloads are
described in bench/workloads.py and bench/README.md.

--trace 0  Closed loop with one client: each generated command runs as
           `python -m wireqls.cli ...` in its own child process (start-up
           and imports included), one at a time, for --seconds seconds.
           Every output is checked. Prints the end-to-end metrics.
--trace 1  The same commands run in this process through wireqls.cli.main
           with stdout captured, alternately traced and untraced, for
           --seconds seconds, plus `-X importtime` probes of the import
           layer. Prints the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are a readable
report. The full result (run context, every metric, failures by variant)
goes to .bench_out/ in the checkout; traced runs also write their spans.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gzip
import hashlib
import io
import json
import marshal
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path

from checks import CheckError, Oracle, SelfReportedFailure, check_output, failure
from tracing import (MODULES, FunctionStats, Span, Tracer, function_stats, parse_importtime,
                     raised)
from workloads import WORKLOADS, generate, mc_cycles, write_scenarios

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One client and one child at a time is well under nproc = 2, and BLAS or
# OpenMP threads are pinned to one so that the measurement does not depend
# on how many cores a library decides to use.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_REPEATS = 9
# The bounded timings are scaled to a host on which host_reference() takes
# this long (about its median on the 2-vCPU VM of BASELINE.md); see
# Run.end_to_end.
HOST_REF_NOMINAL_S = 0.025
IMPORT_PROBES = 3
IMPORT_PACKAGES = ("numpy", "scipy", "yaml", "wireqls")
SETUP_CODE = (
    "import sys, wireqls.cli, wireqls.config; wireqls.config.load_config(sys.argv[1])"
)
CLI_COMMANDS = ("budget", "field", "sweep", "lineshape", "protocol")

# (name, unit, better); the bounds live in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cmd_p50_s", "s", "lower"),
    ("cmds_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# (name, unit, better, which end-to-end metric it should move, on which
# workload). Times and counts are per traced command.
LAYER_METRICS = (
    ("import.interpreter_s", "s", "lower", "setup_s, cmd_p50_s on every workload"),
    ("import.numpy_s", "s", "lower", "setup_s, cmd_p50_s on design-loop"),
    ("import.scipy_s", "s", "lower", "setup_s, cmd_p50_s on design-loop"),
    ("import.yaml_s", "s", "lower", "setup_s, cmd_p50_s on design-loop"),
    ("import.wireqls_s", "s", "lower", "setup_s, cmd_p50_s on design-loop (deps included)"),
    ("cli.main.s", "s/cmd", "lower", "cmd_p50_s on every workload (in-process, traced)"),
    ("cli.main.self_s", "s/cmd", "lower", "cmd_p50_s on design-loop"),
    ("cli.budget.nonzero_exits", "count/cmd", "lower", "cmds_per_s on design-loop"),
    ("cli.field.nonzero_exits", "count/cmd", "lower", "cmds_per_s on design-loop"),
    ("cli.sweep.nonzero_exits", "count/cmd", "lower", "cmds_per_s on design-loop"),
    ("cli.lineshape.nonzero_exits", "count/cmd", "lower", "cmds_per_s on readout-scan"),
    ("cli.protocol.nonzero_exits", "count/cmd", "lower", "cmds_per_s on readout-scan"),
    ("config.self_s", "s/cmd", "lower", "cmd_p50_s on design-loop"),
    ("config.load_config.s", "s/cmd", "lower", "cmd_p50_s on design-loop"),
    ("config.parse_config.calls", "count/cmd", "lower", "cmd_p50_s on design-loop (sweep)"),
    ("config.parse_config.s", "s/cmd", "lower", "cmd_p50_s on design-loop (sweep)"),
    ("config.build_protocol.self_s", "s/cmd", "lower", "cmd_p50_s on readout-scan"),
    ("circuit.self_s", "s/cmd", "lower", "cmd_p50_s on design-loop, by its share only"),
    ("circuit.qls_budget.calls", "count/cmd", "lower", "cmd_p50_s on design-loop, by its share"),
    ("circuit.qls_budget.s", "s/cmd", "lower", "cmd_p50_s on design-loop, by its share only"),
    ("magnetics.self_s", "s/cmd", "lower", "cmd_p50_s on design-loop (field)"),
    ("magnetics.field_profile.s", "s/cmd", "lower", "cmd_p50_s on design-loop (field)"),
    ("magnetics.fd_gradients.calls", "count/cmd", "lower", "cmd_p50_s on design-loop (field)"),
    ("magnetics.fd_gradients.s", "s/cmd", "lower", "cmd_p50_s on design-loop (field)"),
    ("magnetics.write_profile_csv.s", "s/cmd", "lower", "cmd_p50_s on design-loop (field)"),
    ("spectroscopy.self_s", "s/cmd", "lower", "cmd_p50_s on readout-scan, small share"),
    ("spectroscopy.shift_set_for_trap.calls", "count/cmd", "lower", "cmd_p50_s on readout-scan"),
    ("spectroscopy.shift_set_for_trap.s", "s/cmd", "lower", "cmd_p50_s on readout-scan"),
    ("dynamics.self_s", "s/cmd", "lower", "cmd_p50_s, cmds_per_s on readout-scan"),
    ("dynamics.swap_fidelity.calls", "count/cmd", "lower", "cmd_p50_s on readout-scan"),
    ("dynamics.swap_fidelity.s", "s/cmd", "lower", "cmd_p50_s, cmds_per_s on readout-scan"),
    ("dynamics.liouvillian.s", "s/cmd", "lower", "cmd_p50_s on readout-scan"),
    ("dynamics.evolve.self_s", "s/cmd", "lower", "cmd_p50_s, cmds_per_s on readout-scan"),
    ("dynamics.liouvillian.bytes", "B-computed", "lower", "peak_rss_mb on readout-scan"),
    ("dynamics.truncation_errors", "count/cmd", "lower", "failed on readout-scan (0 when it holds)"),
    ("protocol.self_s", "s/cmd", "lower", "cmd_p50_s on drift-campaign"),
    ("protocol.resolve_swap_probability.s", "s/cmd", "lower", "cmd_p50_s on readout-scan"),
    ("protocol.simulate_point.calls", "count/cmd", "lower", "cmd_p50_s on drift-campaign"),
    ("protocol.simulate_point.self_s", "s/cmd", "lower", "cmd_p50_s, mc_cycles_per_s on drift-campaign"),
    ("protocol.cycles", "count/cmd", "higher", "mc_cycles_per_s on drift-campaign"),
    ("protocol.us_per_cycle", "us/cycle", "lower", "mc_cycles_per_s, cmd_p50_s on drift-campaign"),
    ("protocol.lineshape_scan.self_s", "s/cmd", "lower", "cmd_p50_s on drift-campaign"),
    ("protocol.write_records_csv.s", "s/cmd", "lower", "cmd_p50_s on drift-campaign (stream)"),
    ("protocol.write_lineshape_csv.s", "s/cmd", "lower", "cmd_p50_s on readout-scan, drift-campaign"),
    ("trace.commands", "count", "higher", "number of traced commands behind these figures"),
    ("trace.overhead_s", "s/cmd", "lower", "traced minus untraced in-process time"),
    ("trace.overhead_share", "ratio", "lower", "tracing overhead over untraced time"),
)


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


# ----------------------------------------------------------------- context

def _git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it has one (no parent search)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".yaml") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_context() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "pyyaml": version("PyYAML"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


# --------------------------------------------------------- child processes

def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir)
    return env


class Spawner:
    """The bench/spawner.py process, which starts and times every child so
    that a child's peak RSS does not count this process's."""

    def __init__(self, env: dict, cwd: Path):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     env=env, cwd=cwd)

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> tuple[float, int, float]:
        """Run one child to completion: (wall s, exit code, peak RSS MB)."""
        self.proc.stdin.write(json.dumps([argv, str(stdout), str(stderr)]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner exited {self.proc.wait()}")
        wall, code, peak = json.loads(reply)
        return wall, code, peak

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def cli_argv(cmd, scenario_dir: Path, out_dir: Path | None) -> list[str]:
    argv = [cmd.kind, "--config", str(scenario_dir / f"{cmd.scenario}.yaml"), *cmd.args]
    if out_dir is not None:
        argv += ["--out", str(out_dir)]
    return argv


_REFERENCE_CODE = marshal.dumps(compile(Path(argparse.__file__).read_text(), "argparse", "exec"))
_REFERENCE_OPERANDS = []


def host_reference() -> float:
    """Seconds of fixed work in this process that mirrors the three kinds
    the commands do: interpreted byte code (config, Monte Carlo),
    unmarshalling code objects (imports) and a dense complex matrix-vector
    product of the swap solve's size (625 x 625). Its median per run shows
    how fast the (shared) host ran while the run measured; it runs nothing
    under test."""
    if not _REFERENCE_OPERANDS:
        import numpy as np  # after main() has pinned the BLAS threads

        _REFERENCE_OPERANDS[:] = [np.full((625, 625), 1.0 / 625, dtype=complex),
                                  np.ones(625, dtype=complex)]
    matrix, vector = _REFERENCE_OPERANDS
    start = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    for _ in range(25):
        marshal.loads(_REFERENCE_CODE)
    for _ in range(30):
        vector = matrix @ vector
    return time.perf_counter() - start


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """Value at the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    rank = n - 10
    return sorted(values)[rank - 1], 100.0 * rank / n, n


class Run:
    """One benchmark run: generated inputs in a private work directory."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.workdir = workdir
        self.scenario_dir = workdir / "scenarios"
        scenarios, self.commands = generate(workload, seed)
        write_scenarios(scenarios, self.scenario_dir)
        self.spawner = Spawner(child_env(workdir), workdir)
        self.records: list[dict] = []
        self._oracle = None

    def oracle(self) -> Oracle:
        if self._oracle is None:
            self._oracle = Oracle()
        return self._oracle

    def out_dir(self, cmd, i: int) -> Path | None:
        return self.workdir / f"out-{i}" if cmd.expect.get("out") else None

    def judge(self, cmd, code: int, stdout: str, stderr: str, out_dir: Path | None) -> dict:
        """Failure reason and check result of one finished command."""
        reason = failure(code, stderr)
        bad_output = None
        if reason is None:
            needs_oracle = cmd.kind in ("lineshape", "protocol")
            try:
                check_output(cmd, stdout, out_dir, self.oracle() if needs_oracle else None,
                             self.scenario_dir / f"{cmd.scenario}.yaml")
            except CheckError as exc:
                bad_output = str(exc)
                reason = f"check: {exc}"
            except SelfReportedFailure as exc:
                reason = f"self-check: {exc}"
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
        return {"reason": reason, "bad_output": bad_output}

    def record(self, i: int, cmd, wall: float, code: int, verdict: dict, **extra) -> None:
        ok = verdict["reason"] is None
        self.records.append({
            "i": i, "kind": cmd.kind, "tag": cmd.tag, "variant": cmd.variant,
            "params": cmd.params, "wall_s": wall, "exit": code, "ok": ok,
            "reason": verdict["reason"], "bad_output": verdict["bad_output"],
            "mc_cycles": mc_cycles(cmd) if ok else 0, **extra,
        })

    def failures_by_variant(self) -> list[dict]:
        grouped: dict[tuple, dict] = {}
        for r in self.records:
            if r["ok"]:
                continue
            key = (r["variant"], r["tag"], r["reason"])
            entry = grouped.setdefault(key, {"variant": r["variant"], "command": r["tag"],
                                             "params": r["params"], "reason": r["reason"],
                                             "count": 0})
            entry["count"] += 1
        return list(grouped.values())

    def outcome(self) -> dict:
        return {
            "correct": not any(r["bad_output"] for r in self.records),
            "attempted": len(self.records),
            "failed": sum(not r["ok"] for r in self.records),
        }

    # ------------------------------------------------------- trace 0

    def setup_child(self) -> float:
        """Wall time of a child that imports wireqls.cli and loads the
        workload's first scenario, then exits."""
        scenario = self.scenario_dir / f"{self.commands[0].scenario}.yaml"
        argv = [sys.executable, "-c", SETUP_CODE, str(scenario)]
        err = self.workdir / "setup.err"
        wall, code, _ = self.spawner.run(argv, self.workdir / "setup.out", err)
        if code != 0:
            raise RuntimeError(f"set-up child exited {code}: {err.read_text()[-400:]}")
        return wall

    def measure(self) -> dict:
        self.setup_child()  # warms the byte-code and file caches; not counted
        if any(c.kind in ("lineshape", "protocol") for c in self.commands):
            self.oracle()
        stdout_path, stderr_path = self.workdir / "cmd.out", self.workdir / "cmd.err"
        # The set-up children are spread evenly over the run, so that their
        # median samples the host's speed across the run like the command
        # times do. Their time counts towards --seconds, so that a run
        # lasts --seconds however fast the host is.
        setup: list[float] = []
        references: list[float] = []  # host_reference() before each set-up child
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < self.seconds:
            while (len(setup) < SETUP_REPEATS and time.perf_counter() - start
                   >= len(setup) * self.seconds / SETUP_REPEATS):
                references.append(host_reference())
                setup.append(self.setup_child())
            cmd = self.commands[i % len(self.commands)]
            out_dir = self.out_dir(cmd, i)
            reference = host_reference()
            argv = [sys.executable, "-m", "wireqls.cli",
                    *cli_argv(cmd, self.scenario_dir, out_dir)]
            wall, code, peak = self.spawner.run(argv, stdout_path, stderr_path)
            verdict = self.judge(cmd, code, stdout_path.read_text(), stderr_path.read_text(),
                                 out_dir)
            self.record(i, cmd, wall, code, verdict, rss_mb=peak, host_ref_s=reference)
            i += 1
        while len(setup) < SETUP_REPEATS:  # a run cut short by long commands
            references.append(host_reference())
            setup.append(self.setup_child())
        return self.end_to_end(setup, references)

    def end_to_end(self, setup: list[float], references: list[float]) -> dict:
        walls = [r["wall_s"] for r in self.records]
        by_tag = defaultdict(list)
        for r in self.records:
            by_tag[r["tag"]].append(r["wall_s"])
        ok = [r for r in self.records if r["ok"]]
        busy = sum(walls)
        mc = [r for r in ok if r["mc_cycles"]]
        t = tail(walls)
        setup_wall = statistics.median(setup)
        # per-kind medians, averaged with equal weight: a pooled median of a
        # workload that mixes two command kinds jumps between them
        p50_wall = statistics.fmean(statistics.median(v) for v in by_tag.values())
        # every finished command counts (the generated workloads have no
        # failing command; a failure shows in `failed` of the result)
        rate_wall = len(walls) / busy
        # The shared host's speed swings by up to 1.7x over minutes, and the
        # wall times swing with it. The bounded timings are therefore scaled
        # by HOST_REF_NOMINAL_S over the run's median host_reference(), a
        # loop that runs nothing under test: they read as seconds on a host
        # of fixed speed, and a change to the program moves them as much as
        # it moves the wall times. The wall times are reported beside them.
        host_ref = statistics.median([r["host_ref_s"] for r in self.records] + references)
        scale = HOST_REF_NOMINAL_S / host_ref
        metrics = {
            "setup_s": (setup_wall * scale, "s"),
            "cmd_p50_s": (p50_wall * scale, "s"),
            "cmds_per_s": (rate_wall / scale, "1/s"),
            "peak_rss_mb": (max(r["rss_mb"] for r in self.records), "MB"),
        }
        reported = {
            "setup_wall_s": (setup_wall, "s"),
            "cmd_p50_wall_s": (p50_wall, "s"),
            "cmds_per_wall_s": (rate_wall, "1/s"),
            "cmd_tail_s": (t[0], "s") if t else (None, "s"),
            "mc_cycles_per_s": ((sum(r["mc_cycles"] for r in mc) / sum(r["wall_s"] for r in mc),
                                 "1/s") if mc else (None, "1/s")),
            "error_rate": (1.0 - len(ok) / len(self.records), "ratio"),
            "host_ref_ms": (host_ref * 1e3, "ms"),
        }
        detail = {
            "setup_samples_s": setup,
            "setup_host_ref_s": references,
            "cmd_tail": {"percentile": t[1], "samples": t[2]} if t else
                        {"percentile": None, "samples": len(walls)},
            "cmd_p50_by_kind_s": {k: statistics.median(v) for k, v in by_tag.items()},
            "commands_by_kind": {k: len(v) for k, v in by_tag.items()},
            "busy_s": busy,
        }
        return {"metrics": metrics, "reported": reported, "detail": detail}

    # ------------------------------------------------------- trace 1

    def probe_imports(self) -> dict:
        """Median import.* times from `python -X importtime -c 'import wireqls.cli'`."""
        samples = defaultdict(list)
        out, err = self.workdir / "probe.out", self.workdir / "probe.err"

        def probe(*args: str) -> float:
            wall, code, _ = self.spawner.run([sys.executable, *args], out, err)
            if code != 0:
                raise RuntimeError(f"import probe exited {code}: {err.read_text()[-400:]}")
            return wall

        for k in range(IMPORT_PROBES + 1):
            interpreter = probe("-c", "pass")
            probe("-X", "importtime", "-c", "import wireqls.cli")
            if k:  # the first round warms the byte-code and file caches
                samples["interpreter"].append(interpreter)
                for pkg, s in parse_importtime(err.read_text(), IMPORT_PACKAGES).items():
                    samples[pkg].append(s)
        return {f"import.{k}_s": statistics.median(v) for k, v in samples.items()}

    def run_inprocess(self, cli, cmd, i: int) -> tuple[float, int, str, str, Path | None]:
        """Wall time, exit code, stdout, stderr and --out directory of one
        command run through cli.main; judged by the caller."""
        out, err = io.StringIO(), io.StringIO()
        out_dir = self.out_dir(cmd, i)
        argv = cli_argv(cmd, self.scenario_dir, out_dir)
        raised = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # a crash is a measured outcome, not a bench error
            code, raised = 1, exc
        wall = time.perf_counter() - start
        if raised is not None:
            err.write("".join(traceback.format_exception(raised)))
        return wall, code, out.getvalue(), err.getvalue(), out_dir

    def trace(self) -> dict:
        imports = self.probe_imports()
        import wireqls.cli as cli

        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"wireqls imported from {cli.__file__}, not {SRC}")
        if any(c.kind in ("lineshape", "protocol") for c in self.commands):
            self.oracle()
        tracer = Tracer()
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < self.seconds:
            cmd = self.commands[i % len(self.commands)]
            # alternate which of the pair runs first so warm caches favour neither
            runs = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.command = i
                    tracer.install()
                try:
                    wall, code, *outputs = self.run_inprocess(cli, cmd, i)
                finally:
                    tracer.uninstall()
                # judged with the tracer removed, so the checks' own calls
                # into the package record no spans
                runs[traced] = (wall, code, self.judge(cmd, code, *outputs))
            self.record(i, cmd, *runs[True], untraced_s=runs[False][0])
            i += 1
        by_tag = defaultdict(list)
        for r in self.records:
            by_tag[r["tag"]].append((r["wall_s"], r["untraced_s"]))
        detail = {"inprocess_by_kind_s": {
            k: {"traced": statistics.median(t for t, _ in v),
                "untraced": statistics.median(u for _, u in v)} for k, v in by_tag.items()}}
        metrics = self.layer_metrics(tracer.spans, imports)
        return {"metrics": metrics, "detail": detail, "spans": tracer.spans}

    def layer_metrics(self, spans, imports: dict) -> dict:
        n = len(self.records)
        stats = function_stats(spans)
        values = dict(imports)
        for m in MODULES:
            values[f"{m}.self_s"] = sum(
                st.self_time for name, st in stats.items() if name.split(".")[0] == m) / n
        kinds = Counter(r["kind"] for r in self.records)
        nonzero = Counter(r["kind"] for r in self.records if r["exit"] != 0)
        for kind in CLI_COMMANDS:
            values[f"cli.{kind}.nonzero_exits"] = nonzero[kind] / kinds[kind] if kinds[kind] else 0.0
        # computed, not measured: the dense superoperator's complex128 entries
        n_max = [s.attrs["n_max"] for s in spans if s.name == "dynamics.liouvillian"]
        values["dynamics.liouvillian.bytes"] = max((16 * (k + 1) ** 8 for k in n_max), default=0)
        values["dynamics.truncation_errors"] = raised(spans, "TruncationError") / n
        cycles = sum(r["mc_cycles"] for r in self.records)
        simulate = stats.get("protocol.simulate_point", FunctionStats())
        values["protocol.cycles"] = cycles / n
        values["protocol.us_per_cycle"] = simulate.self_time / cycles * 1e6 if cycles else 0.0
        values["trace.commands"] = n
        # medians over (traced, untraced) pairs of the same command, so one
        # cold first command does not decide the sign
        pairs = [(r["wall_s"], r["untraced_s"]) for r in self.records]
        values["trace.overhead_s"] = statistics.median(t - u for t, u in pairs)
        values["trace.overhead_share"] = statistics.median(t / u - 1.0 for t, u in pairs)
        for name, *_ in LAYER_METRICS:
            if name not in values:
                fn, _, field = name.rpartition(".")
                st = stats.get(fn, FunctionStats())
                values[name] = {"calls": st.calls, "s": st.inclusive, "self_s": st.self_time}[field] / n
        return {name: (values[name], unit) for name, unit, *_ in LAYER_METRICS}


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report(run: Run, args, context: dict, result: dict) -> list[str]:
    lines = [f"wireqls bench: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}",
             f"context: {json.dumps(context, sort_keys=True)}"]
    moves = {name: m for name, _, _, m in LAYER_METRICS}
    for name, (value, unit) in {**result["metrics"], **result.get("reported", {})}.items():
        lines.append(f"  {name:38s} {_fmt(value):>12s} {unit:10s} {moves.get(name, '')}")
    detail = result["detail"]
    if args.trace:
        lines.append("  in-process median per kind (traced / untraced): " + ", ".join(
            f"{k} {v['traced']:.4g} / {v['untraced']:.4g} s"
            for k, v in detail["inprocess_by_kind_s"].items()))
    else:
        lines.append(f"  cmd_tail_s at p{_fmt(detail['cmd_tail']['percentile'])} of "
                     f"{detail['cmd_tail']['samples']} commands; per-kind medians "
                     + ", ".join(f"{k} {v:.4g} s" for k, v in detail["cmd_p50_by_kind_s"].items()))
    if args.trace:
        total = result["metrics"]["cli.main.s"][0]
        shares = ", ".join(f"{m} {result['metrics'][m][0] / total:.1%}" for m in (
            "cli.main.self_s", "config.self_s", "circuit.self_s", "magnetics.self_s",
            "spectroscopy.self_s", "dynamics.self_s", "protocol.self_s") if total)
        lines.append(f"  self-time shares of traced command time: {shares}")
    failures = run.failures_by_variant()
    lines.append(f"failures by variant: {len(failures)}")
    for f in failures:
        lines.append(f"  {f['variant']} {f['command']} x{f['count']} {f['params']}: {f['reason']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wireqls" / "cli.py").is_file():
        return fail(f"no wireqls sources under {SRC}; run from a source checkout")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))  # the oracle and the traced run import wireqls
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = None
    try:
        run = Run(args.workload, args.seed, args.seconds, workdir)
        result = run.trace() if args.trace else run.measure()
    except (RuntimeError, OSError) as exc:
        return fail(f"{type(exc).__name__}: {exc}")
    finally:
        if run is not None:
            run.spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)
    context = run_context()
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        fields = [f.name for f in dataclasses.fields(Span)]
        with gzip.open(f"{stem}-spans.jsonl.gz", "wt") as fh:
            fh.write(json.dumps(fields) + "\n")
            for s in spans:
                fh.write(json.dumps([getattr(s, f) for f in fields]) + "\n")
    outcome = run.outcome()
    stem.with_suffix(".json").write_text(json.dumps({
        "args": vars(args), "context": context, **outcome, **result,
        "failures_by_variant": run.failures_by_variant(), "commands": run.records,
    }, indent=1, default=str))
    print("\n".join(report(run, args, context, result)))
    print(json.dumps({**outcome, "metrics": {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
