"""Output checks for every benchmarked CLI command.

Monte Carlo bytes may legitimately change when the kernel or the swap
probability changes, so the checks are structural and statistical, never
byte equality:

- budget (text and records): t_ex = pi/(2 omega_ex), figure =
  t_ex * n_bar * Gamma, feasible iff figure < threshold, and n_bar equal to
  the Bose-Einstein occupation computed here from CODATA constants. The
  nominal presets must reproduce the paper: electron t_ex ~ 0.160 s,
  n_bar ~ 0.62, figure ~ 0.098 and feasible; proton infeasible.
- sweep: one row per requested point on the requested axis values, with
  the same per-row identities.
- field: the logic and spectroscopy site rows, B2 at the logic site equal to the calibration target, and fd_agreement_ok = 1. A flag of
  0 that matches the printed error is the program reporting its own spot
  check failed (this happens when a spot-check point lands next to a zero
  of B2, where a relative error blows up): the command counts as failed,
  not as wrong.
- lineshape / protocol: expected row counts, fractions in [0, 1], binomial
  errors, declared jumps consistent with the detection threshold, and at
  zero drift every point's fraction within 6.1 standard errors of
  protocol.analytic_jump_probability (an exact binomial tail of 1e-9), and
  the line's total count within the same tail of the summed probabilities
  (a bias of a few percent on every point fails the pooled test long
  before it fails any single point).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import Command, thermal_occupation

# a fraction disagrees with the analytic probability when its two-sided
# binomial tail is below TAIL_MIN, the tail of a z-score of 6.1
TAIL_MIN = 1e-9
NOMINAL_ELECTRON = {"t_ex_s": (0.160, 0.002), "n_bar": (0.62, 0.005), "figure": (0.098, 0.001)}
REL = 1e-9

LINESHAPE_HEADER = "detuning_rad_per_s,excitation_fraction,stat_error"
LINESHAPE_SUMMARY = (
    "jump_rate",
    "fitted_center_rad_per_s",
    "fitted_width_rad_per_s",
    "center_uncertainty_rad_per_s",
)
RECORDS_HEADER = (
    "cycle,n_c_after_drive,transfer_s_ok,exchange_ok,transfer_l_ok,"
    "measured_shift_rad_per_s,declared_jump,wall_time_s"
)
FIELD_HEADER = "z_m,B_T,B1_T_per_m,B2_T_per_m2,site"


class CheckError(Exception):
    """An output that contradicts what the command must produce."""


class SelfReportedFailure(Exception):
    """A consistent output in which the program flags its own result as
    unreliable: the command failed, but nothing it printed is wrong."""


def failure(returncode: int, stderr: str) -> str | None:
    """Why a finished command counts as failed before its output is read."""
    if "Traceback (most recent call last)" in stderr:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return f"traceback: {last[:160]}"
    if returncode != 0:
        return f"exit {returncode}: {stderr.strip()[:160]}"
    return None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(a: float, b: float, rel: float = REL, what: str = "") -> None:
    _require(
        math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b)),
        f"{what}: {a!r} != {b!r}",
    )


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CheckError(f"not a number: {text!r}") from None


def _split_csv(text: str, header: str) -> tuple[list[list[str]], dict[str, str]]:
    """Data rows (checked for width) and '# key = value' comment lines."""
    _require(text.endswith("\n"), "output does not end with a newline")
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == header, f"bad header: {lines[:1]!r}")
    width = header.count(",") + 1
    rows, comments = [], {}
    for line in lines[1:]:
        if line.startswith("# "):
            key, sep, value = line[2:].partition(" = ")
            _require(bool(sep), f"bad comment line {line!r}")
            comments[key] = value
        else:
            fields = line.split(",")
            _require(len(fields) == width, f"row has {len(fields)} fields: {line!r}")
            rows.append(fields)
    return rows, comments


def _budget_identities(d: dict, expect: dict) -> None:
    _close(d["t_ex_s"], math.pi / (2.0 * d["omega_ex_rad_per_s"]), 1e-12, "t_ex")
    _close(d["figure"], d["t_ex_s"] * d["n_bar"] * d["gamma_per_s"], REL, "figure")
    _require(d["feasible"] == (d["figure"] < d["threshold"]), "feasible flag vs figure")
    n_bar = thermal_occupation(expect["axial_frequency_hz"], expect["temperature_k"])
    _close(d["n_bar"], n_bar, REL, "n_bar vs Bose-Einstein")
    nominal = expect.get("nominal")
    if nominal == "paper-electron":
        for key, (value, tol) in NOMINAL_ELECTRON.items():
            _require(abs(d[key] - value) <= tol, f"nominal {key} {d[key]!r} not ~{value}")
        _require(d["feasible"], "paper-electron must be feasible")
    elif nominal == "paper-proton":
        _require(not d["feasible"], "paper-proton must be infeasible")


def check_budget_text(text: str, expect: dict) -> None:
    fields = {}
    for line in text.splitlines():
        key, sep, rest = line.partition(": ")
        if sep:
            fields[key] = rest
    try:
        d = {
            "omega_ex_rad_per_s": _number(fields["omega_ex"].split()[0]),
            "t_ex_s": _number(fields["omega_ex"].split("t_ex: ")[1].split()[0]),
            "gamma_per_s": _number(fields["Gamma"].split()[0]),
            "n_bar": _number(fields["n_bar"]),
            "figure": _number(fields["figure t_ex*n_bar*Gamma"]),
            "feasible": fields["feasible"].split()[0] == "yes",
            "threshold": _number(fields["feasible"].split("threshold ")[1].rstrip(")")),
        }
    except (KeyError, IndexError):
        raise CheckError("budget report is missing a line") from None
    _require(fields["scenario"].split()[0] == expect["scenario"], "scenario name")
    _require(("WARNING" in text) == (not d["feasible"]), "warning line vs feasibility")
    _budget_identities(d, expect)


def check_budget_records(text: str, expect: dict) -> None:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"records are not JSON: {exc}") from None
    _require(d.get("scenario") == expect["scenario"], "scenario name")
    missing = {"t_ex_s", "omega_ex_rad_per_s", "gamma_per_s", "n_bar", "figure",
               "feasible", "threshold"} - set(d)
    _require(not missing, f"records miss {sorted(missing)}")
    _budget_identities(d, expect)


def check_sweep(text: str, expect: dict) -> None:
    axis = expect["axis"]
    rows, comments = _split_csv(
        text, f"{axis},omega_ex_rad_per_s,t_ex_s,gamma_per_s,n_bar,figure,feasible")
    n = expect["points"]
    _require(len(rows) == n and not comments, f"{len(rows)} rows, expected {n}")
    lo, hi = expect["start"], expect["stop"]
    for i, row in enumerate(rows):
        value, w_ex, t_ex, gamma, n_bar, figure = (_number(x) for x in row[:6])
        _close(value, lo + (hi - lo) * i / (n - 1), 1e-12, f"row {i} axis value")
        t = value if axis == "environment.temperature_k" else expect["temperature_k"]
        _budget_identities({
            "omega_ex_rad_per_s": w_ex, "t_ex_s": t_ex, "gamma_per_s": gamma,
            "n_bar": n_bar, "figure": figure, "feasible": row[6] == "1", "threshold": 1.0,
        }, {"axial_frequency_hz": expect["axial_frequency_hz"], "temperature_k": t})
        _require(row[6] in ("0", "1"), f"row {i} feasible flag {row[6]!r}")


def check_field(text: str, expect: dict) -> None:
    rows, comments = _split_csv(text, FIELD_HEADER)
    flag = comments.get("fd_agreement_ok")
    _require(flag in ("0", "1"), f"fd_agreement_ok is {flag!r}")
    worst = _number(comments.get("fd_agreement_max_rel_err", "nan"))
    _require((worst <= 1e-6) == (flag == "1"), "fd_agreement_ok contradicts its error")
    samples = expect["samples"]
    _require(samples <= len(rows) <= samples + 2, f"{len(rows)} rows for {samples} samples")
    z = [_number(r[0]) for r in rows]
    _require(all(a < b for a, b in zip(z, z[1:])), "z is not increasing")
    sites: dict[str, list[list[str]]] = {}
    for r in rows:
        if r[4]:
            sites.setdefault(r[4], []).append(r)
    _require(sorted(sites) == ["logic", "spectroscopy"], f"site labels {sorted(sites)}")
    # a grid point within rounding of a site is labelled too, so a label
    # may repeat, but only at one position
    for label, marked in sites.items():
        zs = [_number(r[0]) for r in marked]
        _require(max(zs) - min(zs) <= 1e-12, f"{label} rows at distinct z {zs}")
    for r in sites["logic"]:
        _close(_number(r[3]), expect["b2_target"], REL, "B2 at the logic site")
    if flag != "1":
        raise SelfReportedFailure(f"fd_agreement_ok = 0 (max rel err {worst!r})")


def _z_check(fraction: float, p: float, cycles: int, what: str) -> None:
    # exact binomial tails rather than the normal approximation, which is
    # far too optimistic for the few-count points in the line's wings
    from scipy.stats import binom

    k = round(fraction * cycles)
    tail = 2.0 * min(binom.cdf(k, cycles, p), binom.sf(k - 1, cycles, p))
    _require(tail >= TAIL_MIN, f"{what}: fraction {fraction!r} vs analytic {float(p)!r} "
             f"(two-sided binomial tail {tail:.1e})")


def _pooled_check(fractions, probs, cycles: int) -> None:
    # the total count is a sum of independent binomials: normal with mean
    # cycles * sum(p) and variance cycles * sum(p (1 - p)), which is close
    # to exact at the thousands of counts of a 46-point line
    from scipy.stats import norm

    hits = sum(round(f * cycles) for f in fractions)
    mean = cycles * sum(probs)
    sd = math.sqrt(cycles * sum(p * (1.0 - p) for p in probs))
    tail = 2.0 * norm.sf(abs(hits - mean) / sd) if sd > 0 else float(hits == round(mean))
    _require(tail >= TAIL_MIN, f"pooled: {hits} hits vs analytic {mean:.1f} +- {sd:.1f} "
             f"(two-sided tail {tail:.1e})")


def check_lineshape(text: str, expect: dict, oracle: "Oracle | None" = None,
                    scenario: Path | None = None) -> None:
    rows, comments = _split_csv(text, LINESHAPE_HEADER)
    n, cycles = expect["points"], expect["cycles"]
    _require(len(rows) == n, f"{len(rows)} rows, expected {n}")
    _require(all(k in comments for k in LINESHAPE_SUMMARY), "summary lines missing")
    det = [_number(r[0]) for r in rows]
    frac = [_number(r[1]) for r in rows]
    err = [_number(r[2]) for r in rows]
    _require(all(a < b for a, b in zip(det, det[1:])), "detunings are not increasing")
    for i, (f, e) in enumerate(zip(frac, err)):
        _require(0.0 <= f <= 1.0, f"row {i} fraction {f!r} outside [0, 1]")
        _require(abs(f * cycles - round(f * cycles)) < 1e-6, f"row {i} fraction not k/cycles")
        _require(abs(e - math.sqrt(f * (1.0 - f) / cycles)) <= 1e-12, f"row {i} stat_error")
    _close(_number(comments["jump_rate"]), sum(frac) / n, 1e-12, "jump_rate")
    if expect["zero_drift"] and oracle is not None:
        probs = oracle.jump_probabilities(scenario, expect["mc_seed"], det)
        for i, (f, p) in enumerate(zip(frac, probs)):
            _z_check(f, p, cycles, f"point {i}")
        _pooled_check(frac, probs, cycles)


def check_protocol(text: str, expect: dict, oracle: "Oracle | None" = None,
                   scenario: Path | None = None) -> None:
    rows, comments = _split_csv(text, RECORDS_HEADER)
    cycles = expect["cycles"]
    _require(len(rows) == cycles, f"{len(rows)} records, expected {cycles}")
    _require("jump_rate" in comments, "jump_rate line missing")
    jumps = 0
    threshold = cycle_time = None
    if oracle is not None:
        threshold, cycle_time = oracle.threshold_cycle_time(scenario, expect["mc_seed"])
    for i, r in enumerate(rows):
        _require(r[0] == str(i), f"record {i} has cycle {r[0]!r}")
        _require(all(x in ("0", "1") for x in r[1:5] + [r[6]]), f"record {i} flags")
        declared = r[6] == "1"
        jumps += declared
        if threshold is not None:
            _require(declared == (_number(r[5]) >= threshold), f"record {i} declared vs shift")
            _close(_number(r[7]), (i + 1) * cycle_time, 1e-9, f"record {i} wall time")
    rate = jumps / cycles
    _close(_number(comments["jump_rate"]), rate, 1e-12, "jump_rate")
    if expect["zero_drift"] and oracle is not None:
        (p,) = oracle.jump_probabilities(scenario, expect["mc_seed"], [0.0])
        _z_check(rate, p, cycles, "record stream")


def check_output(cmd: Command, stdout: str, out_dir: Path | None,
                 oracle: "Oracle | None", scenario: Path | None) -> None:
    """Raise CheckError when a command's output is wrong."""
    if cmd.expect.get("out"):
        _require(stdout == "", "output went to stdout despite --out")
        path = out_dir / ("records.csv" if cmd.kind == "protocol" else f"{cmd.kind}.csv")
        _require(path.is_file(), f"{path.name} was not written")
        stdout = path.read_text()
    if cmd.kind == "budget":
        if "--format" in cmd.args:
            check_budget_records(stdout, cmd.expect)
        else:
            check_budget_text(stdout, cmd.expect)
    elif cmd.kind == "sweep":
        check_sweep(stdout, cmd.expect)
    elif cmd.kind == "field":
        check_field(stdout, cmd.expect)
    elif cmd.kind == "lineshape":
        check_lineshape(stdout, cmd.expect, oracle, scenario)
    elif cmd.kind == "protocol":
        check_protocol(stdout, cmd.expect, oracle, scenario)
    else:
        raise CheckError(f"no check for command {cmd.kind!r}")


def swap_probability(omega_ex: float, gamma_l: float, gamma_s: float, n_bar: float) -> float:
    """P(n_L = 1) after a resonant exchange from |1, 0>, in closed form.

    The exchange is a phase-insensitive Gaussian channel on the logic mode:
    u = exp(A t) with A = -i[[0, w], [w, 0]] - diag(gamma_S, gamma_L)/2 and
    t = pi/(2 w), transmissivity eta = |u_LS|^2 and added noise
    N = n_bar (1 - |u_LS|^2 - |u_LL|^2). It needs no Fock truncation, so it
    stays an oracle for variants where the program's solver raises.
    """
    import numpy as np
    from scipy.linalg import expm

    a = -1j * np.array([[0.0, omega_ex], [omega_ex, 0.0]]) - 0.5 * np.diag([gamma_s, gamma_l])
    u = expm(a * (math.pi / (2.0 * omega_ex)))
    eta = abs(u[1, 0]) ** 2
    noise = n_bar * (1.0 - abs(u[1, 0]) ** 2 - abs(u[1, 1]) ** 2)
    return (noise + eta) / (1.0 + noise) ** 2 - 2.0 * eta * noise / (1.0 + noise) ** 3


class Oracle:
    """Expected Monte Carlo statistics per generated scenario, from the
    package's closed-form jump probability at the closed-form swap
    probability (so a check never waits for the Lindblad solver)."""

    def __init__(self) -> None:
        from wireqls import config, protocol

        self._config = config
        self._protocol = protocol
        self._cache: dict = {}

    def _build(self, scenario: Path, seed: int):
        key = (str(scenario), seed)
        if key not in self._cache:
            pc = self._config.build_protocol(self._config.load_config(scenario), seed=seed)
            b = pc.budget
            self._cache[key] = (pc, swap_probability(b.omega_ex, b.gamma_L, b.gamma_S, b.n_bar))
        return self._cache[key]

    def threshold_cycle_time(self, scenario: Path, seed: int) -> tuple[float, float]:
        pc, _ = self._build(scenario, seed)
        return pc.detection.threshold, pc.cycle_time

    def jump_probabilities(self, scenario: Path, seed: int, detunings) -> list[float]:
        pc, p_swap = self._build(scenario, seed)
        return [self._protocol.analytic_jump_probability(pc, float(d), swap_probability=p_swap)
                for d in detunings]
