"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not calibrated elsewhere.
"""

import io
import math
import time

import numpy as np
import pytest

from wireqls import circuit, dynamics, magnetics, protocol, spectroscopy
from wireqls import config as cfg
from wireqls.constants import C_LIGHT, HBAR, M_E, M_P, TWO_PI, cyclotron_frequency

OMEGA_Z = TWO_PI * 200e6
T_ENV = 0.010


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def electron_budget() -> circuit.ExchangeBudget:
    rc = cfg.load_config("paper-electron")
    return cfg.build_budget(rc)


@pytest.fixture(scope="module")
def electron_protocol() -> protocol.ProtocolConfig:
    rc = cfg.load_config("paper-electron")
    return cfg.build_protocol(rc)


def test_criterion_01_exchange_time(electron_budget):
    t_ex = electron_budget.t_ex
    ok = abs(t_ex - 0.160) / 0.160 <= 0.05
    report(1, ok, f"exchange time {t_ex * 1e3:.2f} ms vs 160 ms (tol 5%)")


def test_criterion_02_qls_figure(electron_budget):
    figure = electron_budget.figure
    ok = abs(figure - 0.098) / 0.098 <= 0.05
    report(2, ok, f"figure t_ex*n_bar*Gamma = {figure:.5f} vs 0.098 (tol 5%)")


def test_criterion_03_thermal_occupation():
    n_bar = circuit.thermal_occupation(OMEGA_Z, T_ENV)
    ok = abs(n_bar - 0.62) <= 0.02
    report(3, ok, f"n_bar(2pi x 200 MHz, 10 mK) = {n_bar:.4f} vs 0.62 +- 0.02")


def test_criterion_04_resonator_quality(electron_budget):
    q = electron_budget.resonator.quality_factor
    ok = abs(q - 6000.0) / 6000.0 <= 0.10
    report(4, ok, f"derived Q = {q:.0f} vs 6000 (tol 10%)")


def test_criterion_05_bottle_shift():
    delta = spectroscopy.bottle_delta(9000.0, OMEGA_Z)
    ok_value = abs(delta - TWO_PI * 23.0) / (TWO_PI * 23.0) <= 0.05
    ratio = spectroscopy.bottle_delta(9000.0, OMEGA_Z) / spectroscopy.bottle_delta(
        300.0, OMEGA_Z
    )
    ok_ratio = abs(ratio - 30.0) <= 30.0 * 1e-12
    report(
        5,
        ok_value and ok_ratio,
        f"bottle shift 2pi x {delta / TWO_PI:.3f} Hz vs 2pi x 23 Hz (tol 5%); "
        f"gradient ratio {ratio:.12f} vs 30 exactly",
    )


def test_criterion_06_relativistic_bottle():
    # no command reads the relativistic-mass shift, so the library leaves it
    # out; the criterion checks the paper's value of its closed form
    omega_c = cyclotron_frequency(6.0)
    delta_rel = -HBAR * omega_c * OMEGA_Z / (2.0 * M_E * C_LIGHT**2)
    target = -TWO_PI * 0.14
    ok_value = abs(delta_rel - target) / abs(target) <= 0.05
    rel = abs(delta_rel) / OMEGA_Z
    ok_ratio = 0.5e-9 <= rel <= 2e-9
    report(
        6,
        ok_value and ok_ratio,
        f"relativistic shift 2pi x {delta_rel / TWO_PI:.4f} Hz vs 2pi x -0.14 Hz "
        f"(tol 5%); |shift|/omega_z = {rel:.2e} in [0.5, 2]e-9",
    )


def test_criterion_07_field_profile():
    ring = magnetics.RingMagnet.saturated(5e-3, 15e-3, 5e-3).calibrated_to(9000.0)
    _, b2_center = magnetics.gradients(ring, 0.0)
    _, b2_far = magnetics.gradients(ring, 0.05)
    ok_far = 2.0 <= b2_far <= 8.0 and abs(b2_center - 9000.0) < 1e-6
    rng = np.random.default_rng(2024)
    zs = rng.uniform(-0.08, 0.08, size=20)
    worst = 0.0
    for z in zs:
        b1a, b2a = magnetics.gradients(ring, z)
        b1f, b2f = magnetics.fd_gradients(ring, z)
        worst = max(worst, abs(b1a - b1f) / abs(b1a), abs(b2a - b2f) / abs(b2a))
    ok_fd = worst <= 1e-6
    report(
        7,
        ok_far and ok_fd,
        f"calibrated B2(5 cm) = {b2_far:.2f} T/m^2 in [2, 8]; analytic-vs-FD "
        f"worst rel err {worst:.2e} <= 1e-6 at 20 random points",
    )


def test_criterion_08_heating_rate():
    rate = spectroscopy.heating_rate(spectroscopy.HeatingModel(), OMEGA_Z, 1e-3, T_ENV)
    ok = rate < 1.0
    report(8, ok, f"heating rate {rate:.3f} quanta/s < 1")


def test_criterion_09_dynamics_oracle(electron_budget):
    t0 = time.time()
    params = dynamics.ExchangeParams(
        omega_ex=electron_budget.omega_ex,
        gamma_L=electron_budget.gamma_L,
        gamma_S=electron_budget.gamma_S,
        n_bar=electron_budget.n_bar,
    )
    f_rk4 = dynamics.swap_fidelity(params, method="rk4")
    f_expm = dynamics.swap_fidelity(params, method="expm")
    ok_agree = abs(f_rk4 - f_expm) <= 1e-8

    ideal = dynamics.ExchangeParams(params.omega_ex, 0.0, 0.0, 0.0)
    ok_ideal = abs(dynamics.swap_fidelity(ideal) - 1.0) <= 1e-6

    state = dynamics.evolve(
        dynamics.TwoModeState.fock(4, 1, 0), params, electron_budget.t_ex
    )
    ok_trace = abs(state.trace() - 1.0) <= 1e-9

    lossless = dynamics.TwoModeState.fock(4, 2, 1)
    evolved = dynamics.evolve(
        lossless, ideal, 0.3 * electron_budget.t_ex
    )
    ok_quanta = abs(evolved.total_quanta() - lossless.total_quanta()) <= 1e-8

    n_bar = 0.2  # keeps the truncated steady state within the 1% target
    damped = dynamics.evolve(
        dynamics.TwoModeState.fock(4, 0, 0),
        dynamics.ExchangeParams(0.0, 1.0, 0.0, n_bar),
        t=6.5,  # >> 1/gamma; transient residue ~3e-4 quanta
    )
    ok_steady = abs(damped.occupation("L") - n_bar) / n_bar <= 0.01
    elapsed = time.time() - t0
    ok_time = elapsed < 10.0
    report(
        9,
        ok_agree and ok_ideal and ok_trace and ok_quanta and ok_steady and ok_time,
        f"rk4-expm gap {abs(f_rk4 - f_expm):.2e} <= 1e-8; ideal swap err "
        f"{abs(dynamics.swap_fidelity(ideal) - 1.0):.2e} <= 1e-6; trace err "
        f"{abs(state.trace() - 1.0):.2e} <= 1e-9; quanta drift "
        f"{abs(evolved.total_quanta() - lossless.total_quanta()):.2e} <= 1e-8; "
        f"steady-state error {abs(damped.occupation('L') - n_bar) / n_bar:.2%} <= 1%; "
        f"runtime {elapsed:.1f} s < 10 s",
    )


def test_criterion_10_protocol_monte_carlo(electron_protocol):
    t0 = time.time()
    config = electron_protocol._replace(
        cycles=10_000,
        swap_probability=0.7946,
        drive=electron_protocol.drive._replace(peak_probability=0.8),
    )
    checks = []
    for k, det in enumerate(
        (0.0, config.shifts_S.broadening, 3.0 * config.shifts_S.broadening)
    ):
        p = protocol.analytic_jump_probability(config, det)
        blocks = protocol.record_blocks(config, det, k)
        rate = sum(np.count_nonzero(b.declared_jump) for b in blocks) / config.cycles
        sigma = math.sqrt(p * (1.0 - p) / config.cycles)
        checks.append(abs(rate - p) <= 3.0 * sigma)
    ok_mc = all(checks)

    small = config._replace(cycles=200)
    shape = protocol.lineshape_scan(small)
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        protocol.write_lineshape_csv(shape, buf)
        again = protocol.lineshape_scan(small)
        buf2 = io.StringIO()
        protocol.write_lineshape_csv(again, buf2)
        outputs.append((buf.getvalue(), buf2.getvalue()))
    ok_csv = all(a == b for a, b in outputs)
    elapsed = time.time() - t0
    ok_time = elapsed < 60.0
    report(
        10,
        ok_mc and ok_csv and ok_time,
        f"MC jump rate within 3 sigma of the closed form at 3 detunings "
        f"(1e4 cycles each); identical seeds give byte-identical CSV; "
        f"runtime {elapsed:.1f} s < 60 s",
    )


def _fitted_width_for_gradient(b2: float, seed: int) -> tuple[float, float]:
    rc = cfg.load_config("paper-electron")
    budget = cfg.build_budget(rc)
    shifts_l = spectroscopy.shift_set_for_trap(rc.trap_logic)
    trap_s = rc.trap_spectroscopy._replace(B2_local=b2)
    shifts_s = spectroscopy.shift_set_for_trap(trap_s)
    width = shifts_s.broadening
    grid = tuple(np.linspace(-1.0, 8.0, 37) * width)
    config = protocol.ProtocolConfig(
        budget=budget,
        shifts_L=shifts_l,
        shifts_S=shifts_s,
        pi_pulse_fidelity=1.0,
        sideband_cooling_residual=0.0,
        detection=protocol.DetectionModel(0.05, 0.0, 0.5 * shifts_l.delta),
        drive=protocol.DriveModel(detunings=grid, peak_probability=1.0),
        field_noise=0.0,
        cycles=3000,
        seed=seed,
        omega_c_spec=cyclotron_frequency(rc.trap_spectroscopy.B),
        swap_probability=1.0,
    )
    shape = protocol.lineshape_scan(config)
    _, fitted = protocol.fitted_center_width(shape)
    return fitted, width


def test_criterion_11_linewidth_scaling():
    # independent seeds: the two scans carry independent Monte Carlo noise
    fitted_narrow, _ = _fitted_width_for_gradient(4.0, seed=11)
    fitted_wide, _ = _fitted_width_for_gradient(300.0, seed=1011)
    ratio = fitted_wide / fitted_narrow
    ok = abs(ratio - 75.0) / 75.0 <= 0.10
    report(
        11,
        ok,
        f"fitted width ratio (B2 = 300 vs 4 T/m^2) = {ratio:.2f} vs 75 (tol 10%)",
    )


def test_criterion_12_proton_preset():
    rc = cfg.load_config("paper-proton")
    budget = cfg.build_budget(rc)
    ok_nbar = budget.n_bar >= 100.0
    electron_rc = cfg.load_config("paper-electron")
    electron_budget = cfg.build_budget(electron_rc)
    l_ratio = budget.l_L / electron_budget.l_L
    ok_mass = abs(l_ratio - M_P / M_E) / (M_P / M_E) <= 1e-12
    report(
        12,
        ok_nbar and ok_mass,
        f"proton preset: n_bar = {budget.n_bar:.1f} >= 100 (feasible="
        f"{budget.feasible}); l scales with mass: ratio {l_ratio:.4f} = "
        f"m_p/m_e = {M_P / M_E:.4f} (commonly rounded to ~2000)",
    )
