import io
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wireqls import protocol, spectroscopy
from wireqls.constants import G_E, cyclotron_frequency

from conftest import assert_rel


@pytest.fixture(scope="module")
def shifts(trap_logic, trap_spectroscopy):
    return (
        spectroscopy.shift_set_for_trap(trap_logic),
        spectroscopy.shift_set_for_trap(trap_spectroscopy),
    )


@pytest.fixture(scope="module")
def base_config(paper_budget, shifts):
    shifts_l, shifts_s = shifts
    return protocol.ProtocolConfig(
        budget=paper_budget,
        shifts_L=shifts_l,
        shifts_S=shifts_s,
        pi_pulse_fidelity=1.0,
        sideband_cooling_residual=0.0,
        detection=protocol.DetectionModel(
            averaging_time=0.050,
            noise_density=0.0,
            threshold=0.5 * shifts_l.delta,
        ),
        drive=protocol.DriveModel(
            detunings=tuple(np.linspace(0.0, 8.0, 9) * shifts_s.broadening),
            profile="exponential",
            peak_probability=1.0,
        ),
        field_noise=0.0,
        cycles=64,
        seed=20230601,
        omega_c_spec=cyclotron_frequency(6.0),
        swap_probability=1.0,
    )


class TestDriveProbability:
    def test_exponential_profile(self, base_config):
        drive = base_config.drive
        w = 2.0
        assert protocol.drive_probability(drive, w, 0.0) == 1.0
        assert protocol.drive_probability(drive, w, 2.0) == pytest.approx(
            math.exp(-1.0)
        )
        assert protocol.drive_probability(drive, w, -0.5) == 0.0  # one-sided
        # drift moves the edge
        assert protocol.drive_probability(drive, w, 1.0, drift=1.0) == 1.0

    def test_zero_width_point_mass(self, base_config):
        drive = base_config.drive
        assert protocol.drive_probability(drive, 0.0, 0.0) == 1.0
        assert protocol.drive_probability(drive, 0.0, 1e-9) == 0.0

    def test_gaussian_profile_two_sided(self):
        drive = protocol.DriveModel(detunings=(0.0,), profile="gaussian")
        assert protocol.drive_probability(drive, 2.0, -2.0) == pytest.approx(
            protocol.drive_probability(drive, 2.0, 2.0)
        )
        assert protocol.drive_probability(drive, 2.0, 2.0) == pytest.approx(
            math.exp(-0.5)
        )


class TestRunCycle:
    """Cycles run through simulate_point's array kernel."""

    def test_deterministic_ideal_limit(self, base_config):
        rec = protocol.simulate_point(replace(base_config, cycles=1), 0.0)
        assert rec.n_c_after_drive[0] == 1
        assert rec.transfer_s_ok[0] and rec.exchange_ok[0] and rec.transfer_l_ok[0]
        assert rec.declared_jump[0]
        assert rec.measured_shift[0] == base_config.shifts_L.delta
        assert rec.wall_time[0] == pytest.approx(base_config.cycle_time)

    def test_no_drive_no_jumps(self, base_config):
        config = replace(
            base_config,
            drive=replace(base_config.drive, peak_probability=0.0),
            cycles=50,
        )
        rec = protocol.simulate_point(config, 0.0)
        assert not rec.declared_jump.any()
        assert np.all(rec.measured_shift == 0.0)

    def test_declared_implies_threshold(self, base_config):
        config = replace(
            base_config,
            pi_pulse_fidelity=0.8,
            sideband_cooling_residual=0.1,
            detection=replace(base_config.detection, noise_density=20.0),
            swap_probability=0.7,
            cycles=400,
        )
        rec = protocol.simulate_point(config, 0.0)
        threshold = config.detection.threshold
        assert np.all(rec.measured_shift[rec.declared_jump] >= threshold)
        # column invariants of the record table
        n = config.cycles
        np.testing.assert_array_equal(rec.cycle, np.arange(n))
        np.testing.assert_array_equal(rec.declared_jump, rec.measured_shift >= threshold)
        np.testing.assert_allclose(
            rec.wall_time, (np.arange(n) + 1) * config.cycle_time, rtol=1e-12, atol=0.0
        )


class TestAnalyticOracle:
    def test_ideal_stage_product(self, base_config):
        # independent closed form: p_exc * p_pi^2 * p_swap
        config = replace(
            base_config, pi_pulse_fidelity=0.9, swap_probability=0.75,
            drive=replace(base_config.drive, peak_probability=0.8),
        )
        w = config.shifts_S.broadening
        for det in (0.0, 0.5 * w, 2.0 * w):
            product = 0.8 * math.exp(-det / w) * 0.9 * 0.75 * 0.9
            assert protocol.analytic_jump_probability(config, det) == pytest.approx(
                product, rel=1e-12
            )

    def test_monte_carlo_converges_to_oracle(self, base_config):
        config = replace(
            base_config,
            pi_pulse_fidelity=0.95,
            swap_probability=0.7946,
            cycles=10_000,
            drive=replace(base_config.drive, peak_probability=0.8),
        )
        for k, det in enumerate((0.0, config.shifts_S.broadening)):
            p = protocol.analytic_jump_probability(config, det)
            records = protocol.simulate_point(config, det, k)
            rate = np.count_nonzero(records.declared_jump) / config.cycles
            sigma = math.sqrt(p * (1.0 - p) / config.cycles)
            assert abs(rate - p) <= 3.0 * sigma

    def test_monte_carlo_unbiased_across_seeds(self, base_config):
        # sharper than the single-run bound: the mean over independent
        # seeds must sit within 3 sigma of its own (smaller) error bar
        config = replace(
            base_config,
            pi_pulse_fidelity=0.95,
            swap_probability=0.7946,
            cycles=10_000,
            drive=replace(base_config.drive, peak_probability=0.8),
        )
        det = config.shifts_S.broadening
        p = protocol.analytic_jump_probability(config, det)
        n_seeds = 10
        rates = []
        for seed in range(n_seeds):
            records = protocol.simulate_point(replace(config, seed=seed), det, 1)
            rates.append(np.count_nonzero(records.declared_jump) / config.cycles)
        mean = sum(rates) / n_seeds
        sigma = math.sqrt(p * (1.0 - p) / config.cycles / n_seeds)
        assert abs(mean - p) <= 3.0 * sigma

    def test_oracle_with_noise_and_residual(self, base_config):
        config = replace(
            base_config,
            pi_pulse_fidelity=0.9,
            sideband_cooling_residual=0.08,
            swap_probability=0.8,
            detection=replace(base_config.detection, noise_density=15.0),
            cycles=10_000,
        )
        p = protocol.analytic_jump_probability(config, 0.0)
        records = protocol.simulate_point(config, 0.0, 0)
        rate = np.count_nonzero(records.declared_jump) / config.cycles
        sigma = math.sqrt(p * (1.0 - p) / config.cycles)
        assert abs(rate - p) <= 3.0 * sigma

    def test_residual_occupation_creates_false_positives(self, base_config):
        config = replace(
            base_config,
            sideband_cooling_residual=0.2,
            drive=replace(base_config.drive, peak_probability=0.0),
        )
        p = protocol.analytic_jump_probability(config, 0.0)
        assert p > 0.0  # stray quanta read out as jumps

    def test_monotone_in_stage_fidelities(self, base_config):
        # at zero cooling residual the declared rate is non-decreasing in
        # every stage fidelity; with residual occupation a better exchange
        # can swap a stray logic-side quantum away, so the rate is
        # genuinely non-monotone in the swap probability there
        rng = np.random.default_rng(31)
        for _ in range(30):
            peak, pi_f, swap = rng.uniform(0.1, 0.95, size=3)
            config = replace(
                base_config,
                pi_pulse_fidelity=pi_f,
                swap_probability=swap,
                drive=replace(base_config.drive, peak_probability=peak),
            )
            det = rng.uniform(0.0, 2.0) * base_config.shifts_S.broadening
            p0 = protocol.analytic_jump_probability(config, det)
            bump = 1.0 + rng.uniform(0.01, 0.2)
            for field in ("pi_pulse_fidelity", "swap_probability", "peak"):
                if field == "peak":
                    cfg2 = replace(
                        config,
                        drive=replace(config.drive, peak_probability=min(peak * bump, 1.0)),
                    )
                elif field == "pi_pulse_fidelity":
                    cfg2 = replace(config, pi_pulse_fidelity=min(pi_f * bump, 1.0))
                else:
                    cfg2 = replace(config, swap_probability=min(swap * bump, 1.0))
                assert protocol.analytic_jump_probability(cfg2, det) >= p0 - 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        p_pi=st.floats(0.0, 1.0),
        residual=st.floats(0.0, 3.0),
        swap=st.floats(0.0, 1.0),
        peak=st.floats(0.0, 1.0),
        profile=st.sampled_from(["exponential", "gaussian"]),
        mode=st.sampled_from(["cyclotron", "anomaly"]),
        # the estimator noise in units of delta_L, so 0 reads noise-free
        noise=st.floats(0.0, 3.0),
        det=st.floats(-5.0, 5.0),
    )
    @example(  # noise-free anomaly readout: the jump never reaches threshold
        p_pi=0.9, residual=0.2, swap=0.8, peak=1.0, profile="exponential",
        mode="anomaly", noise=0.0, det=0.0,
    )
    def test_closed_form_matches_tree(
        self, base_config, p_pi, residual, swap, peak, profile, mode, noise, det
    ):
        detection = base_config.detection
        config = replace(
            base_config,
            pi_pulse_fidelity=p_pi,
            sideband_cooling_residual=residual,
            swap_probability=swap,
            mode=mode,
            detection=replace(
                detection,
                noise_density=noise
                * base_config.shifts_L.delta
                * math.sqrt(detection.averaging_time),
            ),
            drive=replace(base_config.drive, profile=profile, peak_probability=peak),
        )
        detuning = det * config.shifts_S.broadening
        assert abs(
            protocol.analytic_jump_probability(config, detuning)
            - _tree_jump_probability(config, detuning)
        ) <= 1e-15


class TestLineshape:
    def test_ideal_scan_matches_drive_model(self, base_config):
        config = replace(base_config, cycles=4000)
        shape = protocol.lineshape_scan(config)
        w = config.shifts_S.broadening
        for det, frac in zip(shape.detunings, shape.fractions):
            expected = protocol.drive_probability(config.drive, w, det)
            sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / config.cycles)
            assert abs(frac - expected) <= 4.0 * sigma

    def test_reproducible_and_order_independent(self, base_config):
        a = protocol.lineshape_scan(base_config)
        b = protocol.lineshape_scan(base_config)
        np.testing.assert_array_equal(a.fractions, b.fractions)
        # per-point streams do not depend on evaluation order
        recs_direct = protocol.simulate_point(base_config, 1.0, 3)
        protocol.simulate_point(base_config, 0.5, 1)
        recs_again = protocol.simulate_point(base_config, 1.0, 3)
        for field in fields(protocol.ProtocolRecords):
            np.testing.assert_array_equal(
                getattr(recs_direct, field.name), getattr(recs_again, field.name)
            )

    def test_fitted_width_tracks_broadening(self, base_config):
        # moment fit applied to the exact profile recovers the 1/e width
        config = replace(base_config, cycles=4000)
        w = config.shifts_S.broadening
        exact = protocol.Lineshape(
            detunings=np.asarray(config.drive.detunings),
            fractions=np.array(
                [
                    protocol.drive_probability(config.drive, w, d)
                    for d in config.drive.detunings
                ]
            ),
            errors=np.zeros(len(config.drive.detunings)),
            cycles=1,
        )
        _, width = protocol.fitted_center_width(exact)
        assert_rel(width, w, 0.10)
        shape = protocol.lineshape_scan(config)
        _, width_mc = protocol.fitted_center_width(shape)
        assert_rel(width_mc, width, 0.10)

    def test_width_ratio_scales_with_gradient(self, base_config, trap_logic):
        # widths for B2 = 4 vs 300 T/m^2 differ by exactly the B2 ratio
        shifts_legacy = spectroscopy.shift_set_for_trap(
            replace(trap_logic, B2_local=300.0)
        )
        ratio = shifts_legacy.broadening / base_config.shifts_S.broadening
        assert ratio == pytest.approx(300.0 / 4.0, rel=1e-12)

    def test_center_uncertainty_positive(self, base_config):
        shape = protocol.lineshape_scan(replace(base_config, cycles=2000))
        assert protocol.center_uncertainty(shape) > 0.0

    def test_empty_lineshape_rejected(self, base_config):
        empty = protocol.Lineshape(
            detunings=np.array([1.0, 2.0]),
            fractions=np.zeros(2),
            errors=np.zeros(2),
            cycles=10,
        )
        with pytest.raises(ValueError):
            protocol.fitted_center_width(empty)

    def test_field_noise_washes_out_narrow_line(self, base_config):
        noisy = replace(base_config, field_noise=1e-10, cycles=300)
        quiet = replace(base_config, cycles=300)
        on_res_noisy = protocol.simulate_point(noisy, 0.0, 0)
        on_res_quiet = protocol.simulate_point(quiet, 0.0, 0)
        rate_noisy = np.count_nonzero(on_res_noisy.declared_jump) / 300
        rate_quiet = np.count_nonzero(on_res_quiet.declared_jump) / 300
        # the walk (~1e2 rad/s per root-minute) dwarfs the 0.07 rad/s line
        assert rate_noisy < 0.5 * rate_quiet


class TestAnomalyMode:
    def test_readout_shift_arithmetic(self, base_config):
        config = replace(base_config, mode="anomaly")
        delta = config.shifts_L.delta
        expected = delta * (1.0 + 0.5 * G_E * (-1.0))
        assert protocol.readout_shift(config) == pytest.approx(expected, rel=1e-12)
        assert protocol.readout_shift(base_config) == delta
        # consistent with the frequency-shift formula evaluated directly
        before = spectroscopy.axial_frequency(
            spectroscopy.QuantumNumbers(0, 0.5), 0.0, delta
        )
        after = spectroscopy.axial_frequency(
            spectroscopy.QuantumNumbers(1, -0.5), 0.0, delta
        )
        assert protocol.readout_shift(config) == pytest.approx(
            after - before, rel=1e-9
        )

    def test_machine_runs_in_anomaly_mode(self, base_config):
        config = replace(base_config, mode="anomaly")
        # transfer chain still completes; the tiny negative shift stays
        # below any positive threshold, so no jump is declared
        for cycles in (1, 50, 400):
            rec = protocol.simulate_point(replace(config, cycles=cycles), 0.0)
            assert rec.transfer_l_ok.all()
            assert not rec.declared_jump.any()


class TestTiming:
    def test_stage_sum(self, base_config):
        tb = protocol.timing_budget(base_config)
        expected = (
            base_config.cooling_time
            + 2.0 * base_config.pulse_time
            + base_config.budget.t_ex
            + base_config.detection.averaging_time
        )
        assert tb.total == pytest.approx(expected, rel=1e-12)
        assert tb.stages["exchange"] == base_config.budget.t_ex
        assert tb.exchange_dominates

    def test_averaging_time_inverse_square(self):
        slow = protocol.required_averaging_time(1.0, 5.0)
        fast = protocol.required_averaging_time(30.0, 5.0)
        assert slow / fast == pytest.approx(900.0, rel=1e-12)

    def test_detection_speedup_near_twenty(self, base_config):
        config = replace(
            base_config,
            detection=replace(base_config.detection, noise_density=0.798),
        )
        tb = protocol.timing_budget(config)
        # model-dependent; required to land within a factor of two of 20
        assert 10.0 <= tb.detection_speedup <= 40.0


class TestValidationAndExport:
    def test_threshold_must_sit_below_delta(self, base_config):
        with pytest.raises(ValueError):
            replace(
                base_config,
                detection=replace(
                    base_config.detection,
                    threshold=2.0 * base_config.shifts_L.delta,
                ),
            )
        with pytest.raises(ValueError):
            replace(base_config, pi_pulse_fidelity=1.5)
        with pytest.raises(ValueError):
            replace(base_config, cycles=0)
        with pytest.raises(ValueError):
            replace(base_config, mode="spin")

    def test_records_csv_round_trip_stable(self, base_config):
        records = protocol.simulate_point(base_config, 0.0, 0)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            protocol.write_records_csv(records, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        header = bufs[0].splitlines()[0]
        assert header.startswith("cycle,")
        assert "measured_shift_rad_per_s" in header

    def test_lineshape_csv_summary_appended(self, base_config):
        shape = protocol.lineshape_scan(base_config)
        buf = io.StringIO()
        protocol.write_lineshape_csv(shape, buf, summary={"jump_rate": 0.5})
        text = buf.getvalue()
        assert text.splitlines()[0] == "detuning_rad_per_s,excitation_fraction,stat_error"
        assert text.splitlines()[-1] == "# jump_rate = 0.5"


class TestDayScaleReport:
    def test_report_is_order_of_magnitude_only(self, base_config, capsys):
        # drift-limited campaign with the quoted 1e-10 per-root-minute walk;
        # reported and compared, never asserted against the projection
        grid = tuple(np.linspace(-4000.0, 4000.0, 13))
        config = replace(
            base_config,
            field_noise=1e-10,
            drive=replace(base_config.drive, detunings=grid),
        )
        report = protocol.day_scale_center_report(config, total_duration=86400.0)
        assert report["total_cycles"] > 1e5
        assert report["walk_sigma_rad_per_s"] == pytest.approx(
            1e-10 * config.omega_c_spec * math.sqrt(86400.0 / 60.0), rel=1e-12
        )
        rel = report["relative_center_uncertainty"]
        if rel is not None:
            # zero when only a single grid point ever fired
            assert rel >= 0.0
        print(
            f"\n[day-scale report] relative center uncertainty {rel!r} "
            f"(walk sigma {report['walk_sigma_rad_per_s']:.3g} rad/s; "
            "one-day statistical projections of order 1e-14 additionally "
            "assume drift tracking outside this model)"
        )


def _tree_jump_probability(config, detuning, swap_probability=None):
    """Declared-jump probability by enumerating the stage Bernoulli tree,
    branch by branch: the oracle for the closed form."""
    p_swap = (
        swap_probability
        if swap_probability is not None
        else protocol.resolve_swap_probability(config)
    )
    p_res = protocol._residual_excited_probability(config.sideband_cooling_residual)
    p_pi = config.pi_pulse_fidelity
    p_exc = float(
        protocol.drive_probability(config.drive, config.shifts_S.broadening, detuning)
    )
    shift = protocol.readout_shift(config)
    sigma = config.detection.sigma
    threshold = config.detection.threshold

    p_declared = 0.0
    for n_z_s0, pa in ((0, 1.0 - p_res), (1, p_res)):
        for n_z_l0, pb in ((0, 1.0 - p_res), (1, p_res)):
            for exc, pc in ((0, 1.0 - p_exc), (1, p_exc)):
                # step (iii) branches: (n_z_s, n_c_s, probability)
                if exc == 1 and n_z_s0 == 0:
                    branches3 = [(1, 0, p_pi), (n_z_s0, 1, 1.0 - p_pi)]
                else:
                    branches3 = [(n_z_s0, exc, 1.0)]
                for n_z_s, _n_c_s, pd in branches3:
                    # step (iv) branches: (n_z_l, probability)
                    if n_z_s != n_z_l0:
                        branches4 = [(n_z_s, p_swap), (n_z_l0, 1.0 - p_swap)]
                    else:
                        branches4 = [(n_z_l0, 1.0)]
                    for n_z_l, pe in branches4:
                        # step (v) branches: (n_c_l, probability)
                        if n_z_l == 1:
                            branches5 = [(1, p_pi), (0, 1.0 - p_pi)]
                        else:
                            branches5 = [(0, 1.0)]
                        for n_c_l, pf in branches5:
                            weight = pa * pb * pc * pd * pe * pf
                            if weight == 0.0:
                                continue
                            p_declared += weight * protocol._detection_probability(
                                shift * n_c_l, sigma, threshold
                            )
    return p_declared


def _block_kernel(config, detuning, point_index):
    """The kernel's columns from one (6, n) uniform and one (2, n) normal
    block, stage by stage as the module docstring describes them."""
    n = config.cycles
    rng = protocol.point_rng(config.seed, point_index)
    u_res_s, u_res_l, u_drive, u_pi_s, u_swap, u_pi_l = rng.random((6, n))
    steps, noise = rng.standard_normal((2, n))
    drift = np.cumsum(steps) * (
        config.field_noise * config.omega_c_spec * math.sqrt(config.cycle_time / 60.0)
    )
    residual = config.sideband_cooling_residual
    p_res = residual / (1.0 + residual)
    p_pi = config.pi_pulse_fidelity
    n_z_s = u_res_s < p_res
    n_z_l = u_res_l < p_res
    excited = u_drive < protocol.drive_probability(
        config.drive, config.shifts_S.broadening, detuning, drift
    )
    transfer_s = excited & ~n_z_s & (u_pi_s < p_pi)
    exchange = ((n_z_s | transfer_s) != n_z_l) & (
        u_swap < protocol.resolve_swap_probability(config)
    )
    transfer_l = (n_z_l ^ exchange) & (u_pi_l < p_pi)
    measured = (
        protocol.readout_shift(config) * transfer_l + config.detection.sigma * noise
    )
    return {
        "cycle": np.arange(n),
        "n_c_after_drive": excited.astype(int),
        "transfer_s_ok": transfer_s,
        "exchange_ok": exchange,
        "transfer_l_ok": transfer_l,
        "measured_shift": measured,
        "declared_jump": measured >= config.detection.threshold,
        "wall_time": np.arange(1, n + 1) * config.cycle_time,
    }


def _reference_records_csv(records) -> str:
    """One %-template per row, indexing the columns cycle by cycle."""
    text = (
        "cycle,n_c_after_drive,transfer_s_ok,exchange_ok,transfer_l_ok,"
        "measured_shift_rad_per_s,declared_jump,wall_time_s\n"
    )
    for i in range(len(records.cycle)):
        text += "%d,%d,%d,%d,%d,%r,%d,%r\n" % (
            int(records.cycle[i]),
            int(records.n_c_after_drive[i]),
            int(records.transfer_s_ok[i]),
            int(records.exchange_ok[i]),
            int(records.transfer_l_ok[i]),
            float(records.measured_shift[i]),
            int(records.declared_jump[i]),
            float(records.wall_time[i]),
        )
    return text


class _CountingSink:
    """A text stream that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


class TestRecordStream:
    """The kernel draws row by row; the writer formats fixed row chunks."""

    @pytest.fixture()
    def noisy_config(self, base_config):
        return replace(
            base_config,
            pi_pulse_fidelity=0.9,
            sideband_cooling_residual=0.1,
            detection=replace(base_config.detection, noise_density=20.0),
            swap_probability=0.7,
            cycles=5000,
        )

    @pytest.mark.parametrize("field_noise", [0.0, 1e-9])
    def test_kernel_matches_block_draws(self, noisy_config, field_noise):
        config = replace(noisy_config, field_noise=field_noise)
        width = config.shifts_S.broadening
        for k, detuning in enumerate((0.0, 0.5 * width, 3.0 * width)):
            records = protocol.simulate_point(config, detuning, k)
            expected = _block_kernel(config, detuning, k)
            for f in fields(protocol.ProtocolRecords):
                column = getattr(records, f.name)
                np.testing.assert_array_equal(column, expected[f.name], err_msg=f.name)
                assert column.dtype == expected[f.name].dtype, f.name
        if field_noise:
            # the walk moves the line: the drift stage is really exercised
            quiet = protocol.simulate_point(replace(config, field_noise=0.0), 0.0, 0)
            assert not np.array_equal(
                quiet.n_c_after_drive, protocol.simulate_point(config, 0.0, 0).n_c_after_drive
            )

    @pytest.mark.parametrize(
        "cycles",
        [
            1,
            protocol.RECORDS_CHUNK - 1,
            protocol.RECORDS_CHUNK,
            protocol.RECORDS_CHUNK + 1,
            3 * protocol.RECORDS_CHUNK + 7,
        ],
    )
    def test_chunked_writer_matches_row_template(self, noisy_config, cycles):
        records = protocol.simulate_point(replace(noisy_config, cycles=cycles), 0.0, 2)
        buf = io.StringIO()
        protocol.write_records_csv(records, buf)
        assert buf.getvalue() == _reference_records_csv(records)
        assert buf.getvalue().count("\n") == cycles + 1

    def test_writer_memory_does_not_grow_with_the_table(self, noisy_config):
        import tracemalloc

        records = protocol.simulate_point(replace(noisy_config, cycles=100_000), 0.0, 0)
        sink = _CountingSink()
        tracemalloc.start()
        try:
            protocol.write_records_csv(records, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.chars > 5_000_000  # the whole table went through
        assert peak < 4_000_000, f"writer peaked at {peak / 1e6:.1f} MB"
