import io
import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wireqls import config as cfg
from wireqls import protocol, spectroscopy
from wireqls.constants import G_E, cyclotron_frequency

from conftest import CountingSink, assert_rel


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


def _joined(config, detuning, point_index=0):
    """The record table of one point: its `record_blocks` joined."""
    blocks = list(protocol.record_blocks(config, detuning, point_index))
    return protocol.ProtocolRecords(*map(np.concatenate, zip(*blocks)))


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


def _clipped_drive_probability(drive, width, detuning, drift=0.0):
    """The profile as it was computed before exp skipped the arguments that
    underflow: the oracle drive_probability must match bit for bit."""
    x = np.subtract(detuning, drift)
    if drive.profile == "exponential":
        decay = np.exp(-np.clip(x, 0.0, 800.0 * width) / width)
        return drive.peak_probability * np.where(x >= 0.0, decay, 0.0)
    z = np.minimum(np.abs(x), 40.0 * width) / width
    return drive.peak_probability * np.exp(-0.5 * z * z)


# detunings in widths: anywhere, 0, the exponential's 700-800-width band
# and the gaussian's (0.5 z^2 from 700 to 800), on both sides of the line, and nan
_WIDTHS_OFF = st.one_of(
    st.floats(-900.0, 900.0),
    st.sampled_from([0.0, -0.0, 745.13, 746.0, 800.0, math.sqrt(1492.0), 40.0, math.nan]),
    st.floats(700.0, 800.0), st.floats(-800.0, -700.0),
    st.floats(37.4, 40.0), st.floats(-40.0, -37.4),
)


class TestDriveProbabilityUnderflow:
    @settings(max_examples=200, deadline=None)
    @given(
        profile=st.sampled_from(["exponential", "gaussian"]),
        peak=st.sampled_from([1.0, 0.8, 0.0]),
        width=st.floats(1e-6, 1e6),
        offsets=st.lists(_WIDTHS_OFF, min_size=1, max_size=50),
        drift=st.floats(-3.0, 3.0),
    )
    def test_matches_clipped_formula_bit_for_bit(
        self, profile, peak, width, offsets, drift
    ):
        drive = protocol.DriveModel(
            detunings=(0.0,), profile=profile, peak_probability=peak
        )
        detunings = np.array(offsets) * width
        # arrays of detunings, arrays of drift, and scalars
        for args in (
            (detunings,),
            (detunings[0], detunings * drift),
            (float(detunings[0]),),
            (float(detunings[0]), drift * width),
        ):
            got = protocol.drive_probability(drive, width, *args)
            want = _clipped_drive_probability(drive, width, *args)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestRunCycle:
    """Cycles run through record_blocks' array kernel."""

    def test_deterministic_ideal_limit(self, base_config):
        rec = _joined(base_config._replace(cycles=1), 0.0)
        assert rec.n_c_after_drive[0] == 1
        assert rec.transfer_s_ok[0] and rec.exchange_ok[0] and rec.transfer_l_ok[0]
        assert rec.declared_jump[0]
        assert rec.measured_shift[0] == base_config.shifts_L.delta
        assert rec.wall_time[0] == pytest.approx(base_config.cycle_time)

    def test_no_drive_no_jumps(self, base_config):
        config = base_config._replace(
            drive=base_config.drive._replace(peak_probability=0.0),
            cycles=50,
        )
        rec = _joined(config, 0.0)
        assert not rec.declared_jump.any()
        assert np.all(rec.measured_shift == 0.0)

    def test_declared_implies_threshold(self, base_config):
        config = base_config._replace(
            pi_pulse_fidelity=0.8,
            sideband_cooling_residual=0.1,
            detection=base_config.detection._replace(noise_density=20.0),
            swap_probability=0.7,
            cycles=400,
        )
        rec = _joined(config, 0.0)
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
        config = base_config._replace(
            pi_pulse_fidelity=0.9, swap_probability=0.75,
            drive=base_config.drive._replace(peak_probability=0.8),
        )
        w = config.shifts_S.broadening
        for det in (0.0, 0.5 * w, 2.0 * w):
            product = 0.8 * math.exp(-det / w) * 0.9 * 0.75 * 0.9
            assert protocol.analytic_jump_probability(config, det) == pytest.approx(
                product, rel=1e-12
            )

    def test_swap_keyword_reads_as_the_replaced_config(self):
        # the keyword stands in for the config's swap, float for float, at
        # every grid point of the bundled electron scenario
        config = protocol.build_protocol(cfg.load_config("paper-electron"))
        swap = 0.5
        replaced = config._replace(swap_probability=swap)
        assert len(config.drive.detunings) == 46
        moved = 0
        for det in config.drive.detunings:
            p = protocol.analytic_jump_probability(config, det, swap_probability=swap)
            assert p == protocol.analytic_jump_probability(replaced, det)
            moved += p != protocol.analytic_jump_probability(config, det)
        assert moved > 0  # the keyword is not the config's own swap

    @pytest.mark.parametrize("swap", [math.nan, 1.5, -0.1])
    def test_swap_override_must_be_a_probability(self, swap):
        # a NaN override never swapped, and 1.5 gave a jump probability of 1.17
        config = protocol.build_protocol(cfg.load_config("paper-electron"))
        message = r"^swap_probability must lie in \[0, 1\]$"
        with pytest.raises(ValueError, match=message):
            config._replace(swap_probability=swap)
        with pytest.raises(ValueError, match=message):
            protocol.analytic_jump_probability(config, 0.0, swap_probability=swap)
        for edge in (None, 0.0, 1.0):
            assert config._replace(swap_probability=edge).swap_probability == edge

    @settings(max_examples=80, deadline=None)
    @given(
        pi=st.sampled_from([0.0, 0.5, 1.0]),
        residual=st.sampled_from([0.0, 0.05]),
        swap=st.sampled_from([0.0, 0.7]),
        peak=st.sampled_from([0.0, 0.8]),
        profile=st.sampled_from(["exponential", "gaussian"]),
        # the grid lies wholly off the line: below the one-sided exponential,
        # at least 40 widths out on both sides of the Gaussian
        below=st.booleans(),
        mode=st.sampled_from(["cyclotron", "anomaly"]),
        noise=st.sampled_from([0.0, 15.0]),
    )
    @example(  # a Gaussian line with no background, the grid far out on both sides
        pi=1.0, residual=0.0, swap=0.7, peak=0.8, profile="gaussian", below=True,
        mode="cyclotron", noise=0.0,
    )
    def test_vanishing_inputs_name_the_zero_factors(
        self, base_config, pi, residual, swap, peak, profile, below, mode, noise
    ):
        w = base_config.shifts_S.broadening
        off_line = (np.linspace(-6.0, -2.0, 5) if profile == "exponential"
                    else np.array([-60.0, -40.0, 40.0, 60.0]))
        config = base_config._replace(
            pi_pulse_fidelity=pi,
            sideband_cooling_residual=residual,
            swap_probability=swap,
            mode=mode,
            detection=base_config.detection._replace(noise_density=noise),
            drive=base_config.drive._replace(
                profile=profile,
                peak_probability=peak,
                detunings=tuple(off_line * w) if below else base_config.drive.detunings,
            ),
        )
        names = protocol.vanishing_inputs(config)
        # pi = 0 leaves only the false jumps, so the line is what lies above
        floor = config._replace(pi_pulse_fidelity=0.0)
        line_is_zero = all(
            protocol.analytic_jump_probability(config, d)
            <= protocol.analytic_jump_probability(floor, d)
            for d in config.drive.detunings
        )
        assert bool(names) == line_is_zero
        assert ("protocol.pi_pulse_fidelity" in names) == (pi == 0.0)
        assert ("protocol.mode" in names) == (mode == "anomaly")
        no_background = residual == 0.0
        assert ("protocol.drive.peak_probability" in names) == (no_background and peak == 0)
        assert ("protocol.drive.grid" in names) == (no_background and peak > 0 and below)
        assert ("resonator" in names) == (no_background and swap == 0.0)

    def test_monte_carlo_converges_to_oracle(self, base_config):
        config = base_config._replace(
            pi_pulse_fidelity=0.95,
            swap_probability=0.7946,
            cycles=10_000,
            drive=base_config.drive._replace(peak_probability=0.8),
        )
        for k, det in enumerate((0.0, config.shifts_S.broadening)):
            p = protocol.analytic_jump_probability(config, det)
            records = _joined(config, det, k)
            rate = np.count_nonzero(records.declared_jump) / config.cycles
            sigma = math.sqrt(p * (1.0 - p) / config.cycles)
            assert abs(rate - p) <= 3.0 * sigma

    def test_monte_carlo_unbiased_across_seeds(self, base_config):
        # sharper than the single-run bound: the mean over independent
        # seeds must sit within 3 sigma of its own (smaller) error bar
        config = base_config._replace(
            pi_pulse_fidelity=0.95,
            swap_probability=0.7946,
            cycles=10_000,
            drive=base_config.drive._replace(peak_probability=0.8),
        )
        det = config.shifts_S.broadening
        p = protocol.analytic_jump_probability(config, det)
        n_seeds = 10
        rates = []
        for seed in range(n_seeds):
            records = _joined(config._replace(seed=seed), det, 1)
            rates.append(np.count_nonzero(records.declared_jump) / config.cycles)
        mean = sum(rates) / n_seeds
        sigma = math.sqrt(p * (1.0 - p) / config.cycles / n_seeds)
        assert abs(mean - p) <= 3.0 * sigma

    def test_oracle_with_noise_and_residual(self, base_config):
        config = base_config._replace(
            pi_pulse_fidelity=0.9,
            sideband_cooling_residual=0.08,
            swap_probability=0.8,
            detection=base_config.detection._replace(noise_density=15.0),
            cycles=10_000,
        )
        p = protocol.analytic_jump_probability(config, 0.0)
        records = _joined(config, 0.0, 0)
        rate = np.count_nonzero(records.declared_jump) / config.cycles
        sigma = math.sqrt(p * (1.0 - p) / config.cycles)
        assert abs(rate - p) <= 3.0 * sigma

    def test_residual_occupation_creates_false_positives(self, base_config):
        config = base_config._replace(
            sideband_cooling_residual=0.2,
            drive=base_config.drive._replace(peak_probability=0.0),
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
            config = base_config._replace(
                pi_pulse_fidelity=pi_f,
                swap_probability=swap,
                drive=base_config.drive._replace(peak_probability=peak),
            )
            det = rng.uniform(0.0, 2.0) * base_config.shifts_S.broadening
            p0 = protocol.analytic_jump_probability(config, det)
            bump = 1.0 + rng.uniform(0.01, 0.2)
            for field in ("pi_pulse_fidelity", "swap_probability", "peak"):
                if field == "peak":
                    cfg2 = config._replace(
                        drive=config.drive._replace(peak_probability=min(peak * bump, 1.0)),
                    )
                elif field == "pi_pulse_fidelity":
                    cfg2 = config._replace(pi_pulse_fidelity=min(pi_f * bump, 1.0))
                else:
                    cfg2 = config._replace(swap_probability=min(swap * bump, 1.0))
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
        config = base_config._replace(
            pi_pulse_fidelity=p_pi,
            sideband_cooling_residual=residual,
            swap_probability=swap,
            mode=mode,
            detection=detection._replace(
                noise_density=noise
                * base_config.shifts_L.delta
                * math.sqrt(detection.averaging_time),
            ),
            drive=base_config.drive._replace(profile=profile, peak_probability=peak),
        )
        detuning = det * config.shifts_S.broadening
        assert abs(
            protocol.analytic_jump_probability(config, detuning)
            - _tree_jump_probability(config, detuning)
        ) <= 1e-15


class TestLineshape:
    def test_ideal_scan_matches_drive_model(self, base_config):
        config = base_config._replace(cycles=4000)
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
        recs_direct = _joined(base_config, 1.0, 3)
        _joined(base_config, 0.5, 1)
        recs_again = _joined(base_config, 1.0, 3)
        for field in protocol.ProtocolRecords._fields:
            np.testing.assert_array_equal(
                getattr(recs_direct, field), getattr(recs_again, field)
            )

    def test_fitted_width_tracks_broadening(self, base_config):
        # moment fit applied to the exact profile recovers the 1/e width
        config = base_config._replace(cycles=4000)
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
            trap_logic._replace(B2_local=300.0)
        )
        ratio = shifts_legacy.broadening / base_config.shifts_S.broadening
        assert ratio == pytest.approx(300.0 / 4.0, rel=1e-12)

    def test_center_uncertainty_positive(self, base_config):
        shape = protocol.lineshape_scan(base_config._replace(cycles=2000))
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
        noisy = base_config._replace(field_noise=1e-10, cycles=300)
        quiet = base_config._replace(cycles=300)
        on_res_noisy = _joined(noisy, 0.0, 0)
        on_res_quiet = _joined(quiet, 0.0, 0)
        rate_noisy = np.count_nonzero(on_res_noisy.declared_jump) / 300
        rate_quiet = np.count_nonzero(on_res_quiet.declared_jump) / 300
        # the walk (~1e2 rad/s per root-minute) dwarfs the 0.07 rad/s line
        assert rate_noisy < 0.5 * rate_quiet


class TestAnomalyMode:
    def test_readout_shift_arithmetic(self, base_config):
        config = base_config._replace(mode="anomaly")
        delta = config.shifts_L.delta
        expected = delta * (1.0 + 0.5 * G_E * (-1.0))
        assert protocol.readout_chain(config).shift == pytest.approx(expected, rel=1e-12)
        assert protocol.readout_chain(base_config).shift == delta

    def test_machine_runs_in_anomaly_mode(self, base_config):
        config = base_config._replace(mode="anomaly")
        # transfer chain still completes; the tiny negative shift stays
        # below any positive threshold, so no jump is declared
        for cycles in (1, 50, 400):
            rec = _joined(config._replace(cycles=cycles), 0.0)
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
        config = base_config._replace(
            detection=base_config.detection._replace(noise_density=0.798),
        )
        tb = protocol.timing_budget(config)
        # model-dependent; required to land within a factor of two of 20
        assert 10.0 <= tb.detection_speedup <= 40.0


class TestValidationAndExport:
    def test_threshold_must_sit_below_delta(self, base_config):
        with pytest.raises(ValueError):
            base_config._replace(
                detection=base_config.detection._replace(
                    threshold=2.0 * base_config.shifts_L.delta,
                ),
            )
        with pytest.raises(ValueError):
            base_config._replace(pi_pulse_fidelity=1.5)
        with pytest.raises(ValueError):
            base_config._replace(cycles=0)
        with pytest.raises(ValueError):
            base_config._replace(mode="spin")

    def test_records_csv_round_trip_stable(self, base_config):
        records = _joined(base_config, 0.0, 0)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            protocol.write_records_csv([records], buf)
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


def _jump_shift(config):
    """The logic-trap shift of a completed jump: delta_L, times 1 - g/2 in
    anomaly mode, where the spin flips with the cyclotron quantum."""
    delta = config.shifts_L.delta
    return delta * (1.0 - 0.5 * G_E) if config.mode == "anomaly" else delta


def _tree_jump_probability(config, detuning, swap_probability=None):
    """Declared-jump probability by enumerating the stage Bernoulli tree,
    branch by branch: the oracle for the closed form."""
    p_swap = (
        swap_probability
        if swap_probability is not None
        else protocol.resolve_swap_probability(config)
    )
    residual = config.sideband_cooling_residual
    p_res = residual / (1.0 + residual)
    p_pi = config.pi_pulse_fidelity
    p_exc = float(
        protocol.drive_probability(config.drive, config.shifts_S.broadening, detuning)
    )
    shift = _jump_shift(config)
    sigma = config.detection.sigma
    threshold = config.detection.threshold

    def detected(true_shift):
        # P(true_shift + sigma * N(0, 1) >= threshold)
        if sigma == 0.0:
            return float(true_shift >= threshold)
        return NormalDist(threshold, sigma).cdf(true_shift)

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
                            p_declared += weight * detected(shift * n_c_l)
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
    measured = _jump_shift(config) * transfer_l + config.detection.sigma * noise
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


def _row_template_writer(blocks, stream) -> int:
    """The record writer before the flag texts: the bool columns as 0/1
    ints and one eight-value %-template a row, RECORDS_CHUNK rows a write."""
    stream.write(
        "cycle,n_c_after_drive,transfer_s_ok,exchange_ok,transfer_l_ok,"
        "measured_shift_rad_per_s,declared_jump,wall_time_s\n"
    )
    row = "%d,%d,%d,%d,%d,%r,%d,%r\n".__mod__
    jumps = 0
    for records in blocks:
        columns = (
            records.cycle,
            records.n_c_after_drive,
            records.transfer_s_ok.view(np.uint8),
            records.exchange_ok.view(np.uint8),
            records.transfer_l_ok.view(np.uint8),
            records.measured_shift,
            records.declared_jump.view(np.uint8),
            records.wall_time,
        )
        jumps += int(np.count_nonzero(records.declared_jump))
        for lo in range(0, len(records.cycle), protocol.RECORDS_CHUNK):
            rows = zip(*(c[lo : lo + protocol.RECORDS_CHUNK].tolist() for c in columns))
            stream.write("".join(map(row, rows)))
    return jumps


def _around(x: float) -> list[float]:
    """x and its two float neighbours."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# floats whose text is easy to get wrong: signed zeros, subnormals, the
# ends of the range, the switches to exponent form, where the writer also
# switches between orjson's text and repr
_EDGE_FLOATS = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, 1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05,
     math.inf, -math.inf, math.nan, 1e-5]
    + [y for x in (1e-4, -1e-4, 1e16, -1e16) for y in _around(x)]
)


def _flag_table(rows: int, order: int, shifts: list, times: list, block: int | None):
    """Record blocks of a table whose five flags take each of their 32
    combinations equally often (up to one), in a shuffled order, with the
    given floats repeated down the two float columns."""
    code = np.random.default_rng(order).permutation(np.arange(rows) % 32)
    bits = [(code >> k & 1).astype(bool) for k in (4, 3, 2, 1, 0)]
    measured = np.resize(np.array(shifts, dtype=float), rows)
    wall = np.resize(np.array(times, dtype=float), rows)
    step = block or rows
    return [
        protocol.ProtocolRecords(
            cycle=np.arange(lo, min(lo + step, rows)),
            n_c_after_drive=bits[0][lo : lo + step].astype(int),
            transfer_s_ok=bits[1][lo : lo + step],
            exchange_ok=bits[2][lo : lo + step],
            transfer_l_ok=bits[3][lo : lo + step],
            measured_shift=measured[lo : lo + step],
            declared_jump=bits[4][lo : lo + step],
            wall_time=wall[lo : lo + step],
        )
        for lo in range(0, rows, step)
    ]


# points on both sides of the one-block edge, the last one with a ragged
# tail of RECORDS_CHUNK blocks
_LAYOUT_CYCLES = [
    protocol.ONE_BLOCK - 1,
    protocol.ONE_BLOCK,
    protocol.ONE_BLOCK + 1,
    protocol.ONE_BLOCK + 3 * protocol.RECORDS_CHUNK + 7,
]


def _traced_peak(write, *args):
    """Characters `write(*args, sink)` wrote and its tracemalloc peak."""
    sink = CountingSink()
    tracemalloc.start()
    try:
        write(*args, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return sink.chars, peak


class TestRecordStream:
    """The kernel draws row by row, one block for a point of at most
    ONE_BLOCK cycles and RECORDS_CHUNK-cycle blocks past it; the writer
    formats fixed row chunks."""

    @pytest.fixture()
    def noisy_config(self, base_config):
        return base_config._replace(
            pi_pulse_fidelity=0.9,
            sideband_cooling_residual=0.1,
            detection=base_config.detection._replace(noise_density=20.0),
            swap_probability=0.7,
            cycles=5000,
        )

    @pytest.mark.parametrize("field_noise", [0.0, 1e-9])
    def test_kernel_matches_block_draws(self, noisy_config, field_noise):
        width = noisy_config.shifts_S.broadening
        for cycles in _LAYOUT_CYCLES:
            config = noisy_config._replace(field_noise=field_noise, cycles=cycles)
            for k, detuning in enumerate((0.0, 0.5 * width, 3.0 * width)):
                records = _joined(config, detuning, k)
                expected = _block_kernel(config, detuning, k)
                for f in protocol.ProtocolRecords._fields:
                    column = getattr(records, f)
                    np.testing.assert_array_equal(column, expected[f], err_msg=f)
                    assert column.dtype == expected[f].dtype, f
        if field_noise:
            # the walk moves the line: the drift stage is really exercised
            noisy = noisy_config._replace(field_noise=field_noise)
            assert not np.array_equal(
                _joined(noisy_config, 0.0, 0).n_c_after_drive,
                _joined(noisy, 0.0, 0).n_c_after_drive,
            )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        point_index=st.integers(0, 50),
        det=st.floats(-1.0, 5.0),
        # a walk of a few line widths over the table, so the drive's
        # outcome still depends on where the walk stands at a block's start
        field_noise=st.sampled_from([0.0, 1e-13, 1e-12]),
        cycles=st.sampled_from([1, *_LAYOUT_CYCLES]),
    )
    def test_blocks_join_into_the_one_block_table(
        self, base_config, seed, point_index, det, field_noise, cycles
    ):
        config = base_config._replace(
            pi_pulse_fidelity=0.9,
            sideband_cooling_residual=0.1,
            detection=base_config.detection._replace(noise_density=20.0),
            swap_probability=0.7,
            field_noise=field_noise,
            cycles=cycles,
            seed=seed,
        )
        detuning = det * config.shifts_S.broadening
        whole = _block_kernel(config, detuning, point_index)
        blocks = list(protocol.record_blocks(config, detuning, point_index))
        block = cycles if cycles <= protocol.ONE_BLOCK else protocol.RECORDS_CHUNK
        assert [len(b.cycle) for b in blocks] == [
            min(block, cycles - lo) for lo in range(0, cycles, block)
        ]
        for f in protocol.ProtocolRecords._fields:
            joined = np.concatenate([getattr(b, f) for b in blocks])
            assert joined.dtype == whole[f].dtype, f
            assert joined.tobytes() == whole[f].tobytes(), f  # bit for bit

    @pytest.mark.parametrize("cycles", [protocol.ONE_BLOCK, protocol.ONE_BLOCK + 1])
    def test_lineshape_counts_the_one_block_table(self, noisy_config, cycles):
        config = noisy_config._replace(
            field_noise=1e-12,
            cycles=cycles,
            drive=noisy_config.drive._replace(detunings=noisy_config.drive.detunings[:3]),
        )
        shape = protocol.lineshape_scan(config)
        for k, detuning in enumerate(config.drive.detunings):
            jumps = np.count_nonzero(_block_kernel(config, detuning, k)["declared_jump"])
            assert shape.fractions[k] == jumps / cycles

    def test_set_up_fails_before_any_block(self, noisy_config, monkeypatch):
        def failing(config):
            raise ArithmeticError("swap probability")

        monkeypatch.setattr(protocol, "resolve_swap_probability", failing)
        with pytest.raises(ArithmeticError):
            protocol.record_blocks(noisy_config, 0.0)  # not iterated

    @pytest.mark.parametrize(
        "cycles",
        [
            1,
            # the edges of the writer's row chunks, and a point past ONE_BLOCK
            protocol.RECORDS_CHUNK - 1,
            protocol.RECORDS_CHUNK,
            protocol.RECORDS_CHUNK + 1,
            4 * protocol.RECORDS_CHUNK - 1,
            4 * protocol.RECORDS_CHUNK,
            4 * protocol.RECORDS_CHUNK + 1,
            12 * protocol.RECORDS_CHUNK + 7,
            # the longest table whose floats `repr` formats, and the shortest orjson does
            protocol.ONE_BLOCK,
            protocol.ONE_BLOCK + 1,
        ],
    )
    def test_chunked_writer_matches_row_template(self, noisy_config, cycles):
        config = noisy_config._replace(cycles=cycles)
        records = _joined(config, 0.0, 2)
        reference = _reference_records_csv(records)
        for rows in (cycles, None):  # the formatter the length picks, and the bulk one
            for blocks in ([records], protocol.record_blocks(config, 0.0, 2)):
                buf = io.StringIO()
                jumps = protocol.write_records_csv(blocks, buf, rows=rows)
                assert buf.getvalue() == reference
                assert jumps == np.count_nonzero(records.declared_jump)
        assert reference.count("\n") == cycles + 1

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 3 * protocol.RECORDS_CHUNK + 40),
        order=st.integers(0, 2**32 - 1),
        shifts=st.lists(_EDGE_FLOATS | st.floats(), min_size=1, max_size=40),
        times=st.lists(_EDGE_FLOATS | st.floats(), min_size=1, max_size=40),
        block=st.sampled_from(
            [1, protocol.RECORDS_CHUNK, protocol.RECORDS_CHUNK + 1, None]  # None: whole
        ),
    )
    @example(rows=32, order=0, shifts=[-0.0], times=[5e-324], block=1)
    @example(
        rows=2 * protocol.RECORDS_CHUNK + 1, order=1, shifts=[1.7976931348623157e308],
        times=[-0.0, 1e-300], block=None,
    )
    def test_writer_matches_row_template_oracle(self, rows, order, shifts, times, block):
        blocks = _flag_table(rows, order, shifts, times, block)
        expected, got = io.StringIO(), io.StringIO()
        jumps = _row_template_writer(blocks, expected)
        assert protocol.write_records_csv(blocks, got) == jumps
        assert got.getvalue() == expected.getvalue()  # byte for byte
        if rows >= 32:  # every flag combination went through
            combos = {
                tuple(f[1:5]) + (f[6],)
                for f in (line.split(",") for line in got.getvalue().splitlines()[1:])
            }
            assert len(combos) == 32

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(_EDGE_FLOATS | st.floats(), max_size=50)
        | st.lists(st.integers(0, 2**64 - 1), max_size=50).map(
            lambda bits: np.array(bits, dtype=np.uint64).view(np.float64)
        ),
    )
    def test_float_texts_are_repr(self, values):
        x = np.array(values, dtype=np.float64)
        assert protocol._float_texts(x) == list(map(repr, x.tolist()))
        assert protocol._float_texts(x[::2]) == list(map(repr, x[::2].tolist()))  # strided

    def test_writer_memory_does_not_grow_with_the_table(self, noisy_config):
        # one table-sized block: the writer still formats fixed row chunks
        records = _joined(noisy_config._replace(cycles=100_000), 0.0, 0)
        chars, peak = _traced_peak(protocol.write_records_csv, [records])
        assert chars > 5_000_000  # the whole table went through
        assert peak < 4_000_000, f"writer peaked at {peak / 1e6:.1f} MB"

        # the streamed kernel and the writer together hold one block
        def stream(cycles, sink):
            config = noisy_config._replace(cycles=cycles)
            protocol.write_records_csv(protocol.record_blocks(config, 0.0, 0), sink)

        stream(2_000, CountingSink())  # first-call allocations are not the table's
        small_chars, small = _traced_peak(stream, 2_000)
        large_chars, large = _traced_peak(stream, 200_000)
        assert large_chars > 50 * small_chars > 0  # both tables went through
        assert large - small < 1_000_000, (
            f"streamed peak {large / 1e6:.2f} MB at 200,000 cycles vs "
            f"{small / 1e6:.2f} MB at 2,000"
        )

    def test_lineshape_memory_does_not_grow_with_the_cycles(self, noisy_config):
        drive = noisy_config.drive._replace(detunings=noisy_config.drive.detunings[:2])
        config = noisy_config._replace(field_noise=1e-12, cycles=200_000, drive=drive)
        protocol.lineshape_scan(config._replace(cycles=2_000))  # first-call allocations
        _, peak = _traced_peak(lambda sink: protocol.lineshape_scan(config))
        # one point's record table alone is 7.2 MB, 36 bytes a cycle
        assert peak < 1_000_000, f"lineshape peaked at {peak / 1e6:.2f} MB"
