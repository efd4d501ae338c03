import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from wireqls import cli
from wireqls import config as cfg

from conftest import assert_rel


@pytest.fixture()
def electron_raw() -> dict:
    return copy.deepcopy(cfg.load_config("paper-electron").raw)


def write_scenario(tmp_path, raw, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBudgetCommand:
    def test_paper_electron_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "budget", "--config", "paper-electron", "--format", "records"
        )
        assert code == 0
        report = json.loads(out)
        assert_rel(report["t_ex_s"], 0.160, 0.05)
        assert_rel(report["figure"], 0.098, 0.05)
        assert report["feasible"] is True

    def test_paper_proton_warns(self, capsys):
        code, out, _ = run_cli(capsys, "budget", "--config", "paper-proton")
        assert code == 0
        assert "WARNING" in out
        code, out, _ = run_cli(
            capsys, "budget", "--config", "paper-proton", "--format", "records"
        )
        report = json.loads(out)
        assert report["n_bar"] >= 100.0
        assert report["feasible"] is False

    def test_missing_key_exit_code_and_path(self, capsys, tmp_path, electron_raw):
        del electron_raw["resonator"]["C_p_farad"]
        path = write_scenario(tmp_path, electron_raw)
        code, _, err = run_cli(capsys, "budget", "--config", path)
        assert code == 2
        assert "resonator.C_p_farad" in err

    def test_unknown_key_exit_code(self, capsys, tmp_path, electron_raw):
        electron_raw["gain"] = 2.0
        path = write_scenario(tmp_path, electron_raw)
        code, _, err = run_cli(capsys, "budget", "--config", path)
        assert code == 2
        assert "gain" in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_number_exit_code_and_path(
        self, capsys, tmp_path, electron_raw, value
    ):
        electron_raw["resonator"]["R_p_ohm"] = value
        path = write_scenario(tmp_path, electron_raw)
        code, out, err = run_cli(capsys, "budget", "--config", path)
        assert code == 2
        assert out == ""
        assert "resonator.R_p_ohm" in err and "finite" in err

    @pytest.mark.parametrize(
        "key, value", [("d_eff_m", 1.0e-300), ("axial_frequency_hz", 1.0e300)]
    )
    def test_arithmetic_error_is_one_line(
        self, capsys, tmp_path, electron_raw, key, value
    ):
        # division by zero and float overflow inside the budget
        electron_raw["traps"]["logic"][key] = value
        path = write_scenario(tmp_path, electron_raw)
        for command in ("budget", "protocol"):
            code, out, err = run_cli(capsys, command, "--config", path)
            assert code == 1
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_output_directory(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "budget", "--config", "paper-electron", "--out", str(tmp_path / "o")
        )
        assert code == 0
        assert out == ""
        assert (tmp_path / "o" / "budget.txt").exists()


class TestFieldCommand:
    def test_marked_rows_and_goldens(self, capsys):
        code, out, _ = run_cli(capsys, "field", "--config", "paper-electron")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "z_m,B_T,B1_T_per_m,B2_T_per_m2,site"
        logic_rows = [l for l in lines if l.endswith(",logic")]
        spec_rows = [l for l in lines if l.endswith(",spectroscopy")]
        assert len(logic_rows) == 1 and len(spec_rows) == 1
        logic = logic_rows[0].split(",")
        assert float(logic[2]) == 0.0  # B1 at the ring center
        assert float(logic[3]) == pytest.approx(9000.0, rel=1e-9)  # calibrated
        spec = spec_rows[0].split(",")
        assert 2.0 <= float(spec[3]) <= 8.0
        assert "# fd_agreement_ok = 1" in lines
        worst = [l for l in lines if l.startswith("# fd_agreement_max_rel_err")]
        assert len(worst) == 1 and float(worst[0].split("=")[1]) <= 1e-6

    def test_fd_check_ignores_gradient_zeros(self, capsys, tmp_path, electron_raw):
        # a spot-check point lands where B2 ~ 0.005 T/m^2 against a peak of
        # ~9356 T/m^2; a point-wise relative error would read 1.2e-4 there
        electron_raw["magnet"].update(
            {"inner_radius_m": 5.14887e-3, "outer_radius_m": 1.50374e-2,
             "height_m": 9.83524e-3}
        )
        electron_raw["magnet"]["profile"]["samples"] = 1447
        path = write_scenario(tmp_path, electron_raw)
        code, out, _ = run_cli(capsys, "field", "--config", path)
        assert code == 0
        lines = out.splitlines()
        assert "# fd_agreement_ok = 1" in lines
        worst = [l for l in lines if l.startswith("# fd_agreement_max_rel_err")]
        assert float(worst[0].split("=")[1]) <= 1e-6

    def test_field_needs_magnet_block(self, capsys):
        code, _, err = run_cli(capsys, "field", "--config", "paper-proton")
        assert code == 2
        assert "magnet" in err


class TestLineshapeAndProtocolCommands:
    def test_lineshape_deterministic(self, capsys, tmp_path, electron_raw):
        electron_raw["protocol"]["cycles"] = 60
        path = write_scenario(tmp_path, electron_raw)
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "lineshape", "--config", path)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]  # byte-identical rerun
        assert outputs[0].splitlines()[0].startswith("detuning_rad_per_s,")
        assert "# fitted_width_rad_per_s" in outputs[0]

    def test_seed_changes_output(self, capsys, tmp_path, electron_raw):
        electron_raw["protocol"]["cycles"] = 60
        path = write_scenario(tmp_path, electron_raw)
        _, out_a, _ = run_cli(capsys, "lineshape", "--config", path, "--seed", "1")
        _, out_b, _ = run_cli(capsys, "lineshape", "--config", path, "--seed", "2")
        assert out_a != out_b

    def test_fitted_width_near_drive_width(self, capsys, tmp_path, electron_raw):
        # ideal stages: the fitted width lands on the configured broadening
        electron_raw["protocol"].update(
            {
                "cycles": 3000,
                "pi_pulse_fidelity": 1.0,
                "sideband_cooling_residual": 0.0,
            }
        )
        electron_raw["protocol"]["detection"]["noise_density_hz_per_sqrt_hz"] = 0.0
        electron_raw["protocol"]["drive"]["peak_probability"] = 1.0
        path = write_scenario(tmp_path, electron_raw)
        code, out, _ = run_cli(capsys, "lineshape", "--config", path)
        assert code == 0
        width = None
        for line in out.splitlines():
            if line.startswith("# fitted_width_rad_per_s"):
                width = float(line.split("=")[1])
        from wireqls import spectroscopy

        rc = cfg.load_config(path)
        expected = spectroscopy.shift_set_for_trap(rc.trap_spectroscopy).broadening
        assert_rel(width, expected, 0.15)

    def test_width_ratio_across_gradient_scenarios(self, capsys, tmp_path, electron_raw):
        # spectroscopy-trap scenario (4 T/m^2) vs a legacy-size 300 T/m^2
        # bottle: fitted widths differ by the gradient ratio
        widths = {}
        for b2, grid_span_hz, seed in ((4.0, 0.08, 1), (300.0, 6.0, 2)):
            raw = copy.deepcopy(electron_raw)
            raw["traps"]["spectroscopy"]["b2_tesla_per_m2"] = b2
            raw["protocol"].update(
                {
                    "cycles": 1500,
                    "pi_pulse_fidelity": 1.0,
                    "sideband_cooling_residual": 0.0,
                }
            )
            raw["protocol"]["drive"]["peak_probability"] = 1.0
            raw["protocol"]["drive"]["grid"] = {
                "start_hz": -grid_span_hz / 8.0,
                "stop_hz": grid_span_hz,
                "points": 31,
            }
            raw["seed"] = seed
            path = write_scenario(tmp_path, raw, name=f"b2-{b2}.yaml")
            code, out, _ = run_cli(capsys, "lineshape", "--config", path)
            assert code == 0
            for line in out.splitlines():
                if line.startswith("# fitted_width_rad_per_s"):
                    widths[b2] = float(line.split("=")[1])
        assert widths[300.0] / widths[4.0] == pytest.approx(75.0, rel=0.10)

    def test_protocol_records(self, capsys, tmp_path, electron_raw):
        electron_raw["protocol"]["cycles"] = 40
        path = write_scenario(tmp_path, electron_raw)
        code, out, _ = run_cli(capsys, "protocol", "--config", path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("cycle,")
        assert len([l for l in lines if not l.startswith(("cycle", "#"))]) == 40
        assert lines[-1].startswith("# jump_rate = ")
        # rerun is byte-identical
        code, again, _ = run_cli(capsys, "protocol", "--config", path)
        assert out == again

    def test_every_output_value_parses_as_float(self, capsys, tmp_path, electron_raw):
        # numpy scalars must not leak their repr, e.g. np.float64(0.65)
        electron_raw["protocol"]["cycles"] = 30
        path = write_scenario(tmp_path, electron_raw)
        for command in ("lineshape", "protocol"):
            code, out, _ = run_cli(capsys, command, "--config", path)
            assert code == 0
            lines = out.splitlines()
            for line in lines[1:]:
                if line.startswith("# "):
                    key, value = line[2:].split(" = ")
                    assert key.isidentifier()
                    float(value)
                else:
                    for value in line.split(","):
                        float(value)
            assert any(line.startswith("# ") for line in lines)

    def test_protocol_near_feasibility_edge(self, capsys, tmp_path, electron_raw):
        # figure 0.975 is feasible; the swap probability must not need a
        # Fock truncation that such a hot exchange overflows
        electron_raw["resonator"]["detune_linewidths"] = 3
        path = write_scenario(tmp_path, electron_raw)
        code, out, _ = run_cli(capsys, "budget", "--config", path, "--format", "records")
        report = json.loads(out)
        assert_rel(report["figure"], 0.975, 0.01)
        assert report["feasible"] is True
        code, out, err = run_cli(capsys, "protocol", "--config", path)
        assert code == 0, err
        assert out.splitlines()[-1].startswith("# jump_rate = ")


def test_cli_import_does_not_load_scipy():
    # scipy serves only the Fock-space oracle; every command skips it
    src = str(Path(cfg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, wireqls.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.strip() == "False"


class TestSweepCommand:
    def test_detuning_sweep_monotone(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--config", "paper-electron",
            "--axis", "resonator.detune_linewidths", "--range", "5:100:8",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("resonator.detune_linewidths,")
        figures = [float(l.split(",")[5]) for l in lines[1:]]
        assert all(a > b for a, b in zip(figures, figures[1:]))

    def test_temperature_sweep_matches_bose(self, capsys):
        from conftest import OMEGA_Z, bose

        code, out, _ = run_cli(
            capsys, "sweep", "--config", "paper-electron",
            "--axis", "environment.temperature_k", "--range", "0.005:0.05:4",
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            cols = line.split(",")
            assert float(cols[4]) == pytest.approx(
                bose(OMEGA_Z, float(cols[0])), rel=1e-9
            )

    def test_resistance_sweep_eases_figure(self, capsys, tmp_path, electron_raw):
        # improving R_p at a fixed absolute resonator placement relaxes the
        # feasibility figure (at fixed detuning-in-linewidths it cancels)
        del electron_raw["resonator"]["detune_linewidths"]
        electron_raw["resonator"]["detune_hz"] = 954929.66
        path = write_scenario(tmp_path, electron_raw)
        code, out, _ = run_cli(
            capsys, "sweep", "--config", path,
            "--axis", "resonator.R_p_ohm", "--range", "2.5e5:2.0e6:4",
        )
        assert code == 0
        figures = [float(l.split(",")[5]) for l in out.splitlines()[1:]]
        assert all(a > b for a, b in zip(figures, figures[1:]))
        assert figures[0] / figures[-1] == pytest.approx(8.0, rel=0.1)

    def test_temperature_sweep_below_exp_overflow(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--config", "paper-electron",
            "--axis", "environment.temperature_k", "--range", "0.00001:0.01:3",
        )
        assert code == 0
        assert float(out.splitlines()[1].split(",")[4]) == 0.0

    @pytest.mark.parametrize("axis", ["magnet.profile.samples", "protocol.cycles"])
    def test_integer_leaf_sweep(self, capsys, axis):
        code, out, err = run_cli(
            capsys, "sweep", "--config", "paper-electron",
            "--axis", axis, "--range", "100:200:2",
        )
        assert code == 0, err
        assert [l.split(",")[0] for l in out.splitlines()[1:]] == ["100.0", "200.0"]
        # a non-integral value on an integer leaf stays a schema error
        code, _, err = run_cli(
            capsys, "sweep", "--config", "paper-electron",
            "--axis", axis, "--range", "100:101:3",
        )
        assert code == 2
        assert axis in err and "integer" in err

    def test_non_numeric_axis_schema_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--config", "paper-electron",
            "--axis", "particle", "--range", "1:2:2",
        )
        assert code == 2
        assert "numeric" in err

    def test_bad_range_spec(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--config", "paper-electron",
            "--axis", "resonator.R_p_ohm", "--range", "oops",
        )
        assert code == 2
        assert "start:stop:points" in err
