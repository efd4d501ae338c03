import ast
import atexit
import contextlib
import copy
import functools
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import types
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wireqls import cli, magnetics
from wireqls import config as cfg

from conftest import CountingSink, assert_rel, package_env


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


def run_python(code: str) -> str:
    """Stripped stdout of `code` run in a fresh interpreter on this package."""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=package_env(), check=True,
    )
    return result.stdout.strip()


def set_key(raw: dict, dotted: str, value) -> None:
    *parents, leaf = dotted.split(".")
    node = raw
    for key in parents:
        node = node[key]
    node[leaf] = value


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
        # a series inductance that underflows to zero, which the trap model
        # rejects, and a float overflow in the resonator placement, which
        # names the axial frequency; both traps take the value, as they must
        # share one axial frequency
        status, start = {"d_eff_m": (2, "config error: traps.logic: d_eff puts "),
                         "axial_frequency_hz": (
            2, "config error: traps.logic.axial_frequency_hz: omega_z puts ")}[key]
        for trap in ("logic", "spectroscopy"):
            electron_raw["traps"][trap][key] = value
        path = write_scenario(tmp_path, electron_raw)
        for command in ("budget", "protocol"):
            code, out, err = run_cli(capsys, command, "--config", path)
            assert code == status
            assert out == ""
            assert err.startswith(start) and err.count("\n") == 1

    @pytest.mark.parametrize("trap", ["logic", "spectroscopy"])
    @pytest.mark.parametrize("d_eff", [1.0e200, 1.0e-170, 1.0e-200])
    def test_trap_size_outside_the_inductance_range_names_its_trap(
        self, capsys, tmp_path, electron_raw, trap, d_eff
    ):
        # l = m (2 d_eff / q)^2 overflows, which read as an errno tuple, or
        # underflows to zero, which read as a division by zero
        electron_raw["traps"][trap]["d_eff_m"] = d_eff
        path = write_scenario(tmp_path, electron_raw)
        for command in ("budget", "lineshape", "protocol"):
            code, out, err = run_cli(capsys, command, "--config", path)
            assert code == 2 and out == ""
            assert err.startswith(f"config error: traps.{trap}: d_eff puts ")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["budget", "field"])
    @pytest.mark.parametrize("axial, c_p, key", [
        (1.0e160, None, "traps.logic.axial_frequency_hz"),
        (1.0e150, 1.0e10, "resonator.C_p_farad"),
    ])
    def test_resonator_placement_overflow_names_its_leaf(
        self, capsys, tmp_path, electron_raw, command, axial, c_p, key
    ):
        # omega_res**2 overflowed (exit 1 with an errno tuple), or with a
        # large C_p L_p read 0 and the detuning took the blame
        for trap in ("logic", "spectroscopy"):
            electron_raw["traps"][trap]["axial_frequency_hz"] = axial
        if c_p is not None:
            electron_raw["resonator"]["C_p_farad"] = c_p
        path = write_scenario(tmp_path, electron_raw)
        code, out, err = run_cli(capsys, command, "--config", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: {key}: ") and err.count("\n") == 1
        assert "beyond the float range" in err

    @pytest.mark.parametrize(
        "dotted, value",
        [
            ("traps.logic.d_eff_m", 0.0),
            ("traps.logic.axial_frequency_hz", 0.0),
            ("traps.logic.axial_frequency_hz", 1.0e308),  # overflows to inf rad/s
            ("traps.logic.temperature_k", -1.0),
            ("traps.logic.field_tesla", -1.0),
            ("magnet.inner_radius_m", 0.0),
            ("magnet.height_m", 0.0),
        ],
    )
    def test_model_range_exits_2_with_block_path(
        self, capsys, tmp_path, electron_raw, dotted, value
    ):
        # the trap and ring models own these ranges; the parser adds the path
        set_key(electron_raw, dotted, value)
        path = write_scenario(tmp_path, electron_raw)
        code, out, err = run_cli(capsys, "budget", "--config", path)
        assert code == 2
        assert out == ""
        block = dotted.rsplit(".", 1)[0]
        assert err.startswith(f"config error: {block}: ") and err.count("\n") == 1

    def test_temperature_where_kt_underflows(self, capsys, tmp_path, electron_raw):
        electron_raw["environment"]["temperature_k"] = 1.0e-320
        path = write_scenario(tmp_path, electron_raw)
        code, out, err = run_cli(capsys, "budget", "--config", path)
        assert code == 0, err
        assert "n_bar: 0.0\n" in out

    @pytest.mark.parametrize("command", ["budget", "lineshape", "protocol"])
    def test_overflowing_occupation_is_schema_error(
        self, capsys, tmp_path, electron_raw, command
    ):
        # k_B T / (hbar omega_z) past the float range: n_bar would be inf
        electron_raw["environment"]["temperature_k"] = 1.7e308
        path = write_scenario(tmp_path, electron_raw)
        code, out, err = run_cli(capsys, command, "--config", path)
        assert code == 2
        assert out == ""
        assert err == "config error: environment.temperature_k: thermal occupation overflows\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["budget"],
            ["budget", "--format", "records"],
            ["sweep", "--axis", "resonator.R_p_ohm", "--range", "5e5:6e5:2"],
            ["lineshape"],
            ["protocol"],
        ],
        ids=["budget", "records", "sweep", "lineshape", "protocol"],
    )
    @pytest.mark.parametrize("temperature, detune", [(1.0e305, 0.01), (1.0e300, 1.0e-6)])
    def test_overflowing_figure_is_schema_error(
        self, capsys, tmp_path, electron_raw, argv, temperature, detune
    ):
        # n_bar is finite, but t_ex * n_bar * Gamma would print as inf, and as
        # Infinity, which is not JSON, in the records
        electron_raw["environment"]["temperature_k"] = temperature
        electron_raw["resonator"]["detune_linewidths"] = detune
        path = write_scenario(tmp_path, electron_raw)
        code, out, err = run_cli(capsys, argv[0], "--config", path, *argv[1:])
        assert code == 2
        assert out == ""
        assert err == "config error: environment.temperature_k: budget figure overflows\n"

    @pytest.mark.parametrize("text", ["scenario: [unclosed\n", "seed: 1\x00\n"])
    def test_malformed_yaml_is_one_line(self, capsys, tmp_path, text):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        code, out, err = run_cli(capsys, "budget", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("config error: <root>: invalid YAML") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "after, extra, key, column",
        [
            (None, "seed: 5\n", "seed", 1),
            (None, "resonator:\n  C_p_farad: 1.0e-11\n", "resonator", 1),
            ("    temperature_k: 0.01\n", "    d_eff_m: 0.002\n", "d_eff_m", 5),
        ],
        ids=["top-level", "block", "nested"],
    )
    def test_duplicate_key_is_one_line(
        self, capsys, tmp_path, electron_raw, after, extra, key, column
    ):
        text = yaml.safe_dump(electron_raw)
        at = len(text) if after is None else text.index(after) + len(after)
        path = tmp_path / "dup.yaml"
        path.write_text(text[:at] + extra + text[at:])
        line = text[:at].count("\n") + 1
        code, out, err = run_cli(capsys, "budget", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err == (
            f"config error: <root>: invalid YAML: found duplicate key {key!r}"
            f" at line {line}, column {column}\n"
        )

    def test_merge_key_may_be_set_again(self, capsys, tmp_path):
        # the spectroscopy trap merges the logic trap and overrides two keys
        text = (Path(cfg.__file__).parent / "scenarios" / "paper-electron.yaml").read_text()
        head, rest = text.split("  spectroscopy:\n", 1)
        tail = rest[rest.index("magnet:"):]
        merged = head.replace("  logic:\n", "  logic: &logic\n") + (
            "  spectroscopy:\n    <<: *logic\n    d_eff_m: 3.0e-3\n    b2_tesla_per_m2: 4.0\n"
        ) + tail
        path = tmp_path / "merged.yaml"
        path.write_text(merged)
        assert run_cli(capsys, "budget", "--config", str(path)) == run_cli(
            capsys, "budget", "--config", "paper-electron"
        )

    def test_cycles_bounded(self, capsys, tmp_path, electron_raw):
        electron_raw["protocol"]["cycles"] = 1000001
        path = write_scenario(tmp_path, electron_raw)
        code, out, err = run_cli(capsys, "budget", "--config", path)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: protocol.cycles: ") and err.count("\n") == 1

    def test_axial_frequency_mismatch_is_schema_error(self, capsys, tmp_path, electron_raw):
        traps = electron_raw["traps"]
        # within the budget's own tolerance the traps count as tuned alike
        traps["spectroscopy"]["axial_frequency_hz"] *= 1.0 + 1e-13
        cfg.parse_config(electron_raw)
        traps["spectroscopy"]["axial_frequency_hz"] = 2.0000001e8
        path = write_scenario(tmp_path, electron_raw)
        for command in ("budget", "protocol"):
            code, out, err = run_cli(capsys, command, "--config", path)
            assert code == 2
            assert out == ""
            assert err.startswith(
                "config error: traps.spectroscopy.axial_frequency_hz: "
            ) and err.count("\n") == 1

    def test_total_cycles_bounded(self, capsys, tmp_path, electron_raw):
        protocol = electron_raw["protocol"]
        protocol["cycles"] = cfg.MAX_CYCLES
        protocol["drive"]["grid"]["points"] = cfg.MAX_TOTAL_CYCLES // cfg.MAX_CYCLES
        cfg.parse_config(electron_raw)  # the cap itself is accepted
        protocol["drive"]["grid"]["points"] += 1
        path = write_scenario(tmp_path, electron_raw)
        code, out, err = run_cli(capsys, "budget", "--config", path)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: protocol.cycles: ") and err.count("\n") == 1

    @pytest.mark.parametrize("dotted", ["protocol.drive.grid.points", "magnet.profile.samples"])
    def test_grid_size_bounded(self, capsys, tmp_path, electron_raw, dotted):
        set_key(electron_raw, dotted, cfg.MAX_GRID)
        cfg.parse_config(electron_raw)  # the cap itself is accepted
        set_key(electron_raw, dotted, cfg.MAX_GRID + 1)
        path = write_scenario(tmp_path, electron_raw)
        code, out, err = run_cli(capsys, "budget", "--config", path)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: {dotted}: ") and err.count("\n") == 1

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

    @pytest.mark.parametrize(
        "site, marked",
        [
            (0.0, {"0.0": "logic+spectroscopy"}),
            (1.0e-17, {"0.0": "logic+spectroscopy", "1e-17": "logic+spectroscopy"}),
            (0.05, {"0.0": "logic", "0.05": "spectroscopy"}),
        ],
    )
    def test_sites_at_one_position_keep_both_labels(
        self, capsys, tmp_path, electron_raw, site, marked
    ):
        electron_raw["magnet"]["profile"]["spectroscopy_site_m"] = site
        path = write_scenario(tmp_path, electron_raw)
        code, out, _ = run_cli(capsys, "field", "--config", path)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:] if line[0] != "#"]
        assert {row[0]: row[4] for row in rows if row[4]} == marked

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

    @pytest.mark.parametrize("dotted", ["magnet.height_m", "magnet.profile.z_max_m"])
    def test_overflowing_geometry_is_one_line(self, capsys, tmp_path, electron_raw, dotted):
        set_key(electron_raw, dotted, 1.0e300)
        path = write_scenario(tmp_path, electron_raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "field", "--config", path)
        assert code in (1, 2)
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "key", ["z_min_m", "z_max_m", "logic_site_m", "spectroscopy_site_m"]
    )
    def test_profile_extent_bounded(self, capsys, tmp_path, electron_raw, key):
        dotted = f"magnet.profile.{key}"
        sign = -1.0 if key == "z_min_m" else 1.0
        set_key(electron_raw, dotted, sign * cfg.MAX_PROFILE_M)
        cfg.parse_config(electron_raw)  # the bound itself is accepted
        set_key(electron_raw, dotted, sign * 1.0e300)
        path = write_scenario(tmp_path, electron_raw)
        code, out, err = run_cli(capsys, "field", "--config", path)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: {dotted}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["inner_radius_m", "outer_radius_m", "height_m"])
    def test_ring_size_bounded(self, capsys, tmp_path, electron_raw, key):
        magnet = electron_raw["magnet"]
        magnet.update(outer_radius_m=cfg.MAX_PROFILE_M, height_m=cfg.MAX_PROFILE_M)
        cfg.parse_config(electron_raw)  # the bound itself is accepted
        magnet[key] = 1.0e300
        path = write_scenario(tmp_path, electron_raw)
        code, out, err = run_cli(capsys, "field", "--config", path)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: magnet.{key}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["field", "budget"])
    @pytest.mark.parametrize("r_in", [1.0e-70, 1.0e-170])
    def test_inner_radius_whose_face_field_overflows_is_schema_error(
        self, capsys, tmp_path, electron_raw, command, r_in
    ):
        # a site on the top face: inv**5 in the face term overflowed (an
        # errno tuple), or r_in**2 underflowed to zero (0.0 to a negative power)
        electron_raw["magnet"]["inner_radius_m"] = r_in
        electron_raw["magnet"]["profile"]["logic_site_m"] = 2.5e-3
        path = write_scenario(tmp_path, electron_raw)
        out_dir = tmp_path / "o"
        code, out, err = run_cli(capsys, command, "--config", path, "--out", str(out_dir))
        assert code == 2 and out == ""
        assert err.startswith("config error: magnet: r_in ") and err.count("\n") == 1
        assert not out_dir.exists()
        code, out, _ = run_cli(capsys, command, "--config", path)
        assert code == 2 and out == ""

    def test_field_needs_magnet_block(self, capsys):
        code, _, err = run_cli(capsys, "field", "--config", "paper-proton")
        assert code == 2
        assert "magnet" in err


def write_profile_csv_whole(profile, stream, markers=None):
    """`magnetics.write_profile_csv` as it was before it took blocks."""
    marks = (markers or {}).items()
    stream.write("z_m,B_T,B1_T_per_m,B2_T_per_m2,site\n")
    for z, b, b1, b2 in zip(profile.z, profile.B, profile.B1, profile.B2):
        site = "+".join([label for label, mz in marks if abs(z - mz) <= 1e-15])
        stream.write(
            f"{float(z)!r},{float(b)!r},{float(b1)!r},{float(b2)!r},{site}\n"
        )


def field_whole(rc: cfg.RunConfig, args) -> tuple[str, str]:
    """`cli.cmd_field` as it was before it streamed: every row in memory at
    once, the oracle of the streamed command's bytes."""
    ring = cfg.build_ring(rc)
    p = rc.magnet["profile"]
    sites = {"logic": p["logic_site_m"], "spectroscopy": p["spectroscopy_site_m"]}
    grid = cfg.linspace(p["z_min_m"], p["z_max_m"], p["samples"])
    grid = sorted(set(grid).union(sites.values()))
    profile = magnetics.field_profile(
        ring, grid, background=rc.magnet["background_field_tesla"]
    )
    buf = io.StringIO()
    write_profile_csv_whole(profile, buf, markers=sites)
    # independent-derivative spot check of the printed gradients, appended as an
    # agreement flag; each error is relative to the gradient's largest magnitude
    # over the checked rows, so a row near a zero of B1 or B2 does not inflate it
    step = max(1, len(grid) // 8)
    analytic = list(zip(profile.B1[::step], profile.B2[::step]))
    fd = [magnetics.fd_gradients(ring, z) for z in grid[::step]]
    worst = 0.0
    for k in (0, 1):
        scale = max(abs(a[k]) for a in analytic)
        if scale > 0.0:
            err = max(abs(a[k] - f[k]) for a, f in zip(analytic, fd))
            worst = max(worst, err / scale)
    buf.write(f"# fd_agreement_max_rel_err = {worst!r}\n")
    buf.write(f"# fd_agreement_ok = {int(worst <= 1e-6)}\n")
    return "field.csv", buf.getvalue()


# 0.05 is a point of the bundled 201-sample grid; two sites that coincide;
# a span of one ulp, where linspace repeats its values
_EDGE_PROFILES = {
    "site-on-grid-point": {"samples": 201, "spectroscopy_site_m": 0.05},
    "coincident-sites": {"samples": 300, "spectroscopy_site_m": 0.0},
    "one-ulp-span": {"samples": 300, "z_min_m": 0.01,
                     "z_max_m": math.nextafter(0.01, 1.0)},
}


class TestFieldStream:
    """`field` computes and writes its profile PROFILE_BLOCK positions at a
    time; its bytes are those of the whole profile at once."""

    @pytest.mark.parametrize("profile", [
        *({"samples": n} for n in (2, 255, 256, 257, 513, 2_000)),
        *_EDGE_PROFILES.values(),
    ], ids=[*(f"samples-{n}" for n in (2, 255, 256, 257, 513, 2_000)), *_EDGE_PROFILES])
    def test_bytes_equal_the_whole_profile(self, capsys, tmp_path, electron_raw, profile):
        electron_raw["magnet"]["profile"].update(profile)
        _, expected = field_whole(cfg.parse_config(electron_raw), None)
        path = write_scenario(tmp_path, electron_raw)
        code, out, err = run_cli(capsys, "field", "--config", path)
        assert (code, err) == (0, "") and out == expected
        code, out, err = run_cli(capsys, "field", "--config", path, "--out", str(tmp_path))
        assert (code, out, err) == (0, "", "")
        assert (tmp_path / "field.csv").read_bytes() == expected.encode()

    def test_writer_memory_does_not_grow_with_samples(self, electron_raw):
        def traced_write(samples):
            electron_raw["magnet"]["profile"]["samples"] = samples
            _, write = cli.cmd_field(cfg.parse_config(electron_raw), None)
            sink = CountingSink()
            tracemalloc.start()
            try:
                write(sink)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return sink.chars, peak

        traced_write(2_000)  # first-call allocations are not the profile's
        small_chars, small = traced_write(2_000)
        large_chars, large = traced_write(cfg.MAX_GRID)
        assert large_chars > 40 * small_chars > 0  # both profiles went through
        assert large - small < 500_000, (
            f"writer peak {large / 1e6:.2f} MB at {cfg.MAX_GRID} samples vs "
            f"{small / 1e6:.2f} MB at 2,000"
        )


class TestLineshapeAndProtocolCommands:
    @pytest.mark.parametrize("command", ["lineshape", "protocol"])
    @pytest.mark.parametrize("leaf", ["pulse_time_s", "cooling_time_s"])
    def test_cycle_time_beyond_the_float_range_is_schema_error(
        self, capsys, tmp_path, electron_raw, command, leaf
    ):
        # a pulse time at the float maximum made the cycle time inf (inf wall
        # times, and a drift step of nan that never excites); a cooling time
        # there overflowed the wall-time column with a RuntimeWarning
        electron_raw["protocol"][leaf] = 1.7e308
        path = write_scenario(tmp_path, electron_raw)
        code, out, err = run_cli(capsys, command, "--config", path)
        assert (code, out) == (2, "")
        assert err.startswith("config error: protocol: ") and err.count("\n") == 1
        assert leaf in err and "inf" not in err

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

    @pytest.mark.parametrize("command", ["lineshape", "protocol"])
    @pytest.mark.parametrize("where", ["scenario", "flag"])
    def test_negative_seed_rejected(self, capsys, tmp_path, electron_raw, command, where):
        argv = [command, "--config"]
        if where == "scenario":
            electron_raw["seed"] = -1
            argv.append(write_scenario(tmp_path, electron_raw))
        else:
            argv += ["paper-electron", "--seed", "-1"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: seed: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "dotted, value",
        [
            ("cycles", 0),
            ("pi_pulse_fidelity", 1.5),
            ("pi_pulse_fidelity", -0.1),
            ("sideband_cooling_residual", -0.01),
            ("mode", "bogus"),
            ("drive.profile", "bogus"),
            # ranges the protocol models also check for library callers
            ("drive.peak_probability", 1.5),
            ("detection.averaging_time_s", 0.0),
            ("detection.noise_density_hz_per_sqrt_hz", -1.0),
            ("field_noise_per_sqrt_minute", -1.0),
            ("cooling_time_s", -1.0),
            ("pulse_time_s", -1.0),
        ],
    )
    def test_protocol_range_is_schema_error(
        self, capsys, tmp_path, electron_raw, dotted, value
    ):
        set_key(electron_raw, f"protocol.{dotted}", value)
        path = write_scenario(tmp_path, electron_raw)
        for command in ("protocol", "budget"):
            code, out, err = run_cli(capsys, command, "--config", path)
            assert code == 2
            assert out == ""
            assert err.startswith(f"config error: protocol.{dotted}: ")
            assert err.count("\n") == 1

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

    def test_protocol_out_file_matches_stdout(self, capsys, tmp_path, electron_raw):
        # several record chunks and a partial last one
        electron_raw["protocol"]["cycles"] = 9001
        path = write_scenario(tmp_path, electron_raw)
        code, out, _ = run_cli(capsys, "protocol", "--config", path, "--seed", "5")
        assert code == 0
        code, none, _ = run_cli(
            capsys, "protocol", "--config", path, "--seed", "5", "--out", str(tmp_path / "o")
        )
        assert code == 0 and none == ""
        assert (tmp_path / "o" / "records.csv").read_bytes() == out.encode()
        assert out.count("\n") == 9001 + 2

    @pytest.mark.parametrize(
        "where, exit_code",
        [
            ("no protocol block", 2),
            ("threshold above delta", 2),
            # passes the schema and the parse, fails in the trap model
            ("bare axial frequency negative", 1),
        ],
    )
    def test_failed_protocol_writes_nothing(
        self, capsys, tmp_path, electron_raw, where, exit_code
    ):
        if where == "no protocol block":
            config = "paper-proton"
        else:
            if where == "threshold above delta":
                electron_raw["protocol"]["detection"]["threshold_hz"] = 1.0e6
            else:  # a 10 nm trap pulls omega_z below the resonator's shift
                electron_raw["traps"]["logic"]["d_eff_m"] = 1.0e-8
            config = write_scenario(tmp_path, electron_raw)
        out_dir = tmp_path / "o"
        code, out, err = run_cli(capsys, "protocol", "--config", config, "--out", str(out_dir))
        assert code == exit_code
        assert out == "" and err.count("\n") == 1
        assert not (out_dir / "records.csv").exists()
        code, out, _ = run_cli(capsys, "protocol", "--config", config)
        assert code == exit_code and out == ""

    @pytest.mark.parametrize("command", ["lineshape", "protocol"])
    @pytest.mark.parametrize("threshold_hz", [-5.0, 0.0, 1.0e6])
    def test_threshold_outside_delta_names_its_key(
        self, capsys, tmp_path, electron_raw, command, threshold_hz
    ):
        electron_raw["protocol"]["detection"]["threshold_hz"] = threshold_hz
        path = write_scenario(tmp_path, electron_raw)
        code, out, err = run_cli(capsys, command, "--config", path)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(
            "config error: protocol.detection.threshold_hz: must lie between 0 and "
            "the logic-trap delta, "
        )

    @pytest.mark.parametrize(
        "changes, names",
        [
            ({"pi_pulse_fidelity": 0.0}, "protocol.pi_pulse_fidelity"),
            ({"mode": "anomaly"}, "protocol.mode"),
            (
                {"sideband_cooling_residual": 0.0, "drive.peak_probability": 0.0},
                "protocol.drive.peak_probability",
            ),
            (
                {"sideband_cooling_residual": 0.0, "pi_pulse_fidelity": 0.0,
                 "drive.grid.start_hz": -2000.0, "drive.grid.stop_hz": -1000.0},
                "protocol.pi_pulse_fidelity, protocol.drive.grid",
            ),
        ],
    )
    def test_lineshape_names_what_zeroes_the_line(
        self, capsys, tmp_path, electron_raw, changes, names
    ):
        for dotted, value in changes.items():
            set_key(electron_raw["protocol"], dotted, value)
        path = write_scenario(tmp_path, electron_raw)
        code, out, err = run_cli(capsys, "lineshape", "--config", path)
        assert code == 1
        assert out == ""
        assert err == f"error: lineshape has no excitation to fit: zero line from {names}\n"

    def test_lineshape_without_jumps_names_the_cycles(self, capsys, tmp_path, electron_raw):
        # a line too weak for its cycles: positive in closed form, no jump drawn
        p = electron_raw["protocol"]
        p["cycles"], p["sideband_cooling_residual"] = 3, 0.0
        p["drive"]["peak_probability"] = 1e-12
        path = write_scenario(tmp_path, electron_raw)
        code, out, err = run_cli(capsys, "lineshape", "--config", path)
        assert code == 1
        assert out == ""
        assert err == (
            "error: lineshape has no excitation to fit: "
            "no jump in protocol.cycles = 3 cycles a point\n"
        )

    @pytest.mark.parametrize("b2", [0.0, -9000.0])
    def test_readout_needs_positive_logic_bottle(self, capsys, tmp_path, electron_raw, b2):
        electron_raw["traps"]["logic"]["b2_tesla_per_m2"] = b2
        path = write_scenario(tmp_path, electron_raw)
        for command in ("budget", "field"):
            code, out, err = run_cli(capsys, command, "--config", path)
            assert code == 0, err
        out_dir = tmp_path / "o"
        for command in ("lineshape", "protocol"):
            code, out, err = run_cli(capsys, command, "--config", path, "--out", str(out_dir))
            assert code == 2
            assert out == ""
            assert err.startswith(
                "config error: traps.logic.b2_tesla_per_m2: "
            ) and err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("b2", [-4.0, -1.0e-6])
    def test_readout_needs_non_negative_spectroscopy_bottle(
        self, capsys, tmp_path, electron_raw, b2
    ):
        # a negative linewidth zeroes every drive probability: no line to read
        electron_raw["traps"]["spectroscopy"]["b2_tesla_per_m2"] = b2
        path = write_scenario(tmp_path, electron_raw)
        for command in ("budget", "field"):
            code, out, err = run_cli(capsys, command, "--config", path)
            assert code == 0, err
        out_dir = tmp_path / "o"
        for command in ("lineshape", "protocol"):
            code, out, err = run_cli(capsys, command, "--config", path, "--out", str(out_dir))
            assert code == 2
            assert out == ""
            assert err.startswith(
                "config error: traps.spectroscopy.b2_tesla_per_m2: "
            ) and err.count("\n") == 1
        assert not out_dir.exists()

    def test_zero_spectroscopy_bottle_reads_a_zero_width_line(
        self, capsys, tmp_path, electron_raw
    ):
        electron_raw["traps"]["spectroscopy"]["b2_tesla_per_m2"] = 0.0
        electron_raw["protocol"]["cycles"] = 40
        path = write_scenario(tmp_path, electron_raw)
        for command in ("lineshape", "protocol"):
            code, out, err = run_cli(capsys, command, "--config", path)
            assert code == 0, err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("key", ["start_hz", "stop_hz"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_drive_grid_ends_bounded(self, capsys, tmp_path, electron_raw, key, sign):
        grid = electron_raw["protocol"]["drive"]["grid"]
        electron_raw["protocol"]["cycles"] = 50
        grid.update({"start_hz": -cfg.MAX_DRIVE_HZ, "stop_hz": cfg.MAX_DRIVE_HZ,
                     "points": 3})
        path = write_scenario(tmp_path, electron_raw)
        code, out, err = run_cli(capsys, "lineshape", "--config", path)
        assert code == 0, err  # the bound itself runs without a warning
        assert "# center_uncertainty_rad_per_s" in out
        grid[key] = sign * 1.0e300
        path = write_scenario(tmp_path, electron_raw)
        code, out, err = run_cli(capsys, "lineshape", "--config", path)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: protocol.drive.grid.{key}: ")
        assert err.count("\n") == 1

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


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("budget", "--seed", "3"),
        ("field", "--format", "records"),
        ("field", "--seed", "3"),
        ("sweep", "--seed", "3"),
        ("lineshape", "--format", "records"),
        ("protocol", "--format", "records"),
    ],
)
def test_subcommand_rejects_flag_it_does_not_read(capsys, command, flag, value):
    argv = [command, "--config", "paper-electron", flag, value]
    if command == "sweep":
        argv += ["--axis", "resonator.R_p_ohm", "--range", "1:2:2"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_cli_import_does_not_load_scipy():
    # scipy serves only the Fock-space oracle; every command skips it
    out = run_python("import sys, wireqls.cli; print('scipy' in sys.modules)")
    assert out == "False"


def test_budget_and_sweep_do_not_load_numpy():
    # numpy serves the commands that compute arrays: field, lineshape, protocol
    argvs = [
        ["budget", "--config", "paper-electron"],
        ["budget", "--config", "paper-electron", "--format", "records"],
        ["sweep", "--config", "paper-electron",
         "--axis", "resonator.detune_linewidths", "--range", "5:200:5"],
    ]
    out = run_python(
        "import contextlib, io, sys\n"
        "from wireqls import cli\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print('numpy' in sys.modules)\n"
    )
    assert out == "False"


def test_field_does_not_load_numpy(tmp_path, electron_raw):
    # the ring's closed form is evaluated in plain Python
    electron_raw["magnet"]["profile"]["samples"] = 2000
    argvs = [
        ["field", "--config", "paper-electron"],
        ["field", "--config", write_scenario(tmp_path, electron_raw)],
    ]
    out = run_python(
        "import contextlib, io, sys\n"
        "from wireqls import cli\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as buf:\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    assert '# fd_agreement_ok = 1' in buf.getvalue(), argv\n"
        "print('numpy' in sys.modules)\n"
    )
    assert out == "False"


def test_budget_field_and_sweep_load_neither_json_nor_shifts():
    # json serves only `budget --format records`, the shift model only
    # `lineshape` and `protocol`, orjson only `protocol`'s record table;
    # the Fock-space oracle `dynamics` serves only tests;
    # PyYAML only scenarios the block reader declines, so no command on a
    # bundled scenario loads it; the records are named tuples, so no
    # command loads dataclasses, and only numpy's import loads inspect
    argvs = [
        ["budget", "--config", "paper-electron"],
        ["budget", "--config", "paper-proton"],
        ["field", "--config", "paper-electron"],
        ["sweep", "--config", "paper-electron",
         "--axis", "environment.temperature_k", "--range", "0.004:0.02:5"],
    ]
    out = run_python(
        "import contextlib, io, sys\n"
        "from wireqls import cli\n"
        "def run(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as buf:\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    return buf.getvalue()\n"
        f"for argv in {argvs!r}:\n"
        "    run(argv)\n"
        "print(sorted({'dataclasses', 'inspect', 'json', 'orjson',"
        " 'wireqls.spectroscopy', 'yaml'} & sys.modules.keys()))\n"
        "text = run(['budget', '--config', 'paper-electron', '--format', 'records'])\n"
        "import json\n"
        "print(json.loads(text)['particle'], 'yaml' in sys.modules)\n"
        "run(['lineshape', '--config', 'paper-electron'])\n"
        "print('orjson' in sys.modules, 'yaml' in sys.modules,"
        " 'dataclasses' in sys.modules, 'wireqls.dynamics' in sys.modules)\n"
        "run(['protocol', '--config', 'paper-electron'])\n"
        "print('orjson' in sys.modules, 'yaml' in sys.modules,"
        " 'dataclasses' in sys.modules, 'wireqls.dynamics' in sys.modules)\n"
    )
    assert out.splitlines() == [
        "[]", "electron False", "False False False False", "True False False False"
    ]


def test_no_command_loads_argparse():
    # the parser reads argv from the command table; argparse, and the gettext
    # and locale modules it loads, serve only as its oracle in tests
    argvs = [
        ["budget", "--config", "paper-electron"],
        ["field", "--config", "paper-electron"],
        ["lineshape", "--config", "paper-electron"],
        ["protocol", "--config", "paper-electron"],
        ["sweep", "--config", "paper-electron",
         "--axis", "environment.temperature_k", "--range", "0.004:0.02:5"],
        ["budget", "--config", "paper-electron", "--seed", "3"],
    ]
    for argv, status in zip(argvs, [0, 0, 0, 0, 0, 2]):  # one process each
        out = run_python(
            "import contextlib, io, sys\n"
            "from wireqls import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()),"
            " contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        print(cli.main({argv!r}), file=sys.__stdout__)\n"
            "    except SystemExit as exc:\n"
            "        print(exc.code, file=sys.__stdout__)\n"
            "print(sorted({'argparse', 'gettext', 'locale'} & sys.modules.keys()))\n"
        )
        assert out.splitlines() == [str(status), "[]"], argv
    src = Path(cli.__file__).parent
    assert [p.name for p in src.glob("*.py") if "argparse" in p.read_text()] == []


def test_package_loads_modules_on_first_access():
    out = run_python(
        "import sys, wireqls\n"
        "print('wireqls.protocol' in sys.modules,"
        " callable(wireqls.protocol.record_blocks), hasattr(wireqls, 'nope'))"
    )
    assert out == "False True False"


def test_main_leaves_the_collector_as_it_found_it(capsys):
    # a freeze inside main would keep each call's cyclic garbage in the
    # calling process (a test run, the traced bench) for good
    before = gc.isenabled(), gc.get_freeze_count()
    assert cli.main(["lineshape", "--config", "paper-electron"]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_run_turns_the_collector_off_then_exits_with_mains_status(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append(("main", gc.isenabled())) or 2)
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: calls.append("atexit"))
    for name in ("stdout", "stderr"):
        flush = lambda name=name: calls.append(f"flush {name}")
        monkeypatch.setattr(sys, name, types.SimpleNamespace(flush=flush))
    monkeypatch.setattr(os, "_exit", lambda status: calls.append(("exit", status)))
    try:
        cli.run()
    finally:
        gc.enable()
    assert calls == [
        ("main", False), "atexit", "flush stdout", "flush stderr", ("exit", 2)
    ]


def run_process(*argv: str, stdout=subprocess.PIPE, unbuffered: bool = False):
    """`python -m wireqls.cli argv` to completion, its stdout and stderr as
    bytes; no stderr may hold a traceback."""
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.run(
        [sys.executable, "-m", "wireqls.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120,
    )
    assert b"Traceback" not in child.stderr, child.stderr.decode()
    return child


class TestProcessExit:
    """The exit contract of a command process, which `run` ends with
    `os._exit`: every end is an exit code and at most one line on stderr."""

    def test_help_exits_0(self):
        child = run_process("--help")
        assert child.returncode == 0
        assert child.stdout.startswith(b"usage: wireqls")

    def test_no_arguments_exit_2(self):
        child = run_process()
        assert child.returncode == 2
        assert child.stderr.splitlines()[-1] == (
            b"wireqls: error: the following arguments are required: command"
        )

    def test_schema_error_exits_2_with_one_line(self, tmp_path, electron_raw):
        electron_raw["protocol"]["cycles"] = -1
        child = run_process("protocol", "--config", write_scenario(tmp_path, electron_raw))
        assert child.returncode == 2 and child.stdout == b""
        assert child.stderr.startswith(b"config error: protocol.cycles")
        assert child.stderr.count(b"\n") == 1

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["budget", "protocol"])
    def test_full_device_exits_1_with_one_line(self, command, unbuffered):
        with open("/dev/full", "wb") as full:
            child = run_process(
                command, "--config", "paper-electron", stdout=full, unbuffered=unbuffered
            )
        assert child.returncode == 1
        assert child.stderr == b"error: [Errno 28] No space left on device\n"

    def test_closed_stdout_exits_1_with_one_line(self):
        # the shell closes the child's fd 1, so Python starts with no stdout
        child = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh",
             sys.executable, "-m", "wireqls.cli", "budget", "--config", "paper-electron"],
            capture_output=True, env=package_env(), timeout=120,
        )
        assert child.returncode == 1
        assert child.stderr == b"error: stdout is closed\n"

    # fd 2 closed, so Python starts with no stderr, or open for reading
    # only, so every write to stderr fails
    @pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "unwritable"])
    @pytest.mark.parametrize("argv, status", [
        (["budget", "--config", "nope"], 2),
        (["lineshape", "--config", "paper-electron", "--seed", "-1"], 2),
        (["lineshape", "--config", "{anomaly}"], 1),  # no jump reaches the threshold
    ], ids=["no-scenario", "negative-seed", "zero-line"])
    def test_failed_report_keeps_the_status(
        self, tmp_path, electron_raw, redirect, argv, status
    ):
        electron_raw["protocol"]["mode"] = "anomaly"
        anomaly = write_scenario(tmp_path, electron_raw)
        child = subprocess.run(
            ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "wireqls.cli",
             *(arg.format(anomaly=anomaly) for arg in argv)],
            capture_output=True, env=package_env(), timeout=120,
        )
        assert child.returncode == status
        assert child.stdout == b""

    def test_reader_closing_the_pipe_exits_1_with_one_line(self, tmp_path, electron_raw):
        # 50,000 records are ~2 MB, far beyond a pipe's buffer, so the
        # writer is still writing when `head -c 100` closes its end
        electron_raw["protocol"]["cycles"] = 50_000
        child = subprocess.Popen(
            [sys.executable, "-m", "wireqls.cli",
             "protocol", "--config", write_scenario(tmp_path, electron_raw)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=package_env(),
        )
        head = child.stdout.read(100)
        child.stdout.close()
        stderr = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=120) == 1
        assert head.startswith(b"cycle,")
        assert stderr == b"error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("argv, filename", [
        (["budget"], "budget.txt"),
        (["budget", "--format", "records"], "budget.json"),
        (["field"], "field.csv"),
        (["sweep", "--axis", "environment.temperature_k", "--range", "0.004:0.02:5"],
         "sweep.csv"),
        (["lineshape"], "lineshape.csv"),
        (["protocol"], "records.csv"),
    ])
    def test_out_file_bytes_equal_stdout_bytes(self, tmp_path, argv, filename):
        argv = [*argv, "--config", "paper-electron"]
        printed = run_process(*argv)
        written = run_process(*argv, "--out", str(tmp_path))
        assert printed.returncode == written.returncode == 0
        assert printed.stderr == written.stderr == written.stdout == b""
        assert (tmp_path / filename).read_bytes() == printed.stdout != b""


@pytest.mark.parametrize("command, cycles", [
    ("protocol", (2_000, 200_000)), ("lineshape", (400, 6_000))
])
def test_collector_off_garbage_does_not_grow_with_cycles(tmp_path, command, cycles):
    # `run` never collects, so what a command process leaves unreachable
    # must not depend on the cycles it draws
    scenario = (Path(cfg.__file__).parent / "scenarios" / "paper-electron.yaml").read_text()
    counts = []
    for n in cycles:
        path = tmp_path / f"cycles-{n}.yaml"
        path.write_text(scenario.replace("  cycles: 400\n", f"  cycles: {n}\n"))
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        counts.append(run_python(
            "import gc; gc.disable()\n"
            "from wireqls import cli\n"
            f"print(cli.main({argv!r}), gc.collect())\n"
        ))
    assert counts[0] == counts[1] and counts[0].startswith("0 ")


def test_console_script_runs_the_module_entry():
    # `wireqls` and `python -m wireqls.cli` start through the same function
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    tree = ast.parse(Path(cli.__file__).read_text())
    (block,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    (statement,) = block.body
    call = statement.value
    assert isinstance(call.func, ast.Name) and not call.args, ast.unparse(statement)
    entry = call.func.id
    assert callable(getattr(cli, entry))
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"wireqls": f"wireqls.cli:{entry}"}


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

    def test_temperature_sweep_into_occupation_overflow(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--config", "paper-electron",
            "--axis", "environment.temperature_k", "--range", "0.01:1.7e308:2",
        )
        assert code == 2
        assert out == ""
        assert err == "config error: environment.temperature_k: thermal occupation overflows\n"

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

    @pytest.mark.parametrize("points, rows", [("0", []), ("1", ["5.0"])])
    def test_empty_and_single_point_ranges(self, capsys, points, rows):
        code, out, err = run_cli(
            capsys, "sweep", "--config", "paper-electron",
            "--axis", "resonator.detune_linewidths", "--range", f"5:200:{points}",
        )
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0].startswith("resonator.detune_linewidths,")
        assert [l.split(",")[0] for l in lines[1:]] == rows

    def test_negative_points_schema_error(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--config", "paper-electron",
            "--axis", "resonator.detune_linewidths", "--range", "5:200:-1",
        )
        assert code == 2
        assert out == ""
        assert err == "config error: range: expected start:stop:points\n"

    def test_point_count_bounded(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--config", "paper-electron",
            "--axis", "resonator.detune_linewidths", "--range", "5:200:100001",
        )
        assert code == 2
        assert out == ""
        assert err == "config error: range: at most 100000 points\n"

    def test_sweep_leaves_scenario_unchanged(self):
        rc = cfg.load_config("paper-electron")
        before = copy.deepcopy(rc.raw)
        args = cli.parse_args(
            ["sweep", "--config", "paper-electron", "--axis",
             "traps.logic.temperature_k", "--range", "0.004:0.02:9"]
        )
        texts = [cli.cmd_sweep(rc, args)[1] for _ in range(2)]
        assert rc.raw == before
        assert texts[0] == texts[1]
        rows = texts[0].splitlines()[1:]
        assert len(rows) == 9
        for row in rows:
            value, *cells = row.split(",")
            data = copy.deepcopy(before)
            data["traps"]["logic"]["temperature_k"] = float(value)
            b = cfg.build_budget(cfg.parse_config(data))
            assert cells == [repr(b.omega_ex), repr(b.t_ex), repr(b.gamma),
                             repr(b.n_bar), repr(b.figure), str(int(b.feasible))]

    def test_bad_range_spec(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--config", "paper-electron",
            "--axis", "resonator.R_p_ohm", "--range", "oops",
        )
        assert code == 2
        assert "start:stop:points" in err


FUZZ_VALUES = (0, -1, 1e-300, 1e300, 0.5, 1e-12, 3, 1e6)
NUMERIC_LEAVES = [path for path, kind, _, _ in cfg.SCHEMA if kind is not str]


@pytest.mark.parametrize("dotted", NUMERIC_LEAVES)
def test_every_numeric_leaf_ends_cleanly(capsys, monkeypatch, dotted):
    # each value of each numeric leaf ends in output, or in exit 1 or 2 with
    # one line on stderr that is more than a bare errno tuple, and no warning
    base = cfg.load_config("paper-electron").raw
    for value in FUZZ_VALUES:
        raw = copy.deepcopy(base)
        if dotted == "resonator.detune_hz":  # the one or the other
            del raw["resonator"]["detune_linewidths"]
        set_key(raw, dotted, value)
        try:
            rc = cfg.parse_config(raw)
        except cfg.ConfigError:
            pass
        else:
            assert cfg.parse_config(copy.deepcopy(rc.raw)) == rc
        # the commands parse the mapping itself, without a YAML file
        monkeypatch.setattr(cfg, "load_config", lambda _: cfg.parse_config(raw))
        for command in ("budget", "field", "lineshape", "protocol"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, _, err = run_cli(capsys, command, "--config", "fuzz")
            where = f"{command} with {dotted} = {value!r}: {err!r}"
            assert code in (0, 1, 2), where
            assert err.count("\n") <= 1, where
            assert not re.match(r"error: \(\d+, ", err), where


ROWS = {path: (kind, default, accept) for path, kind, default, accept in cfg.SCHEMA}
JOINT_LEAVES = [
    *(path for path, (kind, _, _) in ROWS.items()
      if path.startswith("magnet.") and kind is not str),
    "traps.logic.d_eff_m", "traps.spectroscopy.d_eff_m",
]


def edge_values(dotted: str) -> list:
    """Values to draw for a leaf: its Range's finite edges and their float
    neighbours, zero, the least float and the decades up to the float
    maximum, of both signs; and None, the key left out, where it has a
    default."""
    kind, default, accept = ROWS[dotted]
    values = {0.0, math.ulp(0.0), sys.float_info.max,
              *(float(f"1e{k}") for k in range(-300, 309, 10))}
    for edge in (accept.lo, accept.hi) if isinstance(accept, cfg.Range) else ():
        if math.isfinite(edge):
            values |= {edge, *(math.nextafter(edge, to) for to in (-math.inf, math.inf))}
    values |= {-v for v in values}
    if kind is int:  # an int's neighbours are one apart
        values = {int(v) for v in values if float(v).is_integer()}
        values |= {int(v) + step for v in (accept.lo, accept.hi) for step in (-1, 1)}
    return sorted(values) + ([] if default is cfg.REQUIRED else [None])


@st.composite
def joint_leaves(draw) -> dict:
    paths = draw(st.lists(st.sampled_from(JOINT_LEAVES), min_size=1, max_size=3, unique=True))
    return {path: draw(st.sampled_from(edge_values(path))) for path in paths}


# the two repros of an inner radius whose face terms overflow, the two of a
# trap inductance outside the float range, an uncalibrated ring far from the
# profile, where the finite-difference step's square overflowed, and a step
# that underflows at a grid point on the ring center (exit 1)
@example({"magnet.inner_radius_m": 1.0e-70, "magnet.profile.logic_site_m": 2.5e-3})
@example({"magnet.inner_radius_m": 1.0e-170, "magnet.profile.logic_site_m": 2.5e-3})
@example({"traps.spectroscopy.d_eff_m": 1.0e200})
@example({"traps.spectroscopy.d_eff_m": 1.0e-200})
@example({"magnet.center_z_m": -1.0e270, "magnet.calibrate_b2_tesla_per_m2": None})
@example({"magnet.inner_radius_m": 1.0e-21, "magnet.outer_radius_m": 1.0e-20,
          "magnet.height_m": 1.0e-20, "magnet.center_z_m": -0.02,
          "magnet.calibrate_b2_tesla_per_m2": None})
@settings(max_examples=150, deadline=None, derandomize=True)
@given(joint_leaves())
def test_a_failing_field_writes_nothing(leaves):
    # every mix of magnet leaves and trap sizes ends in output, or in exit 1
    # or 2 with one line on stderr, and then nothing on stdout and no file
    raw = copy.deepcopy(cfg.load_config("paper-electron").raw)
    for dotted, value in leaves.items():
        if value is None:
            *parents, leaf = dotted.split(".")
            del functools.reduce(dict.get, parents, raw)[leaf]
        else:
            set_key(raw, dotted, value)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        # the commands parse the mapping itself, without a YAML file
        patch.setattr(cfg, "load_config", lambda _: cfg.parse_config(raw))
        for argv, filename in [(["field"], None), (["field", "--out", tmp], "field.csv"),
                               (["budget", "--out", tmp], "budget.txt")]:
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = cli.main([*argv, "--config", "fuzz"])
            out, err = out.getvalue(), err.getvalue()
            where = f"{' '.join(argv[:2])} with {leaves}: {err!r}"
            assert code in (0, 1, 2), where
            assert err.count("\n") <= 1 and "Traceback" not in err, where
            assert not re.match(r"error: \(\d+, ", err), where
            if code:
                assert out == "", where
                assert not (filename and (Path(tmp) / filename).exists()), where
            else:
                assert (out == "") == (filename is not None), where
