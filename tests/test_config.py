import argparse
import copy
import io
import math
import re
import struct
import sys
from importlib import resources

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wireqls import circuit, protocol, schema
from wireqls import config as cfg
from wireqls.cmd_field import build_ring
from wireqls.cmd_sweep import set_by_path, sweep_configs
from wireqls.constants import M_E, M_P, TWO_PI, linspace

from conftest import assert_rel, bose


@pytest.fixture(scope="module")
def electron_rc() -> cfg.RunConfig:
    return cfg.load_config("paper-electron")


@pytest.fixture()
def electron_raw(electron_rc) -> dict:
    return copy.deepcopy(electron_rc.raw)


class TestLoading:
    def test_bundled_scenarios_present(self):
        assert cfg.bundled_scenarios() == ["paper-electron", "paper-proton"]

    def test_round_trip_identity(self):
        for name in cfg.bundled_scenarios():
            first = cfg.load_config(name)
            dumped = yaml.safe_dump(first.raw)
            second = cfg.parse_config(yaml.safe_load(dumped))
            assert first.raw == second.raw

    def test_load_from_path(self, tmp_path, electron_raw):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(electron_raw))
        rc = cfg.load_config(path)
        assert rc.scenario == "paper-electron"

    def test_unknown_scenario_name(self):
        with pytest.raises(schema.ConfigError):
            cfg.load_config("no-such-scenario")


class TestStrictSchema:
    def test_unknown_key_rejected_with_path(self, electron_raw):
        electron_raw["resonator"]["Q"] = 6000.0
        with pytest.raises(schema.ConfigError) as exc:
            cfg.parse_config(electron_raw)
        assert exc.value.path == "resonator.Q"

    def test_unknown_nested_key(self, electron_raw):
        electron_raw["traps"]["logic"]["voltage"] = 1.0
        with pytest.raises(schema.ConfigError) as exc:
            cfg.parse_config(electron_raw)
        assert exc.value.path == "traps.logic.voltage"

    def test_missing_required_key_with_path(self, electron_raw):
        del electron_raw["traps"]["logic"]["d_eff_m"]
        with pytest.raises(schema.ConfigError) as exc:
            cfg.parse_config(electron_raw)
        assert exc.value.path == "traps.logic.d_eff_m"

    def test_type_errors(self, electron_raw):
        electron_raw["seed"] = "tuesday"
        with pytest.raises(schema.ConfigError) as exc:
            cfg.parse_config(electron_raw)
        assert exc.value.path == "seed"

    def test_bad_particle(self, electron_raw):
        electron_raw["particle"] = "muon"
        with pytest.raises(schema.ConfigError) as exc:
            cfg.parse_config(electron_raw)
        assert exc.value.path == "particle"

    def test_bad_output_format(self, electron_raw):
        electron_raw["output"]["format"] = "xml"
        with pytest.raises(schema.ConfigError) as exc:
            cfg.parse_config(electron_raw)
        assert exc.value.path == "output.format"

    def test_domain_invariants_enforced_on_load(self, electron_raw):
        electron_raw["traps"]["logic"]["d_eff_m"] = -1.0
        with pytest.raises(ValueError):
            cfg.parse_config(electron_raw)

    def test_detuning_conventions_exclusive(self, electron_raw):
        electron_raw["resonator"]["detune_hz"] = 1e6
        with pytest.raises(schema.ConfigError):
            cfg.parse_config(electron_raw)  # both given
        del electron_raw["resonator"]["detune_linewidths"]
        rc = cfg.parse_config(electron_raw)  # absolute placement alone is fine
        expected = TWO_PI * 1e6 * rc.resonator.C_p * rc.resonator.R_p
        assert rc.detune_linewidths == pytest.approx(expected, rel=1e-12)
        del electron_raw["resonator"]["detune_hz"]
        with pytest.raises(schema.ConfigError):
            cfg.parse_config(electron_raw)  # neither given

    def test_resonator_at_or_below_zero_names_its_key(self, electron_rc, electron_raw):
        # at the edge omega_z = detune * width the parse is the model's placement
        C_p, R_p = electron_rc.resonator.C_p, electron_rc.resonator.R_p
        omega_z = electron_rc.trap_logic.omega_z
        edge = omega_z / (1.0 / (C_p * R_p))
        below, above = math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)
        for detune in (below, edge, above, 1.0e4):
            electron_raw["resonator"]["detune_linewidths"] = detune
            try:
                rc = cfg.parse_config(electron_raw)
            except schema.ConfigError as exc:
                assert exc.path == "resonator.detune_linewidths"
                assert str(exc) == (
                    "resonator.detune_linewidths: places omega_res at or below zero"
                )
                assert detune > below
                with pytest.raises(ValueError, match="at or below zero"):
                    circuit.ResonatorParams.detuned_below(C_p, R_p, omega_z, detune)
            else:
                placed = circuit.ResonatorParams.detuned_below(C_p, R_p, omega_z, detune)
                assert rc.resonator == placed
                assert rc.resonator.omega_res > 0.0
        del electron_raw["resonator"]["detune_linewidths"]
        # C_p * R_p is checked before detune_hz * C_p * R_p, so its own underflow names its factor
        for detune_hz, R_p, path, message in (
            (1.0e9, 5.0e5, "resonator.detune_hz", "places omega_res at or below zero"),
            (-1.0e6, 5.0e5, "resonator.detune_hz", "must be positive"),
            (0.0, 5.0e5, "resonator.detune_hz", "must be positive"),
            (1.0e7, 5e-324, "resonator.R_p_ohm", "R_p puts C_p * R_p beyond the float range"),
            (1e-300, 1e-20, "resonator.detune_hz",
             "detune_hz * C_p * R_p underflows to zero linewidths"),
        ):
            electron_raw["resonator"].update(detune_hz=detune_hz, R_p_ohm=R_p)
            with pytest.raises(schema.ConfigError) as exc:
                cfg.parse_config(electron_raw)
            assert exc.value.path == path
            assert str(exc.value) == f"{path}: {message}"


class TestUnitBoundary:
    def test_hz_converted_once(self, electron_rc):
        assert electron_rc.trap_logic.omega_z == pytest.approx(
            TWO_PI * 200e6, rel=1e-15
        )

    def test_protocol_frequencies_converted(self, electron_rc):
        pc = protocol.build_protocol(electron_rc)
        detection = electron_rc.protocol["detection"]
        assert detection["noise_density_hz_per_sqrt_hz"] == pytest.approx(
            TWO_PI * 0.127, rel=1e-12
        )
        assert pc.detection.noise_density == detection["noise_density_hz_per_sqrt_hz"]
        assert min(pc.drive.detunings) == pytest.approx(TWO_PI * -0.01, rel=1e-12)
        assert max(pc.drive.detunings) == pytest.approx(TWO_PI * 0.08, rel=1e-12)

    def test_default_threshold_is_half_delta(self, electron_rc):
        pc = protocol.build_protocol(electron_rc)
        assert pc.detection.threshold == pytest.approx(
            0.5 * pc.shifts_L.delta, rel=1e-12
        )


class TestBuilders:
    def test_budget_matches_worked_values(self, electron_rc):
        budget = cfg.build_budget(electron_rc)
        assert_rel(budget.t_ex, 0.160, 0.05)
        assert_rel(budget.figure, 0.098, 0.05)
        assert budget.feasible

    def test_proton_budget(self):
        rc = cfg.load_config("paper-proton")
        budget = cfg.build_budget(rc)
        assert budget.n_bar >= 100.0
        assert budget.n_bar == pytest.approx(bose(TWO_PI * 1e6, 0.010), rel=1e-12)
        assert not budget.feasible
        electron_budget = cfg.build_budget(cfg.load_config("paper-electron"))
        assert budget.l_L / electron_budget.l_L == pytest.approx(
            M_P / M_E, rel=1e-12
        )

    def test_ring_calibrated(self, electron_rc):
        from wireqls import magnetics

        ring = build_ring(electron_rc)
        _, b2 = magnetics.gradients(ring, 0.0)
        assert b2 == pytest.approx(9000.0, rel=1e-12)

    def test_missing_block_reported(self):
        rc = cfg.load_config("paper-proton")  # no magnet/protocol blocks
        with pytest.raises(schema.ConfigError) as exc:
            build_ring(rc)
        assert exc.value.path == "magnet"
        with pytest.raises(schema.ConfigError) as exc:
            protocol.build_protocol(rc)
        assert exc.value.path == "protocol"

    def test_build_protocol_resolves_on_config(self):
        # `build_protocol` lives with the code only lineshape and protocol
        # load; the benchmark's oracle still reaches it as config's, and no
        # other name that left config resolves there
        assert cfg.build_protocol is protocol.build_protocol
        assert not any(hasattr(cfg, name) for name in ("build_ring", "linspace", "_load_yaml"))

    def test_seed_override(self, electron_rc):
        pc1 = protocol.build_protocol(electron_rc)
        pc2 = protocol.build_protocol(electron_rc, seed=999)
        assert pc1.seed == electron_rc.seed
        assert pc2.seed == 999


# another accepted value for each magnet and protocol leaf of paper-electron
OTHER_VALUES = {
    "magnet.inner_radius_m": 4.0e-3,
    "magnet.outer_radius_m": 1.6e-2,
    "magnet.height_m": 6.0e-3,
    "magnet.mu0_magnetization_tesla": 2.0,
    "magnet.center_z_m": 1.0e-3,
    "magnet.background_field_tesla": 5.0,
    "magnet.calibrate_b2_tesla_per_m2": 8000.0,
    "magnet.profile.z_min_m": -0.01,
    "magnet.profile.z_max_m": 0.07,
    "magnet.profile.samples": 101,
    "magnet.profile.logic_site_m": 1.0e-3,
    "magnet.profile.spectroscopy_site_m": 0.04,
    "protocol.cycles": 300,
    "protocol.pi_pulse_fidelity": 0.95,
    "protocol.sideband_cooling_residual": 0.05,
    "protocol.cooling_time_s": 0.2,
    "protocol.pulse_time_s": 2.0e-3,
    "protocol.mode": "anomaly",
    "protocol.field_noise_per_sqrt_minute": 1.0e-10,
    "protocol.detection.averaging_time_s": 0.1,
    "protocol.detection.noise_density_hz_per_sqrt_hz": 0.2,
    "protocol.detection.threshold_hz": 10.0,  # left out: delta_L/2, 11.6 Hz
    "protocol.drive.profile": "gaussian",
    "protocol.drive.peak_probability": 0.5,
    "protocol.drive.grid.start_hz": -0.02,
    "protocol.drive.grid.stop_hz": 0.09,
    "protocol.drive.grid.points": 31,
}


class TestLeavesReachModels:
    """Builders read the walked blocks by key, so each leaf must change what
    they build; a leaf nobody reads, or a mistyped key, fails here."""

    def test_table_covers_every_leaf(self):
        leaves = {row[0] for row in schema.SCHEMA if row[0].startswith(("magnet.", "protocol."))}
        assert set(OTHER_VALUES) == leaves

    @pytest.mark.parametrize("dotted", sorted(OTHER_VALUES))
    def test_leaf_changes_the_model(self, electron_raw, dotted):
        from wireqls.cmd_field import cmd_field

        if dotted == "magnet.mu0_magnetization_tesla":  # calibration cancels it
            del electron_raw["magnet"]["calibrate_b2_tesla_per_m2"]
        base = cfg.parse_config(electron_raw)
        data = copy.deepcopy(electron_raw)
        *parents, leaf = dotted.split(".")
        node = data
        for key in parents:
            node = node[key]
        assert node.get(leaf) != OTHER_VALUES[dotted]
        node[leaf] = OTHER_VALUES[dotted]
        changed = cfg.parse_config(data)
        if dotted.startswith("protocol."):
            assert protocol.build_protocol(changed) != protocol.build_protocol(base)
        else:
            def model(rc):  # the ring, and the CSV text the field writer emits
                buf = io.StringIO()
                cmd_field(rc, argparse.Namespace())[1](buf)
                return build_ring(rc), buf.getvalue()

            assert model(changed) != model(base)


class TestSweepPathHelper:
    def test_set_by_path(self, electron_raw):
        out = set_by_path(electron_raw, "resonator.detune_linewidths", 40.0)
        assert out["resonator"]["detune_linewidths"] == 40.0
        assert electron_raw["resonator"]["detune_linewidths"] == 30.0  # copy

    def test_missing_path(self, electron_raw):
        with pytest.raises(schema.ConfigError):
            set_by_path(electron_raw, "resonator.nope", 1.0)

    def test_non_numeric_leaf(self, electron_raw):
        with pytest.raises(schema.ConfigError) as exc:
            set_by_path(electron_raw, "particle", 1.0)
        assert "numeric" in str(exc.value)

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(["paper-electron", "paper-proton"]),
        dotted=st.sampled_from([row[0] for row in schema.SCHEMA] + ["traps", "no.such"]),
        values=st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.integers(-5, 10**6).map(float),
                st.sampled_from([0.0, -1.0, 1e-300, 1e300, 0.5, 2.0e8, 1.5e8]),
            ),
            max_size=4,
        ),
    )
    def test_sweep_configs_match_parse_config(self, name, dotted, values):
        # one walk, then the swept leaf alone, gives what a full parse of
        # each point gives: the same RunConfig, or the same first error
        rc = cfg.load_config(name)

        def run(points):
            out = []
            try:
                for point in points:
                    out.append(point)
            except (ValueError, ArithmeticError) as exc:
                out.append((type(exc), str(exc)))
            return out

        full = (cfg.parse_config(set_by_path(rc.raw, dotted, v)) for v in values)
        assert run(sweep_configs(rc, dotted, values)) == run(full)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
BIG = sys.float_info.max


@st.composite
def _ends(draw):
    """(start, stop): independent, equal, or one ulp apart."""
    start = draw(FINITE)
    kind = draw(st.sampled_from(("any", "equal", "ulp up", "ulp down")))
    if kind == "any":
        return start, draw(FINITE)
    if kind == "equal":
        return start, start
    stop = math.nextafter(start, math.inf if kind == "ulp up" else -math.inf)
    return start, stop if math.isfinite(stop) else start


def _bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


class TestLinspace:
    @given(ends=_ends(), num=st.integers(0, 2000))
    @example(ends=(0.0, 5e-322), num=1001)   # the step underflows to zero
    @example(ends=(-BIG, BIG), num=5)        # stop - start overflows
    @example(ends=(-0.0, 1.0), num=1)        # 0 * delta + start is +0.0
    @example(ends=(1.5, -2.5), num=0)
    def test_matches_numpy_bit_for_bit(self, ends, num):
        start, stop = ends
        with np.errstate(all="ignore"):  # 0 * inf where stop - start overflows
            expected = np.linspace(start, stop, num).tolist()
        assert _bits(linspace(start, stop, num)) == _bits(expected)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            linspace(0.0, 1.0, -1)


LEAVES = [row[0] for row in schema.SCHEMA]
# any value a scenario leaf may be given, valid or not
YAML_VALUES = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.none(), st.text(max_size=20),
    st.sampled_from([-0.0, 5e-324, BIG, 1e300, 0.1, 10**30]),
)


def _typed(value):
    """`value` with each scalar tagged by its type, so 1, 1.0 and True
    differ; nan is tagged by its repr."""
    if isinstance(value, dict):
        return {key: _typed(v) for key, v in value.items()}
    return type(value).__name__, repr(value)


@pytest.fixture(scope="module")
def bundled_raw() -> dict:
    return {name: cfg.load_config(name).raw for name in cfg.bundled_scenarios()}


def _variant(data, bundled_raw: dict, values) -> dict:
    """A bundled scenario with up to eight leaves set to drawn `values`."""
    name = data.draw(st.sampled_from(sorted(bundled_raw)))
    raw = copy.deepcopy(bundled_raw[name])
    for dotted in data.draw(st.lists(st.sampled_from(LEAVES), max_size=8)):
        *parents, leaf = dotted.split(".")
        node = raw
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = data.draw(values, label=dotted)
    return raw


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML has no libyaml")
class TestYamlLoaders:
    """libyaml's parser and PyYAML's own, under the same constructor and
    resolvers, build the same mappings."""

    def test_load_config_uses_libyaml(self, tmp_path, monkeypatch):
        # text the block reader declines goes to PyYAML, by libyaml's parser
        loaders = []
        load = yaml.load
        monkeypatch.setattr(
            yaml, "load",
            lambda text, Loader: loaders.append(Loader) or load(text, Loader=Loader),
        )
        path = tmp_path / "flow.yaml"
        path.write_text("{scenario: flow}\n")
        with pytest.raises(schema.ConfigError, match="seed: missing required key"):
            cfg.load_config(path)
        assert len(loaders) == 1 and issubclass(loaders[0], yaml.CSafeLoader)

    @pytest.mark.parametrize("libyaml", [True, False])
    def test_duplicate_key_rejected_by_either_parser(self, tmp_path, monkeypatch, libyaml):
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader")
        path = tmp_path / "dup.yaml"
        path.write_text("scenario: a\nseed: 1\nseed: 2\n")
        message = "<root>: invalid YAML: found duplicate key 'seed' at line 3, column 1"
        with pytest.raises(schema.ConfigError, match=f"^{re.escape(message)}$"):
            cfg.load_config(path)

    @pytest.mark.parametrize("name", cfg.bundled_scenarios())
    def test_bundled_scenarios(self, name):
        text = (resources.files("wireqls") / "scenarios" / f"{name}.yaml").read_text()
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        assert _typed(fast) == _typed(yaml.load(text, Loader=yaml.SafeLoader))
        assert cfg.load_config(name) == cfg.parse_config(fast)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_dumped_variants(self, bundled_raw, data):
        text = yaml.safe_dump(_variant(data, bundled_raw, YAML_VALUES))
        expected = _typed(yaml.load(text, Loader=yaml.SafeLoader))
        assert _typed(yaml.load(text, Loader=yaml.CSafeLoader)) == expected
        block = cfg._read_block_yaml(text)
        assert block is None or _typed(block) == expected


_NOT_WORDS = ("yes", "no", "true", "false", "on", "off", "null")
# the three scalar forms the block reader takes, as safe_dump writes them
READER_VALUES = st.one_of(
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,15}", fullmatch=True).filter(
        lambda word: word.lower() not in _NOT_WORDS
    ),
)


def _mostly(good, bad, odds: int):
    """`good` about `odds` draws in `odds + 1`, else `bad`."""
    return st.sampled_from([good] * odds + [bad]).flatmap(lambda strategy: strategy)


# lines between the keys: blank, or a comment at any indent
_FILLER = _mostly(
    st.sampled_from(["", "   ", "#", "# note: a: 1", "    # x"]),
    st.sampled_from(["#\ttab", "\t", "# \x00", "- 1", "...", "%YAML 1.1"]),
    odds=20,
)
# a line's own key (its index is appended, so it is unique), or one that
# repeats or that PyYAML reads as something else
_KEYS = _mostly(
    st.sampled_from(["a", "_d", "Key_"]).map(lambda key: key + "{}"),
    st.sampled_from(["dup", "on", "Null", "yes", "1", "a b", "'q'", "-", "x" * 1100]),
    odds=20,
)
# what follows `key:` on a line with a value
_VALUES = _mostly(
    st.one_of(
        st.integers(-(10**20), 10**20).map(str),
        st.floats().map(lambda x: yaml.safe_dump(x).partition("\n")[0]),
        st.sampled_from(["word", "paper-electron", "x_1", "e5", "-0", "+7", "1.", "00.5"]),
    ),
    st.one_of(
        st.floats(allow_nan=False).map(repr),  # 1e-05, inf: strings to PyYAML
        st.sampled_from([
            "yes", "On", "NULL", "~", "010", "0x1F", "1_000", "1e5", "1.0e5", ".5",
            "1:30", "2001-12-14", "'q'", '"q"', "a#b", "{}", "[1]", "&a x", "*a",
            "!!str x", "|", "a: b", "\x00", "\t1", "\u00851", "9" * 5000,
        ]),
    ),
    odds=15,
)
_SEPARATORS = _mostly(st.sampled_from([": ", ":  "]), st.just(":"), odds=30)
_COMMENTS = _mostly(
    st.sampled_from(["", "", " # c", "   #", " "]), st.sampled_from(["#c", "\t# t"]), odds=30
)
_MISALIGN = _mostly(st.just(0), st.sampled_from([1, -1]), odds=30)


@st.composite
def _documents(draw):
    """Block YAML built line by line, mostly what the reader takes, with
    adversarial keys, values, indents, comments and characters mixed in."""
    step = draw(st.sampled_from([2, 2, 4, 1]))
    lines, depth = [], 0
    count = draw(st.integers(0, 12))
    for i in range(count):
        lines += draw(st.lists(_FILLER, max_size=1))
        indent = depth * step + draw(_MISALIGN)
        line = " " * max(indent, 0) + draw(_KEYS).format(i)
        if i < count - 1 and draw(st.booleans()):  # open a block
            line, depth = line + ":", depth + 1
        else:
            line += draw(_SEPARATORS) + draw(_VALUES)
            depth = draw(st.integers(0, depth))
        lines.append(line + draw(_COMMENTS))
    newline = draw(_mostly(st.just("\n"), st.just("\r\n"), odds=20))
    head = draw(_mostly(
        st.just(""), st.sampled_from(["---\n", "\ufeff", "{}\n", "a: &x 1\n"]), odds=20
    ))
    return head + newline.join(lines) + draw(st.sampled_from(["", "\n", "\n..."]))


class TestBlockReader:
    """The block reader returns what PyYAML's SafeLoader returns, or None."""

    @settings(max_examples=500, deadline=None)
    @given(text=_documents())
    def test_agrees_with_pyyaml_or_declines(self, text):
        block = cfg._read_block_yaml(text)
        try:
            expected = yaml.load(text, Loader=yaml.SafeLoader)
        except Exception:  # YAMLError, or int()'s digit limit
            assert block is None
            return
        assert block is None or _typed(block) == _typed(expected)

    @pytest.mark.parametrize("name", cfg.bundled_scenarios())
    def test_reads_bundled_scenarios(self, name):
        text = (resources.files("wireqls") / "scenarios" / f"{name}.yaml").read_text()
        block = cfg._read_block_yaml(text)
        assert block is not None
        assert _typed(block) == _typed(yaml.load(text, Loader=yaml.SafeLoader))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_reads_dumped_variants(self, bundled_raw, data):
        raw = _variant(data, bundled_raw, READER_VALUES)
        text = yaml.safe_dump(raw, sort_keys=data.draw(st.booleans()))
        block = cfg._read_block_yaml(text)
        assert block is not None
        assert _typed(block) == _typed(yaml.load(text, Loader=yaml.SafeLoader))

    @pytest.mark.parametrize("text", [
        "", "# only a comment\n", "a:\n", "a:\nb: 1\n", "a: 1\na: 2\n",
        "a: 1\n  b: 2\n", "a:\n    b: 1\n  c: 2\n", "a: yes\n", "on: 1\n",
        "a: 1\tb\n", "a: 1\r\n", "\ufeffa: 1\n", "---\na: 1\n", "a: 1.0e5\n",
        "a: 1e+5\n", "a: 010\n", "a: b#c\n", "a:b\n", "a: 'b'\n", "a: {}\n",
    ])
    def test_declines(self, text):
        assert cfg._read_block_yaml(text) is None

    def test_declines_what_libyaml_or_int_rejects(self):
        # a simple key over 1024 characters, an int over int()'s digit limit
        for text in ("k" * 1100 + ": 1\n", "a: " + "9" * 5000 + "\n"):
            with pytest.raises((yaml.YAMLError, ValueError)):
                yaml.load(text, Loader=yaml.SafeLoader)
            assert cfg._read_block_yaml(text) is None

    def test_flow_style_anchored_scenario_matches_its_block_form(self, tmp_path):
        block = cfg.load_config("paper-electron")
        text = yaml.safe_dump(block.raw, default_flow_style=True, width=10**6)
        # one anchor on the first temperature, aliases on the others
        text = text.replace("temperature_k: 0.01", "temperature_k: *T")
        text = text.replace("*T", "&T 0.01", 1)
        assert text.count("*T") == 2
        assert cfg._read_block_yaml(text) is None
        path = tmp_path / "flow.yaml"
        path.write_text(text)
        assert cfg.load_config(path) == block
