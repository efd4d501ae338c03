import ast
import importlib
import inspect
import math
import pickle
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import wireqls
from wireqls import circuit, constants, dynamics, magnetics, protocol, spectroscopy
from wireqls import config as cfg


def test_codata_values_positive_and_sane():
    c = constants
    assert c.E > 0 and c.M_E > 0 and c.HBAR > 0
    assert math.isclose(c.G_E, 2.002319, rel_tol=1e-6)
    assert c.M_P / c.M_E == pytest.approx(1836.15267, rel=1e-6)


def test_cyclotron_frequency_electron_at_6t():
    # independent arithmetic: |q| B / m with the frozen constants
    expected = constants.E * 6.0 / constants.M_E
    value = constants.cyclotron_frequency(6.0)
    assert value == expected
    assert value == pytest.approx(1.055e12, rel=5e-4)


def test_cyclotron_frequency_rejects_bad_domain():
    with pytest.raises(ValueError):
        constants.cyclotron_frequency(0.0)
    with pytest.raises(ValueError):
        constants.cyclotron_frequency(-1.0)
    with pytest.raises(ValueError):
        constants.cyclotron_frequency(6.0, m=0.0)
    with pytest.raises(ValueError):
        constants.cyclotron_frequency(6.0, q=0.0)


def test_cyclotron_frequency_linear_in_field():
    assert constants.cyclotron_frequency(12.0) == pytest.approx(
        2.0 * constants.cyclotron_frequency(6.0), rel=1e-15
    )


def test_unit_round_trip_is_exact():
    for x in (1.0, 200e6, 3.7e-3, 8.25e11):
        assert constants.hz_to_angular(constants.angular_to_hz(x)) == pytest.approx(
            x, rel=1e-15
        )
        assert constants.angular_to_hz(constants.hz_to_angular(x)) == pytest.approx(
            x, rel=1e-15
        )


def test_particle_presets():
    m, q = constants.particle_mass_charge("positron")
    assert (m, q) == (constants.M_E, constants.E)
    m_p, _ = constants.particle_mass_charge("proton")
    assert m_p == constants.M_P
    with pytest.raises(ValueError):
        constants.particle_mass_charge("muon")


def _paper_protocol():
    return protocol.build_protocol(cfg.load_config("paper-electron"))


# (a valid record, one field set to a value its check rejects, the message)
CHECKED_CASES = {
    "ResonatorParams": (
        lambda: circuit.ResonatorParams(1e-6, 1e-11, 5e5),
        {"C_p": 0.0}, "C_p must be positive",
    ),
    "TrapParams": (
        lambda: circuit.TrapParams(1e-3, 1.2e9, 6.0, 9000.0, 0.01, constants.M_E, constants.E),
        {"omega_z": math.inf}, "omega_z must be finite",
    ),
    "RingMagnet": (
        lambda: magnetics.RingMagnet(5e-3, 1.5e-2, 5e-3, 1.9e6),
        {"height": 0.0}, "height must be positive",
    ),
    "ExchangeParams": (
        lambda: protocol.ExchangeParams(10.0, 1.0, 0.5, 0.6),
        {"n_bar": -1.0}, "n_bar must be non-negative",
    ),
    "TwoModeState": (
        lambda: dynamics.TwoModeState.fock(2, 1, 0),
        {"n_max": 3}, "rho must be 16x16 for n_max=3",
    ),
    "DetectionModel": (
        lambda: protocol.DetectionModel(0.05, 0.8, 10.0),
        {"averaging_time": 0.0}, "averaging_time must be positive",
    ),
    "DriveModel": (
        lambda: protocol.DriveModel((0.0, 1.0)),
        {"profile": "lorentzian"}, "profile must be 'exponential' or 'gaussian'",
    ),
    "ProtocolConfig": (
        _paper_protocol, {"cycles": 0}, "cycles must be at least 1",
    ),
    "Lineshape": (
        lambda: protocol.Lineshape(np.zeros(2), np.full(2, 0.5), np.full(2, 0.1), 10),
        {"fractions": np.array([0.5, 1.5])}, "fractions must lie in [0, 1]",
    ),
}


# (record, field, message): a range check that NaN must fail, as ValueError
NAN_CASES = [
    ("ResonatorParams", "L_p", "L_p must be positive"),
    ("ResonatorParams", "C_p", "C_p must be positive"),
    ("ResonatorParams", "R_p", "R_p must be positive"),
    ("TrapParams", "d_eff", "d_eff must be positive"),
    ("TrapParams", "omega_z", "omega_z must be positive"),
    ("TrapParams", "B", "B must be positive"),
    ("TrapParams", "B2_local", "B2_local must be finite"),
    ("TrapParams", "T_axial", "T_axial must be non-negative"),
    ("TrapParams", "m", "m must be positive"),
    ("TrapParams", "q", "q must be finite"),
    ("RingMagnet", "r_in", "require 0 < r_in < r_out"),
    ("RingMagnet", "r_out", "r_out must be finite"),
    ("RingMagnet", "height", "height must be positive"),
    ("RingMagnet", "magnetization", "magnetization must be finite"),
    ("RingMagnet", "center_z", "center_z must be finite"),
    ("ExchangeParams", "omega_ex", "omega_ex must be non-negative"),
    ("ExchangeParams", "gamma_L", "gamma_L must be non-negative"),
    ("ExchangeParams", "gamma_S", "gamma_S must be non-negative"),
    ("ExchangeParams", "n_bar", "n_bar must be non-negative"),
    ("ExchangeParams", "detuning", "detuning must be finite"),
    ("DetectionModel", "averaging_time", "averaging_time must be positive"),
    ("DetectionModel", "noise_density", "noise_density must be non-negative"),
    ("DetectionModel", "threshold", "threshold must be finite"),
    ("DriveModel", "peak_probability", "peak_probability must lie in [0, 1]"),
    ("ProtocolConfig", "pi_pulse_fidelity", "pi_pulse_fidelity must lie in [0, 1]"),
    ("ProtocolConfig", "sideband_cooling_residual",
     "sideband_cooling_residual must be non-negative"),
    ("ProtocolConfig", "field_noise", "field_noise must be non-negative"),
    ("ProtocolConfig", "omega_c_spec", "omega_c_spec must be positive"),
    ("ProtocolConfig", "cooling_time", "cooling_time must be non-negative"),
    ("ProtocolConfig", "pulse_time", "pulse_time must be non-negative"),
    ("ProtocolConfig", "swap_probability", "swap_probability must lie in [0, 1]"),
    ("Lineshape", "fractions", "fractions must lie in [0, 1]"),
    ("Lineshape", "errors", "errors must be non-negative"),
]
ARRAY_FIELDS = {"fractions", "errors"}  # a NaN among valid entries

REJECT_ROWS = [
    pytest.param(name, CHECKED_CASES[name][1], CHECKED_CASES[name][2], id=name)
    for name in sorted(CHECKED_CASES)
] + [
    pytest.param(
        name,
        {field: np.array([0.5, math.nan]) if field in ARRAY_FIELDS else math.nan},
        message,
        id=f"{name}-{field}-nan",
    )
    for name, field, message in NAN_CASES
] + [
    # l = m (2 d_eff / q)^2 is 0 at an infinite q; the charge is named, not d_eff
    pytest.param("TrapParams", {"q": math.inf}, "q must be finite", id="TrapParams-q-inf"),
]


def _declares_a_check(cls) -> bool:
    # a `_check` of its own, or a field annotated with a Range
    hints = vars(cls).get("__annotations__", {}).values()
    return "_check" in vars(cls) or any(
        isinstance(bound, constants.Range)
        for hint in hints
        for bound in getattr(hint, "__metadata__", ())
    )


def test_every_checked_record_has_a_case():
    # every class of the package that declares a check, decorated or not
    modules = [
        importlib.import_module(f"wireqls.{info.name}")
        for info in pkgutil.iter_modules(wireqls.__path__)
    ]
    records = {
        name
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, type)
        and obj.__module__ == module.__name__
        and _declares_a_check(obj)
    }
    assert records == set(CHECKED_CASES)


def test_every_float_field_has_a_nan_case():
    # a new float field of a checked record needs its NaN row
    rows = {(name, field) for name, field, _ in NAN_CASES}
    missing = [
        (name, field)
        for name, (make, _, _) in CHECKED_CASES.items()
        for field, value in make()._asdict().items()
        if isinstance(value, float) and (name, field) not in rows
    ]
    assert missing == []


def test_schema_and_records_share_one_range_class():
    from wireqls import schema

    assert schema.Range is constants.Range
    assert schema.POSITIVE is constants.POSITIVE
    hint = circuit.TrapParams.__annotations__["d_eff"]
    assert hint.__metadata__ == (constants.POSITIVE,)


@pytest.mark.parametrize("name, bad, message", REJECT_ROWS)
def test_checked_record_rejects_bad_value_built_and_replaced(name, bad, message):
    make = CHECKED_CASES[name][0]
    record = make()
    assert type(record).__name__ == name
    assert type(record)(*record) == record
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        type(record)(**{**record._asdict(), **bad})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        record._replace(**bad)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        type(record)._make({**record._asdict(), **bad}.values())
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])


@pytest.mark.parametrize("name", sorted(CHECKED_CASES))
def test_checked_record_constructor_names_its_fields(name):
    record_type = type(CHECKED_CASES[name][0]())
    assert tuple(inspect.signature(record_type).parameters) == record_type._fields
    with pytest.raises(TypeError, match=rf"^{name}\.__new__\(\) missing"):
        record_type()


@pytest.mark.parametrize("name", sorted(CHECKED_CASES))
def test_checked_record_round_trips_through_pickle(name):
    record = CHECKED_CASES[name][0]()
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is type(record) and repr(restored) == repr(record)
    assert not hasattr(restored, "__dict__")


def test_calibration_rejects_a_non_finite_magnetization():
    ring = magnetics.RingMagnet.saturated(5e-3, 1.5e-2, 5e-3)
    with pytest.raises(ValueError, match="^magnetization must be finite$"):
        ring.calibrated_to(1e308)


def _sample(name):
    return CHECKED_CASES[name][0]()


def _exchange(omega_ex):
    return _sample("ExchangeParams")._replace(omega_ex=omega_ex)


# (function and argument, a call with that argument set to x, an
# out-of-range x, the message); each row is also called with x = NaN
FUNCTION_CASES = [
    ("detuned_below-omega_z",
     lambda x: circuit.ResonatorParams.detuned_below(1e-11, 5e5, x, 30.0),
     0.0, "omega_z must be positive"),
    ("detuned_below-detune_linewidths",
     lambda x: circuit.ResonatorParams.detuned_below(1e-11, 5e5, 1.2e9, x),
     -1.0, "detune_linewidths must be positive"),
    ("impedance-omega",
     lambda x: circuit.impedance(_sample("ResonatorParams"), x),
     0.0, "omega must be positive"),
    ("series_equivalent-z_im",
     lambda x: circuit.series_equivalent(_sample("TrapParams"), z_im=x),
     math.inf, "z_im must be finite"),
    ("exchange_rate-z_im_abs", lambda x: circuit.exchange_rate(x, 1e-3, 1e-3),
     -1.0, "z_im_abs must be non-negative"),
    ("exchange_rate-l_L", lambda x: circuit.exchange_rate(1.0, x, 1e-3),
     0.0, "l_L must be positive"),
    ("exchange_rate-l_S", lambda x: circuit.exchange_rate(1.0, 1e-3, x),
     -1e-3, "l_S must be positive"),
    ("exchange_time-omega_ex", circuit.exchange_time, 0.0, "omega_ex must be positive"),
    ("thermal_occupation-omega_z", lambda x: circuit.thermal_occupation(x, 0.01),
     0.0, "omega_z must be positive"),
    ("thermal_occupation-T", lambda x: circuit.thermal_occupation(1.2e9, x),
     -1.0, "T must be non-negative"),
    ("optimize_detuning-constraint",
     lambda x: circuit.optimize_detuning(
         _sample("ResonatorParams"), _sample("TrapParams"), _sample("TrapParams"), 0.01, x),
     1.0, "constraint must lie in (0, 1)"),
    ("cyclotron_frequency-B", constants.cyclotron_frequency, 0.0, "B must be positive"),
    ("cyclotron_frequency-q", lambda x: constants.cyclotron_frequency(6.0, q=x),
     -math.inf, "q must be finite"),
    ("cyclotron_frequency-m", lambda x: constants.cyclotron_frequency(6.0, m=x),
     0.0, "m must be positive"),
    ("linspace-num", lambda x: constants.linspace(0.0, 1.0, x),
     -1, "num must be non-negative"),
    ("bottle_delta-omega_z", lambda x: spectroscopy.bottle_delta(9000.0, x),
     0.0, "omega_z must be positive"),
    ("cyclotron_broadening-T_z",
     lambda x: spectroscopy.cyclotron_broadening(9000.0, x, 1.2e9),
     -1.0, "T_z must be non-negative"),
    ("cyclotron_broadening-omega_z",
     lambda x: spectroscopy.cyclotron_broadening(9000.0, 0.01, x),
     0.0, "omega_z must be positive"),
    ("electric_field_noise-omega_z",
     lambda x: spectroscopy.electric_field_noise(spectroscopy.HeatingModel(), x, 1e-4, 6.0),
     0.0, "omega_z must be positive"),
    ("electric_field_noise-d_eff",
     lambda x: spectroscopy.electric_field_noise(spectroscopy.HeatingModel(), 1.2e9, x, 6.0),
     0.0, "d_eff must be positive"),
    ("electric_field_noise-T",
     lambda x: spectroscopy.electric_field_noise(spectroscopy.HeatingModel(), 1.2e9, 1e-4, x),
     0.0, "T must be positive"),
    ("required_averaging_time-delta",
     lambda x: protocol.required_averaging_time(x, 1.0), 0.0, "delta must be positive"),
    ("evolve-t",
     lambda x: dynamics.evolve(_sample("TwoModeState"), _sample("ExchangeParams"), x),
     -1.0, "t must be non-negative"),
    ("ProtocolConfig-swap_probability",
     lambda x: _paper_protocol()._replace(swap_probability=x),
     1.5, "swap_probability must lie in [0, 1]"),
]
# ExchangeParams holds no NaN omega_ex, so these two see only a zero rate
ZERO_RATE_CASES = [
    ("swap_probability-omega_ex", protocol.swap_probability),
    ("swap_fidelity-omega_ex", dynamics.swap_fidelity),
]

FUNCTION_ROWS = [
    pytest.param(call, bad, message, id=f"{name}-{kind}")
    for name, call, out_of_range, message in FUNCTION_CASES
    for kind, bad in (("nan", math.nan), ("out", out_of_range))
] + [
    pytest.param(lambda x, f=f: f(_exchange(x)), bad, "omega_ex must be positive",
                 id=f"{name}-{bad}")
    for name, f in ZERO_RATE_CASES
    for bad in (0.0, -0.0)
]


@pytest.mark.parametrize("call, bad, message", FUNCTION_ROWS)
def test_function_rejects_an_argument_outside_its_range(call, bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


def test_range_check_is_closed_and_names_the_value():
    bound = constants.Range(0.0, 1.0, "must lie in [0, 1]")
    for value in (0.0, 0.5, 1.0):
        assert bound.check("x", value) is None
    for value in (-1e-300, 1.0 + 1e-15, math.nan):
        with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\]$"):
            bound.check("x", value)


def test_open_unit_range_excludes_both_ends():
    circuit.OPEN_UNIT.check("c", math.ulp(0.0))
    circuit.OPEN_UNIT.check("c", math.nextafter(1.0, 0.0))
    for value in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"^c must lie in \(0, 1\)$"):
            circuit.OPEN_UNIT.check("c", value)


ORDER_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _is_number(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def _own_nodes(func):
    """The nodes of a function's body, not those of the functions it nests."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _raises_value_error(statements) -> bool:
    return any(
        isinstance(node, ast.Raise) and node.exc is not None
        and "ValueError" in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
        for statement in statements
        for node in ast.walk(statement)
    )


def hand_range_checks(source: str) -> list[tuple[int, str]]:
    """(line, parameter) of each comparison that tests one of its function's
    own parameters against numbers only, by <, <=, > or >=, in the test of
    an `if` whose body raises ValueError: a range check that `Range.check`
    should make, and that NaN passes."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs} - {"self"}
        for node in _own_nodes(func):
            if not isinstance(node, ast.If) or not _raises_value_error(node.body):
                continue
            for compare in ast.walk(node.test):
                if not isinstance(compare, ast.Compare):
                    continue
                operands = [compare.left, *compare.comparators]
                names = [n.id for n in operands if isinstance(n, ast.Name)]
                if (all(isinstance(op, ORDER_OPS) for op in compare.ops)
                        and len(names) == 1 and names[0] in params
                        and sum(map(_is_number, operands)) == len(operands) - 1):
                    found.append((compare.lineno, names[0]))
    return sorted(found)


def test_census_finds_a_hand_written_range_check():
    source = (
        "def f(self, x, y, n_max):\n"
        "    if x <= 0 or not 0.0 < y < 1.0:\n"
        "        raise ValueError('x or y')\n"
        "    if not (0 <= y <= n_max):  # compares with another parameter\n"
        "        raise ValueError('y')\n"
        "    if x > 1:  # raises no ValueError\n"
        "        return x\n"
        "    z = x\n"
        "    if z < 0:  # not a parameter\n"
        "        raise ValueError('z')\n"
        "    def g(w):\n"
        "        if w < -1:\n"
        "            raise ValueError('w')\n"
    )
    assert hand_range_checks(source) == [(2, "x"), (2, "y"), (12, "w")]


def test_no_function_hand_writes_a_range_check():
    # the package tests a number against an interval only through Range.check
    src = Path(wireqls.__file__).parent
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(src.rglob("*.py"))
        for line, name in hand_range_checks(path.read_text())
    ]
    assert found == []
