"""The reachability ledger: every public function in `src/` serves a
command, or `LIBRARY_ONLY` names it with the ROADMAP item that is to give
it a command or move it out of `src/`.

The ledger runs every golden case in process under `sys.setprofile`, plus
a `protocol` point above `protocol.ONE_BLOCK` cycles (the row cursors) and
an unknown scenario name (the bundled list in its message). A public
function is one a module lists in `__all__`, or a public method of a
class it lists there. A newly unreached function fails the test, and so
does a row that no longer holds, so the table can only shrink.
"""

import fnmatch
import importlib
import inspect
import pkgutil
import sys

import wireqls

from test_golden import CASES, ELECTRON, _write_variants, run_case

# public functions no command reaches -> the ROADMAP item that owns them
LIBRARY_ONLY = {
    "dynamics.*": "item 9: the Fock-space oracle moves to tests/",
    "protocol.timing_budget": "item 4: the readout command",
    "protocol.required_averaging_time": "item 4: the readout command",
    "protocol.analytic_jump_probability": "item 4: the readout command",
    "circuit.optimize_detuning": "item 10: the design command",
    "spectroscopy.heating_rate": "item 3: heating in the readout chain",
    "spectroscopy.electric_field_noise": "item 3: heating in the readout chain",
}
# reached only as a process's entry, which the child-process tests start
PROCESS_ENTRY = {"cli.run"}


def public_functions() -> dict:
    """'module.name' or 'module.Class.method' -> code object."""
    found = {}
    for info in pkgutil.iter_modules(wireqls.__path__):
        module = importlib.import_module(f"wireqls.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                found[f"{info.name}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, value in vars(obj).items():
                    if isinstance(value, (classmethod, staticmethod)):
                        value = value.__func__
                    elif isinstance(value, property):
                        value = value.fget
                    if (not attr.startswith("_") and inspect.isfunction(value)
                            and value.__module__ == module.__name__):
                        found[f"{info.name}.{name}.{attr}"] = value.__code__
    return found


def test_every_public_function_serves_a_command_or_is_listed(tmp_path):
    _write_variants(tmp_path)
    (tmp_path / "cycles-20000.yaml").write_text(
        ELECTRON.replace("  cycles: 400\n", "  cycles: 20000\n")
    )
    argvs = [*CASES.values(),
             ["protocol", "--config", "{dir}/cycles-20000.yaml"],
             ["budget", "--config", "{dir}/no-such-scenario"]]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [run_case(argv, tmp_path)["exit"] for argv in argvs]
    finally:
        sys.setprofile(previous)
    assert codes[-2:] == [0, 2]

    functions = public_functions()
    unreached = {name for name, code in functions.items() if code not in called}
    listed = {name for name in functions
              if any(fnmatch.fnmatchcase(name, row) for row in LIBRARY_ONLY)}
    stale = [row for row in LIBRARY_ONLY
             if not any(fnmatch.fnmatchcase(name, row) for name in unreached)]
    assert sorted(unreached - listed - PROCESS_ENTRY) == [], "newly unreached"
    assert sorted(listed - unreached) == [], "listed but reached: remove the row"
    assert stale == [] and PROCESS_ENTRY <= unreached, "rows that no longer hold"
