"""Toolkit for wire-coupled two-trap quantum logic readout of electrons.

Modules
-------
constants     frozen CODATA 2018 snapshot, unit conventions, checked records
circuit       resonator impedance, series-mode equivalents, exchange budget
magnetics     bottle-ring on-axis field and gradients
spectroscopy  bottle shift, broadening, heating estimate
dynamics      Fock-space Lindblad oracle for the swap probability (tests only)
protocol      closed-form swap probability, seven-step cycle Monte Carlo,
              lineshapes
schema        what a scenario may contain, and the walk that checks it
config        scenario model, loader and exchange budget
yaml_loader   PyYAML reader for scenario text that is not plain block YAML
cli           command-line parser and process entry
cmd_budget, cmd_field, cmd_lineshape, cmd_protocol, cmd_sweep
              one module per command, each imported only by its own run

The modules load on first attribute access (`wireqls.protocol`). A command
loads `cli`, `config`, `schema`, `circuit`, `constants` and its module;
`magnetics` for `field` and for a scenario with a `magnet` block; and
`spectroscopy`, `protocol` and numpy for `lineshape` and `protocol`.
Every command compiles `config` and `schema` where no bytecode is cached,
so neither is larger than `cli`, and what only some run is elsewhere:
`protocol.build_protocol`, `cmd_field.build_ring`, `yaml_loader`.
`lineshape` and `protocol` import the package's modules before numpy, so
that no compile adds to the peak RSS numpy has raised.
numpy.random loads hashlib only to seed a generator without a seed, and
every stream here has one, so a process started at `cli.run` never maps
OpenSSL's libcrypto; a library import leaves `_hashlib` importable.
"""

import importlib

__version__ = "0.1.0"

_MODULES = frozenset(
    {"circuit", "config", "constants", "dynamics", "magnetics", "protocol", "schema",
     "spectroscopy"}
)


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
