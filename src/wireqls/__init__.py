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
config        scenario schema and loaders
cli           command-line entry points

The modules load on first attribute access (`wireqls.protocol`), so the
`budget`, `field` and `sweep` commands start without numpy.
"""

import importlib

__version__ = "0.1.0"

_MODULES = frozenset(
    {"circuit", "config", "constants", "dynamics", "magnetics", "protocol", "spectroscopy"}
)


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
