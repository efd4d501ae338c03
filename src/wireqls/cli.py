"""Command-line surface: budget, field, lineshape, protocol, sweep.

`parse_args` reads argv from the `_COMMANDS` and `_FLAGS` tables as the
standard library's parser would (`--flag value`, `--flag=value`, a unique
prefix, a negative number as a value). Each command is the function of the
same name in a module of its own (`cmd_budget`, `cmd_field`,
`cmd_lineshape`, `cmd_protocol`, `cmd_sweep`), and `main` imports only the
one it runs. A process compiles and loads only what its command uses:

  every command        cli, config, schema, circuit, constants, its module;
                       yaml_loader and PyYAML for text not in block YAML
  field                magnetics
  the others           magnetics where the scenario has a `magnet` block
  lineshape, protocol  spectroscopy, protocol and numpy; `protocol` loads
                       orjson only for a table of more than ONE_BLOCK rows

A compile adds to the peak RSS where no bytecode is cached, so no module
`budget`, `field` or `sweep` compiles is larger than this one (`config`
keeps neither the schema nor code only some commands run), and a numpy
command compiles its code before numpy.

numpy.random loads hashlib only to seed a generator without a seed, and
every stream here has one. So a command process's `main` blocks `_hashlib` (it
maps OpenSSL's libcrypto, ~3.4 MB) before it imports `cmd_lineshape` or
`cmd_protocol`, and hashlib takes its built-in code, where every module
it falls back to is present (else it logs each hash it lacks); `budget`,
`field` and `sweep` load no hashlib and skip that check.

A command computes and checks everything, then `main` writes its output to
stdout or --out <dir>: as one text, or through a writer that computes and
writes a row (`field`) or a block (`protocol`) at a time, so its memory
does not grow with the output. Exit codes: 0 success or help, 2 usage and
schema errors, 1 other errors. `run`, the process entry, marks the process
as a command's own, turns the cyclic collector off, calls `main`, runs the
atexit handlers, flushes stdout and stderr and ends with `os._exit`; under
`python -m wireqls.cli` the collector is already off for the package's own
imports. A library import, or a call of `main` from other code, turns no
collector off and leaves `_hashlib` importable.
"""

import atexit
import contextlib
import gc
import importlib.util
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

if __name__ == "__main__":  # a command process; see `run`
    gc.disable()

from . import config as cfg
from .schema import OUTPUT_FORMATS, ConfigError

if TYPE_CHECKING:
    from collections.abc import Callable
    from typing import NoReturn, TextIO

    Writer = Callable[[TextIO], None]

__all__ = ["main", "parse_args", "run"]


def _emit(body: "str | Writer", out_dir: str | None, filename: str) -> None:
    """Write a command's output to stdout, or to `filename` in `out_dir`;
    `body` is the text, or a function that writes it to a stream."""
    write = body if callable(body) else lambda stream: stream.write(body)
    if out_dir is None:
        if sys.stdout is None:  # started with its stdout closed
            raise OSError("stdout is closed")
        write(sys.stdout)
        sys.stdout.flush()  # a failed write is reported here, not at exit
        return
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    with open(path / filename, "w") as stream:
        write(stream)


_FLAGS = {
    "--config": dict(required=True, help="scenario path or bundled name"),
    "--out": dict(default=None, help="output directory (default stdout)"),
    "--format": dict(choices=OUTPUT_FORMATS, default=None, help="csv (report) or records"),
    "--seed": dict(type=int, default=None, help="override scenario seed"),
    "--axis": dict(required=True, help="dotted config path"),
    "--range": dict(required=True, help="start:stop:points"),
}

# name -> (the module defining the command as a function of its own name, help,
# the flags it reads beyond --config and --out); a command returns (output
# filename, text or a function writing the text to a stream)
_COMMANDS = {
    "budget": ("cmd_budget", "exchange/dissipation budget report", ("--format",)),
    "field": ("cmd_field", "bottle-ring on-axis field profile CSV", ()),
    "lineshape": ("cmd_lineshape", "quantum-jump lineshape scan CSV", ("--seed",)),
    "protocol": ("cmd_protocol", "per-cycle protocol record stream CSV", ("--seed",)),
    "sweep": ("cmd_sweep", "budget report swept along one config axis", ("--axis", "--range")),
}

# hashlib's built-in module for each hash it always offers (see
# hashlib.__get_builtin_constructor); from 3.12 _sha2 holds all of SHA-2
_HASH_FALLBACKS = ("_md5", "_sha1", "_blake2", "_sha3", *(
    ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")))
_command_process = False  # set by `run`: this interpreter runs one command and ends

_USAGE = {None: "wireqls [-h] {" + ",".join(_COMMANDS) + "} ...", **{
    name: " ".join(["wireqls", name, "[-h] --config --out", *flags])
    for name, (_, _, flags) in _COMMANDS.items()}}


def _stop(status: int, text: str, command: str | None = None) -> "NoReturn":
    if status:  # a usage error
        prog = "wireqls" if command is None else f"wireqls {command}"
        text = f"usage: {_USAGE[command]}\n{prog}: error: {text}"
    with contextlib.suppress(AttributeError, OSError):  # no stream, or a closed one
        (sys.stderr if status else sys.stdout).write(text + "\n")
    raise SystemExit(status)


def _help(flag: str, text: str | None, command: str | None) -> "NoReturn":
    if text is not None and not (flag == "-h" and text and not text.strip("h")):  # -hh is help
        _stop(2, f"argument -h/--help: ignored explicit argument {text!r}", command)
    lines = [f"  {n:10} {a}\n  {'':10} {_USAGE[n]}" for n, (_, a, _) in _COMMANDS.items()]
    lines += ["", *(f"  {f:10} {spec.get('help', '')}" for f, spec in _FLAGS.items())]
    _stop(0, "\n".join([f"usage: {_USAGE[None]}", "", *lines]))


def _option(arg: str, options: tuple[str, ...], command: str | None):
    """None for a value (a negative number too), else (the option or None, its text)."""
    if arg[:1] != "-" or arg == "-":
        return None
    name, eq, text = arg.partition("=")
    if arg in (known := ("-h", *options)) or eq and name in known:  # exact, before `=`
        return (arg, None) if arg in known else (name, text)
    if arg[:2] == "-h":
        return "-h", arg[2:]
    if len(hits := [o for o in options if arg[1] == "-" and o.startswith(name)]) > 1:
        _stop(2, f"ambiguous option: {arg} could match {', '.join(hits)}", command)
    if hits:
        return hits[0], text if eq else None
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg else (None, None)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """`argv` read as the standard library's parser reads it (see tests)."""
    for i, arg in enumerate([*argv, "--"]):  # flags before the command: help or unknown
        if arg == "--" or not (word := _option(arg, ("--help",), None)):
            break
        if word[0]:
            _help(*word, None)
    if (command := argv[i] if i < len(argv) else None) not in _COMMANDS:
        _stop(2, "the following arguments are required: command" if command is None
              else f"argument command: invalid choice: {command!r}")
    flags, rest, extras = ("--config", "--out", *_COMMANDS[command][2]), argv[i + 1:], argv[:i]
    cut = rest.index("--") if "--" in rest else len(rest)  # no flag after `--`
    words = [_option(arg, ("--help", *flags), command) for arg in rest[:cut]] + [("--",)]
    values, j = dict.fromkeys(flags), 0
    while j < cut:
        word, j = words[j], j + 1
        if word is None or word[0] is None:
            extras.append(rest[j - 1])
        elif word[0] in ("-h", "--help"):
            _help(*word, command)
        else:
            flag, text = word
            if text is None:
                if words[j] is not None:
                    _stop(2, f"argument {flag}: expected one argument", command)
                text, j = rest[j], j + 1
            spec, values[flag] = _FLAGS[flag], None
            with contextlib.suppress(ValueError):
                values[flag] = spec.get("type", str)(text)
            if values[flag] is None or values[flag] not in spec.get("choices", [values[flag]]):
                _stop(2, f"argument {flag}: invalid value: {text!r}", command)
    if missing := [f for f in flags if _FLAGS[f].get("required") and values[f] is None]:
        _stop(2, f"the following arguments are required: {', '.join(missing)}", command)
    if extras := extras + rest[cut:]:
        _stop(2, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, **{f[2:]: v for f, v in values.items()})


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        rc = cfg.load_config(args.config)
        name = _COMMANDS[args.command][0]
        # numpy's commands: hashlib without OpenSSL, where it has all its own code
        if (_command_process and name in ("cmd_lineshape", "cmd_protocol")
                and all(importlib.util.find_spec(m) for m in _HASH_FALLBACKS)):
            sys.modules.setdefault("_hashlib", None)
        command = getattr(importlib.import_module(f".{name}", __package__), name)
        filename, body = command(rc, args)
        _emit(body, args.out if args.out is not None else rc.output_dir, filename)
        return 0
    except ConfigError as exc:
        status, report = 2, f"config error: {exc}"
    except (ValueError, OSError, ArithmeticError) as exc:
        status, report = 1, f"error: {exc}"
    if sys.stderr is not None:  # None when the process started without fd 2
        with contextlib.suppress(OSError):  # a failed report changes no status
            print(report, file=sys.stderr)
    return status


def run() -> None:
    """Process entry: `main`, without the interpreter's teardown (see above)."""
    global _command_process
    _command_process = True
    gc.disable()
    status = main()
    atexit._run_exitfuncs()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        with contextlib.suppress(OSError):  # main reported it, or nothing can be
            stream.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
