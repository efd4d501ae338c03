"""The command-line parser against argparse: `cli.parse_args` must read
every argv as the argparse parser below, built from the same command and
flag tables, reads it. argparse stays out of the commands (it and the
gettext and locale modules it loads cost every command ~6 ms), so it
serves here as the oracle."""

import argparse
import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wireqls import cli


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wireqls",
        description="Budgets, field profiles, and Monte Carlo for "
        "wire-coupled two-trap quantum logic readout.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in cli._COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario path or bundled name")
        p.add_argument("--out", default=None, help="output directory (default stdout)")
        for flag in flags:
            p.add_argument(flag, **cli._FLAGS[flag])
    return parser


ORACLE = build_parser()


def outcome(parse, argv):
    """vars() of the namespace `parse` returns for argv, or the status it
    exits with; and its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


LONG_FLAGS = ["--config", "--out", "--format", "--seed", "--axis", "--range", "--help"]
# a flag or any prefix of it down to "--", which alone is the end of the flags
FLAGS = st.sampled_from(LONG_FLAGS).flatmap(
    lambda flag: st.integers(2, len(flag)).map(lambda n: flag[:n])
)
# no `=--`: argparse turns `--flag=--` into [], which no command can read
VALUES = st.one_of(
    st.sampled_from(["paper-electron", "x", "records", "csv", "resonator.R_p_ohm",
                     "1:2:2", "1_0", "1.5", "", "-x", "-5:1:3", "-1", "-2.5", "-.5",
                     "a b", "-x y", "-1e3", "-", "-=x"]),
    st.integers(-20, 20).map(str),
    st.text("abc", min_size=1, max_size=3),
)
WORDS = st.one_of(
    FLAGS,
    st.tuples(FLAGS, VALUES).map("=".join),
    st.tuples(FLAGS, VALUES).map(list),  # a flag and its value
    st.sampled_from(["-h", "--help", "--"]),
    VALUES,
    st.sampled_from([*cli._COMMANDS, "bogus"]),
)


def flatten(words):
    argv = []
    for word in words:
        argv += word if isinstance(word, list) else [word]
    return argv


GOOD = {"--format": st.sampled_from(["csv", "records"]), "--seed": st.integers(-3, 99).map(str)}


@st.composite
def command_lines(draw):
    """A command with its required flags and some others, each under a
    prefix and as `flag value` or `flag=value`, and a few stray words."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    flags = ["--config", "--out", *cli._COMMANDS[command][2]]
    required = [f for f in flags if cli._FLAGS[f].get("required")]
    chosen = draw(st.permutations(required + draw(st.lists(st.sampled_from(flags), max_size=3))))
    words = []
    for flag in chosen:
        name = flag[:draw(st.integers(3, len(flag)))]
        value = draw(st.one_of(GOOD.get(flag, VALUES), VALUES))
        words.append(draw(st.sampled_from([[name, value], f"{name}={value}"])))
    for word in draw(st.lists(WORDS, max_size=2)):
        words.insert(draw(st.integers(0, len(words))), word)
    return [command, *flatten(words)]


ARGVS = st.one_of(
    command_lines(),
    st.tuples(st.sampled_from([*cli._COMMANDS, "bogus"]), st.lists(WORDS, max_size=8))
    .map(lambda t: [t[0], *flatten(t[1])]),
    st.lists(WORDS, max_size=6).map(flatten),
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argv=ARGVS)
@example(argv=[])
@example(argv=["--help"])
@example(argv=["budget", "--config", "x", "-h"])
@example(argv=["budget", "--conf", "x"])
@example(argv=["budget", "--config", "x", "--c", "y"])
@example(argv=["budget", "--config=x", "--f=records"])
@example(argv=["budget", "--config", "x", "--format", "bad"])
@example(argv=["budget", "--config", "x", "--seed", "3"])
@example(argv=["sweep", "--config", "x", "--a", "q", "--r", "1:2:2"])
@example(argv=["sweep", "--config", "x", "--axis", "q", "--range", "-5:1:3"])
@example(argv=["sweep", "--config", "x", "--axis", "q", "--range=-5:1:3"])
@example(argv=["sweep", "--config", "x", "--axis", "q"])
@example(argv=["lineshape", "--config", "x", "--seed", "-1"])
@example(argv=["lineshape", "--config", "x", "--seed", "1_0"])
@example(argv=["lineshape", "--config", "x", "--seed", "1.5"])
@example(argv=["lineshape", "--config", "x", "--seed", "-1", "--seed", "x"])
@example(argv=["budget", "-h", "--=x"])
@example(argv=["budget", "--config", "-h"])
@example(argv=["budget", "-hh"])
@example(argv=["budget", "-hx"])
@example(argv=["budget", "-=x", "-h"])
@example(argv=["-h=h"])
@example(argv=["budget", "--help=3"])
@example(argv=["-x", "budget", "--config", "x", "-h"])
@example(argv=["--config", "x", "budget"])
@example(argv=["--", "budget", "--config", "x"])
@example(argv=["budget", "--config", "x", "--", "--out", "y"])
@example(argv=["budget", "--config", "--", "x"])
def test_parser_reads_argv_as_argparse_does(argv):
    result, out, err = outcome(cli.parse_args, argv)
    expected, _, _ = outcome(ORACLE.parse_args, argv)
    assert result == expected
    if result == 0:
        assert out.startswith("usage: wireqls") and err == ""
    elif result == 2:
        usage, error = err.splitlines()
        assert out == "" and usage.startswith("usage: wireqls")
        assert error.startswith("wireqls") and ": error: " in error


@pytest.mark.parametrize("argv, error", [
    ([], "wireqls: error: the following arguments are required: command"),
    (["budget", "--config", "x", "--seed", "3"],
     "wireqls: error: unrecognized arguments: --seed 3"),
    (["sweep", "--config", "x", "--axis", "q", "--range", "-5:1:3"],
     "wireqls sweep: error: argument --range: expected one argument"),
    (["lineshape", "--config", "x", "--seed", "1.5"],
     "wireqls lineshape: error: argument --seed: invalid value: '1.5'"),
    (["budget", "-h", "--=x"],
     "wireqls budget: error: ambiguous option: --=x could match --help, --config,"
     " --out, --format"),
])
def test_usage_error_is_one_usage_line_and_one_error_line(argv, error):
    status, out, err = outcome(cli.parse_args, argv)
    assert (status, out) == (2, "")
    assert err.splitlines()[1:] == [error]


def test_help_lists_every_command_and_flag():
    status, out, _ = outcome(cli.parse_args, ["-h"])
    assert status == 0
    for name, (_, help_text, flags) in cli._COMMANDS.items():
        assert f"  {name}" in out and help_text in out
        assert all(flag in out for flag in flags)
    for flag, spec in cli._FLAGS.items():
        assert f"  {flag}" in out and spec["help"] in out


@pytest.mark.parametrize("flag", ["--config", "--out", "--format", "--seed"])
def test_a_joined_double_dash_is_the_flags_text(flag):
    # argparse drops the "--" of `--flag=--` and stores [], a list no command
    # can read (`budget --config=--` ended in a TypeError traceback); here
    # the text after `=` is the value, whatever it is
    argv = ["lineshape" if flag == "--seed" else "budget", "--config", "x", f"{flag}=--"]
    assert outcome(ORACLE.parse_args, argv)[0][flag[2:]] == []
    result = outcome(cli.parse_args, argv)[0]
    if flag in ("--format", "--seed"):  # not a format, not an int
        assert result == 2
    else:
        assert result[flag[2:]] == "--"
