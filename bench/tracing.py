"""In-process spans around the public functions of each wireqls module.

`Tracer.install` replaces each public function of the package's modules by
a wrapper, as a module attribute, so calls between modules and within a
module (which look the name up at call time) both record a span: name,
start, end, parent span and command id. Spans stay in memory until the
run writes them out. Per-cycle helpers are left alone, because a wrapper
around every Monte Carlo cycle would distort the kernel it measures.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from dataclasses import dataclass

MODULES = ("cli", "config", "circuit", "magnetics", "spectroscopy", "dynamics", "protocol")
PER_CYCLE = frozenset({"protocol.run_cycle", "protocol.drive_probability", "protocol.readout_shift"})
# cli.main stays the only cli span, so its self time holds argument
# parsing, report formatting and output emission
CLI_WRAPPED = ("main",)


def _liouvillian_attrs(args, kwargs) -> dict:
    n_max = kwargs.get("n_max", args[1] if len(args) > 1 else None)
    return {"n_max": n_max}


ATTRS = {"dynamics.liouvillian": _liouvillian_attrs}


@dataclass(frozen=True, slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span
    command: int         # id of the command the span belongs to
    error: str | None = None   # exception class that left the span
    attrs: dict | None = None


class Tracer:
    """Installs and removes the wrappers; collects spans in `spans`."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.command = -1
        self._stack: list[int] = []
        self._originals: list[tuple[types.ModuleType, str, object]] = []

    def targets(self):
        """(module, attribute, span name) of every function to wrap."""
        for short in MODULES:
            module = importlib.import_module(f"wireqls.{short}")
            names = CLI_WRAPPED if short == "cli" else sorted(vars(module))
            for attr in names:
                fn = getattr(module, attr, None)
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in PER_CYCLE
                        or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != module.__name__):
                    continue
                yield module, attr, name

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module, attr, name in self.targets():
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in self._originals:
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        extract = ATTRS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = Span(name, start, end, parent, self.command, error,
                                  extract(args, kwargs) if extract else None)

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted((spans[c].start, spans[c].end) for c in children[i]):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


@dataclass
class FunctionStats:
    calls: int = 0
    inclusive: float = 0.0
    self_time: float = 0.0


def function_stats(spans: list[Span]) -> dict[str, FunctionStats]:
    """Calls, inclusive time and self time per span name."""
    stats: dict[str, FunctionStats] = {}
    for s, own in zip(spans, self_times(spans)):
        st = stats.setdefault(s.name, FunctionStats())
        st.calls += 1
        st.inclusive += s.end - s.start
        st.self_time += own
    return stats


def raised(spans: list[Span], error: str) -> int:
    """Spans that raised `error` themselves rather than passing it on."""
    passed_on = {s.parent for s in spans if s.error == error and s.parent is not None}
    return sum(1 for i, s in enumerate(spans) if s.error == error and i not in passed_on)


def parse_importtime(stderr: str, packages: tuple[str, ...]) -> dict[str, float]:
    """Cumulative seconds per top-level package from `python -X importtime`.

    A package's time is the sum of the cumulative times of its outermost
    entries, so a module imported inside another of the same package is
    not counted twice.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(cum_us)))
    totals = dict.fromkeys(packages, 0.0)
    stack: list[tuple[int, str]] = []
    # importtime prints children before parents; walk backwards for pre-order
    for depth, name, cum_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and all(a.split(".")[0] != top for _, a in stack):
            totals[top] += cum_us * 1e-6
        stack.append((depth, name))
    return totals
