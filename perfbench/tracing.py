"""Outside-in tracing of foldback's public functions.

The tracer wraps the functions listed in LAYERS from the benchmark's
side: each wrapper is installed under every name, in every loaded
foldback module, that is bound to the original function (so both
`consistency.ce` and `ce_ops.ce` are traced), and `remove` restores
the originals. Nothing under `src/` is edited.

Span functions record a span (name, start, end, parent span, request)
in flat arrays that stay in memory until `write` saves them. The
hottest leaves (LEAVES) record no span; they add their call count and
duration to per-function totals instead. Self time is a call's
duration minus the time its traced callees cover, kept as each call
returns, for span functions and leaves alike. A wrapper's own
bookkeeping counts as covered by a callee, so it falls in no
function's self time: only `trace.overhead_ratio` shows it.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

from workloads import sweep_cells

LAYERS = {
    "cli": ("loads_exact", "parse_problem", "cmd_check", "cmd_evaluate",
            "cmd_consensus", "encode_verdict", "encode_law_report", "emit_report"),
    "consistency": ("check_sequential_exhaustive", "check_sequential",
                    "check_set_order_conditions", "check_ev_properties",
                    "check_gamma_laws", "enumerate_lawful_gamma_tables"),
    "ce_ops": ("ce", "ce_vacuous", "gamma_apply", "np_prefer"),
    "plausibility": ("is_vacuous", "evaluate", "restrict", "condition",
                     "expectation_bounds"),
    "acts": ("condition_act", "outcome_set", "enumerate_partitions"),
    "rationals": ("ensure_unit", "parse_rational", "format_rational"),
    "consensus": ("consensus_check", "certainty_check", "limit_check"),
}
# called hundreds of thousands of times per sweep request: totals only, no spans
LEAVES = frozenset({"ensure_unit", "outcome_set", "gamma_apply", "format_rational"})
# the share of calls that repeat an earlier (argument tuple) shows what a memo could save
DISTINCT = frozenset({"ce", "ce_vacuous"})
# constructions counted through the dataclass __post_init__ hook
COUNTED_CLASSES = (("plausibility", "ZPair"), ("acts", "Act"))
REQUEST = "bench.request"


def _witnesses(reports) -> int:
    return sum(len(report.witnesses) for report in reports)


class Tracer:
    """Wrappers, span buffers and per-function totals for one traced batch."""

    def __init__(self) -> None:
        self.functions = [f"{module}.{name}"
                          for module, names in LAYERS.items() for name in names]
        self.names = self.functions + [REQUEST]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.distinct = {name: set() for name in DISTINCT}
        self.extras = {
            "consistency.check_sequential_exhaustive.sweep_cells": 0,
            "consistency.check_sequential_exhaustive.failures": 0,
            "consistency.check_set_order_conditions.witnesses": 0,
            "consistency.check_ev_properties.witnesses": 0,
            "consistency.check_gamma_laws.witnesses": 0,
            "cli.emit_report.report_bytes": 0,
        }
        self.constructed = {f"{module}.{cls}.new": 0 for module, cls in COUNTED_CLASSES}
        # one row per span, column-wise
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open calls: [time covered by traced callees, span their callees nest in]
        self._frames: list[list] = [[0.0, -1]]
        self.request = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "foldback" or name.startswith("foldback."))]
        try:
            for module, names in LAYERS.items():
                home = sys.modules[f"foldback.{module}"]
                for name in names:
                    original = getattr(home, name)
                    wrapper = self._wrap(original, self.names.index(f"{module}.{name}"),
                                         name)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                self._patched.append((mod, attr, original))
            for module, cls_name in COUNTED_CLASSES:
                cls = getattr(sys.modules[f"foldback.{module}"], cls_name)
                original = cls.__dict__["__post_init__"]
                cls.__post_init__ = self._counted(original, f"{module}.{cls_name}.new")
                self._patched.append((cls, "__post_init__", original))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- wrappers ----------------------------------------------------------

    def _counted(self, original, key: str):
        constructed = self.constructed
        frames = self._frames

        def __post_init__(obj):
            entry = perf_counter()
            constructed[key] += 1
            # the counting is the tracer's; the original hook is the caller's
            frames[-1][0] += perf_counter() - entry
            return original(obj)
        return __post_init__

    def _wrap(self, fn, index: int, name: str):
        frames = self._frames
        calls, self_s = self.calls, self.self_s
        seen = self.distinct.get(name)
        after = self._after(name)
        record = name not in LEAVES
        span_name, span_parent = self.span_name.append, self.span_parent.append
        span_request = self.span_request.append
        starts, ends = self.span_start, self.span_end
        tracer = self

        def traced(*args, **kwargs):
            entry = perf_counter()
            if seen is not None:
                try:
                    seen.add(args)
                except TypeError:
                    pass
            parent = frames[-1][1]
            if record:
                span = len(ends)
                span_name(index)
                span_parent(parent)
                span_request(tracer.request)
                starts.append(0.0)
                ends.append(0.0)
                frame = [0.0, span]
            else:
                frame = [0.0, parent]
            frames.append(frame)
            returned = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = perf_counter()
                frames.pop()
                calls[index] += 1
                self_s[index] += end - start - frame[0]
                if record:
                    starts[span] = start
                    ends[span] = end
                if returned and after is not None:
                    after(args, result)
                # the call and all of this wrapper's bookkeeping, for the caller
                frames[-1][0] += perf_counter() - entry
            return result

        return functools.update_wrapper(traced, fn)

    def _after(self, name: str):
        extras = self.extras
        if name == "check_sequential_exhaustive":
            def after(args, failures):
                cfg = args[1]
                extras["consistency.check_sequential_exhaustive.sweep_cells"] += sweep_cells(
                    cfg.denominator, cfg.sizes, len(cfg.frameworks))
                extras["consistency.check_sequential_exhaustive.failures"] += len(failures)
            return after
        if name in ("check_set_order_conditions", "check_ev_properties", "check_gamma_laws"):
            key = f"consistency.{name}.witnesses"

            def after(args, reports):
                extras[key] += _witnesses(reports)
            return after
        if name == "emit_report":
            def after(args, text):
                extras["cli.emit_report.report_bytes"] += len(text.encode("utf-8"))
            return after
        return None

    # -- requests ----------------------------------------------------------

    def begin_request(self, number: int) -> None:
        """Open the root span of one request; its callees nest under it."""
        self.request = number
        span = len(self.span_end)
        self.span_name.append(self.names.index(REQUEST))
        self.span_parent.append(-1)
        self.span_request.append(number)
        self.span_end.append(0.0)
        self.span_start.append(perf_counter())
        self._frames.append([0.0, span])

    def end_request(self) -> None:
        end = perf_counter()
        frame = self._frames.pop()
        self.span_end[frame[1]] = end
        self.request = -1

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for index, name in enumerate(self.functions):
            out[f"{name}.calls"] = (self.calls[index], "count")
            out[f"{name}.self_s"] = (self.self_s[index], "s")
            short = name.split(".", 1)[1]
            if short in DISTINCT:
                calls = self.calls[index]
                ratio = len(self.distinct[short]) / calls if calls else 0.0
                out[f"{name}.distinct_ratio"] = (ratio, "ratio")
        for key, value in self.extras.items():
            out[key] = (value, "count" if not key.endswith("report_bytes") else "bytes")
        for key, value in self.constructed.items():
            out[key] = (value, "count")
        return out

    def spans(self) -> int:
        return len(self.span_end)

    def write(self, directory: Path) -> None:
        """Save the spans column-wise: index.json plus one binary file per column."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = {"name": self.span_name, "parent": self.span_parent,
                   "request": self.span_request, "start": self.span_start,
                   "end": self.span_end}
        for column, values in columns.items():
            with open(directory / f"{column}.bin", "wb") as handle:
                values.tofile(handle)
        index = {
            "spans": self.spans(),
            "names": self.names,
            "columns": {column: values.typecode for column, values in columns.items()},
            "clock": "time.perf_counter, seconds",
            "byteorder": sys.byteorder,
            "parent": "row of the enclosing span, -1 for a request root",
        }
        (directory / "index.json").write_text(json.dumps(index, indent=2) + "\n")

