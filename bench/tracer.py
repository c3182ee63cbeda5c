"""In-process tracer for the firmprod layers, installed from outside the package.

:class:`Tracer` replaces the public functions of the traced modules with
timing wrappers in every ``firmprod`` module namespace that binds them, and
``Dataset.__init__`` on the class. Python resolves module globals at call
time, so calls from one module into another (``fit_by_stratum`` ->
``fit_cobb_douglas`` -> ``log_design``) go through the wrappers too.
:meth:`Tracer.uninstall` puts every original back.

Each wrapped call pushes a frame on a stack; when it returns, its duration
is added to its parent's child time, so self time is duration minus the
part the children cover. Calls of the functions in :data:`PER_RECORD` are
aggregated into a count and a total; every other call is kept as a span
(name, start, end, parent, workload, command) in memory.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Traced modules, by the layer name used in metric names.
MODULES = {
    "ingest": "firmprod.ingest",
    "measures": "firmprod.measures",
    "production": "firmprod.production",
    "pareto": "firmprod.pareto",
    "equilibrium": "firmprod.equilibrium",
    "synth": "firmprod.synth",
    "emit": "firmprod._emit",
}

#: Leaf helpers called per cell or per record inside a traced function. They
#: stay unwrapped to keep the overhead down; their time is their caller's.
UNWRAPPED = {"emit.format_cell", "measures.gross_margin", "measures.added_value",
             "equilibrium.output"}

#: Functions called once per record or per stratum: counted, not kept as spans.
PER_RECORD = {
    "ingest.Dataset", "measures.labor_productivity", "measures.gdp_coverage",
    "production.log_design", "production.fit_log_design", "production.fit_cobb_douglas",
    "production.classify_returns", "equilibrium.marginal_labor_productivity",
}


def _count_parse(counters: Counter, result, args, kwargs) -> None:
    counters["ingest.rows_read"] += len(result.dataset) + result.n_skipped
    counters["ingest.rows_skipped"] += result.n_skipped


def _count_strata(counters: Counter, result, args, kwargs) -> None:
    counters["production.strata_failed"] += len(result[1])


def _count_iterations(counters: Counter, result, args, kwargs) -> None:
    counters["equilibrium.iterations"] += result.iterations


def _count_table(counters: Counter, result, args, kwargs) -> None:
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    counters["emit.rows_written"] += len(rows)
    counters["emit.bytes_written"] += result.stat().st_size


#: Counters read off the results of outermost calls.
RESULT_HOOKS = {
    "ingest.parse_firm_records": _count_parse,
    "production.fit_by_stratum": _count_strata,
    "equilibrium.simulate_reallocation": _count_iterations,
    "emit.write_table": _count_table,
}


@dataclass
class Stat:
    calls: int = 0   # outermost calls (a recursive call is not counted again)
    busy_s: float = 0.0  # wall time of outermost calls
    self_s: float = 0.0  # wall time minus the time of wrapped callees


@dataclass
class _Frame:
    span_id: int | None  # nearest enclosing kept span
    child_s: float = 0.0


@dataclass
class Tracer:
    workload: str = ""
    command: str = ""
    spans: list[dict] = field(default_factory=list)
    stats: dict[tuple[str, str], Stat] = field(default_factory=dict)  # (command, name)
    counters: Counter = field(default_factory=Counter)
    names: tuple[str, ...] = ()  # traced functions, set by install()
    _stack: list[_Frame] = field(default_factory=list)
    _open: Counter = field(default_factory=Counter)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    # -- installation -------------------------------------------------------

    def targets(self) -> dict[str, tuple[object, str, object]]:
        """name -> (owner, attribute, original) for every function to wrap."""
        found: dict[str, tuple[object, str, object]] = {}
        for layer, module_name in MODULES.items():
            module = sys.modules[module_name]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module_name
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    found[name] = (module, attr, obj)
        dataset = sys.modules[MODULES["ingest"]].Dataset
        found["ingest.Dataset"] = (dataset, "__init__", dataset.__init__)
        return found

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = self.targets()
        self.names = tuple(targets)
        wrappers = {id(orig): self._wrap(name, orig) for name, (_, _, orig) in targets.items()}
        for name, (owner, attr, orig) in targets.items():
            if isinstance(owner, type):
                self._replace(owner, attr, wrappers[id(orig)])
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "firmprod"
                                      or module_name.startswith("firmprod.")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._replace(module, attr, wrappers[id(obj)])

    def _replace(self, owner: object, attr: str, new: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        keep_span = name not in PER_RECORD
        hook = RESULT_HOOKS.get(name)
        stack, open_names, stats = self._stack, self._open, self.stats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent_span = stack[-1].span_id if stack else None
            span_id = len(self.spans) if keep_span else parent_span
            if keep_span:
                self.spans.append({})  # reserve the id; filled in below
            frame = _Frame(span_id)
            stack.append(frame)
            outermost = open_names[name] == 0
            open_names[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counters[f"{name}.raised"] += 1
                raise
            finally:
                end = time.perf_counter()
                open_names[name] -= 1
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1].child_s += duration
                stat = stats.get((self.command, name))
                if stat is None:
                    stat = stats[(self.command, name)] = Stat()
                stat.self_s += duration - frame.child_s
                if outermost:
                    stat.calls += 1
                    stat.busy_s += duration
                if keep_span:
                    self.spans[span_id] = {
                        "name": name, "start": start, "end": end, "parent": parent_span,
                        "workload": self.workload, "command": self.command,
                    }
            if hook is not None and outermost:
                hook(self.counters, result, args, kwargs)
            return result

        return wrapper

    @contextmanager
    def command_span(self, command: str):
        """Open the ``cli.<command>`` span around one in-process CLI call."""
        self.command = command
        name = f"cli.{command}"
        span_id = len(self.spans)
        self.spans.append({})
        frame = _Frame(span_id)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            stat = self.stats.setdefault((command, name), Stat())
            stat.calls += 1
            stat.busy_s += end - start
            stat.self_s += end - start - frame.child_s
            self.spans[span_id] = {"name": name, "start": start, "end": end, "parent": None,
                                   "workload": self.workload, "command": command}

    def totals(self) -> dict[str, Stat]:
        """Stats summed over commands, by function name."""
        out: dict[str, Stat] = {}
        for (_, name), stat in self.stats.items():
            total = out.setdefault(name, Stat())
            total.calls += stat.calls
            total.busy_s += stat.busy_s
            total.self_s += stat.self_s
        return out

    def reset(self) -> None:
        """Forget recorded numbers (the wrappers stay installed)."""
        self.spans.clear()
        self.stats.clear()
        self.counters.clear()


def child_overruns(spans: list[dict]) -> list[str]:
    """Spans whose direct children add up to more than the span itself."""
    totals: dict[int, float] = {}
    for span in spans:
        if span.get("parent") is not None:
            totals[span["parent"]] = totals.get(span["parent"], 0.0) + span["end"] - span["start"]
    return [
        f"{spans[i]['name']}: children {total:.6f} s > span "
        f"{spans[i]['end'] - spans[i]['start']:.6f} s"
        for i, total in totals.items()
        if total > spans[i]["end"] - spans[i]["start"]
    ]
