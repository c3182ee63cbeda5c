"""firmprod benchmark: one workload, run end to end from a seed.

Usage, from the root of a checkout::

    python3 bench/run.py --workload panel-clean --seed 1 --seconds 40 --trace 0

The benchmark generates the workload's inputs from ``--seed``, then runs the
workload's sequence of ``firmprod`` subcommands as child processes, one at a
time from this single client (a closed loop), over and over for
``--seconds``, and checks every command's outputs against the ground truth
the generator planted. Between pipelines it runs the fixed program
``reference.py`` and reports each pipeline's wall time as a multiple of the
reference's, which the host's changes in speed move far less than the wall
time itself. With ``--trace 1`` it runs the same sequence
in-process instead, with the tracer of ``tracer.py`` installed, and reports
per-layer numbers. The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
(every sample, table digests, environment, spans) goes to
``bench/results/``. The package is imported from ``src/`` of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: The inputs are generated before the first pipeline and again after each
#: one, each time for at least this long; setup_s is the median generation.
#: Spreading generations over the run exposes them to the same changes in
#: machine speed as the pipelines.
SETUP_SLOT_S = 0.25
#: ``firmprod --version`` runs per traced run; cli.startup_s is their median.
STARTUP_REPS = 5
#: Every child is killed and the run fails once this much time has passed.
HARD_LIMIT_S = 170.0


class BenchError(Exception):
    """No valid result: the time limit passed, generation was not
    deterministic, or a declared metric was not measured."""


@dataclass
class CommandRun:
    command: str
    wall_s: float
    exit_code: int | str
    maxrss_kb: int
    stdout: str
    stderr: str


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    pct = math.floor(100 * (1 - 10 / n))
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def summarize(samples: list[float]) -> dict:
    tail = tail_percentile(samples)
    return {
        "median": statistics.median(samples),
        "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "n": len(samples),
        "samples": samples,
    }


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "firmprod").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(workload: str, seed: int, sizes: dict, inputs: Path) -> dict:
    from importlib.metadata import version

    import numpy

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": version("click"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "sizes": sizes,
        "input_bytes": {p.name: p.stat().st_size for p in sorted(inputs.iterdir())},
        "client": "closed loop, one client, commands run one at a time",
    }


class Runner:
    """Generates one workload's inputs and runs its command sequence."""

    def __init__(self, workload: str, seed: int, work: Path, sizes: dict | None = None):
        import workloads

        self.workload = workload
        self.seed = seed
        self.work = work
        self.sizes = sizes or workloads.SIZES[workload]
        self.steps = workloads.commands(workload)
        self.truth: dict = {}
        self.reference: dict[str, dict[str, str]] = {}  # command -> table digests
        self.input_digests: dict[str, str] | None = None
        self.reference_output: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.hard_deadline = time.perf_counter() + HARD_LIMIT_S

    # -- setup --------------------------------------------------------------

    def setup(self, min_s: float = 0.0) -> list[float]:
        """Generate the inputs once, and again until ``min_s`` seconds are spent.

        Every generation must give the same files as the first.
        """
        import checks
        import workloads

        times: list[float] = []
        while not times or sum(times) < min_s:
            inputs = self.work / "inputs"
            shutil.rmtree(inputs, ignore_errors=True)
            start = time.perf_counter()
            truth = workloads.setup(self.workload, inputs, self.seed, self.sizes)
            times.append(time.perf_counter() - start)
            files = checks.digests(inputs)
            if self.input_digests is None:
                self.input_digests, self.truth = files, truth
            elif files != self.input_digests:
                raise BenchError("input generation is not deterministic for this seed")
        return times

    # -- one command --------------------------------------------------------

    def spawn(self, argv: list[str]) -> CommandRun:
        """Run ``firmprod <argv>`` as a child and take its own rusage."""
        return self._spawn([sys.executable, "-m", "firmprod.cli", *argv], argv[0])

    def run_reference(self) -> float:
        """Run ``reference.py`` as a child; its wall time, checked output and all."""
        run = self._spawn([sys.executable, str(BENCH / "reference.py")], "reference")
        if run.exit_code != 0:
            raise BenchError(f"reference program failed: {run.stderr.strip()[-500:]}")
        if self.reference_output is None:
            self.reference_output = run.stdout
        elif run.stdout != self.reference_output:
            raise BenchError("reference program printed a different checksum")
        return run.wall_s

    def _spawn(self, cmd: list[str], name: str) -> CommandRun:
        logs = self.work / "logs"
        logs.mkdir(exist_ok=True)
        limit = self.hard_deadline - time.perf_counter()
        if limit <= 0:
            raise BenchError("out of time")
        with open(logs / "stdout", "w+b") as out, open(logs / "stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            text_out = out.read().decode("utf-8", "replace")
            text_err = err.read().decode("utf-8", "replace")
        return CommandRun(name, wall, proc.returncode, usage.ru_maxrss, text_out, text_err)

    def call(self, cli_main, argv: list[str], tracer=None) -> CommandRun:
        """Run ``firmprod <argv>`` in this process, optionally inside a command span."""
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.work)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                start = time.perf_counter()
                try:
                    if tracer is None:
                        code = cli_main(argv, standalone_mode=False)
                    else:
                        with tracer.command_span(argv[0]):
                            code = cli_main(argv, standalone_mode=False)
                except Exception as exc:  # reported as a failed invocation
                    code = repr(exc)
                wall = time.perf_counter() - start
        finally:
            os.chdir(cwd)
        return CommandRun(argv[0], wall, code or 0, 0, out.getvalue(), err.getvalue())

    # -- one pipeline -------------------------------------------------------

    def pipeline(self, run_one) -> tuple[float, list[CommandRun]]:
        """Run every command once, then check what each wrote."""
        import checks

        shutil.rmtree(self.work / "out", ignore_errors=True)
        runs = []
        start = time.perf_counter()
        for _, argv in self.steps:
            runs.append(run_one(argv))
        wall = time.perf_counter() - start
        for run in runs:
            self.attempted += 1
            out_dir = self.work / "out" / run.command
            if run.exit_code != 0:
                problems = [f"exit code {run.exit_code}: {run.stderr.strip()[-500:]}"]
            else:
                problems = checks.check(self.workload, run.command, out_dir, run.stdout,
                                        run.stderr, self.truth)
                tables = checks.digests(out_dir)
                reference = self.reference.setdefault(run.command, tables)
                if tables != reference:
                    problems.append("table digests differ from the first repetition")
            if problems:
                self.failed += 1
                self.problems.extend(f"{run.command}: {p}" for p in problems[:5])
        shutil.rmtree(self.work / "out", ignore_errors=True)
        return wall, runs


def _repeat(seconds: float, hard_deadline: float, once) -> None:
    """Call ``once`` until ``seconds`` are used up.

    A repetition starts only if one of median length still fits; at least
    one always runs.
    """
    deadline = time.perf_counter() + seconds
    walls: list[float] = []
    while True:
        start = time.perf_counter()
        once()
        now = time.perf_counter()
        walls.append(now - start)
        expected = statistics.median(walls)
        if now + expected > deadline or now + 2 * expected > hard_deadline:
            return


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics from child processes.

    The reference program runs before the first pipeline and after each
    one; a pipeline's ratio is its wall time over the mean of the two
    reference times around it.
    """
    setup_times = runner.setup(SETUP_SLOT_S)
    runner.spawn(["--version"])  # compile bytecode and warm the file cache first
    runner.run_reference()
    references = [runner.run_reference()]
    pipelines: list[float] = []
    ratios: list[float] = []
    per_command: dict[str, list[float]] = {name: [] for name, _ in runner.steps}
    peak_kb = 0

    def once() -> None:
        nonlocal peak_kb
        wall, runs = runner.pipeline(runner.spawn)
        for run in runs:
            per_command[run.command].append(run.wall_s)
            peak_kb = max(peak_kb, run.maxrss_kb)
        references.append(runner.run_reference())
        pipelines.append(wall)
        ratios.append(wall / statistics.mean(references[-2:]))
        setup_times.extend(runner.setup(SETUP_SLOT_S))

    _repeat(seconds, runner.hard_deadline, once)
    values = {
        "pipeline_vs_reference": statistics.median(ratios),
        "pipeline_s": statistics.median(pipelines),
        "reference_s": statistics.median(references),
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": statistics.median(setup_times),
        "error_rate": runner.failed / max(runner.attempted, 1),
    }
    for name, walls in per_command.items():
        values[f"{name.replace('-', '_')}_s"] = statistics.median(walls)
    detail = {"pipeline_vs_reference": summarize(ratios), "pipeline_s": summarize(pipelines),
              "reference_s": summarize(references), "setup_s": summarize(setup_times)}
    detail.update({f"{name.replace('-', '_')}_s": summarize(w) for name, w in per_command.items()})
    return values, detail


def layer_values(tracer, commands) -> dict[str, float]:
    """Per-layer numbers of one traced pipeline, by metric name.

    Every traced function and every CLI subcommand gets a value; one that
    did no work in this workload reads 0.
    """
    values: dict[str, float] = {}
    for name in tracer.names:
        values[f"{name}.s"] = 0.0
        values[f"{name}.calls"] = 0
    for command in commands:
        for kind in ("s", "calls", "self_s"):
            values[f"cli.{command}.{kind}"] = 0
    for name, stat in tracer.totals().items():
        values[f"{name}.s"] = stat.busy_s
        values[f"{name}.calls"] = stat.calls
        if name.startswith("cli."):
            values[f"{name}.self_s"] = stat.self_s
    counters = tracer.counters
    for name in ("ingest.rows_read", "ingest.rows_skipped", "production.strata_failed",
                 "equilibrium.iterations", "emit.rows_written", "emit.bytes_written"):
        values[name] = counters[name]
    values["measures.records_excluded"] = counters["measures.labor_productivity.raised"]
    parse_s = values.get("ingest.parse_firm_records.s", 0.0)
    rows = counters["ingest.rows_read"]
    values["ingest.us_per_row"] = 1e6 * parse_s / rows if rows else 0.0
    sim_s = values.get("equilibrium.simulate_reallocation.s", 0.0)
    iterations = counters["equilibrium.iterations"]
    values["equilibrium.us_per_iteration"] = 1e6 * sim_s / iterations if iterations else 0.0
    return values


def largest_layers(tracer) -> dict[str, dict]:
    """For each command, the traced function with the most busy time."""
    out: dict[str, dict] = {}
    commands = {cmd: stat.busy_s for (cmd, name), stat in tracer.stats.items()
                if name == f"cli.{cmd}"}
    for (cmd, name), stat in tracer.stats.items():
        if name.startswith("cli.") or cmd not in commands:
            continue
        best = out.get(cmd)
        if best is None or stat.busy_s > best["s"]:
            out[cmd] = {"layer": name, "s": stat.busy_s,
                        "share": stat.busy_s / commands[cmd] if commands[cmd] else 0.0}
    return out


def traced_pipeline(runner: Runner, cli_main, tracer) -> float:
    """One in-process pipeline with the tracer installed; the tracer keeps its record."""
    tracer.reset()
    tracer.install()
    try:
        wall, _ = runner.pipeline(lambda argv: runner.call(cli_main, argv, tracer))
    finally:
        tracer.uninstall()
    return wall


def run_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from in-process runs with and without the tracer."""
    import tracer as tracing
    from firmprod.cli import main as cli_main

    runner.setup()
    startup = [runner.spawn(["--version"]).wall_s for _ in range(STARTUP_REPS)]
    tracer = tracing.Tracer(workload=runner.workload)
    untraced: list[float] = []
    traced: list[float] = []
    samples: dict[str, list[float]] = {}
    spans: list[dict] = []
    largest: dict = {}
    run_start = time.perf_counter()

    def once() -> None:
        nonlocal largest
        wall, _ = runner.pipeline(lambda argv: runner.call(cli_main, argv))
        untraced.append(wall)
        traced_wall = traced_pipeline(runner, cli_main, tracer)
        traced.append(traced_wall)
        for name, value in layer_values(tracer, cli_main.commands).items():
            samples.setdefault(name, []).append(value)
        overruns = tracing.child_overruns(tracer.spans)
        if overruns:
            runner.failed += 1
            runner.problems.extend(overruns[:5])
        offset = len(spans)
        spans.extend({**s, "start": s["start"] - run_start, "end": s["end"] - run_start,
                      "parent": None if s["parent"] is None else s["parent"] + offset}
                     for s in tracer.spans)
        if not largest:
            largest = largest_layers(tracer)

    _repeat(seconds, runner.hard_deadline, once)
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["cli.startup_s"] = statistics.median(startup)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    values["error_rate"] = runner.failed / max(runner.attempted, 1)
    detail = {
        "untraced_pipeline_s": summarize(untraced),
        "traced_pipeline_s": summarize(traced),
        "cli.startup_s": summarize(startup),
        "largest_layer_per_command": largest,
        "spans": spans,
    }
    return values, detail


def _resolve(values: dict, declared: list[dict]) -> dict:
    out = {}
    for metric in declared:
        name = metric["name"]
        if name not in values:
            raise BenchError(f"metric {name!r} was not measured")
        out[name] = {"value": values[name], "unit": metric["unit"]}
    return out


def _unit(name: str) -> str:
    """Unit of a reported number that BENCHMARK.json does not declare."""
    if name == "error_rate":
        return "share of attempted"
    if name == "pipeline_vs_reference":
        return "ratio"
    if name.endswith(".calls"):
        return "count"
    return "s" if name.endswith(("_s", ".s")) else ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "firmprod" / "cli.py").is_file():
        print(f"error: no firmprod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import firmprod
    import workloads

    if Path(firmprod.__file__).resolve().parent != SRC / "firmprod":
        print(f"error: imported firmprod from {firmprod.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, work)
    try:
        measure = run_traced if args.trace else run_untraced
        values, detail = measure(runner, args.seconds)
        env = environment(args.workload, args.seed, runner.sizes, work / "inputs")
        metrics = _resolve(values, spec["per_layer" if args.trace else "end_to_end"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    truth = {k: v for k, v in runner.truth.items() if k not in ("scenario", "oracle", "strata")}
    record = {
        **result,
        "environment": env,
        "truth": truth,
        "all_metrics": values,
        "detail": detail,
        "digests": runner.reference,
        "problems": runner.problems,
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, default=float) + "\n",
                                encoding="utf-8")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced, in-process' if args.trace else 'untraced, child processes'})")
    for key, value in sorted(values.items()):
        extra = ""
        if key in detail and isinstance(detail[key], dict) and "n" in detail[key]:
            d = detail[key]
            tail = d["tail"]
            extra = (f"  (median of n={d['n']}"
                     + (f", p{tail['percentile']} {tail['value']:.4g}" if tail else "") + ")")
        print(f"  {key:42s} {value:.6g} {units.get(key) or _unit(key)}{extra}")
    for problem in runner.problems[:20]:
        print(f"  problem: {problem}")
    print(f"  details: {results / name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
