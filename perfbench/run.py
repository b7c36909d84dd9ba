"""Benchmark of the gislat command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gislat is imported from ``src/``
and from nowhere else.  One client runs ``gislat.cli.main(argv)`` in this
process as a closed loop: each command starts when the previous one has
returned.  A run makes a fixed number of passes over the workload's cases,
set from ``--seconds`` and the workload's nominal pass cost, then checks
every answer.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
Times are rescaled to a reference host speed (see ``reference.py``); the
table also prints the raw pass wall time and the host speed.
The last line of standard output is one JSON object; the lines before it
are a readable table.  Exit status: 0 when every completed command gave
the right answer, 1 when one did not, 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
from checks import check
from tracing import LAYERS, Tracer, layer_metrics
from workloads import WORKLOADS, Case, Workload, render

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"  # inputs and DOT files, removed after the run
OUT = ROOT / ".perfbench_out"  # span dumps of traced runs

SETUP_PROBES = 9  # fresh interpreters whose set-up time is measured
SETUP_REFS = 5  # reference kernel calls before each set-up probe
REF_WINDOW = 2  # kernel calls on each side that set a command's host speed
CASE_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0  # no command starts later than this after start-up
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail
DEADLINE_PASSED = "run deadline passed"  # error of a command never started

perf = time.perf_counter


class UsageError(Exception):
    """The run cannot be made here; reported without a result line."""


class CaseTimeout(BaseException):
    """Raised by the alarm inside a command that overran its time."""


def require_sources() -> None:
    if not (SRC / "gislat" / "__init__.py").is_file():
        raise UsageError(f"no gislat sources at {SRC}")


def import_gislat() -> dict:
    """Import gislat from this checkout's ``src``; return its modules."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import gislat
    import gislat.cli  # noqa: F401  (loads every gislat module)

    if Path(gislat.__file__).resolve().parent != SRC / "gislat":
        raise UsageError(f"gislat was imported from {gislat.__file__}, not from {SRC}")
    return {k: m for k, m in sys.modules.items() if k == "gislat" or k.startswith("gislat.")}


def cached_callables(modules: dict) -> list:
    """Every ``functools.cache`` function in gislat, so repeated rounds
    redo their work instead of hitting a value-equal graph's cache."""
    found = {}
    for module in modules.values():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


# ------------------------------------------------------------------ inputs


@dataclass
class Execution:
    case: Case
    path: Path
    dot_path: Path
    names: list[str]


def prepare(workload: Workload, seed: int, passes: int, workdir: Path) -> list[list[Execution]]:
    """Write every pass's inputs.  Each execution gets its own relabeling
    and declaration order, drawn from the workload seed."""
    workdir.mkdir(parents=True, exist_ok=True)
    plan = []
    for p in range(passes):
        row = []
        for i, case in enumerate(workload.cases):
            rng = random.Random(f"{workload.name}/{seed}/{p}/{i}")
            text, names = render(case.shape, rng)
            path = workdir / f"p{p}-c{i}.graph"
            path.write_text(text, encoding="utf-8")
            row.append(Execution(case, path, workdir / f"p{p}-c{i}.dot", names))
        plan.append(row)
    return plan


# ------------------------------------------------------------------ running


@dataclass
class Outcome:
    execution: Execution
    latency: float
    cpu: float
    code: int | None
    stdout: str
    error: str | None  # crash or timeout: the command did not complete
    ref: float = 0.0  # reference kernel time just before the command; 0 if not run
    speed: float = 1.0  # host speed around the command, set by assign_speeds

    @property
    def scaled_latency(self) -> float:
        return self.latency * self.speed


@dataclass
class Pass:
    """One pass over the cases.  Wall and CPU time sum the commands alone,
    without the benchmark's own work between them, each rescaled to the
    reference host speed; ``raw_wall`` is not rescaled."""

    outcomes: list[Outcome]
    tracer: Tracer | None = None

    @property
    def wall(self) -> float:
        return sum(o.scaled_latency for o in self.outcomes)

    @property
    def cpu(self) -> float:
        return sum(o.cpu * o.speed for o in self.outcomes)

    @property
    def raw_wall(self) -> float:
        return sum(o.latency for o in self.outcomes)

    @property
    def speed(self) -> float:
        """Host speed over the pass, weighted by command time."""
        raw = self.raw_wall
        return self.wall / raw if raw else 1.0


def assign_speeds(passes: list[Pass]) -> None:
    """Give each command the host speed from the median of the reference
    kernel calls nearest to it in time, across pass boundaries.  The median
    keeps one preempted kernel call from swaying it; the window follows
    drifts of a few seconds, which a per-pass or per-run speed would miss."""
    ran = [o for p in passes for o in p.outcomes if o.ref > 0]
    refs = [o.ref for o in ran]
    for k, o in enumerate(ran):
        o.speed = reference.speed(statistics.median(refs[max(0, k - REF_WINDOW): k + REF_WINDOW + 2]))


def _on_alarm(signum, frame):
    raise CaseTimeout


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Runner:
    def __init__(self, modules: dict, deadline: float) -> None:
        self.cli = modules["gislat.cli"]
        self.modules = modules
        self.caches = cached_callables(modules)
        self.deadline = deadline
        signal.signal(signal.SIGALRM, _on_alarm)

    def run_case(self, ex: Execution) -> Outcome:
        for fn in self.caches:
            fn.cache_clear()
        # Each command starts with no garbage left by the previous one, as
        # in a fresh process, so one command's collection is not charged to
        # the next.
        gc.collect()
        remaining = self.deadline - perf()
        if remaining <= 0:
            return Outcome(ex, 0.0, 0.0, None, "", DEADLINE_PASSED)
        ref = reference.measure()
        argv = ex.case.argv(str(ex.path), str(ex.dot_path))
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        signal.setitimer(signal.ITIMER_REAL, min(CASE_TIMEOUT_S, remaining))
        cpu0, start = _cpu_seconds(), perf()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except CaseTimeout:
            error = "timeout"
        except Exception as exc:  # a crash is a failed case, not a dead run
            error = type(exc).__name__
        finally:
            latency, cpu = perf() - start, _cpu_seconds() - cpu0
            signal.setitimer(signal.ITIMER_REAL, 0)
        return Outcome(ex, latency, cpu, code, out.getvalue(), error, ref)

    def run_pass(self, row: list[Execution], tracer: Tracer | None = None) -> Pass:
        if tracer is not None:
            tracer.install(self.modules)
        try:
            outcomes = [self.run_case(ex) for ex in row]
        finally:
            if tracer is not None:
                tracer.uninstall()
        return Pass(outcomes, tracer)


def warm_up(runner: Runner, workload: Workload, seed: int, workdir: Path) -> None:
    """Run the workload's smallest case once, untimed and unchecked."""
    text, names = render(workload.smoke.shape, random.Random(f"{workload.name}/{seed}/warm-up"))
    path = workdir / "warm-up.graph"
    path.write_text(text, encoding="utf-8")
    runner.run_case(Execution(workload.smoke, path, workdir / "warm-up.dot", names))


# ------------------------------------------------------------------ checking


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    failures: dict[str, int] = field(default_factory=dict)
    output_bytes: list[int] = field(default_factory=list)  # per pass
    digest: object = field(default_factory=hashlib.sha256)


def judge(passes: list[Pass], verdict: Verdict, expected: dict) -> None:
    """Check every outcome, count failures, and hash all output bytes."""
    for p in passes:
        nbytes = 0
        for o in p.outcomes:
            ex = o.execution
            verdict.attempted += 1
            dot = ex.dot_path.read_text(encoding="utf-8") if ex.case.dot and ex.dot_path.exists() else None
            blob = o.stdout.encode() + (dot or "").encode()
            nbytes += len(blob)
            verdict.digest.update(f"{ex.case.label}\0{o.code}\0{o.error}\0".encode() + blob)
            if o.error is not None:
                problems = [o.error]
            else:
                exp = dict(expected[id(ex.case)])
                exp["forked"] = sorted(ex.names[v] for v in exp["forked"])
                problems = check(ex.case, exp, o.code, o.stdout, dot)
                if problems:
                    verdict.wrong.append(f"{ex.case.label}: {'; '.join(problems)}")
            if problems:
                verdict.failed += 1
                key = f"{ex.case.label}: {problems[0]}"
                verdict.failures[key] = verdict.failures.get(key, 0) + 1
        verdict.output_bytes.append(nbytes)


# ------------------------------------------------------------------ metrics


def tail(samples: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least TAIL_BEYOND samples
    beyond it, and that percentile (nearest rank)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def case_medians(passes: list[Pass]) -> list[tuple[str, float]]:
    """Median rescaled latency of each case over the passes that completed it."""
    by_case: dict[str, list[float]] = {}
    for p in passes:
        for o in p.outcomes:
            if o.error is None:
                by_case.setdefault(o.execution.case.label, []).append(1000 * o.scaled_latency)
    return [(label, statistics.median(xs)) for label, xs in by_case.items()]


def measure_setup(args) -> list[float]:
    """Set-up time of fresh interpreters: start, import gislat, generate the
    inputs and warm up, up to the point where the first timed case would
    start.  Probes run one after another; each is rescaled by the median of
    the reference kernel calls made just before it."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe",
    ] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_PROBES):
        speed = reference.speed(statistics.median(reference.measure() for _ in range(SETUP_REFS)))
        start = perf()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        line = proc.stdout.readline()
        times.append((perf() - start) * speed)
        _, err = proc.communicate(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise UsageError(f"set-up probe failed: {err.strip()[-500:]}")
    return times


def end_to_end(passes: list[Pass], setup: list[float], verdict: Verdict) -> tuple[dict, list[str]]:
    lat = [o.scaled_latency for p in passes for o in p.outcomes if o.error is None]
    tail_value, tail_pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "case_p50_ms": (1000 * statistics.median_low(lat), "ms"),
        "case_tail_ms": (1000 * tail_value, "ms"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((verdict.attempted - verdict.failed) / verdict.attempted, "ratio"),
    }
    notes = [
        f"case_tail_ms is p{tail_pct:.1f} of {len(lat)} completed commands",
        f"fail_ratio {verdict.failed}/{verdict.attempted} = {verdict.failed / verdict.attempted:.4f}",
    ] + host_notes(passes)
    return metrics, notes


def host_notes(passes: list[Pass]) -> list[str]:
    speeds = [p.speed for p in passes]
    return [
        f"host speed {statistics.median(speeds):.3f} (passes {min(speeds):.3f}-{max(speeds):.3f});"
        f" raw pass wall median {statistics.median(p.raw_wall for p in passes):.4f} s",
    ]


def per_layer(untraced: list[Pass], traced: list[Pass], verdict: Verdict) -> tuple[dict, list[str]]:
    rows = [
        {k: v * p.speed if k.endswith("_s") else v for k, v in layer_metrics(p.tracer).items()}
        for p in traced
    ]
    metrics = {k: (statistics.median(r[k] for r in rows), _unit(k)) for k in rows[0]}
    layer_self = [sum(r[f"{l}.self_s"] for l in LAYERS) for r in rows]
    traced_wall = statistics.median(p.wall for p in traced)
    traced_bytes = verdict.output_bytes[1::2]  # traced passes are the odd ones
    metrics["cli.output_bytes"] = (statistics.median(traced_bytes), "bytes")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / statistics.median(p.wall for p in untraced), "ratio")
    metrics["trace.attributed_ratio"] = (
        statistics.median(s / p.wall for s, p in zip(layer_self, traced)), "ratio"
    )
    notes = ["trace.attributed_ratio: summed layer self time / traced pass wall"]
    return metrics, notes + host_notes(untraced + traced)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_yield"):
        return "ratio"
    return "count"


# ------------------------------------------------------------------ main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one pass over the smallest case")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(args, workload: Workload) -> int:
    workdir = WORK / f"probe-{os.getpid()}"
    try:
        runner = Runner(import_gislat(), perf() + RUN_DEADLINE_S)
        prepare(workload, args.seed, workload.passes(args.seconds), workdir)
        warm_up(runner, workload, args.seed, workdir)
        print("ready", flush=True)
    finally:
        remove_workdir(workdir)
    return 0


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):  # other runs may still use it
        WORK.rmdir()


def run(args) -> int:
    started = perf()
    require_sources()
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke_only()
    if args.setup_probe:
        return setup_probe(args, workload)
    setup = [] if args.trace else measure_setup(args)

    modules = import_gislat()
    runner = Runner(modules, started + RUN_DEADLINE_S)
    npasses = workload.passes(args.seconds)
    if args.trace:  # untraced and traced passes alternate, in the same time
        npasses = 2 * max(1, npasses // 2)
    workdir = WORK / f"run-{os.getpid()}"
    try:
        plan = prepare(workload, args.seed, npasses, workdir)
        expected = {id(c): c.expected() for c in workload.cases}
        warm_up(runner, workload, args.seed, workdir)
        passes = [
            runner.run_pass(row, Tracer() if args.trace and i % 2 else None)
            for i, row in enumerate(plan)
        ]
        assign_speeds(passes)
        verdict = Verdict()
        judge(passes, verdict, expected)
    finally:
        remove_workdir(workdir)

    if args.trace:
        metrics, notes = per_layer(passes[0::2], passes[1::2], verdict)
        write_spans(args, passes[1::2])
    else:
        metrics, notes = end_to_end(passes, setup, verdict)

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {len(passes)} passes of {len(workload.cases)} commands")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    for note in notes:
        print(f"  {note}")
    for label, ms in case_medians(passes[0::2] if args.trace else passes):
        print(f"  {ms:12.3f} ms  {label}")
    for key, count in sorted(verdict.failures.items()):
        print(f"  failed x{count}: {key}")
    print(f"  output sha256 {verdict.digest.hexdigest()}")
    for line in verdict.wrong[:20]:
        print(f"wrong answer: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not verdict.wrong,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if verdict.wrong else 0


def write_spans(args, traced: list[Pass]) -> None:
    """Dump the spans of the traced passes, one JSON object per line; a
    root span (a ``cli.main`` call) also names its case."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for k, p in enumerate(traced):
            cases = iter(o.execution.case.label for o in p.outcomes if o.error != DEADLINE_PASSED)
            for sid, name, start, end, parent in sorted(p.tracer.spans):
                row = {"pass": k, "id": sid, "name": name, "start": start, "end": end, "parent": parent}
                if parent is None:
                    row["case"] = next(cases, None)
                fh.write(json.dumps(row) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except UsageError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
