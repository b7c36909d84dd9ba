"""The benchmark's own check.

    python3 perfbench/selfcheck.py

1. Smoke: every workload's smallest case, untraced and traced, gives the
   right answer and prints exactly the metrics BENCHMARK.json lists.
2. Negative: a run whose expected answer is corrupted reports a wrong
   answer (``correct`` false, the case counted as failed, exit status 1)
   instead of a timing.
3. Bare directory: with only BENCHMARK.json and perfbench/ present, the
   benchmark exits non-zero without printing a result.

Exits 0 when all three hold.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import WORKLOADS, Workload, lattice_size

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*argv: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )


def smoke() -> list[str]:
    problems = []
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", name, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace), "--smoke")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            want = [m["name"] for m in SPEC[key]]
            if proc.returncode != 0 or not result.get("correct"):
                problems.append(f"smoke {name} trace {trace}: exit {proc.returncode} {proc.stderr[-300:]}")
            elif list(result["metrics"]) != want:
                problems.append(f"smoke {name} trace {trace}: metrics {list(result['metrics'])} != {want}")
    return problems


def negative() -> list[str]:
    """Corrupt the expected lattice size of one case and run in-process."""
    good = WORKLOADS["lattice_core"].smoke
    bad_shape = dataclasses.replace(good.shape, triples=lattice_size(good.shape, None) + 1)
    bad = dataclasses.replace(good, shape=bad_shape)
    WORKLOADS["corrupted"] = Workload("corrupted", "corrupted expected answer", 1.0, (bad,))
    run.measure_setup = lambda args: [0.0]  # probes would not know this workload
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "corrupted", "--seed", "1", "--seconds", "1"])
    finally:
        del WORKLOADS["corrupted"]
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    if code == 1 and result["correct"] is False and result["failed"] == result["attempted"] == 1:
        return []
    return [f"negative: corrupted answer gave exit {code} and {result}"]


def bare() -> list[str]:
    target = run.WORK / "bare"
    shutil.rmtree(target, ignore_errors=True)
    try:
        shutil.copytree(HERE, target / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", target / "BENCHMARK.json")
        proc = bench("--workload", "lattice_bypass", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=target)
    finally:
        run.remove_workdir(target)
    if proc.returncode != 0 and '"metrics"' not in proc.stdout:
        return []
    return [f"bare: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]


def main() -> int:
    problems = smoke() + negative() + bare()
    for p in problems:
        print(p, file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
