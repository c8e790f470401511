"""spdom benchmark: runs one workload through the real CLI and prints its metrics.

    python3 perfbench/run.py --workload count --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program comes from ``src/``).

``--trace 0`` times whole ``python -m spdom`` subprocesses, one after
another (a closed loop with one client, no threads or pools), repeating the
workload's invocations for about ``--seconds`` seconds; it reports the
medians over repeats of wall time, CPU time and peak RSS, plus the median
start-up time of ``import spdom.cli``.  Times are scaled to a reference
host speed (see ``REFERENCE_S``).

``--trace 1`` runs the same invocations in this process through
``spdom.cli.run_command``: once untraced, then twice with the tracer
installed.  It reports per-layer self times and work counters, and fails if
the two traced passes disagree on any counter.

Every invocation's stdout is checked; a failed check counts in ``failed``.
A record with argv, exit codes and stdout digests of every invocation goes to
``.perfbench_runs/`` next to the spans of the traced passes.  The last stdout
line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

MIN_REPEATS = 3
SETUP_SPAWNS_PER_REPEAT = 3
# Reported times are scaled to a host on which the reference pass takes
# REFERENCE_S: the wall and CPU time of each subprocess are multiplied by
# REFERENCE_S / (mean of the reference passes made just before and just
# after it).  On a shared host whose speed drifts by 20-40% over minutes,
# this takes the drift out of the figures, while the program's own speed
# still shows in full.  The unscaled medians are in the record as
# raw_wall_s, raw_cpu_s and raw_setup_s.
REFERENCE_STEPS = 700_000
REFERENCE_S = 0.05
# Hard limit on one run: leaves room under the 180 s a run may take.
RUN_DEADLINE_S = 165.0


class Tally:
    """Counts attempts and failures, keeping the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _spawn(argv: list[str], cwd: Path, env: dict, timeout: float) -> tuple[int, float, float, float, bytes, bytes]:
    """Run one child to completion; returns exit code, wall s, CPU s,
    peak RSS MiB, stdout and stderr.  The child is killed after ``timeout`` s."""
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        status = None
        try:
            if not select.select([pidfd], [], [], max(timeout, 0.0))[0]:
                proc.kill()  # not reaped yet, so the pid is still this child's
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            os.close(pidfd)
            if status is None:
                proc.kill()
                os.waitpid(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: keeps Popen quiet
        out.seek(0)
        err.seek(0)
        return (
            proc.returncode,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024,
            out.read(),
            err.read(),
        )


class OutputChecks:
    """Checks each invocation's stdout: same bytes on every repeat, and the
    workload's content check on the first copy."""

    def __init__(self, workload: workloads.Workload) -> None:
        self.workload = workload
        self.verdicts: dict[str, list[str]] = {}
        self.rows = [
            {"argv": list(inv.argv), "exit": [], "stdout_sha256": None, "stdout_bytes": None, "problems": []}
            for inv in workload.invocations
        ]

    def check(self, index: int, code: int, stdout: bytes, stderr: bytes) -> list[str]:
        row = self.rows[index]
        row["exit"].append(code)
        digest = workloads.sha256(stdout)
        problems = []
        if code != 0:
            last = stderr.decode(errors="replace").strip().splitlines()[-1:]
            problems.append(f"exit code {code} {last}")
        if row["stdout_sha256"] is None:
            row["stdout_sha256"] = digest
            row["stdout_bytes"] = len(stdout)
        elif digest != row["stdout_sha256"]:
            problems.append("stdout differs from the first repeat")
        if digest not in self.verdicts:
            self.verdicts[digest] = self.workload.invocations[index].check(stdout.decode(errors="replace"))
        problems.extend(self.verdicts[digest])
        tagged = [f"{' '.join(row['argv'])}: {p}" for p in problems]
        for p in tagged:
            if p not in row["problems"]:
                row["problems"].append(p)
        return tagged


def _reference_pass() -> float:
    """Time of a fixed pure-Python loop in this process: a probe of how fast
    the host runs Python right now."""
    start = time.perf_counter()
    totals: dict[int, int] = {}
    for i in range(REFERENCE_STEPS):
        b = i % 97
        totals[b] = totals.get(b, 0) + i
    return time.perf_counter() - start


def timed_run(workload: workloads.Workload, inputs: Path, seconds: int, deadline: float) -> tuple[dict, Tally, dict]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    failures = Tally()
    checks = OutputChecks(workload)
    probes = [_reference_pass()]

    def scaled(value: float, probe: int) -> float:
        """``value`` at the reference speed, from the probes either side of it."""
        return value * REFERENCE_S / ((probes[probe] + probes[probe + 1]) / 2)

    def setup_once() -> tuple[float, int]:
        code, wall, *_ = _spawn(
            [sys.executable, "-c", "import spdom.cli"], inputs, env, deadline - time.perf_counter()
        )
        failures.record([] if code == 0 else [f"import spdom.cli: exit code {code}"])
        return wall, len(probes) - 1

    setup_once()  # compiles bytecode once, as an installed package would have
    setup = []
    repeats = []
    start = time.perf_counter()
    while time.perf_counter() < deadline:
        # Start-up samples are spread over the whole run, like the repeats,
        # so that both see the same spells of contention.
        setup.extend(setup_once() for _ in range(SETUP_SPAWNS_PER_REPEAT))
        spawns = []
        for index, inv in enumerate(workload.invocations):
            code, wall, cpu, rss, stdout, stderr = _spawn(
                [sys.executable, "-m", "spdom", *inv.argv], inputs, env, deadline - time.perf_counter()
            )
            spawns.append((wall, cpu, rss, len(probes) - 1))
            probes.append(_reference_pass())
            failures.record(checks.check(index, code, stdout, stderr))
        repeats.append(spawns)
        elapsed = time.perf_counter() - start
        typical = statistics.median(sum(wall for wall, *_ in rep) for rep in repeats)
        if len(repeats) >= MIN_REPEATS and elapsed + typical > seconds:
            break

    rows = [
        {
            "wall_s": sum(scaled(wall, probe) for wall, _, _, probe in spawns),
            "cpu_s": sum(scaled(cpu, probe) for _, cpu, _, probe in spawns),
            "max_rss_mb": max(rss for _, _, rss, _ in spawns),
            "raw_wall_s": sum(wall for wall, _, _, _ in spawns),
            "raw_cpu_s": sum(cpu for _, cpu, _, _ in spawns),
        }
        for spawns in repeats
    ]
    metrics = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    metrics["setup_s"] = statistics.median(scaled(wall, probe) for wall, probe in setup)
    metrics["raw_setup_s"] = statistics.median(wall for wall, _ in setup)
    metrics["reference_pass_s"] = statistics.median(probes)
    detail = {
        "repeats": rows,
        "setup_s_samples": [wall for wall, _ in setup],
        "reference_pass_samples": probes,
        "invocations": checks.rows,
    }
    return metrics, failures, detail


def _in_process_pass(workload: workloads.Workload, inputs: Path, trace=None) -> tuple[float, list]:
    """One pass of the workload through ``spdom.cli.run_command``; returns its
    time and each invocation's exit code, stdout and stderr."""
    import spdom.cli

    tracer.clear_caches()
    elapsed = 0.0
    results = []
    cwd = os.getcwd()
    os.chdir(inputs)
    try:
        for index, inv in enumerate(workload.invocations):
            if trace is not None:
                trace.invocation = index
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = spdom.cli.run_command(list(inv.argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
            elapsed += time.perf_counter() - start
            results.append((code, out.getvalue().encode(), err.getvalue().encode()))
    finally:
        os.chdir(cwd)
    return elapsed, results


def traced_run(workload: workloads.Workload, inputs: Path) -> tuple[dict, Tally, dict]:
    failures = Tally()
    checks = OutputChecks(workload)
    untraced, results = _in_process_pass(workload, inputs)
    outputs = [results]

    passes = []
    for number in (1, 2):
        trace = tracer.Tracer()
        installed = tracer.Installation(trace)
        try:
            elapsed, results = _in_process_pass(workload, inputs, trace)
        finally:
            installed.remove()
        outputs.append(results)
        trace.write_spans(RUNS / f"spans-{workload.name}-pass{number}.csv.gz")
        counters = dict(trace.counters)
        counters["cli.stdout_bytes"] = sum(len(stdout) for _, stdout, _ in results)
        passes.append(
            {
                "elapsed_s": elapsed,
                "spans": len(trace.starts),
                "counters": counters,
                "self_s": trace.self_times(),
                "absent": sorted(set(installed.absent) | trace.unreadable),
            }
        )
    # Checked only now, so that the checks' own calls into spdom are not traced.
    for results in outputs:
        for index, result in enumerate(results):
            failures.record(checks.check(index, *result))

    first, second = passes
    failures.record(
        []
        if first["counters"] == second["counters"]
        else ["counters differ between the two traced passes"]
    )

    metrics: dict[str, float] = dict(first["counters"])
    for name in set(first["self_s"]) | set(second["self_s"]):
        metrics[name] = (first["self_s"].get(name, 0.0) + second["self_s"].get(name, 0.0)) / 2
    tried = metrics.get("twostep.search_sp_combinations.tried", 0)
    metrics["twostep.search_sp_combinations.found_per_tried"] = (
        metrics.get("twostep.search_sp_combinations.found", 0) / tried if tried else 0.0
    )
    metrics["trace.overhead_ratio"] = statistics.median(p["elapsed_s"] for p in passes) / untraced
    absent = sorted(set(first["absent"]) | set(second["absent"]))
    detail = {"untraced_s": untraced, "passes": passes, "invocations": checks.rows, "absent": absent}
    return metrics, failures, detail


def _git_rev() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _declared_metrics(trace: bool) -> list[dict]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return declared["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.perf_counter() + RUN_DEADLINE_S
    if not (SRC / "spdom" / "cli.py").is_file():
        print(f"error: no spdom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spdom

    if Path(spdom.__file__).resolve().parent != SRC / "spdom":
        print(f"error: imported spdom from {spdom.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    declared = _declared_metrics(bool(args.trace))
    cpus = os.sched_getaffinity(0)
    # One CPU for this process and its children, so that the reference
    # passes probe the CPU the program runs on.
    os.sched_setaffinity(0, {min(cpus)})
    RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="inputs-", dir=RUNS) as tmp:
        inputs = Path(tmp)
        workload = workloads.build(args.workload, args.seed, inputs)
        if args.trace:
            measured, failures, detail = traced_run(workload, inputs)
        else:
            measured, failures, detail = timed_run(workload, inputs, args.seconds, deadline)

    # A metric of a function that was not called is 0; one of a function
    # (or counter) that no longer exists is 0 and listed as absent.
    gone = set(detail.get("absent", ()))
    metrics = {}
    absent = []
    for spec in declared:
        name = spec["name"]
        if name in gone or name.rsplit(".", 1)[0] in gone:
            absent.append(name)
        metrics[name] = {"value": measured.get(name, 0), "unit": spec["unit"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": _git_rev(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": len(cpus),
        "inputs_sha256": workload.inputs,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "fail_ratio": failures.failed / failures.attempted,
        "problems": failures.problems,
        "absent_metrics": absent,
        "measured": measured,
        **detail,
    }
    record_path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    for problem in failures.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"record: {record_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": failures.failed == 0,
                "attempted": failures.attempted,
                "failed": failures.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
