"""End-to-end and per-layer benchmark of the fswl CLI.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is a fresh ``python -m fswl.cli ...`` child process, so
interpreter start, imports and caches are paid the way a user pays them.
The load is a closed loop: one parent process, one invocation at a time;
the only concurrency is the eps sweep's own pool of 2 forked workers.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
untraced/traced pairs and prints the per-layer metrics.  The last stdout
line is the result object; the line before it is the full record (every
sample, every failure, the machine).  A summary table goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from importlib.metadata import version
from pathlib import Path

import layers
from tracer import load_spans
from workloads import BENCH, ROOT, SRC, WORKLOADS, Invocation, child_env

SETUP_REPS = 7
SCIPY_PROBE_REPS = 3
MIN_INVOCATIONS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
LIMITS = ("process-level timers only: perf_counter around each child process and "
          "wait4 rusage; no CPU pinning, no cache dropping, no system-wide tracing")
ENV = child_env()


class BenchError(RuntimeError):
    pass


class Spawner:
    """Client of spawner.py, which starts and times every child process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")], cwd=ROOT, env=ENV,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], out_dir: Path, limit_s: float) -> Invocation:
        out_dir.parent.mkdir(parents=True, exist_ok=True)
        stdout_path = out_dir.with_name(out_dir.name + ".stdout")
        stderr_path = out_dir.with_name(out_dir.name + ".stderr")
        request = {"argv": argv, "stdout": str(stdout_path), "stderr": str(stderr_path),
                   "limit_s": limit_s}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the spawner process died")
        got = json.loads(reply)
        return Invocation(
            out_dir=out_dir, rc=got["rc"], wall_s=got["wall_s"],
            peak_rss_mb=got["maxrss_kb"] / 1024.0, cpu_s=got["cpu_s"],
            stdout=stdout_path.read_text(errors="replace"),
            stderr=stderr_path.read_text(errors="replace"), killed=got["killed"],
        )

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def artifact_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def scipy_import_s(importtime_stderr: str) -> float:
    """Cumulative import time of the scipy modules in a ``-X importtime``
    log, counting each outermost scipy import once."""
    rows = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip())) // 2
        rows.append((level, name.strip(), int(cumulative)))
    total_us = 0
    stack: list[tuple[int, bool]] = []  # (level, inside scipy); log is post-order
    for level, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= level:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total_us += cumulative
        stack.append((level, inside or is_scipy))
    return total_us / 1e6


def machine_record() -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "limits": LIMITS,
    }


class Runner:
    """One benchmark run: every child it starts, and their outcomes."""

    def __init__(self, name: str, seed: int, seconds: float, work: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.ops: list[dict] = []
        self._n = 0
        self.spawner = Spawner()

    def close(self) -> None:
        self.spawner.close()

    def _out(self, tag: str) -> Path:
        self._n += 1
        return self.work / f"{self._n:03d}-{tag}"

    def _left(self) -> float:
        return self.deadline - time.monotonic()

    def _record(self, kind: str, inv: Invocation, failures: list[str], **extra) -> None:
        self.ops.append({"kind": kind, "wall_s": inv.wall_s, "peak_rss_mb": inv.peak_rss_mb,
                         "cpu_s": inv.cpu_s, "rc": inv.rc, "failures": failures, **extra})

    def fail_counts(self) -> tuple[int, int]:
        """(failed, attempted) over every child this run started."""
        return sum(1 for op in self.ops if op["failures"]), len(self.ops)

    def probe(self, argv_tail: list[str], kind: str) -> Invocation:
        inv = self.spawner.run([sys.executable, *argv_tail], self._out(kind), self._left())
        failures = [f"exit code {inv.rc}: {inv.stderr.strip()[-300:]}"] if inv.rc else []
        self._record(kind, inv, failures)
        return inv

    def warm_up(self) -> None:
        """Compile the sources to bytecode once, as an installed package
        would have, and stop early if the program cannot even be imported."""
        inv = self.spawner.run([sys.executable, "-c", self.workload.setup_code],
                               self._out("warmup"), self._left())
        if inv.rc != 0:
            raise BenchError(f"setup probe failed (exit {inv.rc}): {inv.stderr.strip()[-500:]}")

    def invoke(self, kind: str, traced_run_id: str | None = None) -> tuple[Invocation, dict]:
        out = self._out(kind)
        cli_args = self.workload.cli_args(out, self.seed)
        if traced_run_id is None:
            argv = [sys.executable, "-m", "fswl.cli", *cli_args]
        else:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), traced_run_id,
                    str(out.with_name(out.name + ".spans")), *cli_args]
        inv = self.spawner.run(argv, out, self._left())
        failures, info = self.workload.check(inv, self.seed)
        size = artifact_bytes(out) if out.exists() else 0
        self._record(kind, inv, failures, artifact_bytes=size, **info)
        shutil.rmtree(out, ignore_errors=True)
        return inv, info

    def more(self, walls: list[float], minimum: int) -> bool:
        """Closed loop: start another invocation while the measured time
        plus a typical invocation stays within --seconds."""
        if len(walls) < minimum:
            return self._left() > 0
        typical = statistics.median(walls)
        return sum(walls) + typical <= self.seconds and self._left() > 3 * typical

    def end_to_end(self) -> dict:
        self.warm_up()
        setups, walls = [], []

        def setup_probe():
            setups.append(self.probe(["-c", self.workload.setup_code], "setup").wall_s)

        # Set-up probes alternate with the first invocations, so that both
        # sample the machine over the same stretch of time.
        while self.more(walls, MIN_INVOCATIONS):
            if len(setups) < SETUP_REPS:
                setup_probe()
            walls.append(self.invoke("cli")[0].wall_s)
        while len(setups) < SETUP_REPS:
            setup_probe()
        runs = [op for op in self.ops if op["kind"] == "cli"]
        return {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in runs),
            "artifact_bytes": float(statistics.median(op["artifact_bytes"] for op in runs)),
        }

    def per_layer(self) -> dict:
        self.warm_up()
        scipy_s = [scipy_import_s(self.probe(["-X", "importtime", "-c", "import fswl.cli"],
                                             "importtime").stderr)
                   for _ in range(SCIPY_PROBE_REPS)]
        plain, traced, per_run = [], [], []
        while self.more([a + b for a, b in zip(plain, traced)], 1):
            plain.append(self.invoke("cli")[0].wall_s)
            run_id = uuid.uuid4().hex
            inv, _ = self.invoke("traced", run_id)
            traced.append(inv.wall_s)
            spans_dir = inv.out_dir.with_name(inv.out_dir.name + ".spans")
            spans = load_spans(spans_dir, run_id)
            per_run.append(layers.layer_metrics(spans))
        (self.work.parent / f"last_trace_{self.name}.json").write_text(
            json.dumps({"run_id": run_id, "spans": spans}))
        metrics = {key: statistics.median(m[key] for m in per_run) for key in per_run[0]}
        checked = [op for op in self.ops if op["kind"] in ("cli", "traced")]

        def worst(key):
            return max((op[key] for op in checked if key in op), default=0.0)

        reads = [op["read_trajectory_s"] for op in checked if "read_trajectory_s" in op]
        metrics.update({
            "setup.import_scipy_s": statistics.median(scipy_s),
            "cli.read_trajectory_s": statistics.median(reads) if reads else 0.0,
            "accuracy.mass_drift_rel": worst("mass_drift_rel"),
            "accuracy.cross_definition_gap": worst("cross_definition_gap"),
            "accuracy.ref_rel_err": worst("ref_rel_err"),
            "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
        })
        return metrics


def wall_summary(walls: list[float]) -> dict:
    """Median, sample count, extremes, and the highest percentile that has
    at least ten samples beyond it (none below 20 samples)."""
    n = len(walls)
    summary = {"n": n, "median": statistics.median(walls), "min": min(walls), "max": max(walls)}
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        summary[f"p{pct}"] = statistics.quantiles(walls, n=100)[pct - 1]
    return summary


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fswl" / "cli.py").is_file():
        print(f"bench: no program to measure: {SRC / 'fswl' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    seed = args.seed % 2**32  # the CLI's RNG takes non-negative seeds
    load_before = os.getloadavg()
    work = ROOT / ".bench_runs" / f"{args.workload}-{os.getpid()}"
    runner = Runner(args.workload, seed, args.seconds, work)
    try:
        values = runner.per_layer() if args.trace else runner.end_to_end()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")

    failed, attempted = runner.fail_counts()
    cli_walls = [op["wall_s"] for op in runner.ops if op["kind"] == "cli"]
    record = {
        "workload": args.workload, "seed": args.seed, "cli_seed": seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_record(),
        "load_avg_before": load_before, "load_avg_after": os.getloadavg(),
        "fail_ratio": failed / attempted,
        "cli_invocations": len(cli_walls),
        "cli_wall_s": wall_summary(cli_walls),
        "operations": runner.ops,
    }
    for key in sorted(units):
        print(f"{key:40s} {values[key]:>16.6g} {units[key]}", file=sys.stderr)
    print(f"{'fail_ratio':40s} {failed:>8d}/{attempted:<7d} ratio", file=sys.stderr)
    for op in runner.ops:
        if op["failures"]:
            print(f"FAILED {op['kind']}: {op['failures']}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
