"""Run one kfr benchmark workload and print its metrics.

    python3 bench/run.py --workload mixed_small --seed 1 --seconds 20 --trace 0

The workloads, the checks on each report and the metrics are defined in
``bench/README.md``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
full result, with the machine facts, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"
WORK_ROOT = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"

#: Fresh interpreters timed on ``import kfr.cli``; ``setup_s`` uses the median.
IMPORT_REPEATS = 5

IMPORT_PROBE = "import time; t = time.perf_counter(); import kfr.cli; print(time.perf_counter() - t)"

#: Samples that must lie beyond the reported tail latency.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_cmd_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "error_ratio": "ratio",
}

# error_ratio is 0 on a correct run; the final JSON line carries it as
# ``failed`` over ``attempted`` instead of as a metric.
RESULT_LINE_METRICS = tuple(name for name in END_TO_END_UNITS if name != "error_ratio")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def cap_blas_threads():
    """Keep the BLAS thread default unless it would exceed the usable CPUs."""
    nproc = len(os.sched_getaffinity(0))
    if (os.cpu_count() or nproc) > nproc:
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            os.environ.setdefault(name, str(nproc))


def machine_facts(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "seed": seed,
    }


def kfr_env() -> dict:
    """The environment of a child interpreter that imports kfr from the sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE_DIR), env.get("PYTHONPATH")]))
    return env


def import_seconds() -> float:
    """Median time of ``import kfr.cli`` in ``IMPORT_REPEATS`` fresh interpreters."""
    times = [
        float(subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=kfr_env(), capture_output=True, text=True, check=True, timeout=60,
        ).stdout)
        for _ in range(IMPORT_REPEATS)
    ]
    return statistics.median(times)


def set_up(workload, seed: int, workdir: Path) -> dict:
    """Generate and write the workload's instances in a child process (see ``prepare.py``)."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "prepare.py"), workload.name, str(seed), str(workdir)],
        env=kfr_env(), capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout)


class Runner:
    """Runs passes of (instance, command) pairs and checks every report."""

    def __init__(self, commands, instances, workdir: Path):
        """``instances`` as ``prepare.py`` describes them."""
        import verify

        self.pairs = []
        for instance in instances:
            expected = verify.Expected(**instance["expected"])
            for command in commands:
                if command[0] == "gen":
                    argv = ["gen", *instance["gen_args"]]
                else:
                    argv = [command[0], "--input", instance["path"], *command[1:]]
                self.pairs.append((expected, command, argv))
        # Every report goes to a path that no longer exists: on ext4,
        # truncating a just-written file forces a flush that would dominate
        # small commands and is not what a user writing new reports pays.
        self.output = workdir / "report.json"
        self.tracer = None
        self.latencies: list[float] = []
        self.commands: list[str] = []
        self.pass_ends: list[int] = []
        self.failed = 0
        self.problems: list[str] = []
        self._digests: dict[int, str | None] = {}

    def run_pass(self):
        import kfr.cli
        import verify

        for index, (expected, command, argv) in enumerate(self.pairs):
            argv = [*argv, "--output", str(self.output)]
            if self.tracer is not None:
                self.tracer.command = len(self.latencies)
            start = perf_counter()
            try:
                code = kfr.cli.main(argv)
            except Exception:  # a crash counts as a failed command
                code = traceback.format_exc(limit=3)
            self.latencies.append(perf_counter() - start)
            self.commands.append(" ".join(command))

            data = self.output.read_bytes() if self.output.exists() else None
            self.output.unlink(missing_ok=True)
            problems = verify.problems(expected, command, code, data)
            digest = hashlib.sha256(data).hexdigest() if data is not None else None
            if self._digests.setdefault(index, digest) != digest:
                problems.append("report bytes differ from the first pass")
            if problems:
                self.failed += 1
                self.problems.append(f"{' '.join(command)} on {expected.name}: {'; '.join(problems)}")
        self.pass_ends.append(len(self.latencies))

    def run_until(self, deadline: float, min_passes: int) -> int:
        """Run whole passes until ``deadline``; returns the pass count."""
        passes = 0
        while passes < min_passes or perf_counter() < deadline:
            self.run_pass()
            passes += 1
        return passes


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with ``TAIL_BEYOND`` samples beyond it.

    Returns (value, percentile, samples beyond). The percentile never drops
    below the 90th: with fewer than ``10 * TAIL_BEYOND`` samples, fewer
    samples lie beyond it, and the count says so.
    """
    ordered = sorted(latencies)
    last = len(ordered) - 1
    index = max(last - TAIL_BEYOND, math.ceil(0.9 * last))
    percentile = 100.0 * index / last if last else 100.0
    return ordered[index], percentile, last - index


def central(latencies: list[float]) -> float:
    """Median estimate: the mean of the samples from the 45th to the 55th percentile.

    A mix of command types leaves gaps in the latency distribution; the
    plain median jumps across a gap whenever two types near the middle swap
    order from one seed to the next, and this band average does not. When
    no sample falls inside the band, it is the plain median.
    """
    ordered = sorted(latencies)
    last = len(ordered) - 1
    band = ordered[-(-45 * last // 100):55 * last // 100 + 1]
    return statistics.fmean(band) if band else statistics.median(ordered)


def end_to_end(runner: Runner, setup_s: float) -> tuple[dict, dict]:
    """The six end-to-end metrics, and the facts behind them.

    Throughput is the median over passes of commands over summed command
    time, so one slow stretch of a run moves it less than a plain mean.
    """
    latencies = runner.latencies
    tail_s, percentile, beyond = tail(latencies)
    starts = [0, *runner.pass_ends[:-1]]
    per_pass = [
        (end - start) / sum(latencies[start:end]) for start, end in zip(starts, runner.pass_ends)
    ]
    by_command = {}
    for command, latency in zip(runner.commands, latencies):
        by_command.setdefault(command, []).append(latency)
    metrics = {
        "setup_s": setup_s,
        "throughput_cmd_per_s": statistics.median(per_pass),
        "latency_ms_p50": central(latencies) * 1e3,
        "latency_ms_tail": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_ratio": runner.failed / len(latencies),
    }
    details = {
        "latency_ms_tail.percentile": percentile,
        "latency_ms_tail.samples_beyond": beyond,
        "latency_samples": len(latencies),
        "passes": len(runner.pass_ends),
        "latency_ms_p50_by_command": {
            command: statistics.median(values) * 1e3 for command, values in by_command.items()
        },
    }
    return metrics, details


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE_DIR / "kfr" / "__init__.py").is_file():
        print(f"bench: no kfr sources under {SOURCE_DIR}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(SOURCE_DIR))
    # The benchmark's own modules import kfr, which is found through the path above.
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    RESULTS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        prepared = set_up(workload, args.seed, workdir)
        setup_times = prepared["times"]
        runner = Runner(workload.commands, prepared["instances"], workdir)
        # Without tracing, two passes at least, so every pair's bytes are
        # compared across passes; with it, the traced passes are compared.
        budget = args.seconds / 2 if args.trace else args.seconds
        passes = runner.run_until(perf_counter() + budget, min_passes=1 if args.trace else 2)
        if args.trace:
            untraced = sum(runner.latencies)
            with Tracer() as tracer:
                runner.tracer = tracer
                for _ in range(passes):
                    runner.run_pass()
            runner.tracer = None
            values = layer_metrics(tracer, passes)
            values["trace.overhead_ratio"] = untraced / (sum(runner.latencies) - untraced)
            metrics = {name: (value, layer_unit(name)) for name, value in values.items()}
            line_names = list(metrics)
            details = {"passes_per_phase": passes}
            tracer.write(RESULTS_DIR / f"{workload.name}-seed{args.seed}.spans.jsonl")
        else:
            import_s = import_seconds()
            values, details = end_to_end(runner, import_s + statistics.median(setup_times))
            details.update(import_s=import_s, setup_generate_write_s=setup_times)
            metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
            line_names = RESULT_LINE_METRICS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(runner.latencies)
    facts = machine_facts(args.seed)
    as_json = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    record = {
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": facts,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": as_json,
        "details": details,
        "problems": runner.problems[:20],
    }
    out = RESULTS_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for problem in runner.problems[:10]:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{attempted} commands, {runner.failed} failed")
    print("machine " + json.dumps(facts))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>16.6g} {unit}")
    for name, value in details.items():
        print(f"  ({name} = {value})")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {name: as_json[name] for name in line_names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
