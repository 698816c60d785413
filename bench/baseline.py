"""Record the seed-1 baseline of every workload, untraced and traced.

    python3 bench/baseline.py

Each run is a separate ``bench/run.py`` process, as the benchmark is meant
to be run, lasting ``run_seconds`` from ``BENCHMARK.json``. The script
prints each run's metric table and writes the metrics of all runs, with
the machine facts, to ``bench/BASELINE.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SEED = 1


def main() -> int:
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    baseline = {"seed": SEED, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in declared["workloads"]):
        entry = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            argv = ["--workload", workload, "--seed", str(SEED),
                    "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *argv])
            if done.returncode != 0:
                return done.returncode
            result = BENCH_DIR / "results" / f"{workload}-seed{SEED}-trace{trace}.json"
            record = json.loads(result.read_text(encoding="utf-8"))
            baseline["machine"] = record["machine"]
            entry[section] = {key: record[key] for key in ("attempted", "failed", "metrics", "details")}
        baseline["workloads"][workload] = entry
    (BENCH_DIR / "BASELINE.json").write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
