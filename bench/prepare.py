"""Generate and write a workload's instances, in a process of its own.

    PYTHONPATH=src python3 bench/prepare.py WORKLOAD SEED DIRECTORY

Generates the instances from the seed and writes them ``SETUP_REPEATS``
times, each time into a fresh subdirectory of ``DIRECTORY``, timing each
repeat. Prints one JSON object: the repeat times and, for the last copy,
each instance's path, ``gen`` arguments and expectations (see
``verify.expect``).

``run.py`` runs this as a child process: the instances' object trees and
texts then never count towards the peak memory of the process that runs
the commands. On ``coord_large`` they would set that peak by themselves.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

from verify import expect
from workloads import WORKLOADS, build_instances

#: Set-ups per run; ``setup_s`` reports the median.
SETUP_REPEATS = 5


def prepare(workload, seed: int, directory: Path) -> dict:
    times = []
    for repeat in range(SETUP_REPEATS):
        target = directory / f"setup-{repeat}"
        target.mkdir()
        start = perf_counter()
        instances = build_instances(workload, seed)
        paths = []
        for instance in instances:
            path = target / f"{instance.name}.json"
            path.write_text(instance.text, encoding="utf-8")
            paths.append(path)
        times.append(perf_counter() - start)
    return {
        "times": times,
        "instances": [
            {
                "path": str(path),
                "gen_args": list(instance.gen_args),
                "expected": asdict(expect(instance, workload.commands)),
            }
            for instance, path in zip(instances, paths)
        ],
    }


if __name__ == "__main__":
    name, seed, directory = sys.argv[1:]
    print(json.dumps(prepare(WORKLOADS[name], int(seed), Path(directory))))
