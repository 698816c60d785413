"""Benchmark workloads: seeded instances and the command pass a run repeats.

A workload is a list of instances and the ``kfr`` commands run on each of
them. One pass runs every command on every instance, in a fixed order; a
run repeats whole passes, so each run sees the same mix of commands.
Every instance is derived from the workload seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kfr.generators import DEFAULT_SWEEP_EPSILONS, make_instance_payload
from kfr.io import dumps_canonical
from kfr.krein import EPSILON_THRESHOLD

ALL_COMMANDS = (
    ("gen",),
    ("analyze", "--metric", "hilbert"),
    ("analyze", "--metric", "krein"),
    ("equivalence",),
    ("transfer",),
    ("sweep",),
    ("spectral",),
    ("check",),
)


@dataclass(frozen=True)
class Instance:
    """One generated instance: its object tree, its file text and, for
    instances that ``kfr gen`` reproduces, the ``gen`` arguments."""

    name: str
    payload: dict
    text: str
    gen_args: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (dimension, subspace count) of each instance, in pass order
    shapes: tuple[tuple[int, int], ...]
    commands: tuple[tuple[str, ...], ...]
    coordinate: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mixed_small",
            "every command on kfr gen instances at d = 6, 12, 24: what an "
            "interactive user pays per command",
            ((6, 3), (12, 3), (24, 3)) * 4,
            ALL_COMMANDS,
        ),
        Workload(
            "dense_large",
            "check and sweep on a kfr gen instance at d = 96: dense rotated W "
            "makes the eigensolver nearly all of the time",
            ((96, 4),),
            (("check",), ("sweep",)),
        ),
        Workload(
            "coord_large",
            "analyze, spectral and check on diagonal W with coordinate "
            "subspaces at d = 200: I/O dominates, the eigensolver idles",
            ((200, 4),) * 2,
            (("analyze", "--metric", "krein"), ("spectral",), ("check",)),
            coordinate=True,
        ),
    )
}


def instance_seeds(seed: int, count: int) -> list[int]:
    """Per-instance seeds drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=count)]


def coordinate_payload(seed: int, dim: int, count: int) -> dict:
    """Instance with diagonal indefinite W and coordinate-aligned subspaces.

    W has seeded magnitudes in [0.5, 3] and seeded signs, half of them
    negative. The coordinates are split into ``count`` seeded chunks; each
    subspace spans its own chunk plus half of the next chunk, seeded, so
    neighbouring subspaces overlap and together they span the space. Sizes
    do not depend on the seed, so neither does the work per command.
    """
    rng = np.random.default_rng(seed)
    signs = rng.permutation(np.repeat([1.0, -1.0], [dim - dim // 2, dim // 2]))
    diagonal = signs * rng.uniform(0.5, 3.0, size=dim)
    chunks = np.array_split(rng.permutation(dim), count)
    identity = np.eye(dim)
    subspaces = []
    for index, chunk in enumerate(chunks):
        following = chunks[(index + 1) % count]
        shared = rng.choice(following, size=following.size // 2, replace=False)
        coordinates = np.sort(np.concatenate([chunk, shared]))
        subspaces.append({"basis": identity[coordinates].tolist()})
    return {
        "dimension": dim,
        "gram": np.diag(diagonal).tolist(),
        "subspaces": subspaces,
        "weights": rng.uniform(0.5, 2.0, size=count).tolist(),
        "options": {
            "epsilonThreshold": EPSILON_THRESHOLD,
            "clusterTol": 1e-8,
            "frameTol": 1e-10,
            "sweepEpsilons": list(DEFAULT_SWEEP_EPSILONS),
        },
    }


def build_instances(workload: Workload, seed: int) -> list[Instance]:
    """Generate the workload's instances from its seed."""
    instances = []
    seeds = instance_seeds(seed, len(workload.shapes))
    for index, ((dim, count), sub_seed) in enumerate(zip(workload.shapes, seeds)):
        name = f"{workload.name}-{index}-d{dim}"
        if workload.coordinate:
            payload = coordinate_payload(sub_seed, dim, count)
            gen_args = ()
        else:
            payload = make_instance_payload(sub_seed, dim, count)
            gen_args = (
                "--seed", str(sub_seed), "--dim", str(dim), "--subspaces", str(count),
            )
        instances.append(Instance(name, payload, dumps_canonical(payload), gen_args))
    return instances
