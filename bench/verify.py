"""Checks on each report, made outside the timed region.

A report is correct when its command exited 0, every verdict field in it
is true, its ``analyze`` bounds match an independent plain-numpy pencil
computation, and a ``gen`` output equals the instance the benchmark
generated with the same arguments. Reports are never compared against
stored bytes: a correct solver change may move their last bits.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

#: Relative agreement required between reported and reference bounds.
BOUNDS_REL_TOL = 1e-8

#: Report fields that state a theorem verdict and must be true.
VERDICT_FIELDS = ("boundsAgree", "envelopeWitnessHolds")


def verdict_failures(sections: dict) -> list[str]:
    """Names of the verdict fields in a report's sections that are not true."""
    failures = [
        f"checks.{name}"
        for name, value in sections.get("checks", {}).items()
        if value is not True
    ]
    failures += [
        name for name in VERDICT_FIELDS if name in sections and sections[name] is not True
    ]
    return failures


def _inverse_sqrt(spd: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eigh(spd)
    return (vectors / np.sqrt(values)) @ vectors.T


def reference_bounds(payload: dict, metric: str) -> tuple[float, float]:
    """Extreme eigenvalues of ``G^{-1/2} M G^{-1/2}`` by ``np.linalg.eigh``.

    ``hilbert``: ``G = I`` and ``M`` sums the weighted orthogonal
    projections. ``krein``: ``G = |W|`` and ``M`` sums
    ``x_i^2 Q_i^T |W| Q_i`` over the J-orthogonal projections
    ``Q_i = B (B^T W B)^{-1} B^T W``.
    """
    W = np.array(payload["gram"], dtype=float)
    dim = W.shape[0]
    if metric == "krein":
        values, vectors = np.linalg.eigh(W)
        G = (vectors * np.abs(values)) @ vectors.T
    else:
        G = np.eye(dim)
    M = np.zeros((dim, dim))
    for weight, subspace in zip(payload["weights"], payload["subspaces"]):
        B = np.array(subspace["basis"], dtype=float).T
        form = W if metric == "krein" else G
        P = B @ np.linalg.solve(B.T @ form @ B, B.T @ form)
        M += weight**2 * (P.T @ G @ P)
    root = _inverse_sqrt(G)
    reduced = root @ M @ root
    values = np.linalg.eigvalsh((reduced + reduced.T) / 2.0)
    return max(float(values[0]), 0.0), float(values[-1])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= BOUNDS_REL_TOL * max(abs(a), abs(b))


@dataclass(frozen=True)
class Expected:
    """What correct reports on one instance show, computed once at set-up so
    that the run keeps neither the instance's payload nor its text."""

    name: str
    gen_sha256: str
    # metric -> reference (lower, upper) bounds, for the metrics ``analyze`` uses
    bounds: dict[str, tuple[float, float]]


def expect(instance, commands) -> Expected:
    """The expectations for ``commands`` run on ``instance``."""
    metrics = {command[2] for command in commands if command[0] == "analyze"}
    return Expected(
        instance.name,
        hashlib.sha256(instance.text.encode("utf-8")).hexdigest(),
        {metric: reference_bounds(instance.payload, metric) for metric in sorted(metrics)},
    )


def problems(expected: Expected, command: tuple[str, ...], code, data: bytes | None) -> list[str]:
    """Everything wrong with one command's outcome; empty when correct."""
    if code != 0:
        return [f"exit status {code}"]
    if data is None:
        return ["no report written"]
    if command[0] == "gen":
        if hashlib.sha256(data).hexdigest() != expected.gen_sha256:
            return ["gen output differs from the generated instance"]
        return []
    try:
        sections = json.loads(data)["sections"]
        found = [f"{name} is not true" for name in verdict_failures(sections)]
        if command[0] == "analyze":
            found += _bounds_problems(expected.bounds[sections["metric"]], sections["bounds"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"malformed report: {exc!r}"]
    return found


def _bounds_problems(reference: tuple[float, float], bounds: dict) -> list[str]:
    lower, upper = reference
    if _close(bounds["lower"], lower) and _close(bounds["upper"], upper):
        return []
    return [
        f"bounds [{bounds['lower']!r}, {bounds['upper']!r}] differ from "
        f"the reference [{lower!r}, {upper!r}]"
    ]
