"""In-memory spans around the ``kfr`` functions that make up each layer.

:class:`Tracer` wraps every listed function at every ``kfr`` module
attribute that binds it (``from .linalg import symmetric_eig`` copies the
name into other modules, so patching one module would miss calls) and
restores the originals on exit. Each call becomes a span: name, start,
end, parent span, command id and whether it raised. Self time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

#: Traced functions, by ``kfr`` module (the layer).
TARGETS = {
    "linalg": ("symmetric_eig", "extremal_rayleigh", "orthonormalize"),
    "krein": ("build_gram",),
    "subspaces": (
        "is_projectively_complete",
        "orthogonal_projection",
        "j_orthogonal_projection_gram",
        "j_orthogonal_projection_composed",
    ),
    "fusion": (
        "frame_operator",
        "frame_bounds",
        "verify_four_way_equivalence",
        "transport_by_invertible",
    ),
    "transfer": ("transfer_regular", "singular_sweep"),
    "spectral": ("spectral_representation", "krein_decomposition"),
    "io": ("parse_instance", "instance_digest", "dumps_canonical"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{module}.{name}" for module, names in TARGETS.items() for name in names)

# Work counted per call: span name -> (counter suffix, f(args, result)).
# Each is O(1), so it adds nothing measurable to the enclosing span.
WORK_COUNTERS = {
    "linalg.symmetric_eig": ("work_n3", lambda args, result: len(args[0]) ** 3),
    "io.parse_instance": ("bytes", lambda args, result: os.path.getsize(args[0])),
    # canonical JSON is ASCII, so characters are bytes
    "io.dumps_canonical": ("bytes", lambda args, result: len(result)),
}

COUNTER_NAMES = tuple(f"{name}.{suffix}" for name, (suffix, _) in WORK_COUNTERS.items())


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    command: int | None
    name: str
    start: float
    end: float
    error: bool


class Tracer:
    """Context manager that records spans while the wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.command: int | None = None
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, function):
        work = WORK_COUNTERS.get(name)

        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            error = True
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
                error = False
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, parent, self.command, name, start, end, error))
                if work is not None and not error:
                    suffix, count = work
                    self.counters[f"{name}.{suffix}"] += count(args or tuple(kwargs.values()), result)

        traced.__wrapped__ = function
        return traced

    def __enter__(self):
        import kfr.cli  # noqa: F401  (cli imports every traced module)

        originals = {
            getattr(sys.modules[f"kfr.{module}"], name): f"{module}.{name}"
            for module, names in TARGETS.items()
            for name in names
        }
        wrappers = {function: self._wrap(name, function) for function, name in originals.items()}
        modules = [m for key, m in sys.modules.items() if key == "kfr" or key.startswith("kfr.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return self

    def __exit__(self, *exc_info):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = (span.end - span.start) - covered
    return result


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics, per pass: calls, self time, errors, work counters."""
    own = self_times(tracer.spans)
    calls, busy, errors = Counter(), defaultdict(float), Counter()
    for span in tracer.spans:
        calls[span.name] += 1
        busy[span.name] += own[span.id]
        errors[span.name] += span.error
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name] / passes
        metrics[f"{name}.self_s"] = busy[name] / passes
        metrics[f"{name}.errors"] = errors[name] / passes
    for name in COUNTER_NAMES:
        metrics[name] = tracer.counters[name] / passes
    return metrics
