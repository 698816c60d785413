"""Moving frames of subspaces between the plain and the W-metric geometry.

Three regimes are covered. A regular Gram operator transfers frames with
a certified interval for the companion-metric bounds obtained from the
norm-equivalence constants. The square-root factors of ``|W|`` implement
the metric-unitary transfer maps whose images have exactly the bounds of
the source family; the regular transfer and the check of both maps take a
:class:`~kfr.fusion.FrameGeometry` and reuse its factors. Near-singular
behavior is exposed as a one-parameter sweep: finite dimension cannot
place zero inside a spectrum with trivial kernel, so the singular limit is
realized as a family of Gram operators whose smallest eigenvalue magnitude
tends to zero, and the collapse of the lower frame bound is measured along
it.

The sweep records two envelope checks. The proof-backed one bounds the
quadratic form at plain-norm-normalized vectors by ``A^{-1} B M^2 eps``;
it is the inequality the sweep certifies. The literal variant compares
the companion-norm-normalized lower bound against the same constant and
is reported as data: the canonical misaligned fixture already exceeds it
by a factor approaching two, see the report fields.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fusion import (
    FRAME_TOL,
    FrameBounds,
    FrameGeometry,
    WeightedSubspaceFamily,
    _transport,
    frame_bounds,
    whitened_bounds,
)
from .krein import EPSILON_THRESHOLD, GramOperator, build_gram
from .subspaces import DegenerateSubspaceError, J_ORTHOGONAL, spans_equal

__all__ = [
    "RegularityError",
    "TransferReport",
    "TransferMapsReport",
    "SweepResult",
    "transfer_regular",
    "verify_transfer_maps",
    "transfer_map_hilbert_to_krein",
    "transfer_map_krein_to_hilbert",
    "singular_sweep",
    "diagonal_gram_family",
]

#: Relative spectral floor under which transfer maps lose double precision.
MACHINE_FLOOR = 1e-12

#: Additive slack for the certified-interval membership test.
SANDWICH_SLACK = 1e-9

#: Span residual under which the round trip through both transfer maps
#: returns each subspace; the maps need a regular ``|W|``, which keeps the
#: round trip's rounding far below it.
ROUND_TRIP_SPAN_TOL = 1e-9

#: Additive slack on the sweep's envelope inequalities, whose two sides
#: meet at rounding level when the lower bound collapses to zero.
ENVELOPE_SLACK = 1e-12


class RegularityError(Exception):
    """Raised when an operation requires a different regularity class."""


@dataclass(frozen=True)
class TransferReport:
    """Frame bounds on both sides of a regular transfer.

    ``certified_interval`` applies the norm-equivalence constants on both
    sides of the comparison inequality, phrasing the guarantee in the
    companion norm itself: ``(A m / M, B M / m)`` with ``m = 1/||W^-1||``
    and ``M = ||W||``. ``stated_interval`` keeps the looser one-sided
    constants ``(A m, B M)`` for reference; it compares the quadratic form
    against the plain norm instead and is not asserted.
    """

    hilbert_bounds: FrameBounds
    krein_bounds: FrameBounds
    certified_interval: tuple[float, float]
    stated_interval: tuple[float, float]
    sandwich_holds: bool


def transfer_regular(
    geometry: FrameGeometry, frame_tol: float = FRAME_TOL
) -> TransferReport:
    """Bounds of one family in both geometries with a certified interval.

    Requires a regular Gram operator; near-singular ones have no useful
    two-sided interval and belong to :func:`singular_sweep`.
    """
    gram = geometry.gram
    if not gram.is_regular:
        raise RegularityError(
            "transfer with certified interval requires a regular Gram "
            "operator; use singular_sweep for the near-singular family"
        )
    hilbert = frame_bounds(geometry.family, frame_tol=frame_tol)
    krein = geometry.bounds(J_ORTHOGONAL, frame_tol)
    smallest = gram.regularity.min_abs_eigenvalue
    largest = gram.regularity.max_abs_eigenvalue
    certified = (
        hilbert.lower * smallest / largest,
        hilbert.upper * largest / smallest,
    )
    stated = (hilbert.lower * smallest, hilbert.upper * largest)
    sandwich = (
        certified[0] - SANDWICH_SLACK <= krein.lower
        and krein.upper <= certified[1] + SANDWICH_SLACK
    )
    return TransferReport(
        hilbert_bounds=hilbert,
        krein_bounds=krein,
        certified_interval=certified,
        stated_interval=stated,
        sandwich_holds=sandwich,
    )


def _require_above_floor(gram: GramOperator):
    ratio = (
        gram.regularity.min_abs_eigenvalue / gram.regularity.max_abs_eigenvalue
    )
    if ratio < MACHINE_FLOOR:
        raise RegularityError(
            f"spectral ratio {ratio:.3e} is below the double-precision floor "
            f"{MACHINE_FLOOR:.0e}; the transfer map is numerically meaningless"
        )


def transfer_map_hilbert_to_krein(
    family: WeightedSubspaceFamily, gram: GramOperator
) -> WeightedSubspaceFamily:
    """Image family under ``|W|^{-1/2}``, the plain-to-companion unitary.

    Optimal companion-metric bounds of the image equal the plain-metric
    bounds of the source.

    Unlike :func:`~kfr.fusion.transport_by_invertible`, both transfer maps
    take no singular values to test the map's condition number: the test
    cannot fail. ``_require_above_floor`` rejects ``cond(W) > 1 /
    MACHINE_FLOOR = 1e12``, so ``cond(|W|^{+-1/2}) = sqrt(cond(W)) <= 1e6``,
    far under ``TRANSPORT_COND_CAP = 1e10``. The factor is applied through
    :meth:`~kfr.krein.GramOperator.times`.
    """
    _require_above_floor(gram)
    return _transport(family, functools.partial(gram.times, "inv_sqrt_abs"))


def transfer_map_krein_to_hilbert(
    family: WeightedSubspaceFamily, gram: GramOperator
) -> WeightedSubspaceFamily:
    """Image family under ``|W|^{1/2}``, inverse of the other transfer map;
    like it, it needs no condition test."""
    _require_above_floor(gram)
    return _transport(family, functools.partial(gram.times, "sqrt_abs"))


@dataclass(frozen=True)
class TransferMapsReport:
    """A regular transfer, the bounds of both transfer-map images and whether
    each image keeps the other geometry's bounds and the round trip the spans."""

    regular: TransferReport
    forward_bounds: FrameBounds
    backward_bounds: FrameBounds
    forward_preserves_bounds: bool
    backward_preserves_bounds: bool
    maps_invert_on_spans: bool


def verify_transfer_maps(
    geometry: FrameGeometry, frame_tol: float = FRAME_TOL
) -> TransferMapsReport:
    """Run :func:`transfer_regular` and check both transfer maps against it."""
    report = transfer_regular(geometry, frame_tol=frame_tol)
    family, gram = geometry.family, geometry.gram
    forward = transfer_map_hilbert_to_krein(family, gram)
    forward_bounds = FrameGeometry(forward, gram).bounds(J_ORTHOGONAL, frame_tol)
    backward = transfer_map_krein_to_hilbert(family, gram)
    backward_bounds = frame_bounds(backward, frame_tol=frame_tol)
    round_trip = transfer_map_krein_to_hilbert(forward, gram)
    hilbert, krein = report.hilbert_bounds, report.krein_bounds
    return TransferMapsReport(
        regular=report,
        forward_bounds=forward_bounds,
        backward_bounds=backward_bounds,
        forward_preserves_bounds=forward_bounds.matches(hilbert.lower, hilbert.upper),
        backward_preserves_bounds=backward_bounds.matches(krein.lower, krein.upper),
        maps_invert_on_spans=all(
            spans_equal(before, after, tol=ROUND_TRIP_SPAN_TOL)
            for before, after in zip(family.subspaces, round_trip.subspaces)
        ),
    )


@dataclass(frozen=True)
class SweepResult:
    """Lower-bound decay of a fixed family along a near-singular family.

    ``lower_bounds`` are the optimal companion-normalized lower frame
    bounds per epsilon; ``witness_values`` are the minima of the same
    quadratic form over plain-norm unit vectors, the quantity the proof
    constant ``envelope_constant = B M^2 / A`` actually controls.
    ``certified_ratios`` track the certified-interval width (upper over
    lower) that a regular transfer would report at each epsilon.
    """

    epsilons: tuple[float, ...]
    lower_bounds: tuple[float, ...]
    fitted_slope: float
    witness_values: tuple[float, ...]
    envelope_constant: float
    envelope_witness_holds: bool
    envelope_j_normalized_holds: bool
    hilbert_bounds: FrameBounds
    max_weight: float
    certified_ratios: tuple[float, ...]
    skipped: tuple[tuple[float, str], ...]


def singular_sweep(
    family: WeightedSubspaceFamily,
    gram_family: Callable[[float], GramOperator],
    epsilons: Sequence[float],
    frame_tol: float = FRAME_TOL,
) -> SweepResult:
    """Measure the lower-bound collapse of a family as epsilon decreases.

    ``gram_family`` maps each epsilon to a Gram operator; the family stays
    fixed. Requires at least four strictly decreasing epsilons spanning at
    least three decades, and a family that is a frame in the plain metric
    (its bounds feed the envelope constant). Degenerate combinations are
    skipped and recorded, never dropped silently.
    """
    eps = [float(e) for e in epsilons]
    if len(eps) < 4:
        raise ValueError("a sweep needs at least four epsilons")
    if any(e <= 0 for e in eps) or any(a <= b for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be positive and strictly decreasing")
    if eps[0] / eps[-1] < 1e3:
        raise ValueError("epsilons must span at least three decades")

    hilbert = frame_bounds(family, frame_tol=frame_tol)
    if not hilbert.is_frame:
        raise ValueError(
            "the family is not a frame in the plain metric; the sweep "
            "constant is undefined"
        )
    max_weight = max(family.weights)
    constant = hilbert.upper * max_weight**2 / hilbert.lower

    kept: list[float] = []
    lower_bounds: list[float] = []
    witness_values: list[float] = []
    certified_ratios: list[float] = []
    skipped: list[tuple[float, str]] = []
    for value in eps:
        try:
            gram = gram_family(value)
            geometry = FrameGeometry(family, gram)
            lower = geometry.bounds(J_ORTHOGONAL).lower
            witness = whitened_bounds(geometry.analysis_operator(J_ORTHOGONAL)).lower
        except DegenerateSubspaceError as exc:
            skipped.append((value, str(exc)))
            continue
        kept.append(value)
        lower_bounds.append(lower)
        witness_values.append(witness)
        condition = gram.regularity.condition_number
        certified_ratios.append(
            (hilbert.upper / hilbert.lower) * condition**2
        )

    slope = math.nan
    positive = [
        (e, lb) for e, lb in zip(kept, lower_bounds) if lb > 0.0
    ]
    if len(positive) >= 2:
        logs = np.log([e for e, _ in positive])
        values = np.log([lb for _, lb in positive])
        slope = float(np.polyfit(logs, values, 1)[0])

    witness_ok = all(
        w <= constant * e + ENVELOPE_SLACK for e, w in zip(kept, witness_values)
    )
    literal_ok = all(
        lb <= constant * e + ENVELOPE_SLACK for e, lb in zip(kept, lower_bounds)
    )
    return SweepResult(
        epsilons=tuple(kept),
        lower_bounds=tuple(lower_bounds),
        fitted_slope=slope,
        witness_values=tuple(witness_values),
        envelope_constant=constant,
        envelope_witness_holds=witness_ok,
        envelope_j_normalized_holds=literal_ok,
        hilbert_bounds=hilbert,
        max_weight=max_weight,
        certified_ratios=tuple(certified_ratios),
        skipped=tuple(skipped),
    )


def diagonal_gram_family(
    dim: int, epsilon_threshold: float = EPSILON_THRESHOLD
) -> Callable[[float], GramOperator]:
    """Family ``W(eps) = diag(1, ..., 1, eps)`` used by the default sweep."""
    if dim < 2:
        raise ValueError("the diagonal family needs dimension at least 2")

    def build(epsilon: float) -> GramOperator:
        entries = np.ones(dim)
        entries[-1] = epsilon
        return build_gram(np.diag(entries), epsilon_threshold)

    return build
