"""Weighted subspace families and their frame bounds.

Every bound comes from one analysis operator ``A`` (Casazza and Kutyniok,
"Frames of subspaces", 2004) with ``A^T A = sum_i x_i^2 P_i^T G P_i``, the
frame operator under a metric ``G``, built from r x r factors per member
with no ``(d, d)`` projection. Optimal bounds are the extreme eigenvalues
of ``F^T F`` for ``F = A G^{-1/2}``; they are exact, not certified, so
every theorem check is as tight as the arithmetic allows.

Companion-metric bounds (``G = |W|``) come from one :class:`FrameGeometry`
per (family, Gram operator), which keeps the factors more than one bound
reads, so no member's compressed form is factored twice.

Projections come in two kinds, matching the two frame-of-subspaces
definitions: metric-orthogonal projections for a plain or companion inner
product, and J-orthogonal projections for the indefinite form of a Gram
operator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .krein import GramOperator
from .linalg import (
    frobenius,
    inverse_sqrt_of_metric,
    orthonormalize,
    symmetric_eig,
    symmetrize,
)
from .subspaces import (
    PROJECTION_IDENTITY_TOL,
    CompletenessCheck,
    ComposedProjectionError,
    DegenerateSubspaceError,
    J_ORTHOGONAL,
    ORTHOGONAL,
    Subspace,
    _require_complete,
    composed_projection_from_check,
    is_projectively_complete,
    j_projection_from_check,
    subspace_from_columns,
)

__all__ = [
    "FRAME_TOL",
    "TIGHT_TOL",
    "WeightedSubspaceFamily",
    "FrameBounds",
    "FrameGeometry",
    "JProjectionReport",
    "FourWayReport",
    "LocalFrameSystem",
    "LocalFrameReport",
    "analysis_operator",
    "frame_operator",
    "frame_bounds",
    "whitened_bounds",
    "vector_frame_bounds",
    "verify_four_way_equivalence",
    "local_frames_to_fusion",
    "transport_by_invertible",
]

#: Lower bounds at or below this do not count as frames.
FRAME_TOL = 1e-10

#: Relative gap under which bounds count as tight / Parseval.
TIGHT_TOL = 1e-8

#: Relative difference under which two bounds count as equal; eigensolver
#: rounding is about ``d * eps`` relative.
BOUNDS_MATCH_TOL = 1e-8

#: Spread, relative to the largest upper bound, that four-way agreement
#: forgives: near-zero lower bounds sit at the eigensolve's rounding.
FOUR_WAY_NOISE_FLOOR = 1e-12

#: Frobenius distance, relative to ``max(1, ||Q||)``, under which the composed
#: J-projection, a product of two solves, matches the direct one.
CROSS_CHECK_TOL = 1e-8

#: Slack on sampled frame quotients against the optimal bounds they attain.
DEFINITION_SLACK = 1e-8

#: Condition-number cap for transporting operators.
TRANSPORT_COND_CAP = 1e10


@dataclass(frozen=True)
class WeightedSubspaceFamily:
    """Finite weighted family of subspaces of one ambient space."""

    weights: tuple[float, ...]
    subspaces: tuple[Subspace, ...]

    def __post_init__(self):
        if not self.subspaces:
            raise ValueError("family must contain at least one subspace")
        if len(self.weights) != len(self.subspaces):
            raise ValueError(
                f"{len(self.weights)} weights for {len(self.subspaces)} subspaces"
            )
        dims = {s.ambient_dim for s in self.subspaces}
        if len(dims) != 1:
            raise ValueError(f"mixed ambient dimensions {sorted(dims)}")
        for w in self.weights:
            if not (math.isfinite(w) and w > 0.0):
                raise ValueError("weights must be positive and finite")
        for s in self.subspaces:
            if s.dim == 0:
                raise ValueError("family members must have dimension at least 1")

    @property
    def ambient_dim(self) -> int:
        return self.subspaces[0].ambient_dim

    def __len__(self) -> int:
        return len(self.subspaces)


@dataclass(frozen=True)
class FrameBounds:
    """Optimal bounds with the frame / tight / Parseval classification."""

    lower: float
    upper: float
    is_frame: bool
    is_tight: bool
    is_parseval: bool

    def matches(self, lower: float, upper: float) -> bool:
        """Whether both bounds equal ``(lower, upper)`` to ``BOUNDS_MATCH_TOL``
        relative to ``max(1, |x|)``."""
        pairs = ((self.lower, lower), (self.upper, upper))
        return all(
            abs(a - b) <= BOUNDS_MATCH_TOL * max(1.0, abs(a), abs(b)) for a, b in pairs
        )


def classify_bounds(
    lower: float, upper: float, frame_tol: float = FRAME_TOL
) -> FrameBounds:
    lower = max(lower, 0.0)
    is_frame = lower > frame_tol
    is_tight = is_frame and (upper - lower) <= TIGHT_TOL * upper
    is_parseval = is_tight and abs(lower - 1.0) <= TIGHT_TOL
    return FrameBounds(lower, upper, is_frame, is_tight, is_parseval)


def _block(weight: float, subspace: Subspace, G: np.ndarray, W=None, check=None):
    """Rows ``x L^T B^T P`` with ``L L^T = B^T G B``, from r x r factors only:
    ``x L^{-1} (G B)^T`` for the metric-orthogonal ``P``; given ``check``,
    ``x L^T K^{-1} (W B)^T`` with its ``K = B^T W B`` for the J-orthogonal
    one, raising first if the member is degenerate."""
    B = subspace.basis
    if check is not None:
        _require_complete(check)
    GB = G @ B
    root = np.linalg.cholesky(symmetrize(B.T @ GB))
    if check is None:
        return weight * np.linalg.solve(root, GB.T)
    return weight * (root.T @ np.linalg.solve(check.compressed, (W @ B).T))


def _operator(family, G: np.ndarray, kind: str, geometry) -> np.ndarray:
    """Blocks in family order; J-orthogonal ones read ``geometry``'s checks."""
    if kind == ORTHOGONAL:
        W, checks = None, (None,) * len(family)
    elif kind == J_ORTHOGONAL:
        W, checks = geometry.gram.matrix, geometry.checks
    else:
        raise ValueError(f"unknown projection kind {kind!r}")
    return np.vstack([
        _block(weight, subspace, G, W, check)
        for weight, subspace, check in zip(family.weights, family.subspaces, checks)
    ])


def analysis_operator(
    family: WeightedSubspaceFamily,
    metric,
    kind: str = ORTHOGONAL,
    gram: GramOperator | None = None,
) -> np.ndarray:
    """Stacked ``(R, d)`` operator of blocks ``x_i L_i^T B_i^T P_i``, where
    ``L_i L_i^T = B_i^T G B_i``, each built from r x r factors (no ``P_i`` is
    formed); its Gram ``A^T A`` is the frame operator."""
    G = symmetrize(metric)
    if G.shape[0] != family.ambient_dim:
        raise ValueError(
            f"metric dimension {G.shape[0]} does not match family "
            f"dimension {family.ambient_dim}"
        )
    if kind == J_ORTHOGONAL and gram is None:
        raise ValueError("J-orthogonal projections need a Gram operator")
    geometry = FrameGeometry(family, gram) if kind == J_ORTHOGONAL else None
    return _operator(family, G, kind, geometry)


def frame_operator(
    family: WeightedSubspaceFamily,
    metric,
    kind: str = ORTHOGONAL,
    gram: GramOperator | None = None,
) -> np.ndarray:
    """Frame operator ``A^T A = sum_i x_i^2 P_i^T G P_i``."""
    A = analysis_operator(family, metric, kind, gram)
    return symmetrize(A.T @ A)


def _extreme_eigenvalues(whitened) -> tuple[float, float]:
    values = symmetric_eig(whitened.T @ whitened, vectors=False).eigenvalues
    return float(values[0]), float(values[-1])


def whitened_bounds(whitened, frame_tol: float = FRAME_TOL) -> FrameBounds:
    """Bounds of a whitened analysis operator ``F``: the extreme eigenvalues
    of ``F^T F`` (the lower one zero when ``F`` has fewer rows than columns)."""
    return classify_bounds(*_extreme_eigenvalues(whitened), frame_tol)


@dataclass(frozen=True, eq=False)
class FrameGeometry:
    """A family bound to a Gram operator. Each quantity of its companion-metric
    bounds is computed on first use and kept: the members' completeness checks,
    the analysis operator and its whitened extremes per projection kind.
    Tolerances only classify the kept extremes. It also checks the members'
    J-orthogonal projections and the frame definition on sample vectors."""

    family: WeightedSubspaceFamily
    gram: GramOperator
    _operators: dict = field(default_factory=dict, init=False, repr=False)
    _extremes: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.family.ambient_dim != self.gram.dim:
            raise ValueError("family and Gram operator dimensions differ")

    @functools.cached_property
    def checks(self) -> tuple[CompletenessCheck, ...]:
        """Projective completeness of each member, in family order."""
        return tuple(
            is_projectively_complete(s, self.gram) for s in self.family.subspaces
        )

    def mapped(self) -> FrameGeometry:
        """A new geometry of the J-image family ``{J V_i}`` (``J`` is orthogonal,
        so each ``J B_i`` is orthonormal), same weights. It is not kept: its
        factors would outlive the one check that reads them."""
        images = tuple(
            Subspace(self.gram.symmetry @ s.basis) for s in self.family.subspaces
        )
        return FrameGeometry(
            WeightedSubspaceFamily(self.family.weights, images), self.gram
        )

    def analysis_operator(self, kind: str) -> np.ndarray:
        """Companion-metric analysis operator for one projection kind."""
        if kind not in self._operators:
            G = self.gram.abs_matrix
            self._operators[kind] = _operator(self.family, G, kind, self)
        return self._operators[kind]

    def extremes(self, kind: str) -> tuple[float, float]:
        """Extreme eigenvalues of ``F^T F`` for ``F = A |W|^{-1/2}``."""
        if kind not in self._extremes:
            whitened = self.analysis_operator(kind) @ self.gram.inv_sqrt_abs
            self._extremes[kind] = _extreme_eigenvalues(whitened)
        return self._extremes[kind]

    def bounds(self, kind: str, frame_tol: float = FRAME_TOL) -> FrameBounds:
        """Optimal companion-metric bounds, classified by ``frame_tol``."""
        return classify_bounds(*self.extremes(kind), frame_tol)

    def verify_j_projections(self) -> JProjectionReport:
        """Check each member's J-orthogonal projection ``Q``: ``Q^2 = Q`` and
        ``W Q = Q^T W`` to ``PROJECTION_IDENTITY_TOL``, and the composed
        construction to ``CROSS_CHECK_TOL``. Each ``Q`` is dropped after its
        checks, so none is kept, and none feeds the analysis operator, which
        is built from r x r factors. A degenerate member raises."""
        gram = self.gram
        identities_hold = cross_check_holds = True
        notes = []
        for index, (subspace, check) in enumerate(
            zip(self.family.subspaces, self.checks)
        ):
            if not check:
                raise DegenerateSubspaceError(
                    f"subspace {index} is degenerate under the indefinite form",
                    witness=check.witness,
                )
            Q = j_projection_from_check(subspace, gram, check)
            scale = max(1.0, frobenius(Q))
            if (
                frobenius(Q @ Q - Q) > PROJECTION_IDENTITY_TOL * scale
                or frobenius(gram.matrix @ Q - Q.T @ gram.matrix)
                > PROJECTION_IDENTITY_TOL
            ):
                identities_hold = False
            try:
                composed = composed_projection_from_check(subspace, gram, check)
            except ComposedProjectionError:
                notes.append(
                    f"subspace {index}: composed construction not applicable "
                    "(not invariant under the fundamental symmetry)"
                )
                continue
            if frobenius(composed - Q) > CROSS_CHECK_TOL * scale:
                cross_check_holds = False
        return JProjectionReport(identities_hold, cross_check_holds, tuple(notes))

    def definition_holds(self, samples) -> bool:
        """Whether ``|A k|^2 / k^T |W| k`` of each row ``k`` of ``samples``
        lies within the J-orthogonal bounds up to ``DEFINITION_SLACK``."""
        A = self.analysis_operator(J_ORTHOGONAL)
        bounds = self.bounds(J_ORTHOGONAL)
        values = np.sum((samples @ A.T) ** 2, axis=1) / np.sum(
            (samples @ self.gram.abs_matrix) * samples, axis=1
        )
        lower, upper = bounds.lower - DEFINITION_SLACK, bounds.upper + DEFINITION_SLACK
        return bool(np.all((lower <= values) & (values <= upper)))


@dataclass(frozen=True)
class JProjectionReport:
    """Whether the members' J-projections satisfy their identities and match
    the composed construction; a note per member it does not apply to."""

    identities_hold: bool
    cross_check_holds: bool
    notes: tuple[str, ...]


def frame_bounds(
    family: WeightedSubspaceFamily,
    metric,
    kind: str = ORTHOGONAL,
    gram: GramOperator | None = None,
    frame_tol: float = FRAME_TOL,
) -> FrameBounds:
    """Optimal frame bounds: extremes of ``|A k|^2 / k^T G k``."""
    G = symmetrize(metric)
    if gram is not None and np.array_equal(G, gram.abs_matrix):
        return FrameGeometry(family, gram).bounds(kind, frame_tol)
    root = None if np.array_equal(G, np.eye(len(G))) else inverse_sqrt_of_metric(G)
    A = analysis_operator(family, G, kind, gram)
    return whitened_bounds(A if root is None else A @ root, frame_tol)


def vector_frame_bounds(vectors, metric, frame_tol: float = FRAME_TOL) -> FrameBounds:
    """Optimal bounds of a finite vector frame under an SPD metric.

    The quadratic form is ``sum_j <k, f_j>_G^2``: the analysis operator
    has rows ``(G f_j)^T``.
    """
    G = symmetrize(metric)
    rows = np.array([np.asarray(f, dtype=float) for f in vectors])
    if rows.ndim != 2 or rows.shape[1] != G.shape[0]:
        raise ValueError(f"expected a nonempty list of ({G.shape[0]},) frame vectors")
    return whitened_bounds(rows @ G @ inverse_sqrt_of_metric(G), frame_tol)


@dataclass(frozen=True)
class FourWayReport:
    """Bound pairs of the four frame-of-subspaces formulations.

    Formulations: J-orthogonal projections on the family, the same on the
    symmetry-mapped family, and companion-metric orthogonal projections on
    both. ``bounds_agree`` holds when all lower and all upper bounds match
    as :func:`verify_four_way_equivalence` checks; degeneracies encountered
    while building J-orthogonal projections are reported per item.
    """

    q_on_subspaces: FrameBounds | None
    q_on_mapped: FrameBounds | None
    p_on_subspaces: FrameBounds | None
    p_on_mapped: FrameBounds | None
    degeneracies: tuple[str, ...]
    bounds_agree: bool

    @property
    def all_bounds(self):
        return (
            self.q_on_subspaces,
            self.q_on_mapped,
            self.p_on_subspaces,
            self.p_on_mapped,
        )


def verify_four_way_equivalence(
    geometry: FrameGeometry, frame_tol: float = FRAME_TOL
) -> FourWayReport:
    """Compute the four formulation bound pairs and whether they coincide.

    All four quadratic forms are normalized by the companion norm, so the
    four bound pairs are directly comparable. Agreement is relative: the
    spread of the four lower bounds (and of the four upper bounds) must
    stay within ``BOUNDS_MATCH_TOL`` of the bound magnitude, plus an
    absolute floor of ``FOUR_WAY_NOISE_FLOOR`` times the largest upper
    bound. The floor matters for families that barely frame the space:
    their lower bounds sit at the rounding noise of the eigensolve, where a
    purely relative comparison would demand more precision than double
    arithmetic carries.
    """
    mapped = geometry.mapped()
    labels_and_calls = (
        ("q on subspaces", geometry, J_ORTHOGONAL),
        ("q on mapped subspaces", mapped, J_ORTHOGONAL),
        ("p on subspaces", geometry, ORTHOGONAL),
        ("p on mapped subspaces", mapped, ORTHOGONAL),
    )
    results: list[FrameBounds | None] = []
    degeneracies: list[str] = []
    for label, side, kind in labels_and_calls:
        try:
            results.append(side.bounds(kind, frame_tol))
        except DegenerateSubspaceError as exc:
            results.append(None)
            degeneracies.append(f"{label}: {exc}")
    agree = not degeneracies
    if agree:
        lows = [b.lower for b in results]
        highs = [b.upper for b in results]
        low_scale = max(abs(v) for v in lows)
        high_scale = max(abs(v) for v in highs)
        noise_floor = FOUR_WAY_NOISE_FLOOR * high_scale
        agree = (
            max(lows) - min(lows) <= BOUNDS_MATCH_TOL * low_scale + noise_floor
            and max(highs) - min(highs) <= BOUNDS_MATCH_TOL * high_scale + noise_floor
        )
    return FourWayReport(
        q_on_subspaces=results[0],
        q_on_mapped=results[1],
        p_on_subspaces=results[2],
        p_on_mapped=results[3],
        degeneracies=tuple(degeneracies),
        bounds_agree=agree,
    )


@dataclass(frozen=True)
class LocalFrameSystem:
    """Partitioned vector system: one block of spanning vectors per weight.

    Blocks are stored as ``(d, n_i)`` column stacks; the induced partition
    of indices is contiguous and disjoint by construction.
    """

    blocks: tuple[np.ndarray, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("system must contain at least one block")
        if len(self.blocks) != len(self.weights):
            raise ValueError("one weight per block is required")
        dims = {b.shape[0] for b in self.blocks}
        if len(dims) != 1:
            raise ValueError("blocks live in different ambient dimensions")
        for b in self.blocks:
            if b.ndim != 2 or b.shape[1] == 0:
                raise ValueError("blocks must be nonempty column stacks")
            b.flags.writeable = False
        for w in self.weights:
            if not (math.isfinite(w) and w > 0.0):
                raise ValueError("weights must be positive and finite")

    @property
    def ambient_dim(self) -> int:
        return int(self.blocks[0].shape[0])

    @property
    def partition(self) -> tuple[tuple[int, ...], ...]:
        """Index sets of the blocks within the flattened vector sequence."""
        sets = []
        start = 0
        for b in self.blocks:
            sets.append(tuple(range(start, start + b.shape[1])))
            start += b.shape[1]
        return tuple(sets)


@dataclass(frozen=True)
class LocalFrameReport:
    """Equivalence report between local vector frames and the fusion family.

    Collects per-block bounds of each block within its own span, the two
    global vector-frame bound pairs (raw weighted vectors and weighted
    orthonormalized bases) and the fusion bounds of the spanned family.
    The verdict holds when the three frame flags agree.
    """

    block_bounds: tuple[FrameBounds, ...]
    weighted_vector_bounds: FrameBounds
    weighted_basis_bounds: FrameBounds
    fusion_bounds: FrameBounds
    verdicts_agree: bool
    issues: tuple[str, ...]


def local_frames_to_fusion(
    system: LocalFrameSystem,
    gram: GramOperator,
    frame_tol: float = FRAME_TOL,
) -> LocalFrameReport:
    """Check the local-frames versus fusion-frame correspondence.

    Every quantity is measured in the companion metric of the Gram
    operator. Per-block bounds are the bounds of the block seen as a
    vector frame of its own span; blocks that fail to frame their span
    (or whose span degenerates under the indefinite form) are reported.
    """
    if system.ambient_dim != gram.dim:
        raise ValueError("system and Gram operator dimensions differ")
    issues: list[str] = []
    block_bounds = []
    spans = []
    vector_rows, basis_rows = [], []
    for index, (block, weight) in enumerate(zip(system.blocks, system.weights)):
        # whitened vectors |W|^{1/2} f_j, measured in coordinates of their span
        whitened = gram.sqrt_abs @ block
        coords = orthonormalize(whitened)
        if coords.shape[1] == 0:
            raise ValueError(f"block {index} spans nothing")
        spans.append(subspace_from_columns(block))
        bounds = whitened_bounds(whitened.T @ coords, frame_tol)
        block_bounds.append(bounds)
        if not bounds.is_frame:
            issues.append(
                f"block {index} does not frame its span "
                f"(lower bound {bounds.lower:.3e})"
            )
        vector_rows.append(weight * whitened.T)
        basis_rows.append(weight * coords.T)
    vector_bounds = whitened_bounds(np.vstack(vector_rows), frame_tol)
    basis_bounds = whitened_bounds(np.vstack(basis_rows), frame_tol)

    family = WeightedSubspaceFamily(system.weights, tuple(spans))
    try:
        fusion = FrameGeometry(family, gram).bounds(J_ORTHOGONAL, frame_tol)
    except DegenerateSubspaceError as exc:
        issues.append(f"fusion family degenerates: {exc}")
        fusion = classify_bounds(0.0, math.inf, frame_tol)
    verdicts = (vector_bounds.is_frame, basis_bounds.is_frame, fusion.is_frame)
    return LocalFrameReport(
        block_bounds=tuple(block_bounds),
        weighted_vector_bounds=vector_bounds,
        weighted_basis_bounds=basis_bounds,
        fusion_bounds=fusion,
        verdicts_agree=len(set(verdicts)) == 1,
        issues=tuple(issues),
    )


def transport_by_invertible(
    family: WeightedSubspaceFamily, operator
) -> WeightedSubspaceFamily:
    """Replace every subspace by the orthonormalized image under a map.

    Weights are unchanged. The map must be invertible with condition
    number at most ``TRANSPORT_COND_CAP``; frame-ness of the family is preserved by
    any such map, and bounds are preserved exactly when the map is
    unitary between the source and target metrics.
    """
    U = np.asarray(operator, dtype=float)
    d = family.ambient_dim
    if U.shape != (d, d):
        raise ValueError(f"operator shape {U.shape} does not match dimension {d}")
    singular_values = np.linalg.svd(U, compute_uv=False)
    if singular_values[-1] <= 0.0 or (
        singular_values[0] / singular_values[-1] > TRANSPORT_COND_CAP
    ):
        raise ValueError(
            "operator is numerically singular: singular values span "
            f"[{singular_values[-1]:.3e}, {singular_values[0]:.3e}]"
        )
    transported = tuple(
        Subspace(orthonormalize(U @ s.basis)) for s in family.subspaces
    )
    return WeightedSubspaceFamily(family.weights, transported)
