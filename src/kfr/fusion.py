"""Weighted subspace families and their frame bounds.

Every bound comes from an analysis operator ``A`` (Casazza and Kutyniok,
"Frames of subspaces", 2004) whose Gram ``A^T A`` is the frame operator.
Optimal bounds are the extreme eigenvalues of ``F^T F`` for the whitened
``F``; they are exact, not certified. One entry point per geometry:

- :func:`frame_bounds`, plain: ``F = A`` stacks the rows ``x_i B_i^T``.
- :meth:`FrameGeometry.bounds`, companion (``G = |W|``): ``A^T A =
  sum_i x_i^2 P_i^T G P_i`` from r x r factors per member, with no
  ``(d, d)`` projection, and ``F = A |W|^{-1/2}``. The geometry keeps the
  factors more than one bound reads, so none is factored twice. Its
  projections come in two kinds, matching the two frame-of-subspaces
  definitions: ``|W|``-orthogonal and J-orthogonal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .krein import GramOperator
from .linalg import frobenius, orthonormalize, symmetric_eig, symmetrize
from .subspaces import (
    PROJECTION_IDENTITY_TOL,
    CompletenessCheck,
    DegenerateSubspaceError,
    J_ORTHOGONAL,
    ORTHOGONAL,
    Subspace,
    _require_complete,
    is_projectively_complete,
    subspace_from_columns,
)

__all__ = [
    "FRAME_TOL",
    "TIGHT_TOL",
    "WeightedSubspaceFamily",
    "FrameBounds",
    "FrameGeometry",
    "JProjectionResiduals",
    "JProjectionReport",
    "FourWayReport",
    "LocalFrameSystem",
    "LocalFrameReport",
    "frame_operator",
    "frame_bounds",
    "whitened_bounds",
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


def _block(weight: float, subspace: Subspace, gram: GramOperator, j_factor=None):
    """Rows ``x L^T B^T P`` with ``L L^T = B^T G B`` for ``G = |W|``, from
    r x r factors only: ``x L^{-1} (G B)^T`` for the metric-orthogonal ``P``;
    given the member's ``j_factor`` ``K^{-1} (W B)^T``, ``x L^T K^{-1}
    (W B)^T`` for the J-orthogonal one."""
    B = subspace.basis
    GB = gram.times("abs_matrix", B)
    root = np.linalg.cholesky(symmetrize(B.T @ GB))
    if j_factor is None:
        return weight * np.linalg.solve(root, GB.T)
    return weight * (root.T @ j_factor)


def frame_bounds(
    family: WeightedSubspaceFamily, frame_tol: float = FRAME_TOL
) -> FrameBounds:
    """Optimal plain-metric bounds, the extremes of
    ``sum_i x_i^2 |P_i k|^2 / |k|^2``, from the rows ``x_i B_i^T``.

    It assumes orthonormal bases, for which ``B_i B_i^T = P_i``. A basis
    with ``||B^T B - I||_2 = delta`` gives ``(1 - delta) P <= B B^T <=
    (1 + delta) P``, so each bound is within ``delta`` relative (the
    largest over the members) of the projections' bound. :class:`Subspace`
    admits ``delta`` up to ``ORTHONORMALITY_TOL``."""
    return whitened_bounds(_plain_operator(family), frame_tol)


def frame_operator(
    family: WeightedSubspaceFamily,
    gram: GramOperator | None = None,
    kind: str = ORTHOGONAL,
) -> np.ndarray:
    """The ``(d, d)`` frame operator ``A^T A`` that the bounds reduce: the
    plain ``sum_i x_i^2 B_i B_i^T`` without ``gram``, or the companion
    ``sum_i x_i^2 P_i^T |W| P_i`` of ``gram``'s geometry for either kind."""
    if gram is None:
        if kind != ORTHOGONAL:
            raise ValueError("J-orthogonal projections need a Gram operator")
        A = _plain_operator(family)
    else:
        A = FrameGeometry(family, gram).analysis_operator(kind)
    return symmetrize(A.T @ A)


def _plain_operator(family: WeightedSubspaceFamily) -> np.ndarray:
    """Rows ``x_i B_i^T`` in family order."""
    return np.vstack([w * s.basis.T for w, s in zip(family.weights, family.subspaces)])


def _skew_norm(X: np.ndarray) -> float:
    """``||X - X^T||_F``."""
    return frobenius(X - X.T)


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
    bounds is computed on first use and kept: the members' completeness checks
    and J-factors, the analysis operator and its whitened extremes per
    projection kind. Tolerances only classify the kept extremes. It also
    checks the members' J-orthogonal projections and the frame definition on
    sample vectors."""

    family: WeightedSubspaceFamily
    gram: GramOperator
    _j_factors: dict = field(default_factory=dict, init=False, repr=False)
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

    def j_factor(self, index: int) -> np.ndarray:
        """Member ``index``'s ``(r, d)`` factor ``N = K^{-1} (W B)^T``, with
        ``K = B^T W B`` from its completeness check, of the J-orthogonal
        projection ``Q = B N``; kept, so the J-orthogonal block and the
        projection check read the same bits. A degenerate member raises."""
        if index not in self._j_factors:
            check = self.checks[index]
            _require_complete(check)
            B = self.family.subspaces[index].basis
            self._j_factors[index] = np.linalg.solve(
                check.compressed, self.gram.times("matrix", B).T
            )
        return self._j_factors[index]

    def mapped(self) -> FrameGeometry:
        """A new geometry of the J-image family ``{J V_i}`` (``J`` is orthogonal,
        so each ``J B_i`` is orthonormal), same weights. It is not kept: its
        factors would outlive the one check that reads them."""
        images = tuple(
            Subspace(self.gram.times("symmetry", s.basis))
            for s in self.family.subspaces
        )
        return FrameGeometry(
            WeightedSubspaceFamily(self.family.weights, images), self.gram
        )

    def analysis_operator(self, kind: str) -> np.ndarray:
        """Companion-metric analysis operator for one projection kind, its
        blocks in family order. J-orthogonal blocks read the kept
        :meth:`j_factor`, each made (or raised on, for a degenerate member)
        just before its block."""
        if kind not in self._operators:
            if kind == ORTHOGONAL:
                j_factors = (None,) * len(self.family)
            elif kind == J_ORTHOGONAL:
                j_factors = map(self.j_factor, range(len(self.family)))
            else:
                raise ValueError(f"unknown projection kind {kind!r}")
            members = zip(self.family.weights, self.family.subspaces, j_factors)
            self._operators[kind] = np.vstack([
                _block(weight, subspace, self.gram, j_factor)
                for weight, subspace, j_factor in members
            ])
        return self._operators[kind]

    def extremes(self, kind: str) -> tuple[float, float]:
        """Extreme eigenvalues of ``F^T F`` for ``F = A |W|^{-1/2}``."""
        if kind not in self._extremes:
            whitened = self.gram.times(
                "inv_sqrt_abs", self.analysis_operator(kind), right=True
            )
            self._extremes[kind] = _extreme_eigenvalues(whitened)
        return self._extremes[kind]

    def bounds(self, kind: str, frame_tol: float = FRAME_TOL) -> FrameBounds:
        """Optimal companion-metric bounds, classified by ``frame_tol``."""
        return classify_bounds(*self.extremes(kind), frame_tol)

    def j_projection_residuals(self, index: int) -> JProjectionResiduals:
        """Member ``index``'s residuals that :meth:`verify_j_projections` reads,
        from the ``(r, d)`` factors it describes. A degenerate member raises."""
        gram = self.gram
        B = self.family.subspaces[index].basis
        WB = gram.times("matrix", B)
        N = self.j_factor(index)
        JB = gram.times("symmetry", B)
        BtG = gram.times("abs_matrix", B.T, right=True)
        JBtG = gram.times("abs_matrix", JB.T, right=True)
        # T = M_V (J B) M_{JV}, grouped so that both solves take r columns
        left = np.linalg.solve(symmetrize(BtG @ B), BtG @ JB)
        T = np.linalg.solve(symmetrize(JBtG @ JB), left.T).T @ JBtG
        TB = T @ B
        scale = max(1.0, frobenius(N))
        composed_scale = max(1.0, frobenius(T))
        return JProjectionResiduals(
            scale=scale,
            idempotency=frobenius((N @ B) @ N - N),
            w_self_adjoint=_skew_norm(WB @ N),
            composed={
                "idempotency": frobenius(TB @ T - T) / composed_scale,
                "fixes_subspace": frobenius(TB - np.eye(len(TB))),
                "w_self_adjoint": _skew_norm(WB @ T)
                / max(1.0, frobenius(gram.matrix) * composed_scale),
            },
            cross_check=frobenius(T - N),
        )

    def verify_j_projections(self) -> JProjectionReport:
        """Check each member's J-orthogonal projection ``Q``: ``Q^2 = Q`` to
        ``PROJECTION_IDENTITY_TOL`` relative to ``max(1, ||Q||)``, ``W Q = Q^T W``
        to it absolutely, and the composed construction ``P_V P_{JV}`` to
        ``CROSS_CHECK_TOL``. A composed product with a residual of its own
        above ``PROJECTION_IDENTITY_TOL`` is not a J-orthogonal projection (it
        is one only on members invariant under ``J``), so its member gets a
        note instead of a cross-check. A degenerate member raises.

        Neither projection is formed. ``Q = B N`` with the kept
        :meth:`j_factor` ``N = K^{-1} (W B)^T``, and ``P_V P_{JV} = B T`` with
        ``T = M_V (J B) M_{JV}``, where ``M_V = (B^T G B)^{-1} B^T G`` for
        ``G = |W|`` and likewise on the orthonormal basis ``J B`` of ``J V``;
        each keeps its own formula, so the cross-check compares two
        constructions. Each residual is the ``(d, d)`` norm read on the
        factors, because ``||B X||_F = ||X||_F`` for orthonormal ``B``:
        ``Q^2 - Q = B (N B N - N)``, ``P_V P_{JV} - Q = B (T - N)`` and
        ``W Q - Q^T W = X - X^T`` with ``X = (W B) N``, a rank-r product."""
        identities_hold = cross_check_holds = True
        notes = []
        for index, check in enumerate(self.checks):
            if not check:
                raise DegenerateSubspaceError(
                    f"subspace {index} is degenerate under the indefinite form",
                    witness=check.witness,
                )
            residuals = self.j_projection_residuals(index)
            if (
                residuals.idempotency > PROJECTION_IDENTITY_TOL * residuals.scale
                or residuals.w_self_adjoint > PROJECTION_IDENTITY_TOL
            ):
                identities_hold = False
            if any(
                value > PROJECTION_IDENTITY_TOL for value in residuals.composed.values()
            ):
                notes.append(
                    f"subspace {index}: composed construction not applicable "
                    "(not invariant under the fundamental symmetry)"
                )
            elif residuals.cross_check > CROSS_CHECK_TOL * residuals.scale:
                cross_check_holds = False
        return JProjectionReport(identities_hold, cross_check_holds, tuple(notes))

    def definition_holds(self, samples) -> bool:
        """Whether ``|A k|^2 / k^T |W| k`` of each row ``k`` of ``samples``
        lies within the J-orthogonal bounds up to ``DEFINITION_SLACK``."""
        A = self.analysis_operator(J_ORTHOGONAL)
        bounds = self.bounds(J_ORTHOGONAL)
        values = np.sum((samples @ A.T) ** 2, axis=1) / np.sum(
            self.gram.times("abs_matrix", samples, right=True) * samples, axis=1
        )
        lower, upper = bounds.lower - DEFINITION_SLACK, bounds.upper + DEFINITION_SLACK
        return bool(np.all((lower <= values) & (values <= upper)))


@dataclass(frozen=True)
class JProjectionResiduals:
    """One member's J-projection residuals, as Frobenius norms of ``(d, d)``
    differences: ``scale`` is ``max(1, ||Q||)``, ``idempotency`` is
    ``||Q^2 - Q||``, ``w_self_adjoint`` is ``||W Q - Q^T W||`` and
    ``cross_check`` is ``||P_V P_{JV} - Q||``; ``composed`` holds the
    composed product's own residuals, normalized and keyed as
    ``subspaces.ComposedProjectionError`` keeps them."""

    scale: float
    idempotency: float
    w_self_adjoint: float
    composed: dict[str, float]
    cross_check: float


@dataclass(frozen=True)
class JProjectionReport:
    """Whether the members' J-projections satisfy their identities and match
    the composed construction; a note per member it does not apply to."""

    identities_hold: bool
    cross_check_holds: bool
    notes: tuple[str, ...]


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
        whitened = gram.times("sqrt_abs", block)
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
    return _transport(family, lambda basis: U @ basis)


def _transport(family: WeightedSubspaceFamily, image) -> WeightedSubspaceFamily:
    """Replace every subspace by the orthonormalized ``image`` of its basis,
    with the weights unchanged; ``image`` maps a ``(d, r)`` block to one."""
    return WeightedSubspaceFamily(
        family.weights,
        tuple(Subspace(orthonormalize(image(s.basis))) for s in family.subspaces),
    )
