"""Subspaces, metric projections and J-orthogonal projections.

A subspace is stored as a block of orthonormal columns. Projections come
in two families: orthogonal projections with respect to an arbitrary SPD
metric ``G`` and J-orthogonal projections with respect to the indefinite
form of a Gram operator. Every constructor returns the projection's
``(d, d)`` matrix as a read-only array. J-orthogonal projections exist
exactly when the compressed form ``B^T W B`` is invertible, the
finite-dimensional reading of the projective completeness assumption;
degenerate inputs raise :class:`DegenerateSubspaceError` with a witness
vector of near-zero self-product.

Two independent J-orthogonal constructions are provided. Only the
projection checks form them; frame bounds use r x r factors. The direct
Gram formula is checked against the composed product of two metric
projections. That product agrees with it precisely on subspaces
invariant under the fundamental symmetry, and it refuses (with
:class:`ComposedProjectionError`) whenever its output fails the
projection identities instead of silently returning a non-projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .krein import GramOperator, w_inner
from .linalg import (
    EigenDecomposition,
    MetricError,
    _freeze,
    frobenius,
    orthonormalize,
    symmetric_eig,
    symmetrize,
)

__all__ = [
    "DegenerateSubspaceError",
    "ComposedProjectionError",
    "ORTHOGONAL",
    "J_ORTHOGONAL",
    "Subspace",
    "CompletenessCheck",
    "subspace_from_columns",
    "spans_equal",
    "orthogonal_projection",
    "j_projection_from_check",
    "j_orthogonal_projection_gram",
    "composed_projection_from_check",
    "j_orthogonal_projection_composed",
    "j_orthogonal_complement",
    "is_projectively_complete",
    "check_j_orthonormal",
    "j_orthonormal_basis",
]

#: Relative magnitude floor for the compressed form B^T W B; below it the
#: subspace counts as degenerate (condition cap 1e10).
DEGENERACY_TOL = 1e-10

#: Residual tolerance for the projection identities of composed constructions.
PROJECTION_IDENTITY_TOL = 1e-9

#: Two spans are considered equal when cross-projection residuals stay below.
SPAN_TOL = 1e-8

#: Frobenius residual of ``B^T B = I`` up to which a basis is orthonormal.
ORTHONORMALITY_TOL = 1e-10

#: Residual of ``[e_i, e_j] = +-delta_ij``, at the projection identities' scale.
J_ORTHONORMALITY_TOL = PROJECTION_IDENTITY_TOL

ORTHOGONAL = "orthogonal"
J_ORTHOGONAL = "j-orthogonal"


class DegenerateSubspaceError(Exception):
    """Raised for subspaces on which the indefinite form degenerates.

    ``witness`` is a unit vector of the subspace whose self-product is
    near zero relative to the subspace scale.
    """

    def __init__(self, msg: str, witness: np.ndarray | None = None):
        super().__init__(msg)
        self.witness = witness


class ComposedProjectionError(Exception):
    """Raised when the composed projection product is not a J-orthogonal
    projection for the given subspace.

    Residuals of the failed identities are kept in ``residuals``.
    """

    def __init__(self, msg: str, residuals: dict[str, float]):
        super().__init__(msg)
        self.residuals = residuals


@dataclass(frozen=True)
class Subspace:
    """Column span of an orthonormal ``(d, r)`` block."""

    basis: np.ndarray

    def __post_init__(self):
        B = self.basis
        if B.ndim != 2:
            raise ValueError(f"basis must be 2-d, got shape {B.shape}")
        if not np.all(np.isfinite(B)):
            raise ValueError("basis must have finite entries")
        r = B.shape[1]
        if r and frobenius(B.T @ B - np.eye(r)) > ORTHONORMALITY_TOL:
            raise ValueError("basis columns are not orthonormal")
        B.flags.writeable = False

    @property
    def ambient_dim(self) -> int:
        return int(self.basis.shape[0])

    @property
    def dim(self) -> int:
        return int(self.basis.shape[1])


def subspace_from_columns(columns) -> Subspace:
    """Subspace spanned by arbitrary columns, compressed to numerical rank."""
    return Subspace(orthonormalize(columns))


def spans_equal(a: Subspace, b: Subspace, tol: float = SPAN_TOL) -> bool:
    """Whether two subspaces coincide as column spans.

    Each basis must project onto the other with residual at most ``tol``,
    in both directions.
    """
    if a.ambient_dim != b.ambient_dim or a.dim != b.dim:
        return False
    for first, second in ((a, b), (b, a)):
        resid = first.basis - second.basis @ (second.basis.T @ first.basis)
        if frobenius(resid) > tol * max(1.0, frobenius(first.basis)):
            return False
    return True


def _check_ambient(subspace: Subspace, dim: int):
    if subspace.ambient_dim != dim:
        raise ValueError(
            f"subspace lives in dimension {subspace.ambient_dim}, expected {dim}"
        )


def orthogonal_projection(subspace: Subspace, metric) -> np.ndarray:
    """Orthogonal projection onto a subspace under an SPD metric.

    Computes ``B (B^T G B)^{-1} B^T G``. The compressed matrix is SPD for
    any SPD ``G`` and orthonormal ``B``, so failure to solve indicates a
    broken metric and raises :class:`MetricError`.
    """
    G = symmetrize(metric)
    _check_ambient(subspace, G.shape[0])
    B = subspace.basis
    if subspace.dim == 0:
        return _freeze(np.zeros_like(G))
    compressed = symmetrize(B.T @ G @ B)
    try:
        solved = np.linalg.solve(compressed, B.T @ G)
    except np.linalg.LinAlgError as exc:
        raise MetricError(f"metric is singular on the subspace: {exc}") from exc
    return _freeze(B @ solved)


@dataclass(frozen=True)
class CompletenessCheck:
    """Outcome of the projective completeness test.

    False outcomes carry a ``witness``: a unit vector of the subspace with
    near-zero indefinite self-product. The compressed form ``B^T W B`` and
    its eigendecomposition are kept for the J-constructions.
    """

    complete: bool
    smallest: float
    largest: float
    witness: np.ndarray | None
    compressed: np.ndarray | None = None
    eig: EigenDecomposition | None = None

    def __post_init__(self):
        if self.compressed is not None:
            self.compressed.flags.writeable = False

    def __bool__(self) -> bool:
        return self.complete


def is_projectively_complete(
    subspace: Subspace, gram: GramOperator
) -> CompletenessCheck:
    """Whether the indefinite form is nondegenerate on the subspace.

    True when the smallest singular value of ``B^T W B`` exceeds
    ``DEGENERACY_TOL`` times the spectral magnitude of ``W``. The scale is
    the operator's, not the compressed block's: a block that is uniformly
    tiny relative to ``W`` is degenerate even though its own condition
    number is moderate, and the J-orthogonal projection norm grows like the
    reciprocal of the smallest compressed singular value.
    """
    _check_ambient(subspace, gram.dim)
    if subspace.dim == 0:
        return CompletenessCheck(True, 0.0, 0.0, None)
    B = subspace.basis
    compressed = symmetrize(B.T @ gram.matrix @ B)
    eig = symmetric_eig(compressed)
    magnitudes = np.abs(eig.eigenvalues)
    smallest, largest = float(magnitudes.min()), float(magnitudes.max())
    complete = smallest > DEGENERACY_TOL * gram.regularity.max_abs_eigenvalue
    witness = None
    if not complete:
        witness = B @ eig.eigenvectors[:, int(np.argmin(magnitudes))]
    return CompletenessCheck(complete, smallest, largest, witness, compressed, eig)


def _require_complete(check: CompletenessCheck):
    if not check:
        raise DegenerateSubspaceError(
            "indefinite form degenerates on the subspace: compressed "
            f"eigenvalue magnitudes span [{check.smallest:.3e}, {check.largest:.3e}]",
            witness=check.witness,
        )


def j_projection_from_check(
    subspace: Subspace, gram: GramOperator, check: CompletenessCheck
) -> np.ndarray:
    """:func:`j_orthogonal_projection_gram` from the subspace's ``check``."""
    if subspace.dim == 0:
        return _freeze(np.zeros((gram.dim, gram.dim)))
    _require_complete(check)
    B = subspace.basis
    solved = np.linalg.solve(check.compressed, B.T @ gram.matrix)
    return _freeze(B @ solved)


def j_orthogonal_projection_gram(subspace: Subspace, gram: GramOperator) -> np.ndarray:
    """J-orthogonal projection by the direct formula ``B (B^T W B)^{-1} B^T W``.

    Requires the subspace to be projectively complete; otherwise the
    compressed form is numerically singular and the projection does not
    exist.
    """
    check = is_projectively_complete(subspace, gram)
    return j_projection_from_check(subspace, gram, check)


def composed_projection_from_check(
    subspace: Subspace, gram: GramOperator, check: CompletenessCheck
) -> np.ndarray:
    """:func:`j_orthogonal_projection_composed` from the subspace's ``check``;
    ``J`` is orthogonal, so ``J B`` is an orthonormal basis of the J-image."""
    _require_complete(check)
    metric = gram.abs_matrix
    p_v = orthogonal_projection(subspace, metric)
    mapped = Subspace(gram.symmetry @ subspace.basis)
    p_jv = orthogonal_projection(mapped, metric)
    Q = p_v @ p_jv

    scale = max(1.0, frobenius(Q))
    residuals = {
        "idempotency": frobenius(Q @ Q - Q) / scale,
        "fixes_subspace": frobenius(Q @ subspace.basis - subspace.basis),
        "w_self_adjoint": frobenius(gram.matrix @ Q - Q.T @ gram.matrix)
        / max(1.0, frobenius(gram.matrix) * scale),
    }
    if any(value > PROJECTION_IDENTITY_TOL for value in residuals.values()):
        raise ComposedProjectionError(
            "composed product is not a J-orthogonal projection here "
            f"(residuals {residuals}); the construction needs a subspace "
            "invariant under the fundamental symmetry",
            residuals=residuals,
        )
    return _freeze(Q)


def j_orthogonal_projection_composed(
    subspace: Subspace, gram: GramOperator
) -> np.ndarray:
    """J-orthogonal projection as the product of two metric projections.

    Forms ``P_V P_{JV}`` with both factors orthogonal under the companion
    metric ``|W|``. The product is a J-orthogonal projection exactly when
    the subspace is invariant under the fundamental symmetry; the result
    is validated against the projection identities and rejected otherwise,
    so a caller can never mistake the composition for a projection it is
    not.
    """
    check = is_projectively_complete(subspace, gram)
    return composed_projection_from_check(subspace, gram, check)


def j_orthogonal_complement(subspace: Subspace, gram: GramOperator) -> Subspace:
    """Complement with respect to the indefinite form.

    Equals ``J`` applied to the orthogonal complement taken in the
    associated Hilbert space, i.e. under the companion metric ``|W|``:
    for ``z`` with ``<|W|z, v> = 0`` on the subspace, ``[v, Jz] =
    z^T |W| v = 0``. The result has complementary dimension and is
    W-orthogonal to the input.
    """
    _check_ambient(subspace, gram.dim)
    d, r = gram.dim, subspace.dim
    if r == 0:
        return Subspace(np.eye(d))
    if r == d:
        return Subspace(np.zeros((d, 0)))
    # companion complement = plain complement of the span of |W| B
    full, _, _ = np.linalg.svd(gram.abs_matrix @ subspace.basis, full_matrices=True)
    companion_complement = full[:, r:]
    return Subspace(gram.symmetry @ companion_complement)


def check_j_orthonormal(vectors, gram: GramOperator) -> bool:
    """Whether vectors pairwise satisfy ``[e_i, e_j] = +-delta_ij``.

    Off-diagonal products must vanish to ``J_ORTHONORMALITY_TOL`` and
    self-products must have magnitude within it of one.
    """
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    for i, vi in enumerate(vecs):
        for j, vj in enumerate(vecs):
            value = w_inner(gram, vi, vj)
            if i == j:
                if abs(abs(value) - 1.0) > J_ORTHONORMALITY_TOL:
                    return False
            elif abs(value) > J_ORTHONORMALITY_TOL:
                return False
    return True


def j_orthonormal_basis(subspace: Subspace, gram: GramOperator) -> np.ndarray:
    """Basis of the subspace with ``[b_i, b_j] = +-delta_ij``.

    Diagonalizes the compressed form and rescales by inverse square roots
    of the eigenvalue magnitudes; exists exactly for projectively complete
    subspaces.
    """
    check = is_projectively_complete(subspace, gram)
    if subspace.dim == 0:
        return np.zeros((gram.dim, 0))
    _require_complete(check)
    scaling = 1.0 / np.sqrt(np.abs(check.eig.eigenvalues))
    return subspace.basis @ (check.eig.eigenvectors * scaling)
