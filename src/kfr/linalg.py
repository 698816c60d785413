"""Dense real symmetric linear algebra kernel.

Everything downstream needs lives here: one symmetric eigensolver entry
point (LAPACK through ``np.linalg.eigh``, or ``np.linalg.eigvalsh`` when
only values are asked for), rank-revealing orthonormalization, the inverse
square root of a metric and extremal generalized Rayleigh quotients for
symmetric-definite pencils. A map on the spectrum is one vectorized call,
:meth:`EigenDecomposition.assemble`. All inputs and outputs are plain
``numpy.float64`` arrays; results are returned with ``writeable=False`` so
shared values cannot be mutated behind a caller's back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "MetricError",
    "EigenDecomposition",
    "symmetrize",
    "frobenius",
    "offdiag_frobenius",
    "symmetric_eig",
    "orthonormalize",
    "inverse_sqrt_of_metric",
    "extremal_rayleigh",
]

#: Off-diagonal Frobenius norm, as a fraction of the matrix's own and so at
#: any scale, at or below which ``symmetric_eig`` returns the exact diagonal
#: with coordinate eigenvectors; LAPACK promises no order inside a repeated
#: eigenvalue. The value is the stopping threshold of the cyclic Jacobi
#: solver LAPACK replaced, which returned such inputs after zero sweeps, so
#: reports on diagonal metrics kept their bytes.
ALREADY_DIAGONAL_TOL = 1e-13

#: Relative singular-value threshold for numerical rank decisions.
RANK_TOL = 1e-10

#: Relative eigenvalue floor below which a metric is treated as not positive
#: definite.
METRIC_FLOOR = 1e-12


class ConvergenceError(Exception):
    """Raised when the symmetric eigensolver does not converge."""


class MetricError(Exception):
    """Raised when a matrix that must be positive definite is not."""


def as_square_matrix(matrix, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite, square float64 array."""
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} must have finite entries")
    return M


def symmetrize(matrix) -> np.ndarray:
    """Return the symmetric average ``(M + M^T) / 2`` as a fresh array.

    Symmetry of the result is bit-exact: entry ``(i, j)`` and ``(j, i)``
    are produced by the same floating-point expression.
    """
    M = as_square_matrix(matrix)
    return (M + M.T) / 2.0


def frobenius(matrix) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(matrix, dtype=float)))


def offdiag_frobenius(matrix) -> float:
    """Frobenius norm of the off-diagonal part.

    Summed directly over the off-diagonal entries; subtracting the diagonal
    mass from the total would cancel catastrophically on nearly diagonal
    input.
    """
    M = np.asarray(matrix, dtype=float)
    off = M.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in non-decreasing order with matching eigenvector columns.

    ``eigenvectors[:, k]`` belongs to ``eigenvalues[k]``; the eigenvector
    matrix is orthogonal. It is ``None`` when only values were asked for.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None

    def __post_init__(self):
        _freeze(self.eigenvalues)
        if self.eigenvectors is not None:
            _freeze(self.eigenvectors)

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])

    def assemble(self, values) -> np.ndarray:
        """Assemble ``V diag(values) V^T``: with ``values = f(lambda)`` this
        is the matrix function ``f`` on the spectrum, and with ``values =
        lambda`` it rebuilds the decomposed matrix."""
        V = self.eigenvectors
        if V is None:
            raise ValueError("a values-only decomposition cannot assemble a matrix")
        return symmetrize((V * values) @ V.T)


def symmetric_eig(matrix, *, vectors: bool = True) -> EigenDecomposition:
    """Eigendecomposition of a real symmetric matrix.

    Eigenvalues come in ascending order. A matrix that is already diagonal
    (off-diagonal Frobenius norm at most ``ALREADY_DIAGONAL_TOL * ||M||_F``)
    returns its exact diagonal, stably sorted, with permuted unit vectors,
    so diagonal metrics keep coordinate order inside repeated eigenvalues.
    Any other matrix goes to LAPACK through ``np.linalg.eigh``, or through
    ``np.linalg.eigvalsh`` when ``vectors`` is false; the result then has
    no eigenvectors. The result is deterministic for identical input and
    BLAS thread count.

    Raises :class:`ConvergenceError` if LAPACK reports non-convergence.
    """
    M = symmetrize(matrix)
    # the norms of M scaled by a power of two, which is exact: unscaled,
    # their squares overflow above about 1e154 and underflow below 1e-154
    _, exponent = math.frexp(np.abs(M).max(initial=0.0))
    scaled = np.ldexp(M, -exponent)
    if offdiag_frobenius(scaled) <= ALREADY_DIAGONAL_TOL * frobenius(scaled):
        values = np.diag(M).copy()
        order = np.argsort(values, kind="stable")
        basis = np.eye(M.shape[0])[:, order] if vectors else None
        return EigenDecomposition(values[order], basis)
    try:
        if vectors:
            values, basis = np.linalg.eigh(M)
        else:
            values, basis = np.linalg.eigvalsh(M), None
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    return EigenDecomposition(values, basis)


def orthonormalize(columns) -> np.ndarray:
    """Orthonormal basis for the column span, compressed to numerical rank.

    Singular directions with singular value at most ``RANK_TOL`` times the
    largest one are dropped, so rank-deficient input yields fewer columns
    rather than an error. All-zero input yields a ``(d, 0)`` array. Each
    column's largest-magnitude entry is positive.
    """
    C = np.asarray(columns, dtype=float)
    if C.ndim == 1:
        C = C[:, None]
    if C.ndim != 2:
        raise ValueError(f"expected a 2-d column block, got shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise ValueError("columns must have finite entries")
    d = C.shape[0]
    if C.shape[1] == 0:
        return np.zeros((d, 0))
    U, sv, _ = np.linalg.svd(C, full_matrices=False)
    if sv.size == 0 or sv[0] == 0.0:
        return np.zeros((d, 0))
    rank = int(np.sum(sv > RANK_TOL * sv[0]))
    # LAPACK picks column signs freely, and inputs that differ at rounding
    # level (say, under another BLAS thread count) can get other signs; fix
    # each column's largest-magnitude entry positive
    basis = U[:, :rank]
    pivots = basis[np.argmax(np.abs(basis), axis=0), np.arange(rank)]
    return basis * np.where(pivots < 0.0, -1.0, 1.0)


def inverse_sqrt_of_metric(metric) -> np.ndarray:
    """``G^{-1/2}`` of a symmetric positive definite metric ``G``."""
    G = symmetrize(metric)
    eig = symmetric_eig(G)
    smallest, largest = float(eig.eigenvalues[0]), float(eig.eigenvalues[-1])
    if largest <= 0.0 or smallest <= METRIC_FLOOR * largest:
        raise MetricError(
            "metric is not positive definite: eigenvalue range "
            f"[{smallest:.3e}, {largest:.3e}]"
        )
    return eig.assemble(1.0 / np.sqrt(eig.eigenvalues))


def extremal_rayleigh(matrix, metric) -> tuple[float, float]:
    """Extreme generalized eigenvalues of the pencil ``(M, G)``.

    Returns the minimum and maximum of ``x^T M x / x^T G x`` over nonzero
    ``x``, computed by congruence with ``G^{-1/2}`` followed by a symmetric
    eigendecomposition. ``G`` must be symmetric positive definite.
    """
    M = symmetrize(matrix)
    Gi = inverse_sqrt_of_metric(metric)
    if Gi.shape != M.shape:
        raise ValueError(
            f"pencil shapes disagree: {M.shape} versus {Gi.shape}"
        )
    reduced = symmetric_eig(symmetrize(Gi @ M @ Gi))
    return float(reduced.eigenvalues[0]), float(reduced.eigenvalues[-1])
