"""Dense real symmetric linear algebra kernel.

Everything downstream needs lives here: one symmetric eigensolver entry
point (LAPACK through ``np.linalg.eigh``), rank-revealing
orthonormalization, spectral matrix functions and extremal generalized
Rayleigh quotients for symmetric-definite pencils. All inputs and outputs
are plain ``numpy.float64`` arrays; results are returned with
``writeable=False`` so shared values cannot be mutated behind a caller's
back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ConvergenceError",
    "EigenvalueDomainError",
    "MetricError",
    "EigenDecomposition",
    "symmetrize",
    "frobenius",
    "offdiag_frobenius",
    "symmetric_eig",
    "orthonormalize",
    "matrix_function",
    "apply_spectral_function",
    "inverse_sqrt_of_metric",
    "extremal_rayleigh",
]

#: Relative off-diagonal Frobenius norm at or below which ``symmetric_eig``
#: treats its input as already diagonal and returns the exact diagonal with
#: coordinate eigenvectors; LAPACK promises no order inside a repeated
#: eigenvalue. The value is the stopping threshold of the cyclic Jacobi
#: solver LAPACK replaced, which returned such inputs after zero sweeps, so
#: reports on diagonal metrics kept their bytes.
ALREADY_DIAGONAL_TOL = 1e-13

#: Default relative singular-value threshold for numerical rank decisions.
RANK_TOL = 1e-10

#: Relative eigenvalue floor below which a metric is treated as not positive
#: definite.
METRIC_FLOOR = 1e-12


class ConvergenceError(Exception):
    """Raised when the symmetric eigensolver does not converge."""


class EigenvalueDomainError(Exception):
    """Raised when a scalar function is undefined at an eigenvalue.

    The offending eigenvalue is available as ``eigenvalue``.
    """

    def __init__(self, msg: str, eigenvalue: float):
        super().__init__(msg)
        self.eigenvalue = eigenvalue


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
    matrix is orthogonal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        _freeze(self.eigenvalues)
        _freeze(self.eigenvectors)

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])

    def reconstruct(self) -> np.ndarray:
        """Assemble ``V diag(lambda) V^T``."""
        V = self.eigenvectors
        return symmetrize((V * self.eigenvalues) @ V.T)


def symmetric_eig(matrix) -> EigenDecomposition:
    """Eigendecomposition of a real symmetric matrix.

    Eigenvalues come in ascending order. A matrix that is already diagonal
    (off-diagonal Frobenius norm at most ``ALREADY_DIAGONAL_TOL *
    max(1, ||M||_F)``) returns its exact diagonal, stably sorted, with
    permuted unit vectors, so diagonal metrics keep coordinate order inside
    repeated eigenvalues. Any other matrix goes to LAPACK through
    ``np.linalg.eigh``. The result is deterministic for identical input and
    BLAS thread count.

    Raises :class:`ConvergenceError` if LAPACK reports non-convergence.
    """
    M = symmetrize(matrix)
    if offdiag_frobenius(M) <= ALREADY_DIAGONAL_TOL * max(1.0, frobenius(M)):
        values = np.diag(M).copy()
        order = np.argsort(values, kind="stable")
        return EigenDecomposition(values[order], np.eye(M.shape[0])[:, order])
    try:
        values, vectors = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    return EigenDecomposition(values, vectors)


def orthonormalize(columns, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis for the column span, compressed to numerical rank.

    Singular directions with singular value at most ``tol`` times the
    largest one are dropped, so rank-deficient input yields fewer columns
    rather than an error. All-zero input yields a ``(d, 0)`` array. Each
    column's largest-magnitude entry is positive.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
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
    rank = int(np.sum(sv > tol * sv[0]))
    # LAPACK picks column signs freely, and inputs that differ at rounding
    # level (say, under another BLAS thread count) can get other signs; fix
    # each column's largest-magnitude entry positive
    basis = U[:, :rank]
    pivots = basis[np.argmax(np.abs(basis), axis=0), np.arange(rank)]
    return basis * np.where(pivots < 0.0, -1.0, 1.0)


def apply_spectral_function(
    eig: EigenDecomposition, f: Callable[[float], float]
) -> np.ndarray:
    """Apply a scalar function on the spectrum: ``V diag(f(lambda)) V^T``."""
    mapped = np.empty_like(eig.eigenvalues)
    for k, lam in enumerate(eig.eigenvalues):
        try:
            value = f(float(lam))
        except (ArithmeticError, ValueError) as exc:
            raise EigenvalueDomainError(
                f"scalar function undefined at eigenvalue {lam!r}: {exc}",
                eigenvalue=float(lam),
            ) from exc
        if not math.isfinite(value):
            raise EigenvalueDomainError(
                f"scalar function not finite at eigenvalue {lam!r}",
                eigenvalue=float(lam),
            )
        mapped[k] = value
    V = eig.eigenvectors
    return symmetrize((V * mapped) @ V.T)


def matrix_function(matrix, f: Callable[[float], float]) -> np.ndarray:
    """Symmetric matrix function through the eigendecomposition."""
    return apply_spectral_function(symmetric_eig(matrix), f)


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
    return apply_spectral_function(eig, lambda x: 1.0 / math.sqrt(x))


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
