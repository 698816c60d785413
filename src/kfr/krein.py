"""Hilbert space with a W-metric.

An invertible symmetric Gram matrix ``W`` induces the indefinite form
``[x, y] = <Wx, y>``. Its polar decomposition ``W = J|W|`` supplies the
fundamental symmetry ``J`` and the positive definite companion form
``[x, y]_J = <|W|x, y>`` whose norm carries the topology. This module
builds all polar factors once, caches them on an immutable
:class:`GramOperator` and classifies the operator as regular or
near-singular by the relative size of its smallest eigenvalue.

When ``W`` is diagonal it acts by multiplication, as on the paper's
``L^2(sigma(W), x d mu_n)``, and so do its polar factors: they are built
as diagonals, and :meth:`GramOperator.times` applies each of them as a row
or column scaling instead of a dense product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    EigenDecomposition,
    as_square_matrix,
    frobenius,
    symmetric_eig,
    symmetrize,
)

__all__ = [
    "KernelError",
    "REGULAR",
    "NEAR_SINGULAR",
    "RegularityReport",
    "GramOperator",
    "build_gram",
    "norm_equivalence_constants",
    "PolarReport",
    "verify_polar_identities",
    "norm_equivalence_holds",
]

#: Relative eigenvalue magnitude below which W is treated as having a kernel.
KERNEL_TOL = 1e-14

#: Default relative threshold separating regular from near-singular operators.
EPSILON_THRESHOLD = 1e-6

#: Frobenius residual at or below which a polar identity holds; rounding
#: leaves about ``d * eps * ||W||``.
POLAR_IDENTITY_TOL = 1e-9

#: Slack on ``||x||_J^2`` of unit ``x`` against the norm-equivalence
#: constants, which eigenvectors of ``W`` attain up to rounding.
NORM_EQUIVALENCE_SLACK = 1e-9

REGULAR = "regular"
NEAR_SINGULAR = "near-singular"

#: The ``(d, d)`` fields of a :class:`GramOperator`: ``W`` and its four polar
#: factors.
FACTORS = ("matrix", "symmetry", "abs_matrix", "sqrt_abs", "inv_sqrt_abs")


class KernelError(Exception):
    """Raised when a Gram matrix has a numerically nontrivial kernel."""


def _is_diagonal(matrix: np.ndarray) -> bool:
    """Whether no off-diagonal entry is nonzero (NaN counts as nonzero)."""
    return np.count_nonzero(matrix) == np.count_nonzero(matrix.diagonal())


@dataclass(frozen=True)
class RegularityReport:
    """Spectral extremes of ``|W|`` and the regular/near-singular verdict.

    ``epsilon`` is the smallest eigenvalue magnitude and is only set for
    near-singular operators, where it parametrizes the singular limit.
    """

    min_abs_eigenvalue: float
    max_abs_eigenvalue: float
    condition_number: float
    classification: str
    epsilon: float | None


@dataclass(frozen=True)
class GramOperator:
    """Invertible symmetric ``W`` with cached polar and spectral factors.

    Fields hold ``W`` itself, its eigendecomposition, the fundamental
    symmetry ``J``, ``|W|``, ``|W|^{1/2}``, ``|W|^{-1/2}`` and the
    regularity report. Instances are immutable and safe to share.

    ``diagonal`` says whether all five ``(d, d)`` matrices have no nonzero
    off-diagonal entry. It is read from the stored matrices on every
    construction, ``dataclasses.replace`` included, so it always describes
    the factors that :meth:`times` applies.
    """

    matrix: np.ndarray
    eig: EigenDecomposition
    symmetry: np.ndarray
    abs_matrix: np.ndarray
    sqrt_abs: np.ndarray
    inv_sqrt_abs: np.ndarray
    regularity: RegularityReport
    diagonal: bool = field(init=False)

    def __post_init__(self):
        factors = [getattr(self, name) for name in FACTORS]
        for factor in factors:
            factor.flags.writeable = False
        object.__setattr__(self, "diagonal", all(map(_is_diagonal, factors)))

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def classification(self) -> str:
        return self.regularity.classification

    @property
    def is_regular(self) -> bool:
        return self.regularity.classification == REGULAR

    def times(self, factor: str, X: np.ndarray, *, right: bool = False) -> np.ndarray:
        """``F @ X``, or ``X @ F`` with ``right``, for a 2-d ``X`` and the
        matrix ``F`` stored in the field named ``factor`` (one of
        :data:`FACTORS`).

        On a diagonal operator this scales the rows (columns) of ``X`` by
        ``F``'s diagonal. Each entry of the dense product is then that one
        scaled entry plus exact zeros, so the values are the same bits; only
        the sign of a zero may differ.
        """
        F = getattr(self, factor)
        if not self.diagonal:
            return X @ F if right else F @ X
        scale = F.diagonal()
        return X * scale if right else scale[:, None] * X


def build_gram(
    matrix, epsilon_threshold: float = EPSILON_THRESHOLD
) -> GramOperator:
    """Construct a :class:`GramOperator` from a symmetric matrix.

    The polar factors come from one eigendecomposition: ``J`` applies the
    sign function on the spectrum, ``|W|`` the absolute value. A diagonal
    ``W`` has permuted unit eigenvectors, so each factor is the diagonal
    matrix of its map on ``W``'s diagonal, the bits assembling it would
    give, and no ``(d, d)`` product is formed. A relative eigenvalue
    magnitude at or below ``KERNEL_TOL`` is a kernel violation and raises
    :class:`KernelError`; a ratio below ``epsilon_threshold`` is classified
    near-singular with ``epsilon`` equal to the smallest magnitude.
    """
    W = symmetrize(as_square_matrix(matrix, "gram matrix"))
    eig = symmetric_eig(W)
    magnitudes = np.abs(eig.eigenvalues)
    largest = float(magnitudes.max())
    smallest = float(magnitudes.min())
    if largest == 0.0 or smallest <= KERNEL_TOL * largest:
        raise KernelError(
            "gram matrix has a numerically nontrivial kernel: smallest "
            f"eigenvalue magnitude {smallest:.3e} against largest {largest:.3e}"
        )
    near_singular = smallest / largest < epsilon_threshold
    report = RegularityReport(
        min_abs_eigenvalue=smallest,
        max_abs_eigenvalue=largest,
        condition_number=largest / smallest,
        classification=NEAR_SINGULAR if near_singular else REGULAR,
        epsilon=smallest if near_singular else None,
    )
    if _is_diagonal(W):
        values, assemble = W.diagonal(), np.diag
    else:
        values, assemble = eig.eigenvalues, eig.assemble
    absolute = np.abs(values)
    root = np.sqrt(absolute)
    return GramOperator(
        matrix=W,
        eig=eig,
        symmetry=assemble(np.copysign(1.0, values)),
        abs_matrix=assemble(absolute),
        sqrt_abs=assemble(root),
        inv_sqrt_abs=assemble(1.0 / root),
        regularity=report,
    )


def norm_equivalence_constants(gram: GramOperator) -> tuple[float, float]:
    """Tight constants ``(1/||W^-1||, ||W||)`` squeezing the J-norm.

    For every ``x``: ``lower * ||x||^2 <= ||x||_J^2 <= upper * ||x||^2``,
    with both constants attained on eigenvectors of ``W``.
    """
    return (
        gram.regularity.min_abs_eigenvalue,
        gram.regularity.max_abs_eigenvalue,
    )


@dataclass(frozen=True)
class PolarReport:
    """Frobenius residuals of ``J^2 = I``, ``J |W| = W``, ``J W = W J`` and
    ``(|W|^{1/2})^2 = |W|``; they hold when each is at most
    ``POLAR_IDENTITY_TOL``."""

    symmetry_squared: float
    polar_product: float
    commutation: float
    root_squared: float

    @property
    def holds(self) -> bool:
        return all(value <= POLAR_IDENTITY_TOL for value in vars(self).values())


def verify_polar_identities(gram: GramOperator) -> PolarReport:
    """Residuals of the cached polar factors against their identities."""
    J, W = gram.symmetry, gram.matrix
    return PolarReport(
        frobenius(gram.times("symmetry", J) - np.eye(gram.dim)),
        frobenius(gram.times("symmetry", gram.abs_matrix) - W),
        frobenius(gram.times("symmetry", W) - gram.times("symmetry", W, right=True)),
        frobenius(gram.times("sqrt_abs", gram.sqrt_abs) - gram.abs_matrix),
    )


def norm_equivalence_holds(gram: GramOperator, samples) -> bool:
    """Whether ``||x||_J^2`` of each row of ``samples``, scaled to unit
    length, lies within :func:`norm_equivalence_constants` up to
    ``NORM_EQUIVALENCE_SLACK``."""
    lower, upper = norm_equivalence_constants(gram)
    x = samples / np.linalg.norm(samples, axis=1, keepdims=True)
    values = np.sum(gram.times("abs_matrix", x, right=True) * x, axis=1)
    slack = NORM_EQUIVALENCE_SLACK
    return bool(np.all((lower - slack <= values) & (values <= upper + slack)))
