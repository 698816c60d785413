"""Seeded random fixtures: Gram operators, subspace families, instances.

Subspace families coupled to an indefinite Gram operator are sampled
invariant under its fundamental symmetry, i.e. as direct sums of a piece
of the positive spectral half-space and a piece of the negative one.
Invariant subspaces are automatically nondegenerate, both J-orthogonal
projection constructions exist and coincide on them, and the transfer
and equivalence theorems hold with equal optimal bounds, which makes
these families the right default for theorem-grade fixtures. A check
that needs a non-invariant subspace draws its columns itself and passes
them to ``subspace_from_columns``.
"""

from __future__ import annotations

import numpy as np

from .fusion import FRAME_TOL, WeightedSubspaceFamily
from .krein import EPSILON_THRESHOLD, GramOperator, build_gram
from .linalg import orthonormalize
from .spectral import CLUSTER_TOL
from .subspaces import Subspace

__all__ = [
    "random_orthogonal",
    "random_spectrum_gram",
    "random_gram",
    "random_invariant_subspace",
    "random_invariant_family",
    "make_instance_payload",
    "DEFAULT_SWEEP_EPSILONS",
    "MAX_INSTANCE_SIZE",
]

DEFAULT_SWEEP_EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

#: Largest dimension and subspace count ``make_instance_payload`` accepts,
#: checked before anything is allocated. The Gram matrix alone takes
#: ``8 d^2`` bytes and every command factors several dense d x d matrices;
#: 1024 keeps one matrix at 8 MB, while ``--dim 100000`` would ask for 80 GB.
MAX_INSTANCE_SIZE = 1024


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish orthogonal matrix from the QR factorization of a Gaussian."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def random_spectrum_gram(
    rng: np.random.Generator,
    eigenvalues,
    epsilon_threshold: float = EPSILON_THRESHOLD,
) -> GramOperator:
    """Gram operator with prescribed eigenvalues and random eigenvectors."""
    values = np.asarray(eigenvalues, dtype=float)
    q = random_orthogonal(rng, values.size)
    return build_gram((q * values) @ q.T, epsilon_threshold)


def random_gram(
    rng: np.random.Generator,
    dim: int,
    negatives: int | None = None,
    magnitude_range: tuple[float, float] = (0.5, 3.0),
    epsilon_threshold: float = EPSILON_THRESHOLD,
) -> GramOperator:
    """Random invertible symmetric Gram operator with controlled signature.

    ``negatives`` fixes how many eigenvalues are negative (default: half,
    rounded down); eigenvalue magnitudes are sampled uniformly from
    ``magnitude_range``, keeping the conditioning mild.
    """
    if negatives is None:
        negatives = dim // 2
    if not 0 <= negatives <= dim:
        raise ValueError("negatives must lie between 0 and dim")
    low, high = magnitude_range
    magnitudes = rng.uniform(low, high, size=dim)
    signs = np.ones(dim)
    signs[:negatives] = -1.0
    return random_spectrum_gram(rng, signs * magnitudes, epsilon_threshold)


def _spectral_halves(gram: GramOperator) -> tuple[np.ndarray, np.ndarray]:
    vectors = gram.eig.eigenvectors
    positive = vectors[:, gram.eig.eigenvalues > 0]
    negative = vectors[:, gram.eig.eigenvalues < 0]
    return positive, negative


def random_invariant_subspace(
    gram: GramOperator, rng: np.random.Generator, rank: int
) -> Subspace:
    """Random subspace invariant under the fundamental symmetry.

    Split as evenly as the signature allows between the positive and the
    negative spectral half-spaces.
    """
    positive, negative = _spectral_halves(gram)
    capacity_pos, capacity_neg = positive.shape[1], negative.shape[1]
    if rank < 1 or rank > capacity_pos + capacity_neg:
        raise ValueError(f"rank {rank} does not fit dimension {gram.dim}")
    take_pos = min(capacity_pos, max(rank - capacity_neg, (rank + 1) // 2))
    take_neg = rank - take_pos
    pieces = []
    if take_pos:
        pieces.append(positive @ rng.standard_normal((capacity_pos, take_pos)))
    if take_neg:
        pieces.append(negative @ rng.standard_normal((capacity_neg, take_neg)))
    basis = orthonormalize(np.column_stack(pieces))
    if basis.shape[1] != rank:
        raise ValueError("sampled directions collapsed; retry with a new draw")
    return Subspace(basis)


def random_invariant_family(
    gram: GramOperator,
    rng: np.random.Generator,
    count: int,
    rank: int,
    weight_range: tuple[float, float] = (1.0, 1.0),
) -> WeightedSubspaceFamily:
    """Family of symmetry-invariant subspaces with seeded weights."""
    low, high = weight_range
    subspaces = tuple(
        random_invariant_subspace(gram, rng, rank) for _ in range(count)
    )
    weights = tuple(float(w) for w in rng.uniform(low, high, size=count))
    return WeightedSubspaceFamily(weights, subspaces)


def make_instance_payload(seed: int, dim: int, subspace_count: int) -> dict:
    """Deterministic problem-instance object for the given seed.

    The Gram operator is indefinite with mild conditioning; subspaces are
    symmetry-invariant and sized to cover both spectral half-spaces, so
    the generated family is a frame and every theorem check applies to it.
    """
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    if subspace_count < 1:
        raise ValueError("at least one subspace is required")
    if max(dim, subspace_count) > MAX_INSTANCE_SIZE:
        raise ValueError(
            f"dimension {dim} and subspace count {subspace_count} must not "
            f"exceed {MAX_INSTANCE_SIZE}"
        )
    rng = np.random.default_rng(seed)
    negatives = dim // 2
    gram = random_gram(rng, dim, negatives=negatives)
    positives = dim - negatives
    rank = max(
        1,
        -(-positives // subspace_count) + -(-negatives // subspace_count),
    )
    family = random_invariant_family(
        gram, rng, subspace_count, min(rank, dim), weight_range=(0.5, 2.0)
    )
    return {
        "dimension": dim,
        "gram": [[float(v) for v in row] for row in gram.matrix],
        "subspaces": [
            {"basis": [[float(v) for v in col] for col in s.basis.T]}
            for s in family.subspaces
        ],
        "weights": [float(w) for w in family.weights],
        "options": {
            "epsilonThreshold": EPSILON_THRESHOLD,
            "clusterTol": CLUSTER_TOL,
            "frameTol": FRAME_TOL,
            "sweepEpsilons": list(DEFAULT_SWEEP_EPSILONS),
        },
    }
