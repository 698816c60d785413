"""Finite-dimensional spectral representation of a Gram operator.

Eigenvalues are clustered into distinct spectral points with
multiplicities. Level ``n`` collects the n-th eigenvector of every
cluster of multiplicity at least ``n``; the resulting blocks are mutually
orthogonal, jointly spanning, invariant under the operator, and inside
each block the operator acts as multiplication by the cluster values. An
atomic measure with unit mass per participating cluster plays the role
of the level measure, so block coordinates are plain Euclidean.

The companion decomposition keeps each level block and its basis, since
``|W|^{+-1/2}`` maps an eigenvector block onto itself; the geometry of the
indefinite form shows only in masses, which pick up a factor of the
eigenvalue magnitude, and coordinates, divided by its square root: together
they leave the companion norm of rescaled coordinates Euclidean. The blocks
form an orthonormal basis of subspaces in the plain metric and a Parseval
family under the indefinite form with J-orthogonal projections.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fusion import FrameBounds, FrameGeometry, WeightedSubspaceFamily, frame_bounds
from .krein import GramOperator
from .linalg import frobenius
from .subspaces import J_ORTHOGONAL, Subspace

__all__ = [
    "AtomicMeasure",
    "EigenCluster",
    "SpectralBlock",
    "SpectralRepresentation",
    "KreinBlock",
    "KreinDecomposition",
    "spectral_representation",
    "ortho_basis_of_subspaces",
    "krein_decomposition",
    "SpectralReport",
]

#: Default eigenvalue clustering gap, relative to the spectral diameter.
CLUSTER_TOL = 1e-8

#: Frobenius residual at or below which a spectral identity holds (block
#: projections summing to ``I``, ``W`` acting blockwise as multiplication).
SPECTRAL_IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many atoms ``(location, mass)`` with distinct locations."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        locations = [loc for loc, _ in self.atoms]
        if len(set(locations)) != len(locations):
            raise ValueError("atom locations must be pairwise distinct")
        if any(mass <= 0.0 for _, mass in self.atoms):
            raise ValueError("atom masses must be positive")

    @property
    def locations(self) -> tuple[float, ...]:
        return tuple(loc for loc, _ in self.atoms)

    @property
    def masses(self) -> tuple[float, ...]:
        return tuple(mass for _, mass in self.atoms)

    @property
    def total_mass(self) -> float:
        return float(sum(self.masses))


@dataclass(frozen=True)
class EigenCluster:
    """One distinct spectral point: value, multiplicity, eigenvector block."""

    value: float
    multiplicity: int
    vectors: np.ndarray

    def __post_init__(self):
        self.vectors.flags.writeable = False


@dataclass(frozen=True)
class SpectralBlock:
    """Level-``n`` block: n-th eigenvector of each qualifying cluster."""

    level: int
    basis: np.ndarray
    measure: AtomicMeasure
    eigenvalues: tuple[float, ...]

    def __post_init__(self):
        self.basis.flags.writeable = False

    @property
    def dim(self) -> int:
        return int(self.basis.shape[1])

    def multiplication_matrix(self) -> np.ndarray:
        """Matrix of the operator in block coordinates: ``diag(values)``."""
        return np.diag(self.eigenvalues)


@dataclass(frozen=True)
class SpectralRepresentation:
    """Clusters plus the level blocks of the multiplication form."""

    clusters: tuple[EigenCluster, ...]
    max_multiplicity: int
    blocks: tuple[SpectralBlock, ...]
    warnings: tuple[str, ...]

    @property
    def dim(self) -> int:
        return sum(c.multiplicity for c in self.clusters)


def _cluster_eigenvalues(
    values: np.ndarray, cluster_tol: float
) -> tuple[list[slice], list[str]]:
    """Group sorted eigenvalues by relative gap; warn on ambiguous gaps."""
    diameter = float(values[-1] - values[0])
    gap_threshold = cluster_tol * diameter
    warnings = []
    boundaries = [0]
    if diameter > 0.0:
        gaps = np.diff(values)
        for index, gap in enumerate(gaps):
            if gap > gap_threshold:
                boundaries.append(index + 1)
            if gap_threshold / 10.0 < gap <= gap_threshold * 10.0:
                warnings.append(
                    "ambiguous eigenvalue gap "
                    f"{gap:.3e} near the clustering threshold {gap_threshold:.3e} "
                    f"between positions {index} and {index + 1}"
                )
    slices = [
        slice(start, stop)
        for start, stop in zip(boundaries, boundaries[1:] + [values.size])
    ]
    return slices, warnings


def spectral_representation(
    gram: GramOperator, cluster_tol: float = CLUSTER_TOL
) -> SpectralRepresentation:
    """Multiplication-operator form of a Gram operator.

    Deterministic for fixed input: clusters are ordered by ascending
    value, blocks by level and then ascending cluster value. Each level
    measure assigns unit mass to every participating cluster.
    """
    if cluster_tol <= 0:
        raise ValueError("cluster_tol must be positive")
    values = np.asarray(gram.eig.eigenvalues)
    vectors = gram.eig.eigenvectors
    slices, warnings = _cluster_eigenvalues(values, cluster_tol)

    clusters = []
    for piece in slices:
        members = values[piece]
        clusters.append(
            EigenCluster(
                value=float(members.mean()),
                multiplicity=int(members.size),
                vectors=vectors[:, piece].copy(),
            )
        )

    max_multiplicity = max(c.multiplicity for c in clusters)
    blocks = []
    for level in range(1, max_multiplicity + 1):
        members = [c for c in clusters if c.multiplicity >= level]
        basis = np.column_stack([c.vectors[:, level - 1] for c in members])
        measure = AtomicMeasure(tuple((c.value, 1.0) for c in members))
        blocks.append(
            SpectralBlock(
                level=level,
                basis=basis,
                measure=measure,
                eigenvalues=tuple(c.value for c in members),
            )
        )
    return SpectralRepresentation(
        clusters=tuple(clusters),
        max_multiplicity=max_multiplicity,
        blocks=tuple(blocks),
        warnings=tuple(warnings),
    )


def ortho_basis_of_subspaces(
    representation: SpectralRepresentation,
) -> WeightedSubspaceFamily:
    """The level blocks as a weight-one family of subspaces.

    The blocks are pairwise orthogonal and jointly spanning, so the family
    is an orthonormal basis of subspaces: its plain-metric fusion bounds
    are Parseval and the block projections sum to the identity.
    """
    return _unit_family(representation.blocks)


def _unit_family(blocks) -> WeightedSubspaceFamily:
    """The column spans of the blocks' bases, each with weight one."""
    return WeightedSubspaceFamily(
        (1.0,) * len(blocks), tuple(Subspace(b.basis.copy()) for b in blocks)
    )


@dataclass(frozen=True)
class KreinBlock:
    """Level block carried into the indefinite geometry.

    ``weighted_measure`` multiplies each unit mass by the eigenvalue
    magnitude; ``scaling`` holds the coordinate factors ``1/sqrt(|value|)``
    that make the companion norm of rescaled coordinates Euclidean.
    """

    level: int
    basis: np.ndarray
    weighted_measure: AtomicMeasure
    scaling: tuple[float, ...]
    eigenvalues: tuple[float, ...]

    def __post_init__(self):
        self.basis.flags.writeable = False

    @property
    def dim(self) -> int:
        return int(self.basis.shape[1])


@dataclass(frozen=True)
class KreinDecomposition:
    """Companion-geometry decomposition into level blocks."""

    blocks: tuple[KreinBlock, ...]

    def family(self) -> WeightedSubspaceFamily:
        return _unit_family(self.blocks)


def krein_decomposition(
    gram: GramOperator, representation: SpectralRepresentation
) -> KreinDecomposition:
    """Carry the level blocks into the geometry of the indefinite form.

    Each level block is an eigenvector block of ``W``, so ``|W|^{+-1/2}``
    maps it onto itself: a companion block keeps its level block's
    subspace and basis, and the transport shows only in
    ``weighted_measure`` and ``scaling``. Every eigenvalue must be nonzero
    in magnitude, which the Gram construction guarantees.
    """
    if representation.dim != gram.dim:
        raise ValueError("representation does not match the Gram operator")
    blocks = []
    for block in representation.blocks:
        if any(value == 0.0 for value in block.eigenvalues):
            raise ValueError(
                "zero spectral value inside a block; the multiplication map "
                "would have a kernel"
            )
        weighted = AtomicMeasure(
            tuple(
                (value, abs(value) * mass)
                for (value, mass) in block.measure.atoms
            )
        )
        blocks.append(
            KreinBlock(
                level=block.level,
                basis=block.basis,
                weighted_measure=weighted,
                scaling=tuple(
                    1.0 / math.sqrt(abs(value)) for value in block.eigenvalues
                ),
                eigenvalues=block.eigenvalues,
            )
        )
    return KreinDecomposition(blocks=tuple(blocks))


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """The spectral representation of a Gram operator and its checks; each
    piece is computed on first read and kept, so a caller pays for what it
    reads."""

    gram: GramOperator
    cluster_tol: float = CLUSTER_TOL

    @functools.cached_property
    def representation(self) -> SpectralRepresentation:
        return spectral_representation(self.gram, self.cluster_tol)

    @functools.cached_property
    def family(self) -> WeightedSubspaceFamily:
        return ortho_basis_of_subspaces(self.representation)

    @functools.cached_property
    def decomposition(self) -> KreinDecomposition:
        return krein_decomposition(self.gram, self.representation)

    @functools.cached_property
    def projection_sum_residual(self) -> float:
        """Frobenius distance of the summed block projections from ``I``: the
        blocks are orthonormal, so the sum is ``S S^T`` for the stacked bases
        ``S = [B_1 ... B_k]``."""
        S = np.hstack([s.basis for s in self.family.subspaces])
        return frobenius(S @ S.T - np.eye(self.gram.dim))

    @functools.cached_property
    def multiplication_form_residual(self) -> float:
        """Largest Frobenius distance of ``B^T W B`` from ``diag(values)``."""
        gram = self.gram
        return max(
            frobenius(
                gram.times("matrix", b.basis.T, right=True) @ b.basis
                - b.multiplication_matrix()
            )
            for b in self.representation.blocks
        )

    @functools.cached_property
    def plain_bounds(self) -> FrameBounds:
        return frame_bounds(self.family)

    @functools.cached_property
    def krein_bounds(self) -> FrameBounds:
        """J-orthogonal bounds of the companion blocks: the level blocks."""
        return FrameGeometry(self.family, self.gram).bounds(J_ORTHOGONAL)

    @property
    def projections_sum_to_identity(self) -> bool:
        return self.projection_sum_residual <= SPECTRAL_IDENTITY_TOL

    @property
    def multiplication_form_holds(self) -> bool:
        return self.multiplication_form_residual <= SPECTRAL_IDENTITY_TOL

    @property
    def krein_parseval(self) -> bool:
        return self.krein_bounds.matches(1.0, 1.0)
