"""Fusion frames on finite-dimensional Hilbert spaces with W-metrics.

An invertible symmetric Gram matrix turns a finite-dimensional real
space into a Krein-style geometry with an indefinite form and a positive
companion form. This package computes the polar factors, metric and
J-orthogonal projections, optimal frame bounds of weighted subspace
families under either geometry, the transfer maps between them with
certified intervals, the lower-bound collapse along near-singular
families, and the multiplication-form spectral decomposition with its
companion-geometry counterpart. A deterministic CLI (``kfr``) exposes
the analyses over JSON instance files.
"""

__version__ = "0.10.0"

from types import ModuleType as _ModuleType

from .fusion import (
    FrameBounds,
    FourWayReport,
    FrameGeometry,
    JProjectionReport,
    LocalFrameReport,
    LocalFrameSystem,
    WeightedSubspaceFamily,
    frame_bounds,
    local_frames_to_fusion,
    transport_by_invertible,
    verify_four_way_equivalence,
    whitened_bounds,
)
from .krein import (
    GramOperator,
    KernelError,
    PolarReport,
    RegularityReport,
    build_gram,
    norm_equivalence_constants,
    norm_equivalence_holds,
    verify_polar_identities,
)
from .linalg import (
    ConvergenceError,
    EigenDecomposition,
    MetricError,
    orthonormalize,
    symmetric_eig,
)
from .spectral import (
    AtomicMeasure,
    KreinDecomposition,
    SpectralReport,
    SpectralRepresentation,
    krein_decomposition,
    ortho_basis_of_subspaces,
    spectral_representation,
)
from .subspaces import (
    DegenerateSubspaceError,
    Subspace,
    is_projectively_complete,
    spans_equal,
    subspace_from_columns,
)
from .transfer import (
    RegularityError,
    SweepResult,
    TransferMapsReport,
    TransferReport,
    diagonal_gram_family,
    singular_sweep,
    transfer_map_hilbert_to_krein,
    transfer_map_krein_to_hilbert,
    transfer_regular,
    verify_transfer_maps,
)

#: Every name imported above, each written once.
__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
