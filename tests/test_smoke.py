"""Large-dimension smoke: the full pipeline at d = 64 stays fast and sane."""

from pathlib import Path

import numpy as np
import pytest

from kfr.fusion import FrameGeometry, frame_bounds
from kfr.generators import random_gram, random_invariant_family
from kfr.linalg import frobenius
from kfr.spectral import (
    krein_decomposition,
    ortho_basis_of_subspaces,
    spectral_representation,
)
from kfr.subspaces import J_ORTHOGONAL, ORTHOGONAL
from kfr.transfer import transfer_regular


def test_pipeline_dimension_64():
    rng = np.random.default_rng(0)
    g = random_gram(rng, 64)
    identity = np.eye(64)
    assert frobenius(g.symmetry @ g.abs_matrix - g.matrix) <= 1e-9

    family = random_invariant_family(g, rng, 8, 8, weight_range=(0.5, 2.0))
    report = transfer_regular(FrameGeometry(family, g))
    assert report.sandwich_holds
    assert report.hilbert_bounds.is_frame

    representation = spectral_representation(g)
    plain = frame_bounds(
        ortho_basis_of_subspaces(representation), identity, ORTHOGONAL
    )
    assert plain.is_parseval
    companion = frame_bounds(
        krein_decomposition(g, representation).family(),
        g.abs_matrix,
        J_ORTHOGONAL,
        g,
    )
    assert abs(companion.lower - 1.0) <= 1e-8
    assert abs(companion.upper - 1.0) <= 1e-8


#: The package's public names before ``kfr.__all__`` was derived from its
#: imports; every one must stay importable from ``kfr`` and listed.
PUBLIC_NAMES = (
    "__version__",
    "ConvergenceError", "EigenDecomposition", "EigenvalueDomainError",
    "MetricError", "extremal_rayleigh", "matrix_function", "orthonormalize",
    "symmetric_eig",
    "GramOperator", "KernelError", "RegularityReport", "build_gram", "j_inner",
    "j_norm", "norm_equivalence_constants", "w_inner",
    "ComposedProjectionError", "DegenerateSubspaceError", "Projection",
    "Subspace", "check_j_orthonormal", "is_projectively_complete",
    "j_orthogonal_complement", "j_orthogonal_projection_composed",
    "j_orthogonal_projection_gram", "j_orthonormal_basis",
    "orthogonal_projection", "spans_equal", "subspace_from_columns",
    "FrameBounds", "FourWayReport", "LocalFrameReport", "LocalFrameSystem",
    "WeightedSubspaceFamily", "frame_bounds", "frame_operator",
    "local_frames_to_fusion", "transport_by_invertible", "vector_frame_bounds",
    "verify_four_way_equivalence",
    "RegularityError", "SweepResult", "TransferReport", "diagonal_gram_family",
    "singular_sweep", "transfer_map_hilbert_to_krein",
    "transfer_map_krein_to_hilbert", "transfer_regular",
    "AtomicMeasure", "KreinDecomposition", "SpectralRepresentation",
    "krein_decomposition", "ortho_basis_of_subspaces", "spectral_representation",
)


def test_public_names_are_importable_and_listed():
    import types

    import kfr

    assert len(set(kfr.__all__)) == len(kfr.__all__)
    assert set(PUBLIC_NAMES) <= set(kfr.__all__)
    assert "analysis_operator" in kfr.__all__
    for name in kfr.__all__:
        assert not isinstance(getattr(kfr, name), types.ModuleType), name
    namespace = {}
    exec("from kfr import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)


def test_version_is_defined_once_in_the_package():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        config = tomllib.load(handle)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "kfr.__version__"
    }
