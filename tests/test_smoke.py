"""Large-dimension smoke: the full pipeline at d = 64 stays fast and sane."""

import ast
from pathlib import Path

import numpy as np
import pytest

from kfr.fusion import FrameGeometry, frame_bounds
from kfr.generators import random_gram, random_invariant_family
from kfr.krein import FACTORS
from kfr.linalg import frobenius
from kfr.spectral import (
    krein_decomposition,
    ortho_basis_of_subspaces,
    spectral_representation,
)
from kfr.subspaces import J_ORTHOGONAL
from kfr.transfer import transfer_regular


def test_pipeline_dimension_64():
    rng = np.random.default_rng(0)
    g = random_gram(rng, 64)
    assert frobenius(g.symmetry @ g.abs_matrix - g.matrix) <= 1e-9

    family = random_invariant_family(g, rng, 8, 8, weight_range=(0.5, 2.0))
    report = transfer_regular(FrameGeometry(family, g))
    assert report.sandwich_holds
    assert report.hilbert_bounds.is_frame

    representation = spectral_representation(g)
    plain = frame_bounds(ortho_basis_of_subspaces(representation))
    assert plain.is_parseval
    companion = FrameGeometry(krein_decomposition(g, representation).family(), g).bounds(
        J_ORTHOGONAL
    )
    assert abs(companion.lower - 1.0) <= 1e-8
    assert abs(companion.upper - 1.0) <= 1e-8


#: The package's public names: what the CLI and the acceptance criteria
#: read. Every one must stay importable from ``kfr`` and listed.
PUBLIC_NAMES = (
    "__version__",
    "ConvergenceError", "EigenDecomposition", "MetricError",
    "orthonormalize", "symmetric_eig",
    "GramOperator", "KernelError", "RegularityReport", "build_gram",
    "norm_equivalence_constants",
    "DegenerateSubspaceError", "Subspace", "is_projectively_complete",
    "spans_equal", "subspace_from_columns",
    "FrameBounds", "FourWayReport", "LocalFrameReport", "LocalFrameSystem",
    "WeightedSubspaceFamily", "frame_bounds",
    "local_frames_to_fusion", "transport_by_invertible",
    "verify_four_way_equivalence",
    "RegularityError", "SweepResult", "TransferReport", "diagonal_gram_family",
    "singular_sweep", "transfer_map_hilbert_to_krein",
    "transfer_map_krein_to_hilbert", "transfer_regular",
    "AtomicMeasure", "KreinDecomposition", "SpectralRepresentation",
    "krein_decomposition", "ortho_basis_of_subspaces", "spectral_representation",
)

#: Names deleted from the library, by the module that held them.
DELETED_NAMES = {
    "krein": ("w_inner", "j_inner", "j_norm", "_check_vector"),
    "subspaces": (
        "j_orthogonal_complement", "check_j_orthonormal", "j_orthonormal_basis",
        "J_ORTHONORMALITY_TOL", "j_projection_from_check",
        "composed_projection_from_check",
    ),
    "fusion": ("analysis_operator", "vector_frame_bounds"),
}

#: Names the package no longer re-exports, by the module that keeps them.
MODULE_ONLY_NAMES = {
    "subspaces": (
        "orthogonal_projection", "j_orthogonal_projection_gram",
        "j_orthogonal_projection_composed", "ComposedProjectionError",
    ),
    "linalg": ("extremal_rayleigh",),
    "fusion": ("frame_operator",),
}


def test_public_names_are_importable_and_listed():
    import importlib
    import types

    import kfr

    assert len(set(kfr.__all__)) == len(kfr.__all__)
    assert set(PUBLIC_NAMES) <= set(kfr.__all__)
    for name in kfr.__all__:
        assert not isinstance(getattr(kfr, name), types.ModuleType), name
    namespace = {}
    exec("from kfr import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    for module, names in DELETED_NAMES.items():
        owner = importlib.import_module(f"kfr.{module}")
        for name in names:
            assert not hasattr(kfr, name), name
            assert not hasattr(owner, name), f"kfr.{module}.{name}"
    for module, names in MODULE_ONLY_NAMES.items():
        owner = importlib.import_module(f"kfr.{module}")
        for name in names:
            assert name not in kfr.__all__, name
            assert name in owner.__all__, f"kfr.{module}.{name}"
    assert not hasattr(kfr.subspaces.CompletenessCheck, "eig")
    assert "eig" not in kfr.subspaces.CompletenessCheck.__dataclass_fields__


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


def test_bench_span_targets_resolve():
    # bench/spans.py looks each traced function up by name
    import importlib
    import runpy

    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    for module, names in runpy.run_path(str(path))["TARGETS"].items():
        owner = importlib.import_module(f"kfr.{module}")
        for name in names:
            assert callable(getattr(owner, name, None)), f"kfr.{module}.{name}"


#: numpy's eigensolvers; only ``kfr.linalg`` may call them, so that every
#: eigensolve goes through ``symmetric_eig`` and is seen by its counters.
EIGENSOLVERS = {"eigh", "eigvalsh", "eig", "eigvals"}


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def test_only_linalg_calls_an_eigensolver():
    import kfr

    package = Path(kfr.__file__).resolve().parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "linalg.py" and path.parent == package:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = _dotted(node.func)
                if "linalg." in name and name.rsplit(".", 1)[-1] in EIGENSOLVERS:
                    offenders.append(f"{path.name}:{node.lineno} {name}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                for alias in node.names:
                    if alias.name in EIGENSOLVERS:
                        offenders.append(f"{path.name}:{node.lineno} import {alias.name}")
    assert offenders == []


#: The (d, d) projection constructors. Only ``kfr.subspaces`` may reference
#: them, where tests use them as references. So no command forms a (d, d)
#: projection.
DENSE_PROJECTIONS = {
    "orthogonal_projection",
    "j_orthogonal_projection_gram",
    "j_orthogonal_projection_composed",
}


def test_only_subspaces_references_a_dense_projection():
    import kfr

    package = Path(kfr.__file__).resolve().parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "subspaces.py" and path.parent == package:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            for name in sorted(names & DENSE_PROJECTIONS):
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


def _gram_factor_operands(function: ast.AST) -> list[str]:
    """``@`` operands in ``function`` that are a Gram factor attribute or a
    local name bound to one."""
    aliases = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = list(zip(target.elts, node.value.elts))
                for name, value in pairs:
                    if (
                        isinstance(name, ast.Name)
                        and isinstance(value, ast.Attribute)
                        and value.attr in FACTORS
                    ):
                        aliases.add(name.id)
    found = []
    for node in ast.walk(function):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            for operand in (node.left, node.right):
                if (
                    isinstance(operand, ast.Attribute) and operand.attr in FACTORS
                ) or (isinstance(operand, ast.Name) and operand.id in aliases):
                    found.append(f"{node.lineno} {_dotted(operand)}")
    return found


def test_only_krein_multiplies_by_a_gram_factor():
    # Outside kfr.krein no @ takes one of the (d, d) matrices of a Gram
    # operator (krein.FACTORS) as an operand: products go through
    # GramOperator.times, which scales rows or columns when they are
    # diagonal. Only the (d, d) reference constructors of kfr.subspaces
    # multiply them densely.
    import kfr

    package = Path(kfr.__file__).resolve().parent
    offenders = set()
    for path in sorted(package.rglob("*.py")):
        if path.name == "krein.py" and path.parent == package:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or (
                path.name == "subspaces.py" and node.name in DENSE_PROJECTIONS
            ):
                continue
            for hit in _gram_factor_operands(node):
                offenders.add(f"{path.name}:{hit}")
    assert sorted(offenders) == []
