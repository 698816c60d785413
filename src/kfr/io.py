"""Instance files, canonical serialization and content digests.

Instances and reports are JSON-compatible object trees. Serialization is
canonical: floats are printed with 17 significant digits in scientific
notation (enough for exact double round trips), keys keep construction
order, and indentation is fixed, so identical values produce identical
bytes. The float format is defined once, in ``FLOAT_FORMAT``. A list
whose elements are all exact, finite ``float`` objects (a matrix row, a
basis vector) is formatted in one call, and every other list element by
element; both give the same bytes. An instance's digest formats nothing:
it hashes the parsed values' float64 bits (``instance_digest``). Parsing
validates structure eagerly and reports the offending field: each number
row is checked type-exactly in one pass (a JSON ``true`` is not a number)
and converted to a float array in one call. A gram matrix that is
asymmetric within tolerance is symmetrized by averaging and the repair is
recorded as an instance warning.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .fusion import FRAME_TOL, WeightedSubspaceFamily
from .generators import DEFAULT_SWEEP_EPSILONS
from .krein import EPSILON_THRESHOLD, GramOperator, build_gram
from .spectral import CLUSTER_TOL
from .subspaces import subspace_from_columns

__all__ = [
    "InstanceParseError",
    "InstanceValidationError",
    "InstanceOptions",
    "ProblemInstance",
    "dumps_canonical",
    "parse_instance",
    "parse_instance_text",
    "instance_from_tree",
    "instance_digest",
    "non_finite_path",
    "build_instance_gram",
    "build_instance_family",
]

#: Relative asymmetry allowed in a loaded gram matrix before rejection.
SYMMETRY_TOL = 1e-12

#: Types ``json.loads`` gives numbers, tested type-exactly: ``bool`` is not
#: among them, although it subclasses ``int``.
_NUMBER_TYPES = frozenset((int, float))


class InstanceParseError(Exception):
    """Raised for files that are not well-formed instances."""


class InstanceValidationError(Exception):
    """Raised for structurally valid files whose values break an invariant."""


@dataclass(frozen=True)
class InstanceOptions:
    """Tolerances and sweep grid carried by an instance."""

    epsilon_threshold: float = EPSILON_THRESHOLD
    cluster_tol: float = CLUSTER_TOL
    frame_tol: float = FRAME_TOL
    sweep_epsilons: tuple[float, ...] = DEFAULT_SWEEP_EPSILONS


@dataclass(frozen=True)
class ProblemInstance:
    """Validated problem statement: gram matrix, subspaces, weights."""

    dimension: int
    gram: np.ndarray
    subspace_columns: tuple[np.ndarray, ...]
    weights: tuple[float, ...]
    options: InstanceOptions = field(default_factory=InstanceOptions)
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        self.gram.flags.writeable = False
        for block in self.subspace_columns:
            block.flags.writeable = False


#: The one float format: 17 significant digits in scientific notation.
FLOAT_FORMAT = "%.16e"


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite number {value!r}")
    return FLOAT_FORMAT % value


def _write_canonical(obj, pieces: list[str], indent: int, level: int):
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for index, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise ValueError(f"object keys must be strings, got {key!r}")
            pieces.append(f"{inner}{json.dumps(key)}: ")
            _write_canonical(value, pieces, indent, level + 1)
            pieces.append(",\n" if index < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        # a row of exact, finite floats is formatted in one call; any other
        # list, or a non-finite value (which raises), goes element by element
        if set(map(type, obj)) == {float} and all(map(math.isfinite, obj)):
            separator = ",\n" + inner
            row = separator.join([FLOAT_FORMAT] * len(obj)) % tuple(obj)
            pieces.append(f"[\n{inner}{row}\n{pad}]")
            return
        pieces.append("[\n")
        for index, value in enumerate(obj):
            pieces.append(inner)
            _write_canonical(value, pieces, indent, level + 1)
            pieces.append(",\n" if index < len(obj) - 1 else "\n")
        pieces.append(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        pieces.append(json.dumps(obj))
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        pieces.append(_format_float(obj))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    else:
        raise ValueError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: fixed float format, order and indentation."""
    pieces: list[str] = []
    _write_canonical(obj, pieces, indent=2, level=0)
    pieces.append("\n")
    return "".join(pieces)


def non_finite_path(obj, path: str = "") -> str | None:
    """Key path, as ``a.b[2]``, of the first non-finite float that
    :func:`dumps_canonical` meets in ``obj``, or ``None``. The writer keeps
    no path, so only a write that failed pays for this search."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    steps = []
    if isinstance(obj, dict):
        steps = [(f"{path}.{key}" if path else key, v) for key, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        steps = [(f"{path}[{index}]", v) for index, v in enumerate(obj)]
    found = (non_finite_path(value, step) for step, value in steps)
    return next((step for step in found if step is not None), None)


def _require(mapping: dict, key: str, kind, where: str):
    if key not in mapping:
        raise InstanceParseError(f"missing field {key!r} in {where}")
    value = mapping[key]
    if not isinstance(value, kind):
        raise InstanceParseError(
            f"field {key!r} in {where} must be {kind.__name__}"
        )
    return value


def _number(value, where: str) -> float:
    if type(value) not in _NUMBER_TYPES:
        raise InstanceParseError(f"{where} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise InstanceValidationError(f"{where} is beyond double range") from None


def _number_rows(rows: list, length: int, where: str) -> np.ndarray:
    """Rows of ``length`` JSON numbers as a float array; ``where`` names row
    ``i`` through ``where.format(i)``."""
    for index, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != length:
            raise InstanceParseError(
                f"{where.format(index)} must be a list of {length} numbers"
            )
        if not _NUMBER_TYPES.issuperset(map(type, row)):
            raise InstanceParseError(
                f"{where.format(index)} must contain only numbers"
            )
    try:
        return np.array(rows, dtype=float)
    except OverflowError:
        # an integer beyond double range: find and name its row
        for index, row in enumerate(rows):
            for value in row:
                _number(value, f"an entry of {where.format(index)}")
        raise


def parse_instance_text(text: str, source: str = "<string>") -> ProblemInstance:
    """Parse and validate an instance from JSON text."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceParseError(
            f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return instance_from_tree(data, source)


def instance_from_tree(data, source: str = "<string>") -> ProblemInstance:
    """Validate an already-loaded JSON tree as an instance; ``source`` names
    it in error messages."""
    if not isinstance(data, dict):
        raise InstanceParseError(f"{source}: top level must be an object")

    dimension = _require(data, "dimension", int, source)
    if isinstance(dimension, bool) or dimension < 1:
        raise InstanceValidationError("dimension must be a positive integer")

    gram_rows = _require(data, "gram", list, source)
    if len(gram_rows) != dimension:
        raise InstanceValidationError(
            f"gram must have {dimension} rows, found {len(gram_rows)}"
        )
    gram = _number_rows(gram_rows, dimension, "gram row {}")
    if not np.all(np.isfinite(gram)):
        raise InstanceValidationError("gram entries must be finite")

    warnings = []
    scale = float(np.abs(gram).max()) or 1.0
    asymmetry = float(np.abs(gram - gram.T).max())
    if asymmetry > SYMMETRY_TOL * scale:
        raise InstanceValidationError(
            f"gram is asymmetric by {asymmetry:.3e}, beyond tolerance "
            f"{SYMMETRY_TOL * scale:.3e}"
        )
    if asymmetry > 0.0:
        gram = (gram + gram.T) / 2.0
        warnings.append(
            f"gram symmetrized by averaging (largest asymmetry {asymmetry:.3e})"
        )

    subspace_entries = _require(data, "subspaces", list, source)
    if not subspace_entries:
        raise InstanceValidationError("at least one subspace is required")
    blocks = []
    for index, entry in enumerate(subspace_entries):
        if not isinstance(entry, dict):
            raise InstanceParseError(f"subspace {index} must be an object")
        vectors = _require(entry, "basis", list, f"subspace {index}")
        if not vectors:
            raise InstanceValidationError(f"subspace {index} has an empty basis")
        blocks.append(
            _number_rows(vectors, dimension, f"subspace {index} vector {{}}").T
        )

    weight_values = _require(data, "weights", list, source)
    if len(weight_values) != len(blocks):
        raise InstanceValidationError(
            f"{len(weight_values)} weights for {len(blocks)} subspaces"
        )
    weights = []
    for index, value in enumerate(weight_values):
        weight = _number(value, f"weight {index}")
        if not (math.isfinite(weight) and weight > 0.0):
            raise InstanceValidationError("weights must be positive")
        weights.append(weight)

    options = InstanceOptions()
    if "options" in data:
        raw = data["options"]
        if not isinstance(raw, dict):
            raise InstanceParseError("options must be an object")
        eps_list = raw.get("sweepEpsilons", list(options.sweep_epsilons))
        if not isinstance(eps_list, list) or not _NUMBER_TYPES.issuperset(
            map(type, eps_list)
        ):
            raise InstanceParseError("options.sweepEpsilons must be numbers")
        epsilons = tuple(_number(e, "options.sweepEpsilons") for e in eps_list)
        if not all(map(math.isfinite, epsilons)):
            raise InstanceValidationError("options.sweepEpsilons must be finite")
        tolerances = []
        for name, default in (
            ("epsilonThreshold", options.epsilon_threshold),
            ("clusterTol", options.cluster_tol),
            ("frameTol", options.frame_tol),
        ):
            value = _number(raw.get(name, default), f"options.{name}")
            if not (math.isfinite(value) and value > 0.0):
                raise InstanceValidationError(f"options.{name} must be positive")
            tolerances.append(value)
        options = InstanceOptions(*tolerances, sweep_epsilons=epsilons)

    return ProblemInstance(
        dimension=dimension,
        gram=gram,
        subspace_columns=tuple(blocks),
        weights=tuple(weights),
        options=options,
        warnings=tuple(warnings),
    )


def parse_instance(path) -> ProblemInstance:
    """Parse and validate an instance file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InstanceParseError(f"cannot read {path}: {exc}") from exc
    return parse_instance_text(text, source=str(path))


def instance_digest(instance: ProblemInstance) -> str:
    """Content hash of the parsed values' bits, independent of how the file
    spells them.

    sha256 of the little-endian int64 sizes ``[dimension, block count,
    r_1 … r_k, len(sweepEpsilons)]``, then the little-endian float64
    bytes, in C order, of ``gram``, of each basis block as its file rows,
    of ``weights``, of ``(epsilonThreshold, clusterTol, frameTol)`` and of
    ``sweepEpsilons``. ``-0.0`` and ``0.0`` differ.
    """
    blocks = instance.subspace_columns
    options = instance.options
    sizes = [
        instance.dimension,
        len(blocks),
        *(block.shape[1] for block in blocks),
        len(options.sweep_epsilons),
    ]
    digest = hashlib.sha256(np.array(sizes, dtype="<i8").tobytes())
    for values in (
        instance.gram,
        *(block.T for block in blocks),
        instance.weights,
        (options.epsilon_threshold, options.cluster_tol, options.frame_tol),
        options.sweep_epsilons,
    ):
        digest.update(np.asarray(values, dtype="<f8").tobytes())
    return f"sha256-f8le:{digest.hexdigest()}"


def build_instance_gram(instance: ProblemInstance) -> GramOperator:
    return build_gram(instance.gram, instance.options.epsilon_threshold)


def build_instance_family(instance: ProblemInstance) -> WeightedSubspaceFamily:
    """Orthonormalize the stored columns into a weighted family."""
    subspaces = []
    for index, block in enumerate(instance.subspace_columns):
        subspace = subspace_from_columns(block)
        if subspace.dim == 0:
            raise InstanceValidationError(f"subspace {index} spans nothing")
        subspaces.append(subspace)
    return WeightedSubspaceFamily(instance.weights, tuple(subspaces))
