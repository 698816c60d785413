"""Command-line entry point.

One command per invocation: ``analyze``, ``equivalence``, ``transfer``,
``sweep``, ``spectral``, ``check`` or ``gen``. Reports are canonical JSON
written to ``--output`` or standard output and are byte-identical for
identical input, flags, version and BLAS thread count; wall-clock timing
therefore goes to the log stream (``KFR_LOG=info``), never into the
report. Under another BLAS thread count, numbers may differ at rounding
level.

Exit status: 0 when every check passed, 1 for validation or parse
failures (a command line argparse rejects included), 2 for numerical
failures (kernel violations, degeneracies, non-convergence), 3 when a
theorem check evaluated false.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .fusion import (
    FrameBounds,
    FrameGeometry,
    frame_bounds,
    verify_four_way_equivalence,
)
from .generators import make_instance_payload
from .io import (
    InstanceParseError,
    InstanceValidationError,
    ProblemInstance,
    build_instance_family,
    build_instance_gram,
    dumps_canonical,
    instance_digest,
    instance_from_tree,
    parse_instance,
    parse_instance_text,
)
from .krein import KernelError, norm_equivalence_constants
from .linalg import (
    ConvergenceError,
    EigenvalueDomainError,
    MetricError,
    frobenius,
)
from .spectral import (
    krein_decomposition,
    ortho_basis_of_subspaces,
    spectral_representation,
)
from .subspaces import (
    ComposedProjectionError,
    DegenerateSubspaceError,
    J_ORTHOGONAL,
    ORTHOGONAL,
    composed_projection_from_check,
    j_projection_from_check,
    orthogonal_projection,
)
from .transfer import (
    RegularityError,
    diagonal_gram_family,
    singular_sweep,
    transfer_regular,
    verify_transfer_maps,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2
EXIT_THEOREM = 3

NUMERICAL_ERRORS = (
    np.linalg.LinAlgError,
    ConvergenceError,
    EigenvalueDomainError,
    MetricError,
    KernelError,
    DegenerateSubspaceError,
    ComposedProjectionError,
    RegularityError,
)

COMMANDS = ("analyze", "equivalence", "transfer", "sweep", "spectral", "check", "gen")

logger = logging.getLogger("kfr")


def _configure_logging():
    levels = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    level = levels.get(os.environ.get("KFR_LOG", "quiet").strip().lower())
    if level is None:
        level = logging.ERROR
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("kfr: %(message)s"))
    logger.handlers[:] = [handler]
    logger.setLevel(level)


def _bounds_payload(bounds: FrameBounds | None) -> dict | None:
    if bounds is None:
        return None
    return {
        "lower": bounds.lower,
        "upper": bounds.upper,
        "isFrame": bounds.is_frame,
        "isTight": bounds.is_tight,
        "isParseval": bounds.is_parseval,
    }


def _finite_or_none(value: float):
    return value if math.isfinite(value) else None


def _apply_tol(instance: ProblemInstance, args) -> ProblemInstance:
    if args.tol is None:
        return instance
    if args.tol <= 0:
        raise InstanceValidationError("--tol must be positive")
    if not math.isfinite(args.tol):
        raise InstanceValidationError("--tol must be finite")
    if args.command == "spectral":
        options = dataclasses.replace(instance.options, cluster_tol=args.tol)
    else:
        options = dataclasses.replace(instance.options, frame_tol=args.tol)
    return dataclasses.replace(instance, options=options)


def run_analyze(instance: ProblemInstance, args) -> tuple[dict, int]:
    family = build_instance_family(instance)
    tol = instance.options.frame_tol
    if args.metric == "krein":
        geometry = FrameGeometry(family, build_instance_gram(instance))
        bounds = geometry.bounds(J_ORTHOGONAL, frame_tol=tol)
    else:
        bounds = frame_bounds(
            family, np.eye(instance.dimension), ORTHOGONAL, frame_tol=tol
        )
    sections = {"metric": args.metric, "bounds": _bounds_payload(bounds)}
    return sections, EXIT_OK


def run_equivalence(instance: ProblemInstance, args) -> tuple[dict, int]:
    family = build_instance_family(instance)
    gram = build_instance_gram(instance)
    report = verify_four_way_equivalence(
        FrameGeometry(family, gram), frame_tol=instance.options.frame_tol
    )
    sections = {
        "qOnSubspaces": _bounds_payload(report.q_on_subspaces),
        "qOnMappedSubspaces": _bounds_payload(report.q_on_mapped),
        "pOnSubspaces": _bounds_payload(report.p_on_subspaces),
        "pOnMappedSubspaces": _bounds_payload(report.p_on_mapped),
        "degeneracies": list(report.degeneracies),
        "boundsAgree": report.bounds_agree,
    }
    if report.degeneracies:
        return sections, EXIT_NUMERICAL
    return sections, EXIT_OK if report.bounds_agree else EXIT_THEOREM


def run_transfer(instance: ProblemInstance, args) -> tuple[dict, int]:
    family = build_instance_family(instance)
    gram = build_instance_gram(instance)
    result = verify_transfer_maps(
        FrameGeometry(family, gram), frame_tol=instance.options.frame_tol
    )
    report = result.regular
    checks = {
        "sandwichHolds": report.sandwich_holds,
        "forwardTransferPreservesBounds": result.forward_preserves_bounds,
        "backwardTransferPreservesBounds": result.backward_preserves_bounds,
        "transferMapsInvertOnSpans": result.maps_invert_on_spans,
    }
    sections = {
        "hilbertBounds": _bounds_payload(report.hilbert_bounds),
        "kreinBounds": _bounds_payload(report.krein_bounds),
        "certifiedInterval": {
            "low": report.certified_interval[0],
            "high": report.certified_interval[1],
        },
        "statedInterval": {
            "low": report.stated_interval[0],
            "high": report.stated_interval[1],
        },
        "forwardImageBounds": _bounds_payload(result.forward_bounds),
        "backwardImageBounds": _bounds_payload(result.backward_bounds),
        "checks": checks,
    }
    code = EXIT_OK if all(checks.values()) else EXIT_THEOREM
    return sections, code


def _sweep_epsilons(instance: ProblemInstance, args) -> list[float]:
    if args.epsilons is None:
        return list(instance.options.sweep_epsilons)
    try:
        values = [float(piece) for piece in args.epsilons.split(",") if piece]
    except ValueError as exc:
        raise InstanceValidationError(f"--epsilons must be numbers: {exc}") from exc
    if not values:
        raise InstanceValidationError("--epsilons must be a nonempty list")
    if not all(map(math.isfinite, values)):
        raise InstanceValidationError("--epsilons must be finite")
    return values


def _custom_gram_family(path: str, instance: ProblemInstance):
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InstanceParseError(f"cannot read family file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, list) or not data:
        raise InstanceParseError(
            f"{path}: a custom family must be a nonempty list of instances"
        )
    members = {}
    for index, item in enumerate(data):
        member = instance_from_tree(item, source=f"{path}[{index}]")
        if member.dimension != instance.dimension:
            raise InstanceValidationError(
                f"family member {index} has dimension {member.dimension}, "
                f"expected {instance.dimension}"
            )
        gram = build_instance_gram(member)
        epsilon = gram.regularity.min_abs_eigenvalue
        if epsilon in members:
            raise InstanceValidationError(
                f"family members {members[epsilon][0]} and {index} have the "
                f"same epsilon {epsilon!r} (smallest eigenvalue magnitude)"
            )
        members[epsilon] = (index, gram)
    epsilons = sorted(members, reverse=True)

    def build(epsilon: float):
        return members[epsilon][1]

    return build, epsilons


def run_sweep(instance: ProblemInstance, args) -> tuple[dict, int]:
    family = build_instance_family(instance)
    if args.family == "diag":
        builder = diagonal_gram_family(
            instance.dimension, instance.options.epsilon_threshold
        )
        epsilons = _sweep_epsilons(instance, args)
    else:
        builder, epsilons = _custom_gram_family(args.family, instance)
    result = singular_sweep(
        family, builder, epsilons, frame_tol=instance.options.frame_tol
    )
    sections = {
        "epsilons": list(result.epsilons),
        "lowerBounds": list(result.lower_bounds),
        "fittedSlope": _finite_or_none(result.fitted_slope),
        "witnessValues": list(result.witness_values),
        "envelopeConstant": result.envelope_constant,
        "envelopeWitnessHolds": result.envelope_witness_holds,
        "envelopeJNormalizedHolds": result.envelope_j_normalized_holds,
        "hilbertBounds": _bounds_payload(result.hilbert_bounds),
        "maxWeight": result.max_weight,
        "certifiedRatios": list(result.certified_ratios),
        "skipped": [
            {"epsilon": value, "reason": reason} for value, reason in result.skipped
        ],
    }
    code = EXIT_OK if result.envelope_witness_holds else EXIT_THEOREM
    return sections, code


def _spectral_checks(gram, cluster_tol: float):
    """Spectral representation, its projection-sum residual and the Krein
    bounds of its companion decomposition, with the two checks on them."""
    identity = np.eye(gram.dim)
    representation = spectral_representation(gram, cluster_tol)
    family = ortho_basis_of_subspaces(representation)
    projection_sum = sum(
        orthogonal_projection(s, identity).matrix for s in family.subspaces
    )
    sum_residual = frobenius(projection_sum - identity)
    decomposition = krein_decomposition(gram, representation)
    krein_bounds = FrameGeometry(decomposition.family(), gram).bounds(J_ORTHOGONAL)
    checks = {
        "projectionsSumToIdentity": sum_residual <= 1e-9,
        "kreinParseval": krein_bounds.matches(1.0, 1.0),
    }
    return representation, family, decomposition, sum_residual, krein_bounds, checks


def run_spectral(instance: ProblemInstance, args) -> tuple[dict, int]:
    gram = build_instance_gram(instance)
    representation, family, decomposition, sum_residual, krein_bounds, shared = (
        _spectral_checks(gram, instance.options.cluster_tol)
    )
    plain_bounds = frame_bounds(family, np.eye(gram.dim), ORTHOGONAL)
    multiplication_residual = max(
        frobenius(
            block.basis.T @ gram.matrix @ block.basis - block.multiplication_matrix()
        )
        for block in representation.blocks
    )
    checks = {
        "plainParseval": plain_bounds.is_parseval,
        "projectionsSumToIdentity": shared["projectionsSumToIdentity"],
        "multiplicationForm": multiplication_residual <= 1e-9,
        "kreinParseval": shared["kreinParseval"],
    }
    sections = {
        "clusters": [
            {"value": c.value, "multiplicity": c.multiplicity}
            for c in representation.clusters
        ],
        "maxMultiplicity": representation.max_multiplicity,
        "blocks": [
            {
                "level": b.level,
                "dimension": b.dim,
                "eigenvalues": list(b.eigenvalues),
                "measure": [
                    {"location": loc, "mass": mass} for loc, mass in b.measure.atoms
                ],
            }
            for b in representation.blocks
        ],
        "kreinBlocks": [
            {
                "level": b.level,
                "dimension": b.dim,
                "weightedMeasure": [
                    {"location": loc, "mass": mass}
                    for loc, mass in b.weighted_measure.atoms
                ],
                "scaling": list(b.scaling),
            }
            for b in decomposition.blocks
        ],
        "clusterWarnings": list(representation.warnings),
        "projectionSumResidual": sum_residual,
        "multiplicationFormResidual": multiplication_residual,
        "kreinBounds": _bounds_payload(krein_bounds),
        "checks": checks,
    }
    code = EXIT_OK if all(checks.values()) else EXIT_THEOREM
    return sections, code


def run_check(instance: ProblemInstance, args) -> tuple[dict, int]:
    family = build_instance_family(instance)
    gram = build_instance_gram(instance)
    d = gram.dim
    identity = np.eye(d)
    checks: dict[str, bool] = {}
    notes: list[str] = []

    polar_residuals = {
        "symmetrySquared": frobenius(gram.symmetry @ gram.symmetry - identity),
        "polarProduct": frobenius(gram.symmetry @ gram.abs_matrix - gram.matrix),
        "commutation": frobenius(
            gram.symmetry @ gram.matrix - gram.matrix @ gram.symmetry
        ),
        "rootSquared": frobenius(gram.sqrt_abs @ gram.sqrt_abs - gram.abs_matrix),
    }
    checks["polarIdentities"] = all(v <= 1e-9 for v in polar_residuals.values())

    lower_const, upper_const = norm_equivalence_constants(gram)
    # 200 random unit vectors, one per row, drawn as one block
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    values = np.sum((x @ gram.abs_matrix) * x, axis=1)
    checks["normEquivalence"] = bool(
        np.all((lower_const - 1e-9 <= values) & (values <= upper_const + 1e-9))
    )

    geometry = FrameGeometry(family, gram)
    projection_ok = True
    cross_ok = True
    for index, (subspace, completeness) in enumerate(
        zip(family.subspaces, geometry.checks)
    ):
        if not completeness:
            raise DegenerateSubspaceError(
                f"subspace {index} is degenerate under the indefinite form",
                witness=completeness.witness,
            )
        Q = j_projection_from_check(subspace, gram, completeness).matrix
        if (
            frobenius(Q @ Q - Q) > 1e-9 * max(1.0, frobenius(Q))
            or frobenius(gram.matrix @ Q - Q.T @ gram.matrix) > 1e-9
        ):
            projection_ok = False
        try:
            composed = composed_projection_from_check(subspace, gram, completeness)
            if frobenius(composed.matrix - Q) > 1e-8 * max(1.0, frobenius(Q)):
                cross_ok = False
        except ComposedProjectionError:
            notes.append(
                f"subspace {index}: composed construction not applicable "
                "(not invariant under the fundamental symmetry)"
            )
    checks["projectionIdentities"] = projection_ok
    checks["projectionCrossCheck"] = cross_ok

    A = geometry.analysis_operator(J_ORTHOGONAL)
    bounds = geometry.bounds(J_ORTHOGONAL)
    k = rng.standard_normal((200, d))
    values = np.sum((k @ A.T) ** 2, axis=1) / np.sum((k @ gram.abs_matrix) * k, axis=1)
    checks["definitionConsistency"] = bool(
        np.all((bounds.lower - 1e-8 <= values) & (values <= bounds.upper + 1e-8))
    )

    four_way = verify_four_way_equivalence(geometry)
    checks["fourWayEquivalence"] = four_way.bounds_agree

    shared = _spectral_checks(gram, instance.options.cluster_tol)[-1]
    checks["spectralResolution"] = shared["projectionsSumToIdentity"]
    checks["spectralKreinParseval"] = shared["kreinParseval"]

    if gram.is_regular:
        checks["regularTransferSandwich"] = transfer_regular(geometry).sandwich_holds
    else:
        notes.append("gram operator is near-singular; transfer sandwich skipped")

    sections = {
        "classification": gram.classification,
        "conditionNumber": gram.regularity.condition_number,
        "polarResiduals": polar_residuals,
        "checks": checks,
        "notes": notes,
    }
    return sections, EXIT_OK if all(checks.values()) else EXIT_THEOREM


def run_gen(args) -> tuple[str, str]:
    """Build a seeded instance; returns (text, destination)."""
    if args.output is None:
        raise InstanceValidationError("gen requires --output")
    payload = make_instance_payload(args.seed, args.dim, args.subspaces)
    text = dumps_canonical(payload)
    # round-trip guard: the generated file must parse cleanly
    parse_instance_text(text, source="<generated>")
    return text, args.output


HANDLERS = {
    "analyze": run_analyze,
    "equivalence": run_equivalence,
    "transfer": run_transfer,
    "sweep": run_sweep,
    "spectral": run_spectral,
    "check": run_check,
}


class _UsageError(Exception):
    """An argument argparse rejected; ``main`` exits 1 for it, not 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kfr",
        description=(
            "Frame-of-subspaces analysis on finite-dimensional spaces with "
            "indefinite W-metrics."
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", help="instance file (all commands except gen)")
    parser.add_argument("--output", help="write the report or instance here")
    parser.add_argument(
        "--metric",
        choices=("hilbert", "krein"),
        default="hilbert",
        help="metric for analyze (default: hilbert)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for gen")
    parser.add_argument("--dim", type=int, default=6, help="dimension for gen")
    parser.add_argument(
        "--subspaces", type=int, default=3, help="subspace count for gen"
    )
    parser.add_argument(
        "--family",
        default="diag",
        help="sweep family: 'diag' or a file with a list of instances",
    )
    parser.add_argument(
        "--epsilons", help="comma-separated sweep epsilons (decreasing)"
    )
    parser.add_argument(
        "--tol",
        type=float,
        help="override frameTol, or clusterTol for spectral (check reports no isFrame)",
    )
    return parser


#: Built once per process; parsing leaves it unchanged.
PARSER = build_parser()


def _emit(text: str, destination: str | None):
    if destination is None:
        sys.stdout.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)


def main(argv=None) -> int:
    _configure_logging()
    try:
        args = PARSER.parse_args(argv)
    except _UsageError as exc:
        # argparse's own text, with the exit status of any invalid input
        PARSER.print_usage(sys.stderr)
        print(f"{PARSER.prog}: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    started = time.perf_counter()
    try:
        if args.command == "gen":
            text, destination = run_gen(args)
            _emit(text, destination)
            logger.info(
                "gen seed=%d dim=%d subspaces=%d wrote %s in %.3fs",
                args.seed,
                args.dim,
                args.subspaces,
                destination,
                time.perf_counter() - started,
            )
            return EXIT_OK

        if args.input is None:
            raise InstanceValidationError(f"{args.command} requires --input")
        instance = _apply_tol(parse_instance(args.input), args)
        sections, code = HANDLERS[args.command](instance, args)
        report = {
            "version": __version__,
            "command": args.command,
            "instanceDigest": instance_digest(instance),
            "warnings": list(instance.warnings),
            "sections": sections,
        }
        _emit(dumps_canonical(report), args.output)
        logger.info(
            "%s finished with status %d in %.3fs",
            args.command,
            code,
            time.perf_counter() - started,
        )
        return code
    except (InstanceParseError, InstanceValidationError, ValueError) as exc:
        logger.debug("invalid input", exc_info=True)
        print(f"kfr: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NUMERICAL_ERRORS as exc:
        logger.debug("numerical failure", exc_info=True)
        print(f"kfr: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
