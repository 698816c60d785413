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
    non_finite_path,
    parse_instance,
    parse_instance_text,
)
from .krein import KernelError, norm_equivalence_holds, verify_polar_identities
from .linalg import ConvergenceError, MetricError
from .spectral import SpectralReport
from .subspaces import ComposedProjectionError, DegenerateSubspaceError, J_ORTHOGONAL
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
    MetricError,
    KernelError,
    DegenerateSubspaceError,
    ComposedProjectionError,
    RegularityError,
)

COMMANDS = ("analyze", "equivalence", "transfer", "sweep", "spectral", "check", "gen")

#: Seeded random vectors ``check`` samples for norm equivalence and for the
#: frame definition, one block each from one ``default_rng(0)`` stream.
CHECK_SAMPLES = 200

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


def _atoms(measure) -> list[dict]:
    return [{"location": loc, "mass": mass} for loc, mass in measure.atoms]


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
        bounds = frame_bounds(family, frame_tol=tol)
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
    pieces = args.epsilons.split(",")
    if "" in pieces:
        raise InstanceValidationError(f"--epsilons item {pieces.index('')} is empty")
    try:
        values = [float(piece) for piece in pieces]
    except ValueError as exc:
        raise InstanceValidationError(f"--epsilons must be numbers: {exc}") from exc
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
        source = f"{path}[{index}]"
        try:
            member = instance_from_tree(item, source=source)
        except (InstanceParseError, InstanceValidationError) as exc:
            # some parse errors already name their source
            if source in str(exc):
                raise
            raise type(exc)(f"{source}: {exc}") from exc
        if member.dimension != instance.dimension:
            raise InstanceValidationError(
                f"family member {index} has dimension {member.dimension}, "
                f"expected {instance.dimension}"
            )
        try:
            gram = build_instance_gram(member)
        except KernelError as exc:
            raise KernelError(f"{source}: {exc}") from exc
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


def run_spectral(instance: ProblemInstance, args) -> tuple[dict, int]:
    gram = build_instance_gram(instance)
    spectral = SpectralReport(gram, instance.options.cluster_tol)
    representation = spectral.representation
    checks = {
        "plainParseval": spectral.plain_bounds.is_parseval,
        "projectionsSumToIdentity": spectral.projections_sum_to_identity,
        "multiplicationForm": spectral.multiplication_form_holds,
        "kreinParseval": spectral.krein_parseval,
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
                "measure": _atoms(b.measure),
            }
            for b in representation.blocks
        ],
        "kreinBlocks": [
            {
                "level": b.level,
                "dimension": b.dim,
                "weightedMeasure": _atoms(b.weighted_measure),
                "scaling": list(b.scaling),
            }
            for b in spectral.decomposition.blocks
        ],
        "clusterWarnings": list(representation.warnings),
        "projectionSumResidual": spectral.projection_sum_residual,
        "multiplicationFormResidual": spectral.multiplication_form_residual,
        "kreinBounds": _bounds_payload(spectral.krein_bounds),
        "checks": checks,
    }
    code = EXIT_OK if all(checks.values()) else EXIT_THEOREM
    return sections, code


def run_check(instance: ProblemInstance, args) -> tuple[dict, int]:
    family = build_instance_family(instance)
    gram = build_instance_gram(instance)
    polar = verify_polar_identities(gram)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((CHECK_SAMPLES, gram.dim))
    k = rng.standard_normal((CHECK_SAMPLES, gram.dim))
    geometry = FrameGeometry(family, gram)
    projections = geometry.verify_j_projections()
    spectral = SpectralReport(gram, instance.options.cluster_tol)
    checks = {
        "polarIdentities": polar.holds,
        "normEquivalence": norm_equivalence_holds(gram, x),
        "projectionIdentities": projections.identities_hold,
        "projectionCrossCheck": projections.cross_check_holds,
        "definitionConsistency": geometry.definition_holds(k),
        "fourWayEquivalence": verify_four_way_equivalence(geometry).bounds_agree,
        "spectralResolution": spectral.projections_sum_to_identity,
        "spectralKreinParseval": spectral.krein_parseval,
    }
    notes = list(projections.notes)
    if gram.is_regular:
        checks["regularTransferSandwich"] = transfer_regular(geometry).sandwich_holds
    else:
        notes.append("gram operator is near-singular; transfer sandwich skipped")
    sections = {
        "classification": gram.classification,
        "conditionNumber": gram.regularity.condition_number,
        "polarResiduals": {
            "symmetrySquared": polar.symmetry_squared,
            "polarProduct": polar.polar_product,
            "commutation": polar.commutation,
            "rootSquared": polar.root_squared,
        },
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
        try:
            text = dumps_canonical(report)
        except ValueError as exc:
            # only a non-finite number stops a report: say where it is
            raise ValueError(f"{non_finite_path(report)}: {exc}") from exc
        _emit(text, args.output)
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
