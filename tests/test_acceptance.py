"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
Fixtures coupling subspaces to an indefinite Gram operator sample
subspaces invariant under its fundamental symmetry; that is the
hypothesis under which the equivalence and transfer statements hold with
equal optimal bounds, see the generators module.
"""

import json

import numpy as np
import pytest

from kfr.cli import main
from kfr.fusion import (
    FrameGeometry,
    LocalFrameSystem,
    WeightedSubspaceFamily,
    frame_bounds,
    frame_operator,
    local_frames_to_fusion,
    verify_four_way_equivalence,
)
from kfr.generators import (
    random_gram,
    random_invariant_family,
    random_invariant_subspace,
    random_spectrum_gram,
)
from kfr.io import parse_instance_text, serialize_instance
from kfr.krein import build_gram
from kfr.linalg import frobenius
from kfr.spectral import (
    krein_decomposition,
    ortho_basis_of_subspaces,
    spectral_representation,
)
from kfr.subspaces import (
    J_ORTHOGONAL,
    ORTHOGONAL,
    Subspace,
    j_orthogonal_projection_composed,
    j_orthogonal_projection_gram,
    orthogonal_projection,
    spans_equal,
    subspace_from_columns,
)
from kfr.transfer import (
    diagonal_gram_family,
    singular_sweep,
    transfer_map_hilbert_to_krein,
    transfer_map_krein_to_hilbert,
    transfer_regular,
)


def _report(number: int, ok: bool, label: str, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number}: {verdict} - {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def line(*entries):
    v = np.array(entries, dtype=float)
    return Subspace((v / np.linalg.norm(v))[:, None])


def test_criterion_1_polar_identities():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        g = random_gram(rng, 8)
        identity = np.eye(8)
        residuals = (
            frobenius(g.symmetry @ g.symmetry - identity),
            frobenius(g.symmetry - g.symmetry.T),
            frobenius(g.symmetry @ g.abs_matrix - g.matrix),
            frobenius(g.abs_matrix @ g.symmetry - g.matrix),
            frobenius(g.symmetry @ g.matrix - g.matrix @ g.symmetry),
        )
        worst = max(worst, *residuals)
    _report(
        1,
        worst <= 1e-10,
        "polar decomposition identities on 50 seeded operators (d=8)",
        f"max residual {worst:.2e}",
    )


def test_criterion_2_projection_cross_check():
    worst_gap = 0.0
    worst_identity = 0.0
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        g = random_gram(rng, 8)
        subspace = random_invariant_subspace(g, rng, 2 + seed % 2)
        direct = j_orthogonal_projection_gram(subspace, g)
        composed = j_orthogonal_projection_composed(subspace, g)
        worst_gap = max(worst_gap, frobenius(direct.matrix - composed.matrix))
        for Q in (direct.matrix, composed.matrix):
            worst_identity = max(
                worst_identity,
                frobenius(Q @ Q - Q),
                frobenius(g.matrix @ Q - Q.T @ g.matrix),
            )
    _report(
        2,
        worst_gap <= 1e-8 and worst_identity <= 1e-9,
        "direct and composed J-orthogonal projections agree on 50 pairs",
        f"max construction gap {worst_gap:.2e}, max identity residual "
        f"{worst_identity:.2e}",
    )


def test_criterion_3_four_way_equivalence():
    worst_spread = 0.0
    agreements = 0
    for seed in range(50):
        rng = np.random.default_rng(3000 + seed)
        g = random_gram(rng, 6)
        family = random_invariant_family(g, rng, 3, 2, weight_range=(0.5, 2.0))
        report = verify_four_way_equivalence(FrameGeometry(family, g), rel_tol=1e-8)
        assert not report.degeneracies
        lows = [b.lower for b in report.all_bounds]
        highs = [b.upper for b in report.all_bounds]
        scale = max(abs(v) for v in highs)
        worst_spread = max(
            worst_spread,
            (max(lows) - min(lows)) / scale,
            (max(highs) - min(highs)) / scale,
        )
        if report.bounds_agree:
            agreements += 1
    _report(
        3,
        agreements == 50,
        "four formulation bound pairs coincide on 50 fixtures (d=6, three "
        "2-dim subspaces)",
        f"max spread {worst_spread:.2e} of the form scale",
    )


def test_criterion_4_regular_transfer():
    all_hold = True
    for seed in range(50):
        rng = np.random.default_rng(4000 + seed)
        g = random_gram(rng, 6, magnitude_range=(0.7, 2.5))
        assert g.regularity.condition_number <= 10
        family = random_invariant_family(g, rng, 3, 2, weight_range=(0.5, 2.0))
        report = transfer_regular(FrameGeometry(family, g), slack=1e-9)
        all_hold = all_hold and report.sandwich_holds

    identity_report = transfer_regular(
        FrameGeometry(
            WeightedSubspaceFamily((1.0, 1.0), (line(1.0, 0.0), line(0.0, 1.0))),
            build_gram(np.eye(2)),
        )
    )
    exact = identity_report.certified_interval == (
        identity_report.hilbert_bounds.lower,
        identity_report.hilbert_bounds.upper,
    )
    _report(
        4,
        all_hold and exact,
        "companion bounds stay inside the certified interval on 50 regular "
        "fixtures; identity operator gives the degenerate interval",
    )


def test_criterion_5_isometric_transfer():
    worst_rel = 0.0
    spans_ok = True
    for seed in range(50):
        rng = np.random.default_rng(5000 + seed)
        g = random_gram(rng, 6)
        family = random_invariant_family(g, rng, 3, 2, weight_range=(0.5, 2.0))

        hilbert = frame_bounds(family, np.eye(6), ORTHOGONAL)
        forward = transfer_map_hilbert_to_krein(family, g)
        image = frame_bounds(forward, g.abs_matrix, J_ORTHOGONAL, g)
        worst_rel = max(
            worst_rel,
            abs(image.lower - hilbert.lower) / max(1.0, abs(hilbert.lower)),
            abs(image.upper - hilbert.upper) / max(1.0, abs(hilbert.upper)),
        )

        krein = frame_bounds(family, g.abs_matrix, J_ORTHOGONAL, g)
        backward = transfer_map_krein_to_hilbert(family, g)
        back = frame_bounds(backward, np.eye(6), ORTHOGONAL)
        worst_rel = max(
            worst_rel,
            abs(back.lower - krein.lower) / max(1.0, abs(krein.lower)),
            abs(back.upper - krein.upper) / max(1.0, abs(krein.upper)),
        )

        round_trip = transfer_map_krein_to_hilbert(forward, g)
        spans_ok = spans_ok and all(
            spans_equal(before, after, tol=1e-9)
            for before, after in zip(family.subspaces, round_trip.subspaces)
        )
    _report(
        5,
        worst_rel <= 1e-8 and spans_ok,
        "square-root transfer preserves optimal bounds both ways and "
        "inverts on spans (50 fixtures)",
        f"max relative bound drift {worst_rel:.2e}",
    )


CANONICAL_MISALIGNED = WeightedSubspaceFamily(
    (1.0, 1.0), (line(1.0, 1.0), line(1.0, -1.0))
)


def test_criterion_6_singular_breakdown():
    epsilons = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    result = singular_sweep(
        CANONICAL_MISALIGNED, diagonal_gram_family(2), epsilons
    )
    worst_rel = max(
        abs(lb - 2.0 * eps / (1.0 + eps)) / (2.0 * eps / (1.0 + eps))
        for eps, lb in zip(result.epsilons, result.lower_bounds)
    )
    closed_form_ok = worst_rel <= 1e-8
    slope_ok = 0.9 <= result.fitted_slope <= 1.1
    # the proof constant B M^2 / A = 1 bounds the plain-normalized witness
    # form at every epsilon
    envelope_ok = result.envelope_witness_holds and result.envelope_constant == 1.0
    # the companion-normalized lower bound 2 eps / (1 + eps) necessarily
    # exceeds the same constant times eps; the sweep records that fact
    contradiction_documented = not result.envelope_j_normalized_holds
    _report(
        6,
        closed_form_ok and slope_ok and envelope_ok and contradiction_documented,
        "misaligned fixture: closed-form decay, unit log-log slope, proof "
        "envelope on the witness form",
        f"max closed-form deviation {worst_rel:.2e}, slope "
        f"{result.fitted_slope:.4f}",
    )


def test_criterion_7_local_frame_equivalence():
    agreements = 0
    frames_seen = 0
    non_frames_seen = 0
    for seed in range(30):
        rng = np.random.default_rng(7000 + seed)
        g = random_gram(rng, 6)
        if seed % 2 == 0:
            # three blocks of three vectors: spans cover the space
            blocks = tuple(rng.standard_normal((6, 3)) for _ in range(3))
        else:
            # two small blocks: cannot span, all three verdicts negative
            blocks = tuple(rng.standard_normal((6, 2)) for _ in range(2))
        weights = tuple(float(w) for w in rng.uniform(0.5, 2.0, len(blocks)))
        report = local_frames_to_fusion(
            LocalFrameSystem(blocks, weights), g
        )
        if report.verdicts_agree:
            agreements += 1
        if report.fusion_bounds.is_frame:
            frames_seen += 1
        else:
            non_frames_seen += 1
    _report(
        7,
        agreements == 30 and frames_seen > 0 and non_frames_seen > 0,
        "vector, orthonormalized and fusion frame verdicts agree on 30 "
        "partitioned systems (d=6)",
        f"{frames_seen} frames, {non_frames_seen} non-frames",
    )


def test_criterion_8_spectral_representation():
    g = build_gram(np.diag([2.0, 2.0, -1.0]))
    rep = spectral_representation(g)
    exact = (
        [(c.value, c.multiplicity) for c in rep.clusters] == [(-1.0, 1), (2.0, 2)]
        and rep.max_multiplicity == 2
        and spans_equal(
            Subspace(rep.blocks[0].basis.copy()),
            subspace_from_columns(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])),
        )
        and spans_equal(
            Subspace(rep.blocks[1].basis.copy()),
            subspace_from_columns(np.array([[0.0], [1.0], [0.0]])),
        )
        and sorted(rep.blocks[0].measure.locations) == [-1.0, 2.0]
        and rep.blocks[0].measure.masses == (1.0, 1.0)
        and rep.blocks[1].measure.atoms == ((2.0, 1.0),)
    )

    patterns = (
        [2.0, 2.0, -1.0, -1.0, 3.0, 0.5],
        [1.5, 1.5, 1.5, -2.0, -2.0, 4.0],
        [1.0, 1.0, -1.0, -1.0, -1.0, 2.0],
    )
    worst_sum = 0.0
    worst_mult = 0.0
    worst_parseval = 0.0
    for seed in range(30):
        rng = np.random.default_rng(8000 + seed)
        g = random_spectrum_gram(rng, patterns[seed % len(patterns)])
        rep = spectral_representation(g)
        family = ortho_basis_of_subspaces(rep)
        total = sum(
            orthogonal_projection(s, np.eye(6)).matrix for s in family.subspaces
        )
        worst_sum = max(worst_sum, frobenius(total - np.eye(6)))
        worst_mult = max(
            worst_mult,
            max(
                frobenius(
                    b.basis.T @ g.matrix @ b.basis - b.multiplication_matrix()
                )
                for b in rep.blocks
            ),
        )
        bounds = frame_bounds(
            krein_decomposition(g, rep).family(),
            g.abs_matrix,
            J_ORTHOGONAL,
            g,
        )
        worst_parseval = max(
            worst_parseval, abs(bounds.lower - 1.0), abs(bounds.upper - 1.0)
        )
    _report(
        8,
        exact
        and worst_sum <= 1e-9
        and worst_mult <= 1e-9
        and worst_parseval <= 1e-8,
        "diagonal example matches exactly; 30 planted-multiplicity "
        "operators resolve the identity and are companion-Parseval",
        f"sum residual {worst_sum:.2e}, multiplication residual "
        f"{worst_mult:.2e}, Parseval deviation {worst_parseval:.2e}",
    )


def test_criterion_9_oracle_equivalence():
    sample_count = 100_000
    all_ok = True
    worst_gap = 0.0
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        dim = 2 + seed % 3
        g = random_gram(rng, dim, negatives=1 if dim > 2 else 1)
        use_krein = seed % 2 == 0
        count = 2 if dim == 2 else 3
        family = random_invariant_family(
            g, rng, count, 1 + (dim > 2), weight_range=(0.5, 2.0)
        )
        if use_krein:
            metric = g.abs_matrix
            operator = frame_operator(family, metric, J_ORTHOGONAL, g)
            bounds = frame_bounds(family, metric, J_ORTHOGONAL, g)
        else:
            metric = np.eye(dim)
            operator = frame_operator(family, metric, ORTHOGONAL)
            bounds = frame_bounds(family, metric, ORTHOGONAL)

        directions = rng.standard_normal((sample_count, dim))
        numerators = np.einsum("ij,jk,ik->i", directions, operator, directions)
        denominators = np.einsum("ij,jk,ik->i", directions, metric, directions)
        values = numerators / denominators
        scan_min, scan_max = float(values.min()), float(values.max())

        scale = max(1.0, abs(bounds.lower), abs(bounds.upper))
        inside = (
            scan_min >= bounds.lower - 1e-6 and scan_max <= bounds.upper + 1e-6
        )
        approached = (
            scan_min - bounds.lower <= 1e-2 * scale
            and bounds.upper - scan_max <= 1e-2 * scale
        )
        worst_gap = max(
            worst_gap,
            (scan_min - bounds.lower) / scale,
            (bounds.upper - scan_max) / scale,
        )
        all_ok = all_ok and inside and approached
    _report(
        9,
        all_ok,
        "generalized-eigenvalue bounds agree with a brute-force scan of "
        "100000 directions on 20 small instances",
        f"worst extreme gap {worst_gap:.2e}",
    )


def test_criterion_10_cli_contract(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    gen_args = ["gen", "--seed", "42", "--dim", "6", "--subspaces", "3"]
    assert main(gen_args + ["--output", str(first)]) == 0
    assert main(gen_args + ["--output", str(second)]) == 0
    bytes_identical = first.read_bytes() == second.read_bytes()

    text = first.read_text(encoding="utf-8")
    round_trip = serialize_instance(parse_instance_text(text)) == text

    assert main(["analyze", "--input", str(first), "--metric", "krein"]) == 0
    report_a = capsys.readouterr().out
    assert main(["analyze", "--input", str(first), "--metric", "krein"]) == 0
    report_b = capsys.readouterr().out
    reports_identical = report_a == report_b

    bad = tmp_path / "broken.json"
    bad.write_text("{broken", encoding="utf-8")
    parse_code = main(["analyze", "--input", str(bad)])

    invalid = tmp_path / "invalid.json"
    invalid.write_text(
        json.dumps(
            {
                "dimension": 2,
                "gram": [[1.0, 0.0], [0.0, 1.0]],
                "subspaces": [{"basis": [[1.0, 0.0]]}],
                "weights": [0.0],
            }
        ),
        encoding="utf-8",
    )
    validation_code = main(["analyze", "--input", str(invalid)])

    degenerate = tmp_path / "degenerate.json"
    degenerate.write_text(
        json.dumps(
            {
                "dimension": 2,
                "gram": [[1.0, 0.0], [0.0, -1.0]],
                "subspaces": [{"basis": [[1.0, 1.0]]}],
                "weights": [1.0],
            }
        ),
        encoding="utf-8",
    )
    numerical_code = main(
        ["analyze", "--input", str(degenerate), "--metric", "krein"]
    )

    near_singular = tmp_path / "near_singular.json"
    near_singular.write_text(
        json.dumps(
            {
                "dimension": 2,
                "gram": [[1.0, 0.0], [0.0, 1e-8]],
                "subspaces": [{"basis": [[1.0, 0.0]]}, {"basis": [[0.0, 1.0]]}],
                "weights": [1.0, 1.0],
            }
        ),
        encoding="utf-8",
    )
    regularity_code = main(["transfer", "--input", str(near_singular)])

    theorem = tmp_path / "theorem.json"
    rng = np.random.default_rng(5)
    theorem.write_text(
        json.dumps(
            {
                "dimension": 4,
                "gram": [
                    [2.0, 0.0, 0.0, 0.5],
                    [0.0, -1.5, 0.3, 0.0],
                    [0.0, 0.3, 2.5, 0.0],
                    [0.5, 0.0, 0.0, -2.0],
                ],
                "subspaces": [
                    {"basis": [list(map(float, rng.standard_normal(4)))]},
                    {"basis": [list(map(float, rng.standard_normal(4)))]},
                    {"basis": [[1.0, 1.0, 0.0, 0.0]]},
                    {"basis": [[0.0, 0.0, 1.0, 1.0]]},
                ],
                "weights": [1.0, 1.0, 1.0, 1.0],
            }
        ),
        encoding="utf-8",
    )
    theorem_code = main(["equivalence", "--input", str(theorem)])
    capsys.readouterr()

    exit_contract = (
        parse_code == 1
        and validation_code == 1
        and numerical_code == 2
        and regularity_code == 2
        and theorem_code == 3
    )
    _report(
        10,
        bytes_identical and round_trip and reports_identical and exit_contract,
        "generation and reports are byte-deterministic; exit codes follow "
        "the contract",
        f"exit codes parse={parse_code} validation={validation_code} "
        f"numerical={numerical_code} regularity={regularity_code} "
        f"theorem={theorem_code}",
    )
