import dataclasses
import math
import sys

import numpy as np
import pytest

import kfr.fusion
import kfr.subspaces
from kfr.fusion import (
    FrameGeometry,
    LocalFrameSystem,
    WeightedSubspaceFamily,
    analysis_operator,
    frame_bounds,
    frame_operator,
    local_frames_to_fusion,
    transport_by_invertible,
    vector_frame_bounds,
    verify_four_way_equivalence,
    whitened_bounds,
)
from kfr.generators import random_gram, random_invariant_family
from kfr.krein import build_gram
from kfr.linalg import frobenius
from kfr.subspaces import (
    J_ORTHOGONAL,
    ORTHOGONAL,
    DegenerateSubspaceError,
    Subspace,
    j_orthogonal_projection_gram,
    orthogonal_projection,
    subspace_from_columns,
)
from kfr.spectral import SpectralReport
from kfr.transfer import diagonal_gram_family, singular_sweep, transfer_regular


def line(*entries):
    v = np.array(entries, dtype=float)
    return Subspace((v / np.linalg.norm(v))[:, None])


def coordinate_family(d, weights=None):
    subspaces = tuple(line(*np.eye(d)[i]) for i in range(d))
    return WeightedSubspaceFamily(weights or tuple(1.0 for _ in range(d)), subspaces)


class TestFamilyType:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WeightedSubspaceFamily((), ())

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            WeightedSubspaceFamily((0.0,), (line(1.0, 0.0),))

    def test_rejects_dimension_mix(self):
        with pytest.raises(ValueError):
            WeightedSubspaceFamily(
                (1.0, 1.0), (line(1.0, 0.0), line(1.0, 0.0, 0.0))
            )


class TestFrameOperator:
    def test_coordinate_parseval(self):
        M = frame_operator(coordinate_family(2), np.eye(2))
        assert np.allclose(M, np.eye(2), atol=1e-12)

    def test_scaled_whole_space(self):
        family = WeightedSubspaceFamily((2.0,), (Subspace(np.eye(2)),))
        M = frame_operator(family, np.eye(2))
        assert np.allclose(M, 4.0 * np.eye(2), atol=1e-12)

    def test_two_lines_closed_form(self):
        family = WeightedSubspaceFamily(
            (1.0, 1.0), (line(1.0, 0.0), line(1.0, 1.0))
        )
        M = frame_operator(family, np.eye(2))
        assert np.allclose(M, np.array([[1.5, 0.5], [0.5, 0.5]]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_quadratic_form_matches_projection_norms(self, seed):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 6)
        family = random_invariant_family(g, rng, 3, 2, weight_range=(0.5, 2.0))
        G = g.abs_matrix
        M = frame_operator(family, G, J_ORTHOGONAL, g)
        from kfr.subspaces import j_orthogonal_projection_gram

        projections = [
            j_orthogonal_projection_gram(s, g) for s in family.subspaces
        ]
        for _ in range(30):
            k = rng.standard_normal(6)
            direct = sum(
                w**2 * float((p @ k) @ G @ (p @ k))
                for w, p in zip(family.weights, projections)
            )
            assert float(k @ M @ k) == pytest.approx(direct, abs=1e-9 * max(1, direct))


class TestAnalysisOperator:
    @pytest.mark.parametrize("d", (6, 24))
    @pytest.mark.parametrize(
        "metric_name, kind",
        [("plain", ORTHOGONAL), ("companion", ORTHOGONAL), ("companion", J_ORTHOGONAL)],
    )
    def test_gram_matches_projection_sum(self, d, metric_name, kind):
        # reference: the frame operator summed from its definition
        rng = np.random.default_rng(40 + d)
        g = random_gram(rng, d)
        family = random_invariant_family(
            g, rng, 3, d // 3 + 1, weight_range=(0.5, 2.0)
        )
        G = np.eye(d) if metric_name == "plain" else g.abs_matrix
        reference = np.zeros((d, d))
        for weight, subspace in zip(family.weights, family.subspaces):
            if kind == ORTHOGONAL:
                P = orthogonal_projection(subspace, G)
            else:
                P = j_orthogonal_projection_gram(subspace, g)
            reference += weight**2 * (P.T @ G @ P)
        A = analysis_operator(family, G, kind, g)
        assert A.shape == (sum(s.dim for s in family.subspaces), d)
        M = frame_operator(family, G, kind, g)
        assert frobenius(M - reference) <= 1e-12 * frobenius(reference)
        assert frobenius(A.T @ A - reference) <= 1e-12 * frobenius(reference)

    def test_companion_bounds_factor_no_dense_matrix_but_one(self, count_eigs):
        # |W|^{-1/2} comes from the Gram operator, so the only d x d
        # eigensolve left is the whitened reduction itself
        rng = np.random.default_rng(3)
        g = random_gram(rng, 12)
        family = random_invariant_family(g, rng, 3, 4)
        sizes = count_eigs()
        bounds = frame_bounds(family, g.abs_matrix, J_ORTHOGONAL, g)
        assert sizes.count(12) == 1
        assert sizes.count(4) == 3
        assert bounds.is_frame

    def test_whitened_bounds_are_squared_singular_values(self):
        rng = np.random.default_rng(13)
        F = rng.standard_normal((9, 5))
        sv = np.linalg.svd(F, compute_uv=False)
        bounds = whitened_bounds(F)
        assert bounds.lower == pytest.approx(sv[-1] ** 2, rel=1e-12)
        assert bounds.upper == pytest.approx(sv[0] ** 2, rel=1e-12)
        # fewer rows than columns: the lower bound is zero, no frame
        wide = whitened_bounds(np.array([[3.0, 4.0, 0.0]]))
        assert wide.lower == pytest.approx(0.0, abs=1e-14) and not wide.is_frame
        assert wide.upper == pytest.approx(25.0, rel=1e-14)
        # an already diagonal F^T F keeps its exact entries
        exact = whitened_bounds(np.diag([0.5, 3.0]))
        assert (exact.lower, exact.upper) == (0.25, 9.0)

    def test_metric_not_definite_on_a_subspace(self):
        family = WeightedSubspaceFamily((1.0,), (line(1.0, 0.0),))
        with pytest.raises(np.linalg.LinAlgError):
            analysis_operator(family, np.diag([-1.0, 1.0]))


class TestFrameBounds:
    def test_coordinate_parseval(self):
        bounds = frame_bounds(coordinate_family(2), np.eye(2))
        assert bounds.lower == pytest.approx(1.0, abs=1e-12)
        assert bounds.upper == pytest.approx(1.0, abs=1e-12)
        assert bounds.is_parseval

    def test_two_lines_closed_form(self):
        family = WeightedSubspaceFamily(
            (1.0, 1.0), (line(1.0, 0.0), line(1.0, 1.0))
        )
        bounds = frame_bounds(family, np.eye(2))
        assert bounds.lower == pytest.approx((2.0 - math.sqrt(2)) / 2.0, abs=1e-12)
        assert bounds.upper == pytest.approx((2.0 + math.sqrt(2)) / 2.0, abs=1e-12)
        assert bounds.is_frame and not bounds.is_tight

    def test_companion_metric_parseval(self):
        # coordinate axes are Parseval in the companion norm of diag(2,3)
        g = build_gram(np.diag([2.0, 3.0]))
        bounds = frame_bounds(coordinate_family(2), g.abs_matrix, J_ORTHOGONAL, g)
        assert bounds.lower == pytest.approx(1.0, abs=1e-10)
        assert bounds.upper == pytest.approx(1.0, abs=1e-10)
        assert bounds.is_parseval

    def test_orthogonal_decomposition_is_parseval(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        family = WeightedSubspaceFamily(
            (1.0, 1.0, 1.0),
            tuple(Subspace(q[:, 2 * i : 2 * i + 2].copy()) for i in range(3)),
        )
        bounds = frame_bounds(family, np.eye(6))
        assert bounds.is_parseval

    @pytest.mark.parametrize("seed", range(3))
    def test_definition_consistency_sampled(self, seed):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 6)
        family = random_invariant_family(g, rng, 3, 2, weight_range=(0.5, 2.0))
        G = g.abs_matrix
        bounds = frame_bounds(family, G, J_ORTHOGONAL, g)
        M = frame_operator(family, G, J_ORTHOGONAL, g)
        for _ in range(1000):
            k = rng.standard_normal(6)
            k /= math.sqrt(float(k @ G @ k))
            value = float(k @ M @ k)
            assert bounds.lower - 1e-8 <= value <= bounds.upper + 1e-8


class TestVectorFrameBounds:
    def test_orthonormal_basis(self):
        bounds = vector_frame_bounds([np.array([1.0, 0.0]), np.array([0.0, 1.0])], np.eye(2))
        assert bounds.is_parseval

    def test_repeated_vector(self):
        vectors = [np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        bounds = vector_frame_bounds(vectors, np.eye(2))
        assert bounds.lower == pytest.approx(1.0, abs=1e-10)
        assert bounds.upper == pytest.approx(2.0, abs=1e-10)

    def test_non_spanning_set(self):
        bounds = vector_frame_bounds([np.array([1.0, 0.0])], np.eye(2))
        assert bounds.lower == pytest.approx(0.0, abs=1e-12)
        assert not bounds.is_frame


class TestFourWayEquivalence:
    def test_plain_metric_collapses_formulations(self):
        g = build_gram(np.eye(2))
        report = verify_four_way_equivalence(FrameGeometry(coordinate_family(2), g))
        assert report.bounds_agree
        values = {
            (b.lower, b.upper) for b in report.all_bounds
        }
        assert values == {(1.0, 1.0)}

    def test_coordinate_subspaces_indefinite(self):
        g = build_gram(np.diag([2.0, -3.0]))
        report = verify_four_way_equivalence(FrameGeometry(coordinate_family(2), g))
        assert report.bounds_agree
        for bounds in report.all_bounds:
            assert bounds.lower == pytest.approx(1.0, abs=1e-9)
            assert bounds.upper == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_invariant_fixture_bounds_coincide(self, seed):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 6)
        family = random_invariant_family(g, rng, 3, 2, weight_range=(0.5, 2.0))
        report = verify_four_way_equivalence(FrameGeometry(family, g))
        assert report.bounds_agree
        assert not report.degeneracies

    def test_degenerate_member_is_reported(self):
        g = build_gram(np.diag([1.0, -1.0]))
        family = WeightedSubspaceFamily((1.0,), (line(1.0, 1.0),))
        report = verify_four_way_equivalence(FrameGeometry(family, g))
        assert report.degeneracies
        assert not report.bounds_agree


class TestFrameGeometry:
    def test_each_factor_is_computed_once(self, count_eigs):
        rng = np.random.default_rng(3)
        g = random_gram(rng, 12)
        family = random_invariant_family(g, rng, 3, 4)
        geometry = FrameGeometry(family, g)
        sizes = count_eigs()
        report = verify_four_way_equivalence(geometry)
        # three members and three J-images, four whitened reductions
        assert sorted(sizes) == [4] * 6 + [12] * 4
        sizes.clear()
        # tolerances only classify, and the transfer's plain bound is new
        strict = geometry.bounds(J_ORTHOGONAL, frame_tol=1e3)
        krein = transfer_regular(geometry).krein_bounds
        assert sizes == [12]
        assert report.q_on_subspaces == krein
        assert (strict.lower, strict.upper) == (krein.lower, krein.upper)
        assert krein.is_frame and not strict.is_frame
        assert krein == frame_bounds(family, g.abs_matrix, J_ORTHOGONAL, g)

    def test_rejects_mismatched_dimension_and_unknown_kind(self):
        g = build_gram(np.diag([2.0, -3.0, 1.0]))
        with pytest.raises(ValueError, match="dimensions differ"):
            FrameGeometry(coordinate_family(2), g)
        geometry = FrameGeometry(coordinate_family(3), g)
        with pytest.raises(ValueError, match="unknown projection kind"):
            geometry.bounds("oblique")


class TestFrameGeometryVerdicts:
    def invariant_geometry(self, seed=5):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 6)
        return FrameGeometry(random_invariant_family(g, rng, 3, 2), g)

    def test_invariant_family_passes_every_check(self):
        geometry = self.invariant_geometry()
        report = geometry.verify_j_projections()
        assert report.identities_hold and report.cross_check_holds
        assert report.notes == ()
        samples = np.random.default_rng(0).standard_normal((100, 6))
        assert geometry.definition_holds(samples)

    def test_non_invariant_member_gets_the_composed_note(self):
        g = build_gram(np.diag([2.0, -1.0, 3.0]))
        family = WeightedSubspaceFamily(
            (1.0, 1.0), (line(1.0, 0.0, 0.0), line(1.0, 0.5, 0.0))
        )
        report = FrameGeometry(family, g).verify_j_projections()
        assert report.identities_hold and report.cross_check_holds
        assert report.notes == (
            "subspace 1: composed construction not applicable "
            "(not invariant under the fundamental symmetry)",
        )

    def test_wrong_compressed_form_fails_identities_and_cross_check(self):
        geometry = self.invariant_geometry()
        first, *rest = geometry.checks
        # halves every Q built from it: Q/2 is neither idempotent nor the
        # composed projection
        planted = dataclasses.replace(first, compressed=2.0 * first.compressed)
        geometry.__dict__["checks"] = (planted, *rest)
        report = geometry.verify_j_projections()
        assert not report.identities_hold
        assert not report.cross_check_holds

    def test_degenerate_member_is_named(self):
        # the second member spans a neutral line: [v, v] = 2 - 2 = 0
        g = build_gram(np.diag([2.0, -1.0, -3.0]))
        family = WeightedSubspaceFamily(
            (1.0, 1.0), (line(1.0, 0.0, 0.0), line(1.0, math.sqrt(2.0), 0.0))
        )
        with pytest.raises(DegenerateSubspaceError, match="^subspace 1 is degenerate"):
            FrameGeometry(family, g).verify_j_projections()

    def test_verify_builds_each_j_projection_once(self, monkeypatch):
        # verifying forms each member's Q once and leaves the analysis
        # operator alone: it is built from r x r factors, the same bits
        # whether or not the projections were verified first
        geometry = self.invariant_geometry()
        fresh = FrameGeometry(geometry.family, geometry.gram)
        reference = fresh.analysis_operator(J_ORTHOGONAL)
        calls = []
        original = kfr.fusion.j_projection_from_check

        def counting(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(kfr.fusion, "j_projection_from_check", counting)
        geometry.verify_j_projections()
        assert geometry._operators == {}
        operator = geometry.analysis_operator(J_ORTHOGONAL)
        assert calls == list(geometry.family.subspaces)
        assert np.array_equal(operator, reference)
        assert list(geometry._operators) == [J_ORTHOGONAL]

    def test_bounds_that_are_too_tight_break_the_definition(self):
        geometry = self.invariant_geometry()
        samples = np.random.default_rng(0).standard_normal((100, 6))
        lower, upper = geometry.extremes(J_ORTHOGONAL)
        geometry._extremes[J_ORTHOGONAL] = (lower, (lower + upper) / 2.0)
        assert not geometry.definition_holds(samples)


class TestNoProjectionInBounds:
    PROJECTIONS = (
        "orthogonal_projection",
        "j_orthogonal_projection_gram",
        "j_projection_from_check",
        "composed_projection_from_check",
    )

    def forbid_projections(self, monkeypatch):
        # ``from .subspaces import ...`` copies each name into the importing
        # module, so every ``kfr`` module binding is replaced
        originals = [getattr(kfr.subspaces, name) for name in self.PROJECTIONS]

        def forbidden(*args, **kwargs):
            raise AssertionError("a frame bound formed a (d, d) projection")

        for name, module in list(sys.modules.items()):
            if name == "kfr" or name.startswith("kfr."):
                for attr, value in list(vars(module).items()):
                    if any(value is original for original in originals):
                        monkeypatch.setattr(module, attr, forbidden)

    def test_no_frame_bound_builds_a_projection(self, monkeypatch):
        rng = np.random.default_rng(7)
        g = random_gram(rng, 8)
        family = random_invariant_family(g, rng, 3, 3, weight_range=(0.5, 2.0))
        blocks = tuple(rng.standard_normal((8, 3)) for _ in range(3))
        system = LocalFrameSystem(blocks=blocks, weights=(1.0, 0.5, 2.0))
        self.forbid_projections(monkeypatch)

        frame_bounds(family, np.eye(8))
        frame_bounds(family, np.eye(8), J_ORTHOGONAL, g)
        frame_bounds(family, g.abs_matrix)
        for kind in (ORTHOGONAL, J_ORTHOGONAL):
            frame_bounds(family, g.abs_matrix, kind, g)
            FrameGeometry(family, g).bounds(kind)
        geometry = FrameGeometry(family, g)
        assert verify_four_way_equivalence(geometry).bounds_agree
        transfer_regular(geometry)
        misaligned = WeightedSubspaceFamily(
            (1.0, 1.0), (line(1.0, 0.0), line(1.0, 1.0))
        )
        singular_sweep(misaligned, diagonal_gram_family(2), (1e-1, 1e-2, 1e-3, 1e-4))
        spectral = SpectralReport(g)
        spectral.plain_bounds
        spectral.krein_bounds
        local_frames_to_fusion(system, g)


class TestLocalFrames:
    def test_coordinate_blocks_parseval(self):
        system = LocalFrameSystem(
            blocks=(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])),
            weights=(1.0, 1.0),
        )
        report = local_frames_to_fusion(system, build_gram(np.eye(2)))
        assert report.verdicts_agree
        assert report.weighted_vector_bounds.is_parseval
        assert report.fusion_bounds.is_parseval

    def test_repeated_vector_block(self):
        system = LocalFrameSystem(
            blocks=(
                np.array([[1.0, 1.0], [0.0, 0.0]]),
                np.array([[0.0], [1.0]]),
            ),
            weights=(1.0, 1.0),
        )
        report = local_frames_to_fusion(system, build_gram(np.eye(2)))
        assert report.block_bounds[0].lower == pytest.approx(2.0, abs=1e-10)
        assert report.block_bounds[0].upper == pytest.approx(2.0, abs=1e-10)
        assert report.weighted_vector_bounds.lower == pytest.approx(1.0, abs=1e-10)
        assert report.weighted_vector_bounds.upper == pytest.approx(2.0, abs=1e-10)
        assert report.fusion_bounds.is_parseval
        assert report.verdicts_agree

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_verdicts_agree(self, seed):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 6)
        blocks = tuple(rng.standard_normal((6, rng.integers(2, 4))) for _ in range(3))
        system = LocalFrameSystem(blocks=blocks, weights=(1.0, 0.5, 2.0))
        report = local_frames_to_fusion(system, g)
        assert report.verdicts_agree

    @pytest.mark.parametrize("seed", range(4))
    def test_non_spanning_system_flags_no_frame(self, seed):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 6)
        # two 2-dim blocks cannot span a 6-dim space
        blocks = tuple(rng.standard_normal((6, 2)) for _ in range(2))
        system = LocalFrameSystem(blocks, (1.0, 1.0))
        report = local_frames_to_fusion(system, g)
        assert report.verdicts_agree
        assert not report.fusion_bounds.is_frame
        assert not report.weighted_vector_bounds.is_frame

    def test_partition_indices(self):
        system = LocalFrameSystem(
            blocks=(np.ones((3, 2)), np.ones((3, 1))), weights=(1.0, 1.0)
        )
        assert system.partition == ((0, 1), (2,))


class TestTransport:
    def test_identity(self):
        family = coordinate_family(2)
        out = transport_by_invertible(family, np.eye(2))
        for before, after in zip(family.subspaces, out.subspaces):
            assert frobenius(
                before.basis @ before.basis.T - after.basis @ after.basis.T
            ) <= 1e-12

    def test_scaling_preserves_bounds(self):
        family = WeightedSubspaceFamily(
            (1.0, 1.0), (line(1.0, 0.0), line(1.0, 1.0))
        )
        scaled = transport_by_invertible(family, 2.0 * np.eye(2))
        before = frame_bounds(family, np.eye(2))
        after = frame_bounds(scaled, np.eye(2))
        assert after.lower == pytest.approx(before.lower, abs=1e-10)
        assert after.upper == pytest.approx(before.upper, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_metric_unitary_preserves_bounds(self, seed):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 6)
        family = random_invariant_family(g, rng, 3, 2, weight_range=(0.5, 2.0))
        plain = frame_bounds(family, np.eye(6))
        image = transport_by_invertible(family, g.inv_sqrt_abs)
        companion = frame_bounds(image, g.abs_matrix, ORTHOGONAL)
        assert companion.lower == pytest.approx(plain.lower, rel=1e-8)
        assert companion.upper == pytest.approx(plain.upper, rel=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_frameness_invariant_under_any_invertible(self, seed):
        rng = np.random.default_rng(seed)
        family = WeightedSubspaceFamily(
            (1.0, 1.0, 1.0),
            tuple(subspace_from_columns(rng.standard_normal((6, 2))) for _ in range(3)),
        )
        U = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
        before = frame_bounds(family, np.eye(6))
        after = frame_bounds(transport_by_invertible(family, U), np.eye(6))
        assert before.is_frame == after.is_frame

    def test_singular_map_rejected(self):
        family = coordinate_family(2)
        with pytest.raises(ValueError):
            transport_by_invertible(family, np.array([[1.0, 0.0], [1.0, 0.0]]))
