import dataclasses
import math
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

import kfr.fusion
import kfr.io
import kfr.subspaces
from kfr.cli import main
from kfr.fusion import (
    CROSS_CHECK_TOL,
    FrameGeometry,
    JProjectionReport,
    JProjectionResiduals,
    LocalFrameSystem,
    WeightedSubspaceFamily,
    frame_bounds,
    frame_operator,
    local_frames_to_fusion,
    transport_by_invertible,
    verify_four_way_equivalence,
    whitened_bounds,
)
from kfr.generators import (
    random_gram,
    random_invariant_family,
    random_invariant_subspace,
    random_orthogonal,
)
from kfr.krein import build_gram
from kfr.linalg import frobenius
from kfr.subspaces import (
    J_ORTHOGONAL,
    ORTHOGONAL,
    PROJECTION_IDENTITY_TOL,
    ComposedProjectionError,
    DegenerateSubspaceError,
    Subspace,
    j_orthogonal_projection_composed,
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
        M = frame_operator(coordinate_family(2))
        assert np.allclose(M, np.eye(2), atol=1e-12)

    def test_scaled_whole_space(self):
        family = WeightedSubspaceFamily((2.0,), (Subspace(np.eye(2)),))
        M = frame_operator(family)
        assert np.allclose(M, 4.0 * np.eye(2), atol=1e-12)

    def test_two_lines_closed_form(self):
        family = WeightedSubspaceFamily(
            (1.0, 1.0), (line(1.0, 0.0), line(1.0, 1.0))
        )
        M = frame_operator(family)
        assert np.allclose(M, np.array([[1.5, 0.5], [0.5, 0.5]]), atol=1e-12)

    def test_plain_metric_has_no_j_orthogonal_kind(self):
        with pytest.raises(ValueError, match="need a Gram operator"):
            frame_operator(coordinate_family(2), kind=J_ORTHOGONAL)

    @pytest.mark.parametrize("seed", range(5))
    def test_quadratic_form_matches_projection_norms(self, seed):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 6)
        family = random_invariant_family(g, rng, 3, 2, weight_range=(0.5, 2.0))
        G = g.abs_matrix
        M = frame_operator(family, g, J_ORTHOGONAL)
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
        plain = metric_name == "plain"
        G = np.eye(d) if plain else g.abs_matrix
        reference = np.zeros((d, d))
        for weight, subspace in zip(family.weights, family.subspaces):
            if kind == ORTHOGONAL:
                P = orthogonal_projection(subspace, G)
            else:
                P = j_orthogonal_projection_gram(subspace, g)
            reference += weight**2 * (P.T @ G @ P)
        M = frame_operator(family) if plain else frame_operator(family, g, kind)
        assert frobenius(M - reference) <= 1e-12 * frobenius(reference)
        if not plain:
            A = FrameGeometry(family, g).analysis_operator(kind)
            assert A.shape == (sum(s.dim for s in family.subspaces), d)
            assert frobenius(A.T @ A - reference) <= 1e-12 * frobenius(reference)

    def test_companion_bounds_factor_no_dense_matrix_but_one(self, count_eigs):
        # |W|^{-1/2} comes from the Gram operator, so the only d x d
        # eigensolve left is the whitened reduction itself
        rng = np.random.default_rng(3)
        g = random_gram(rng, 12)
        family = random_invariant_family(g, rng, 3, 4)
        sizes = count_eigs()
        bounds = FrameGeometry(family, g).bounds(J_ORTHOGONAL)
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


class TestFrameBounds:
    def test_coordinate_parseval(self):
        bounds = frame_bounds(coordinate_family(2))
        assert bounds.lower == pytest.approx(1.0, abs=1e-12)
        assert bounds.upper == pytest.approx(1.0, abs=1e-12)
        assert bounds.is_parseval

    def test_two_lines_closed_form(self):
        family = WeightedSubspaceFamily(
            (1.0, 1.0), (line(1.0, 0.0), line(1.0, 1.0))
        )
        bounds = frame_bounds(family)
        assert bounds.lower == pytest.approx((2.0 - math.sqrt(2)) / 2.0, abs=1e-12)
        assert bounds.upper == pytest.approx((2.0 + math.sqrt(2)) / 2.0, abs=1e-12)
        assert bounds.is_frame and not bounds.is_tight

    def test_companion_metric_parseval(self):
        # coordinate axes are Parseval in the companion norm of diag(2,3)
        g = build_gram(np.diag([2.0, 3.0]))
        bounds = FrameGeometry(coordinate_family(2), g).bounds(J_ORTHOGONAL)
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
        bounds = frame_bounds(family)
        assert bounds.is_parseval

    @pytest.mark.parametrize("seed", range(3))
    def test_definition_consistency_sampled(self, seed):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 6)
        family = random_invariant_family(g, rng, 3, 2, weight_range=(0.5, 2.0))
        G = g.abs_matrix
        bounds = FrameGeometry(family, g).bounds(J_ORTHOGONAL)
        M = frame_operator(family, g, J_ORTHOGONAL)
        for _ in range(1000):
            k = rng.standard_normal(6)
            k /= math.sqrt(float(k @ G @ k))
            value = float(k @ M @ k)
            assert bounds.lower - 1e-8 <= value <= bounds.upper + 1e-8


class TestPlainBounds:
    """The plain-metric bounds read the rows ``x_i B_i^T``, which assumes
    orthonormal bases, and obey two metamorphic relations."""

    @staticmethod
    def random_family(rng, d, count, rank):
        members = tuple(
            subspace_from_columns(rng.standard_normal((d, rank))) for _ in range(count)
        )
        return WeightedSubspaceFamily(tuple(rng.uniform(0.5, 2.0, count)), members)

    @pytest.mark.parametrize("seed", range(6))
    def test_nearly_orthonormal_bases_stay_within_the_stated_bound(self, seed):
        # B (I + S) with ||S||_F = 5e-12 gives ||B^T B - I||_F ~ 1e-11, which
        # Subspace admits; each bound is within ||B^T B - I||_2 relative of
        # the bound of the exact projections, plus rounding
        rng = np.random.default_rng(700 + seed)
        d, rank = 12, 3
        members, delta = [], 0.0
        for subspace in self.random_family(rng, d, 5, rank).subspaces:
            S = rng.standard_normal((rank, rank))
            S = (S + S.T) * (5e-12 / frobenius(S + S.T))
            perturbed = Subspace(subspace.basis @ (np.eye(rank) + S))
            gram = perturbed.basis.T @ perturbed.basis - np.eye(rank)
            assert 5e-12 <= frobenius(gram) <= 2e-11
            delta = max(delta, float(np.linalg.norm(gram, 2)))
            members.append(perturbed)
        weights = tuple(rng.uniform(0.5, 2.0, len(members)))
        bounds = frame_bounds(WeightedSubspaceFamily(weights, tuple(members)))
        reference = sum(
            w**2 * orthogonal_projection(s, np.eye(d)) for w, s in zip(weights, members)
        )
        values = np.linalg.eigvalsh(reference)
        rounding = 16 * d * np.finfo(float).eps * values[-1]
        assert bounds.is_frame
        for got, expected in ((bounds.lower, values[0]), (bounds.upper, values[-1])):
            assert abs(got - expected) <= delta * expected + rounding

    @pytest.mark.parametrize("d", (6, 12, 24))
    def test_permuting_members_keeps_the_bounds(self, d):
        rng = np.random.default_rng(800 + d)
        for _ in range(10):
            family = self.random_family(rng, d, 4, d // 2)
            order = rng.permutation(len(family))
            permuted = WeightedSubspaceFamily(
                tuple(family.weights[i] for i in order),
                tuple(family.subspaces[i] for i in order),
            )
            before, after = frame_bounds(family), frame_bounds(permuted)
            assert before.is_frame
            floor = 1e-12 * before.upper
            assert abs(after.lower - before.lower) <= floor
            assert abs(after.upper - before.upper) <= floor

    @pytest.mark.parametrize("d", (6, 12, 24))
    def test_weights_times_eight_scale_the_bounds_by_64_exactly(self, d):
        rng = np.random.default_rng(900 + d)
        for _ in range(10):
            family = self.random_family(rng, d, 3, d // 2)
            scaled = WeightedSubspaceFamily(
                tuple(8.0 * w for w in family.weights), family.subspaces
            )
            before, after = frame_bounds(family), frame_bounds(scaled)
            assert (after.lower, after.upper) == (64.0 * before.lower, 64.0 * before.upper)


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
        assert krein == FrameGeometry(family, g).bounds(J_ORTHOGONAL)

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
        # one K-solve per member, shared by the verification and the J-block:
        # the operator has the same bits whichever of the two runs first
        first = self.invariant_geometry()
        second = FrameGeometry(first.family, first.gram)
        compressed = [check.compressed for check in first.checks]
        second.__dict__["checks"] = first.checks
        solved = []
        original = np.linalg.solve

        def counting(matrix, *args):
            solved.extend(i for i, K in enumerate(compressed) if matrix is K)
            return original(matrix, *args)

        monkeypatch.setattr(np.linalg, "solve", counting)
        report = first.verify_j_projections()
        assert first._operators == {}
        operator = first.analysis_operator(J_ORTHOGONAL)
        assert solved == list(range(len(compressed)))
        reference = second.analysis_operator(J_ORTHOGONAL)
        assert second.verify_j_projections() == report
        assert solved == 2 * list(range(len(compressed)))
        assert np.array_equal(operator, reference)
        assert list(first._operators) == [J_ORTHOGONAL]

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
        "j_orthogonal_projection_composed",
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

        frame_bounds(family)
        for kind in (ORTHOGONAL, J_ORTHOGONAL):
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


    def test_no_projection_check_builds_a_projection(self, monkeypatch):
        rng = np.random.default_rng(11)
        g = random_gram(rng, 8)
        invariant = random_invariant_family(g, rng, 3, 3)
        generic = subspace_from_columns(rng.standard_normal((8, 3)))
        mixed = WeightedSubspaceFamily((1.0, 2.0), (invariant.subspaces[0], generic))
        self.forbid_projections(monkeypatch)
        assert FrameGeometry(invariant, g).verify_j_projections().notes == ()
        assert len(FrameGeometry(mixed, g).verify_j_projections().notes) == 1

    def test_check_builds_no_j_projection(self, tmp_path, monkeypatch):
        # every (d, d) projection constructor is stubbed in every kfr module,
        # spectral included, and a whole check and spectral still pass
        instance = str(tmp_path / "instance.json")
        assert main(["gen", "--seed", "1", "--dim", "24", "--subspaces", "3",
                     "--output", instance]) == 0
        self.forbid_projections(monkeypatch)
        for command in ("check", "spectral"):
            assert main([command, "--input", instance,
                         "--output", str(tmp_path / "report.json")]) == 0


class TestJProjectionFactorOracle:
    """The factored projection check against the (d, d) constructors."""

    @staticmethod
    def dense(constructor, subspace, g, check):
        # the (d, d) constructor, fed the geometry's own (possibly planted) check
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kfr.subspaces, "is_projectively_complete", lambda *_: check)
            return constructor(subspace, g)

    def dense_residuals(self, subspace, g, check):
        W, G, B = g.matrix, g.abs_matrix, subspace.basis
        Q = self.dense(j_orthogonal_projection_gram, subspace, g, check)
        C = orthogonal_projection(subspace, G) @ orthogonal_projection(
            Subspace(g.symmetry @ B), G
        )
        scale, composed_scale = max(1.0, frobenius(Q)), max(1.0, frobenius(C))
        return JProjectionResiduals(
            scale=scale,
            idempotency=frobenius(Q @ Q - Q),
            w_self_adjoint=frobenius(W @ Q - Q.T @ W),
            composed={
                "idempotency": frobenius(C @ C - C) / composed_scale,
                "fixes_subspace": frobenius(C @ B - B),
                "w_self_adjoint": frobenius(W @ C - C.T @ W)
                / max(1.0, frobenius(W) * composed_scale),
            },
            cross_check=frobenius(C - Q),
        )

    def dense_report(self, geometry):
        # the check as it read the (d, d) projections
        g = geometry.gram
        identities = cross = True
        notes = []
        for index, (subspace, check) in enumerate(
            zip(geometry.family.subspaces, geometry.checks)
        ):
            Q = self.dense(j_orthogonal_projection_gram, subspace, g, check)
            scale = max(1.0, frobenius(Q))
            if (
                frobenius(Q @ Q - Q) > PROJECTION_IDENTITY_TOL * scale
                or frobenius(g.matrix @ Q - Q.T @ g.matrix) > PROJECTION_IDENTITY_TOL
            ):
                identities = False
            try:
                composed = self.dense(
                    j_orthogonal_projection_composed, subspace, g, check
                )
            except ComposedProjectionError:
                notes.append(
                    f"subspace {index}: composed construction not applicable "
                    "(not invariant under the fundamental symmetry)"
                )
                continue
            if frobenius(composed - Q) > CROSS_CHECK_TOL * scale:
                cross = False
        return JProjectionReport(identities, cross, tuple(notes))

    def assert_matches_oracle(self, geometry):
        g = geometry.gram
        d, w_norm = g.dim, frobenius(g.matrix)
        rounding = 16 * d * np.finfo(float).eps
        for index, (subspace, check) in enumerate(
            zip(geometry.family.subspaces, geometry.checks)
        ):
            got = geometry.j_projection_residuals(index)
            want = self.dense_residuals(subspace, g, check)
            scale = want.scale
            composed_scale = max(scale, want.cross_check)
            assert got.composed.keys() == want.composed.keys()
            for value, reference, size in (
                (got.scale, want.scale, scale),
                (got.idempotency, want.idempotency, scale**2),
                (got.w_self_adjoint, want.w_self_adjoint, w_norm * scale),
                (got.cross_check, want.cross_check, composed_scale),
                *(
                    (got.composed[key], want.composed[key], composed_scale)
                    for key in want.composed
                ),
            ):
                assert abs(value - reference) <= rounding * size
        report = geometry.verify_j_projections()
        assert report == self.dense_report(geometry)
        return report

    @pytest.mark.parametrize("seed", range(40))
    def test_random_families_match_the_dense_check(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 31))
        g = random_gram(rng, d)
        members = []
        for invariant in (True, False, bool(rng.integers(2))):
            rank = int(rng.integers(1, d))
            if invariant:
                members.append(random_invariant_subspace(g, rng, rank))
            else:
                members.append(subspace_from_columns(rng.standard_normal((d, rank))))
        family = WeightedSubspaceFamily((1.0, 0.5, 2.0), tuple(members))
        report = self.assert_matches_oracle(FrameGeometry(family, g))
        assert report.identities_hold and report.cross_check_holds
        assert any(note.startswith("subspace 1:") for note in report.notes)

    @pytest.mark.parametrize("workload", ("mixed_small", "dense_large", "coord_large"))
    def test_seed_one_bench_instances_match_the_dense_check(self, workload):
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        bench = runpy.run_path(str(path))
        for instance in bench["build_instances"](bench["WORKLOADS"][workload], 1):
            parsed = kfr.io.parse_instance_text(instance.text)
            geometry = FrameGeometry(
                kfr.io.build_instance_family(parsed), kfr.io.build_instance_gram(parsed)
            )
            self.assert_matches_oracle(geometry)

    @pytest.mark.parametrize("plant", ("double", "skew"))
    def test_planted_compressed_form_matches_far_above_rounding(self, plant):
        # 2K halves Q, so Q^2 != Q; K plus a skew part also breaks W Q = Q^T W
        rng = np.random.default_rng(5)
        g = random_gram(rng, 6)
        geometry = FrameGeometry(random_invariant_family(g, rng, 3, 2), g)
        first, *rest = geometry.checks
        skew = rng.standard_normal(first.compressed.shape)
        planted = (
            2.0 * first.compressed if plant == "double"
            else first.compressed + (skew - skew.T)
        )
        geometry.__dict__["checks"] = (
            dataclasses.replace(first, compressed=planted), *rest
        )
        report = self.assert_matches_oracle(geometry)
        assert not report.identities_hold and not report.cross_check_holds
        residuals = geometry.j_projection_residuals(0)
        assert residuals.idempotency > PROJECTION_IDENTITY_TOL
        if plant == "skew":
            assert residuals.w_self_adjoint > PROJECTION_IDENTITY_TOL

    def test_planted_symmetry_matches_far_above_rounding(self):
        # a rotation in place of J: no composed product is a J-projection
        rng = np.random.default_rng(5)
        g = random_gram(rng, 6)
        family = random_invariant_family(g, rng, 3, 2)
        rotated = dataclasses.replace(g, symmetry=random_orthogonal(rng, 6))
        geometry = FrameGeometry(family, rotated)
        report = self.assert_matches_oracle(geometry)
        assert len(report.notes) == len(family)
        for index in range(len(family)):
            composed = geometry.j_projection_residuals(index).composed
            assert min(composed.values()) > PROJECTION_IDENTITY_TOL

    def test_degenerate_member_raises_as_before(self):
        g = build_gram(np.diag([2.0, -1.0, -3.0]))
        family = WeightedSubspaceFamily(
            (1.0, 1.0), (line(1.0, 0.0, 0.0), line(1.0, math.sqrt(2.0), 0.0))
        )
        geometry = FrameGeometry(family, g)
        with pytest.raises(DegenerateSubspaceError) as raised:
            geometry.verify_j_projections()
        assert str(raised.value) == "subspace 1 is degenerate under the indefinite form"
        assert raised.value.witness is geometry.checks[1].witness
        with pytest.raises(DegenerateSubspaceError, match="^indefinite form"):
            geometry.j_projection_residuals(1)


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
        before = frame_bounds(family)
        after = frame_bounds(scaled)
        assert after.lower == pytest.approx(before.lower, abs=1e-10)
        assert after.upper == pytest.approx(before.upper, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_metric_unitary_preserves_bounds(self, seed):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 6)
        family = random_invariant_family(g, rng, 3, 2, weight_range=(0.5, 2.0))
        plain = frame_bounds(family)
        image = transport_by_invertible(family, g.inv_sqrt_abs)
        companion = FrameGeometry(image, g).bounds(ORTHOGONAL)
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
        before = frame_bounds(family)
        after = frame_bounds(transport_by_invertible(family, U))
        assert before.is_frame == after.is_frame

    def test_singular_map_rejected(self):
        family = coordinate_family(2)
        with pytest.raises(ValueError):
            transport_by_invertible(family, np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_ill_conditioned_map_rejected(self):
        # the transfer maps skip this test, which their floor makes moot;
        # any other operator keeps the TRANSPORT_COND_CAP = 1e10 cap
        family = coordinate_family(2)
        with pytest.raises(ValueError, match="numerically singular"):
            transport_by_invertible(family, np.diag([1.0, 1e-11]))
        transport_by_invertible(family, np.diag([1.0, 1e-9]))
