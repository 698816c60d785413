import numpy as np
import pytest

from kfr.fusion import FrameGeometry, WeightedSubspaceFamily, frame_bounds
from kfr.generators import random_gram, random_invariant_family
from kfr.krein import build_gram
from kfr.subspaces import J_ORTHOGONAL, Subspace, spans_equal
from kfr.transfer import (
    RegularityError,
    diagonal_gram_family,
    singular_sweep,
    transfer_map_hilbert_to_krein,
    transfer_map_krein_to_hilbert,
    transfer_regular,
    verify_transfer_maps,
)


def line(*entries):
    v = np.array(entries, dtype=float)
    return Subspace((v / np.linalg.norm(v))[:, None])


def coordinate_family(d):
    return WeightedSubspaceFamily(
        tuple(1.0 for _ in range(d)),
        tuple(line(*np.eye(d)[i]) for i in range(d)),
    )


MISALIGNED = WeightedSubspaceFamily(
    (1.0, 1.0), (line(1.0, 1.0), line(1.0, -1.0))
)


def mild_regular_gram(seed, d=6):
    rng = np.random.default_rng(seed)
    return random_gram(rng, d, magnitude_range=(0.5, 3.0))


class TestTransferRegular:
    def test_identity_gram_is_exact(self):
        g = build_gram(np.eye(2))
        report = transfer_regular(FrameGeometry(coordinate_family(2), g))
        assert report.krein_bounds.lower == report.hilbert_bounds.lower
        assert report.krein_bounds.upper == report.hilbert_bounds.upper
        assert report.certified_interval == (
            report.hilbert_bounds.lower,
            report.hilbert_bounds.upper,
        )
        assert report.sandwich_holds

    def test_diagonal_aligned_family(self):
        g = build_gram(np.diag([2.0, 3.0]))
        report = transfer_regular(FrameGeometry(coordinate_family(2), g))
        assert report.hilbert_bounds.lower == pytest.approx(1.0, abs=1e-10)
        assert report.hilbert_bounds.upper == pytest.approx(1.0, abs=1e-10)
        assert report.krein_bounds.lower == pytest.approx(1.0, abs=1e-10)
        assert report.krein_bounds.upper == pytest.approx(1.0, abs=1e-10)
        # norm-equivalence constants m = 2, M = 3 applied on both sides
        assert report.certified_interval[0] == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert report.certified_interval[1] == pytest.approx(3.0 / 2.0, abs=1e-10)
        assert report.stated_interval[0] == pytest.approx(2.0, abs=1e-10)
        assert report.stated_interval[1] == pytest.approx(3.0, abs=1e-10)
        assert report.sandwich_holds

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_sandwich(self, seed):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 6, magnitude_range=(0.7, 2.5))
        assert g.regularity.condition_number <= 10
        family = random_invariant_family(g, rng, 3, 2, weight_range=(0.5, 2.0))
        report = transfer_regular(FrameGeometry(family, g))
        assert report.sandwich_holds

    def test_near_singular_rejected(self):
        g = build_gram(np.diag([1.0, 1e-8]))
        with pytest.raises(RegularityError, match="singular_sweep"):
            transfer_regular(FrameGeometry(coordinate_family(2), g))


class TestTransferMaps:
    def test_identity_gram(self):
        g = build_gram(np.eye(2))
        family = coordinate_family(2)
        image = transfer_map_hilbert_to_krein(family, g)
        for before, after in zip(family.subspaces, image.subspaces):
            assert spans_equal(before, after)

    def test_diagonal_example(self):
        g = build_gram(np.diag([4.0, 9.0]))
        family = WeightedSubspaceFamily((1.0,), (line(1.0, 1.0),))
        image = transfer_map_hilbert_to_krein(family, g)
        assert spans_equal(image.subspaces[0], line(1.0 / 2.0, 1.0 / 3.0))
        before = frame_bounds(family)
        after = FrameGeometry(image, g).bounds(J_ORTHOGONAL)
        assert after.lower == pytest.approx(before.lower, abs=1e-10)
        assert after.upper == pytest.approx(before.upper, abs=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_bound_preservation_both_directions(self, seed):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 6)
        family = random_invariant_family(g, rng, 3, 2, weight_range=(0.5, 2.0))
        hilbert = frame_bounds(family)
        forward = transfer_map_hilbert_to_krein(family, g)
        image_bounds = FrameGeometry(forward, g).bounds(J_ORTHOGONAL)
        assert image_bounds.lower == pytest.approx(hilbert.lower, rel=1e-8)
        assert image_bounds.upper == pytest.approx(hilbert.upper, rel=1e-8)

        krein = FrameGeometry(family, g).bounds(J_ORTHOGONAL)
        backward = transfer_map_krein_to_hilbert(family, g)
        back_bounds = frame_bounds(backward)
        assert back_bounds.lower == pytest.approx(krein.lower, rel=1e-8)
        assert back_bounds.upper == pytest.approx(krein.upper, rel=1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_maps_compose_to_identity_on_spans(self, seed):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 6)
        family = random_invariant_family(g, rng, 3, 2)
        round_trip = transfer_map_krein_to_hilbert(
            transfer_map_hilbert_to_krein(family, g), g
        )
        for before, after in zip(family.subspaces, round_trip.subspaces):
            assert spans_equal(before, after, tol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_verify_transfer_maps(self, seed):
        g = mild_regular_gram(seed)
        rng = np.random.default_rng(100 + seed)
        family = random_invariant_family(g, rng, 3, 2, weight_range=(0.5, 2.0))
        result = verify_transfer_maps(FrameGeometry(family, g))
        hilbert = result.regular.hilbert_bounds
        krein = result.regular.krein_bounds
        assert result.forward_bounds.lower == pytest.approx(hilbert.lower, rel=1e-8)
        assert result.backward_bounds.upper == pytest.approx(krein.upper, rel=1e-8)
        assert result.forward_preserves_bounds
        assert result.backward_preserves_bounds
        assert result.maps_invert_on_spans

    def test_below_machine_floor_rejected(self):
        g = build_gram(np.diag([1.0, 1e-13]))
        with pytest.raises(RegularityError, match="floor"):
            transfer_map_hilbert_to_krein(coordinate_family(2), g)


class TestSingularSweep:
    def test_aligned_family_does_not_decay(self):
        result = singular_sweep(
            coordinate_family(2),
            diagonal_gram_family(2),
            (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
        )
        for lb in result.lower_bounds:
            assert lb == pytest.approx(1.0, abs=1e-9)
        assert abs(result.fitted_slope) <= 0.01

    def test_misaligned_closed_form(self):
        epsilons = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        result = singular_sweep(MISALIGNED, diagonal_gram_family(2), epsilons)
        for eps, lb in zip(result.epsilons, result.lower_bounds):
            assert lb == pytest.approx(2.0 * eps / (1.0 + eps), rel=1e-8)
        assert 0.9 <= result.fitted_slope <= 1.1

    def test_misaligned_envelopes(self):
        result = singular_sweep(
            MISALIGNED, diagonal_gram_family(2), (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        )
        # the proof constant bounds the plain-normalized witness form
        assert result.envelope_constant == pytest.approx(1.0, abs=1e-9)
        assert result.envelope_witness_holds
        for eps, witness in zip(result.epsilons, result.witness_values):
            assert witness == pytest.approx(
                2.0 * eps**2 / (1.0 + eps), rel=1e-8
            )
        # the companion-normalized lower bound exceeds the same constant by
        # a factor approaching two; the literal comparison cannot hold
        assert not result.envelope_j_normalized_holds

    def test_regular_endpoint(self):
        result = singular_sweep(
            coordinate_family(2),
            diagonal_gram_family(2),
            (1.0, 1e-1, 1e-2, 1e-3),
        )
        assert result.lower_bounds[0] == pytest.approx(1.0, abs=1e-10)

    def test_certified_ratio_monotone(self):
        result = singular_sweep(
            MISALIGNED, diagonal_gram_family(2), (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        )
        ratios = result.certified_ratios
        assert all(a <= b + 1e-9 for a, b in zip(ratios, ratios[1:]))

    def test_degenerate_point_skipped_and_reported(self):
        def indefinite_family(eps):
            return build_gram(np.diag([1.0, -eps]))

        result = singular_sweep(
            MISALIGNED, indefinite_family, (1.0, 1e-1, 1e-2, 1e-3, 1e-4)
        )
        assert len(result.skipped) == 1
        assert result.skipped[0][0] == 1.0
        assert len(result.epsilons) == 4

    def test_requires_enough_decades(self):
        with pytest.raises(ValueError, match="decades"):
            singular_sweep(
                MISALIGNED, diagonal_gram_family(2), (1e-1, 5e-2, 2e-2, 1e-2)
            )

    def test_requires_four_points(self):
        with pytest.raises(ValueError, match="four"):
            singular_sweep(MISALIGNED, diagonal_gram_family(2), (1e-1, 1e-2, 1e-5))

    def test_requires_decreasing(self):
        with pytest.raises(ValueError, match="decreasing"):
            singular_sweep(
                MISALIGNED, diagonal_gram_family(2), (1e-4, 1e-2, 1e-3, 1e-1)
            )

    def test_requires_plain_frame(self):
        lonely = WeightedSubspaceFamily((1.0,), (line(1.0, 1.0),))
        with pytest.raises(ValueError, match="not a frame"):
            singular_sweep(lonely, diagonal_gram_family(2), (1e-1, 1e-2, 1e-3, 1e-4))
