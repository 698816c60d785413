import numpy as np
import pytest

from kfr.fusion import FrameGeometry, frame_bounds
from kfr.generators import (
    make_instance_payload,
    random_gram,
    random_invariant_family,
    random_invariant_subspace,
    random_orthogonal,
    random_spectrum_gram,
)
from kfr.io import build_instance_family, build_instance_gram, parse_instance_text, dumps_canonical
from kfr.linalg import frobenius
from kfr.subspaces import (
    J_ORTHOGONAL,
    is_projectively_complete,
    spans_equal,
    subspace_from_columns,
)


class TestRandomOrthogonal:
    @pytest.mark.parametrize("seed", range(4))
    def test_orthogonality(self, seed):
        q = random_orthogonal(np.random.default_rng(seed), 7)
        assert frobenius(q.T @ q - np.eye(7)) <= 1e-12


class TestRandomGram:
    def test_signature_control(self):
        g = random_gram(np.random.default_rng(0), 6, negatives=2)
        assert int(np.sum(g.eig.eigenvalues < 0)) == 2

    def test_prescribed_spectrum(self):
        values = [2.0, 2.0, -1.0]
        g = random_spectrum_gram(np.random.default_rng(1), values)
        assert np.allclose(np.sort(g.eig.eigenvalues), sorted(values), atol=1e-10)

    def test_magnitude_range_keeps_conditioning(self):
        g = random_gram(np.random.default_rng(2), 8, magnitude_range=(0.5, 2.0))
        assert g.regularity.condition_number <= 4.0 + 1e-9

    def test_bad_signature_rejected(self):
        with pytest.raises(ValueError):
            random_gram(np.random.default_rng(0), 4, negatives=5)


class TestInvariantSubspaces:
    @pytest.mark.parametrize("seed", range(10))
    def test_invariance_under_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 6)
        s = random_invariant_subspace(g, rng, 3)
        mapped = subspace_from_columns(g.symmetry @ s.basis)
        assert spans_equal(mapped, s)

    @pytest.mark.parametrize("seed", range(10))
    def test_nondegeneracy(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = random_gram(rng, 6)
        s = random_invariant_subspace(g, rng, 2)
        assert is_projectively_complete(s, g)

    def test_definite_operator_accepts_any_rank(self):
        rng = np.random.default_rng(3)
        g = random_gram(rng, 5, negatives=0)
        s = random_invariant_subspace(g, rng, 4)
        assert s.dim == 4

    def test_rank_bounds(self):
        rng = np.random.default_rng(4)
        g = random_gram(rng, 4)
        with pytest.raises(ValueError):
            random_invariant_subspace(g, rng, 0)
        with pytest.raises(ValueError):
            random_invariant_subspace(g, rng, 5)

    def test_family_weights_in_range(self):
        rng = np.random.default_rng(5)
        g = random_gram(rng, 6)
        family = random_invariant_family(g, rng, 4, 2, weight_range=(0.5, 2.0))
        assert all(0.5 <= w <= 2.0 for w in family.weights)
        assert len(family) == 4


class TestInstancePayloads:
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_generated_family_is_a_frame_in_both_geometries(self, seed):
        instance = parse_instance_text(
            dumps_canonical(make_instance_payload(seed, 6, 3))
        )
        gram = build_instance_gram(instance)
        family = build_instance_family(instance)
        plain = frame_bounds(family)
        companion = FrameGeometry(family, gram).bounds(J_ORTHOGONAL)
        assert plain.is_frame
        assert companion.is_frame

    def test_generated_subspaces_are_invariant(self):
        instance = parse_instance_text(
            dumps_canonical(make_instance_payload(9, 6, 3))
        )
        gram = build_instance_gram(instance)
        for subspace in build_instance_family(instance).subspaces:
            mapped = subspace_from_columns(gram.symmetry @ subspace.basis)
            assert spans_equal(mapped, subspace)

    def test_small_dimension(self):
        instance = parse_instance_text(
            dumps_canonical(make_instance_payload(2, 2, 1))
        )
        assert instance.dimension == 2
        family = build_instance_family(instance)
        assert frame_bounds(family).is_frame

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_instance_payload(0, 1, 1)
        with pytest.raises(ValueError):
            make_instance_payload(0, 4, 0)
