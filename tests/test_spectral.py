import numpy as np
import pytest

from kfr.fusion import FrameGeometry, WeightedSubspaceFamily, frame_bounds
from kfr.generators import make_instance_payload, random_orthogonal, random_spectrum_gram
from kfr.io import build_instance_gram, dumps_canonical, parse_instance_text
from kfr.krein import build_gram
from kfr.linalg import frobenius
from kfr.spectral import (
    AtomicMeasure,
    SpectralReport,
    krein_decomposition,
    ortho_basis_of_subspaces,
    spectral_representation,
)
from kfr.subspaces import J_ORTHOGONAL, Subspace, orthogonal_projection, spans_equal, subspace_from_columns


def planted_gram(seed, values):
    rng = np.random.default_rng(seed)
    return random_spectrum_gram(rng, values)


def gen_gram(seed, dim):
    """The Gram operator of ``kfr gen --seed seed --dim dim --subspaces 3``."""
    text = dumps_canonical(make_instance_payload(seed, dim, 3))
    return build_instance_gram(parse_instance_text(text))


class TestAtomicMeasure:
    def test_rejects_duplicate_locations(self):
        with pytest.raises(ValueError):
            AtomicMeasure(((1.0, 1.0), (1.0, 2.0)))

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            AtomicMeasure(((1.0, 0.0),))

    def test_total_mass(self):
        m = AtomicMeasure(((1.0, 2.0), (-1.0, 1.5)))
        assert m.total_mass == pytest.approx(3.5)


class TestSpectralRepresentation:
    def test_diagonal_with_repetition(self):
        g = build_gram(np.diag([2.0, 2.0, -1.0]))
        rep = spectral_representation(g)
        assert [
            (c.value, c.multiplicity) for c in rep.clusters
        ] == [(-1.0, 1), (2.0, 2)]
        assert rep.max_multiplicity == 2
        assert len(rep.blocks) == 2

        first, second = rep.blocks
        expected_first = subspace_from_columns(
            np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        )
        assert spans_equal(Subspace(first.basis.copy()), expected_first)
        assert sorted(first.measure.locations) == [-1.0, 2.0]
        assert first.measure.masses == (1.0, 1.0)

        expected_second = subspace_from_columns(np.array([[0.0], [1.0], [0.0]]))
        assert spans_equal(Subspace(second.basis.copy()), expected_second)
        assert second.measure.atoms == ((2.0, 1.0),)

    def test_simple_spectrum(self):
        g = build_gram(np.diag([1.0, 2.0, -3.0, 4.0]))
        rep = spectral_representation(g)
        assert rep.max_multiplicity == 1
        assert len(rep.blocks) == 1
        assert rep.blocks[0].dim == 4
        assert len(rep.blocks[0].measure.atoms) == 4

    def test_identity_gram(self):
        g = build_gram(np.eye(3))
        rep = spectral_representation(g)
        assert rep.max_multiplicity == 3
        assert [b.dim for b in rep.blocks] == [1, 1, 1]

    @pytest.mark.parametrize("seed", range(8))
    def test_planted_multiplicities(self, seed):
        g = planted_gram(seed, [2.0, 2.0, -1.0, -1.0, 3.0, 0.5])
        rep = spectral_representation(g)
        assert sorted(c.multiplicity for c in rep.clusters) == [1, 1, 2, 2]
        assert sum(c.multiplicity for c in rep.clusters) == 6
        assert sum(b.dim for b in rep.blocks) == 6
        # multiplication form: the operator is diagonal in block coordinates
        for block in rep.blocks:
            compressed = block.basis.T @ g.matrix @ block.basis
            assert (
                frobenius(compressed - block.multiplication_matrix()) <= 1e-9
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_blocks_are_invariant_and_orthogonal(self, seed):
        g = planted_gram(100 + seed, [2.0, 2.0, 2.0, -1.0, -1.0, 4.0])
        rep = spectral_representation(g)
        stacked = np.column_stack([b.basis for b in rep.blocks])
        assert frobenius(stacked.T @ stacked - np.eye(6)) <= 1e-9
        for block in rep.blocks:
            P = orthogonal_projection(Subspace(block.basis.copy()), np.eye(6))
            resid = (np.eye(6) - P) @ g.matrix @ P
            assert frobenius(resid) <= 1e-9

    def test_cluster_warning_on_ambiguous_gap(self):
        # one gap sits within a factor of ten of the clustering threshold
        diameter = 1.0
        tol = 1e-4
        values = np.array([0.0, 2.0 * tol * diameter, 1.0])
        g = build_gram(np.diag(values + 0.5))
        rep = spectral_representation(g, cluster_tol=tol)
        assert rep.warnings

    def test_deterministic(self):
        g = planted_gram(3, [1.0, 1.0, -2.0])
        a = spectral_representation(g)
        b = spectral_representation(g)
        assert all(
            np.array_equal(x.basis, y.basis) for x, y in zip(a.blocks, b.blocks)
        )


class TestOrthoBasisOfSubspaces:
    def test_diagonal_example(self):
        g = build_gram(np.diag([2.0, 2.0, -1.0]))
        family = ortho_basis_of_subspaces(spectral_representation(g))
        assert len(family) == 2
        bounds = frame_bounds(family)
        assert bounds.is_parseval

    def test_identity(self):
        g = build_gram(np.eye(4))
        family = ortho_basis_of_subspaces(spectral_representation(g))
        assert len(family) == 4
        assert frame_bounds(family).is_parseval

    @pytest.mark.parametrize("seed", range(5))
    def test_projections_sum_to_identity(self, seed):
        g = planted_gram(200 + seed, [1.5, 1.5, -0.5, 2.5, 2.5, 2.5])
        family = ortho_basis_of_subspaces(spectral_representation(g))
        total = sum(
            orthogonal_projection(s, np.eye(6)) for s in family.subspaces
        )
        assert frobenius(total - np.eye(6)) <= 1e-9
        assert frame_bounds(family).is_parseval


class TestKreinDecomposition:
    def test_diagonal_example(self):
        g = build_gram(np.diag([2.0, 2.0, -1.0]))
        rep = spectral_representation(g)
        deco = krein_decomposition(g, rep)
        first, second = deco.blocks
        assert spans_equal(
            Subspace(first.basis.copy()),
            subspace_from_columns(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])),
        )
        atoms = dict(first.weighted_measure.atoms)
        assert atoms[2.0] == pytest.approx(2.0)
        assert atoms[-1.0] == pytest.approx(1.0)
        scaling = dict(zip(first.eigenvalues, first.scaling))
        assert scaling[2.0] == pytest.approx(1.0 / np.sqrt(2.0))
        assert scaling[-1.0] == pytest.approx(1.0)
        assert second.weighted_measure.atoms == ((2.0, 2.0),)

    def test_identity_matches_plain_decomposition(self):
        g = build_gram(np.eye(3))
        rep = spectral_representation(g)
        deco = krein_decomposition(g, rep)
        for block, spectral_block in zip(deco.blocks, rep.blocks):
            assert spans_equal(
                Subspace(block.basis.copy()),
                Subspace(spectral_block.basis.copy()),
            )
            assert all(m == 1.0 for m in block.weighted_measure.masses)

    @pytest.mark.parametrize("seed", range(8))
    def test_parseval_under_indefinite_form(self, seed):
        g = planted_gram(300 + seed, [2.0, 2.0, -1.0, -1.0, 3.0, 0.5])
        deco = krein_decomposition(g, spectral_representation(g))
        bounds = FrameGeometry(deco.family(), g).bounds(J_ORTHOGONAL)
        assert bounds.lower == pytest.approx(1.0, abs=1e-8)
        assert bounds.upper == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_blocks_pairwise_companion_orthogonal(self, seed):
        g = planted_gram(400 + seed, [1.0, 1.0, 1.0, -2.0, -2.0, 4.0])
        deco = krein_decomposition(g, spectral_representation(g))
        for i, a in enumerate(deco.blocks):
            for b in deco.blocks[i + 1 :]:
                for u in a.basis.T:
                    for v in b.basis.T:
                        assert abs(v @ (g.abs_matrix @ u)) <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_spans_survive_transport(self, seed):
        g = planted_gram(500 + seed, [2.0, 2.0, -1.0, 3.0, 3.0, 3.0])
        rep = spectral_representation(g)
        deco = krein_decomposition(g, rep)
        for block, spectral_block in zip(deco.blocks, rep.blocks):
            assert spans_equal(
                Subspace(block.basis.copy()),
                Subspace(spectral_block.basis.copy()),
                tol=1e-8,
            )

    def test_scaling_is_a_coordinate_isometry(self):
        # dividing block coordinates by sqrt|value| makes the companion
        # norm of the assembled vector Euclidean in the coordinates
        g = planted_gram(7, [2.0, 2.0, -1.0, 0.5])
        rep = spectral_representation(g)
        deco = krein_decomposition(g, rep)
        rng = np.random.default_rng(77)
        for spectral_block in rep.blocks:
            scaling = np.array(
                [1.0 / np.sqrt(abs(v)) for v in spectral_block.eigenvalues]
            )
            for _ in range(10):
                coords = rng.standard_normal(spectral_block.dim)
                lifted = spectral_block.basis @ (scaling * coords)
                assert lifted @ (g.abs_matrix @ lifted) == pytest.approx(
                    float(coords @ coords), abs=1e-9
                )

    def test_multiplication_kernel_is_trivial(self):
        g = planted_gram(9, [2.0, 2.0, -1.0, 0.5])
        rep = spectral_representation(g)
        for block in rep.blocks:
            values = np.abs(np.diag(block.multiplication_matrix()))
            assert values.min() > 0.0

    def test_parseval_uniform_along_near_singular_family(self):
        # eigen-aligned blocks keep bounds (1, 1) for every epsilon
        for eps in (1e-1, 1e-3, 1e-6):
            g = build_gram(np.diag([1.0, 1.0, eps]))
            deco = krein_decomposition(g, spectral_representation(g))
            bounds = FrameGeometry(deco.family(), g).bounds(J_ORTHOGONAL)
            assert bounds.lower == pytest.approx(1.0, abs=1e-8)
            assert bounds.upper == pytest.approx(1.0, abs=1e-8)


class TestSpectralReport:
    def test_every_check_holds_on_exact_clusters(self):
        report = SpectralReport(planted_gram(3, [2.0, 2.0, -1.0, 3.0, 3.0, 3.0]))
        assert report.projections_sum_to_identity
        assert report.multiplication_form_holds
        assert report.krein_parseval
        assert report.plain_bounds.is_parseval

    def test_a_merged_cluster_breaks_only_the_multiplication_form(self):
        # a gap below clusterTol * diameter joins 1 and 1.5 into one cluster
        # at 1.25, which W does not act on as a multiple of the identity
        report = SpectralReport(build_gram(np.diag([1.0, 1.5, -1.0])), cluster_tol=0.5)
        assert report.multiplication_form_residual == pytest.approx(0.25)
        assert not report.multiplication_form_holds
        assert report.projections_sum_to_identity
        assert report.krein_parseval

    def test_pieces_are_computed_on_first_read(self):
        report = SpectralReport(planted_gram(4, [2.0, -1.0, 0.5]))
        assert report.projections_sum_to_identity
        assert set(vars(report)) == {
            "gram", "cluster_tol", "representation", "family",
            "projection_sum_residual",
        }

    @pytest.mark.parametrize("dim", [24, 48])
    def test_resolution_and_krein_parseval_factor_nothing(self, dim, count_eigs):
        # the level blocks are eigenvector blocks of W, so each compressed
        # form and the whitened reduction take the already-diagonal path
        report = SpectralReport(gen_gram(1, dim))
        sizes = count_eigs()
        assert report.projections_sum_to_identity
        assert report.krein_parseval
        assert [sizes.tally[kind] for kind in ("eigh", "eigvalsh", "svd")] == [0, 0, 0]
        krein, levels = report.decomposition.blocks, report.representation.blocks
        assert len(krein) == len(levels)
        for krein_block, level_block in zip(krein, levels):
            assert krein_block.basis is level_block.basis


class TestLevelBasisInvariance:
    """The level family's bounds are properties of its spans: a basis
    rotated inside each block gives the same bounds, so the companion
    blocks may keep the level blocks' own bases."""

    @staticmethod
    def bounds(family, gram):
        plain = frame_bounds(family)
        krein = FrameGeometry(family, gram).bounds(J_ORTHOGONAL)
        return plain, krein

    @pytest.mark.parametrize(
        "gram",
        [
            *(planted_gram(600 + seed, [2.0, 2.0, 2.0, -1.0, -1.0, 4.0, 0.5, 0.5])
              for seed in range(4)),
            *(gen_gram(seed, 24) for seed in (1, 2, 3)),
        ],
    )
    def test_rotating_each_level_basis_keeps_the_bounds(self, gram):
        family = ortho_basis_of_subspaces(spectral_representation(gram))
        rng = np.random.default_rng(7)
        rotated = WeightedSubspaceFamily(
            family.weights,
            tuple(
                Subspace(s.basis @ random_orthogonal(rng, s.dim))
                for s in family.subspaces
            ),
        )
        for before, after in zip(self.bounds(family, gram), self.bounds(rotated, gram)):
            assert after.lower == pytest.approx(before.lower, rel=1e-12)
            assert after.upper == pytest.approx(before.upper, rel=1e-12)
