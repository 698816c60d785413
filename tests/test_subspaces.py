import math

import numpy as np
import pytest

from kfr.fusion import CROSS_CHECK_TOL
from kfr.generators import random_gram, random_invariant_family, random_invariant_subspace
from kfr.krein import build_gram, w_inner
from kfr.linalg import frobenius, symmetric_eig, symmetrize
from kfr.subspaces import (
    ComposedProjectionError,
    DegenerateSubspaceError,
    Subspace,
    check_j_orthonormal,
    composed_projection_from_check,
    is_projectively_complete,
    j_orthogonal_complement,
    j_orthogonal_projection_composed,
    j_orthogonal_projection_gram,
    j_orthonormal_basis,
    j_projection_from_check,
    orthogonal_projection,
    spans_equal,
    subspace_from_columns,
)


def line(*entries):
    v = np.array(entries, dtype=float)
    return Subspace((v / np.linalg.norm(v))[:, None])


class TestSubspaceType:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_from_columns_compresses(self):
        s = subspace_from_columns(np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert s.dim == 1

    def test_spans_equal(self):
        a = subspace_from_columns(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        b = subspace_from_columns(np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]]))
        c = subspace_from_columns(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        assert spans_equal(a, b)
        assert not spans_equal(a, c)


class TestOrthogonalProjection:
    def test_coordinate_projection(self):
        p = orthogonal_projection(line(1.0, 0.0), np.eye(2))
        assert np.allclose(p, np.diag([1.0, 0.0]), atol=1e-12)

    def test_full_space(self):
        p = orthogonal_projection(Subspace(np.eye(2)), np.diag([2.0, 3.0]))
        assert np.allclose(p, np.eye(2), atol=1e-12)

    def test_weighted_metric_formula(self):
        # oracle: evaluate B (B^T G B)^{-1} B^T G by hand
        p = orthogonal_projection(line(1.0, 1.0), np.diag([2.0, 3.0]))
        expected = np.array([[2.0, 3.0], [2.0, 3.0]]) / 5.0
        assert np.allclose(p, expected, atol=1e-12)
        G = np.diag([2.0, 3.0])
        assert frobenius(p @ p - p) <= 1e-9
        assert frobenius(G @ p - p.T @ G) <= 1e-9

    def test_fixes_the_subspace(self):
        rng = np.random.default_rng(4)
        s = subspace_from_columns(rng.standard_normal((6, 2)))
        G = np.diag(rng.uniform(0.5, 3.0, 6))
        p = orthogonal_projection(s, G)
        assert frobenius(p @ s.basis - s.basis) <= 1e-10


PROJECTION_CONSTRUCTORS = {
    "orthogonal": lambda s, g: orthogonal_projection(s, g.abs_matrix),
    "j from check": lambda s, g: j_projection_from_check(
        s, g, is_projectively_complete(s, g)
    ),
    "j gram": j_orthogonal_projection_gram,
    "composed from check": lambda s, g: composed_projection_from_check(
        s, g, is_projectively_complete(s, g)
    ),
    "composed": j_orthogonal_projection_composed,
}


@pytest.mark.parametrize("rank", [0, 1])
@pytest.mark.parametrize("constructor", sorted(PROJECTION_CONSTRUCTORS))
def test_projections_are_read_only_arrays(constructor, rank):
    g = build_gram(np.diag([2.0, -3.0]))
    s = Subspace(np.eye(2)[:, :rank])
    P = PROJECTION_CONSTRUCTORS[constructor](s, g)
    assert type(P) is np.ndarray and P.shape == (2, 2)
    assert P.flags.writeable is False


class TestJOrthogonalProjectionGram:
    def test_aligned_coordinate_subspace(self):
        g = build_gram(np.diag([2.0, -3.0]))
        q = j_orthogonal_projection_gram(line(1.0, 0.0), g)
        assert np.allclose(q, np.diag([1.0, 0.0]), atol=1e-12)

    def test_neutral_line_is_degenerate(self):
        g = build_gram(np.diag([1.0, -1.0]))
        with pytest.raises(DegenerateSubspaceError) as info:
            j_orthogonal_projection_gram(line(1.0, 1.0), g)
        witness = info.value.witness
        assert witness is not None
        assert abs(w_inner(g, witness, witness)) <= 1e-12

    def test_oblique_closed_form(self):
        # V = span{(1,1)}, W = diag(2,-3): the formula gives rows (-2, 3)
        g = build_gram(np.diag([2.0, -3.0]))
        q = j_orthogonal_projection_gram(line(1.0, 1.0), g)
        expected = np.array([[-2.0, 3.0], [-2.0, 3.0]])
        assert np.allclose(q, expected, atol=1e-9)
        v = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert np.allclose(q @ v, v, atol=1e-9)
        W = g.matrix
        assert frobenius(W @ q - q.T @ W) <= 1e-9
        assert frobenius(q @ q - q) <= 1e-9


class TestComposedProjection:
    def test_hilbert_degeneration(self):
        g = build_gram(np.eye(2))
        s = line(3.0, 4.0)
        composed = j_orthogonal_projection_composed(s, g)
        plain = orthogonal_projection(s, np.eye(2))
        assert np.allclose(composed, plain, atol=1e-12)

    def test_eigen_aligned(self):
        g = build_gram(np.diag([2.0, -3.0]))
        q = j_orthogonal_projection_composed(line(0.0, 1.0), g)
        assert np.allclose(q, np.diag([0.0, 1.0]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_gram_formula_on_invariant_subspaces(self, seed):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 6)
        s = random_invariant_subspace(g, rng, 2)
        direct = j_orthogonal_projection_gram(s, g)
        composed = j_orthogonal_projection_composed(s, g)
        assert frobenius(direct - composed) <= 1e-8

    def test_takes_the_j_image_without_an_svd(self, count_eigs):
        # J is orthogonal, so J B is an orthonormal basis of the J-image
        rng = np.random.default_rng(31)
        g = random_gram(rng, 12)
        s = random_invariant_family(g, rng, 3, 4).subspaces[1]
        check = is_projectively_complete(s, g)
        sizes = count_eigs()
        composed = composed_projection_from_check(s, g, check)
        assert sizes.tally["svd"] == 0
        direct = j_projection_from_check(s, g, check)
        scale = max(1.0, frobenius(direct))
        assert frobenius(composed - direct) <= CROSS_CHECK_TOL * scale

    def test_flags_non_invariant_subspace(self):
        rng = np.random.default_rng(12)
        g = random_gram(rng, 6)
        s = subspace_from_columns(rng.standard_normal((6, 2)))
        with pytest.raises(ComposedProjectionError) as info:
            j_orthogonal_projection_composed(s, g)
        assert info.value.residuals["idempotency"] > 1e-9


class TestComplement:
    def test_diagonal_case(self):
        g = build_gram(np.diag([2.0, -3.0]))
        comp = j_orthogonal_complement(line(1.0, 0.0), g)
        assert spans_equal(comp, line(0.0, 1.0))

    def test_whole_space(self):
        g = build_gram(np.diag([2.0, -3.0]))
        comp = j_orthogonal_complement(Subspace(np.eye(2)), g)
        assert comp.dim == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_rank_and_orthogonality(self, seed):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 6)
        s = subspace_from_columns(rng.standard_normal((6, 2)))
        comp = j_orthogonal_complement(s, g)
        assert s.dim + comp.dim == 6
        for i in range(comp.dim):
            for j in range(s.dim):
                assert abs(w_inner(g, comp.basis[:, i], s.basis[:, j])) <= 1e-9

    def test_maps_the_companion_complement_without_a_second_svd(self, count_eigs):
        rng = np.random.default_rng(32)
        g = random_gram(rng, 8)
        s = subspace_from_columns(rng.standard_normal((8, 3)))
        sizes = count_eigs()
        comp = j_orthogonal_complement(s, g)
        assert sizes.tally["svd"] == 1
        assert comp.dim == 5

    @pytest.mark.parametrize("seed", range(5))
    def test_complement_duality(self, seed):
        # complement of the mapped subspace equals the mapped complement
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 6)
        s = subspace_from_columns(rng.standard_normal((6, 2)))
        mapped = subspace_from_columns(g.symmetry @ s.basis)
        left = j_orthogonal_complement(mapped, g)
        right = subspace_from_columns(
            g.symmetry @ j_orthogonal_complement(s, g).basis
        )
        assert spans_equal(left, right)


class TestProjectionConjugation:
    @pytest.mark.parametrize("seed", range(5))
    def test_metric_unitary_conjugation(self, seed):
        # |W|^{-1/2} is unitary from the plain to the companion metric:
        # conjugating a plain projection gives the companion projection of
        # the image subspace.
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 6)
        s = subspace_from_columns(rng.standard_normal((6, 2)))
        plain = orthogonal_projection(s, np.eye(6))
        conjugated = g.inv_sqrt_abs @ plain @ g.sqrt_abs
        image = subspace_from_columns(g.inv_sqrt_abs @ s.basis)
        direct = orthogonal_projection(image, g.abs_matrix)
        assert frobenius(conjugated - direct) <= 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetry_conjugation(self, seed):
        # P over the mapped subspace equals J P J in the companion metric
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 6)
        s = subspace_from_columns(rng.standard_normal((6, 2)))
        J = g.symmetry
        p_v = orthogonal_projection(s, g.abs_matrix)
        p_mapped = orthogonal_projection(
            subspace_from_columns(J @ s.basis), g.abs_matrix
        )
        assert frobenius(p_mapped - J @ p_v @ J) <= 1e-9


class TestProjectiveCompleteness:
    def test_neutral_witness(self):
        g = build_gram(np.diag([1.0, -1.0]))
        check = is_projectively_complete(line(1.0, 1.0), g)
        assert not check
        assert abs(w_inner(g, check.witness, check.witness)) <= 1e-12

    def test_coordinate_subspace_is_complete(self):
        g = build_gram(np.diag([2.0, -3.0]))
        assert is_projectively_complete(line(1.0, 0.0), g)

    @pytest.mark.parametrize("seed", range(5))
    def test_nondegenerate_instances(self, seed):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 6)
        s = random_invariant_subspace(g, rng, 3)
        assert is_projectively_complete(s, g)
        j_orthogonal_projection_gram(s, g)
        j_orthogonal_projection_composed(s, g)


class TestJOrthonormal:
    def test_standard_basis_unit_signature(self):
        g = build_gram(np.diag([1.0, -1.0]))
        assert check_j_orthonormal(np.eye(2).T, g)

    def test_standard_basis_scaled(self):
        g = build_gram(np.diag([2.0, -3.0]))
        assert not check_j_orthonormal(np.eye(2).T, g)

    def test_inv_sqrt_columns_reproduce_symmetry_entries(self):
        # products of the inverse-root columns recover the entries of J
        rng = np.random.default_rng(9)
        g = random_gram(rng, 5)
        cols = g.inv_sqrt_abs
        for i in range(5):
            for j in range(5):
                value = w_inner(g, cols[:, i], cols[:, j])
                assert value == pytest.approx(g.symmetry[i, j], abs=1e-9)

    def test_inv_sqrt_columns_for_diagonal_gram(self):
        g = build_gram(np.diag([4.0, -9.0, 0.25]))
        assert check_j_orthonormal(g.inv_sqrt_abs.T, g)

    @pytest.mark.parametrize("seed", range(5))
    def test_sign_orthonormal_basis_construction(self, seed):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, 6)
        s = random_invariant_subspace(g, rng, 3)
        basis = j_orthonormal_basis(s, g)
        assert check_j_orthonormal(basis.T, g)
        assert spans_equal(subspace_from_columns(basis), s)

    def test_sign_orthonormal_basis_reuses_the_check(self, count_eigs):
        # the basis scales the eigenvectors of the check's own eigensolve
        rng = np.random.default_rng(21)
        g = random_gram(rng, 12)
        s = random_invariant_subspace(g, rng, 4)
        eig = symmetric_eig(symmetrize(s.basis.T @ g.matrix @ s.basis))
        scaling = 1.0 / np.sqrt(np.abs(eig.eigenvalues))
        reference = s.basis @ (eig.eigenvectors * scaling)
        sizes = count_eigs()
        basis = j_orthonormal_basis(s, g)
        assert sizes == [4]
        assert np.array_equal(basis, reference)

    def test_sign_orthonormal_basis_needs_nondegeneracy(self):
        g = build_gram(np.diag([1.0, -1.0]))
        with pytest.raises(DegenerateSubspaceError):
            j_orthonormal_basis(line(1.0, 1.0), g)

