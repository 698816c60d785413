import dataclasses
import math

import numpy as np
import pytest

from kfr.krein import (
    FACTORS,
    NEAR_SINGULAR,
    REGULAR,
    KernelError,
    build_gram,
    norm_equivalence_constants,
    norm_equivalence_holds,
    verify_polar_identities,
)
from kfr.linalg import frobenius, symmetrize
from kfr.transfer import diagonal_gram_family


def random_invertible_symmetric(seed, d):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d))
    M = (A + A.T) / 2.0
    # push eigenvalues away from zero while keeping both signs
    vals, vecs = np.linalg.eigh(M)
    vals = np.where(vals >= 0, vals + 0.5, vals - 0.5)
    return vecs @ np.diag(vals) @ vecs.T


class TestBuildGram:
    def test_identity(self):
        g = build_gram(np.eye(3))
        assert np.allclose(g.symmetry, np.eye(3), atol=1e-12)
        assert np.allclose(g.abs_matrix, np.eye(3), atol=1e-12)
        assert g.classification == REGULAR

    def test_diagonal_polar_factors(self):
        g = build_gram(np.diag([2.0, -3.0]))
        assert np.allclose(g.symmetry, np.diag([1.0, -1.0]), atol=1e-12)
        assert np.allclose(g.abs_matrix, np.diag([2.0, 3.0]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_polar_identities(self, seed):
        W = random_invertible_symmetric(seed, 6)
        g = build_gram(W)
        J, absW = g.symmetry, g.abs_matrix
        d = g.dim
        assert frobenius(J @ J - np.eye(d)) <= 1e-10
        assert frobenius(J - J.T) <= 1e-10
        assert frobenius(J @ absW - g.matrix) <= 1e-10
        assert frobenius(absW @ J - g.matrix) <= 1e-10
        assert frobenius(J @ g.matrix - g.matrix @ J) <= 1e-10
        assert frobenius(g.sqrt_abs @ g.sqrt_abs - absW) <= 1e-9

    def test_sqrt_factors_are_mutual_inverses(self):
        g = build_gram(random_invertible_symmetric(3, 5))
        assert frobenius(g.sqrt_abs @ g.inv_sqrt_abs - np.eye(5)) <= 1e-9

    def test_kernel_violation(self):
        with pytest.raises(KernelError):
            build_gram(np.diag([1.0, 0.0]))
        with pytest.raises(KernelError):
            build_gram(np.diag([1.0, 1e-16]))

    def test_classification_threshold(self):
        assert build_gram(np.eye(2)).classification == REGULAR
        g = build_gram(np.diag([1.0, 1e-8]))
        assert g.classification == NEAR_SINGULAR
        assert g.regularity.epsilon == pytest.approx(1e-8)
        assert build_gram(np.diag([1.0, 1e-3])).classification == REGULAR

    def test_regularity_report(self):
        g = build_gram(np.diag([2.0, -3.0]))
        assert g.regularity.min_abs_eigenvalue == pytest.approx(2.0)
        assert g.regularity.max_abs_eigenvalue == pytest.approx(3.0)
        assert g.regularity.condition_number == pytest.approx(1.5)

    def test_matrix_is_read_only(self):
        g = build_gram(np.eye(2))
        with pytest.raises(ValueError):
            g.matrix[0, 0] = 5.0


def w_form(g, x, y):
    """Indefinite product ``[x, y] = <Wx, y>`` of the built operator."""
    return float(y @ (g.matrix @ x))


def j_form(g, x, y):
    """Companion product ``[x, y]_J = <|W|x, y>`` of the built operator."""
    return float(y @ (g.abs_matrix @ x))


class TestInnerProducts:
    """The two forms that ``W`` and the built ``|W|`` induce."""

    def test_negative_direction(self):
        g = build_gram(np.diag([1.0, -1.0]))
        e2 = np.array([0.0, 1.0])
        assert w_form(g, e2, e2) == pytest.approx(-1.0)
        assert j_form(g, e2, e2) == pytest.approx(1.0)

    def test_direct_evaluation(self):
        g = build_gram(np.diag([2.0, -3.0]))
        ones = np.ones(2)
        assert w_form(g, ones, ones) == pytest.approx(-1.0)
        assert j_form(g, ones, ones) == pytest.approx(5.0)

    def test_orthogonal_coordinates(self):
        g = build_gram(np.diag([2.0, -3.0]))
        assert j_form(g, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_symmetry_of_form(self):
        g = build_gram(random_invertible_symmetric(7, 5))
        rng = np.random.default_rng(70)
        x, y = rng.standard_normal(5), rng.standard_normal(5)
        assert w_form(g, x, y) == pytest.approx(w_form(g, y, x), rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_fundamental_symmetry_links_the_forms(self, seed):
        # [Jx, y] agrees with [x, y]_J
        g = build_gram(random_invertible_symmetric(seed, 6))
        rng = np.random.default_rng(100 + seed)
        for _ in range(20):
            x, y = rng.standard_normal(6), rng.standard_normal(6)
            assert w_form(g, g.symmetry @ x, y) == pytest.approx(
                j_form(g, x, y), abs=1e-9
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_sqrt_abs_is_an_isometry_into_the_plain_norm(self, seed):
        g = build_gram(random_invertible_symmetric(seed, 6))
        rng = np.random.default_rng(200 + seed)
        for _ in range(20):
            x = rng.standard_normal(6)
            assert np.linalg.norm(g.sqrt_abs @ x) ** 2 == pytest.approx(
                j_form(g, x, x), abs=1e-9
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_inv_sqrt_abs_is_an_isometry_into_the_j_product(self, seed):
        g = build_gram(random_invertible_symmetric(seed, 6))
        rng = np.random.default_rng(300 + seed)
        for _ in range(20):
            x, y = rng.standard_normal(6), rng.standard_normal(6)
            assert j_form(
                g, g.inv_sqrt_abs @ x, g.inv_sqrt_abs @ y
            ) == pytest.approx(float(x @ y), abs=1e-9)


class TestNormEquivalence:
    def test_identity(self):
        assert norm_equivalence_constants(build_gram(np.eye(3))) == (1.0, 1.0)

    def test_diagonal(self):
        lower, upper = norm_equivalence_constants(build_gram(np.diag([2.0, -3.0])))
        assert lower == pytest.approx(2.0)
        assert upper == pytest.approx(3.0)

    def test_sampled_inequality(self):
        g = build_gram(random_invertible_symmetric(11, 6))
        lower, upper = norm_equivalence_constants(g)
        rng = np.random.default_rng(111)
        for _ in range(500):
            x = rng.standard_normal(6)
            x /= np.linalg.norm(x)
            jn = j_form(g, x, x)
            assert lower - 1e-9 <= jn <= upper + 1e-9


def loop_polar_factors(eig):
    """Reference polar factors: each scalar map applied by a per-eigenvalue
    ``math`` loop, then assembled as ``V diag(f(lambda)) V^T``."""
    maps = {
        "symmetry": lambda x: math.copysign(1.0, x),
        "abs_matrix": abs,
        "sqrt_abs": lambda x: math.sqrt(abs(x)),
        "inv_sqrt_abs": lambda x: 1.0 / math.sqrt(abs(x)),
    }
    V = eig.eigenvectors
    return {
        name: symmetrize((V * np.array([f(float(x)) for x in eig.eigenvalues])) @ V.T)
        for name, f in maps.items()
    }


@pytest.mark.parametrize("case", ["dense", "tied diagonal", "sweep member"])
def test_polar_factors_match_the_per_eigenvalue_loop_bit_for_bit(case):
    # numpy's copysign, abs, sqrt and division round exactly like math's
    if case == "dense":
        g = build_gram(random_invertible_symmetric(7, 40))
    elif case == "tied diagonal":
        g = build_gram(np.diag([2.0, -1.5, 2.0, 0.75, -1.5, 2.0, 0.75, -1.5]))
    else:
        g = diagonal_gram_family(6)(1e-6)
    for name, reference in loop_polar_factors(g.eig).items():
        assert np.array_equal(getattr(g, name), reference), name


class TestVerdicts:
    def test_polar_identities_hold_on_built_factors(self):
        report = verify_polar_identities(build_gram(random_invertible_symmetric(4, 6)))
        assert report.holds
        assert max(vars(report).values()) <= 1e-12

    def test_a_wrong_symmetry_breaks_the_polar_product(self):
        g = build_gram(np.diag([2.0, -3.0]))
        planted = dataclasses.replace(g, symmetry=np.eye(2))
        report = verify_polar_identities(planted)
        assert not report.holds
        assert report.polar_product == pytest.approx(6.0)
        assert report.symmetry_squared == report.commutation == 0.0

    def test_norm_equivalence_on_eigenvectors_and_random_vectors(self):
        g = build_gram(random_invertible_symmetric(5, 6))
        samples = np.random.default_rng(0).standard_normal((50, 6))
        # unnormalized rows are scaled to unit length first
        assert norm_equivalence_holds(g, 3.0 * samples)
        assert norm_equivalence_holds(g, g.eig.eigenvectors.T)

    def test_a_wrong_companion_form_breaks_norm_equivalence(self):
        g = build_gram(np.diag([2.0, -3.0]))
        planted = dataclasses.replace(g, abs_matrix=np.diag([2.0, 4.0]))
        assert not norm_equivalence_holds(planted, np.eye(2))
        assert norm_equivalence_holds(g, np.eye(2))


def random_diagonal_gram(seed, d):
    """``build_gram`` of a diagonal W with seeded signs and magnitudes."""
    rng = np.random.default_rng(seed)
    signs = rng.permutation(np.repeat([1.0, -1.0], [d - d // 2, d // 2]))
    return build_gram(np.diag(signs * rng.uniform(0.5, 3.0, size=d)))


class TestStructuredProducts:
    """``GramOperator.times`` scales rows or columns on a diagonal operator."""

    def test_diagonal_is_read_from_the_stored_matrices(self):
        g = build_gram(np.diag([2.0, -3.0]))
        assert g.diagonal
        assert not build_gram(random_invertible_symmetric(1, 3)).diagonal
        # symmetric_eig treats this W as diagonal; its products stay dense
        assert not build_gram(np.array([[2.0, 1e-20], [1e-20, -3.0]])).diagonal
        assert dataclasses.replace(g, symmetry=np.eye(2)).diagonal
        rotated = dataclasses.replace(g, symmetry=np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert not rotated.diagonal
        assert np.array_equal(rotated.times("symmetry", np.eye(2)), rotated.symmetry)

    def test_a_diagonal_gram_assembles_no_factor(self, count_eigs):
        calls = count_eigs()
        random_diagonal_gram(0, 8)
        assert calls.assembles == 0
        build_gram(random_invertible_symmetric(0, 8))
        assert calls.assembles == 4

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("factor", FACTORS)
    def test_scalings_equal_the_dense_products(self, seed, factor):
        g = random_diagonal_gram(seed, 9)
        F = getattr(g, factor)
        rng = np.random.default_rng(100 + seed)
        # a dense block, and coordinate columns, whose products are mostly zeros
        for B in (rng.standard_normal((9, 4)), np.eye(9)[:, [0, 3, 4, 8]]):
            assert np.array_equal(g.times(factor, B), F @ B)
            assert np.array_equal(g.times(factor, B.T, right=True), B.T @ F)
            assert np.array_equal(
                g.times(factor, B.T, right=True) @ B, B.T @ F @ B
            )
        samples = rng.standard_normal((6, 9))
        assert np.array_equal(g.times(factor, samples, right=True), samples @ F)
