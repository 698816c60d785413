import math

import numpy as np
import pytest

from kfr.cli import main
from kfr.generators import make_instance_payload
from kfr.io import dumps_canonical
from kfr.linalg import (
    ALREADY_DIAGONAL_TOL,
    ConvergenceError,
    EigenvalueDomainError,
    MetricError,
    apply_spectral_function,
    extremal_rayleigh,
    frobenius,
    matrix_function,
    orthonormalize,
    symmetric_eig,
    symmetrize,
)


def random_symmetric(seed, d, scale=1.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d)) * scale
    return (A + A.T) / 2.0


def reconstruction_residual(M, eig):
    return frobenius(eig.reconstruct() - M)


class TestSymmetricEig:
    def test_identity(self):
        eig = symmetric_eig(np.eye(3))
        assert np.allclose(eig.eigenvalues, [1.0, 1.0, 1.0])
        assert frobenius(eig.eigenvectors.T @ eig.eigenvectors - np.eye(3)) <= 1e-10

    def test_diagonal(self, monkeypatch):
        # Diagonal input never reaches LAPACK: it keeps its exact values and
        # coordinate vectors, in stable order inside ties.
        monkeypatch.setattr(np.linalg, "eigh", None)
        eig = symmetric_eig(np.diag([2.0, -3.0]))
        assert eig.eigenvalues[0] == -3.0
        assert eig.eigenvalues[1] == 2.0
        eig = symmetric_eig(np.diag([2.0, 2.0, -1.0]))
        assert np.array_equal(eig.eigenvalues, [-1.0, 2.0, 2.0])
        assert np.array_equal(eig.eigenvectors, np.eye(3)[:, [2, 0, 1]])

    def test_nearly_diagonal_goes_to_lapack(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def spy(matrix):
            calls.append(matrix)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        M = np.diag([3.0, 1.0, 1.0, -2.0])
        # off-diagonal Frobenius norm 1% above the already-diagonal threshold
        M[1, 2] = M[2, 1] = 1.01 * ALREADY_DIAGONAL_TOL * frobenius(M) / math.sqrt(2.0)
        eig = symmetric_eig(M)
        assert len(calls) == 1
        assert reconstruction_residual(M, eig) <= 1e-10

    def test_tiny_planted_eigenvalue(self):
        # A backward-stable solver on the rounded product Q diag(lam) Q^T
        # perturbs each eigenvalue by at most about d * eps * ||M||_2 (Weyl),
        # so that is the bound on the error of the planted 1e-12. Measured
        # over 20 seeds at d = 6: worst relative error 6.3e-4, a quarter of
        # this bound.
        d, tiny = 6, 1e-12
        bound = d * np.finfo(float).eps * 2.0 / tiny
        for seed in range(5):
            rng = np.random.default_rng(seed)
            Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            lam = np.concatenate([[tiny], np.linspace(1.0, 2.0, d - 1)])
            smallest = symmetric_eig((Q * lam) @ Q.T).eigenvalues[0]
            assert abs(smallest - tiny) / tiny <= bound

    def test_seeded_reconstruction(self):
        # Oracle: rebuild V diag(lambda) V^T and compare against the input.
        M = random_symmetric(8, 8)
        eig = symmetric_eig(M)
        assert reconstruction_residual(M, eig) <= 1e-10 * max(1.0, frobenius(M))
        assert frobenius(eig.eigenvectors.T @ eig.eigenvectors - np.eye(8)) <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("d", [1, 2, 5, 12])
    def test_reconstruction_property(self, seed, d):
        M = random_symmetric(seed, d, scale=3.0)
        eig = symmetric_eig(M)
        assert reconstruction_residual(M, eig) <= 1e-10 * max(1.0, frobenius(M))
        assert np.all(np.diff(eig.eigenvalues) >= 0)

    def test_against_dense_solver(self):
        # Independent route: numpy's LAPACK eigensolver.
        for seed in range(5):
            M = random_symmetric(seed, 9)
            ours = symmetric_eig(M).eigenvalues
            theirs = np.linalg.eigvalsh(M)
            assert np.max(np.abs(ours - theirs)) <= 1e-11 * max(1.0, frobenius(M))

    def test_deterministic(self):
        M = random_symmetric(3, 7)
        a = symmetric_eig(M)
        b = symmetric_eig(M)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_zero_matrix(self):
        eig = symmetric_eig(np.zeros((4, 4)))
        assert np.array_equal(eig.eigenvalues, np.zeros(4))

    def test_large_smoke(self):
        M = random_symmetric(0, 64)
        eig = symmetric_eig(M)
        assert reconstruction_residual(M, eig) <= 1e-10 * max(1.0, frobenius(M))

    def test_lapack_failure_is_convergence_error_and_exit_2(
        self, monkeypatch, tmp_path, capsys
    ):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        path = tmp_path / "instance.json"
        path.write_text(dumps_canonical(make_instance_payload(1, 6, 3)))
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError, match="did not converge"):
            symmetric_eig(random_symmetric(1, 6))
        assert main(["check", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "did not converge" in captured.err
        assert "Traceback" not in captured.err

    def test_results_are_read_only(self):
        eig = symmetric_eig(np.eye(2))
        with pytest.raises(ValueError):
            eig.eigenvalues[0] = 7.0


class TestOrthonormalize:
    def test_two_step(self):
        cols = np.array([[1.0, 1.0], [0.0, 1.0]])
        B = orthonormalize(cols)
        assert B.shape == (2, 2)
        assert frobenius(B.T @ B - np.eye(2)) <= 1e-12

    def test_rank_deficient(self):
        cols = np.array([[1.0, 2.0], [0.0, 0.0]])
        B = orthonormalize(cols)
        assert B.shape == (2, 1)
        assert abs(abs(B[0, 0]) - 1.0) <= 1e-12

    def test_duplicated_column_rank(self):
        # Oracle: numerical rank from the eigenvalues of the Gram matrix.
        rng = np.random.default_rng(6)
        C = rng.standard_normal((6, 3))
        C = np.column_stack([C, C[:, 1]])
        gram_eigs = np.linalg.eigvalsh(C.T @ C)
        oracle_rank = int(np.sum(gram_eigs > 1e-20 * gram_eigs[-1]))
        assert oracle_rank == 3
        B = orthonormalize(C)
        assert B.shape == (6, 3)
        assert frobenius(B.T @ B - np.eye(3)) <= 1e-12

    def test_span_preserved(self):
        rng = np.random.default_rng(11)
        C = rng.standard_normal((7, 4))
        B = orthonormalize(C)
        # every input column is reproduced by projecting onto the basis
        resid = C - B @ (B.T @ C)
        assert frobenius(resid) <= 1e-10 * frobenius(C)

    def test_all_zero_gives_empty_basis(self):
        B = orthonormalize(np.zeros((5, 2)))
        assert B.shape == (5, 0)

    def test_vector_input(self):
        B = orthonormalize(np.array([3.0, 4.0]))
        assert B.shape == (2, 1)
        assert abs(np.linalg.norm(B[:, 0]) - 1.0) <= 1e-14

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            orthonormalize(np.eye(2), tol=0.0)

    def test_column_signs_are_fixed(self):
        # the largest-magnitude entry of every column is positive, so inputs
        # whose singular vectors LAPACK may return with either sign agree
        rng = np.random.default_rng(12)
        C = rng.standard_normal((8, 3))
        B = orthonormalize(C)
        pivots = B[np.argmax(np.abs(B), axis=0), np.arange(3)]
        assert np.all(pivots > 0.0)
        assert frobenius(orthonormalize(-C) - B) <= 1e-12
        assert np.array_equal(orthonormalize(-np.eye(3)[:, :2]), np.eye(3)[:, :2])


class TestMatrixFunction:
    def test_abs_of_diagonal(self):
        out = matrix_function(np.diag([2.0, -3.0]), abs)
        assert np.allclose(out, np.diag([2.0, 3.0]), atol=1e-12)

    def test_identity_function(self):
        M = random_symmetric(2, 5)
        out = matrix_function(M, lambda x: x)
        assert frobenius(out - M) <= 1e-10 * max(1.0, frobenius(M))

    def test_sqrt_square_compare(self):
        # Oracle: square the computed root and compare with |M|.
        rng = np.random.default_rng(17)
        A = rng.standard_normal((5, 5))
        M = (A + A.T) / 2.0 + 6.0 * np.eye(5)
        root = matrix_function(M, lambda x: math.sqrt(abs(x)))
        absM = matrix_function(M, abs)
        assert frobenius(root @ root - absM) <= 1e-9 * max(1.0, frobenius(absM))

    def test_composition_property(self):
        for seed in range(6):
            M = random_symmetric(seed, 6)
            direct = matrix_function(M, lambda x: math.sqrt(abs(x)))
            staged = matrix_function(matrix_function(M, abs), math.sqrt)
            assert frobenius(direct - staged) <= 1e-9 * max(1.0, frobenius(M))

    def test_domain_error_names_eigenvalue(self):
        with pytest.raises(EigenvalueDomainError) as info:
            matrix_function(np.diag([1.0, 0.0]), lambda x: 1.0 / math.sqrt(x))
        assert info.value.eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_nonfinite_result_rejected(self):
        with pytest.raises(EigenvalueDomainError):
            matrix_function(np.diag([1.0, -1.0]), lambda x: math.inf if x < 0 else x)


class TestExtremalRayleigh:
    def test_identity_pencil(self):
        lo, hi = extremal_rayleigh(np.eye(2), np.eye(2))
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_pencil(self):
        lo, hi = extremal_rayleigh(np.diag([1.0, 4.0]), np.eye(2))
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(4.0, abs=1e-12)

    def test_closed_form_two_by_two(self):
        M = np.array([[1.5, 0.5], [0.5, 0.5]])
        lo, hi = extremal_rayleigh(M, np.eye(2))
        assert lo == pytest.approx((2.0 - math.sqrt(2.0)) / 2.0, abs=1e-12)
        assert hi == pytest.approx((2.0 + math.sqrt(2.0)) / 2.0, abs=1e-12)
        # cross-check by dense solve
        dense = np.linalg.eigvalsh(M)
        assert lo == pytest.approx(dense[0], abs=1e-12)
        assert hi == pytest.approx(dense[-1], abs=1e-12)

    def test_bounds_enclose_sampled_quotients(self):
        rng = np.random.default_rng(5)
        M = random_symmetric(5, 4)
        G = random_symmetric(55, 4) @ random_symmetric(55, 4).T + 4.0 * np.eye(4)
        lo, hi = extremal_rayleigh(M, G)
        xs = rng.standard_normal((1000, 4))
        quotients = np.einsum("ij,jk,ik->i", xs, M, xs) / np.einsum(
            "ij,jk,ik->i", xs, G, xs
        )
        assert lo - 1e-8 <= quotients.min()
        assert quotients.max() <= hi + 1e-8

    def test_bounds_attained_by_eigenvectors(self):
        M = random_symmetric(9, 5)
        G = random_symmetric(19, 5) @ random_symmetric(19, 5).T + 3.0 * np.eye(5)
        lo, hi = extremal_rayleigh(M, G)
        Gi = matrix_function(G, lambda x: 1.0 / math.sqrt(x))
        reduced = symmetric_eig(symmetrize(Gi @ M @ Gi))
        for idx, bound in ((0, lo), (-1, hi)):
            x = Gi @ reduced.eigenvectors[:, idx]
            quotient = (x @ M @ x) / (x @ G @ x)
            assert quotient == pytest.approx(bound, abs=1e-8)

    def test_indefinite_metric_rejected(self):
        with pytest.raises(MetricError):
            extremal_rayleigh(np.eye(2), np.diag([1.0, -1.0]))

    def test_near_singular_metric_rejected(self):
        with pytest.raises(MetricError):
            extremal_rayleigh(np.eye(2), np.diag([1.0, 1e-15]))


def test_symmetrize_is_exactly_symmetric():
    rng = np.random.default_rng(33)
    M = rng.standard_normal((6, 6))
    S = symmetrize(M)
    assert np.array_equal(S, S.T)


def test_apply_spectral_function_matches_matrix_function():
    M = random_symmetric(21, 6)
    eig = symmetric_eig(M)
    assert np.array_equal(
        apply_spectral_function(eig, abs), matrix_function(M, abs)
    )
