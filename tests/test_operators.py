import numpy as np
import pytest
from scipy import sparse

from antibragg.operators import ArrayParams, identity_op, kron, lowering_op


def dense(m):
    return m.toarray()


def max_abs_diff(a, b):
    return np.max(np.abs(dense(a) - dense(b)))


class TestArrayParams:
    def test_valid(self):
        p = ArrayParams(3, np.pi / 2, 1.0, 10.0)
        assert p.dim == 8
        assert p.d_over_lambda == pytest.approx(0.25)

    @pytest.mark.parametrize("kwargs", [
        dict(n_qubits=0, phi=0.0),
        dict(n_qubits=2, phi=-0.1),
        dict(n_qubits=2, phi=2 * np.pi),
        dict(n_qubits=2, phi=1.0, gamma_1d=0.0),
        dict(n_qubits=2, phi=1.0, omega_r=-1.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ArrayParams(**kwargs)


class TestLowering:
    def test_single_qubit(self):
        s = dense(lowering_op(1, 1))
        # single entry connecting excited (index 1) to ground (index 0)
        expected = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.array_equal(s, expected)

    def test_two_qubit_embedding(self):
        s = lowering_op(1, 2)
        assert s.shape == (4, 4)
        assert s.nnz == 2
        expected = np.kron(np.array([[0, 1], [0, 0]]), np.eye(2))
        assert np.array_equal(dense(s), expected)

    @pytest.mark.parametrize("n,site", [(1, 1), (3, 2), (4, 4)])
    def test_nilpotent(self, n, site):
        s = lowering_op(site, n)
        assert (s @ s).count_nonzero() == 0

    @pytest.mark.parametrize("n,site", [(2, 1), (3, 3)])
    def test_anticommutator_is_identity_on_site(self, n, site):
        s = lowering_op(site, n)
        sd = s.conj().T
        assert max_abs_diff(sd @ s + s @ sd, identity_op(2 ** n)) <= 1e-12

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            lowering_op(0, 2)
        with pytest.raises(ValueError):
            lowering_op(3, 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cross_site_commutation(self, n):
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                sa, sb = lowering_op(a, n), lowering_op(b, n)
                diff = sa @ sb - sb @ sa
                assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


class TestProduct:
    def test_excited_projector(self):
        s = lowering_op(1, 1)
        proj = s.conj().T @ s
        assert np.array_equal(dense(proj), np.diag([0.0, 1.0]))


class TestKron:
    def test_identities(self):
        assert max_abs_diff(kron(identity_op(2), identity_op(2)), identity_op(4)) == 0.0
        a = sparse.diags([1.0, 2.0]).astype(complex)
        b = sparse.diags([3.0, 4.0]).astype(complex)
        assert np.array_equal(dense(kron(a, b)), np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_column_stacking_identity(self):
        # kron(a, b) vec(x) = vec(b x a^T) with column-stacking vec
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            x = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
            lhs = dense(kron(sparse.csr_matrix(a), sparse.csr_matrix(b))) @ x.ravel(order="F")
            rhs = (b @ x @ a.T).ravel(order="F")
            assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_number_operator_integer_spectrum(n):
    sig = [lowering_op(m, n) for m in range(1, n + 1)]
    w = np.linalg.eigvalsh(sum(dense(s.conj().T @ s) for s in sig))
    assert np.max(np.abs(w - np.round(w))) < 1e-12
    assert set(np.round(w).astype(int)) == set(range(n + 1))
