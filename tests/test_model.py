import numpy as np
import pytest

from antibragg.model import (ResourceLimitError, apply_liouvillian,
                             build_hamiltonian, build_liouvillian,
                             drive_superoperator, unvec, vec)
from antibragg.operators import ArrayParams, lowering_op


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def excitation_numbers(n):
    """Number of excited sites of each basis state: the popcount of its index."""
    return np.array([bin(i).count("1") for i in range(2 ** n)])


def one_excitation_block(h, n):
    idx = np.flatnonzero(excitation_numbers(n) == 1)
    return h.toarray()[np.ix_(idx, idx)]


class TestHamiltonian:
    def test_single_qubit_undriven(self):
        ham = build_hamiltonian(ArrayParams(1, 1.3))
        expected = -1j * np.diag([0.0, 1.0])
        assert np.max(np.abs(ham.h0.toarray() - expected)) < 1e-15
        assert ham.v.nnz == 0

    def test_diagonal_site_terms(self):
        ham = build_hamiltonian(ArrayParams(3, 0.7, gamma_1d=2.0))
        d = np.diag(ham.h0.toarray())
        assert np.max(np.abs(d - (-2j) * excitation_numbers(3))) < 1e-12

    def test_quarter_wave_exchange(self):
        # d = lambda/4: coupling is purely real exchange; both one-excitation
        # eigenmodes keep the single-qubit lifetime
        ham = build_hamiltonian(ArrayParams(2, np.pi / 2))
        blk = one_excitation_block(ham.h0, 2)
        assert blk[0, 1] == pytest.approx(1.0)  # -i e^{i pi/2} = 1
        w = np.linalg.eigvals(blk)
        assert np.allclose(w.imag, [-1.0, -1.0])

    def test_half_wave_dark_and_superradiant(self):
        ham = build_hamiltonian(ArrayParams(2, np.pi))
        w = np.linalg.eigvals(one_excitation_block(ham.h0, 2))
        w = w[np.argsort(w.imag)][::-1]
        assert np.allclose(w, [0.0, -2.0j], atol=1e-12)

    def test_drive_hermitian(self):
        ham = build_hamiltonian(ArrayParams(3, np.pi / 2, omega_r=7.0))
        v = ham.v.toarray()
        assert np.max(np.abs(v - v.conj().T)) == 0.0

    @pytest.mark.parametrize("phi", [0.0, np.pi / 2, 1.234, np.pi])
    def test_dissipative_part_negative_semidefinite(self, phi):
        ham = build_hamiltonian(ArrayParams(3, phi))
        h0 = ham.h0.toarray()
        anti = (h0 - h0.conj().T) / 2j
        assert np.max(np.linalg.eigvalsh(anti)) < 1e-12

    def test_total_is_sum(self):
        ham = build_hamiltonian(ArrayParams(2, 1.0, omega_r=3.0))
        assert np.max(np.abs((ham.h0 + ham.v - ham.total).toarray())) == 0.0


class TestLiouvillian:
    def test_single_qubit_spectrum(self):
        liou = build_liouvillian(ArrayParams(1, 0.4))
        w = np.sort(np.linalg.eigvals(liou.matrix.toarray()).real)
        assert np.allclose(w, [-2.0, -1.0, -1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("params", [
        ArrayParams(2, np.pi / 2, omega_r=5.0),
        ArrayParams(3, 1.1, omega_r=0.3),
        ArrayParams(4, np.pi, omega_r=2.0),
    ])
    def test_trace_preservation(self, params):
        liou = build_liouvillian(params)
        left = vec(np.eye(params.dim)).conj() @ liou.matrix
        assert np.max(np.abs(left)) < 1e-12 * params.gamma_1d

    @pytest.mark.parametrize("omega_r", [0.0, 1.0, 5.0, 17.0, 42.0])
    def test_half_wave_dark_projector_is_null(self, omega_r):
        # ferromagnetic combination for d = lambda/2, dark at any drive
        params = ArrayParams(2, np.pi, omega_r=omega_r)
        liou = build_liouvillian(params)
        s1, s2 = lowering_op(1, 2).toarray(), lowering_op(2, 2).toarray()
        vac = np.zeros(4)
        vac[0] = 1.0
        psi = (s1.conj().T + s2.conj().T) @ vac / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert np.linalg.norm(liou.matrix @ vec(rho)) < 1e-12

    def test_spectrum_real_parts_nonpositive(self):
        liou = build_liouvillian(ArrayParams(3, np.pi / 2, omega_r=4.0))
        w = np.linalg.eigvals(liou.matrix.toarray())
        assert np.max(w.real) < 1e-10

    def test_zero_mode_exists(self):
        for params in (ArrayParams(2, 0.9, omega_r=1.7), ArrayParams(3, 2.5, omega_r=8.0)):
            liou = build_liouvillian(params)
            w = np.linalg.eigvals(liou.matrix.toarray())
            assert np.min(np.abs(w)) < 1e-10

    def test_budget_error(self):
        with pytest.raises(ResourceLimitError):
            build_liouvillian(ArrayParams(8, np.pi / 2))

    def test_drive_free_single_excitation_reduction(self):
        # at zero drive the coherence sector reproduces -i * (one-excitation
        # eigenvalues of H0)
        for n, phi in [(2, 1.3), (3, np.pi / 2)]:
            params = ArrayParams(n, phi)
            wl = np.linalg.eigvals(build_liouvillian(params).matrix.toarray())
            wh = np.linalg.eigvals(one_excitation_block(build_hamiltonian(params).h0, n))
            for e in wh:
                assert np.min(np.abs(wl - (-1j) * e)) < 1e-10

    def test_drive_superoperator_splits_total(self):
        params = ArrayParams(2, np.pi / 2, omega_r=3.0)
        full = build_liouvillian(params).matrix
        undriven = build_liouvillian(ArrayParams(2, np.pi / 2)).matrix
        lv = drive_superoperator(params)
        assert np.max(np.abs((full - undriven - lv).toarray())) < 1e-12

    def test_mirrored_drive_spectrally_equivalent(self):
        params = ArrayParams(3, np.pi / 2, omega_r=6.0)
        mirrored = ArrayParams(3, np.pi / 2, omega_r=6.0, drive_from_right=True)
        wa = np.linalg.eigvals(build_liouvillian(params).matrix.toarray())
        wb = np.linalg.eigvals(build_liouvillian(mirrored).matrix.toarray())
        for x in wa:
            assert np.min(np.abs(wb - x)) < 1e-8


class TestApplyLiouvillian:
    def test_steady_state_maps_to_zero(self):
        rho = np.diag([1.0, 0.0]).astype(complex)  # ground state, undriven
        out = apply_liouvillian(ArrayParams(1, 0.2), rho)
        assert np.max(np.abs(out)) < 1e-14

    def test_traceless_output(self):
        params = ArrayParams(2, np.pi / 2)
        out = apply_liouvillian(params, np.eye(4) / 4)
        assert abs(np.trace(out)) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dense_route(self, n):
        params = ArrayParams(n, 1.234, omega_r=2.5)
        mat = build_liouvillian(params).matrix
        rng = np.random.default_rng(42 + n)
        for _ in range(100):
            rho = random_hermitian(2 ** n, rng)
            direct = apply_liouvillian(params, rho)
            via_matrix = unvec(mat @ vec(rho), 2 ** n)
            assert np.max(np.abs(direct - via_matrix)) < 1e-12

    def test_hermiticity_preservation(self):
        params = ArrayParams(3, 0.8, omega_r=1.1)
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        lhs = apply_liouvillian(params, a).conj().T
        rhs = apply_liouvillian(params, a.conj().T)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
