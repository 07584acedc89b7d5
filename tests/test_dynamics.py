import numpy as np
import pytest

from antibragg.dynamics import correlation_map, evolve, fully_excited_state
from antibragg.model import build_liouvillian
from antibragg.operators import ArrayParams, lowering_op
from antibragg.spectra import full_spectrum


def dark_two_qubit_state():
    s1, s2 = lowering_op(1, 2).toarray(), lowering_op(2, 2).toarray()
    vac = np.zeros(4)
    vac[0] = 1.0
    psi = (s1.conj().T + s2.conj().T) @ vac / np.sqrt(2)
    return np.outer(psi, psi.conj())


class TestStatesAndCorrelators:
    def test_fully_excited_trivia(self):
        rho = fully_excited_state(2)
        assert rho.shape == (4, 4)
        assert np.trace(rho) == pytest.approx(1.0)
        c = correlation_map(rho)
        for n in (0, 1):
            assert c[n, n] == pytest.approx(1.0)
        assert c[0, 1] == pytest.approx(0.0)

    def test_fully_excited_invalid(self):
        with pytest.raises(ValueError):
            fully_excited_state(0)

    def test_dark_state_coherence(self):
        c = correlation_map(dark_two_qubit_state())
        assert c[0, 0] == pytest.approx(0.5)
        assert c[0, 1] == pytest.approx(0.5)

    def test_correlation_map_matches_scalar(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        c = correlation_map(rho)
        for n in range(1, 4):
            for m in range(1, 4):
                sn, sm = lowering_op(n, 3).toarray(), lowering_op(m, 3).toarray()
                assert c[n - 1, m - 1] == pytest.approx(np.trace(rho @ sn.conj().T @ sm))

    @pytest.mark.parametrize("shape", [(6, 6), (4, 8), (8,)])
    def test_correlation_map_rejects_non_qubit_shape(self, shape):
        with pytest.raises(ValueError):
            correlation_map(np.zeros(shape))


class TestEvolve:
    def test_single_qubit_exponential_decay(self):
        params = ArrayParams(1, 0.3)
        traj = evolve(params, fully_excited_state(1), t_max=3.0, samples=50)
        expected = np.exp(-2.0 * traj.times)
        got = traj.correlators[:, 0, 0].real
        assert np.max(np.abs(got - expected)) < 1e-8

    def test_dark_state_is_stationary(self):
        params = ArrayParams(2, np.pi, omega_r=4.0)
        traj = evolve(params, dark_two_qubit_state(), t_max=10.0, samples=40)
        assert np.max(np.abs(traj.correlators[:, 0, 1] - 0.5)) < 1e-8
        assert np.max(np.abs(traj.purity - 1.0)) < 1e-8

    def test_invariants_along_trajectory(self):
        params = ArrayParams(3, np.pi / 2, omega_r=2.0)
        traj = evolve(params, fully_excited_state(3), t_max=5.0, samples=60)
        assert np.max(traj.trace_drift) < 1e-9
        assert np.all(traj.purity <= 1.0 + 1e-9)
        # correlator matrix stays Hermitian
        herm = traj.correlators - np.conj(np.swapaxes(traj.correlators, 1, 2))
        assert np.max(np.abs(herm)) < 1e-9
        assert traj.final_rho is not None
        assert np.max(np.abs(traj.final_rho - traj.final_rho.conj().T)) < 1e-9

    def test_late_time_decay_matches_spectral_rate(self):
        # slowest transient of the driven anti-Bragg trimer
        params = ArrayParams(3, np.pi / 2, omega_r=20.0)
        traj = evolve(params, fully_excited_state(3), t_max=60.0, samples=240)
        r = full_spectrum(build_liouvillian(params), want_vectors=True)
        wnz = r.eigenvalues[np.abs(r.eigenvalues) > 1e-8]
        rate = -np.max(wnz.real)
        # steady-state excited population from the stationary eigenvector
        rho_ss = r.eigenvectors[:, r.zero_index].reshape(8, 8, order="F")
        rho_ss = rho_ss / np.trace(rho_ss)
        steady = float(np.real(np.trace(correlation_map(rho_ss))))

        sel = (traj.times >= 20.0) & (traj.times <= 50.0)
        pop = np.array([np.real(np.trace(c)) for c in traj.correlators[sel]])
        slope = np.polyfit(traj.times[sel], np.log(np.abs(pop - steady)), 1)[0]
        assert -slope == pytest.approx(rate, rel=0.05)

    def test_tolerance_refinement_converges(self):
        params = ArrayParams(2, np.pi / 2, omega_r=3.0)
        rho0 = fully_excited_state(2)
        loose = evolve(params, rho0, t_max=4.0, samples=30, rtol=1e-6)
        tight = evolve(params, rho0, t_max=4.0, samples=30, rtol=1e-12)
        assert np.max(np.abs(loose.correlators - tight.correlators)) < 1e-5

    @pytest.mark.parametrize("rho0", [
        np.eye(4),                       # trace 2
        np.diag([1.0, 0.0, 0.0, -0.0]) + 0.5j * np.eye(4),  # non-Hermitian
        np.diag([1.5, -0.5, 0.0, 0.0]),  # negative eigenvalue
    ])
    def test_invalid_initial_state(self, rho0):
        with pytest.raises(ValueError):
            evolve(ArrayParams(2, 1.0), np.asarray(rho0, dtype=complex),
                   t_max=1.0, samples=5)

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            evolve(ArrayParams(2, 1.0), np.eye(2), t_max=1.0)
