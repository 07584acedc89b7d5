"""Time propagation of the density matrix and spin-spin correlators."""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .model import apply_liouvillian
from .operators import ArrayParams

DEFAULT_SAMPLES = 200
DEFAULT_RTOL = 1e-10
POSITIVITY_FLOOR = -1e-6


@dataclass
class Trajectory:
    params: ArrayParams
    times: np.ndarray          # units 1/gamma_1d
    correlators: np.ndarray    # (samples, N, N), entry [t, n, m] = <sigma_n^dag sigma_m>
    trace_drift: np.ndarray    # |Tr rho - 1| per sample
    purity: np.ndarray         # Tr rho^2 per sample
    final_rho: Optional[np.ndarray] = None


def fully_excited_state(n_qubits):
    """Projector onto the all-excited product state.

    The single-qubit basis is (ground, excited), so all-excited is the
    last basis index."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    dim = 2 ** n_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[dim - 1, dim - 1] = 1.0
    return rho


def correlation_map(rho):
    """C[n, m] = <sigma_n^dag sigma_m> = Tr[rho sigma_n^dag sigma_m] over the
    sites n, m = 0..N-1.

    sigma_n^dag sigma_m takes |k | b_m> to |k | b_n> for every basis index k
    with bits n and m down (b_s is the bit of site s; site 0 is the leading
    bit), so C[n, m] is the sum of rho[k | b_m, k | b_n] over those k."""
    rho = np.asarray(rho, dtype=complex)
    n_qubits = rho.shape[0].bit_length() - 1
    if rho.shape != (2 ** n_qubits, 2 ** n_qubits):
        raise ValueError(f"density matrix must be 2^N x 2^N, got {rho.shape}")
    bits = 1 << np.arange(n_qubits - 1, -1, -1)
    k = np.arange(2 ** n_qubits)[:, None, None]
    b_n, b_m = bits[:, None], bits[None, :]
    down = ((k & b_n) == 0) & ((k & b_m) == 0)
    return np.where(down, rho[k | b_m, k | b_n], 0.0).sum(axis=0)


def _check_initial_state(rho0):
    if np.max(np.abs(rho0 - rho0.conj().T)) > 1e-10:
        raise ValueError("initial state must be Hermitian")
    if abs(np.trace(rho0) - 1.0) > 1e-10:
        raise ValueError("initial state must have unit trace")
    if np.min(np.linalg.eigvalsh(rho0)) < -1e-10:
        raise ValueError("initial state must be positive semidefinite")


def evolve(params: ArrayParams, rho0, t_max, samples=DEFAULT_SAMPLES,
           rtol=DEFAULT_RTOL, keep_final=True) -> Trajectory:
    """Integrate d rho/dt = L rho with an adaptive embedded Runge-Kutta
    scheme (DOP853), sampling correlators on a uniform output grid.

    Positivity is monitored on a sparse subset of samples; a violation
    beyond POSITIVITY_FLOOR indicates integrator failure and aborts.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    dim = 2 ** params.n_qubits
    if rho0.shape != (dim, dim):
        raise ValueError(f"initial state must be {dim}x{dim}")
    _check_initial_state(rho0)

    def rhs(t, y):
        return apply_liouvillian(params, y.reshape(dim, dim)).ravel()

    times = np.linspace(0.0, t_max, samples)
    sol = solve_ivp(rhs, (0.0, t_max), rho0.ravel(), method="DOP853",
                    t_eval=times, rtol=rtol, atol=rtol * 1e-2)
    if not sol.success:
        raise ArithmeticError(f"integration failed at t={sol.t[-1] if len(sol.t) else 0.0}: "
                              f"{sol.message}")

    n = params.n_qubits
    corr = np.empty((samples, n, n), dtype=complex)
    drift = np.empty(samples)
    purity = np.empty(samples)
    pos_check_stride = max(1, samples // 10)
    for i in range(samples):
        rho = sol.y[:, i].reshape(dim, dim)
        corr[i] = correlation_map(rho)
        drift[i] = abs(np.trace(rho) - 1.0)
        purity[i] = float(np.real(np.trace(rho @ rho)))
        if i % pos_check_stride == 0:
            wmin = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
            if wmin < POSITIVITY_FLOOR:
                raise ArithmeticError(
                    f"density matrix lost positivity ({wmin:.3e}) at t={times[i]:.4g}")

    final = sol.y[:, -1].reshape(dim, dim) if keep_final else None
    return Trajectory(params=params, times=times, correlators=corr,
                      trace_drift=drift, purity=purity, final_rho=final)
