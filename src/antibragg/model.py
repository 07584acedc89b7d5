"""Effective Hamiltonian and vectorized Lindblad superoperator.

The master equation is

    d rho / dt = L rho
               = 2 gamma_1d sum_{m,n} cos[phi (m-n)] sigma_m rho sigma_n^dag
                 - i (H rho - rho H^dag)

with H = H0 + V,

    H0 = -i gamma_1d sum_{m,n} sigma_m^dag sigma_n exp(i phi |m-n|)
    V  = omega_r sum_n (sigma_n^dag exp(-i phi n) + h.c.)

in the frame rotating at the qubit resonance. The recycling term has
rank 2: it is A rho A^dag + B rho B^dag with the collective jumps
A, B = sqrt(gamma_1d) sum_m exp(+-i phi m) sigma_m, emission into the
right- and left-going modes. The anti-Hermitian combination is written
as -i(H rho - rho H^dag); this is the unique ordering that preserves the
trace together with the jump term above.

Vectorization is column-stacking throughout: vec(A X B) = (B^T kron A) vec(X).
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .operators import ArrayParams, canonicalize, identity_op, kron, lowering_op

# 4^N above this qubit count is refused by the dense superoperator builder
MAX_QUBITS_DEFAULT = 7


class ResourceLimitError(RuntimeError):
    """Requested problem size exceeds the configured memory budget."""


@dataclass(frozen=True)
class Hamiltonian:
    h0: sparse.csr_matrix  # waveguide-induced coupling, non-Hermitian
    v: sparse.csr_matrix   # coherent drive, Hermitian
    total: sparse.csr_matrix


@dataclass(frozen=True)
class Liouvillian:
    params: ArrayParams
    matrix: sparse.csr_matrix  # 4^N x 4^N


def vec(x):
    """Column-stacking vectorization of a matrix."""
    return np.asarray(x).ravel(order="F")


def unvec(x, dim):
    return np.asarray(x).reshape(dim, dim, order="F")


def lowering_ops(n_qubits):
    return [lowering_op(m, n_qubits) for m in range(1, n_qubits + 1)]


def drive_phases(params: ArrayParams):
    """Phase theta_k of the drive on site k (1-based), so that
    V = omega_r sum_k (exp(i theta_k) sigma_k^dag + exp(-i theta_k) sigma_k)."""
    sgn = 1.0 if params.drive_from_right else -1.0
    return sgn * params.phi * np.arange(1, params.n_qubits + 1)


def coupling_hamiltonian(params: ArrayParams, sig) -> sparse.csr_matrix:
    """H0 = -i gamma_1d sum_{m,k} exp(i phi |m-k|) s_m^dag s_k over the
    site lowering operators `sig` (bare or in any product-rotated frame)."""
    phi, g = params.phi, params.gamma_1d
    dim = sig[0].shape[0]
    h0 = sparse.csr_matrix((dim, dim), dtype=complex)
    for m in range(len(sig)):
        for k in range(len(sig)):
            h0 = h0 + (-1j * g * np.exp(1j * phi * abs(m - k))) * (sig[m].conj().T @ sig[k])
    return canonicalize(h0)


def drive_hamiltonian(params: ArrayParams, sig) -> sparse.csr_matrix:
    """V = omega_r sum_k (exp(i theta_k) sigma_k^dag + h.c.) over the bare
    site lowering operators `sig`."""
    v = sparse.csr_matrix((params.dim, params.dim), dtype=complex)
    for k, theta in enumerate(drive_phases(params)):
        v = v + params.omega_r * (np.exp(1j * theta) * sig[k].conj().T
                                  + np.exp(-1j * theta) * sig[k])
    return canonicalize(v)


def build_hamiltonian(params: ArrayParams) -> Hamiltonian:
    sig = lowering_ops(params.n_qubits)
    h0, v = coupling_hamiltonian(params, sig), drive_hamiltonian(params, sig)
    return Hamiltonian(h0=h0, v=v, total=canonicalize(h0 + v))


def _hamiltonian_superop(h):
    """Superoperator of rho -> -i (h rho - rho h^dag), which is
    -i (I kron h) + i (conj(h) kron I) under column stacking."""
    ident = identity_op(h.shape[0])
    return kron(ident, -1j * h) + kron(1j * h.conj(), ident)


def drive_superoperator(params: ArrayParams) -> sparse.csr_matrix:
    """Superoperator of the drive alone: L_V rho = i [rho, V]."""
    return canonicalize(_hamiltonian_superop(build_hamiltonian(params).v))


def collective_jumps(params: ArrayParams, sig):
    """Jump operators A, B = sqrt(gamma_1d) sum_m exp(+-i phi m) s_m of emission
    into the right- and left-going waveguide modes, over the site lowering
    operators `sig` (bare or in any product-rotated frame). Their recycling
    term A rho A^dag + B rho B^dag equals
    2 gamma_1d sum_{m,k} cos[phi (m-k)] s_m rho s_k^dag."""
    amp = np.sqrt(params.gamma_1d) * np.exp(1j * params.phi * np.arange(len(sig)))
    return [canonicalize(sum(c * s for c, s in zip(coef, sig)))
            for coef in (amp, amp.conj())]


def dissipator(params: ArrayParams, sig) -> sparse.csr_matrix:
    """Superoperator of everything but the drive,

        L0 rho = -i (H0 rho - rho H0^dag) + sum_{J = A, B} J rho J^dag,

    from the site lowering operators `sig`. With the bare sigma_m this is
    the dissipative part of build_liouvillian; with sigma_m rotated by a
    product of single-site unitaries it is L0 in the rotated frame."""
    mat = _hamiltonian_superop(coupling_hamiltonian(params, sig))
    for j in collective_jumps(params, sig):
        mat = mat + kron(j.conj(), j)  # J rho J^dag under column stacking
    return canonicalize(mat)


def build_liouvillian(params: ArrayParams, max_qubits=MAX_QUBITS_DEFAULT) -> Liouvillian:
    if params.n_qubits > max_qubits:
        raise ResourceLimitError(
            f"N={params.n_qubits} exceeds the dense superoperator budget "
            f"(N <= {max_qubits}); use apply_liouvillian for matrix-free evaluation")
    sig = lowering_ops(params.n_qubits)
    # the drive changes the excitation number of one side of rho by one,
    # which H0 and the jumps never do, so the two parts add on disjoint entries
    mat = dissipator(params, sig) + _hamiltonian_superop(drive_hamiltonian(params, sig))
    return Liouvillian(params=params, matrix=canonicalize(mat))


@functools.lru_cache(maxsize=16)
def _dense_generators(params: ArrayParams):
    """Dense H = H0 + V and the collective jumps (A, B) of `params`."""
    jumps = collective_jumps(params, lowering_ops(params.n_qubits))
    return build_hamiltonian(params).total.toarray(), tuple(j.toarray() for j in jumps)


def apply_liouvillian(params: ArrayParams, rho):
    """Matrix-free evaluation of L rho for a 2^N x 2^N density matrix."""
    rho = np.asarray(rho, dtype=complex)
    h, jumps = _dense_generators(params)
    out = -1j * (h @ rho - rho @ h.conj().T)
    for j in jumps:
        out += j @ rho @ j.conj().T
    return out
