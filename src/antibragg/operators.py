"""Sparse many-qubit operators built by Kronecker composition.

Site 1 is the leftmost Kronecker factor, so the basis ordering is fixed
and serialized operators are reproducible. All operators are scipy CSR
matrices in canonical form (sorted indices, duplicates summed, entries
below PRUNE_TOL dropped).
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

# magnitude below which product entries are treated as exact-zero cancellations
PRUNE_TOL = 1e-15

SIGMA = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|, site basis (g, e)


@dataclass(frozen=True)
class ArrayParams:
    """Physical configuration of the qubit array.

    phi is the light phase 2*pi*d/lambda gained between neighboring
    qubits; gamma_1d the single-qubit decay rate into the waveguide
    (the simulation unit); omega_r the Rabi frequency of the coherent
    drive, in units of gamma_1d.
    """

    n_qubits: int
    phi: float
    gamma_1d: float = 1.0
    omega_r: float = 0.0
    # drive phases for injection from the right end instead of the left;
    # spectrally equivalent to relabeling the sites
    drive_from_right: bool = False

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if self.gamma_1d <= 0:
            raise ValueError("gamma_1d must be > 0")
        if self.omega_r < 0:
            raise ValueError("omega_r must be >= 0")
        if not 0.0 <= self.phi < 2.0 * np.pi:
            raise ValueError("phi must lie in [0, 2*pi)")

    @property
    def dim(self):
        return 2 ** self.n_qubits

    @property
    def d_over_lambda(self):
        return self.phi / (2.0 * np.pi)


def canonicalize(m, prune_tol=PRUNE_TOL):
    """Return m as a canonical CSR matrix: duplicates summed, indices
    sorted, entries with |value| < prune_tol removed."""
    m = sparse.csr_matrix(m, dtype=complex)
    m.sum_duplicates()
    if m.nnz:
        m.data[np.abs(m.data) < prune_tol] = 0.0
        m.eliminate_zeros()
    m.sort_indices()
    return m


def identity_op(dim):
    return sparse.identity(dim, dtype=complex, format="csr")


def site_op(local, site, n_qubits):
    """A single-qubit 2x2 operator acting on `site`, embedded in the 2^N
    Hilbert space as identity on every other site."""
    if not 1 <= site <= n_qubits:
        raise ValueError(f"site {site} out of range 1..{n_qubits}")
    out = None
    for k in range(1, n_qubits + 1):
        f = sparse.csr_matrix(local) if k == site else identity_op(2)
        out = f if out is None else sparse.kron(out, f, format="csr")
    return canonicalize(out)


def lowering_op(site, n_qubits):
    """Lowering operator sigma_site embedded in the 2^N Hilbert space."""
    return site_op(SIGMA, site, n_qubits)


def kron(a, b):
    """Kronecker product, consistent with column-stacking vectorization:
    kron(b.T, a) @ vec(x) = vec(a @ x @ b)."""
    return canonicalize(sparse.kron(a, b, format="csr"))
