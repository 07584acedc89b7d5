"""Strong-drive degenerate perturbation theory in the product drive eigenbasis.

The superoperator is split as L = L0 + L_V with L_V rho = i [rho, V].
The drive V = omega_r sum_k (exp(i theta_k) sigma_k^dag + h.c.) is a sum
of single-site terms, so it is diagonalized site by site: each 2x2 term
has eigenvalues -omega_r and +omega_r with eigenvectors u_k, and the
eigenstates of V are the product states |a> = (u_1 x ... x u_N)|a_1..a_N>
with v_a = omega_r times the sum of the site signs. The 4^N outer
products |a><b| are eigenstates of L_V with purely imaginary eigenvalues
-i (v_a - v_b); those with equal sign sums span the lambda_V = 0
subspace, of dimension C(2N, N).

In this basis L0 is the dissipator of the model built from the rotated
site operators u_k^dag sigma_k u_k. Each of them still acts on one site,
so L0 stays sparse (176k nonzeros at N=6, against 4^12 dense entries).
It is folded into the zero subspace order by order in gamma_1d / omega_r:

    order 1:  P0 L0 P0
    order 2:  P0 L0 G L0 P0
    order 3:  P0 [ L0 G L0 G L0
                   - (L0 G^2 L0 P0 L0 + L0 P0 L0 G^2 L0) / 2 ] P0

with P0 the zero-subspace projector and G = -sum_mu |mu>><<mu| / lambda_mu
over the nonzero drive modes, diagonal in this basis. Projectors use the
Hilbert-Schmidt inner product, under which L_V is anti-Hermitian. Only
the C(2N, N)-square results are dense; the 4^N x 4^N basis itself is
formed only when read.
"""

import functools
import json
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .model import build_liouvillian, dissipator, drive_phases
from .operators import SIGMA, ArrayParams, canonicalize, site_op
from . import spectra


def _outer_columns(u, q):
    """Columns vec(|a><b|) = conj(u_b) kron u_a for the superoperator
    indices q = b*dim + a, with the states |a> the columns of u."""
    dim = u.shape[0]
    a, b = q % dim, q // dim
    return (u.conj()[:, None, b] * u[None, :, a]).reshape(dim * dim, len(q))


@dataclass
class DriveEigenbasis:
    params: ArrayParams
    v_eigenvalues: np.ndarray        # real, ascending; units of the drive
    jz_labels: np.ndarray            # v / (2 omega_r), half-integer sums
    superop_eigenvalues: np.ndarray  # -i (v_a - v_b), purely imaginary
    site_unitaries: np.ndarray       # (N, 2, 2); columns: -omega_r, +omega_r states
    sort_index: np.ndarray           # product-state index of each sorted eigenstate

    @property
    def states(self):
        """Eigenstates of V as the columns of a dense 2^N x 2^N unitary."""
        return functools.reduce(np.kron, self.site_unitaries)[:, self.sort_index]

    @property
    def basis(self):
        """Columns vec(|a><b|) at q = b*dim + a, HS-orthonormal; dense
        4^N x 4^N, built on each read."""
        return _outer_columns(self.states, np.arange(self.params.dim ** 2))

    def rotated_lowering_ops(self):
        """Site lowering operators u_k^dag sigma_k u_k, sparse, with rows and
        columns in the order of v_eigenvalues."""
        n = self.params.n_qubits
        ops = [site_op(u.conj().T @ SIGMA @ u, k, n)
               for k, u in enumerate(self.site_unitaries, start=1)]
        return [canonicalize(s[self.sort_index][:, self.sort_index]) for s in ops]


@dataclass
class EffectivePT:
    basis: DriveEigenbasis
    zero_mask: np.ndarray            # marks the lambda_V = 0 columns
    g_diagonal: np.ndarray           # -1 / lambda_mu over nonzero modes
    l_eff_order1: np.ndarray = None  # operators on the zero subspace
    l_eff_order2: np.ndarray = None
    l_eff_order3: np.ndarray = None

    @property
    def p0_basis(self):
        """The zero-subspace columns of basis.basis, 4^N x zero_dim."""
        return _outer_columns(self.basis.states, np.flatnonzero(self.zero_mask))

    @property
    def zero_dim(self):
        return int(np.sum(self.zero_mask))

    def l_eff_total(self):
        return self.l_eff_order1 + self.l_eff_order2 + self.l_eff_order3


def drive_eigenbasis(params: ArrayParams) -> DriveEigenbasis:
    if params.omega_r <= 0:
        raise ValueError("drive eigenbasis requires omega_r > 0")
    n, dim = params.n_qubits, params.dim
    # site term omega_r [[0, e^{-i theta}], [e^{i theta}, 0]] has the
    # eigenvectors (1, -e^{i theta})/sqrt(2) at -omega_r, (1, e^{i theta})/sqrt(2) at +omega_r
    ph = np.exp(1j * drive_phases(params))
    us = np.empty((n, 2, 2), dtype=complex)
    us[:, 0, :] = 1.0
    us[:, 1, 0], us[:, 1, 1] = -ph, ph
    us /= np.sqrt(2.0)
    # site 1 is the leading bit of the product index; bit 1 is the +omega_r state
    bits = (np.arange(dim)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    signs = 2 * bits.sum(axis=1) - n
    sort_index = np.argsort(signs, kind="stable")
    va = params.omega_r * signs[sort_index]
    # column q = b*dim + a holds vec(|a><b|)
    a_idx = np.tile(np.arange(dim), dim)
    b_idx = np.repeat(np.arange(dim), dim)
    return DriveEigenbasis(
        params=params,
        v_eigenvalues=va,
        jz_labels=va / (2.0 * params.omega_r),
        superop_eigenvalues=-1j * (va[a_idx] - va[b_idx]),
        site_unitaries=us,
        sort_index=sort_index,
    )


def zero_projector(basis: DriveEigenbasis) -> EffectivePT:
    """Identify the lambda_V = 0 subspace, including all cross terms
    |a><b| between degenerate drive eigenstates."""
    lam = basis.superop_eigenvalues
    zero = np.abs(lam) < 1e-9 * basis.params.omega_r
    g = -1.0 / lam[~zero]
    return EffectivePT(basis=basis, zero_mask=zero, g_diagonal=g)


def effective_liouvillian(params: ArrayParams) -> EffectivePT:
    """Order 1-3 effective operators on the drive zero subspace."""
    basis = drive_eigenbasis(params)
    pt = zero_projector(basis)
    # L0 in the drive eigenbasis, B^H L0 B with B = basis.basis
    m0 = dissipator(params, basis.rotated_lowering_ops())
    zi, ni = np.flatnonzero(pt.zero_mask), np.flatnonzero(~pt.zero_mask)
    rows_z, rows_n = m0[zi], m0[ni]
    mzz, mzn = rows_z[:, zi].toarray(), rows_z[:, ni]
    mnz, mnn = rows_n[:, zi], rows_n[:, ni]
    g = sparse.diags(pt.g_diagonal)
    gmnz = g @ mnz
    s = (mzn @ (g @ gmnz)).toarray()
    pt.l_eff_order1 = mzz
    pt.l_eff_order2 = (mzn @ gmnz).toarray()
    pt.l_eff_order3 = (mzn @ (g @ (mnn @ gmnz))).toarray() - 0.5 * (s @ mzz + mzz @ s)
    return pt


def order1_nullspace_dim(pt: EffectivePT, tol=1e-8):
    w = np.linalg.eigvals(pt.l_eff_order1)
    return int(np.sum(np.abs(w) < tol * pt.basis.params.gamma_1d))


def pt_dark_count(params: ArrayParams) -> int:
    """Subradiant-state count predicted by the first-order effective
    operator (its null-space dimension)."""
    return order1_nullspace_dim(effective_liouvillian(params))


@dataclass
class XiReport:
    n_qubits: int
    omega_r: float
    zero_dim: int
    order1_nullspace_dim: int
    splitting_pt: float       # doublet decay rate from the effective operator
    splitting_full: float     # same rate from the full dense spectrum
    xi_pt: float              # splitting * omega_r^2 / gamma^3
    xi_fit: float             # prefactor of the full-numerics power law
    slope_fit: float          # log-log slope of rate vs omega_r

    def to_json(self):
        return json.dumps({
            "n_qubits": self.n_qubits,
            "omega_r": self.omega_r,
            "zero_dim": self.zero_dim,
            "order1_nullspace_dim": self.order1_nullspace_dim,
            "xi_pt": self.xi_pt,
            "xi_fit": self.xi_fit,
            "slope_fit": self.slope_fit,
        }, indent=2)


def _doublet_splitting(pt: EffectivePT):
    """Decay rate acquired by the non-trivial member of the stationary
    doublet, read off the full third-order effective operator after
    deflating the exact stationary mode (smallest |Re| eigenvalue)."""
    w = np.linalg.eigvals(pt.l_eff_total())
    w = w[np.argsort(np.abs(w.real))]
    return float(-w[1].real)


def xi_coefficient(omega_r=50.0, gamma_1d=1.0, n_qubits=3,
                   fit_range=(10.0, 100.0), fit_points=5,
                   mismatch_tol=0.10) -> XiReport:
    """Splitting coefficient xi of the N=3 subradiant doublet, defined by
    rate = xi * gamma^3 / omega_r^2, from the PT effective operator and
    cross-validated against the full dense spectrum."""
    if n_qubits != 3:
        raise ValueError("xi is defined for the 3-qubit anti-Bragg doublet")
    phi = np.pi / 2
    params = ArrayParams(n_qubits, phi, gamma_1d, omega_r)
    pt = effective_liouvillian(params)
    split_pt = _doublet_splitting(pt)

    rate_full, _ = spectra.second_slowest_rate(build_liouvillian(params))
    oms = np.logspace(np.log10(fit_range[0]), np.log10(fit_range[1]), fit_points) * gamma_1d
    rates = []
    for om in oms:
        p = ArrayParams(n_qubits, phi, gamma_1d, float(om))
        r, _ = spectra.second_slowest_rate(build_liouvillian(p))
        rates.append(r)
    slope, intercept = np.polyfit(np.log(oms), np.log(rates), 1)
    # prefactor of the fitted power law evaluated at the reference drive
    xi_fit = float(np.exp(intercept + slope * np.log(omega_r)) * omega_r ** 2 / gamma_1d ** 3)
    xi_pt = split_pt * omega_r ** 2 / gamma_1d ** 3

    if abs(split_pt - rate_full) > mismatch_tol * abs(rate_full):
        raise ArithmeticError(
            f"PT doublet splitting {split_pt:.6e} disagrees with the full "
            f"spectrum {rate_full:.6e} beyond {mismatch_tol:.0%}")

    return XiReport(
        n_qubits=n_qubits,
        omega_r=omega_r,
        zero_dim=pt.zero_dim,
        order1_nullspace_dim=order1_nullspace_dim(pt),
        splitting_pt=split_pt,
        splitting_full=rate_full,
        xi_pt=xi_pt,
        xi_fit=xi_fit,
        slope_fit=float(slope),
    )
