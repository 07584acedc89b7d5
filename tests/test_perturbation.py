from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from antibragg.model import build_hamiltonian, build_liouvillian, drive_superoperator, vec
from antibragg.operators import ArrayParams, lowering_op
from antibragg.perturbation import (drive_eigenbasis, effective_liouvillian,
                                    order1_nullspace_dim, pt_dark_count,
                                    xi_coefficient, zero_projector)

GAMMA = 1.0


def anti_bragg(n, omega):
    return ArrayParams(n, np.pi / 2, GAMMA, omega)


class TestDriveEigenbasis:
    def test_requires_drive(self):
        with pytest.raises(ValueError):
            drive_eigenbasis(ArrayParams(3, np.pi / 2))

    def test_three_qubit_drive_levels(self):
        # collective-spin ladder: +-3*Omega once, +-Omega three times each
        om = 4.0
        eb = drive_eigenbasis(anti_bragg(3, om))
        counts = {}
        for v in eb.v_eigenvalues:
            key = round(v / om)
            counts[key] = counts.get(key, 0) + 1
        assert counts == {-3: 1, -1: 3, 1: 3, 3: 1}
        assert np.allclose(sorted(eb.jz_labels), sorted(eb.v_eigenvalues / (2 * om)))

    def test_superoperator_multiplicities(self):
        om = 7.0
        eb = drive_eigenbasis(anti_bragg(3, om))
        lam = eb.superop_eigenvalues
        assert np.allclose(lam.real, 0.0, atol=1e-12)
        mult = {}
        for x in lam:
            key = round(x.imag / (2 * om))
            mult[key] = mult.get(key, 0) + 1
        assert mult[0] == 20
        assert mult[1] == mult[-1] == 15
        assert mult[2] == mult[-2] == 6
        assert mult[3] == mult[-3] == 1

    def test_basis_hs_orthonormal(self):
        eb = drive_eigenbasis(anti_bragg(2, 3.0))
        b = eb.basis
        assert np.max(np.abs(b.conj().T @ b - np.eye(16))) < 1e-12

    def test_basis_columns_are_eigenvectors(self):
        params = anti_bragg(2, 5.0)
        eb = drive_eigenbasis(params)
        lv = drive_superoperator(params).toarray()
        res = lv @ eb.basis - eb.basis * eb.superop_eigenvalues
        assert np.max(np.abs(res)) < 1e-10 * params.omega_r

    def test_drive_superoperator_anti_hermitian(self):
        # <<A|L_V B>> = -<<L_V A|B>> for random Hilbert-Schmidt pairs
        params = anti_bragg(3, 2.0)
        lv = drive_superoperator(params).toarray()
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.normal(size=64) + 1j * rng.normal(size=64)
            b = rng.normal(size=64) + 1j * rng.normal(size=64)
            lhs = a.conj() @ (lv @ b)
            rhs = -(lv @ a).conj() @ b
            scale = params.omega_r * np.linalg.norm(a) * np.linalg.norm(b)
            assert abs(lhs - rhs) < 1e-10 * scale


class TestZeroSubspace:
    @pytest.mark.parametrize("params,expected", [
        (ArrayParams(1, 0.3, GAMMA, 2.0), 2),
        (ArrayParams(2, np.pi / 2, GAMMA, 5.0), 6),
        (ArrayParams(3, np.pi / 2, GAMMA, 8.0), 20),
    ])
    def test_dimension(self, params, expected):
        pt = zero_projector(drive_eigenbasis(params))
        assert pt.zero_dim == expected
        assert len(pt.g_diagonal) == params.dim ** 2 - expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dimension_is_central_binomial(self, n):
        pt = zero_projector(drive_eigenbasis(anti_bragg(n, 3.0)))
        assert pt.zero_dim == comb(2 * n, n)

    def test_resolvent_inverts_on_complement(self):
        eb = drive_eigenbasis(anti_bragg(2, 3.0))
        pt = zero_projector(eb)
        lam = eb.superop_eigenvalues[~pt.zero_mask]
        assert np.allclose(pt.g_diagonal * lam, -1.0)


class TestEffectiveOperator:
    @pytest.mark.parametrize("n,expected", [(3, 2), (4, 4), (5, 10), (6, 25)])
    def test_first_order_dark_count(self, n, expected):
        assert pt_dark_count(anti_bragg(n, 20.0)) == expected

    def test_half_wave_dark_projector_all_orders(self):
        # exact dark state stays dark: its zero-subspace image is annihilated
        # by every order of the effective operator
        params = ArrayParams(2, np.pi, GAMMA, 6.0)
        pt = effective_liouvillian(params)
        s1, s2 = lowering_op(1, 2).toarray(), lowering_op(2, 2).toarray()
        vac = np.zeros(4)
        vac[0] = 1.0
        psi = (s1.conj().T + s2.conj().T) @ vac / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        coords = pt.p0_basis.conj().T @ vec(rho)
        assert np.linalg.norm(pt.p0_basis @ coords - vec(rho)) < 1e-10
        for order in (pt.l_eff_order1, pt.l_eff_order2, pt.l_eff_order3):
            assert np.linalg.norm(order @ coords) < 1e-10

    def test_stationary_doublet_partner_in_first_order_nullspace(self):
        # |psi2> = s2^dag (s1^dag + s3^dag)|vac>/sqrt(2); rho = 4|psi2><psi2| - 1
        # is the drive-robust partner of the steady state
        params = anti_bragg(3, 10.0)
        pt = effective_liouvillian(params)
        s = [lowering_op(k, 3).toarray() for k in (1, 2, 3)]
        vac = np.zeros(8)
        vac[0] = 1.0
        psi2 = s[1].conj().T @ ((s[0].conj().T + s[2].conj().T) @ vac) / np.sqrt(2)
        rho = 4.0 * np.outer(psi2, psi2.conj()) - np.eye(8)
        coords = pt.p0_basis.conj().T @ vec(rho)
        # substantial overlap with the zero subspace, and that component is
        # annihilated at first order
        assert np.linalg.norm(coords) == pytest.approx(np.sqrt(8.0), abs=1e-10)
        assert np.linalg.norm(pt.l_eff_order1 @ coords) < 1e-10 * GAMMA

    def test_first_order_spectrum_matches_strong_drive_limit(self):
        # order-1 eigenvalues approximate the slow (O(gamma)) part of the full
        # spectrum when omega_r >> gamma
        params = anti_bragg(3, 50.0)
        pt = effective_liouvillian(params)
        w_eff = np.linalg.eigvals(pt.l_eff_order1)
        w_full = np.linalg.eigvals(build_liouvillian(params).matrix.toarray())
        slow = w_full[np.abs(w_full.imag) < 5.0]
        for x in w_eff:
            assert np.min(np.abs(slow - x)) < 5e-2 * GAMMA

    def test_order_magnitudes_scale_down(self):
        pt = effective_liouvillian(anti_bragg(3, 50.0))
        n1 = np.linalg.norm(pt.l_eff_order1)
        n2 = np.linalg.norm(pt.l_eff_order2)
        n3 = np.linalg.norm(pt.l_eff_order3)
        assert n2 < 0.2 * n1
        assert n3 < 0.2 * n2


def dense_oracle(params):
    """Orders 1-3 mapped back onto the full 4^N space, P0_b M P0_b^H, from
    the dense eigh basis of V and the dense L0. The projection makes the
    comparison independent of the basis chosen inside each degenerate
    drive eigenspace."""
    va, u = np.linalg.eigh(build_hamiltonian(params).v.toarray())
    dim = params.dim
    b = np.kron(u.conj(), u)
    lam = -1j * (np.tile(va, dim) - np.repeat(va, dim))
    z = np.abs(lam) < 1e-9 * params.omega_r
    l0 = (build_liouvillian(params).matrix - drive_superoperator(params)).toarray()
    m0 = b.conj().T @ l0 @ b
    mzz, mzn, mnz, mnn = (m0[np.ix_(r, c)] for r in (z, ~z) for c in (z, ~z))
    g = -1.0 / lam[~z]
    s = mzn @ ((g ** 2)[:, None] * mnz)
    orders = (mzz, mzn @ (g[:, None] * mnz),
              mzn @ (g[:, None] * (mnn @ (g[:, None] * mnz))) - 0.5 * (s @ mzz + mzz @ s))
    bz = b[:, z]
    return [bz @ o @ bz.conj().T for o in orders]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), phi=st.floats(0.0, 6.28), omega_r=st.floats(2.0, 60.0),
       from_right=st.booleans())
def test_effective_orders_match_dense_oracle(n, phi, omega_r, from_right):
    params = ArrayParams(n, phi, GAMMA, omega_r, drive_from_right=from_right)
    pt = effective_liouvillian(params)
    p0 = pt.p0_basis
    for k, (order, want) in enumerate(zip(
            (pt.l_eff_order1, pt.l_eff_order2, pt.l_eff_order3), dense_oracle(params))):
        got = p0 @ order @ p0.conj().T
        # order k+1 is of size gamma (gamma / omega_r)^k; some vanish at N=1
        scale = max(np.max(np.abs(want)), GAMMA * (GAMMA / omega_r) ** k)
        assert np.max(np.abs(got - want)) < 1e-10 * scale


class TestXiCoefficient:
    def test_doublet_splitting_and_scaling(self):
        rep = xi_coefficient(omega_r=50.0)
        assert rep.zero_dim == 20
        assert rep.order1_nullspace_dim == 2
        # PT and full numerics agree at the 10% gate (measured ~0.13%)
        assert abs(rep.splitting_pt - rep.splitting_full) < 0.01 * rep.splitting_full
        # inverse-square drive dependence
        assert rep.slope_fit == pytest.approx(-2.0, abs=0.15)
        # informational anchor: xi -> 59/9 as omega_r grows
        assert abs(rep.xi_pt - 59.0 / 9.0) / (59.0 / 9.0) < 0.05

    def test_xi_fit_consistent_with_pt(self):
        rep = xi_coefficient(omega_r=50.0)
        assert abs(rep.xi_fit - rep.xi_pt) < 0.1 * rep.xi_pt

    def test_json_report_fields(self):
        import json
        rep = xi_coefficient(omega_r=50.0)
        d = json.loads(rep.to_json())
        assert d["zero_dim"] == 20
        assert d["order1_nullspace_dim"] == 2
        assert d["slope_fit"] == pytest.approx(rep.slope_fit)

    def test_rejects_other_sizes(self):
        with pytest.raises(ValueError):
            xi_coefficient(n_qubits=2)
