"""Property tests of the Lindblad core over random arrays (N <= 4).

The reference is the master equation written out literally: dense site
operators from explicit Kronecker products and the N^2 sums of H0 and of
the recycling term, with no code shared with the package.
"""

import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from antibragg.dynamics import correlation_map
from antibragg.model import (apply_liouvillian, build_liouvillian, collective_jumps,
                             lowering_ops, unvec, vec)
from antibragg.operators import ArrayParams

arrays = st.builds(
    ArrayParams,
    n_qubits=st.integers(1, 4),
    phi=st.floats(0.0, 2 * np.pi, exclude_max=True),
    gamma_1d=st.floats(0.1, 3.0),
    omega_r=st.floats(0.0, 30.0),
    drive_from_right=st.booleans(),
)
seeds = st.integers(0, 2 ** 32 - 1)
examples = settings(max_examples=30, deadline=None, derandomize=True)


def site_lowering(n):
    """Dense sigma_m = |g><e| on site m (site 1 leftmost), basis (g, e)."""
    sigma, eye = np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)
    return [functools.reduce(np.kron, [sigma if k == m else eye for k in range(n)])
            for m in range(n)]


def literal_recycling(p, rho):
    """2 gamma_1d sum_{m,k} cos[phi (m-k)] s_m rho s_k^dag."""
    s = site_lowering(p.n_qubits)
    return sum(2 * p.gamma_1d * np.cos(p.phi * (m - k)) * s[m] @ rho @ s[k].conj().T
               for m in range(p.n_qubits) for k in range(p.n_qubits))


def literal_liouvillian(p):
    """The master equation as a dense column-stacked superoperator, term by term."""
    n, phi, g = p.n_qubits, p.phi, p.gamma_1d
    s = site_lowering(n)
    eye = np.eye(2 ** n)
    h = sum(-1j * g * np.exp(1j * phi * abs(m - k)) * s[m].conj().T @ s[k]
            for m in range(n) for k in range(n))
    sign = 1.0 if p.drive_from_right else -1.0
    for k in range(n):
        theta = sign * phi * (k + 1)
        h = h + p.omega_r * (np.exp(1j * theta) * s[k].conj().T + np.exp(-1j * theta) * s[k])
    mat = -1j * np.kron(eye, h) + 1j * np.kron(h.conj(), eye)
    for m in range(n):
        for k in range(n):
            mat = mat + 2 * g * np.cos(phi * (m - k)) * np.kron(s[k].conj(), s[m])
    return mat


def random_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_state(dim, seed):
    a = random_matrix(dim, seed)
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def close(got, want, rtol=1e-12):
    """Max-abs difference within rtol of the reference's scale (at least 1)."""
    return np.max(np.abs(got - want)) <= rtol * max(1.0, np.max(np.abs(want)))


@examples
@given(arrays)
def test_matches_literal_master_equation(p):
    assert np.max(np.abs(build_liouvillian(p).matrix.toarray() - literal_liouvillian(p))) <= 1e-12


@examples
@given(arrays)
def test_trace_left_null_vector(p):
    left = vec(np.eye(p.dim)).conj() @ build_liouvillian(p).matrix
    assert np.max(np.abs(left)) <= 1e-12 * p.gamma_1d * p.n_qubits ** 2


@examples
@given(arrays, seeds)
def test_hermiticity_preserved(p, seed):
    mat = build_liouvillian(p).matrix
    x = random_matrix(p.dim, seed)
    image = unvec(mat @ vec(x), p.dim)
    assert close(unvec(mat @ vec(x.conj().T), p.dim), image.conj().T)


@examples
@given(arrays, seeds)
def test_matrix_free_matches_sparse(p, seed):
    x = random_matrix(p.dim, seed)
    assert close(apply_liouvillian(p, x), unvec(build_liouvillian(p).matrix @ vec(x), p.dim))


@examples
@given(arrays, seeds)
def test_recycling_term_is_two_collective_jumps(p, seed):
    rho = random_matrix(p.dim, seed)
    jumps = [j.toarray() for j in collective_jumps(p, lowering_ops(p.n_qubits))]
    assert close(sum(j @ rho @ j.conj().T for j in jumps), literal_recycling(p, rho))


@examples
@given(st.integers(1, 5), seeds)
def test_correlation_map_matches_dense_trace(n, seed):
    rho = random_state(2 ** n, seed)
    s = site_lowering(n)
    want = np.array([[np.trace(rho @ s[a].conj().T @ s[b]) for b in range(n)]
                     for a in range(n)])
    assert close(correlation_map(rho), want)
