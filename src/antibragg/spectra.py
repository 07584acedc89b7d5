"""Liouvillian spectra: stationary and subradiant mode analysis.

Eigenvalues are sorted ascending by |Re lambda|, ties broken by Im, so
the "second longest-living" state is always index 1. One eigenvalue is
exactly zero (the steady state); dark states add further exact zeros.
"""

import dataclasses
import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from .model import ResourceLimitError, build_liouvillian, unvec, Liouvillian
from .operators import ArrayParams

DENSE_BUDGET_DEFAULT = 4096      # 4^N, i.e. N <= 6
ZERO_TOL = 1e-8                  # |lambda| below this counts as an exact zero
SUBRADIANT_THRESHOLD = 0.1       # |Re lambda| threshold, units gamma_1d


class ConvergenceError(RuntimeError):
    """Iterative eigensolver failed to converge."""


class UnstableCountError(RuntimeError):
    """Subradiant count changed under the drive-doubling stability check."""

    def __init__(self, count, count_doubled):
        super().__init__(
            f"subradiant count unstable: {count} at omega_r vs {count_doubled} at 2*omega_r")
        self.count = count
        self.count_doubled = count_doubled


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray                 # complex, sorted by (|Re|, Im)
    eigenvectors: Optional[np.ndarray]      # columns, HS-normalized, or None
    zero_index: Optional[int]


def _sort_order(w):
    return np.lexsort((w.imag, np.abs(w.real)))


def _fix_phase(vcols):
    for j in range(vcols.shape[1]):
        i = np.argmax(np.abs(vcols[:, j]))
        ph = vcols[i, j]
        if abs(ph) > 0:
            vcols[:, j] *= abs(ph) / ph
    return vcols


def _orthonormalize_degenerate(w, v, tol=1e-10):
    """Gram-Schmidt within groups of (numerically) equal eigenvalues,
    in sorted order, under the Hilbert-Schmidt inner product."""
    i = 0
    while i < len(w):
        j = i + 1
        while j < len(w) and abs(w[j] - w[i]) < tol:
            j += 1
        for a in range(i, j):
            for b in range(i, a):
                v[:, a] -= (v[:, b].conj() @ v[:, a]) * v[:, b]
            nrm = np.linalg.norm(v[:, a])
            if nrm > 0:
                v[:, a] /= nrm
        i = j
    return v


def _package(w, v, matrix=None, residual_scale=None):
    order = _sort_order(w)
    w = w[order]
    if v is not None:
        v = v[:, order]
        v = v / np.linalg.norm(v, axis=0, keepdims=True)
        v = _orthonormalize_degenerate(w, v)
        v = _fix_phase(v)
        if matrix is not None and residual_scale is not None:
            res = np.linalg.norm(matrix @ v - v * w, axis=0)
            worst = float(np.max(res))
            if worst > 1e-8 * residual_scale:
                raise ConvergenceError(
                    f"eigenpair residual {worst:.3e} exceeds 1e-8 * ||L|| = {1e-8*residual_scale:.3e}")
    zmin = int(np.argmin(np.abs(w)))
    zero_index = zmin if np.abs(w[zmin]) < ZERO_TOL else None
    return SpectrumResult(eigenvalues=w, eigenvectors=v, zero_index=zero_index)


def full_spectrum(liou: Liouvillian, want_vectors=False,
                  dense_budget=DENSE_BUDGET_DEFAULT) -> SpectrumResult:
    """Dense eigendecomposition of the full superoperator (LAPACK zgeev:
    Hessenberg reduction + shifted QR)."""
    mat = liou.matrix
    if mat.shape[0] > dense_budget:
        raise ResourceLimitError(
            f"dimension {mat.shape[0]} exceeds dense budget {dense_budget}; "
            "use targeted_spectrum for the near-stationary part")
    dense = mat.toarray()
    if want_vectors:
        w, v = scipy.linalg.eig(dense)
        scale = scipy.sparse.linalg.norm(mat)
        return _package(w, v, matrix=dense, residual_scale=scale)
    w = scipy.linalg.eigvals(dense)
    return _package(w, None)


def targeted_spectrum(liou: Liouvillian, shift=0.0, k=8, maxiter=None) -> SpectrumResult:
    """k eigenvalues nearest the shift via shift-invert Arnoldi.

    The factorization shift is nudged off the exact stationary eigenvalue
    so the sparse LU stays well defined; reported eigenvalues are those of
    the original operator.
    """
    mat = liou.matrix.tocsc()
    if k >= mat.shape[0]:
        raise ValueError(f"k={k} must be smaller than the dimension {mat.shape[0]}")
    g = liou.params.gamma_1d
    sigma = complex(shift)
    if abs(sigma) < ZERO_TOL * g:
        sigma += 1e-6 * g * (1 + 1j)  # avoid factorizing a singular matrix
    try:
        try:
            w, v = scipy.sparse.linalg.eigs(mat, k=k, sigma=sigma, which="LM",
                                            maxiter=maxiter)
        except RuntimeError:
            # shift hit an eigenvalue exactly; nudge off the real axis
            sigma += 1e-6 * g * (1 + 1j)
            w, v = scipy.sparse.linalg.eigs(mat, k=k, sigma=sigma, which="LM",
                                            maxiter=maxiter)
    except ArpackNoConvergence as exc:
        got = len(exc.eigenvalues)
        raise ConvergenceError(
            f"shift-invert Arnoldi converged only {got}/{k} pairs at shift {shift}") from exc
    return _package(w, v, matrix=mat, residual_scale=scipy.sparse.linalg.norm(mat))


@functools.lru_cache(maxsize=64)
def _eigenvalues_cached(params: ArrayParams):
    return full_spectrum(build_liouvillian(params)).eigenvalues


def second_slowest_rate(liou: Liouvillian, zero_tol=ZERO_TOL):
    """Decay rate -Re(lambda) of the second longest-living state.

    Exactly one zero mode is excluded; with a degenerate dark kernel the
    rate is 0. Returns (rate, zero_multiplicity).
    """
    w = full_spectrum(liou).eigenvalues
    nzero = int(np.sum(np.abs(w) < zero_tol * liou.params.gamma_1d))
    if nzero > 1:
        return 0.0, nzero
    wnz = w[np.abs(w) >= zero_tol * liou.params.gamma_1d]
    return float(-wnz[0].real), nzero


def kernel_dimension(liou: Liouvillian, tol=ZERO_TOL):
    """Number of dark eigenstates: eigenvalues with |lambda| < tol."""
    w = full_spectrum(liou).eigenvalues
    return int(np.sum(np.abs(w) < tol * liou.params.gamma_1d))


def subradiant_count(params: ArrayParams, rate_threshold=SUBRADIANT_THRESHOLD,
                     check_stability=True):
    """Number of subradiant eigenvalues, |Re lambda| < rate_threshold
    (exact zeros included), at the anti-Bragg working point.

    The count must be unchanged when the drive is doubled, otherwise the
    threshold is slicing through a drifting eigenvalue and the count is
    meaningless; that case raises UnstableCountError.
    """
    thr = rate_threshold * params.gamma_1d

    def count_at(p):
        w = _eigenvalues_cached(p)
        return int(np.sum(np.abs(w.real) < thr))

    c = count_at(params)
    if check_stability:
        c2 = count_at(dataclasses.replace(params, omega_r=2.0 * params.omega_r))
        if c2 != c:
            raise UnstableCountError(c, c2)
    return c


def eigen_density_matrix(result: SpectrumResult, index, dim):
    """Reshape eigenvector `index` into its density-matrix form."""
    if result.eigenvectors is None:
        raise ValueError("spectrum was computed without eigenvectors")
    return unvec(result.eigenvectors[:, index], dim)


OBSERVABLES = ("second_slowest_rate", "subradiant_count")


@dataclass
class SweepRow:
    params: ArrayParams
    observable: str
    value: float
    zero_multiplicity: int
    status: str


def _sweep_point(args):
    params, observable, rate_threshold = args
    try:
        if observable == "second_slowest_rate":
            rate, nzero = second_slowest_rate(build_liouvillian(params))
            return SweepRow(params, observable, rate, nzero, "ok")
        if observable == "subradiant_count":
            c = subradiant_count(params, rate_threshold)
            w = _eigenvalues_cached(params)
            nzero = int(np.sum(np.abs(w) < ZERO_TOL * params.gamma_1d))
            return SweepRow(params, observable, float(c), nzero, "ok")
        return SweepRow(params, observable, float("nan"), 0, f"unknown observable {observable}")
    except UnstableCountError as exc:
        return SweepRow(params, observable, float(exc.count), 0, "unstable")
    except Exception as exc:  # per-row failure: record and continue
        return SweepRow(params, observable, float("nan"), 0, f"error: {exc}")


def sweep(params_grid, observable, rate_threshold=SUBRADIANT_THRESHOLD, jobs=None):
    """Evaluate an observable on a parameter grid, one row per point,
    in grid order. jobs > 1 distributes points over worker processes."""
    if observable not in OBSERVABLES:
        raise ValueError(f"observable must be one of {OBSERVABLES}")
    work = [(p, observable, rate_threshold) for p in params_grid]
    if jobs is not None and jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_sweep_point, work))
    return [_sweep_point(a) for a in work]
