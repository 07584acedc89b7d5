"""Acceptance gate: one printed PASS/FAIL line per criterion clause.

Run with `pytest -v -s tests/test_acceptance.py` to see the report lines
as they are produced; under plain `pytest -v` the verdicts are visible in
the per-test outcome column. Known-red clauses are asserted exactly as
specified and fail with an explanatory message rather than being skipped
or weakened; see the README for the measured values behind them.
"""

import sys

import numpy as np
import pytest

from antibragg.dynamics import correlation_map, evolve, fully_excited_state
from antibragg.model import (apply_liouvillian, build_liouvillian, unvec, vec)
from antibragg.operators import ArrayParams, lowering_op
from antibragg.perturbation import xi_coefficient
from antibragg.spectra import (UnstableCountError, eigen_density_matrix, full_spectrum,
                               kernel_dimension, second_slowest_rate,
                               subradiant_count)

GAMMA = 1.0


def report(criterion, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {verdict}" + (f" ({detail})" if detail else ""),
          file=sys.stderr)
    assert ok, f"{criterion}: {detail}"


def half_wave_kernel(n):
    return kernel_dimension(build_liouvillian(ArrayParams(n, np.pi, GAMMA, 7.0)))


def anti_bragg_count(n, omega=20.0):
    """Count at the anti-Bragg point; an unstable doubling check reports
    the count at the requested drive together with the doubled-drive value."""
    try:
        return subradiant_count(ArrayParams(n, np.pi / 2, GAMMA, omega)), ""
    except UnstableCountError as exc:
        return exc.count, f"unstable: {exc.count} vs {exc.count_doubled} at doubled drive"


class TestCriterion1DarkStateCounts:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 5), (4, 14)])
    def test_kernel_dimensions(self, n, expected):
        got = half_wave_kernel(n)
        report(f"1 kernel_dimension N={n}", got == expected, f"got {got}, want {expected}")

    @pytest.mark.parametrize("n,expected", [(3, 2), (4, 4), (5, 10), (6, 25)])
    def test_subradiant_counts(self, n, expected):
        got, note = anti_bragg_count(n)
        detail = f"got {got}, want {expected}" + (f"; {note}" if note else "")
        report(f"1 subradiant_count N={n}", got == expected, detail)


class TestCriterion2ProductRule:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_product_of_subarray_kernels(self, n):
        left = half_wave_kernel((n + 1) // 2)
        right = half_wave_kernel(n // 2)
        got, note = anti_bragg_count(n)
        detail = (f"count {got} vs {left}*{right}={left * right}"
                  + (f"; {note}" if note else ""))
        report(f"2 product rule N={n}", got == left * right, detail)


class TestCriterion3AntiBraggDip:
    def test_drive_suppresses_rate_tenfold(self):
        weak, _ = second_slowest_rate(build_liouvillian(ArrayParams(5, np.pi / 2, GAMMA, 0.1)))
        strong, _ = second_slowest_rate(build_liouvillian(ArrayParams(5, np.pi / 2, GAMMA, 10.0)))
        ratio = weak / strong
        report("3 rate suppression N=5, drive 10 vs 0.1", ratio >= 10.0,
               f"weak {weak:.4g} / strong {strong:.4g} = {ratio:.3g}, want >= 10")

    def test_weak_drive_minimum_not_at_quarter_wave(self):
        ds = np.linspace(0.05, 0.95, 19)
        rates = []
        for d in ds:
            p = ArrayParams(5, (2 * np.pi * d) % (2 * np.pi), GAMMA, 0.1)
            rates.append(second_slowest_rate(build_liouvillian(p))[0])
        d_min = ds[int(np.argmin(rates))]
        report("3 weak-drive minimum location", abs(d_min - 0.25) > 1e-12,
               f"minimum at d/lambda={d_min:.3f}")


class TestCriterion4StrongDriveScaling:
    def test_inverse_square_slope(self):
        oms = np.logspace(1, 2, 5)
        rates = [second_slowest_rate(build_liouvillian(ArrayParams(3, np.pi / 2, GAMMA, om)))[0]
                 for om in oms]
        slope = np.polyfit(np.log(oms), np.log(rates), 1)[0]
        report("4 log-log slope N=3", abs(slope + 2.0) <= 0.15, f"slope {slope:.4f}")


@pytest.fixture(scope="module")
def xi():
    return xi_coefficient(omega_r=50.0, gamma_1d=GAMMA)


@pytest.fixture(scope="module")
def trajectories():
    out = {}
    for om in (0.1, 10.0):
        p = ArrayParams(5, np.pi / 2, GAMMA, om)
        out[om] = evolve(p, fully_excited_state(5), t_max=10.0, samples=100)
    return out


class TestCriterion5PerturbationTheory:
    def test_zero_subspace_dimension(self, xi):
        report("5 zero subspace dim", xi.zero_dim == 20, f"got {xi.zero_dim}")

    def test_order1_nullspace_dimension(self, xi):
        report("5 order-1 null space dim", xi.order1_nullspace_dim == 2,
               f"got {xi.order1_nullspace_dim}")

    def test_pt_matches_full_numerics(self, xi):
        rel = abs(xi.splitting_pt - xi.splitting_full) / xi.splitting_full
        report("5 PT vs full splitting", rel <= 0.10, f"relative mismatch {rel:.2%}")

    def test_xi_anchor_informational(self, xi):
        ref = 59.0 / 9.0
        rel = abs(xi.xi_pt - ref) / ref
        # informational: reported with a 5% gate but logged as such
        report("5 xi vs 59/9 (informational)", rel <= 0.05,
               f"xi_pt {xi.xi_pt:.4f}, ref {ref:.4f}, mismatch {rel:.2%}")


class TestCriterion6Checkerboard:
    def test_second_slowest_correlation_pattern(self):
        liou = build_liouvillian(ArrayParams(5, np.pi / 2, GAMMA, 10.0))
        r = full_spectrum(liou, want_vectors=True)
        rho = eigen_density_matrix(r, 1, 32)
        a = np.abs(correlation_map(rho))
        same = min(a[n, m] for n in range(5) for m in range(5)
                   if n != m and (n - m) % 2 == 0)
        opp = max(a[n, m] for n in range(5) for m in range(5) if (n - m) % 2 == 1)
        report("6 checkerboard contrast", same >= 10.0 * opp,
               f"min same-parity {same:.4g} vs max opposite-parity {opp:.4g}")


class TestCriterion7Dynamics:
    def _late(self, traj, n, m):
        return abs(traj.correlators[-1, n - 1, m - 1])

    def test_c31_enhancement(self, trajectories):
        weak = self._late(trajectories[0.1], 3, 1)
        strong = self._late(trajectories[10.0], 3, 1)
        ratio = strong / weak
        report("7 |<s3+ s1>| enhancement", ratio >= 10.0,
               f"strong {strong:.4g} / weak {weak:.4g} = {ratio:.3g}, want >= 10")

    def test_c51_enhancement(self, trajectories):
        weak = self._late(trajectories[0.1], 5, 1)
        strong = self._late(trajectories[10.0], 5, 1)
        ratio = strong / weak
        report("7 |<s5+ s1>| enhancement", ratio >= 10.0,
               f"strong {strong:.4g} / weak {weak:.4g} = {ratio:.3g}, want >= 10")

    def test_trace_drift(self, trajectories):
        worst = max(np.max(t.trace_drift) for t in trajectories.values())
        report("7 trace drift", worst < 1e-8, f"max drift {worst:.2e}")


class TestCriterion8PropertySuites:
    def test_trace_preservation_left_null_vector(self):
        ok = True
        for p in (ArrayParams(2, 1.0, GAMMA, 3.0), ArrayParams(3, np.pi / 2, GAMMA, 5.0)):
            left = vec(np.eye(p.dim)).conj() @ build_liouvillian(p).matrix
            ok = ok and np.max(np.abs(left)) < 1e-12
        report("8 trace-preservation null vector", ok)

    def test_conjugation_symmetry(self):
        w = full_spectrum(build_liouvillian(ArrayParams(3, 1.3, GAMMA, 2.0))).eigenvalues
        ok = all(np.min(np.abs(w - x.conjugate())) < 1e-8 for x in w)
        report("8 spectrum conjugation symmetry", ok)

    def test_dark_projector_invariance(self):
        s1, s2 = lowering_op(1, 2).toarray(), lowering_op(2, 2).toarray()
        vac = np.zeros(4)
        vac[0] = 1.0
        psi = (s1.conj().T + s2.conj().T) @ vac / np.sqrt(2)
        rho = vec(np.outer(psi, psi.conj()))
        rng = np.random.default_rng(2024)
        ok = True
        for om in rng.uniform(0.1, 30.0, size=5):
            liou = build_liouvillian(ArrayParams(2, np.pi, GAMMA, float(om)))
            ok = ok and np.linalg.norm(liou.matrix @ rho) < 1e-10
        report("8 dark projector invariance", ok)

    def test_single_qubit_spectrum(self):
        w = np.sort(full_spectrum(build_liouvillian(ArrayParams(1, 0.4))).eigenvalues.real)
        ok = np.allclose(w, [-2, -1, -1, 0], atol=1e-10)
        report("8 single-qubit spectrum", ok)

    def test_matrix_free_matches_dense(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for n in range(1, 5):
            p = ArrayParams(n, 0.9, GAMMA, 1.7)
            mat = build_liouvillian(p).matrix
            for _ in range(5):
                a = rng.normal(size=(p.dim, p.dim)) + 1j * rng.normal(size=(p.dim, p.dim))
                rho = 0.5 * (a + a.conj().T)
                diff = apply_liouvillian(p, rho) - unvec(mat @ vec(rho), p.dim)
                worst = max(worst, float(np.max(np.abs(diff))))
        report("8 matrix-free vs dense", worst < 1e-12, f"max abs diff {worst:.2e}")
