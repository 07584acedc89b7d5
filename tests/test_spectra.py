import dataclasses

import numpy as np
import pytest

from antibragg import spectra
from antibragg.dynamics import correlation_map
from antibragg.model import Liouvillian, ResourceLimitError, build_liouvillian, vec
from antibragg.operators import ArrayParams, lowering_op
from antibragg.spectra import (UnstableCountError, eigen_density_matrix, full_spectrum,
                               kernel_dimension, second_slowest_rate,
                               subradiant_count, sweep, targeted_spectrum)


def liou(n, phi, omega=0.0, gamma=1.0):
    return build_liouvillian(ArrayParams(n, phi, gamma, omega))


class TestFullSpectrum:
    def test_single_qubit_analytic(self):
        r = full_spectrum(liou(1, 0.3))
        assert np.allclose(sorted(r.eigenvalues.real), [-2, -1, -1, 0], atol=1e-12)
        assert np.allclose(r.eigenvalues.imag, 0.0, atol=1e-12)
        assert r.zero_index == 0

    def test_half_wave_driven_degenerate_kernel(self):
        r = full_spectrum(liou(2, np.pi, omega=5.0))
        assert np.sum(np.abs(r.eigenvalues) < 1e-8) >= 2

    def test_bragg_three_qubits_five_dark(self):
        r = full_spectrum(liou(3, 0.0, omega=3.0))
        assert np.sum(np.abs(r.eigenvalues) < 1e-8) == 5

    @pytest.mark.parametrize("params", [
        ArrayParams(2, 1.0, omega_r=2.0),
        ArrayParams(3, np.pi / 2, omega_r=10.0),
        ArrayParams(3, 2.2, omega_r=0.5),
    ])
    def test_conjugation_symmetry(self, params):
        w = full_spectrum(build_liouvillian(params)).eigenvalues
        for x in w:
            assert np.min(np.abs(w - x.conjugate())) < 1e-8

    def test_sorted_by_abs_real_then_imag(self):
        w = full_spectrum(liou(3, np.pi / 2, omega=4.0)).eigenvalues
        keys = list(zip(np.abs(w.real), w.imag))
        assert keys == sorted(keys)

    def test_eigenvector_residuals(self):
        l = liou(3, 1.7, omega=2.5)
        r = full_spectrum(l, want_vectors=True)
        mat = l.matrix.toarray()
        scale = np.linalg.norm(mat)
        res = np.linalg.norm(mat @ r.eigenvectors - r.eigenvectors * r.eigenvalues, axis=0)
        assert np.max(res) < 1e-8 * scale
        # HS normalization and phase convention
        assert np.allclose(np.linalg.norm(r.eigenvectors, axis=0), 1.0)
        for j in range(r.eigenvectors.shape[1]):
            top = r.eigenvectors[np.argmax(np.abs(r.eigenvectors[:, j])), j]
            assert abs(top.imag) < 1e-10 and top.real > 0

    def test_budget_error(self):
        with pytest.raises(ResourceLimitError):
            full_spectrum(liou(4, 0.5), dense_budget=64)


class TestTargetedSpectrum:
    def test_known_kernel(self):
        r = targeted_spectrum(liou(2, np.pi, omega=3.0), shift=0.0, k=2)
        assert np.all(np.abs(r.eigenvalues) < 1e-8)

    def test_single_qubit_fast_mode(self):
        r = targeted_spectrum(liou(1, 0.1), shift=-2.0, k=1)
        assert abs(r.eigenvalues[0] - (-2.0)) < 1e-8

    def test_agrees_with_dense_at_n5(self):
        l = liou(5, np.pi / 2, omega=10.0)
        dense = full_spectrum(l).eigenvalues[:10]
        r = targeted_spectrum(l, shift=0.0, k=12)
        for x in dense:
            assert np.min(np.abs(r.eigenvalues - x)) < 1e-7

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            targeted_spectrum(liou(1, 0.1), k=4)


class TestScalarObservables:
    def test_single_qubit_second_slowest(self):
        rate, nzero = second_slowest_rate(liou(1, 0.2))
        assert rate == pytest.approx(1.0, abs=1e-10)
        assert nzero == 1

    def test_degenerate_dark_kernel_reports_zero(self):
        rate, nzero = second_slowest_rate(liou(2, np.pi, omega=10.0))
        assert rate == 0.0
        assert nzero == 2

    def test_rate_read_from_the_given_matrix(self):
        l = liou(3, 1.1, omega=2.0)
        rate, _ = second_slowest_rate(l)
        doubled, _ = second_slowest_rate(Liouvillian(l.params, 2 * l.matrix))
        assert doubled == pytest.approx(2 * rate, rel=1e-10)

    def test_kernel_read_from_the_given_matrix(self):
        # a half-wave matrix under off-Bragg params keeps its two dark states
        half_wave = liou(2, np.pi, omega=5.0).matrix
        assert kernel_dimension(Liouvillian(ArrayParams(2, 1.0, omega_r=5.0), half_wave)) == 2

    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 5), (4, 14)])
    def test_half_wave_kernel_dimensions(self, n, expected):
        assert kernel_dimension(liou(n, np.pi, omega=7.0)) == expected

    @pytest.mark.parametrize("n,expected", [(4, 4), (5, 10)])
    def test_anti_bragg_subradiant_counts(self, n, expected):
        # the 0.1*gamma threshold captures the full subarray-product set
        # once the drive reaches 20*gamma
        p = ArrayParams(n, np.pi / 2, omega_r=20.0)
        assert subradiant_count(p) == expected

    def test_unstable_count_flagged(self):
        # at 5*gamma part of the split set still sits above the threshold,
        # so doubling the drive changes the count
        p = ArrayParams(5, np.pi / 2, omega_r=5.0)
        with pytest.raises(UnstableCountError):
            subradiant_count(p)

    def test_doubled_drive_keeps_mirror_flag(self, monkeypatch):
        seen = []

        def record(params):
            seen.append(params)
            return np.zeros(1, dtype=complex)

        monkeypatch.setattr(spectra, "_eigenvalues_cached", record)
        p = ArrayParams(3, np.pi / 2, omega_r=4.0, drive_from_right=True)
        subradiant_count(p)
        assert seen == [p, dataclasses.replace(p, omega_r=8.0)]
        assert seen[1].drive_from_right

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_undriven_anti_bragg_rate_scaling(self, n):
        # slowest nonzero rate ~ pi^2 gamma / N^3 at d = lambda/4
        rate, _ = second_slowest_rate(liou(n, np.pi / 2))
        ratio = rate / (1.0 / n ** 3)
        assert 0.5 * np.pi ** 2 < ratio < 2.0 * np.pi ** 2

    def test_strong_drive_power_law(self):
        oms = np.logspace(1, 2, 5)
        rates = [second_slowest_rate(liou(3, np.pi / 2, omega=om))[0] for om in oms]
        slope = np.polyfit(np.log(oms), np.log(rates), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.15)


class TestCorrelations:
    def test_half_wave_dark_state(self):
        s1, s2 = lowering_op(1, 2).toarray(), lowering_op(2, 2).toarray()
        vac = np.zeros(4)
        vac[0] = 1.0
        psi = (s1.conj().T + s2.conj().T) @ vac / np.sqrt(2)
        c = correlation_map(np.outer(psi, psi.conj()))
        assert np.allclose(np.abs(c), 0.5, atol=1e-12)

    def test_maximally_mixed(self):
        c = correlation_map(np.eye(8) / 8)
        assert np.allclose(np.diag(c), 0.5, atol=1e-12)
        assert np.max(np.abs(c - np.diag(np.diag(c)))) < 1e-12

    def test_second_slowest_checkerboard(self):
        l = liou(5, np.pi / 2, omega=10.0)
        r = full_spectrum(l, want_vectors=True)
        rho = eigen_density_matrix(r, 1, 32)
        a = np.abs(correlation_map(rho))
        same = [a[n, m] for n in range(5) for m in range(5) if n != m and (n - m) % 2 == 0]
        opp = [a[n, m] for n in range(5) for m in range(5) if (n - m) % 2 == 1]
        assert min(same) >= 10 * max(opp)


class TestSweep:
    def test_single_point_matches_scalar(self):
        p = ArrayParams(3, np.pi / 2, omega_r=2.0)
        rows = sweep([p], "second_slowest_rate")
        assert len(rows) == 1
        rate, nzero = second_slowest_rate(build_liouvillian(p))
        assert rows[0].value == rate
        assert rows[0].zero_multiplicity == nzero
        assert rows[0].status == "ok"

    def test_grid_order_and_row_failure(self):
        good = ArrayParams(2, 1.0, omega_r=1.0)
        bad = ArrayParams(8, 1.0)  # over the builder budget
        rows = sweep([good, bad, good], "second_slowest_rate")
        assert [r.status for r in rows] == ["ok", rows[1].status, "ok"]
        assert rows[1].status.startswith("error:")
        assert np.isnan(rows[1].value)

    def test_parallel_matches_serial(self):
        grid = [ArrayParams(2, phi, omega_r=1.5) for phi in (0.5, 1.0, 1.5, 2.0)]
        serial = sweep(grid, "second_slowest_rate")
        parallel = sweep(grid, "second_slowest_rate", jobs=2)
        assert [r.value for r in serial] == [r.value for r in parallel]

    def test_unstable_row_recorded(self):
        rows = sweep([ArrayParams(5, np.pi / 2, omega_r=5.0)], "subradiant_count")
        assert rows[0].status == "unstable"

    def test_unknown_observable(self):
        with pytest.raises(ValueError):
            sweep([ArrayParams(1, 0.1)], "not_an_observable")
