import pathlib
import sys

import numpy as np
import pytest

from convalg import (TorusGrid, check_character_equation,
                     classify_torus_operator, extract_kernels,
                     fourier_coefficient_operator, recover_frequency,
                     rel_residual)
from convalg.errors import (CharacterEquationViolation, NotUnimodular,
                            SnapFailure)
from convalg import torus
from convalg.groups import character_certified, nearest_characters
from convalg.torus import KernelFamily, character

from helpers import CERTIFICATE_TOLS, FLOOR, edge_rows

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def noisy_character(grid, a, amplitude, seed):
    rng = np.random.default_rng(seed)
    r = amplitude * np.sqrt(rng.uniform(0, 1, grid.M))
    th = rng.uniform(0, 2 * np.pi, grid.M)
    return character(grid, a) + r * np.exp(1j * th)


class TestKernelExtraction:
    def test_coefficient_map_kernels_are_characters(self):
        grid = TorusGrid(64)
        fam = extract_kernels(fourier_coefficient_operator(grid, 8), grid)
        for xi in fam.frequencies:
            assert np.allclose(fam.kernel(xi), character(grid, -xi), atol=1e-12)

    def test_zero_table(self):
        grid = TorusGrid(16)
        fam = extract_kernels(np.zeros((5, 16)), grid)
        assert np.array_equal(fam.kernels, np.zeros((5, 16)))

    def test_dimension_mismatch(self):
        grid = TorusGrid(16)
        with pytest.raises(ValueError):
            extract_kernels(np.zeros((4, 16)), grid)   # even row count
        with pytest.raises(ValueError):
            extract_kernels(np.zeros((5, 8)), grid)    # wrong M

    def test_quadrature_matches_application(self):
        grid = TorusGrid(32)
        T = fourier_coefficient_operator(grid, 4)
        fam = extract_kernels(T, grid)
        rng = np.random.default_rng(1)
        f = rng.normal(size=32) + 1j * rng.normal(size=32)
        out = T @ f
        for r, xi in enumerate(fam.frequencies):
            quad = np.sum(f * fam.kernel(xi)) * grid.weight
            assert out[r] == pytest.approx(quad)


class TestCharacterEquation:
    def test_exact_character_residual_zero(self):
        rep = check_character_equation(character(TorusGrid(64), 3))
        assert rep.passed
        assert rep.max_residual <= 1e-12

    def test_zero_kernel_passes(self):
        assert check_character_equation(np.zeros(64)).passed

    def test_affine_function_fails(self):
        grid = TorusGrid(64)
        h = 1 + grid.points
        rep = check_character_equation(h)
        assert not rep.passed
        assert rep.witness is not None
        # the documented pair (M/4, M/4) violates by |1.5 - 1.25^2| = 0.0625
        i = j = 16
        assert abs(h[(i + j) % 64] - h[i] * h[j]) == pytest.approx(0.0625)

    def test_modulus_dichotomy_logic(self):
        # near-unimodular non-character: equation must flag it
        grid = TorusGrid(32)
        h = np.exp(2j * np.pi * np.sin(2 * np.pi * grid.points))
        assert not check_character_equation(h).passed


class TestRecoverFrequency:
    def test_simple_character(self):
        assert recover_frequency(character(TorusGrid(64), 3)) == 3

    def test_trivial_character(self):
        assert recover_frequency(np.ones(64)) == 0

    def test_negative_frequency_with_noise(self):
        grid = TorusGrid(256)
        h = noisy_character(grid, -7, 1e-3, seed=42)
        assert recover_frequency(h, 1e-2) == -7

    def test_smoothing_averages_noise_down(self):
        # all small frequencies with noise, exact recovery
        grid = TorusGrid(256)
        for a in range(-10, 11):
            h = noisy_character(grid, a, 1e-3, seed=a + 50)
            assert recover_frequency(h, 1e-2) == a

    def test_lag_degeneracy_handled(self):
        grid = TorusGrid(256)
        assert recover_frequency(character(grid, 8)) == 8

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodular):
            recover_frequency(0.5 * character(TorusGrid(64), 2))

    def test_snap_failure_on_wrong_reverify(self):
        # passes unimodularity but is no character: re-verification must fail
        grid = TorusGrid(64)
        h = np.exp(2j * np.pi * np.sin(2 * np.pi * grid.points))
        with pytest.raises(SnapFailure):
            recover_frequency(h)


class TestClassify:
    def test_coefficient_map_full_support_identity(self):
        grid = TorusGrid(64)
        cls = classify_torus_operator(
            extract_kernels(fourier_coefficient_operator(grid, 8), grid))
        assert cls.support == tuple(range(-8, 9))
        assert cls.freq_map == {xi: xi for xi in range(-8, 9)}
        assert cls.residual <= 1e-10

    def test_zeroed_rows_leave_support(self):
        grid = TorusGrid(64)
        T = np.array(fourier_coefficient_operator(grid, 8))
        T[:8] = 0.0
        cls = classify_torus_operator(extract_kernels(T, grid))
        assert cls.support == tuple(range(0, 9))
        assert all(cls.freq_map[xi] == xi for xi in range(0, 9))

    @pytest.mark.parametrize("M", range(2, 65))
    def test_every_exponent_including_nyquist(self, M):
        # one kernel per a in (-M/2, M/2]; with M even, the last row is zero
        grid = TorusGrid(M)
        N = M // 2
        planted = range(-((M - 1) // 2), M // 2 + 1)
        rows = np.zeros((2 * N + 1, M), dtype=complex)
        for r, a in enumerate(planted):
            rows[r] = character(grid, a)
        cls = classify_torus_operator(KernelFamily(grid, N, rows))
        assert cls.support == tuple(r - N for r in range(M))
        for r, a in enumerate(planted):
            assert cls.freq_map[r - N] == -a

    def test_frequency_flip(self):
        grid = TorusGrid(64)
        rows = np.stack([character(grid, xi) for xi in range(-8, 9)])
        cls = classify_torus_operator(KernelFamily(grid, 8, rows))
        assert cls.freq_map == {xi: -xi for xi in range(-8, 9)}

    def test_character_violation_carries_frequency(self):
        grid = TorusGrid(32)
        T = np.array(fourier_coefficient_operator(grid, 2))
        T[3] = (1 + grid.points) * grid.weight
        with pytest.raises(CharacterEquationViolation) as exc:
            classify_torus_operator(extract_kernels(T, grid))
        assert exc.value.xi == 1

    def test_residual_is_distance_to_rebuilt_characters(self):
        grid = TorusGrid(64)
        T = np.array(fourier_coefficient_operator(grid, 5))
        T[2] = 0.0
        T += 1e-12 * np.random.default_rng(0).normal(size=T.shape) * grid.weight
        cls = classify_torus_operator(extract_kernels(T, grid))
        canonical = np.zeros_like(T)
        for xi in cls.support:
            canonical[xi + 5] = character(grid, -cls.freq_map[xi])
        assert cls.residual == rel_residual(extract_kernels(T, grid).kernels, canonical)
        assert 0 < cls.residual <= 1e-11

    def test_kernel_near_zero_passing_the_check_leaves_support(self):
        # above the cheap tol skip, but within the check's reach of c * chi
        grid = TorusGrid(64)
        h = 1.000000001e-9 * character(grid, 3)
        assert check_character_equation(h, 1e-9).passed
        cls = classify_torus_operator(KernelFamily(grid, 0, h[None]), 1e-9)
        assert cls.support == () and cls.freq_map == {}

    def test_degenerate_dichotomy(self):
        grid = TorusGrid(64)
        T = np.array(fourier_coefficient_operator(grid, 5))
        T[2] = 0.0
        cls = classify_torus_operator(extract_kernels(T, grid))
        fam = extract_kernels(T, grid)
        for xi in fam.frequencies:
            h = fam.kernel(xi)
            sup = np.max(np.abs(h))
            assert sup <= 1e-9 or abs(sup - 1) <= 1e-9


class TestPassImpliesClassifies:
    @pytest.mark.parametrize("M", [16, 32, 64, 128])
    def test_near_characters_passing_the_check_classify(self, M):
        # chi (1 + e), (1 + eps) chi and chi e^{i theta} at amplitudes around
        # tol: whichever passes the character check must classify to its
        # planted frequency
        grid = TorusGrid(M)
        rng = np.random.default_rng(M)
        passed = 0
        for amplitude in np.logspace(-11, -8, 10):
            for _ in range(12):
                a = int(rng.integers(-(M // 2) + 1, M // 2 + 1))
                chi = character(grid, a)
                noise = rng.normal(size=M) + 1j * rng.normal(size=M)
                for h in (chi * (1 + amplitude * noise),
                          (1 + amplitude * noise[0]) * chi,
                          chi * np.exp(1j * amplitude * noise.real)):
                    if not check_character_equation(h, 1e-9).passed:
                        continue
                    passed += 1
                    cls = classify_torus_operator(KernelFamily(grid, 0, h[None]), 1e-9)
                    assert cls.freq_map == {0: -a}
        assert passed >= 200


class TestCertificate:
    @pytest.mark.parametrize("M", [2, 3, 8, 64, 128])
    def test_a_certified_kernel_passes_the_check(self, M):
        # around the edge of each bound, from below and above it: wherever the
        # certificate fires, the exact check passes at the same tol
        grid = TorusGrid(M)
        rng = np.random.default_rng(M)
        fired: dict[str, int] = {}
        for tol in CERTIFICATE_TOLS:
            for a in sorted({0, M // 2, int(rng.integers(M))}):
                for s in (0.5, 0.9, 0.999, 1.0, 1.001, 1.1):
                    kernels = edge_rows(character(grid, a), tol, s, rng)
                    rows = np.array(list(kernels.values()))
                    certified = character_certified(rows, tol, nearest_characters(rows))
                    assert tol > 1e-17 or not certified.any()
                    for (kind, h), cert in zip(kernels.items(), certified):
                        if cert:
                            fired[kind] = fired.get(kind, 0) + 1
                            assert check_character_equation(h, tol).passed, (kind, tol, a, s)
        assert len(fired) == 4 and min(fired.values()) >= 20, fired

    def test_exact_characters_certify_above_the_floor_only(self):
        kernels = np.array([character(TorusGrid(64), a) for a in range(64)])
        nearest = nearest_characters(kernels)
        assert not character_certified(kernels, FLOOR / 2, nearest).any()
        assert character_certified(kernels, 2 * FLOOR, nearest).all()


def counted_checks(monkeypatch) -> list:
    """The kernels that classify_torus_operator sends to the exact check."""
    seen = []

    def counting(h, tol):
        seen.append(h)
        return check_character_equation(h, tol)

    monkeypatch.setattr(torus, "check_character_equation", counting)
    return seen


class TestCertifiedWork:
    @pytest.mark.parametrize("M, N", [(64, 8), (256, 32), (512, 64)])
    def test_passing_family_runs_no_exact_check(self, monkeypatch, M, N):
        seen = counted_checks(monkeypatch)
        kernels, (_, want) = workloads.torus_case(np.random.default_rng(M), M, N, None, N + 1)
        cls = classify_torus_operator(KernelFamily(TorusGrid(M), N, kernels))
        assert list(cls.support) == want["support"]
        assert [list(p) for p in cls.freq_map.items()] == want["freq_map"]
        assert seen == []

    @pytest.mark.parametrize("broken", [None, "perturbed-sample"])
    def test_one_nearest_characters_call_per_family(self, monkeypatch, broken):
        # the certificate and frequency recovery share the family's exponents and distances
        calls = []

        def counting(rows):
            calls.append(np.shape(rows))
            return nearest_characters(rows)

        monkeypatch.setattr(torus, "nearest_characters", counting)
        M, N = 256, 32
        kernels, (_, want) = workloads.torus_case(np.random.default_rng(7), M, N, broken, N + 1)
        family = KernelFamily(TorusGrid(M), N, kernels)
        if broken is None:
            assert list(classify_torus_operator(family).support) == want["support"]
        else:
            with pytest.raises(CharacterEquationViolation):
                classify_torus_operator(family)
        assert calls == [(2 * N + 1, M)]

    @pytest.mark.parametrize("broken", ["perturbed-sample", "half-frequency"])
    def test_broken_family_runs_the_exact_check_once(self, monkeypatch, broken):
        seen = counted_checks(monkeypatch)
        M, N = 256, 32
        kernels, (_, want) = workloads.torus_case(np.random.default_rng(5), M, N, broken, N + 1)
        with pytest.raises(CharacterEquationViolation) as exc:
            classify_torus_operator(KernelFamily(TorusGrid(M), N, kernels))
        assert exc.value.details["xi"] == want["xi"]
        assert len(seen) == 1 and np.array_equal(seen[0], kernels[want["xi"] + N])


class TestQuadrature:
    def test_convolution_to_product_at_desk_scale(self):
        # operators built from character kernels send circular convolution
        # of band-limited signals to entrywise products
        M = 128
        grid = TorusGrid(M)
        N = 6
        T = fourier_coefficient_operator(grid, N)
        rng = np.random.default_rng(3)
        freqs = np.arange(-10, 11)
        cf = rng.normal(size=freqs.size) + 1j * rng.normal(size=freqs.size)
        cg = rng.normal(size=freqs.size) + 1j * rng.normal(size=freqs.size)
        f = (cf[None, :] * np.exp(2j * np.pi * np.outer(grid.points, freqs))).sum(axis=1)
        g = (cg[None, :] * np.exp(2j * np.pi * np.outer(grid.points, freqs))).sum(axis=1)
        # circle convolution via the grid Riemann sum
        conv = np.array([np.sum(f * np.roll(g[::-1], i + 1)) for i in range(M)]) / M
        lhs = T @ conv
        rhs = (T @ f) * (T @ g)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_product_rule_identity(self):
        # double sums over index boxes of a character factor exactly
        M = 64
        grid = TorusGrid(M)
        h = character(grid, 5)
        A = np.arange(7, 19)
        B = np.arange(40, 55)
        lhs = sum(h[(i + j) % M] for i in A for j in B) / M ** 2
        rhs = (h[A].sum() / M) * (h[B].sum() / M)
        assert abs(lhs - rhs) <= 1e-8


class TestGrid:
    def test_points_layout(self):
        grid = TorusGrid(8)
        assert np.allclose(grid.points, np.arange(8) / 8)
        assert grid.weight == pytest.approx(1 / 8)

    def test_min_size(self):
        with pytest.raises(ValueError):
            TorusGrid(1)
