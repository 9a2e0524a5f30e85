import numpy as np
import pytest

from convalg import jsonio, twisted
from convalg.errors import GridMismatch
from convalg.twisted import (OperatorKernel, PhaseSpaceFunction, PlaneGrid,
                             compose_kernels, gaussian_pair, relative_l2,
                             rho_kernel, twisted_convolve,
                             verify_rho_homomorphism)
from helpers import FIXTURES, OffLatticeShift, lattice_index, rho_point


def direct_twisted_convolve(f, g):
    """Quadruple loop over the defining Riemann sum (slow oracle)."""
    grid = f.grid
    S, h, c = grid.side, grid.step, grid.side // 2
    X = grid.axis
    out = np.zeros((S, S), dtype=complex)
    for i in range(S):
        for j in range(S):
            acc = 0.0 + 0.0j
            for a in range(S):
                ia = i - a + c
                if not 0 <= ia < S:
                    continue
                for b in range(S):
                    jb = j - b + c
                    if not 0 <= jb < S:
                        continue
                    acc += (f.values[ia, jb] * g.values[a, b]
                            * np.exp(1j * np.pi * (X[i] * X[b] - X[j] * X[a])))
            out[i, j] = h * h * acc
    return out


def direct_rho_kernel(f):
    """Double loop over the defining q-sum (slow oracle)."""
    grid = f.grid
    S, h, c = grid.side, grid.step, grid.side // 2
    X = grid.axis
    K = np.zeros((S, S), dtype=complex)
    for i in range(S):
        for j in range(S):
            m = j - i + c
            if 0 <= m < S:
                K[i, j] = h * np.sum(
                    f.values[m] * np.exp(1j * np.pi * X * (X[i] + X[j])))
    return K


# S = 2 is the smallest circular length 3S/2 = 3; L = 7.5 puts phase arguments
# in the hundreds of radians
ORACLE_GRIDS = [(0.5, 2), (1.5, 6), (4.0, 16), (7.5, 12)]
# the smallest sides, each once with S >= (2L)^2 and once under-resolved
SMALL_GRIDS = [(L, S) for S in (2, 4, 6, 10) for L in (0.45 * np.sqrt(S), 2.0 + S / 4)]


def displaced_gaussian(grid, dx, dy):
    gx = np.exp(-np.pi * (grid.axis - dx) ** 2)
    gy = np.exp(-np.pi * (grid.axis - dy) ** 2)
    return PhaseSpaceFunction(grid, np.outer(gx, gy))


class TestGrid:
    def test_layout(self):
        g = PlaneGrid(4.0, 8)
        assert g.step == pytest.approx(1.0)
        assert np.allclose(g.axis, np.arange(8) - 4.0)

    def test_side_must_be_even(self):
        with pytest.raises(ValueError):
            PlaneGrid(4.0, 7)

    def test_off_lattice_shift(self):
        g = PlaneGrid(4.0, 16)
        assert lattice_index(g, 1.0) == 2
        with pytest.raises(OffLatticeShift):
            lattice_index(g, 0.3)

    def test_resolution_predicate(self):
        assert PlaneGrid(4.0, 64).resolves_phases()
        assert not PlaneGrid(8.0, 64).resolves_phases()


class TestTwistedConvolve:
    def test_zero_annihilates(self):
        grid = PlaneGrid(4.0, 16)
        z = PhaseSpaceFunction(grid, np.zeros((16, 16)))
        got = twisted_convolve(gaussian_pair(grid), z)
        assert np.array_equal(got.values, np.zeros((16, 16)))

    def test_grid_delta_sifts(self):
        grid = PlaneGrid(4.0, 32)
        S = 32
        vals = np.zeros((S, S))
        vals[S // 2, S // 2] = 1.0 / grid.step ** 2
        dm = PhaseSpaceFunction(grid, vals)
        f = gaussian_pair(grid)
        assert np.max(np.abs(twisted_convolve(f, dm).values - f.values)) <= 1e-12

    @pytest.mark.parametrize("L, S", ORACLE_GRIDS)
    def test_matches_direct_quadruple_sum(self, L, S):
        grid = PlaneGrid(L, S)
        rng = np.random.default_rng(0)
        f = PhaseSpaceFunction(grid, (rng.normal(size=(S, S))
                                      + 1j * rng.normal(size=(S, S)))
                               * np.outer(np.exp(-grid.axis ** 2),
                                          np.exp(-grid.axis ** 2)))
        g = displaced_gaussian(grid, 0.5, -0.5)
        fast = twisted_convolve(f, g).values
        slow = direct_twisted_convolve(f, g)
        assert np.max(np.abs(fast - slow)) <= 1e-12

    @pytest.mark.parametrize("L, S", SMALL_GRIDS)
    def test_matches_direct_sum_on_small_grids(self, L, S):
        # every row pair (u, a), the window edges and both sides of the phase resolution
        grid = PlaneGrid(L, S)
        rng = np.random.default_rng(S)
        f, g = (PhaseSpaceFunction(grid, rng.normal(size=(S, S)) + 1j * rng.normal(size=(S, S)))
                for _ in range(2))
        assert grid.resolves_phases() == (L < np.sqrt(S) / 2)
        assert np.max(np.abs(twisted_convolve(f, g).values - direct_twisted_convolve(f, g))) <= 1e-12

    def test_refinement_convergence(self):
        # doubled resolution restricted to the coarse grid agrees closely
        coarse = PlaneGrid(4.0, 32)
        fine = PlaneGrid(4.0, 64)
        fc = gaussian_pair(coarse)
        ff = gaussian_pair(fine)
        a = twisted_convolve(fc, fc).values
        b = twisted_convolve(ff, ff).values[::2, ::2]
        assert relative_l2(a, b) <= 1e-3

    def test_noncommutative(self):
        grid = PlaneGrid(4.0, 32)
        f = displaced_gaussian(grid, 1.0, 0.0)
        g = displaced_gaussian(grid, 0.0, 1.0)
        d1 = twisted_convolve(f, g).values
        d2 = twisted_convolve(g, f).values
        assert np.linalg.norm(d1 - d2) / np.linalg.norm(d1) > 1e-2

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            twisted_convolve(gaussian_pair(PlaneGrid(4.0, 16)),
                             gaussian_pair(PlaneGrid(4.0, 32)))


def sup_relative(a, b) -> float:
    scale = np.max(np.abs(b))
    return float(np.max(np.abs(a - b)) / scale) if scale else float(np.max(np.abs(a)))


def plain(f: PhaseSpaceFunction) -> PhaseSpaceFunction:
    """f's values with no factors: twisted_convolve's chirp loop."""
    return PhaseSpaceFunction(f.grid, f.values)


class TestFactoredPairs:
    def test_outer_keeps_read_only_factors(self):
        grid, u = PlaneGrid(1.0, 4), np.arange(4.0)
        f = PhaseSpaceFunction.outer(grid, u, 1j * u)
        u[0] = np.nan
        assert np.array_equal(f.values, np.outer(np.arange(4.0), 1j * np.arange(4.0)))
        assert all(not w.flags.writeable and w.dtype == complex for w in f.factors)
        assert plain(f).factors is None and gaussian_pair(grid).factors is not None
        with pytest.raises(ValueError, match="factor values must have shape"):
            PhaseSpaceFunction.outer(grid, u[:3], u)

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_the_chirp_loop(self, seed):
        # random complex factors on even S in 2..96 and L in 0.5..6: f is g, f and g
        # apart, a zero factor, and mass at the window edge
        rng = np.random.default_rng(seed)
        S, L = 2 * int(rng.integers(1, 49)), float(rng.uniform(0.5, 6.0))
        grid = PlaneGrid(L, S)
        u, v, w, z = (rng.normal(size=S) + 1j * rng.normal(size=S) for _ in range(4))
        kind = ("same", "apart", "zero", "edge")[seed % 4]
        if kind == "zero":
            w = np.zeros(S)
        if kind == "edge":
            u[[0, -1]] *= 1e3
            z[[0, -1]] *= 1e3
        f = PhaseSpaceFunction.outer(grid, u, v)
        g = f if kind == "same" else PhaseSpaceFunction.outer(grid, w, z)
        got = twisted_convolve(f, g).values
        assert sup_relative(got, twisted_convolve(plain(f), plain(g)).values) <= 1e-13
        if kind == "zero":
            assert not got.any()

    @pytest.mark.parametrize("L, S", ORACLE_GRIDS + SMALL_GRIDS)
    def test_matches_direct_quadruple_sum(self, L, S):
        grid = PlaneGrid(L, S)
        rng = np.random.default_rng(S)
        f, g = (PhaseSpaceFunction.outer(grid, *(rng.normal(size=(2, S))
                                                 + 1j * rng.normal(size=(2, S))))
                for _ in range(2))
        got = twisted_convolve(f, g).values
        assert np.max(np.abs(got - direct_twisted_convolve(f, g))) <= 1e-12

    @pytest.mark.parametrize("L, S", [(0.5, 16), (1.0, 64), (4.0, 64), (4.0, 128), (6.0, 96)])
    def test_gaussian_report_within_roundoff_of_the_chirp_loop(self, L, S):
        f = gaussian_pair(PlaneGrid(L, S))
        factored = verify_rho_homomorphism(f, f)
        chirp = verify_rho_homomorphism(plain(f), plain(f))
        assert abs(factored.relative_error - chirp.relative_error) <= 1e-13
        assert (factored.truncation_f, factored.phases_resolved) == (
            chirp.truncation_f, chirp.phases_resolved)

    def test_pair_from_json_takes_the_chirp_loop(self):
        f, g = jsonio.pair_from_json(jsonio.load(FIXTURES / "gaussian_pair_s64.json"))
        assert f.factors is None and g.factors is None
        # the fixture's relative error, bit for bit, as before factored pairs
        assert verify_rho_homomorphism(f, g).relative_error.hex() == "0x1.cf30583f8dd16p-47"


class TestRhoPoint:
    def test_identity(self):
        grid = PlaneGrid(4.0, 32)
        phi = np.exp(-np.pi * grid.axis ** 2)
        assert np.array_equal(rho_point(0.0, 0.0, phi, grid), phi)

    def test_pure_modulation(self):
        grid = PlaneGrid(4.0, 32)
        phi = np.exp(-np.pi * grid.axis ** 2)
        got = rho_point(0.0, 0.7, phi, grid)
        assert np.allclose(got, np.exp(2j * np.pi * 0.7 * grid.axis) * phi)

    def test_inverse_composition_is_identity_inside(self):
        # rho(p,q) rho(-p,-q) = rho(0,0) by the composition of the two
        # displayed phases; only window-exit sites may differ
        grid = PlaneGrid(4.0, 32)
        h = grid.step
        phi = np.exp(-np.pi * grid.axis ** 2)
        p, q = 3 * h, 0.4
        back = rho_point(p, q, rho_point(-p, -q, phi, grid), grid)
        interior = slice(3, 29)
        assert np.max(np.abs(back[interior] - phi[interior])) <= 1e-12

    def test_translation_commutation(self):
        grid = PlaneGrid(4.0, 32)
        phi = np.exp(-np.pi * grid.axis ** 2)
        h = grid.step
        a = rho_point(2 * h, 0.0, rho_point(3 * h, 0.0, phi, grid), grid)
        b = rho_point(3 * h, 0.0, rho_point(2 * h, 0.0, phi, grid), grid)
        assert np.allclose(a, b)

    def test_weyl_commutation_scalar(self):
        # swapping a translation and a modulation costs exactly e^{2i pi p q}
        grid = PlaneGrid(4.0, 32)
        phi = np.exp(-np.pi * grid.axis ** 2)
        p, q = 2 * grid.step, 0.3
        mod_then_shift = rho_point(p, 0.0, rho_point(0.0, q, phi, grid), grid)
        shift_then_mod = rho_point(0.0, q, rho_point(p, 0.0, phi, grid), grid)
        mask = np.abs(shift_then_mod) > 1e-8
        ratio = mod_then_shift[mask] / shift_then_mod[mask]
        assert np.max(np.abs(ratio - np.exp(2j * np.pi * p * q))) <= 1e-12

    def test_off_lattice_shift_rejected(self):
        grid = PlaneGrid(4.0, 32)
        with pytest.raises(OffLatticeShift):
            rho_point(0.1, 0.0, np.ones(32), grid)


class TestRhoKernel:
    def test_zero(self):
        grid = PlaneGrid(4.0, 16)
        z = PhaseSpaceFunction(grid, np.zeros((16, 16)))
        assert np.array_equal(rho_kernel(z).values, np.zeros((16, 16)))

    def test_point_mass_gives_diagonal_kernel(self):
        grid = PlaneGrid(4.0, 16)
        S, h = 16, grid.step
        vals = np.zeros((S, S))
        vals[S // 2, S // 2] = 1.0 / h ** 2
        K = rho_kernel(PhaseSpaceFunction(grid, vals)).values
        assert np.allclose(np.diag(K), np.full(S, 1.0 / h))
        assert np.max(np.abs(K - np.diag(np.diag(K)))) == 0.0

    @pytest.mark.parametrize("L, S", ORACLE_GRIDS + SMALL_GRIDS)
    def test_matches_direct_sum(self, L, S):
        grid = PlaneGrid(L, S)
        rng = np.random.default_rng(1)
        f = PhaseSpaceFunction(grid, rng.normal(size=(S, S))
                               + 1j * rng.normal(size=(S, S)))
        assert np.max(np.abs(rho_kernel(f).values - direct_rho_kernel(f))) <= 1e-12

    def test_gaussian_matches_analytic_kernel(self):
        # K(x, y) = e^{-pi (y-x)^2} e^{-pi (x+y)^2 / 4} for the unit Gaussian
        grid = PlaneGrid(4.0, 64)
        K = rho_kernel(gaussian_pair(grid)).values
        X = grid.axis
        KA = (np.exp(-np.pi * (X[None, :] - X[:, None]) ** 2)
              * np.exp(-np.pi * (X[:, None] + X[None, :]) ** 2 / 4))
        assert np.max(np.abs(K - KA)) <= 1e-8

    def test_refinement_convergence(self):
        coarse = PlaneGrid(4.0, 64)
        fine = PlaneGrid(4.0, 128)
        a = rho_kernel(gaussian_pair(coarse)).values
        b = rho_kernel(gaussian_pair(fine)).values[::2, ::2]
        assert relative_l2(a, b) <= 1e-3

    def test_linear(self):
        grid = PlaneGrid(4.0, 16)
        rng = np.random.default_rng(2)
        f = PhaseSpaceFunction(grid, rng.normal(size=(16, 16)) + 0j)
        g = PhaseSpaceFunction(grid, rng.normal(size=(16, 16)) + 0j)
        lin = PhaseSpaceFunction(grid, 2j * f.values - 0.5 * g.values)
        lhs = rho_kernel(lin).values
        rhs = 2j * rho_kernel(f).values - 0.5 * rho_kernel(g).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestComposeKernels:
    def test_zero(self):
        grid = PlaneGrid(4.0, 16)
        K = rho_kernel(gaussian_pair(grid))
        Z = OperatorKernel(grid, np.zeros((16, 16)))
        assert np.array_equal(compose_kernels(K, Z).values, np.zeros((16, 16)))

    def test_identity_like_kernel(self):
        grid = PlaneGrid(4.0, 16)
        K = rho_kernel(gaussian_pair(grid))
        I = OperatorKernel(grid, np.eye(16) / grid.step)
        assert np.allclose(compose_kernels(I, K).values, K.values)
        assert np.allclose(compose_kernels(K, I).values, K.values)

    def test_associative(self):
        grid = PlaneGrid(4.0, 16)
        rng = np.random.default_rng(3)
        decay = np.exp(-np.outer(grid.axis ** 2, np.ones(16)) / 4)
        Ks = [OperatorKernel(grid, (rng.normal(size=(16, 16))
                                    + 1j * rng.normal(size=(16, 16)))
                             * decay * decay.T) for _ in range(3)]
        left = compose_kernels(compose_kernels(Ks[0], Ks[1]), Ks[2]).values
        right = compose_kernels(Ks[0], compose_kernels(Ks[1], Ks[2])).values
        assert relative_l2(left, right) <= 1e-10

    def test_kernel_application_consistent_with_rho_point_superposition(self):
        # rho(f) phi computed through the kernel equals the h^2-weighted sum
        # of rho(p, q) phi over the grid
        grid = PlaneGrid(4.0, 16)
        rng = np.random.default_rng(4)
        f = PhaseSpaceFunction(grid, rng.normal(size=(16, 16)) + 0j)
        phi = np.exp(-np.pi * grid.axis ** 2)
        direct = np.zeros(16, dtype=complex)
        for a, p in enumerate(grid.axis):
            for b, q in enumerate(grid.axis):
                direct += f.values[a, b] * rho_point(p, q, phi, grid)
        direct *= grid.step ** 2
        K = rho_kernel(f)
        via_kernel = grid.step * (K.values @ phi)
        assert np.max(np.abs(direct - via_kernel)) <= 1e-10


class TestTable:
    def test_values_are_a_private_read_only_copy(self):
        grid = PlaneGrid(1.0, 2)
        arr = np.zeros((2, 2), dtype=complex)
        for table in (PhaseSpaceFunction(grid, arr), OperatorKernel(grid, arr)):
            arr[0, 0] = np.nan
            assert np.isfinite(table.values).all()
            with pytest.raises(ValueError):
                table.values[0, 0] = 1.0
            arr[0, 0] = 0.0

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="table values must have shape"):
            PhaseSpaceFunction(PlaneGrid(1.0, 2), np.zeros((2, 3)))


class TestHomomorphism:
    def test_same_input_equals_a_copy(self, monkeypatch):
        # verify reuses rho(f) for a g with f's bits; the report is the same bits
        grid = PlaneGrid(3.0, 32)
        rng = np.random.default_rng(5)
        f = PhaseSpaceFunction(grid, displaced_gaussian(grid, 0.5, -1.0).values
                               * np.exp(1j * rng.uniform(0, 2 * np.pi, (32, 32))))
        copy = PhaseSpaceFunction(grid, f.values)
        assert copy.values is not f.values
        calls = []

        def counting(table):
            calls.append(table)
            return rho_kernel(table)

        monkeypatch.setattr(twisted, "rho_kernel", counting)
        assert verify_rho_homomorphism(f, f) == verify_rho_homomorphism(f, copy)
        assert len(calls) == 4              # rho(f # g) and rho(f), per call
        # equal values with other bits: -0.0 is not 0.0
        zeros = np.zeros((32, 32))
        verify_rho_homomorphism(PhaseSpaceFunction(grid, zeros),
                                PhaseSpaceFunction(grid, -zeros))
        assert len(calls) == 7

    def test_zero_inputs(self):
        grid = PlaneGrid(4.0, 16)
        z = PhaseSpaceFunction(grid, np.zeros((16, 16)))
        rep = verify_rho_homomorphism(z, z)
        assert rep.relative_error == 0.0

    def test_gaussians_resolved_grid(self):
        grid = PlaneGrid(4.0, 64)
        f = gaussian_pair(grid)
        rep = verify_rho_homomorphism(f, f)
        assert rep.relative_error <= 5e-2
        assert rep.phases_resolved
        assert rep.truncation_f <= 1e-12

    def test_error_decreases_monotonically(self):
        errs = []
        for S in (32, 64, 128):
            grid = PlaneGrid(4.0, S)
            f = gaussian_pair(grid)
            errs.append(verify_rho_homomorphism(f, f).relative_error)
        assert errs[0] > errs[1] > errs[2]

    def test_boundary_diagnostic_flags_poorly_contained_input(self):
        grid = PlaneGrid(1.0, 16)          # window too small for the Gaussian
        f = gaussian_pair(grid)
        rep = verify_rho_homomorphism(f, f)
        assert rep.truncation_f > 1e-3
