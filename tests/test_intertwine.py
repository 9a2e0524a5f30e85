import numpy as np
import pytest

from convalg import (Group, Operator, classify, check_conv_homomorphism,
                     classify_intertwiner, construct_intertwiner, delta,
                     rel_residual)
from convalg.errors import (EntryVanishes, PhaseOffLattice,
                            ReconstructionMismatch, ZeroOperator)

from helpers import PhaseFunction, check_intertwining, disc_signal, modulate, translate


def draw_params(n, rng):
    k0, m0, m1 = (int(rng.integers(0, n)) for _ in range(3))
    c = 0.0
    while abs(c) < 0.3:
        c = complex(rng.normal(), rng.normal())
    return k0, m0, m1, c


class TestTranslate:
    def test_zero_shift(self):
        g = Group(6)
        a = disc_signal(g, np.random.default_rng(0))
        assert np.array_equal(translate(a, 0).values, a.values)

    def test_delta_moves_backwards(self):
        # tau_1 delta_0 = delta_3 on Z/4: delta_0(j+1) = 1 iff j = 3
        g = Group(4)
        assert np.allclose(translate(delta(g, 0), 1).values, delta(g, 3).values)

    def test_periodic(self):
        g = Group(5)
        a = disc_signal(g, np.random.default_rng(1))
        assert np.allclose(translate(a, 5).values, a.values)

    def test_definition_pointwise(self):
        g = Group(7)
        a = disc_signal(g, np.random.default_rng(2))
        t = translate(a, 3)
        for j in range(7):
            assert t.values[j] == a.values[(j + 3) % 7]


class TestModulate:
    def test_k_zero_is_identity(self):
        g = Group(5)
        a = disc_signal(g, np.random.default_rng(3))
        phi = PhaseFunction.affine(g, 1, 0)
        assert np.allclose(modulate(a, 0, phi).values, a.values)

    def test_zero_phase_is_identity(self):
        g = Group(5)
        a = disc_signal(g, np.random.default_rng(4))
        phi = PhaseFunction([0] * 5)
        for k in range(5):
            assert np.allclose(modulate(a, k, phi).values, a.values)

    def test_character_row(self):
        from convalg import Signal
        g = Group(8)
        phi = PhaseFunction.affine(g, 1, 0)
        got = modulate(Signal(g, np.ones(8)), 1, phi)
        assert np.allclose(got.values, np.exp(2j * np.pi * np.arange(8) / 8))

    def test_real_part_rejected(self):
        with pytest.raises(ValueError):
            PhaseFunction([0.3 + 1j])

    def test_length_mismatch(self):
        g = Group(4)
        with pytest.raises(ValueError):
            modulate(delta(g, 0), 1, PhaseFunction([0] * 5))


class TestConstruct:
    def test_unit_parameters_give_transform_table(self):
        g = Group(8)
        T = construct_intertwiner(g, 1, 0, 0, 1)
        assert np.allclose(T.table, Operator.dft(g).table)

    def test_modulated_transform(self):
        g = Group(6)
        T = construct_intertwiner(g, 1, 0, 1, 1)
        mod = np.exp(2j * np.pi * np.arange(6) / 6)[:, None]
        assert np.allclose(T.table, mod * Operator.dft(g).table)

    def test_rank_one_table_still_intertwines(self):
        g = Group(6)
        T = construct_intertwiner(g, 0, 1, 0, 1)
        # every row is the same character: rank one
        assert np.linalg.matrix_rank(T.table) == 1
        phi = PhaseFunction.affine(g, 0, 1)
        psi = PhaseFunction.affine(g, 0, 0)
        rep = check_intertwining(T, phi, psi)
        assert rep.passed

    def test_zero_scalar_rejected(self):
        with pytest.raises(ValueError):
            construct_intertwiner(Group(4), 1, 0, 0, 0)

    @pytest.mark.parametrize("k0, m0, m1", [
        (3, 2, 2 ** 70), (-2 ** 80, 3 ** 50, 5), (10 ** 30, -10 ** 30, -(2 ** 64) - 3)])
    def test_parameters_taken_mod_n(self, k0, m0, m1):
        g = Group(8)
        T = construct_intertwiner(g, k0, m0, m1, 2 - 1j)
        reduced = construct_intertwiner(g, k0 % 8, m0 % 8, m1 % 8, 2 - 1j)
        assert np.array_equal(T.table, reduced.table)


class TestCheckIntertwining:
    def test_transform_with_affine_phases(self):
        g = Group(8)
        rep = check_intertwining(Operator.dft(g),
                                 PhaseFunction.affine(g, 1, 0),
                                 PhaseFunction.affine(g, -1, 0))
        assert rep.passed and rep.max_residual <= 1e-12

    def test_zero_operator_degenerate_pass(self):
        g = Group(5)
        rep = check_intertwining(Operator.from_table(g, np.zeros((5, 5))),
                                 PhaseFunction.affine(g, 2, 1),
                                 PhaseFunction.affine(g, -2, 0))
        assert rep.passed

    def test_transform_with_flat_phase_fails(self):
        g = Group(8)
        rep = check_intertwining(Operator.dft(g), PhaseFunction([0] * 8),
                                 PhaseFunction.affine(g, -1, 0))
        assert not rep.passed
        assert rep.witness.inputs[0] == 1  # first failing k

    def test_overflowing_entry_fails_with_nan_residual(self):
        # |D[0, 0]| overflows to inf, so some residuals are NaN: the check
        # must fail on them, not skip them
        tbl = np.zeros((4, 4), dtype=complex)
        tbl[0, 0] = 1.5e308 + 1.5e308j
        tbl[1, 2] = 1.0
        g = Group(4)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = check_intertwining(Operator.from_table(g, tbl),
                                     PhaseFunction.affine(g, 1, 0),
                                     PhaseFunction.affine(g, -1, 0))
        assert not rep.passed
        assert np.isnan(rep.max_residual)
        assert rep.witness is not None

    def test_both_relations_checked_pointwise(self):
        # manual verification of both identities for one constructed operator
        g = Group(6)
        k0, m0, m1, c = 2, 3, 1, 1.5 - 0.5j
        T = construct_intertwiner(g, k0, m0, m1, c)
        phi = PhaseFunction.affine(g, k0, m0)
        psi = PhaseFunction.affine(g, -k0, m1)
        a = disc_signal(g, np.random.default_rng(5))
        from convalg import apply
        for k in range(6):
            lhs = apply(T, translate(a, k)).values
            rhs = modulate(apply(T, a), k, phi).values
            assert np.allclose(lhs, rhs, atol=1e-10)
            lhs2 = apply(T, modulate(a, k, psi)).values
            rhs2 = translate(apply(T, a), k).values
            assert np.allclose(lhs2, rhs2, atol=1e-10)


class TestClassify:
    def test_transform_table(self):
        c = classify_intertwiner(Operator.dft(Group(8)))
        assert (c.k0, c.m0, c.m1) == (1, 0, 0)
        assert c.c == pytest.approx(1.0)

    def test_documented_roundtrip(self):
        g = Group(8)
        c = classify_intertwiner(construct_intertwiner(g, 3, 2, 5, 2 - 1j))
        assert (c.k0, c.m0, c.m1) == (3, 2, 5)
        assert c.c == pytest.approx(2 - 1j)

    def test_zeroed_entry_detected(self):
        g = Group(8)
        tbl = np.array(construct_intertwiner(g, 3, 2, 5, 2 - 1j).table)
        tbl[4, 6] = 0.0
        with pytest.raises(EntryVanishes) as exc:
            classify_intertwiner(Operator.from_table(g, tbl))
        assert (exc.value.j, exc.value.ell) == (6, 4)

    def test_zero_operator(self):
        with pytest.raises(ZeroOperator):
            classify_intertwiner(Operator.from_table(Group(4), np.zeros((4, 4))))

    def test_phase_off_lattice(self):
        g = Group(8)
        tbl = np.array(construct_intertwiner(g, 1, 0, 0, 1).table)
        tbl[1] *= np.exp(0.3j)          # breaks the psi lattice structure
        with pytest.raises(PhaseOffLattice):
            classify_intertwiner(Operator.from_table(g, tbl))

    def test_reconstruction_mismatch(self):
        # rows 0 and 1 consistent with one parameter set, deeper rows not
        g = Group(8)
        good = np.array(construct_intertwiner(g, 2, 1, 3, 1.0).table)
        good[5] *= np.exp(2j * np.pi * 3 / 8)   # lattice-consistent corruption
        with pytest.raises(ReconstructionMismatch):
            classify_intertwiner(Operator.from_table(g, good))

    def test_residual_is_distance_to_rebuild(self):
        g = Group(8)
        tbl = np.array(construct_intertwiner(g, 3, 2, 5, 2 - 1j).table)
        tbl += 1e-12 * np.random.default_rng(0).normal(size=tbl.shape)
        got = classify_intertwiner(Operator.from_table(g, tbl))
        rebuilt = construct_intertwiner(g, got.k0, got.m0, got.m1, got.c)
        assert got.residual == rel_residual(tbl, rebuilt.table)
        assert 0 < got.residual <= 1e-11

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_seeded_roundtrips(self, n):
        rng = np.random.default_rng(n)
        g = Group(n)
        for _ in range(100):
            k0, m0, m1, c = draw_params(n, rng)
            T = construct_intertwiner(g, k0, m0, m1, c)
            phi = PhaseFunction.affine(g, k0, m0)
            psi = PhaseFunction.affine(g, -k0, m1)
            assert check_intertwining(T, phi, psi).max_residual <= 1e-11
            got = classify_intertwiner(T)
            assert (got.k0, got.m0, got.m1) == (k0, m0, m1)
            assert abs(got.c - c) <= 1e-9 * abs(c)


class TestPassImpliesClassifies:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_near_canonical_tables_passing_the_check_classify(self, n):
        # D (1 + e) entrywise, (1 + eps) D and D + e at amplitudes around tol:
        # whichever passes check_intertwining with its affine phases must
        # classify to its planted (k0, m0, m1)
        g = Group(n)
        rng = np.random.default_rng(n)
        passed = 0
        for amplitude in np.logspace(-11, -8, 10):
            for _ in range(4):
                k0, m0, m1, c = draw_params(n, rng)
                table = construct_intertwiner(g, k0, m0, m1, c).table
                phi = PhaseFunction.affine(g, k0, m0)
                psi = PhaseFunction.affine(g, -k0, m1)
                noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                for perturbed in (table * (1 + amplitude * noise),
                                  (1 + amplitude * noise[0, 0]) * table,
                                  table + amplitude * noise):
                    T = Operator.from_table(g, perturbed)
                    if not check_intertwining(T, phi, psi, 1e-9).passed:
                        continue
                    passed += 1
                    got = classify_intertwiner(T, 1e-9)
                    assert (got.k0, got.m0, got.m1) == (k0, m0, m1)
        assert passed >= 40


class TestUniqueness:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_distinct_parameters_give_separated_tables(self, n):
        g = Group(n)
        c = 1.0
        tables = {}
        for k0 in range(n):
            for m0 in range(n):
                for m1 in range(n):
                    tables[(k0, m0, m1)] = construct_intertwiner(
                        g, k0, m0, m1, c).table
        keys = list(tables.keys())
        gap = abs(c) * abs(1 - np.exp(2j * np.pi / n))
        stack = np.stack([tables[k] for k in keys]).reshape(len(keys), -1)
        # pairwise sup-norm distances, chunked
        for i in range(0, len(keys), 64):
            block = stack[i:i + 64]
            d = np.abs(block[:, None, :] - stack[None, :, :]).max(axis=2)
            same = np.zeros((block.shape[0], stack.shape[0]), dtype=bool)
            for bi in range(block.shape[0]):
                same[bi, i + bi] = True
            assert np.all(d[~same] >= gap - 1e-9)


class TestCrossModuleConsistency:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_pure_frequency_dilations_are_conv_homomorphisms(self, n):
        g = Group(n)
        for k0 in range(n):
            T = construct_intertwiner(g, k0, 0, 0, 1)
            assert check_conv_homomorphism(T).passed
            c = classify(T)
            assert c.support == tuple(range(n))
            assert c.sigma == {ell: (k0 * ell) % n for ell in range(n)}

    def test_nonzero_m0_shifts_the_frequency_map(self):
        g = Group(6)
        T = construct_intertwiner(g, 2, 3, 0, 1)
        assert check_conv_homomorphism(T).passed
        c = classify(T)
        assert c.sigma == {ell: (2 * ell + 3) % 6 for ell in range(6)}
